"""Spectrum analysis: diagonalization, IPR, mobility edge, and state classification.

This module owns numpy's symmetric eigensolvers: every `eigh` of the package
is `diagonalize` and every `eigvalsh` is `_stacked_eigvalsh`, both at one
OpenBLAS thread, so no eigenvalue depends on the process's thread count.

For a deformed chain (a != 0, lam != 0) the critical energy

    E_c = 2 * sgn(lam) * (|t| - |lam|) / a

separates extended eigenstates (E < E_c) from localized ones (E > E_c).
At a = 0 there is no mobility edge and the standard Aubry-Andre criterion
applies: the whole spectrum is extended for |lam| < |t| and localized for
|lam| > |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import _one_blas_thread
from .model import LatticeSpec, build_hamiltonian

EXTENDED = "extended"
LOCALIZED = "localized"
UNDEFINED = "undefined"

PHASE_EXTENDED = "extended"
PHASE_INTERMEDIATE = "intermediate"
PHASE_LOCALIZED = "localized"

_SYMMETRY_TOL = 1e-10
# energies within TIE_BAND * max(1, |E_c|) of the mobility edge go to the IPR tie-break
TIE_BAND = 1e-12


@dataclass
class SpectrumData:
    """Full diagnostics for one spectrum.

    energies ascend; eigenvectors[:, n] pairs with energies[n]; labels hold
    "extended" / "localized" / "undefined" per state; n_e and n_l are the
    extended/localized fractions N_e/L and N_l/L.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray
    ipr: np.ndarray
    mobility_edge: float | None
    labels: np.ndarray
    n_e: float
    n_l: float


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a symmetric matrix, from one `eigh`
    at one OpenBLAS thread, so that no value depends on the process's thread count."""
    h = np.asarray(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    if not np.max(np.abs(h - h.T.conj())) <= _SYMMETRY_TOL * scale:  # a NaN fails too
        raise ValueError("matrix is not symmetric")
    with _one_blas_thread():
        return np.linalg.eigh(h)


def _stacked_eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a stack [..., n, n], from one `eigvalsh` at one
    OpenBLAS thread; numpy diagonalises each matrix on its own, so every value equals that of the matrix
    alone. No symmetry check: it serves the entropy hot paths, whose blocks are Hermitian by construction."""
    with _one_blas_thread():
        return np.linalg.eigvalsh(stack)


def ipr_values(eigenvectors: np.ndarray) -> np.ndarray:
    """Inverse participation ratio sum|psi_i|^4 / (sum|psi_i|^2)^2 of every eigenvector column psi at
    once: 1/L for a uniform state, 1 for a single-site peak."""
    p = np.abs(eigenvectors) ** 2
    return (p**2).sum(axis=0) / p.sum(axis=0) ** 2


def mobility_edge(spec: LatticeSpec) -> float | None:
    """Critical energy E_c = 2*sgn(lam)*(|t| - |lam|)/a, or None when it does not exist.

    a = 0 has no mobility edge (the AA criterion applies instead); lam = 0
    leaves a potential-free chain where every state is extended.
    """
    if spec.a == 0 or spec.lam == 0:
        return None
    return 2.0 * math.copysign(1.0, spec.lam) * (abs(spec.t) - abs(spec.lam)) / spec.a


def _aubry_andre_label(spec: LatticeSpec) -> str:
    """The AA criterion for a chain without a mobility edge: every state is
    extended for |lam| < |t|, localized for |lam| > |t|, undefined at |lam| = |t|."""
    if abs(spec.lam) < abs(spec.t):
        return EXTENDED
    if abs(spec.lam) > abs(spec.t):
        return LOCALIZED
    return UNDEFINED


def _ipr_threshold(L: int) -> float:
    # geometric midpoint between the 1/L and O(1) scalings
    return 2.0 / math.sqrt(L)


def classify(
    energies: np.ndarray,
    spec: LatticeSpec,
    iprs: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Label each state extended/localized and return the fractions (labels, n_e, n_l).

    With a mobility edge E_c = mobility_edge(spec), E < E_c is extended and
    E > E_c localized; a state within TIE_BAND * max(1, |E_c|) of E_c, where
    rounding decides the side, is resolved by the IPR tie-break (extended iff
    IPR < 2/sqrt(L)). Without one, the AA criterion decides the whole
    spectrum, leaving labels undefined (n_e = n_l = NaN) at |lam| = |t|.
    """
    energies = np.asarray(energies)
    L = energies.size
    labels = np.empty(L, dtype=object)
    e_c = mobility_edge(spec)
    if e_c is None:
        label = _aubry_andre_label(spec)
        labels[:] = label
        if label == UNDEFINED:
            return labels, float("nan"), float("nan")
        return labels, float(label == EXTENDED), float(label == LOCALIZED)

    offset = energies - e_c
    band = TIE_BAND * max(1.0, abs(e_c))
    labels[offset < -band] = EXTENDED
    labels[offset > band] = LOCALIZED
    ties = np.flatnonzero(np.abs(offset) <= band)
    if ties.size:
        if iprs is None:
            raise ValueError("energies lie within the tie band of E_c; IPR values needed for the tie-break")
        thr = _ipr_threshold(L)
        for n in ties:
            labels[n] = EXTENDED if iprs[n] < thr else LOCALIZED
    n_e = float(np.count_nonzero(labels == EXTENDED)) / L
    n_l = float(np.count_nonzero(labels == LOCALIZED)) / L
    return labels, n_e, n_l


def phase_region(spec: LatticeSpec, energies: np.ndarray) -> str:
    """Classify the whole spectrum: "extended", "intermediate", or "localized".

    Intermediate means the mobility edge lies strictly inside the spectrum.
    Raises ValueError in the corner cases where no region predicate holds
    (AA critical point |lam| = |t| at a = 0, or E_c exactly on a spectral
    endpoint).
    """
    energies = np.asarray(energies)
    e_c = mobility_edge(spec)
    if e_c is not None:
        lo, hi = float(energies.min()), float(energies.max())
        if lo < e_c < hi:
            return PHASE_INTERMEDIATE
        if e_c > hi:
            return PHASE_EXTENDED
        if e_c < lo:
            return PHASE_LOCALIZED
        raise ValueError("mobility edge coincides with a spectral endpoint; region undefined")
    region = _aubry_andre_label(spec)  # the state labels double as region names
    if region == UNDEFINED:
        raise ValueError("AA critical point |lam| = |t|; region undefined")
    return region


def analyze(spec: LatticeSpec) -> SpectrumData:
    """Diagonalize the chain and bundle energies, IPRs, labels, and fractions."""
    energies, vecs = diagonalize(build_hamiltonian(spec))
    iprs = ipr_values(vecs)
    labels, n_e, n_l = classify(energies, spec, iprs)
    return SpectrumData(energies, vecs, iprs, mobility_edge(spec), labels, n_e, n_l)
