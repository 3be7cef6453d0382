"""Brute-force many-body reference for small chains.

Validates the Gaussian fast path on exact many-body state vectors:
second-quantized Hamiltonian matrices, exact state-vector evolution, and
reduced-density-matrix entropies with fermionic (Jordan-Wigner) sign
bookkeeping. Mode ordering is chain sites 1..L with the reference mode last;
a canonical basis ket is

    |n> = (c_1^dag)^{n_1} (c_2^dag)^{n_2} ... (c_M^dag)^{n_M} |vac>,

stored as the bitmask sum_m n_m 2^{m-1}. The Hamiltonian conserves particle
number, so every initial state lives in one fixed-number sector, made of one or
two sectors of the chain (ChainSectors). A state vector is pure, so
S(A) = S(complement of A) and `exact_entropy` builds the reduced density matrix
of the smaller side. Hard size guard: M <= 12 modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import QuenchSetup, _sample_times, _site_indices, occupation_pattern
from .model import LatticeSpec, build_hamiltonian
from .spectral import _stacked_eigvalsh, diagonalize

MAX_MODES = 12


def _check_modes(modes: int):
    if modes > MAX_MODES:
        raise ValueError(f"oracle limited to {MAX_MODES} modes, got {modes}")


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis over `modes` modes, optionally at fixed particle number."""

    modes: int
    particles: int | None
    states: tuple[int, ...]
    index: dict[int, int]

    def __len__(self) -> int:
        return len(self.states)

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        """Read-only [ket, mode] 0/1 occupations of the basis kets, built on first use."""
        table = (np.asarray(self.states, dtype=np.int64)[:, None] >> np.arange(self.modes)) & 1
        table.flags.writeable = False
        return table


def fixed_number_basis(modes: int, particles: int) -> FockBasis:
    _check_modes(modes)
    if not 0 <= particles <= modes:
        raise ValueError(f"particle number {particles} outside 0..{modes}")
    counts = np.zeros(1, dtype=int)  # the bit count of each ket 0..2^modes - 1, one mode more per step
    for _ in range(modes):
        counts = np.concatenate([counts, counts + 1])
    states = tuple(np.flatnonzero(counts == particles).tolist())  # ascending
    return FockBasis(modes, particles, states, dict(zip(states, range(len(states)))))


def many_body_hamiltonian(h: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Matrix of sum_ij h_ij c_i^dag c_j in the given basis (real symmetric for real h).

    c_i^dag c_j with i != j maps a ket to one other ket, so each off-diagonal
    entry has a single term, with the sign (-1)^(occupied modes below j in n
    plus occupied modes below i in n - j): every hop of every ket is set in one
    vectorised pass over the occupation table. The diagonal adds h_ii over the
    occupied modes, mode by mode in ascending order.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (basis.modes, basis.modes):
        raise ValueError(f"single-particle matrix {h.shape} does not match {basis.modes} modes")
    states = np.asarray(basis.states, dtype=np.int64)
    occ = basis.occupations.astype(bool)
    below = np.cumsum(occ, axis=1) - occ  # occupied modes below each mode
    dim = len(basis)
    out = np.zeros((dim, dim))
    diagonal = out.reshape(-1)[:: dim + 1]
    for i in np.flatnonzero(np.diag(h)):
        diagonal[occ[:, i]] += h[i, i]
    i, j = np.nonzero(h)
    i, j = i[i != j], j[i != j]
    cols, hop = np.nonzero(occ[:, j] & ~occ[:, i])  # the kets with j occupied and i empty, for each hop
    i, j = i[hop], j[hop]
    position = np.full(1 << basis.modes, -1)
    position[states] = np.arange(dim)
    rows = position[states[cols] ^ (1 << j) | (1 << i)]
    if np.any(rows < 0):  # a basis not closed under hopping
        raise ValueError("basis is missing a ket that the Hamiltonian reaches")
    swaps = below[cols, j] + below[cols, i] - (j < i)
    out[rows, cols] = (1 - 2 * (swaps % 2)) * h[i, j]
    return out


class ChainSectors:
    """The chain Hamiltonian's many-body eigendecomposition per particle number over the L sites, each
    made on first use by spectral.diagonalize. The reference mode R (mode L + 1) never hops, so a sector
    over L + 1 modes is the chain's N-particle kets (R empty), then its N - 1 with R's bit set, and H on
    each part is that chain sector's: one store serves the chain with and without R. It lives only as
    long as its caller keeps it, so a repeated run repeats every `eigh`."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        self._h = build_hamiltonian(spec)
        self._sectors = {}

    def evolve(self, state: np.ndarray, basis: FockBasis, times) -> np.ndarray:
        """exp(-iHt)|state> at each time, [n_times, dim], for a state in a fixed-number `basis` over the
        chain or over the chain and R."""
        L, state = self.spec.L, np.asarray(state, dtype=complex)
        if basis.particles is None or basis.modes not in (L, L + 1) or state.shape != (len(basis),):
            raise ValueError(f"the state lies in no fixed-number sector of the {L}-site chain (and R)")
        out = np.empty((len(times), state.size), dtype=complex)
        counts = [basis.particles] if basis.modes == L else [basis.particles, basis.particles - 1]
        start = 0
        for particles in (n for n in counts if 0 <= n <= L):  # R empty, then R occupied
            if particles not in self._sectors:
                hamiltonian = many_body_hamiltonian(self._h, fixed_number_basis(L, particles))
                self._sectors[particles] = diagonalize(hamiltonian)
            energies, vectors = self._sectors[particles]
            kets = slice(start, start + energies.size)
            start = kets.stop
            state_eig = vectors.conj().T @ state[kets]  # shared by all times
            forward = vectors.astype(complex)  # the cast numpy would make for each time's product, made once
            for k, time in enumerate(times):
                out[k, kets] = forward @ (np.exp(-1j * energies * time) * state_eig)
            del forward  # freed before the next sector is built
        return out


def exact_evolve(state: np.ndarray, hamiltonian: np.ndarray, time: float) -> np.ndarray:
    """One-shot exp(-i H t) |state> from one spectral.diagonalize of any many-body H: the direct
    reference for ChainSectors.evolve."""
    if hamiltonian.shape[0] > 2**MAX_MODES:
        raise ValueError("many-body dimension exceeds the oracle guard")
    energies, vectors = diagonalize(hamiltonian)
    return vectors @ (np.exp(-1j * energies * time) * (vectors.conj().T @ np.asarray(state, dtype=complex)))


def reduced_density_matrix(state: np.ndarray, basis: FockBasis, subset) -> np.ndarray:
    """Partial trace over the complement of `subset` (1-based mode labels) of one state [dim] or of
    each state of a stack [n_states, dim]: [2^|A|, 2^|A|], or one such matrix per state.

    Amplitudes are reorganized into a (subset x complement) matrix with the
    fermionic reordering sign: each occupied subset mode i contributes a swap
    for every occupied complement mode j < i. The ket -> (row, column, sign)
    map is built once for the whole stack.
    """
    in_a = np.zeros(basis.modes, dtype=bool)
    in_a[_site_indices(subset, basis.modes)] = True
    occ = basis.occupations
    occ_a, occ_b = occ[:, in_a], occ[:, ~in_a]
    # at a subset mode, the running count of occupied complement modes is the count below it
    swaps = (occ_a * np.cumsum(occ * ~in_a, axis=1)[:, in_a]).sum(axis=1)
    a_idx = occ_a @ (1 << np.arange(occ_a.shape[1]))
    b_idx = occ_b @ (1 << np.arange(occ_b.shape[1]))
    state = np.asarray(state, dtype=complex)
    psi = np.zeros(state.shape[:-1] + (2 ** occ_a.shape[1], 2 ** occ_b.shape[1]), dtype=complex)
    psi[..., a_idx, b_idx] = (1 - 2 * (swaps % 2)) * state  # each ket has its own (row, column)
    return psi @ psi.conj().swapaxes(-1, -2)


def _smaller_side(subset, modes: int) -> tuple[int, ...]:
    """The sorted 1-based labels of `subset`, or of its complement among the `modes` modes where that is
    strictly smaller: a state vector is pure, so both sides have one entropy."""
    labels = (_site_indices(subset, modes) + 1).tolist()
    if 2 * len(labels) > modes:
        labels = sorted(set(range(1, modes + 1)) - set(labels))
    return tuple(labels)


def exact_entropy(state: np.ndarray, basis: FockBasis, subset):
    """Von Neumann entropy in nats of the reduced density matrix on `subset` (1-based modes): a float
    for one state [dim], an array [n_states] for a stack [n_states, dim].

    The state vector is pure, so the larger side is replaced by its complement
    (_smaller_side; a tie keeps `subset`); an empty side has entropy 0 and
    builds no matrix.
    """
    state = np.asarray(state, dtype=complex)
    labels = _smaller_side(subset, basis.modes)
    values = np.zeros(state.shape[:-1])
    if labels:
        spectra = _stacked_eigvalsh(reduced_density_matrix(state, basis, labels))
        for index in np.ndindex(values.shape):
            p = spectra[index][spectra[index] > 1e-14]
            values[index] = -(p * np.log(p)).sum()
    return float(values) if values.ndim == 0 else values


def initial_state(setup: QuenchSetup) -> tuple[FockBasis, np.ndarray]:
    """Many-body state vector matching gaussian.initial_correlation.

    Without a reference the fixed-N basis over L modes holds one Fock ket.
    With a reference the fixed-N basis over L+1 modes (reference last) holds
    the two-branch Bell superposition (c_E^dag + c_R^dag)/sqrt(2) applied to
    the product pattern without site E, with each branch reordered into the
    canonical ket (signs included); both branches carry that pattern's
    particles plus one.
    """
    occ = occupation_pattern(setup)
    L = setup.spec.L
    if setup.reference_site is None:
        basis = fixed_number_basis(L, int(occ.sum()))
        state = np.zeros(len(basis), dtype=complex)
        state[basis.index[int(sum(1 << i for i in np.flatnonzero(occ)))]] = 1.0
        return basis, state
    e_bit = setup.reference_site - 1
    r_bit = L
    rest = int(sum(1 << i for i in np.flatnonzero(occ) if i != e_bit))
    basis = fixed_number_basis(L + 1, rest.bit_count() + 1)
    sign_e = (-1) ** (rest & ((1 << e_bit) - 1)).bit_count()
    sign_r = (-1) ** rest.bit_count()  # r is the last mode; swaps past every occupied site
    state = np.zeros(len(basis), dtype=complex)
    state[basis.index[rest | (1 << e_bit)]] += sign_e / math.sqrt(2.0)
    state[basis.index[rest | (1 << r_bit)]] += sign_r / math.sqrt(2.0)
    return basis, state


# psi amplitudes [k, 2^|A|, 2^|B|] of one chunk of sample times in exact_entropies (4 MB)
_CHUNK_AMPLITUDES = 2**18


def exact_entropies(setup: QuenchSetup, subsets, times, sectors: ChainSectors | None = None) -> np.ndarray:
    """gaussian.entropies(quench_evolution(setup), ...) on the exact sector state: entropy of each
    subset (1-based modes) at each time, [n_times, n_subsets]; `times` must be 1-D.

    The state evolves on `sectors`, a store of the setup's chain (by default the call's own); a caller
    that evaluates the chain with and without R passes one store to both. Each subset is replaced by
    its smaller side (_smaller_side), and each distinct side's reduced density matrices are built and
    diagonalised once per chunk of sample times; a chunk holds _CHUNK_AMPLITUDES >> modes times, so
    memory does not grow with the number of times. Every eigensolve runs at one OpenBLAS thread in
    `spectral`, so no value depends on the process's thread count.
    """
    times = _sample_times(times)
    if sectors is None:
        sectors = ChainSectors(setup.spec)
    elif sectors.spec != setup.spec:
        raise ValueError("the sector store is of another chain")
    basis, state = initial_state(setup)
    sides = {}  # side -> the table columns it fills
    for column, subset in enumerate(subsets):
        sides.setdefault(_smaller_side(subset, basis.modes), []).append(column)
    chunk = max(1, _CHUNK_AMPLITUDES >> basis.modes)
    values = np.zeros((times.size, len(subsets)))
    for start in range(0, times.size, chunk):
        states = sectors.evolve(state, basis, times[start : start + chunk])
        for side, columns in sides.items():
            values[start : start + chunk, columns] = exact_entropy(states, basis, side)[:, None]
    return values
