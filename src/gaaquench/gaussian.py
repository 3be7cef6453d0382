"""Free-fermion Gaussian states: correlation matrices, quench evolution, entropies.

A particle-conserving Gaussian state is fully determined by its two-point
function C_ij = <c_i^dag c_j>. Under H = sum_ij h_ij c_i^dag c_j it evolves as

    C(t) = exp(+i h t) C(0) exp(-i h t),

computed here through one eigendecomposition of h, so arbitrary times cost
the same. Subsystem entropies come from the eigenvalues nu of the restricted
correlation matrix,

    S = -sum_k [nu_k log nu_k + (1 - nu_k) log(1 - nu_k)].

Mode labels are 1-based: chain sites 1..L, and the optional reference mode R
(maximally entangled with one chain site E) is mode L + 1. The pair {E, R}
starts in the Gaussian Bell state (c_E^dag + c_R^dag)/sqrt(2)|vac>, whose
2x2 correlation block is [[1/2, 1/2], [1/2, 1/2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LatticeSpec, build_hamiltonian

_HERMITICITY_TOL = 1e-10
_PROJECTOR_TOL = 1e-10
_CLAMP = 1e-12

INITIAL_STATES = ("neel", "domain_wall", "random_product", "custom")

LOG_BASES = ("natural", "two")


@dataclass
class CorrelationMatrix:
    """Two-point function <c_i^dag c_j> for M modes, Hermitian by construction.

    reference_index is the 1-based label of the reference mode R when one is
    attached (always the last mode, L + 1).
    """

    matrix: np.ndarray
    reference_index: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {self.matrix.shape}")
        dev = float(np.max(np.abs(self.matrix - self.matrix.T.conj())))
        if dev > _HERMITICITY_TOL:
            raise ValueError(f"correlation matrix not Hermitian (max deviation {dev:.2e})")
        if self.reference_index is not None and not 1 <= self.reference_index <= self.dim:
            raise ValueError(f"reference index {self.reference_index} outside 1..{self.dim}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def particle_number(self) -> float:
        return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class QuenchSetup:
    """Initial-state descriptor for a quench: product pattern plus optional reference.

    initial is one of "neel", "domain_wall", "random_product", "custom".
    random_product draws L/2 occupied sites from initial_seed; custom takes an
    explicit 0/1 occupation vector. reference_site attaches mode R maximally
    entangled with that site (1-based).
    """

    spec: LatticeSpec
    initial: str = "neel"
    occupations: tuple[int, ...] | None = None
    initial_seed: int | None = None
    reference_site: int | None = None

    def __post_init__(self):
        if self.initial not in INITIAL_STATES:
            raise ValueError(f"initial must be one of {INITIAL_STATES}, got {self.initial!r}")
        if self.reference_site is None and self.spec.L % 2 != 0:
            raise ValueError("half-filling patterns need an even L")
        if self.initial == "custom":
            if self.occupations is None:
                raise ValueError("custom initial state needs an occupation vector")
            occ = tuple(int(x) for x in self.occupations)
            if len(occ) != self.spec.L or any(x not in (0, 1) for x in occ):
                raise ValueError("occupations must be a 0/1 vector of length L")
            if self.reference_site is None and sum(occ) != self.spec.L // 2:
                raise ValueError("occupation vector must hold exactly L/2 particles")
            object.__setattr__(self, "occupations", occ)
        elif self.occupations is not None:
            raise ValueError("occupations only apply to the custom initial state")
        if self.initial == "random_product" and self.initial_seed is None:
            raise ValueError("random_product needs initial_seed for reproducibility")
        if self.reference_site is not None and not 1 <= self.reference_site <= self.spec.L:
            raise ValueError(f"reference site {self.reference_site} outside 1..{self.spec.L}")


def occupation_pattern(setup: QuenchSetup) -> np.ndarray:
    """Length-L 0/1 occupation vector of the product pattern (site i at entry i-1).

    Odd L only arises with a reference attached; the named patterns then hold
    ceil(L/2) particles (Neel keeps its odd-site convention).
    """
    L = setup.spec.L
    filling = (L + 1) // 2
    if setup.initial == "neel":
        occ = np.zeros(L, dtype=int)
        occ[0::2] = 1  # odd sites 1, 3, ... occupied
    elif setup.initial == "domain_wall":
        occ = np.zeros(L, dtype=int)
        occ[:filling] = 1
    elif setup.initial == "random_product":
        rng = np.random.default_rng(setup.initial_seed)
        occ = np.zeros(L, dtype=int)
        occ[rng.choice(L, filling, replace=False)] = 1
    else:
        occ = np.asarray(setup.occupations, dtype=int)
    return occ


def initial_correlation(setup: QuenchSetup) -> CorrelationMatrix:
    """Correlation matrix of the initial state.

    Without a reference: diag(occupations). With a reference at site E: the
    pattern keeps its occupations on sites != E, while the {E, R} block is the
    half-filled Bell block [[1/2, 1/2], [1/2, 1/2]] and R is mode L + 1.
    """
    occ = occupation_pattern(setup)
    L = setup.spec.L
    if setup.reference_site is None:
        return CorrelationMatrix(np.diag(occ.astype(complex)))
    e = setup.reference_site - 1
    r = L
    c = np.zeros((L + 1, L + 1), dtype=complex)
    c[np.arange(L), np.arange(L)] = occ
    c[e, e] = c[r, r] = 0.5
    c[e, r] = c[r, e] = 0.5
    return CorrelationMatrix(c, reference_index=L + 1)


def _embed_reference(h: np.ndarray, reference_index: int) -> np.ndarray:
    """Extend h by a zero row/column at the reference mode, which never evolves."""
    n = h.shape[0] + 1
    r = reference_index - 1
    out = np.zeros((n, n), dtype=h.dtype)
    keep = np.delete(np.arange(n), r)
    out[np.ix_(keep, keep)] = h
    return out


class QuenchEvolution:
    """Propagator C(t) = e^{+iht} C0 e^{-iht} from one eigendecomposition of h.

    If C0 carries a reference mode and h is chain-sized, h is embedded with a
    zero row/column at the reference index first. The decomposition is reused
    for every requested time, so evaluation is exact at arbitrary t. `pure`
    records once whether C0 is a projector (max |C0^2 - C0| <= 1e-10), i.e. a
    pure Gaussian state; unitary evolution keeps it one.
    """

    def __init__(self, c0: CorrelationMatrix, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        if c0.reference_index is not None and h.shape[0] == c0.dim - 1:
            h = _embed_reference(h, c0.reference_index)
        if h.shape[0] != c0.dim:
            raise ValueError(f"Hamiltonian size {h.shape[0]} does not match {c0.dim} modes")
        if np.max(np.abs(h - h.T)) > _HERMITICITY_TOL * max(1.0, np.max(np.abs(h))):
            raise ValueError("Hamiltonian must be symmetric")
        self.energies, self.modes = np.linalg.eigh(h)
        self.reference_index = c0.reference_index
        self.dim = c0.dim
        c = c0.matrix
        self.pure = bool(np.max(np.abs(c @ c - c)) <= _PROJECTOR_TOL)
        # correlation matrix rotated to the eigenbasis, shared by all times
        self._c0_eig = self.modes.T @ c0.matrix @ self.modes

    def _propagated_rows(self, time: float, rows: np.ndarray | None = None) -> np.ndarray:
        phases = np.exp(1j * self.energies * time)
        v = self.modes if rows is None else self.modes[rows]
        return v * phases

    def correlation_at(self, time: float) -> CorrelationMatrix:
        p = self._propagated_rows(time)
        return CorrelationMatrix(p @ self._c0_eig @ p.conj().T, self.reference_index)

    def block_at(self, time: float, sites) -> np.ndarray:
        """Restricted correlation matrix C(t)[sites, sites] without forming all of C(t)."""
        idx = _site_indices(sites, self.dim)
        p = self._propagated_rows(time, idx)
        return p @ self._c0_eig @ p.conj().T


def evolve(c0: CorrelationMatrix, h: np.ndarray, time: float) -> CorrelationMatrix:
    """One-shot evolution; build a QuenchEvolution directly for many times."""
    return QuenchEvolution(c0, h).correlation_at(time)


def _site_indices(sites, dim: int) -> np.ndarray:
    idx = np.asarray(sorted(int(s) for s in sites), dtype=int)
    if idx.size:
        if idx[0] < 1 or idx[-1] > dim:
            raise ValueError(f"site labels must lie in 1..{dim}")
        if np.any(idx[1:] == idx[:-1]):  # sorted; np.unique would page in ~1.5 MB on first use
            raise ValueError("duplicate site labels")
    return idx - 1


def binary_entropy(nu: np.ndarray, log_base: str = "natural") -> float:
    """-sum [nu log nu + (1-nu) log(1-nu)] with nu clamped into [1e-12, 1-1e-12]."""
    if log_base not in LOG_BASES:
        raise ValueError(f"log_base must be one of {LOG_BASES}")
    nu = np.clip(np.real(nu), _CLAMP, 1.0 - _CLAMP)
    s = float(-(nu * np.log(nu) + (1.0 - nu) * np.log(1.0 - nu)).sum())
    return s / math.log(2.0) if log_base == "two" else s


def entropy_of_block(block: np.ndarray, log_base: str = "natural") -> float:
    """Entropy of a restricted correlation matrix (Hermitian block)."""
    if block.size == 0:
        return 0.0
    return binary_entropy(np.linalg.eigvalsh(block), log_base)


def subsystem_entropy(c: CorrelationMatrix, sites, log_base: str = "natural") -> float:
    """Von Neumann entropy of the modes in `sites` (1-based labels; empty set gives 0)."""
    idx = _site_indices(sites, c.dim)
    return entropy_of_block(c.matrix[np.ix_(idx, idx)], log_base)


def reference_information(a_subsets, reference_index: int | None, entropy_of_sets) -> np.ndarray:
    """I(A:R) = S(A) + S(R) - S(AR) in bits for each A in a_subsets.

    entropy_of_sets maps a list of mode sets (1-based) to their entropies in
    bits along the last axis; it is asked once for [A_1.., R, A_1 + R..].
    """
    if reference_index is None:
        raise ValueError("mutual information needs a reference mode")
    a_sets = [sorted(int(s) for s in a) for a in a_subsets]
    if any(reference_index in a for a in a_sets):
        raise ValueError("subsystem A must not contain the reference mode")
    r = [reference_index]
    s = np.asarray(entropy_of_sets(a_sets + [r] + [a + r for a in a_sets]))
    n = len(a_sets)
    mi = s[..., :n] + s[..., n : n + 1]
    mi -= s[..., n + 1 :]  # in place: one [times, sizes] temporary fewer at the peak
    return mi


def mutual_information(c: CorrelationMatrix, a_sites) -> float:
    """I(A:R) in bits between subsystem A and the reference mode, from the three
    sets evaluated directly (no purity is assumed of a bare matrix)."""
    mi = reference_information(
        [a_sites], c.reference_index, lambda sets: [subsystem_entropy(c, x, "two") for x in sets]
    )
    return float(mi[0])


def entropies(evolution: QuenchEvolution, subsets, times, log_base: str = "natural") -> np.ndarray:
    """Entropy of each subset (1-based mode labels) at each time: array [n_times, n_subsets].

    Everything is planned once before the time loop. For a pure state
    S(X) = S(complement of X) (Peschel, J. Phys. A 36, L205 (2003)), so a
    subset is replaced by its complement when that is strictly smaller; a tie
    keeps the subset. Equal sides are evaluated once. Each time builds only
    the rows in the union of the sides, in one block_at call, and cuts each
    side from it by slicing where the side is contiguous in that union.
    """
    if log_base not in LOG_BASES:
        raise ValueError(f"log_base must be one of {LOG_BASES}")
    dim = evolution.dim
    columns, sides = [], {}
    for subset in subsets:
        idx = _site_indices(subset, dim)
        if evolution.pure and 2 * idx.size > dim:
            outside = np.ones(dim, dtype=bool)
            outside[idx] = False
            idx = np.flatnonzero(outside)
        columns.append(sides.setdefault(tuple(idx), len(sides)))
    rows = np.array(sorted(set().union(*sides)), dtype=int)
    cuts = []
    for side in sides:
        pos = np.searchsorted(rows, side)
        if pos.size and pos[-1] - pos[0] + 1 == pos.size:
            cut = slice(pos[0], pos[-1] + 1)
            cuts.append((cut, cut))
        else:
            cuts.append(np.ix_(pos, pos))
    times = np.asarray(times, dtype=float)
    values = np.empty((times.size, len(columns)))
    for k, t in enumerate(times):
        block = evolution.block_at(t, rows + 1)
        values[k] = np.array([entropy_of_block(block[cut], log_base) for cut in cuts])[columns]
    return values


def quench_evolution(setup: QuenchSetup) -> QuenchEvolution:
    """Convenience: evolution of the setup's initial state under its own chain Hamiltonian."""
    return QuenchEvolution(initial_correlation(setup), build_hamiltonian(setup.spec))
