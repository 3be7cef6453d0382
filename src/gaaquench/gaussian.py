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
import mmap
import operator
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import _blas
from ._blas import _one_blas_thread
from .model import LatticeSpec, _integer, build_hamiltonian
from .spectral import _stacked_eigvalsh, diagonalize

_HERMITICITY_TOL = 1e-10
_PROJECTOR_TOL = 1e-10
_CLAMP = 1e-12
# entries of the block stack that `entropies` fills per chunk of sample times: 640 KiB of complex128
_CHUNK_ENTRIES = 40960

INITIAL_STATES = ("neel", "domain_wall", "random_product", "custom")


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
        if not dev <= _HERMITICITY_TOL:  # a NaN fails too
            raise ValueError(f"correlation matrix not Hermitian (max deviation {dev:.2e})")
        if self.reference_index is not None and not 1 <= self.reference_index <= self.dim:
            raise ValueError(f"reference index {self.reference_index} outside 1..{self.dim}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
            raise ValueError(f"odd L = {self.spec.L} has no half filling without a reference mode")
        if self.initial == "custom":
            if self.occupations is None:
                raise ValueError("custom initial state needs an occupation vector")
            occ = tuple(_integer("an occupation", x) for x in self.occupations)
            if len(occ) != self.spec.L or any(x not in (0, 1) for x in occ):
                raise ValueError("occupations must be a 0/1 vector of length L")
            if self.reference_site is None and sum(occ) != self.spec.L // 2:
                raise ValueError("occupation vector must hold exactly L/2 particles")
            object.__setattr__(self, "occupations", occ)
        elif self.occupations is not None:
            raise ValueError("occupations only apply to the custom initial state")
        if self.initial == "random_product" and self.initial_seed is None:
            raise ValueError("random_product needs initial_seed for reproducibility")
        if self.initial_seed is not None and _integer("initial_seed", self.initial_seed) < 0:
            raise ValueError(f"initial_seed must be non-negative, got {self.initial_seed}")
        if self.reference_site is not None and not 1 <= _integer("reference_site", self.reference_site) <= self.spec.L:
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


def setup_hamiltonian(setup: QuenchSetup) -> np.ndarray:
    """The chain Hamiltonian over every mode of the setup's initial state: with a
    reference, mode L + 1 is a zero last row and column, so it never evolves."""
    h = build_hamiltonian(setup.spec)
    return h if setup.reference_site is None else np.pad(h, (0, 1))


def _check_occupations(occupations: np.ndarray) -> None:
    """Reject correlation eigenvalues outside [0, 1] by more than 1e-10: no physical state."""
    excursion = np.maximum(-occupations, occupations - 1.0)
    if not excursion.max() <= _PROJECTOR_TOL:  # a NaN fails too
        worst = occupations[excursion.argmax()]
        raise ValueError(f"correlation matrix has occupation {worst:.6g} outside [0, 1]: no physical state")


class QuenchEvolution:
    """Propagator C(t) = e^{+iht} C0 e^{-iht} from one eigendecomposition of h.

    h is the single-particle Hamiltonian over all of C0's modes, the reference
    mode included (see setup_hamiltonian). C0, rotated to the eigenbasis of h,
    is factored once as Q diag(n) Q^dag, and the occupations are folded into
    one complex factor F = Q diag(sqrt(n)) over the orbitals with n > 1e-12
    (for a Slater determinant, n = 1 on its N occupied orbitals, so F is Q to
    within 1e-16; Peschel & Eisler, J. Phys. A 42, 504003 (2009)). Every block
    is then W W^dag with W = V_rows e^{iEt} F, exact at arbitrary t. An
    occupation outside [0, 1] by more than 1e-10 is no physical state and is
    rejected; a negative one within that tolerance is round-off and is dropped
    with the empty orbitals, which moves C by at most 1e-10. `pure` records
    whether every occupation lies within 1e-10 of 0 or 1, i.e. C0 is a
    projector; unitary evolution keeps it one.
    """

    def __init__(self, c0: CorrelationMatrix, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        if h.shape != (c0.dim, c0.dim):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match {c0.dim} modes")
        self.reference_index = c0.reference_index
        self.dim = c0.dim
        c = c0.matrix
        if not c.imag.any():  # every state the package builds: the factor is real until it is folded
            c = c.real
        self.energies, self.modes = diagonalize(h)
        with _one_blas_thread():  # its GEMMs gave other bits at two threads (L = 100 with R, L = 400)
            rotated = self.modes.T @ c @ self.modes
        # C0 is Hermitian only to 1e-10, which the rotation can spread past diagonalize's check; eigh reads
        # the lower triangle alone, so mirroring it changes no bit
        occupations, orbitals = diagonalize(_mirror_lower(rotated))
        _check_occupations(occupations)
        self.pure = bool(np.all(np.minimum(np.abs(occupations), np.abs(occupations - 1.0)) <= _PROJECTOR_TOL))
        kept = occupations > _CLAMP
        self._factor = np.ascontiguousarray(orbitals[:, kept] * np.sqrt(occupations[kept]), dtype=complex)

    def _fill(self, time: float, v_rows: np.ndarray, out: np.ndarray, p: np.ndarray, w: np.ndarray) -> None:
        """C(t) on the rows of v_rows (the rows of `modes`) into `out`, a C-contiguous [m, m] complex
        array, through the caller's buffers p (F's shape) and w (C-contiguous [m, k] complex), so that no
        call allocates a [dim, k] or [m, k] array: p = e^{iEt} F, then W = V_rows p into w from one real
        GEMM, then W W^dag. Where the kernel routines are found (_blas._kernel_routines), zherk writes only
        the lower triangle of `out` (row-major), the one that eigvalsh(UPLO='L') and the kernel's
        zhetrd(UPLO='U') on the C-order buffer read; the strict upper triangle is left as it was.
        Otherwise numpy fills all of it."""
        m, k = v_rows.shape[0], self._factor.shape[1]
        for array, shape in ((out, (m, m)), (w, (m, k))):
            if array.shape != shape or array.dtype != complex or not array.flags.c_contiguous:
                raise ValueError(f"_fill needs a C-contiguous complex {shape} array")
        np.multiply(np.exp(1j * (self.energies * time))[:, None], self._factor, out=p)
        np.matmul(v_rows, p.view(float), out=w.view(float))  # one real GEMM: V_rows times the [dim, 2k] real view of p
        routines = _blas._kernel_routines()
        if routines is None:
            np.matmul(w, np.conjugate(w, out=p[:m]).T, out=out)  # p is spent once W is formed
        else:
            zherk = routines[0]  # row-major (101), lower (122), no transpose (111): out = 1.0 W W^dag + 0.0 out
            zherk(101, 122, 111, m, k, 1.0, w.ctypes.data, max(k, 1), 0.0, out.ctypes.data, max(m, 1))

    def _block(self, time: float, v_rows: np.ndarray) -> np.ndarray:
        """A fresh C(t) on the rows of v_rows, built at one OpenBLAS thread as in the kernel, in buffers of
        its own, its strict upper triangle mirrored from the lower one, so that it is exactly Hermitian
        and its lower triangle is the kernel's."""
        m = v_rows.shape[0]
        out, w = np.empty((m, m), dtype=complex), np.empty((m, self._factor.shape[1]), dtype=complex)
        with _one_blas_thread():
            self._fill(time, v_rows, out, np.empty_like(self._factor), w)
        return _mirror_lower(out)

    def correlation_at(self, time: float) -> CorrelationMatrix:
        return CorrelationMatrix(self._block(time, self.modes), self.reference_index)

    def block_at(self, time: float, sites) -> np.ndarray:
        """Restricted correlation matrix C(t)[sites, sites] without forming all of C(t)."""
        return self._block(time, self.modes[_site_indices(sites, self.dim)])


def _mirror_lower(matrix: np.ndarray) -> np.ndarray:
    """`matrix` with its strict upper triangle set, in place, to the conjugate transpose of its lower one."""
    np.copyto(matrix, matrix.T.conj(), where=np.tri(matrix.shape[0], k=-1, dtype=bool).T)
    return matrix


def _site_indices(sites, dim: int) -> np.ndarray:
    """Sorted 0-based indices of distinct integer labels in 1..dim; 1.5 or 2.0 is rejected, not truncated."""
    try:
        idx = np.asarray(sorted(map(operator.index, sites)), dtype=int)
    except TypeError:
        raise ValueError("site labels must be integers") from None
    if idx.size:
        if idx[0] < 1 or idx[-1] > dim:
            raise ValueError(f"site labels must lie in 1..{dim}")
        if np.any(idx[1:] == idx[:-1]):  # sorted; np.unique would page in ~1.5 MB on first use
            raise ValueError("duplicate site labels")
    return idx - 1


def _entropy_terms(nu: np.ndarray) -> np.ndarray:
    """nu log nu + (1-nu) log(1-nu) elementwise, nu clamped into [1e-12, 1-1e-12]."""
    nu = np.clip(np.real(nu), _CLAMP, 1.0 - _CLAMP)
    return nu * np.log(nu) + (1.0 - nu) * np.log(1.0 - nu)


def _binary_entropies(nu: np.ndarray) -> np.ndarray:
    """-sum [nu log nu + (1-nu) log(1-nu)] over the last axis, nu clamped into [1e-12, 1-1e-12]."""
    return -_entropy_terms(nu).sum(axis=-1)


def block_entropies(blocks: np.ndarray) -> np.ndarray:
    """Entropy in nats of each restricted correlation matrix in a stack [..., n, n] (Hermitian): array [...].

    One eigvalsh call (spectral._stacked_eigvalsh, at one OpenBLAS thread) and
    one binary-entropy reduction serve the whole stack; numpy diagonalises each
    matrix on its own, so every value equals that of the matrix alone. n = 0
    gives entropies 0.
    """
    blocks = np.asarray(blocks)
    if blocks.shape[-1] == 0:
        return np.zeros(blocks.shape[:-2])
    return _binary_entropies(_stacked_eigvalsh(blocks))


def binary_entropy(nu: np.ndarray) -> float:
    """-sum [nu log nu + (1-nu) log(1-nu)] in nats, with nu clamped into [1e-12, 1-1e-12]."""
    return float(_binary_entropies(np.asarray(nu).ravel()))


def entropy_of_block(block: np.ndarray) -> float:
    """Entropy of a restricted correlation matrix (one Hermitian block): block_entropies of one block."""
    block = np.asarray(block)
    if block.ndim != 2:
        raise ValueError(f"entropy_of_block takes one 2-D block, got shape {block.shape}")
    return float(block_entropies(block))


def reference_information(a_subsets, reference_index: int | None, entropy_of_sets) -> np.ndarray:
    """I(A:R) = S(A) + S(R) - S(AR) in bits for each A in a_subsets.

    entropy_of_sets maps a list of mode sets (1-based) to their entropies in
    nats along the last axis; it is asked once for [A_1.., R, A_1 + R..]. The
    table is converted to bits here, once, before the sums; a float array that
    the callback returns is converted in place.
    """
    if reference_index is None:
        raise ValueError("mutual information needs a reference mode")
    a_sets = [sorted(int(s) for s in a) for a in a_subsets]
    if any(reference_index in a for a in a_sets):
        raise ValueError("subsystem A must not contain the reference mode")
    r = [reference_index]
    s = np.asarray(entropy_of_sets(a_sets + [r] + [a + r for a in a_sets]), dtype=float)
    s /= math.log(2.0)  # in place: no second [times, sets] table at the peak
    n = len(a_sets)
    mi = s[..., :n] + s[..., n : n + 1]
    mi -= s[..., n + 1 :]  # in place: one [times, sizes] temporary fewer at the peak
    return mi


def _pair_leads(sides: dict[tuple[int, ...], list[int]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """carrier -> lead of an `entropies` plan. Largest side first, a side Y of two or more modes is
    paired with its lead Y[:-1] (Y without its largest mode) when that is also a side; each side is
    in at most one pair, as carrier or as lead."""
    leads, taken = {}, set()
    for side in sorted(sides, key=len, reverse=True):
        lead = side[:-1]
        if len(side) > 1 and lead in sides and side not in taken and lead not in taken:
            leads[side] = lead
            taken.update((side, lead))
    return leads


def _row_groups(sides: dict[tuple[int, ...], list[int]], leads: dict[tuple[int, ...], tuple[int, ...]],
                dim: int, n_times: int) -> list[_RowGroup]:
    """The row groups of an `entropies` plan, each of which builds one block per time; `sides` maps
    each side (0-based modes) to the table columns it fills, `leads` each carrier to its lead.

    Largest side first, each side that is no lead joins the first group whose
    rows, together with its own, stay within max(ceil(dim / 2), largest side);
    otherwise it opens a new group. A plan whose union fits that limit keeps
    one group. A carrier's cut also fills its lead's columns.
    """
    lead_sides = set(leads.values())
    grouped = [side for side in sides if side not in lead_sides]
    limit = max([(dim + 1) // 2] + [len(side) for side in grouped])
    groups = []  # (rows, members)
    for side in sorted(grouped, key=len, reverse=True):
        for rows, members in groups:
            if len(rows.union(side)) <= limit:
                rows.update(side)
                members.append(side)
                break
        else:
            groups.append((set(side), [side]))
    return [
        _RowGroup(rows, [(side, sides[side], sides[leads[side]] if side in leads else None) for side in members],
                  n_times)
        for rows, members in groups
    ]


class _RowGroup:
    """One row group of an `entropies` plan: its rows, the size of its largest side that is not the whole
    block (`copy`), its chunks of sample times, and one record per nonempty side: its positions in the
    rows, their contiguous runs (slices of the positions and of the rows), its table columns and those of
    its lead (None for a side in no pair). The whole block comes last: _SideSpectra reduces it in place.
    A chunk holds as many times as fit one rows x rows block and one copy x copy side copy each in
    _CHUNK_ENTRIES entries, and at least one."""

    def __init__(self, rows: set[int], members: list[tuple[tuple[int, ...], list[int], list[int] | None]],
                 n_times: int):
        self.rows = np.array(sorted(rows), dtype=int)
        self.sides = []  # (positions, runs, cols, lead cols)
        for side, cols, lead_cols in members:
            if side:
                pos = np.searchsorted(self.rows, side)
                bounds = (np.flatnonzero(np.diff(pos) != 1) + 1).tolist()
                runs = [(slice(a, b), slice(pos[a], pos[b - 1] + 1)) for a, b in zip([0, *bounds], [*bounds, pos.size])]
                self.sides.append((pos, runs, cols, lead_cols))
        self.sides.sort(key=lambda side: side[0].size == self.rows.size)
        self.copy = max([pos.size for pos, *_ in self.sides if pos.size < self.rows.size], default=0)
        self.chunk = min(max(1, _CHUNK_ENTRIES // max(self.rows.size**2 + self.copy**2, 1)), max(n_times, 1))
        self.starts = range(0, n_times, self.chunk)


class _SideSpectra:
    """Spectra of every nonempty side of one row group, and of its carriers' leads, from one Householder
    reduction per side block: one process's buffers for the group's chunks, cut from its `stack`.

    Once per chunk, each side's block is copied from the stack into one [chunk, copy, copy] buffer: one
    slice per pair of contiguous runs of its rows, only the pairs on and below the diagonal, which hold
    its lower triangle. The side that is the whole block is reduced in the stack itself, after every
    other side is copied out. In C order, LAPACK zhetrd (UPLO = 'U') sees conj(M) and reads only M's
    lower triangle, the one _fill writes. dsterf(d, e) on the tridiagonal T = (d, e) gives spec(M). For
    a carrier (size n + 1, its dropped mode last), the first reflector clears the last column, and
    every later one acts inside the leading n x n block as a unitary similarity, so
    T[:n, :n] ~ conj(M[:n, :n]) and dsterf(d[:n], e[:n-1]) gives spec(M[:n, :n]): one O(n^3) reduction
    and two O(n^2) solves where two eigvalsh calls would take two reductions. Every call has an INFO of
    its own, so a chunk's zhetrd calls, and then its dsterf calls, run back to back and are checked
    once: a LAPACK error or a non-finite T raises LinAlgError, as eigvalsh does. The spectra fill one
    table, every side's segment of its columns before every lead's; `segments` gives each segment's
    columns there and the columns of `entropies` it fills.
    """

    def __init__(self, routines, group: _RowGroup, stack: np.ndarray):
        import ctypes

        _, self._zhetrd, self._dsterf = routines
        chunk, rows, sides = group.chunk, group.rows.size, group.sides
        segments = [(pos.size, cols) for pos, _, cols, _ in sides]
        segments += [(pos.size - 1, lead) for pos, _, _, lead in sides if lead is not None]
        sizes = [size for size, _ in segments]
        starts = np.cumsum([0] + sizes).tolist()
        self.segments = [(slice(start, start + size), cols) for start, (size, cols) in zip(starts, segments)]
        self._sides, self._reduced = len(sides), starts[len(sides)]  # the columns that zhetrd writes
        # d, and e in the first size - 1 columns of each segment; zeros, as the finiteness check reads the last
        # column of each side's e, which nothing writes
        self._table = np.zeros((2, chunk, starts[-1]))
        # the INFO of each zhetrd, then of each dsterf, by time; the last column, the workspace query's
        self._info = np.zeros((chunk, len(sides) + len(sizes) + 1), dtype=np.int64)
        self._copy = np.empty((chunk, group.copy, group.copy), dtype=complex)
        self._tau = np.empty(max(sizes, default=1), dtype=complex)
        self._uplo = ctypes.create_string_buffer(b"U")
        # LWORK, the LDA of the stack and of the copy, the largest N, then the N of each segment
        self._ints = np.array([-1, max(rows, 1), group.copy, max(sizes, default=0), *sizes], dtype=np.int64)
        bases = {id(array): array.ctypes.data for array in (stack, self._copy, self._table, self._info, self._ints)}

        def at(array, *index):  # the address of array[index]: ctypes passes addresses as plain integers
            return bases[id(array)] + sum(i * step for i, step in zip(index, array.strides))

        uplo, lwork, tau = ctypes.addressof(self._uplo), at(self._ints, 0), self._tau.ctypes.data
        query = np.empty(1, dtype=complex)  # LWORK = -1: the workspace query writes the optimal LWORK here
        self._zhetrd(uplo, at(self._ints, 3), at(stack), at(self._ints, 1), at(self._table, 0), at(self._table, 1),
                     tau, query.ctypes.data, lwork, at(self._info, 0, len(sides) + len(sizes)), 1)
        if self._info[0, -1] != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        self._work = np.empty(max(int(query[0].real), 1), dtype=complex)
        self._ints[0], work = self._work.size, self._work.ctypes.data
        self._reductions = []  # (copies, the zhetrd arguments by time) of each side
        for i, (pos, runs, _, _) in enumerate(sides):
            whole = pos.size == rows
            matrix, lda = (stack, at(self._ints, 1)) if whole else (self._copy, at(self._ints, 2))
            n = at(self._ints, 4 + i)
            copies = [] if whole else [(self._copy[:, to_rows, to_cols], stack[:, rows_, cols_])
                                       for r, (to_rows, rows_) in enumerate(runs) for to_cols, cols_ in runs[: r + 1]]
            self._reductions.append((copies, [
                (uplo, n, at(matrix, k), lda, at(self._table, 0, k, starts[i]), at(self._table, 1, k, starts[i]),
                 tau, work, lwork, at(self._info, k, i), 1) for k in range(chunk)
            ]))
        carriers = [start for start, (_, _, _, lead) in zip(starts, sides) if lead is not None]
        self._leads = [(self._table[:, :, start : start + size], self._table[:, :, carrier : carrier + size])
                       for start, size, carrier in zip(starts[len(sides) :], sizes[len(sides) :], carriers)]
        ns = [at(self._ints, 4 + j) for j in range(len(sizes))]
        self._solves = [
            (ns[j], at(self._table, 0, k, start), at(self._table, 1, k, start), at(self._info, k, self._sides + j))
            for k in range(chunk) for j, start in enumerate(starts[:-1])
        ]

    def __call__(self, count: int) -> np.ndarray:
        """The spectra of the first `count` blocks of the stack: a view [count, columns] of the table."""
        for copies, calls in self._reductions:
            for to, source in copies:
                to[:count] = source[:count]
            for args in calls[:count]:
                self._zhetrd(*args)
        if self._info[:count, : self._sides].any() or not np.isfinite(self._table[:, :count, : self._reduced]).all():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        for to, source in self._leads:
            to[:, :count] = source[:, :count]
        for args in self._solves[: count * len(self.segments)]:
            self._dsterf(*args)
        if self._info[:count, self._sides :].any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return self._table[0, :count]


def _sample_times(times) -> np.ndarray:
    """`times` as a float array, which must be 1-D: the one rule for both engines' entropy tables."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array of sample times, got shape {times.shape}")
    return times


def entropies(evolution: QuenchEvolution, subsets, times) -> np.ndarray:
    """Entropy in nats of each subset (1-based mode labels) at each time: array [n_times, n_subsets].

    Everything is planned once before the time loop. For a pure state
    S(X) = S(complement of X) (Peschel, J. Phys. A 36, L205 (2003)), so a
    subset is replaced by its complement when that is strictly smaller; a tie
    keeps the subset. Equal sides are evaluated once. Where numpy's OpenBLAS
    has zherk, zhetrd and dsterf (_blas._kernel_routines), each side Y whose Y[:-1]
    is also a side is paired with it (_pair_leads): the carrier Y's block gives
    both spectra from one tridiagonal reduction (_SideSpectra); at L = 100 the
    sic_profile plan has 18 pairs. The sides that are no lead are then put in
    row groups (_row_groups), so that no block is much larger than the largest
    side: the half chain keeps one group, the sic_profile sides at L = 100 take
    two of 51 rows instead of one of 101. Each group slices its rows of the
    eigenvectors once and builds only its own rows, with one _fill per time
    (one real GEMM and one zherk into the lower triangle). Its times are taken
    in chunks whose blocks fill a reused [chunk, rows, rows] stack: as many
    times as fit in 640 KiB with one copy each of the group's largest side
    that is not the whole block, and at least one (_RowGroup). Per chunk,
    _SideSpectra copies each nonempty side's lower triangle out of the stack
    once, reduces the side that is the whole block in the stack itself, and
    runs the chunk's zhetrd calls and then its dsterf calls back to back into
    one spectra table, a carrier's second dsterf giving its lead; one
    elementwise binary-entropy pass over the table and one sum per side
    follow. The empty side is 0. Without the three routines nothing is paired,
    _fill uses numpy's matmul, and each side gets one stacked block_entropies
    call per chunk (a view where the side is contiguous in the rows), so
    numpy's per-call cost is paid once per chunk, not once per time.

    OpenBLAS runs one thread throughout (_one_blas_thread). Each group's chunks
    are dealt round-robin to _entropy_processes() processes, at most one per
    chunk: this process takes share 0, and share k goes to the k-th helper
    that _share_out forks for the call. A helper inherits the
    evolution and the plan, takes its share of every group in one pass, with
    no wait between groups, and writes its rows into the values table, which
    lives on an anonymous shared mmap and is copied out before the call
    returns. Each process makes one set of buffers per group (its stack, its
    _SideSpectra and _fill's p and w) and frees it before the next group's.
    Every value is thus the same at every thread count.
    `times` must be a 1-D array of sample times.
    """
    times = _sample_times(times)
    dim = evolution.dim
    subsets = list(subsets)
    sides = {}  # side -> the table columns it fills
    for column, subset in enumerate(subsets):
        idx = _site_indices(subset, dim)
        if evolution.pure and 2 * idx.size > dim:
            outside = np.ones(dim, dtype=bool)
            outside[idx] = False
            idx = np.flatnonzero(outside)
        sides.setdefault(tuple(idx), []).append(column)
    size = times.size * len(subsets)
    routines = _blas._kernel_routines()
    groups = _row_groups(sides, _pair_leads(sides) if routines else {}, dim, times.size)

    def share(first: int, parent: int | None = None) -> None:
        # chunks first, first + spread, ... of every group, spread = min(processes, chunks); a helper passes
        # the pid of the process that forked it
        for group in groups:
            spread = min(processes, len(group.starts))
            if first >= spread:
                continue
            stack = np.empty((group.chunk, group.rows.size, group.rows.size), dtype=complex)
            spectra = _SideSpectra(routines, group, stack) if routines else None
            p = np.empty_like(evolution._factor)
            w = np.empty((group.rows.size, evolution._factor.shape[1]), dtype=complex)
            v_rows = evolution.modes[group.rows]
            for start in group.starts[first::spread]:
                if parent is not None and os.getppid() != parent:
                    raise ProcessLookupError("the process that forked this entropies helper is gone")
                count = min(group.chunk, times.size - start)
                for k in range(count):
                    evolution._fill(times[start + k], v_rows, stack[k], p, w)
                done = slice(start, start + count)
                if spectra is None:
                    for pos, runs, cols, _ in group.sides:  # a view where the side is one run of the rows
                        cut = (runs[0][1],) * 2 if len(runs) == 1 else (pos[:, None], pos)
                        values[done, cols] = block_entropies(stack[:count][(slice(None), *cut)])[:, None]
                    continue
                terms = _entropy_terms(spectra(count))
                for segment, cols in spectra.segments:
                    values[done, cols] = -terms[:, segment].sum(axis=-1)[:, None]
            del stack, spectra, p, w, v_rows  # before the next group's buffers are made

    processes = _entropy_processes()
    with _one_blas_thread():
        shared = mmap.mmap(-1, max(8 * size, 1))  # zeros that the helpers share; mmap maps no zero length
        values = np.frombuffer(shared, dtype=float, count=size).reshape(times.size, len(subsets))
        _share_out(share, max((min(processes, len(group.starts)) - 1 for group in groups), default=0))
    return values.copy()  # off the shared mapping, which is unmapped with its last view


def _entropy_processes() -> int:
    """The processes that `entropies` deals its chunks to (the run manifest's `entropy_processes`): this
    process's OpenBLAS thread count (1 where it cannot be read) where os.fork exists, else 1."""
    return (_blas._blas_threads() or 1) if hasattr(os, "fork") else 1


def _share_out(share, helpers: int) -> None:
    """share(0) in this process and share(k), k = 1..helpers, each in a helper process forked for it
    (_fork_helper); returns once every helper has ended and been reaped, and then raises the first
    exception a helper sent. If this process's share raises or is interrupted, or the wait for a
    helper is, every helper not yet reaped is killed and reaped before the exception goes on."""
    parent, children, failed, errors = os.getpid(), [], True, []
    try:
        for first in range(1, helpers + 1):
            children.append(_fork_helper(share, first, parent))
        share(0)
        failed = False
    finally:
        for pid, read in children:
            try:
                errors.append(_reap(pid, read, kill=failed))
            except BaseException as interrupt:  # a wait cut short: the rest are killed, and it goes on below
                failed = True
                errors.append(interrupt)
    for error in errors:
        if error is not None:
            raise error


def _fork_helper(share, first: int, parent: int) -> tuple[int, int]:
    """Forks the helper that runs share(first): its pid and the read end of its pipe. The helper ends
    in os._exit on every path, as any exception after the fork meets the `finally`: 0 after its share,
    1 after an exception, which it pickles into the pipe with its traceback as a note (as a RuntimeError
    with its type and message where it does not survive pickling). OpenBLAS's fork handler stops its thread
    pool before the fork, and the caller runs one BLAS thread, so the helper starts with that one."""
    read, write = os.pipe()
    status = 1
    try:
        pid = os.fork()
        if pid == 0:
            share(first, parent)
            status = 0
    except BaseException as error:
        if os.getpid() == parent:
            os.close(read)
            raise
        import traceback

        error.__notes__ = [*getattr(error, "__notes__", []),
                           "raised in an entropies helper process:\n" + "".join(traceback.format_exception(error))]
        try:
            message = pickle.dumps(error)
            pickle.loads(message)  # an exception whose __init__ takes other arguments pickles but fails here
        except Exception:
            stand_in = RuntimeError(f"{type(error).__name__}: {error}")
            stand_in.__notes__ = error.__notes__
            message = pickle.dumps(stand_in)
        with open(write, "wb") as pipe:
            pipe.write(message)
    finally:
        if os.getpid() != parent:
            os._exit(status)
        os.close(write)
    return pid, read


def _reap(pid: int, read: int, kill: bool) -> BaseException | None:
    """Waits for helper `pid`, killed first if `kill` or if the wait is interrupted, and closes the read
    end of its pipe; returns the exception the helper sent, or one for an exit without one (None if
    killed)."""
    with open(read, "rb") as pipe:
        try:
            if kill:
                os.kill(pid, signal.SIGKILL)
            message = pipe.read()  # to its end, which comes when the helper exits
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if kill:
        return None
    if message:
        return pickle.loads(message)  # bytes that the helper wrote
    return RuntimeError(f"entropies helper process {pid} ended with wait status {status}") if status else None


def quench_evolution(setup: QuenchSetup) -> QuenchEvolution:
    """Convenience: evolution of the setup's initial state under its own chain Hamiltonian."""
    return QuenchEvolution(initial_correlation(setup), setup_hamiltonian(setup))
