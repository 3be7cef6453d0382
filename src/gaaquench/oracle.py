"""Brute-force many-body reference for small chains.

Validates the Gaussian fast path on exact many-body state vectors:
second-quantized Hamiltonian matrices, exact state-vector evolution, and
reduced-density-matrix entropies with fermionic (Jordan-Wigner) sign
bookkeeping. Mode ordering is chain sites 1..L with the reference mode last;
a canonical basis ket is

    |n> = (c_1^dag)^{n_1} (c_2^dag)^{n_2} ... (c_M^dag)^{n_M} |vac>,

stored as the bitmask sum_m n_m 2^{m-1}. The Hamiltonian conserves particle
number, so every initial state lives in one fixed-number sector, the reference
mode included. A state vector is pure, so S(A) = S(complement of A) and
`exact_entropy` builds the reduced density matrix of the smaller side.
Hard size guard: M <= 12 modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gaussian import QuenchSetup, _one_blas_thread, _site_indices, occupation_pattern, setup_hamiltonian

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


def fixed_number_basis(modes: int, particles: int) -> FockBasis:
    _check_modes(modes)
    if not 0 <= particles <= modes:
        raise ValueError(f"particle number {particles} outside 0..{modes}")
    states = tuple(sorted(sum(1 << b for b in occ) for occ in combinations(range(modes), particles)))
    return FockBasis(modes, particles, states, {n: i for i, n in enumerate(states)})


def _parity(bits: int) -> int:
    return -1 if bin(bits).count("1") % 2 else 1


def _occupation_table(basis: FockBasis) -> np.ndarray:
    """[ket, mode] 0/1 occupations of the basis kets."""
    return (np.asarray(basis.states, dtype=np.int64)[:, None] >> np.arange(basis.modes)) & 1


def many_body_hamiltonian(h: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Matrix of sum_ij h_ij c_i^dag c_j in the given basis (real symmetric for real h).

    Built one hopping term at a time over every ket of the occupation table.
    c_i^dag c_j with i != j maps a ket to one other ket, so each off-diagonal
    entry has a single term, with the sign (-1)^(occupied modes below j in n
    plus occupied modes below i in n - j). The diagonal adds h_ii over the
    occupied modes, mode by mode in ascending order.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (basis.modes, basis.modes):
        raise ValueError(f"single-particle matrix {h.shape} does not match {basis.modes} modes")
    states = np.asarray(basis.states, dtype=np.int64)
    order = np.argsort(states)
    occ = _occupation_table(basis).astype(bool)
    below = np.cumsum(occ, axis=1) - occ  # occupied modes below each mode
    dim = len(basis)
    out = np.zeros((dim, dim))
    diagonal = out.reshape(-1)[:: dim + 1]
    for i, j in zip(*np.nonzero(h)):
        if i == j:
            diagonal[occ[:, i]] += h[i, i]
            continue
        cols = np.flatnonzero(occ[:, j] & ~occ[:, i])
        targets = states[cols] ^ (1 << j) | (1 << i)
        rows = order[np.minimum(np.searchsorted(states, targets, sorter=order), dim - 1)]
        if np.any(states[rows] != targets):  # a basis not closed under hopping
            raise ValueError("basis is missing a ket that the Hamiltonian reaches")
        swaps = below[cols, j] + below[cols, i] - (j < i)
        out[rows, cols] = (1 - 2 * (swaps % 2)) * h[i, j]
    return out


class ExactEvolution:
    """exp(-iHt)|state> from one eigendecomposition of H for all times, like gaussian.QuenchEvolution.

    H (Hermitian) is diagonalised one block at a time: the blocks are the connected components of its
    nonzero pattern, so H has no element between two of them (at L = 10 with the reference mode R,
    which never hops, the 462-ket sector splits into 252 kets with R empty and 210 with R occupied).
    Each eigh runs at one OpenBLAS thread.
    """

    def __init__(self, state: np.ndarray, hamiltonian: np.ndarray):
        state = np.asarray(state, dtype=complex)
        dim = hamiltonian.shape[0]
        if dim > 2**MAX_MODES:
            raise ValueError("many-body dimension exceeds the oracle guard")
        if dim != state.size:
            raise ValueError("state and Hamiltonian dimensions disagree")
        self._blocks = []
        with _one_blas_thread():
            for kets in _connected_blocks(hamiltonian):
                energies, vectors = np.linalg.eigh(hamiltonian[np.ix_(kets, kets)])
                # the block's state in its eigenbasis, shared by all times
                self._blocks.append((kets, energies, vectors, vectors.conj().T @ state[kets]))
        self.dim = dim

    def state_at(self, time: float) -> np.ndarray:
        out = np.empty(self.dim, dtype=complex)
        for kets, energies, vectors, state_eig in self._blocks:
            out[kets] = vectors @ (np.exp(-1j * energies * time) * state_eig)
        return out


def _connected_blocks(hamiltonian: np.ndarray) -> list[np.ndarray]:
    """The kets of each connected component of the nonzero pattern of a Hermitian H, each in ascending
    order, the components in the order of their first ket: one breadth-first search per component."""
    linked = hamiltonian != 0
    free = np.ones(len(linked), dtype=bool)
    blocks = []
    while free.any():
        seen = np.zeros_like(free)
        frontier = np.flatnonzero(free)[:1]
        while frontier.size:
            seen[frontier] = True
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~seen)
        free &= ~seen
        blocks.append(np.flatnonzero(seen))
    return blocks


def exact_evolve(state: np.ndarray, hamiltonian: np.ndarray, time: float) -> np.ndarray:
    """One-shot exp(-i H t) |state>; build an ExactEvolution directly for many times."""
    return ExactEvolution(state, hamiltonian).state_at(time)


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
    occ = _occupation_table(basis)
    occ_a, occ_b = occ[:, in_a], occ[:, ~in_a]
    # at a subset mode, the running count of occupied complement modes is the count below it
    swaps = (occ_a * np.cumsum(occ * ~in_a, axis=1)[:, in_a]).sum(axis=1)
    a_idx = occ_a @ (1 << np.arange(occ_a.shape[1]))
    b_idx = occ_b @ (1 << np.arange(occ_b.shape[1]))
    state = np.asarray(state, dtype=complex)
    psi = np.zeros(state.shape[:-1] + (2 ** occ_a.shape[1], 2 ** occ_b.shape[1]), dtype=complex)
    psi[..., a_idx, b_idx] = (1 - 2 * (swaps % 2)) * state  # each ket has its own (row, column)
    return psi @ psi.conj().swapaxes(-1, -2)


def exact_entropy(state: np.ndarray, basis: FockBasis, subset):
    """Von Neumann entropy in nats of the reduced density matrix on `subset` (1-based modes): a float
    for one state [dim], an array [n_states] for a stack [n_states, dim].

    The state vector is pure, so the larger side is replaced by its complement
    (a tie keeps `subset`); an empty side has entropy 0 and builds no matrix.
    """
    state = np.asarray(state, dtype=complex)
    labels = (_site_indices(subset, basis.modes) + 1).tolist()
    if 2 * len(labels) > basis.modes:
        labels = sorted(set(range(1, basis.modes + 1)) - set(labels))
    values = np.zeros(state.shape[:-1])
    if labels:
        spectra = np.linalg.eigvalsh(reduced_density_matrix(state, basis, labels))
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
        basis = fixed_number_basis(L, L // 2)
        state = np.zeros(len(basis), dtype=complex)
        state[basis.index[int(sum(1 << i for i in np.flatnonzero(occ)))]] = 1.0
        return basis, state
    e_bit = setup.reference_site - 1
    r_bit = L
    rest = int(sum(1 << i for i in np.flatnonzero(occ) if i != e_bit))
    basis = fixed_number_basis(L + 1, rest.bit_count() + 1)
    sign_e = _parity(rest & ((1 << e_bit) - 1))
    sign_r = _parity(rest)  # r is the last mode; swaps past every occupied site
    state = np.zeros(len(basis), dtype=complex)
    state[basis.index[rest | (1 << e_bit)]] += sign_e / math.sqrt(2.0)
    state[basis.index[rest | (1 << r_bit)]] += sign_r / math.sqrt(2.0)
    return basis, state


# psi amplitudes [k, 2^|A|, 2^|B|] of one chunk of sample times in exact_entropies (4 MB)
_CHUNK_AMPLITUDES = 2**18


def exact_entropies(setup: QuenchSetup, subsets, times) -> np.ndarray:
    """gaussian.entropies(quench_evolution(setup), ...) on the exact sector state: entropy of each
    subset (1-based modes) at each time, [n_times, n_subsets].

    The sector Hamiltonian is diagonalised once, one block at a time (ExactEvolution), and each
    subset's reduced density matrices are built and diagonalised once per chunk of sample times, the
    stack of a chunk's states; a chunk holds _CHUNK_AMPLITUDES >> modes times, so memory does not grow
    with the number of times. Everything runs at one OpenBLAS thread, so no value depends on the
    process's thread count.
    """
    basis, state = initial_state(setup)
    chunk = max(1, _CHUNK_AMPLITUDES >> basis.modes)
    values = np.zeros((len(times), len(subsets)))
    with _one_blas_thread():
        evolution = ExactEvolution(state, many_body_hamiltonian(setup_hamiltonian(setup), basis))
        for start in range(0, len(times), chunk):
            states = np.array([evolution.state_at(t) for t in times[start : start + chunk]], dtype=complex)
            for j, subset in enumerate(subsets):
                values[start : start + chunk, j] = exact_entropy(states, basis, subset)
    return values
