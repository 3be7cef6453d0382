from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaaquench import _blas, oracle
from gaaquench.gaussian import (
    QuenchSetup,
    entropies,
    quench_evolution,
    reference_information,
    setup_hamiltonian,
)
from gaaquench.model import LatticeSpec, build_hamiltonian
from gaaquench.observables import MAX_TIME, reference_site_for
from gaaquench.oracle import (
    MAX_MODES,
    ChainSectors,
    FockBasis,
    exact_entropies,
    exact_entropy,
    exact_evolve,
    fixed_number_basis,
    initial_state,
    many_body_hamiltonian,
    reduced_density_matrix,
)
from kernel_references import bare_entropy, bare_information
from oracle_references import exact_mutual_information, full_basis


def per_ket_hamiltonian(h, basis):
    """sum_ij h_ij c_i^dag c_j built ket by ket and term by term, with Jordan-Wigner signs from bit counts."""

    def parity(bits):
        return -1 if bin(bits).count("1") % 2 else 1

    nonzero = [(i, j, h[i, j]) for i in range(basis.modes) for j in range(basis.modes) if h[i, j] != 0.0]
    out = np.zeros((len(basis), len(basis)))
    for col, n in enumerate(basis.states):
        for i, j, v in nonzero:
            bj, bi = 1 << j, 1 << i
            if not n & bj or (n ^ bj) & bi:
                continue
            m1 = n ^ bj
            out[basis.index[m1 | bi], col] += parity(n & (bj - 1)) * parity(m1 & (bi - 1)) * v
    return out


def mode_occupation(state, basis, mode):
    """<n_mode> for a 1-based mode label."""
    bit = 1 << (mode - 1)
    amps = np.abs(np.asarray(state, dtype=complex)) ** 2
    return float(sum(a for a, n in zip(amps, basis.states) if n & bit))


class TestFockBasis:
    def test_full_space_size(self):
        assert len(full_basis(5)) == 32

    def test_fixed_number_counts(self):
        basis = fixed_number_basis(8, 4)
        assert len(basis) == 70
        assert all(bin(n).count("1") == 4 for n in basis.states)
        assert len(set(basis.states)) == 70

    def test_index_maps_invert(self):
        basis = fixed_number_basis(6, 3)
        for i, n in enumerate(basis.states):
            assert basis.index[n] == i

    def test_size_guard(self):
        with pytest.raises(ValueError):
            full_basis(MAX_MODES + 1)
        with pytest.raises(ValueError):
            fixed_number_basis(13, 2)


class TestManyBodyHamiltonian:
    def test_single_particle_sector_equals_h(self):
        h = np.array([[0.4, -1.0], [-1.0, -0.2]])
        basis = fixed_number_basis(2, 1)
        hm = many_body_hamiltonian(h, basis)
        # basis states are |01> (mode 1) then |10> (mode 2)
        assert np.allclose(hm, h)

    def test_diagonal_h_gives_occupation_sums(self):
        mu = np.array([0.3, -0.7, 1.1, 0.5])
        basis = fixed_number_basis(4, 2)
        hm = many_body_hamiltonian(np.diag(mu), basis)
        assert np.allclose(hm, np.diag(np.diag(hm)))
        for col, n in enumerate(basis.states):
            expected = sum(mu[b] for b in range(4) if n >> b & 1)
            assert hm[col, col] == pytest.approx(expected)

    def test_spectrum_is_subset_sums_of_single_particle_energies(self):
        spec = LatticeSpec(L=6, lam=1.0, a=0.3)
        h = build_hamiltonian(spec)
        single = np.linalg.eigvalsh(h)
        expected = sorted(sum(c) for c in combinations(single, 3))
        many = np.linalg.eigvalsh(many_body_hamiltonian(h, fixed_number_basis(6, 3)))
        assert many == pytest.approx(expected, abs=1e-10)

    def test_symmetric(self):
        h = build_hamiltonian(LatticeSpec(L=5, lam=0.8, a=0.2))
        hm = many_body_hamiltonian(h, full_basis(5))
        assert np.max(np.abs(hm - hm.T)) == 0.0

    @pytest.mark.parametrize(
        "h, basis",
        [
            (build_hamiltonian(LatticeSpec(L=10, lam=1.0, a=0.3)), fixed_number_basis(10, 5)),
            (build_hamiltonian(LatticeSpec(L=8, lam=1.2, a=0.2, b=Fraction(3, 8), boundary="periodic")),
             fixed_number_basis(8, 4)),
            (setup_hamiltonian(QuenchSetup(LatticeSpec(L=10, lam=1.0, a=0.3), reference_site=5)),
             fixed_number_basis(11, 6)),
            (build_hamiltonian(LatticeSpec(L=6, lam=0.7, a=-0.4, phi=1.1)), full_basis(6)),
        ],
        ids=["open", "periodic", "reference", "full"],
    )
    def test_equals_per_ket_reference_exactly(self, h, basis):
        assert np.array_equal(many_body_hamiltonian(h, basis), per_ket_hamiltonian(h, basis))

    def test_basis_missing_a_reached_ket_rejected(self):
        basis = FockBasis(2, None, (0b01,))  # |10> is reached by hopping but absent
        with pytest.raises(ValueError, match="missing a ket"):
            many_body_hamiltonian(np.array([[0.0, -1.0], [-1.0, 0.0]]), basis)


class TestExactEvolve:
    def test_time_zero(self):
        basis = fixed_number_basis(4, 2)
        h = build_hamiltonian(LatticeSpec(L=4, lam=1.0, a=0.3))
        hm = many_body_hamiltonian(h, basis)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        psi /= np.linalg.norm(psi)
        assert np.allclose(exact_evolve(psi, hm, 0.0), psi, atol=1e-12)

    def test_norm_preserved(self):
        basis = fixed_number_basis(6, 3)
        hm = many_body_hamiltonian(build_hamiltonian(LatticeSpec(L=6, lam=1.3, a=0.4)), basis)
        _, psi = initial_state(QuenchSetup(LatticeSpec(L=6, lam=1.3, a=0.4), "neel"))
        for t in (0.5, 10.0, 500.0):
            assert np.linalg.norm(exact_evolve(psi, hm, t)) == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_picks_up_phase_only(self):
        basis = fixed_number_basis(4, 2)
        hm = many_body_hamiltonian(build_hamiltonian(LatticeSpec(L=4, lam=0.7, a=0.2)), basis)
        energies, vectors = np.linalg.eigh(hm)
        ground = vectors[:, 0].astype(complex)
        evolved = exact_evolve(ground, hm, 2.3)
        assert abs(np.vdot(ground, evolved)) == pytest.approx(1.0, abs=1e-10)

    def test_dimer_occupancy(self):
        setup = QuenchSetup(LatticeSpec(L=2, lam=0.0, a=0.0), "neel")
        basis, psi = initial_state(setup)
        hm = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
        for t in (0.4, 1.1, 3.0):
            psi_t = exact_evolve(psi, hm, t)
            assert mode_occupation(psi_t, basis, 1) == pytest.approx(np.cos(t) ** 2, abs=1e-12)

    def test_particle_number_block_structure(self):
        # the full-space Hamiltonian is exactly block diagonal in N, and
        # evolution leaks across sectors only at the rounding level
        spec = LatticeSpec(L=4, lam=0.9, a=0.3)
        basis = full_basis(4)
        hm = many_body_hamiltonian(build_hamiltonian(spec), basis)
        particle_counts = np.array([bin(n).count("1") for n in basis.states])
        cross = particle_counts[:, None] != particle_counts[None, :]
        assert np.max(np.abs(hm[cross])) == 0.0
        psi = np.zeros(16, dtype=complex)
        psi[basis.index[0b0101]] = 1.0
        psi_t = exact_evolve(psi, hm, 3.7)
        assert np.max(np.abs(psi_t[particle_counts != 2])) <= 1e-12


class TestExactEntropy:
    def test_product_state_zero(self):
        setup = QuenchSetup(LatticeSpec(L=6, lam=1.0, a=0.0), "neel")
        basis, psi = initial_state(setup)
        for subset in ([1], [2, 5], [1, 2, 3]):
            assert exact_entropy(psi, basis, subset) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair_marginal(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=1.0, a=0.0), "neel", reference_site=2)
        basis, psi = initial_state(setup)
        # one bit each
        assert exact_entropy(psi, basis, [2]) / np.log(2.0) == pytest.approx(1.0, abs=1e-10)
        assert exact_entropy(psi, basis, [5]) / np.log(2.0) == pytest.approx(1.0, abs=1e-10)

    def test_reduced_density_matrix_properties(self):
        setup = QuenchSetup(LatticeSpec(L=6, lam=1.0, a=0.3), "neel")
        basis, psi = initial_state(setup)
        hm = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
        psi_t = exact_evolve(psi, hm, 4.0)
        rho = reduced_density_matrix(psi_t, basis, [1, 2, 3])
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_complement_symmetry(self):
        setup = QuenchSetup(LatticeSpec(L=6, lam=0.8, a=0.3), "neel")
        basis, psi = initial_state(setup)
        hm = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
        psi_t = exact_evolve(psi, hm, 2.5)
        for subset in ([1], [1, 2], [2, 4, 6]):
            complement = [m for m in range(1, 7) if m not in subset]
            assert exact_entropy(psi_t, basis, subset) == pytest.approx(
                exact_entropy(psi_t, basis, complement), abs=1e-10
            )

    def test_noncontiguous_subset_sign_handling(self):
        # interleaved subsets exercise the fermionic reordering signs
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.3), "neel")
        basis, psi = initial_state(setup)
        h = build_hamiltonian(setup.spec)
        hm = many_body_hamiltonian(h, basis)
        ev = quench_evolution(setup)
        psi_t = exact_evolve(psi, hm, 3.0)
        c = ev.correlation_at(3.0)
        for subset in ([1, 3, 5], [2, 4, 7, 8], [1, 8]):
            assert exact_entropy(psi_t, basis, subset) == pytest.approx(
                bare_entropy(c, subset), abs=1e-8
            )


class TestOracleAgreesWithGaussian:
    def test_half_chain_entropy_after_quench(self):
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.3), "neel")
        basis, psi = initial_state(setup)
        hm = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
        ev = quench_evolution(setup)
        s_exact = exact_entropy(exact_evolve(psi, hm, 5.0), basis, [1, 2, 3, 4])
        s_gauss = bare_entropy(ev.correlation_at(5.0), [1, 2, 3, 4])
        assert s_exact == pytest.approx(s_gauss, abs=1e-8)

    def test_mutual_information_with_reference(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=0.6, a=0.2), "neel", reference_site=2)
        basis, psi = initial_state(setup)
        h = build_hamiltonian(setup.spec)
        hm = many_body_hamiltonian(np.pad(h, (0, 1)), basis)
        ev = quench_evolution(setup)
        for t in (0.0, 1.3, 6.0):
            psi_t = exact_evolve(psi, hm, t)
            c = ev.correlation_at(t)
            for a_sites in ([2], [1, 2], [3, 4], [1, 2, 3, 4]):
                assert exact_mutual_information(psi_t, basis, a_sites, 5) == pytest.approx(
                    bare_information(c, a_sites), abs=1e-8
                )


def _loop_reduced_density_matrix(state, basis, subset):
    """Per-amplitude reference for reduced_density_matrix: one Python pass per basis ket."""
    bits_a = sorted(m - 1 for m in subset)
    bits_b = [b for b in range(basis.modes) if b not in bits_a]
    psi = np.zeros((2 ** len(bits_a), 2 ** len(bits_b)), dtype=complex)
    for amp, n in zip(np.asarray(state, dtype=complex), basis.states):
        if amp == 0:
            continue
        a_idx = sum(((n >> b) & 1) << r for r, b in enumerate(bits_a))
        b_idx = sum(((n >> b) & 1) << r for r, b in enumerate(bits_b))
        swaps = sum(
            bin(n & sum(1 << bb for bb in bits_b if bb < ba)).count("1")
            for ba in bits_a
            if (n >> ba) & 1
        )
        psi[a_idx, b_idx] += amp if swaps % 2 == 0 else -amp
    return psi @ psi.conj().T


def _von_neumann(rho):
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-14]
    return float(-(p * np.log(p)).sum())


def _draw_reference_quench(data, max_L=9):
    """A random chain with a reference mode, its sector state at a random t <= 10, and h over L+1 modes."""
    L = data.draw(st.integers(2, max_L), label="L")
    initial = data.draw(st.sampled_from(("neel", "domain_wall", "random_product")), label="initial")
    seed = data.draw(st.integers(0, 2**16), label="seed") if initial == "random_product" else None
    spec = LatticeSpec(
        L=L, lam=data.draw(st.floats(0.0, 2.5), label="lam"), a=data.draw(st.floats(-0.6, 0.6), label="a")
    )
    setup = QuenchSetup(spec, initial, initial_seed=seed, reference_site=data.draw(st.integers(1, L), label="E"))
    h = np.pad(build_hamiltonian(spec), (0, 1))
    t = data.draw(st.floats(0.0, 10.0), label="t")
    basis, psi = initial_state(setup)
    return setup, h, t, basis, exact_evolve(psi, many_body_hamiltonian(h, basis), t)


class TestSectorAndComplement:
    @pytest.mark.parametrize(
        "subset",
        [[99], [0], [-1, 2], [2, 2], [1, 2, 3, 4, 5, 6, 99], [0, 1, 2, 3, 4, 5, 6], [1, 1, 2, 3, 4, 5, 6]],
        ids=["out-small", "zero-small", "negative-small", "duplicate-small",
             "out-large", "zero-large", "duplicate-large"],
    )
    def test_bad_labels_raise_on_both_sides_of_half(self, subset):
        # 11 modes: a 7-label subset would be evaluated through its complement
        setup = QuenchSetup(LatticeSpec(L=10, lam=1.0, a=0.3), "neel", reference_site=5)
        basis, psi = initial_state(setup)
        with pytest.raises(ValueError):
            exact_entropy(psi, basis, subset)

    @pytest.mark.parametrize("subset", [[1.5, 2.9], [2.0], [np.float64(3.0)], [1, 2, 3, 4, 5, 6, 7.5]],
                             ids=["fractions", "float", "numpy-float", "fraction-large"])
    def test_non_integer_labels_rejected_not_truncated(self, subset):
        setup = QuenchSetup(LatticeSpec(L=10, lam=1.0, a=0.3), "neel", reference_site=5)
        basis, psi = initial_state(setup)
        for evaluate in (lambda: exact_entropy(psi, basis, subset), lambda: reduced_density_matrix(psi, basis, subset),
                         lambda: exact_entropies(setup, [subset], [1.0])):
            with pytest.raises(ValueError, match="site labels must be integers"):
                evaluate()

    def test_numpy_integer_labels_accepted(self):
        setup = QuenchSetup(LatticeSpec(L=6, lam=1.0, a=0.3), "neel", reference_site=3)
        subsets = [[1, 2, 7], [3, 4, 5, 6, 7]]
        as_numpy = [np.array(subsets[0]), [np.int32(m) for m in subsets[1]]]
        assert np.array_equal(exact_entropies(setup, as_numpy, [2.0]), exact_entropies(setup, subsets, [2.0]))

    @pytest.mark.parametrize("site, particles", [(5, 5), (4, 6)])
    def test_reference_state_lives_in_one_sector(self, site, particles):
        # Neel at L = 10 fills sites 1, 3, ..., 9; the Bell pair puts one particle on E or R
        setup = QuenchSetup(LatticeSpec(L=10, lam=1.0, a=0.3), "neel", reference_site=site)
        basis, psi = initial_state(setup)
        assert (basis.modes, basis.particles, len(basis)) == (11, particles, 462)
        assert np.count_nonzero(psi) == 2
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vectorised_rdm_matches_amplitude_loop(self, data):
        modes = data.draw(st.integers(1, 7), label="modes")
        basis = full_basis(modes)
        order = data.draw(st.permutations(range(1, modes + 1)), label="order")
        subset = order[: data.draw(st.integers(0, modes), label="size")]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        psi /= np.linalg.norm(psi)
        rho = reduced_density_matrix(psi, basis, subset)
        assert rho.shape == (2 ** len(subset),) * 2
        assert np.max(np.abs(rho - _loop_reduced_density_matrix(psi, basis, subset))) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sector_path_matches_full_space(self, data):
        setup, h, t, basis, psi_t = _draw_reference_quench(data)
        L = setup.spec.L
        full = full_basis(L + 1)
        psi0_full = np.zeros(len(full), dtype=complex)
        psi0_full[[full.index[n] for n in basis.states]] = initial_state(setup)[1]
        psi_full = exact_evolve(psi0_full, many_body_hamiltonian(h, full), t)
        order = data.draw(st.permutations(range(1, L + 2)), label="order")
        small = data.draw(st.integers(1, (L + 1) // 2), label="small")
        large = data.draw(st.integers((L + 1) // 2 + 1, L + 1), label="large")
        for size in (small, large):
            assert exact_entropy(psi_t, basis, order[:size]) == pytest.approx(
                exact_entropy(psi_full, full, order[:size]), abs=1e-10
            )
        sites = data.draw(st.permutations(range(1, L + 1)), label="sites")
        window = sites[: data.draw(st.integers(0, L), label="size_A")]
        assert exact_mutual_information(psi_t, basis, window, L + 1) == pytest.approx(
            exact_mutual_information(psi_full, full, window, L + 1), abs=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_large_subsets_match_their_own_rdm(self, data):
        # an independent check of the complement rule: the RDM on A itself, not on its complement
        setup, _, _, basis, psi_t = _draw_reference_quench(data, max_L=8)
        modes = setup.spec.L + 1
        order = data.draw(st.permutations(range(1, modes + 1)), label="order")
        subset = order[: data.draw(st.integers(modes // 2 + 1, modes), label="size")]
        assert exact_entropy(psi_t, basis, subset) == pytest.approx(
            _von_neumann(reduced_density_matrix(psi_t, basis, subset)), abs=1e-10
        )


class TestExactEvolution:
    def test_one_eigh_for_many_times(self, monkeypatch):
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.1, a=0.3), "neel")
        basis, psi = initial_state(setup)
        hm = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
        times = np.linspace(0.0, 10.0, 21)
        expected = [exact_evolve(psi, hm, t) for t in times]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m, *args, **kw: calls.append(m.shape) or eigh(m, *args, **kw))
        sectors = ChainSectors(setup.spec)
        states = np.concatenate([sectors.evolve(psi, basis, times[:7]), sectors.evolve(psi, basis, times[7:])])
        assert calls == [(70, 70)]  # the store diagonalises the sector once, for both calls
        assert states.shape == (21, 70)
        for state, reference in zip(states, expected):  # one sector: the same arithmetic as the one-shot path
            assert np.array_equal(state, reference)

    def test_guards(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=1.0), "neel", reference_site=2)
        basis, psi = initial_state(setup)
        sectors = ChainSectors(setup.spec)
        # a state of the wrong size, the full Fock space, a basis over 6 modes, one over 3
        for state, states_basis in ((np.ones(5), basis), (psi, full_basis(5)),
                                    (np.ones(15), fixed_number_basis(6, 2)), (np.ones(3), fixed_number_basis(3, 1))):
            with pytest.raises(ValueError, match="no fixed-number sector"):
                sectors.evolve(state, states_basis, [1.0])
        with pytest.raises(ValueError, match="oracle guard"):  # a view: no matrix is allocated
            exact_evolve(np.ones(2**MAX_MODES + 1), np.broadcast_to(0.0, (2**MAX_MODES + 1,) * 2), 1.0)
        with pytest.raises(ValueError, match="another chain"):
            exact_entropies(setup, [[1]], [1.0], ChainSectors(LatticeSpec(L=4, lam=1.5)))

    def test_entropy_table_shape(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=0.6, a=0.2), "neel", reference_site=2)
        assert exact_entropies(setup, [[1], [2, 5]], []).shape == (0, 2)
        table = exact_entropies(setup, [[2], [5], [2, 5]], [0.0]) / np.log(2.0)  # in bits
        assert table == pytest.approx(np.array([[1.0, 1.0, 0.0]]), abs=1e-12)

    @pytest.mark.parametrize("times", [1.0, [[1.0, 2.0]], np.ones((2, 3))], ids=["scalar", "row", "table"])
    def test_times_must_be_one_dimensional(self, times):
        # the rule and message of gaussian.entropies, checked before any sector is diagonalised
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.3), "neel")
        with pytest.raises(ValueError, match="1-D array of sample times"):
            exact_entropies(setup, [[1, 2, 3, 4]], times)
        with pytest.raises(ValueError, match="1-D array of sample times"):
            entropies(quench_evolution(setup), [[1, 2, 3, 4]], times)


def reference_quench(L, coupling):
    """Neel chain of L sites with the reference at the edge or centre: its sector basis, state and H."""
    setup = QuenchSetup(LatticeSpec(L=L, lam=1.0, a=0.3), "neel", reference_site=reference_site_for(L, coupling))
    basis, psi = initial_state(setup)
    return setup, basis, psi, many_body_hamiltonian(setup_hamiltonian(setup), basis)


def record_many_body_eigh(monkeypatch, L):
    """The shapes of the eigh calls on matrices larger than the chain and R: the many-body ones."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(m, *args, **kw):
        if m.shape[0] > L + 1:
            shapes.append(m.shape)
        return eigh(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


class TestSpectatorBlocks:
    @pytest.mark.parametrize("coupling", ["edge", "center"])
    @pytest.mark.parametrize("L", [6, 7, 8, 9, 10])
    def test_block_split_equals_one_block(self, L, coupling, monkeypatch):
        # the chain sectors against one eigh of the whole (L+1)-mode sector
        setup, basis, psi, hm = reference_quench(L, coupling)
        times = np.linspace(0.0, 10.0, 20)
        whole = [exact_evolve(psi, hm, t) for t in times]
        shapes = record_many_body_eigh(monkeypatch, L)
        split = ChainSectors(setup.spec).evolve(psi, basis, times)
        # R, which never hops, empty or occupied: the chain holds all N particles or N - 1 of them
        sizes = [comb(L, basis.particles), comb(L, basis.particles - 1)]
        assert shapes == [(size, size) for size in sizes] and sum(sizes) == len(basis)
        for state, reference in zip(split, whole):
            assert np.max(np.abs(state - reference)) <= 1e-12

    @pytest.mark.parametrize("particles", [0, 1, 5, 6])
    def test_sectors_at_the_ends_of_the_filling(self, particles):
        # R occupied with an empty chain, or R empty with a full one: one of the two parts has no kets
        L = 5
        spec = LatticeSpec(L=L, lam=0.8, a=0.2)
        basis = fixed_number_basis(L + 1, particles)
        rng = np.random.default_rng(particles)
        psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        hm = many_body_hamiltonian(np.pad(build_hamiltonian(spec), (0, 1)), basis)
        split = ChainSectors(spec).evolve(psi, basis, [0.7, 3.0])
        for state, t in zip(split, (0.7, 3.0)):
            assert np.max(np.abs(state - exact_evolve(psi, hm, t))) <= 1e-12

    def test_many_body_eigh_runs_at_one_blas_thread(self, monkeypatch, blas_count):
        get = _blas._blas_threads
        setup, basis, psi, _ = reference_quench(10, "center")
        subsets = [[5], [4, 5, 6], list(range(1, 11)), [11], [4, 5, 6, 11]]
        times = np.linspace(0.0, 10.0, 7)
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m, *args, **kw: seen.append(get()) or eigh(m, *args, **kw))
        tables = []
        for threads in (1, 2):
            blas_count(threads)
            tables.append(exact_entropies(setup, subsets, times))
            ChainSectors(setup.spec).evolve(psi, basis, times)
            assert get() == threads
        assert seen == [1] * 8
        assert np.array_equal(tables[0], tables[1])


class TestStackedStates:
    @pytest.mark.parametrize("subset", [[], [3], [1, 4, 9], [2, 3, 5, 7], [1, 2, 3, 4, 5, 6, 9]],
                             ids=["empty", "one", "spread", "four", "complement"])
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_stack_equals_each_state_exactly(self, subset, count):
        setup, basis, psi, _ = reference_quench(8, "center")
        states = ChainSectors(setup.spec).evolve(psi, basis, np.linspace(0.0, 10.0, count))
        rho = reduced_density_matrix(states, basis, subset)
        values = exact_entropy(states, basis, subset)
        assert rho.shape == (count,) + (2 ** len(subset),) * 2 and values.shape == (count,)
        for k, state in enumerate(states):
            assert np.array_equal(rho[k], reduced_density_matrix(state, basis, subset))
            assert values[k] == exact_entropy(state, basis, subset)
        assert np.array_equal(exact_entropies(setup, [subset], np.linspace(0.0, 10.0, count))[:, 0], values)

    def test_chunked_times_equal_one_chunk(self, monkeypatch):
        setup, basis, _, _ = reference_quench(6, "center")
        subsets = [[], [3], [1, 4, 7], [2, 3, 5, 6]]
        times = np.linspace(0.0, 20.0, 50)
        stacks = []
        rdm = oracle.reduced_density_matrix
        monkeypatch.setattr(oracle, "reduced_density_matrix",
                            lambda states, *args: stacks.append(len(states)) or rdm(states, *args))
        whole = exact_entropies(setup, subsets, times)
        monkeypatch.setattr(oracle, "_CHUNK_AMPLITUDES", 3 << basis.modes)  # three times per chunk
        assert np.array_equal(exact_entropies(setup, subsets, times), whole)
        # the empty subset builds no matrix, and [2, 3, 5, 6] shares the side [1, 4, 7] (its complement), so
        # one matrix per distinct side: 50 times are 16 chunks of 3 and one of 2
        assert stacks == [50] * 2 + [3] * 16 * 2 + [2] * 2


def _draw_subsets(data, modes, label):
    """One random subset of 1..modes on each side of modes/2 (the small one may be empty)."""
    order = data.draw(st.permutations(range(1, modes + 1)), label=f"{label} order")
    small = data.draw(st.integers(0, modes // 2), label=f"{label} small")
    large = data.draw(st.integers(modes // 2 + 1, modes), label=f"{label} large")
    return [sorted(order[:small]), sorted(order[:large])]


class TestProductionKernelAgreesWithOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_entropies_and_reference_information(self, data):
        # the Gaussian production path (entropies with the complement rule, and
        # reference_information on it) against the many-body state, to 1e-8
        reference = data.draw(st.booleans(), label="reference")
        L = data.draw(st.integers(2, MAX_MODES - 1) if reference else st.sampled_from((2, 4, 6, 8, 10, 12)), label="L")
        initial = data.draw(st.sampled_from(("neel", "domain_wall", "random_product")), label="initial")
        spec = LatticeSpec(
            L=L,
            lam=data.draw(st.floats(0.0, 2.5), label="lam"),
            a=data.draw(st.floats(-0.6, 0.6), label="a"),
            phi=data.draw(st.floats(0.0, 2 * np.pi), label="phi"),
        )
        setup = QuenchSetup(
            spec,
            initial,
            initial_seed=data.draw(st.integers(0, 2**16), label="seed") if initial == "random_product" else None,
            reference_site=data.draw(st.integers(1, L), label="E") if reference else None,
        )
        # an early time, one where the measurements sample the steady state (t ~ 1e4-2e4): there the
        # two engines differed by at most 3.6e-11 (median 5.7e-12) over 40 random setups; and the latest
        # time a config may reach, where the worst gap over 3000 random setups was 3.9e-10
        times = [data.draw(st.floats(0.0, 10.0), label="t"), data.draw(st.floats(1.0e4, 2.0e4), label="late t"),
                 MAX_TIME]
        ev = quench_evolution(setup)
        subsets = _draw_subsets(data, ev.dim, "modes")
        assert entropies(ev, subsets, times) == pytest.approx(exact_entropies(setup, subsets, times), abs=1e-8)
        if reference:
            windows = _draw_subsets(data, L, "sites")
            mi = reference_information(windows, L + 1, lambda sets: entropies(ev, sets, times))
            basis, psi = initial_state(setup)
            hm = many_body_hamiltonian(np.pad(build_hamiltonian(spec), (0, 1)), basis)
            for k, t in enumerate(times):
                psi_t = exact_evolve(psi, hm, t)
                exact = [exact_mutual_information(psi_t, basis, w, L + 1) for w in windows]
                assert mi[k] == pytest.approx(exact, abs=1e-8)


def combinations_basis(modes, particles):
    """The kets of a fixed-number basis from itertools.combinations, sorted, with their occupation table."""
    states = tuple(sorted(sum(1 << b for b in occ) for occ in combinations(range(modes), particles)))
    table = np.array([[n >> m & 1 for m in range(modes)] for n in states], dtype=np.int64).reshape(len(states), modes)
    return states, table


class TestVectorisedSetUp:
    @pytest.mark.parametrize("modes", range(MAX_MODES + 1))
    def test_fixed_number_basis_equals_combinations(self, modes):
        for particles in range(modes + 1):
            basis = fixed_number_basis(modes, particles)
            states, table = combinations_basis(modes, particles)
            assert basis.states == states
            assert np.array_equal(np.flatnonzero(basis.index >= 0), states)
            assert np.array_equal(basis.index[list(states)], np.arange(len(states)))
            assert not basis.index.flags.writeable
            assert basis.occupations.dtype == table.dtype and np.array_equal(basis.occupations, table)
            assert not basis.occupations.flags.writeable

    def test_hand_made_basis_gives_the_same_results(self):
        setup, basis, psi, hm = reference_quench(8, "center")
        bare = FockBasis(basis.modes, basis.particles, basis.states)
        assert bare == basis and np.array_equal(bare.occupations, basis.occupations)
        assert bare.occupations is bare.occupations  # built once per basis
        assert np.array_equal(many_body_hamiltonian(setup_hamiltonian(setup), bare), hm)
        for subset in ([], [4], [2, 5, 9], [1, 2, 3, 4, 5, 6]):
            assert np.array_equal(reduced_density_matrix(psi, bare, subset), reduced_density_matrix(psi, basis, subset))
