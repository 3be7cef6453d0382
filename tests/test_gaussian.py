import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaaquench.gaussian import (
    CorrelationMatrix,
    QuenchEvolution,
    QuenchSetup,
    entropies,
    entropy_of_block,
    evolve,
    initial_correlation,
    mutual_information,
    occupation_pattern,
    quench_evolution,
    subsystem_entropy,
)
from gaaquench.model import LatticeSpec, build_hamiltonian

LN2 = np.log(2.0)


def neel_setup(L, lam=1.0, a=0.3, reference=None):
    return QuenchSetup(LatticeSpec(L=L, lam=lam, a=a), "neel", reference_site=reference)


class TestQuenchSetup:
    def test_neel_pattern(self):
        assert occupation_pattern(neel_setup(4)).tolist() == [1, 0, 1, 0]

    def test_domain_wall_pattern(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=1.0, a=0.0), "domain_wall")
        assert occupation_pattern(setup).tolist() == [1, 1, 0, 0]

    def test_random_pattern_seeded_half_filling(self):
        spec = LatticeSpec(L=10, lam=1.0, a=0.0)
        one = occupation_pattern(QuenchSetup(spec, "random_product", initial_seed=4))
        two = occupation_pattern(QuenchSetup(spec, "random_product", initial_seed=4))
        other = occupation_pattern(QuenchSetup(spec, "random_product", initial_seed=5))
        assert one.sum() == 5
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_validation_errors(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.0)
        with pytest.raises(ValueError):
            QuenchSetup(spec, "w_state")
        with pytest.raises(ValueError):
            QuenchSetup(LatticeSpec(L=5, lam=1.0, a=0.0), "neel")  # odd L, no reference
        with pytest.raises(ValueError):
            QuenchSetup(spec, "custom", occupations=(1, 1, 1, 0))  # not half filled
        with pytest.raises(ValueError):
            QuenchSetup(spec, "custom")  # no pattern given
        with pytest.raises(ValueError):
            QuenchSetup(spec, "random_product")  # no seed
        with pytest.raises(ValueError):
            QuenchSetup(spec, "neel", reference_site=5)


class TestInitialCorrelation:
    def test_neel_diagonal(self):
        c = initial_correlation(neel_setup(4))
        assert np.array_equal(c.matrix, np.diag([1, 0, 1, 0]).astype(complex))
        assert c.reference_index is None

    def test_domain_wall_diagonal(self):
        setup = QuenchSetup(LatticeSpec(L=4, lam=1.0, a=0.0), "domain_wall")
        c = initial_correlation(setup)
        assert np.array_equal(c.matrix, np.diag([1, 1, 0, 0]).astype(complex))

    def test_reference_bell_block(self):
        c = initial_correlation(neel_setup(6, reference=3))
        assert c.dim == 7
        assert c.reference_index == 7
        block = c.matrix[np.ix_([2, 6], [2, 6])]
        assert np.allclose(block, 0.5 * np.ones((2, 2)))
        assert sorted(np.linalg.eigvalsh(block).round(12)) == [0.0, 1.0]
        # reference marginal carries exactly one bit
        assert subsystem_entropy(c, [7], "two") == pytest.approx(1.0, abs=1e-9)
        # pattern occupations on the remaining sites are untouched
        diag = np.real(np.diag(c.matrix))
        assert diag[[0, 1, 3, 4, 5]] == pytest.approx([1, 0, 0, 1, 0])

    def test_hermiticity_enforced(self):
        bad = np.diag([1.0, 0.0]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            CorrelationMatrix(bad)


class TestEvolve:
    def test_time_zero_identity(self):
        setup = neel_setup(6)
        c0 = initial_correlation(setup)
        c = evolve(c0, build_hamiltonian(setup.spec), 0.0)
        assert np.allclose(c.matrix, c0.matrix, atol=1e-12)

    def test_diagonal_hamiltonian_freezes_occupations(self):
        c0 = CorrelationMatrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        h = np.diag([0.3, -1.2, 0.7, 2.0])
        for t in (0.5, 3.0, 100.0):
            c = evolve(c0, h, t)
            assert np.allclose(c.matrix, c0.matrix, atol=1e-12)

    def test_dimer_occupancy_oscillation(self):
        setup = QuenchSetup(LatticeSpec(L=2, lam=0.0, a=0.0), "neel")
        ev = quench_evolution(setup)
        for t in (0.3, 1.0, 2.4):
            c = ev.correlation_at(t)
            assert c.matrix[0, 0].real == pytest.approx(np.cos(t) ** 2, abs=1e-12)
            assert c.matrix[1, 1].real == pytest.approx(np.sin(t) ** 2, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        c0 = initial_correlation(neel_setup(6))
        with pytest.raises(ValueError):
            evolve(c0, np.zeros((4, 4)), 1.0)

    def test_trace_conserved_to_late_times(self):
        setup = neel_setup(8, lam=1.0, a=0.3)
        ev = quench_evolution(setup)
        n0 = initial_correlation(setup).particle_number
        for t in (1.0, 100.0, 10000.0):
            assert abs(ev.correlation_at(t).particle_number - n0) <= 1e-9

    def test_eigenvalues_stay_physical(self):
        ev = quench_evolution(neel_setup(10, lam=1.3, a=0.5))
        for t in (0.7, 50.0, 4000.0):
            nu = np.linalg.eigvalsh(ev.correlation_at(t).matrix)
            assert nu.min() >= -1e-9 and nu.max() <= 1 + 1e-9

    def test_reference_mode_never_evolves(self):
        setup = neel_setup(6, reference=3)
        ev = quench_evolution(setup)
        for t in (0.5, 12.0, 300.0):
            c = ev.correlation_at(t)
            assert subsystem_entropy(c, [7], "two") == pytest.approx(1.0, abs=1e-8)

    def test_block_matches_full_correlation(self):
        ev = quench_evolution(neel_setup(8, lam=0.7, a=0.2))
        sites = [2, 3, 5]
        full = ev.correlation_at(1.7).matrix
        idx = [1, 2, 4]
        assert np.allclose(ev.block_at(1.7, sites), full[np.ix_(idx, idx)], atol=1e-12)


class TestSubsystemEntropy:
    def test_pure_product_block(self):
        c = CorrelationMatrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        assert subsystem_entropy(c, [1, 2]) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_mode(self):
        c = CorrelationMatrix(np.array([[0.5]], dtype=complex))
        assert subsystem_entropy(c, [1], "natural") == pytest.approx(LN2)
        assert subsystem_entropy(c, [1], "two") == pytest.approx(1.0)

    def test_empty_set(self):
        c = CorrelationMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert subsystem_entropy(c, []) == 0.0

    def test_bad_sites_rejected(self):
        c = CorrelationMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            subsystem_entropy(c, [0])
        with pytest.raises(ValueError):
            subsystem_entropy(c, [3])
        with pytest.raises(ValueError):
            subsystem_entropy(c, [1, 1])

    def test_complement_symmetry_for_pure_state(self):
        setup = neel_setup(10, lam=0.9, a=0.4)
        ev = quench_evolution(setup)
        c = ev.correlation_at(3.2)
        for cut in (1, 3, 5, 8):
            left = subsystem_entropy(c, range(1, cut + 1))
            right = subsystem_entropy(c, range(cut + 1, 11))
            assert left == pytest.approx(right, abs=1e-8)


class TestMutualInformation:
    def test_requires_reference(self):
        c = initial_correlation(neel_setup(4))
        with pytest.raises(ValueError):
            mutual_information(c, [1])

    def test_a_may_not_contain_reference(self):
        c = initial_correlation(neel_setup(6, reference=3))
        with pytest.raises(ValueError):
            mutual_information(c, [1, 7])

    def test_bell_pair_inside_or_outside(self):
        c = initial_correlation(neel_setup(6, reference=3))
        assert mutual_information(c, [2, 3, 4]) == pytest.approx(2.0, abs=1e-8)
        assert mutual_information(c, [1, 5, 6]) == pytest.approx(0.0, abs=1e-8)

    def test_empty_subsystem(self):
        c = initial_correlation(neel_setup(6, reference=3))
        assert mutual_information(c, []) == pytest.approx(0.0, abs=1e-10)

    def test_full_chain_recovers_everything(self):
        ev = quench_evolution(neel_setup(6, lam=0.8, a=0.3, reference=3))
        for t in (0.0, 1.5, 20.0):
            c = ev.correlation_at(t)
            assert mutual_information(c, range(1, 7)) == pytest.approx(2.0, abs=1e-8)

    def test_monotone_in_nested_subsystems(self):
        ev = quench_evolution(neel_setup(8, lam=1.1, a=0.3, reference=4))
        for t in (0.8, 5.0, 40.0):
            c = ev.correlation_at(t)
            nested = [mutual_information(c, range(1, k + 1)) for k in range(9)]
            assert np.all(np.diff(nested) >= -1e-9)
            assert min(nested) >= -1e-9 and max(nested) <= 2 + 1e-9


class TestEntropiesKernel:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_direct_blocks_at_late_times(self, data):
        L = data.draw(st.integers(4, 24), label="L")
        reference = data.draw(st.none() | st.integers(1, L), label="reference")
        if reference is None:
            L -= L % 2  # half filling without a reference needs an even L
        initial = data.draw(st.sampled_from(("neel", "domain_wall", "random_product")), label="initial")
        spec = LatticeSpec(
            L=L,
            lam=data.draw(st.floats(0.0, 2.5), label="lam"),
            a=data.draw(st.floats(-0.6, 0.6), label="a"),
            phi=data.draw(st.floats(0.0, 2 * np.pi), label="phi"),
        )
        seed = data.draw(st.integers(0, 2**16), label="seed") if initial == "random_product" else None
        ev = quench_evolution(QuenchSetup(spec, initial, initial_seed=seed, reference_site=reference))
        assert ev.pure
        order = data.draw(st.permutations(range(1, ev.dim + 1)), label="order")
        small = data.draw(st.integers(0, ev.dim // 2), label="small")
        large = data.draw(st.integers(ev.dim // 2 + 1, ev.dim), label="large")
        subsets = [order[:small], order[:large], order[small:], order[large:]]
        times = data.draw(st.lists(st.floats(1e4, 2e4), min_size=1, max_size=3), label="times")
        got = entropies(ev, subsets, times)
        assert got.shape == (len(times), len(subsets))
        for k, t in enumerate(times):
            for j, subset in enumerate(subsets):
                assert got[k, j] == pytest.approx(entropy_of_block(ev.block_at(t, subset)), abs=1e-9)

    def test_mixed_state_is_evaluated_directly(self):
        # sites 1 and 3 are half filled without a Bell partner: C0 is no projector
        c0 = CorrelationMatrix(np.diag([0.5, 1.0, 0.5, 0.0, 1.0, 0.0]).astype(complex))
        ev = QuenchEvolution(c0, build_hamiltonian(LatticeSpec(L=6, lam=1.0, a=0.3)))
        assert not ev.pure
        subsets = [[1, 2, 3, 4, 5], [6], [2, 4, 5, 6], [1, 3]]
        times = [0.0, 2.5, 1.3e4]
        got = entropies(ev, subsets, times, "two")
        for k, t in enumerate(times):
            direct = [entropy_of_block(ev.block_at(t, x), "two") for x in subsets]
            assert got[k] == pytest.approx(direct, abs=1e-12)
        # the complement rule would have put S({1..5}) = S({6}) = 0 at t = 0
        assert got[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert got[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_tie_keeps_the_half_chain_block(self):
        ev = quench_evolution(neel_setup(12, lam=1.2, a=0.3))
        half = range(1, 7)
        times = [1.0e4, 1.5e4]
        got = entropies(ev, [half], times)[:, 0]
        assert got.tolist() == [entropy_of_block(ev.block_at(t, half)) for t in times]

    def test_builds_only_the_rows_of_the_chosen_sides(self, monkeypatch):
        ev = quench_evolution(neel_setup(24, reference=12))
        built = []
        block_at = QuenchEvolution.block_at

        def recording_block_at(self, time, sites):
            built.append(sorted(int(s) for s in sites))
            return block_at(self, time, sites)

        monkeypatch.setattr(QuenchEvolution, "block_at", recording_block_at)
        window = list(range(10, 15))
        # |A| = 0, 5 and L with and without R: the two largest sets flip to {R} and {}
        subsets = [[], window, list(range(1, 25)), [25], window + [25], list(range(1, 26))]
        got = entropies(ev, subsets, [1.0e4, 1.2e4], "two")
        assert built == [window + [25]] * 2
        assert got[:, 2] == pytest.approx(got[:, 3], abs=1e-12)
        assert got[:, 5] == pytest.approx(0.0, abs=1e-9)

    def test_bad_input_rejected(self):
        ev = quench_evolution(neel_setup(6))
        with pytest.raises(ValueError):
            entropies(ev, [[7]], [1.0])
        with pytest.raises(ValueError):
            entropies(ev, [[1]], [1.0], "ten")
