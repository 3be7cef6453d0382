import ctypes
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaaquench import _blas, gaussian, observables
from gaaquench.gaussian import (
    CorrelationMatrix,
    QuenchEvolution,
    QuenchSetup,
    binary_entropy,
    block_entropies,
    entropies,
    entropy_of_block,
    initial_correlation,
    occupation_pattern,
    quench_evolution,
    reference_information,
    setup_hamiltonian,
)
from gaaquench.model import LatticeSpec, build_hamiltonian
from gaaquench.spectral import diagonalize
from kernel_references import KERNEL_SYMBOLS, bare_entropy, bare_information, kernel_entropy, side_spectra

LN2 = np.log(2.0)


def neel_setup(L, lam=1.0, a=0.3, reference=None):
    return QuenchSetup(LatticeSpec(L=L, lam=lam, a=a), "neel", reference_site=reference)


def chosen_sides(ev, subsets):
    """The side of each subset: the subset, or, for a pure state, its complement where that is smaller."""
    sides = []
    for subset in subsets:
        side = sorted(set(subset))
        if ev.pure and 2 * len(side) > ev.dim:
            side = sorted(set(range(1, ev.dim + 1)) - set(side))
        sides.append(tuple(side))
    return sides


def largest_copy(ev, subsets, rows):
    """The largest side that lies in the given rows and is not all of them: that row group's side copy."""
    return max((len(side) for side in chosen_sides(ev, subsets) if set(side) < set(rows)), default=0)


def per_time_entropies(ev, subsets, times):
    """The kernel's arithmetic one time and one side at a time, and the rows of each block it builds.

    A subset of a pure state that holds more than half of the modes is replaced
    by its complement. Where the kernel routines are present, largest side
    first, a side Y of two or more modes is paired with its lead Y[:-1] when that
    is also a side and neither is in a pair yet; a lead joins no group. Largest
    first, each other distinct side joins the first group whose rows, with its
    own, stay within max(ceil(dim / 2), largest side), or opens a new group.
    Each side is cut from its group's block_at block, a lead from its
    carrier's: a carrier's block gives both spectra from the kernel's spectral
    routine, any other block goes to the kernel's lone-side routine (to
    eigvalsh without the kernel routines).
    """
    sides = chosen_sides(ev, subsets)
    distinct = sorted(dict.fromkeys(sides), key=len, reverse=True)  # a stable sort keeps the order of ties
    lead_of, paired = {}, set()
    for side in distinct if _blas._kernel_routines() else []:
        lead = side[:-1]
        if len(side) > 1 and lead in distinct and side not in paired and lead not in paired:
            lead_of[side] = lead
            paired.update((side, lead))
    carrier_of = {lead: side for side, lead in lead_of.items()}
    grouped = [side for side in distinct if side not in carrier_of]
    limit = max([(ev.dim + 1) // 2] + [len(side) for side in grouped])
    groups, group_of = [], {}
    for side in grouped:
        g = next((g for g, rows in enumerate(groups) if len(rows | set(side)) <= limit), len(groups))
        if g == len(groups):
            groups.append(set())
        groups[g].update(side)
        group_of[side] = g
    groups = [sorted(rows) for rows in groups]
    out = np.empty((len(times), len(subsets)))
    for k, t in enumerate(times):
        blocks = [ev.block_at(t, rows) for rows in groups]
        for j, side in enumerate(sides):
            carrier = carrier_of.get(side, side)
            g = group_of[carrier]
            pos = [groups[g].index(x) for x in carrier]
            block = blocks[g][np.ix_(pos, pos)]
            if carrier in lead_of:
                nu, lead = side_spectra(block, lead=True)
                out[k, j] = gaussian._binary_entropies(nu if side == carrier else lead)
            else:
                out[k, j] = kernel_entropy(block)
    return out, groups


def chunk_times(rows, copy, n_times=10**6):
    """The sample times per chunk of a row group of `rows` rows whose largest side that is not the whole
    block has `copy` modes, for a call with n_times times."""
    members = [(tuple(range(size)), [column], None) for column, size in enumerate(sorted({rows, copy})) if size]
    group = gaussian._RowGroup(set(range(rows)), members, n_times)
    assert group.copy == copy
    return group.chunk


def record_fill_rows(monkeypatch):
    """Patch _fill, which builds every block, to record for each call the 1-based modes of its rows."""
    built = []
    fill = QuenchEvolution._fill

    def recording_fill(self, time, v_rows, out, p, w):
        built.append([int(np.flatnonzero((self.modes == row).all(axis=1))[0]) + 1 for row in v_rows])
        return fill(self, time, v_rows, out, p, w)

    monkeypatch.setattr(QuenchEvolution, "_fill", recording_fill)
    return built


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(initial="custom", occupations=(1, 0.7, 1, 0, 1, 0, 1, 0)), "an occupation must be an integer"),
        (dict(reference_site=5.5), "reference_site must be an integer"),
        (dict(reference_site=5.0), "reference_site must be an integer"),
        (dict(initial="random_product", initial_seed=-1), "initial_seed must be non-negative"),
        (dict(initial="random_product", initial_seed=1.5), "initial_seed must be an integer"),
    ], ids=["occupation-0.7", "reference-5.5", "reference-5.0", "seed-negative", "seed-1.5"])
    def test_malformed_integers_rejected_not_truncated(self, kwargs, message):
        # 0.7 was stored as 0 and 5.5 accepted; 5.0 and both seeds failed only at first use
        with pytest.raises(ValueError, match=message):
            QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.0), **kwargs)


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
        assert bare_entropy(c, [7]) / LN2 == pytest.approx(1.0, abs=1e-9)
        # pattern occupations on the remaining sites are untouched
        diag = np.real(np.diag(c.matrix))
        assert diag[[0, 1, 3, 4, 5]] == pytest.approx([1, 0, 0, 1, 0])

    def test_hermiticity_enforced(self):
        bad = np.diag([1.0, 0.0]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            CorrelationMatrix(bad)

    def test_c0_within_the_hermiticity_tolerance_evolves(self):
        # 3e-12 above the diagonal: C0 passes its 1e-10 check, while its rotation into the eigenbasis of h is
        # 1.4e-10 from symmetric, past diagonalize's check; the evolution reads the rotation's lower triangle
        L = 100
        c = np.diag((np.arange(L) % 2).astype(complex)) + 3e-12 * np.triu(np.ones((L, L)), 1)
        ev = QuenchEvolution(CorrelationMatrix(c), build_hamiltonian(LatticeSpec(L=L, lam=1.0, a=0.3)))
        assert ev.pure
        assert np.max(np.abs(ev.correlation_at(0.0).matrix - np.diag(np.diag(c)))) <= 1e-9


# each tolerance check compares a deviation with its bound; NaN compares False either way round
NAN_CHECKS = {
    "symmetry": (lambda: diagonalize(np.full((2, 2), np.nan)), "not symmetric"),
    "hermiticity": (lambda: CorrelationMatrix(np.full((2, 2), np.nan)), "not Hermitian"),
    "occupations": (lambda: gaussian._check_occupations(np.array([0.5, np.nan])), r"outside \[0, 1\]"),
    "sic_range": (lambda: observables.SicProfile("center", [0, 5], [0.0, np.nan], "open"), r"\[0, 2\] bits"),
}


@pytest.mark.parametrize("check", sorted(NAN_CHECKS))
def test_tolerance_checks_reject_nan(check):
    call, message = NAN_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call()


class TestEvolve:
    def test_time_zero_identity(self):
        setup = neel_setup(6)
        c0 = initial_correlation(setup)
        c = QuenchEvolution(c0, build_hamiltonian(setup.spec)).correlation_at(0.0)
        assert np.allclose(c.matrix, c0.matrix, atol=1e-12)

    def test_diagonal_hamiltonian_freezes_occupations(self):
        c0 = CorrelationMatrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        h = np.diag([0.3, -1.2, 0.7, 2.0])
        for t in (0.5, 3.0, 100.0):
            c = QuenchEvolution(c0, h).correlation_at(t)
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
            QuenchEvolution(c0, np.zeros((4, 4))).correlation_at(1.0)

    def test_chain_sized_hamiltonian_rejected_with_reference(self):
        # h must cover every mode of C0; setup_hamiltonian adds the reference mode
        setup = neel_setup(6, reference=3)
        with pytest.raises(ValueError, match="does not match 7 modes"):
            QuenchEvolution(initial_correlation(setup), build_hamiltonian(setup.spec))

    @pytest.mark.parametrize("reference", [None, 1, 3, 6])
    def test_setup_hamiltonian_adds_one_zero_last_mode(self, reference):
        setup = neel_setup(6, reference=reference)
        h, chain = setup_hamiltonian(setup), build_hamiltonian(setup.spec)
        if reference is None:
            assert np.array_equal(h, chain)
            return
        assert h.shape == (7, 7)
        assert np.array_equal(h[:6, :6], chain)
        assert not h[6].any() and not h[:, 6].any()

    def test_trace_conserved_to_late_times(self):
        setup = neel_setup(8, lam=1.0, a=0.3)
        ev = quench_evolution(setup)
        n0 = np.trace(initial_correlation(setup).matrix).real
        for t in (1.0, 100.0, 10000.0):
            assert abs(np.trace(ev.correlation_at(t).matrix).real - n0) <= 1e-9

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
            assert bare_entropy(c, [7]) / LN2 == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "matrix, occupation",
        [
            (np.diag([1.5, 0.0, 1.0, 0.0]), "1.5"),
            (np.diag([-0.1, 1.0, 1.0, 0.0]), "-0.1"),
            (np.array([[0.4, 0.8, 0, 0], [0.8, 0.4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]), "-0.4"),  # diagonal in [0, 1]
        ],
    )
    def test_non_physical_occupation_rejected(self, matrix, occupation):
        c0 = CorrelationMatrix(matrix.astype(complex))
        with pytest.raises(ValueError, match=f"occupation {occupation} outside"):
            QuenchEvolution(c0, build_hamiltonian(LatticeSpec(L=4, lam=1.0, a=0.3)))

    def test_block_matches_full_correlation(self):
        ev = quench_evolution(neel_setup(8, lam=0.7, a=0.2))
        sites = [2, 3, 5]
        full = ev.correlation_at(1.7).matrix
        idx = [1, 2, 4]
        assert np.allclose(ev.block_at(1.7, sites), full[np.ix_(idx, idx)], atol=1e-12)


class TestSubsystemEntropy:
    def test_pure_product_block(self):
        c = CorrelationMatrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        assert bare_entropy(c, [1, 2]) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_mode(self):
        c = CorrelationMatrix(np.array([[0.5]], dtype=complex))
        assert bare_entropy(c, [1]) == pytest.approx(LN2)
        assert bare_entropy(c, [1]) / LN2 == pytest.approx(1.0)

    def test_empty_set(self):
        c = CorrelationMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert bare_entropy(c, []) == 0.0

    def test_bad_sites_rejected(self):
        ev = QuenchEvolution(CorrelationMatrix(np.diag([1.0, 0.0]).astype(complex)), np.eye(2))
        for sites in ([0], [3], [1, 1]):
            with pytest.raises(ValueError, match="site labels"):
                ev.block_at(1.0, sites)
            with pytest.raises(ValueError, match="site labels"):
                entropies(ev, [sites], [1.0])

    @pytest.mark.parametrize("sites", [[1.5, 2.9], [2.0], [np.float64(3.0)], [1, 2, 3, 4, 5.5]],
                             ids=["fractions", "float", "numpy-float", "fraction-large"])
    def test_non_integer_labels_rejected_not_truncated(self, sites):
        # [1.5, 2.9] once gave the entropy of sites {1, 2}
        ev = quench_evolution(neel_setup(6))
        with pytest.raises(ValueError, match="site labels must be integers"):
            entropies(ev, [sites], [1.0])
        with pytest.raises(ValueError, match="site labels must be integers"):
            ev.block_at(1.0, sites)

    def test_numpy_integer_labels_accepted(self):
        ev = quench_evolution(neel_setup(6))
        subsets = [[1, 2], [2, 3, 4, 5]]
        as_numpy = [np.array(subsets[0]), [np.int32(m) for m in subsets[1]]]
        assert np.array_equal(entropies(ev, as_numpy, [1.0]), entropies(ev, subsets, [1.0]))
        assert np.array_equal(ev.block_at(1.0, np.arange(1, 4)), ev.block_at(1.0, [1, 2, 3]))

    def test_complement_symmetry_for_pure_state(self):
        setup = neel_setup(10, lam=0.9, a=0.4)
        ev = quench_evolution(setup)
        c = ev.correlation_at(3.2)
        for cut in (1, 3, 5, 8):
            left = bare_entropy(c, range(1, cut + 1))
            right = bare_entropy(c, range(cut + 1, 11))
            assert left == pytest.approx(right, abs=1e-8)


class TestMutualInformation:
    def test_requires_reference(self):
        c = initial_correlation(neel_setup(4))
        with pytest.raises(ValueError):
            bare_information(c, [1])

    def test_a_may_not_contain_reference(self):
        c = initial_correlation(neel_setup(6, reference=3))
        with pytest.raises(ValueError):
            bare_information(c, [1, 7])

    def test_bell_pair_inside_or_outside(self):
        c = initial_correlation(neel_setup(6, reference=3))
        assert bare_information(c, [2, 3, 4]) == pytest.approx(2.0, abs=1e-8)
        assert bare_information(c, [1, 5, 6]) == pytest.approx(0.0, abs=1e-8)

    def test_empty_subsystem(self):
        c = initial_correlation(neel_setup(6, reference=3))
        assert bare_information(c, []) == pytest.approx(0.0, abs=1e-10)

    def test_full_chain_recovers_everything(self):
        ev = quench_evolution(neel_setup(6, lam=0.8, a=0.3, reference=3))
        for t in (0.0, 1.5, 20.0):
            c = ev.correlation_at(t)
            assert bare_information(c, range(1, 7)) == pytest.approx(2.0, abs=1e-8)

    def test_monotone_in_nested_subsystems(self):
        ev = quench_evolution(neel_setup(8, lam=1.1, a=0.3, reference=4))
        for t in (0.8, 5.0, 40.0):
            c = ev.correlation_at(t)
            nested = [bare_information(c, range(1, k + 1)) for k in range(9)]
            assert np.all(np.diff(nested) >= -1e-9)
            assert min(nested) >= -1e-9 and max(nested) <= 2 + 1e-9

    def test_one_conversion_to_bits_keeps_every_bit(self):
        # the kernel once divided each side's entropy by ln 2 and reference_information summed the bits;
        # reference_information now divides the table in nats, the same division of the same doubles
        setup, subsets = sic_sides_at_L_100()
        ev = quench_evolution(setup)
        times = observables.sample_times(observables.SamplingProtocol(n_samples=20))
        windows, n = subsets[:21], 21
        e = entropies(ev, subsets, times)
        mi = reference_information(windows, 101, lambda sets: entropies(ev, sets, times))
        assert np.array_equal(mi, (e[:, :n] / LN2 + e[:, n : n + 1] / LN2) - e[:, n + 1 :] / LN2)


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
        got = entropies(ev, subsets, times) / LN2  # in bits
        for k, t in enumerate(times):
            direct = [entropy_of_block(ev.block_at(t, x)) / LN2 for x in subsets]
            assert got[k] == pytest.approx(direct, abs=1e-12)
        # the complement rule would have put S({1..5}) = S({6}) = 0 at t = 0
        assert got[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert got[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_tie_keeps_the_half_chain_block(self):
        ev = quench_evolution(neel_setup(12, lam=1.2, a=0.3))
        half = range(1, 7)
        times = [1.0e4, 1.5e4]
        got = entropies(ev, [half], times)[:, 0]
        assert got.tolist() == [kernel_entropy(ev.block_at(t, half)) for t in times]

    def test_builds_only_the_rows_of_the_chosen_sides(self, monkeypatch):
        ev = quench_evolution(neel_setup(24, reference=12))
        built = record_fill_rows(monkeypatch)
        window = list(range(10, 15))
        # |A| = 0, 5 and L with and without R: the two largest sets flip to {R} and {}
        subsets = [[], window, list(range(1, 25)), [25], window + [25], list(range(1, 26))]
        got = entropies(ev, subsets, [1.0e4, 1.2e4])
        assert built == [window + [25]] * 2
        assert np.array_equal(got[:, 2], got[:, 3])  # one side, {R}
        assert (got[:, 5] == 0.0).all()  # the empty side

    def test_sic_plan_at_L_100_builds_two_groups_of_51_rows(self, monkeypatch):
        setup, subsets = sic_sides_at_L_100()
        ev = quench_evolution(setup)
        built = record_fill_rows(monkeypatch)
        times = [1.0e4, 1.1e4, 1.2e4]
        got = entropies(ev, subsets, times)
        monkeypatch.undo()
        expected, groups = per_time_entropies(ev, subsets, times)
        assert [len(rows) for rows in groups] == [51, 51]  # not one block of all 101 modes
        assert built == [groups[0]] * 3 + [groups[1]] * 3
        assert np.array_equal(got, expected)

    def test_bad_input_rejected(self):
        ev = quench_evolution(neel_setup(6))
        with pytest.raises(ValueError):
            entropies(ev, [[7]], [1.0])

    @pytest.mark.parametrize("times", [1.0e4, [[1.0e4, 1.1e4]], np.ones((2, 3))], ids=["scalar", "row", "table"])
    def test_times_must_be_one_dimensional(self, times, monkeypatch):
        ev = quench_evolution(neel_setup(6))
        built = record_fill_rows(monkeypatch)
        with pytest.raises(ValueError, match="1-D array of sample times"):
            entropies(ev, [[1, 2], [3]], times)
        with pytest.raises(ValueError, match="1-D array of sample times"):
            observables.ee_timeseries(neel_setup(6), times)
        assert built == []  # rejected before any block is built


def _mixed_evolution():
    c0 = CorrelationMatrix(np.diag([0.5, 1.0, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0]).astype(complex))
    return QuenchEvolution(c0, build_hamiltonian(LatticeSpec(L=8, lam=1.0, a=0.3)))


# (evolution, subsets): the empty set, sides that are not contiguous in the
# built rows, subsets replaced by their complements, and the reference mode
CHUNK_CASES = {
    "reference": (
        lambda: quench_evolution(neel_setup(12, reference=6)),
        [[], [3, 4, 5], [2, 5, 9], list(range(1, 12)), [13], [3, 4, 5, 13], list(range(2, 14))],
    ),
    "no_reference": (
        lambda: quench_evolution(neel_setup(10, lam=1.3)),
        [[1, 2], [4, 7, 8], list(range(1, 10)), [], list(range(2, 11))],
    ),
    "mixed": (_mixed_evolution, [[1, 2, 3, 4, 5], [6], [2, 4, 5, 6], [1, 3], [], list(range(1, 9))]),
}


class FakeBlas:
    """Stands in for the OpenBLAS thread control of _blas._blas_thread_control: a
    count that the kernel reads and sets, and every count it set."""

    def __init__(self, threads):
        self.threads, self.history = threads, []

    def set(self, threads):
        self.threads = threads
        self.history.append(threads)

    def control(self):
        return (lambda: self.threads), self.set


def record_fill_threads(monkeypatch, blas_threads):
    """Patch _fill, which builds every block, to record for each call its thread and the BLAS count
    it ran with."""
    seen = []
    fill = QuenchEvolution._fill

    def recording_fill(self, time, v_rows, out, p, w):
        seen.append((threading.get_ident(), blas_threads()))
        return fill(self, time, v_rows, out, p, w)

    monkeypatch.setattr(QuenchEvolution, "_fill", recording_fill)
    return seen


class TestStackedKernel:
    """entropies takes the times in chunks of one [chunk, rows, rows] stack per row group; every value
    must be the one its own time gives, whatever the chunk count, the place of the time in its chunk
    and the thread that takes the chunk."""

    @staticmethod
    def check_chunks(case, monkeypatch):
        build, subsets = CHUNK_CASES[case]
        ev = build()
        assert ev.pure == (case != "mixed")
        times = np.random.default_rng(5).uniform(1e4, 2e4, 12)
        _, groups = per_time_entropies(ev, subsets, times[:1])
        assert len(groups) == (1 if case == "mixed" else 2)  # a 1-row group of {R} or {1} beside the rest
        rows = max(groups, key=len)  # the largest group takes 3 times per chunk
        copy = largest_copy(ev, subsets, rows)
        with monkeypatch.context() as patch:
            patch.setattr(gaussian, "_CHUNK_ENTRIES", 3 * (len(rows) ** 2 + copy**2))
            k = chunk_times(len(rows), copy)
            assert k == 3
            for threads in (1, 2):
                # a stand-in count: the real one stays as it is, so both sides do the same arithmetic
                blas = FakeBlas(threads)
                patch.setattr(_blas, "_blas_thread_control", blas.control)
                for count in (0, 1, k - 1, k, k + 1, 2 * k + 3):
                    expected, _ = per_time_entropies(ev, subsets, times[:count])
                    blas.history.clear()  # the reference's blocks and eigvalsh set counts of their own
                    got = entropies(ev, subsets, times[:count])
                    assert got.shape == (count, len(subsets))
                    assert np.array_equal(got, expected), f"{count} times, {threads} threads"
                    assert blas.threads == threads
                    # capped at one thread and restored around every call, whatever its plan: the numpy
                    # path's stacked eigvalsh caps again inside, at the count 1 it finds
                    assert blas.history[0] == 1 and set(blas.history[:-1]) == {1} and blas.history[-1] == threads

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_equals_per_time_blocks_exactly(self, case, monkeypatch):
        self.check_chunks(case, monkeypatch)

    @pytest.mark.parametrize("symbol", KERNEL_SYMBOLS)
    def test_numpy_path_equals_per_time_blocks_exactly(self, symbol, monkeypatch, hide_openblas):
        hide_openblas([symbol])
        assert _blas._kernel_routines() is None
        for case in sorted(CHUNK_CASES):
            self.check_chunks(case, monkeypatch)

    def test_chunk_rule_stays_within_the_budget(self):
        # a time takes one block of the group's rows and one copy of its largest other side: both count
        budget = gaussian._CHUNK_ENTRIES
        assert budget == 40960  # 640 KiB of complex128 per thread
        assert chunk_times(51, 50) == 8  # each sic_profile row group at L = 100
        assert chunk_times(100, 0) == 4  # the half chain at L = 200 copies nothing
        assert chunk_times(116, 111) == chunk_times(114, 109) == 1  # the groups at L = 233
        assert chunk_times(0, 0) >= 1
        assert chunk_times(100, 0, n_times=3) == 3 and chunk_times(100, 0, n_times=0) == 1  # capped by the times
        for rows in range(1, 600):
            for copy in {0, rows // 2, rows - 1}:
                k, entries = chunk_times(rows, copy), rows * rows + copy * copy
                assert k * entries <= budget < (k + 1) * entries or (k == 1 and entries > budget), (rows, copy)

    @pytest.mark.parametrize("plan", ["sic_L_100", "half_chain_L_200"])
    def test_peak_memory_stays_within_the_chunk_budget(self, plan, monkeypatch):
        # tracemalloc sees numpy's buffers. Per row group, one thread keeps the stack of its blocks and one
        # copy of its largest other side (none where the side is the whole block), which the chunk rule
        # counts, besides its block-build buffers and the spectra: no [count, m, m] array of a side. The
        # build buffers live through the group, so they meet numpy's iterator buffer of the broadcast
        # product e^{iEt} F at every time
        needs_kernel_routines()
        if plan == "sic_L_100":
            setup, subsets = sic_sides_at_L_100()
        else:
            setup, subsets = neel_setup(200), [range(1, 101)]
        ev = quench_evolution(setup)
        times = np.random.default_rng(31).uniform(1e4, 2e4, 30)
        monkeypatch.setattr(_blas, "_blas_thread_control", FakeBlas(1).control)  # one thread, one group at a time
        _, groups = per_time_entropies(ev, subsets, times[:1])
        budget, orbitals = gaussian._CHUNK_ENTRIES, ev._factor.shape[1]
        limit = 0
        for rows in groups:
            m, copy = len(rows), largest_copy(ev, subsets, rows)
            k = max(budget // (m * m + copy * copy), 1)
            columns = sum(len(side) for side in set(chosen_sides(ev, subsets)) if set(side) <= set(rows))
            chunk = 16 * min(k, times.size) * (m * m + copy * copy)
            build = 8 * m * ev.dim + 16 * (ev.dim + m) * orbitals  # the rows of the modes, e^{iEt} F and W
            build += 16 * np.getbufsize()  # numpy's buffer for the product e^{iEt} F, of complex128
            spectra = 64 * min(k, times.size) * columns  # d, e and the entropy terms: 8 doubles a column
            limit = max(limit, chunk + build + spectra + 128 * 1024)  # and the plan and the LAPACK arguments
        entropies(ev, subsets, times[:2])  # first-use allocations outside the measurement
        tracemalloc.start()
        try:
            table = entropies(ev, subsets, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes <= limit, (peak - table.nbytes, limit)

    def test_no_subsets(self):
        ev = quench_evolution(neel_setup(6))
        assert entropies(ev, [], [1.0, 2.0]).shape == (2, 0)


class TestChunkThreads:
    """A serial run deals every row group's chunks of sample times to its BLAS threads, at most one
    thread per chunk; BLAS runs one thread in every plan."""

    L = 200  # the half chain of the saturation measurement: m = 100, 4 times per chunk

    def half_chain(self):
        return quench_evolution(neel_setup(self.L)), [range(1, self.L // 2 + 1)]

    def test_threads_give_the_values_of_one_blas_thread_exactly(self, monkeypatch, blas_count):
        ev, half = self.half_chain()
        times = np.random.default_rng(11).uniform(1e4, 2e4, 20)  # 5 chunks of 4 times
        seen = record_fill_threads(monkeypatch, _blas._blas_threads)
        blas_count(1)  # as in a pool worker: one thread
        serial = entropies(ev, half, times)
        serial_seen = list(seen)
        blas_count(2)
        seen.clear()
        threaded = entropies(ev, half, times)
        assert _blas._blas_threads() == 2
        assert len({ident for ident, _ in serial_seen}) == 1
        assert len({ident for ident, _ in seen}) == 2
        assert {blas for _, blas in serial_seen + seen} == {1}
        assert len(seen) == times.size
        assert (threaded == serial).all()

    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_blas_count_restored_after_an_exception(self, raiser, monkeypatch):
        ev, half = self.half_chain()
        times = np.linspace(1e4, 2e4, 30)
        blas = FakeBlas(2)
        monkeypatch.setattr(_blas, "_blas_thread_control", blas.control)
        caller = threading.get_ident()
        fill = QuenchEvolution._fill

        def failing_fill(self, time, v_rows, out, p, w):
            if (threading.get_ident() == caller) == (raiser == "caller"):
                raise RuntimeError(f"synthetic failure in the {raiser}")
            return fill(self, time, v_rows, out, p, w)

        monkeypatch.setattr(QuenchEvolution, "_fill", failing_fill)
        alive = threading.active_count()
        with pytest.raises(RuntimeError, match=f"in the {raiser}"):
            entropies(ev, half, times)
        assert blas.history == [1, 2] and blas.threads == 2
        assert threading.active_count() == alive  # every helper has ended

    def test_sic_plan_spreads_and_equals_one_thread_exactly(self, monkeypatch, blas_count):
        setup, subsets = sic_sides_at_L_100()
        ev = quench_evolution(setup)
        times = np.random.default_rng(13).uniform(1e4, 2e4, 40)  # per group, 5 chunks of 8 times
        seen = record_fill_threads(monkeypatch, _blas._blas_threads)
        blas_count(1)
        serial = entropies(ev, subsets, times)
        serial_seen = list(seen)
        blas_count(2)
        seen.clear()
        threaded = entropies(ev, subsets, times)
        assert _blas._blas_threads() == 2
        assert len({ident for ident, _ in serial_seen}) == 1
        assert len({ident for ident, _ in seen}) == 2
        assert {blas for _, blas in serial_seen + seen} == {1}
        assert len(seen) == 2 * times.size  # one block per time in each of the two row groups
        assert (threaded == serial).all()

    def test_L_233_plan_spreads_and_equals_one_thread_exactly(self, monkeypatch, blas_count):
        # the sic_profile plan at L = 233: row groups of 116 and 114 rows at 1 time per chunk, as a block and
        # the copy of the largest other side overrun the budget; 30 times give each group 30 chunks
        sizes = sorted(set(range(0, 234, 5)) | {233})
        setup, subsets = sic_sides_at(233, sizes)
        protocol = observables.SamplingProtocol(n_samples=30)
        with monkeypatch.context() as patch:
            blas = FakeBlas(2)
            patch.setattr(_blas, "_blas_thread_control", blas.control)
            seen = record_fill_threads(patch, lambda: blas.threads)
            profile = observables.sic_profile(setup, sizes, "center", protocol)
        assert profile.mi.shape == (48,)
        assert len(seen) == 60 and len({ident for ident, _ in seen}) == 2
        assert {threads for _, threads in seen} == {1}
        # capped and restored around each of the evolution's two eigh calls, its rotation of C0 and entropies
        assert blas.history == [1, 2] * 4 and blas.threads == 2
        ev, times = quench_evolution(setup), observables.sample_times(protocol)
        blas_count(1)
        serial = entropies(ev, subsets, times)
        blas_count(2)
        threaded = entropies(ev, subsets, times)
        assert (threaded == serial).all()

    def test_missing_blas_symbol_runs_serially(self, monkeypatch, hide_openblas):
        hide_openblas(("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_") + KERNEL_SYMBOLS)
        assert _blas._blas_threads() is None and _blas._kernel_routines() is None
        with _blas._one_blas_thread() as threads:
            assert threads == 1
        ev, half = self.half_chain()
        times = np.random.default_rng(11).uniform(1e4, 2e4, 20)
        seen = record_fill_threads(monkeypatch, lambda: None)
        got = entropies(ev, half, times)
        assert len(seen) == times.size and len({ident for ident, _ in seen}) == 1
        expected, _ = per_time_entropies(ev, half, times)
        assert np.array_equal(got, expected)


def sic_sides_at(L, sizes):
    """The sic_profile plan at L with center coupling: A, R and A + R for each |A| in sizes."""
    setup = QuenchSetup(LatticeSpec(L=L, lam=1.0, a=0.3), "neel",
                        reference_site=observables.reference_site_for(L, "center"))
    windows = [observables.subsystem_window(L, "center", size) for size in sizes]
    return setup, windows + [[L + 1]] + [window + [L + 1] for window in windows]


def sic_sides_at_L_100():
    """The sic_profile plan at L = 100 with center coupling: A, R and A + R for every fifth |A|."""
    return sic_sides_at(100, range(0, 101, 5))


# (setup, subsets) of the plans whose unrounded tables must not depend on the BLAS count
BLAS_COUNT_PLANS = {
    "half_chain_L_240": lambda: (neel_setup(240), [range(1, 121)]),
    "sic_sides_L_100": sic_sides_at_L_100,
}


class TestOneBlasThread:
    """Every Gaussian computation runs at one OpenBLAS thread, so the process's count changes no bit."""

    @pytest.mark.parametrize("plan", sorted(BLAS_COUNT_PLANS))
    def test_tables_equal_at_blas_counts_1_and_2(self, plan, blas_count):
        setup, subsets = BLAS_COUNT_PLANS[plan]()
        times = np.random.default_rng(3).uniform(1e4, 2e4, 30)
        tables = []
        for threads in (1, 2):
            blas_count(threads)
            tables.append(entropies(quench_evolution(setup), subsets, times))
            assert _blas._blas_threads() == threads
        assert (tables[0] == tables[1]).all()

    def test_blocks_and_block_entropy_equal_at_blas_counts_1_and_2(self, blas_count):
        # at L = 400 the block builds of correlation_at and block_at, and the eigvalsh of entropy_of_block on
        # one fixed half-chain block, gave other bits at two OpenBLAS threads than at one
        setup, half, time = neel_setup(400), range(1, 201), 1.5e4
        fixed = quench_evolution(setup).block_at(time, half)
        runs = []
        for threads in (1, 2):
            blas_count(threads)
            ev = quench_evolution(setup)
            runs.append((ev.correlation_at(time).matrix, ev.block_at(time, half), entropy_of_block(fixed)))
            assert _blas._blas_threads() == threads
        for name, one, two in zip(("correlation_at", "block_at", "entropy_of_block"), *runs):
            assert np.array_equal(one, two), name

    def test_evolution_is_built_at_one_blas_thread(self, monkeypatch):
        blas = FakeBlas(2)
        monkeypatch.setattr(_blas, "_blas_thread_control", blas.control)
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            seen.append(blas.threads)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        quench_evolution(neel_setup(12))
        # diagonalize's eigh of H, the rotation of C0 into its eigenbasis, then diagonalize's eigh of the
        # rotated C0: each capped and restored
        assert seen == [1, 1] and blas.history == [1, 2] * 3

    def test_count_restored_after_a_failed_build(self, monkeypatch):
        blas = FakeBlas(2)
        monkeypatch.setattr(_blas, "_blas_thread_control", blas.control)
        c0 = CorrelationMatrix(np.diag([1.5, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="outside"):
            QuenchEvolution(c0, np.zeros((2, 2)))
        assert blas.history == [1, 2] * 3 and blas.threads == 2

    def test_symbols_looked_up_once_per_process(self, monkeypatch):
        control = _blas._blas_thread_control()

        def forbidden(*args, **kwargs):
            raise AssertionError("opened the library again")

        monkeypatch.setattr(ctypes, "CDLL", forbidden)
        assert _blas._blas_thread_control() is control
        ev, half = quench_evolution(neel_setup(12)), [range(1, 7)]
        assert entropies(ev, half, [1.0e4]).shape == (1, 1)


class TestBlockEntropies:
    def test_stack_equals_each_block_exactly(self):
        ev = quench_evolution(neel_setup(12, reference=6))
        rows = [2, 3, 5, 8, 13]
        stack = np.array([ev.block_at(t, rows) for t in (1.0e4, 1.3e4, 1.7e4)]).reshape(3, 1, 5, 5)
        got = block_entropies(stack)
        assert got.shape == (3, 1)
        assert got[:, 0].tolist() == [entropy_of_block(b[0]) for b in stack]
        assert got[0, 0] == binary_entropy(np.linalg.eigvalsh(stack[0, 0]))

    def test_empty_blocks_give_zero(self):
        assert block_entropies(np.zeros((4, 0, 0), dtype=complex)).tolist() == [0.0] * 4
        assert entropy_of_block(np.zeros((0, 0))) == 0.0

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            entropy_of_block(np.eye(2)[None] * 0.5)


class TestPaperScaleInvariants:
    """The kernel where the measurements run: L = 200-240 and t in [1e4, 2e4]."""

    TIMES = (1.0e4, 1.37e4, 2.0e4)

    @pytest.mark.parametrize("L", [200, 240])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_block_matches_dense_propagator(self, L, mixed):
        spec = LatticeSpec(L=L, lam=1.0, a=0.3)
        h = build_hamiltonian(spec)
        occ = occupation_pattern(QuenchSetup(spec, "neel")).astype(float)
        if mixed:
            occ[::7] = 0.5  # half-filled sites without a partner: C0 is no projector
        c0 = np.diag(occ).astype(complex)
        ev = QuenchEvolution(CorrelationMatrix(c0), h)
        assert ev.pure is not mixed
        energies, modes = np.linalg.eigh(h)
        sites = np.sort(np.random.default_rng(L).choice(np.arange(1, L + 1), L // 2, replace=False))
        idx = np.ix_(sites - 1, sites - 1)
        for t in self.TIMES:
            u = (modes * np.exp(1j * energies * t)) @ modes.T  # e^{iht}
            dense = u @ c0 @ u.conj().T
            assert np.max(np.abs(ev.block_at(t, sites) - dense[idx])) <= 1e-12

    @pytest.mark.parametrize("L", [200, 240])
    def test_projector_and_particle_number(self, L):
        ev = quench_evolution(neel_setup(L, lam=1.0, a=0.3))
        for t in self.TIMES:
            c = ev.correlation_at(t).matrix
            assert np.max(np.abs(c @ c - c)) <= 1e-10
            assert abs(np.trace(c).real - L // 2) <= 1e-10

    @pytest.mark.parametrize("L", [200, 240])
    def test_evolution_composes(self, L):
        setup = neel_setup(L, lam=1.3, a=0.3)
        ev = quench_evolution(setup)
        t1, t2 = 1.2e4, 0.7e4
        later = QuenchEvolution(ev.correlation_at(t1), build_hamiltonian(setup.spec)).correlation_at(t2)
        assert np.max(np.abs(later.matrix - ev.correlation_at(t1 + t2).matrix)) <= 1e-10

    def test_reference_information_bounded_and_monotone(self):
        L = 100
        ev = quench_evolution(neel_setup(L, lam=1.0, a=0.3, reference=L // 2))
        nested = [range(1, k + 1) for k in range(L + 1)]
        mi = reference_information(nested, L + 1, lambda sets: entropies(ev, sets, self.TIMES))
        assert mi.min() >= -1e-9 and mi.max() <= 2 + 1e-9
        assert np.all(np.diff(mi, axis=1) >= -1e-9)
        assert mi[:, 0] == pytest.approx(0.0, abs=1e-9)
        assert mi[:, -1] == pytest.approx(2.0, abs=1e-9)


def parent_block(c0, h, time, sites, cut=1e-12):
    """C(t)[sites, sites] by the formula the kernel had before the occupations were folded into one
    factor: (w * n) @ w^dag with w = V_rows e^{iEt} Q over the orbitals Q with |n| > cut (the kernel's 1e-12)."""
    energies, modes = diagonalize(h)
    n, q = np.linalg.eigh(modes.T @ c0 @ modes)
    kept = np.abs(n) > cut
    v = modes[np.asarray(sorted(sites), dtype=int) - 1]
    phase = energies * time
    w = (v * np.cos(phase)) @ q[:, kept] + 1j * ((v * np.sin(phase)) @ q[:, kept])
    return (w * n[kept]) @ w.conj().T


class TestFill:
    """block_at and correlation_at fill C(t) from one real GEMM with the folded factor F = Q diag(sqrt(n))
    and one Hermitian rank-k update, and mirror the lower triangle: exactly Hermitian, and the parent's
    matrix to round-off."""

    TIMES = (1.0e4, 1.37e4, 2.0e4)

    @pytest.mark.parametrize("L", [200, 233])
    def test_paper_scale_blocks_equal_the_parent_formula(self, L):
        if L == 200:  # the half chain of the saturation measurement
            setup, sites = neel_setup(L), list(range(1, L // 2 + 1))
        else:  # the largest reference side of the sic_profile plan at L = 233
            setup, subsets = sic_sides_at(L, [116])
            sites = subsets[-1]
        c0, h = initial_correlation(setup).matrix, setup_hamiltonian(setup)
        ev = quench_evolution(setup)
        for t in self.TIMES:
            block = ev.block_at(t, sites)
            assert np.array_equal(block, block.conj().T)
            assert np.abs(block - parent_block(c0, h, t, sites)).max() <= 1e-13
        full = ev.correlation_at(self.TIMES[0]).matrix
        assert np.array_equal(full, full.conj().T)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_small_setups_equal_the_parent_formula(self, data):
        L = data.draw(st.integers(2, 14), label="L")
        reference = data.draw(st.none() | st.integers(1, L), label="reference")
        if reference is None:
            L += L % 2  # half filling without a reference needs an even L
        spec = LatticeSpec(L=L, lam=data.draw(st.floats(0.0, 2.5), label="lam"),
                           a=data.draw(st.floats(-0.6, 0.6), label="a"))
        setup = QuenchSetup(spec, "neel", reference_site=reference)
        initial = initial_correlation(setup)
        c0 = initial.matrix.copy()
        mixed = data.draw(st.lists(st.integers(0, L - 1), max_size=3), label="mixed sites")
        for site in mixed:  # a partial occupation without a partner: C0 is no projector
            if reference is None or site != reference - 1:
                c0[site, site] = data.draw(st.floats(0.0, 1.0), label="occupation")
        h = setup_hamiltonian(setup)
        ev = QuenchEvolution(CorrelationMatrix(c0, initial.reference_index), h)
        sites = data.draw(st.lists(st.integers(1, ev.dim), min_size=1, unique=True), label="sites")
        t = data.draw(st.floats(0.0, 2e4), label="t")
        block = ev.block_at(t, sites)
        assert np.array_equal(block, block.conj().T)
        # a drawn occupation at the 1e-12 cut may fall just under it in the kernel's eigh (of the real
        # part of C0) and just over it in this complex one, or the other way round: within eigh's
        # round-off (1e-14) of the cut, the block with or without that orbital passes
        gaps = [np.abs(block - parent_block(c0, h, t, sites, cut)).max() for cut in (1e-12 - 1e-14, 1e-12 + 1e-14)]
        assert min(gaps) <= 1e-13

    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    def test_fill_allocates_no_buffer_sized_array(self, path, hide_openblas):
        # the caller's p [dim, k] and w [m, k] take e^{iEt} F and W (the numpy path puts W^* in p): a call
        # allocates only its [dim] phases and numpy's iterator buffer of the broadcast product e^{iEt} F,
        # below the smaller buffer, w, of 160 KB at the half chain of L = 200
        if path == "numpy":
            hide_openblas(KERNEL_SYMBOLS[:1])
        else:
            needs_kernel_routines()
        ev = quench_evolution(neel_setup(200))
        v_rows, (dim, k) = ev.modes[:100], ev._factor.shape
        out, p = np.empty((100, 100), dtype=complex), np.empty((dim, k), dtype=complex)
        w = np.empty((100, k), dtype=complex)
        with _blas._one_blas_thread():
            ev._fill(self.TIMES[0], v_rows, out, p, w)  # first-use allocations outside the measurement
            tracemalloc.start()
            try:
                ev._fill(self.TIMES[1], v_rows, out, p, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 16 * np.getbufsize() + 4 * 16 * dim < w.nbytes, (peak, w.nbytes)
        assert np.array_equal(gaussian._mirror_lower(out), ev.block_at(self.TIMES[1], range(1, 101)))

    def test_fill_rejects_a_wrong_buffer(self):
        ev = quench_evolution(neel_setup(8))
        v_rows, (dim, k) = ev.modes[:4], ev._factor.shape
        out, p = np.empty((4, 4), dtype=complex), np.empty((dim, k), dtype=complex)
        for w in (np.empty((4, k + 1), dtype=complex), np.empty((k, 4), dtype=complex).T, np.empty((4, k))):
            with pytest.raises(ValueError, match="_fill needs a C-contiguous complex"):
                ev._fill(1.0, v_rows, out, p, w)

    def test_round_off_negative_occupation_is_dropped(self):
        setup = neel_setup(12)
        c0 = initial_correlation(setup).matrix
        c0[1, 1] = -5e-11  # inside the 1e-10 tolerance of _check_occupations
        h = setup_hamiltonian(setup)
        ev = QuenchEvolution(CorrelationMatrix(c0), h)
        sites = list(range(1, 7))
        for t in (0.0, 2.5, *self.TIMES):
            block = ev.block_at(t, sites)
            assert np.isfinite(block).all()  # no NaN from the square root of a negative occupation
            assert np.abs(block - parent_block(c0, h, t, sites)).max() <= 1e-10
            assert np.isfinite(ev.correlation_at(t).matrix).all()
        assert np.isfinite(entropies(ev, [sites, [1, 2]], self.TIMES)).all()


def plan_sides(ev, subsets):
    """The distinct sides of an `entropies` plan (0-based modes, after the complement rule) and their columns."""
    sides = {}
    for column, subset in enumerate(subsets):
        side = sorted(s - 1 for s in set(subset))
        if ev.pure and 2 * len(side) > ev.dim:
            side = sorted(set(range(ev.dim)) - set(side))
        sides.setdefault(tuple(side), []).append(column)
    return sides


def needs_kernel_routines():
    if _blas._kernel_routines() is None:
        pytest.skip("numpy's OpenBLAS exports no zherk, zhetrd and dsterf")


class TestPairedSides:
    """A side Y whose Y[:-1] is also a side is paired with it, and the spectra of both come from one
    tridiagonal reduction of Y's block."""

    @pytest.mark.parametrize("L, pairs", [(100, 18), (233, 46)])
    def test_sic_plan_pairs_each_window_with_its_reference_side(self, L, pairs):
        setup, subsets = sic_sides_at(L, sorted(set(range(0, L + 1, 5)) | {L}))
        sides = plan_sides(quench_evolution(setup), subsets)
        leads = gaussian._pair_leads(sides)
        assert len(leads) == pairs
        assert all(lead == side[:-1] for side, lead in leads.items())
        paired = set(leads) | set(leads.values())
        assert len(paired) == 2 * pairs  # each side in at most one pair
        if L == 100:
            window = tuple(site - 1 for site in observables.subsystem_window(100, "center", 50))
            rest = tuple(sorted(set(range(100)) - set(window)))
            assert set(sides) - paired == {(), (100,), window, rest}

    def test_chained_sides_pair_largest_first(self):
        sides = {(0, 1, 2, 3): [0], (0, 1, 2): [1], (0, 1): [2], (0,): [3], (5, 6): [4], (5, 7): [5], (5,): [6]}
        # (0, 1, 2, 3) takes (0, 1, 2); (0, 1) then takes (0,); (5, 6) takes (5,) before (5, 7) can
        assert gaussian._pair_leads(sides) == {(0, 1, 2, 3): (0, 1, 2), (0, 1): (0,), (5, 6): (5,)}
        assert gaussian._pair_leads({(3,): [0], (): [1]}) == {}  # an empty lead is left alone

    def test_pair_routine_matches_eigvalsh_of_both_blocks(self):
        needs_kernel_routines()
        rng = np.random.default_rng(17)
        blocks = []
        for L in (100, 233):
            setup, subsets = sic_sides_at(L, sorted(set(range(0, L + 1, 5)) | {L}))
            ev = quench_evolution(setup)
            carriers = gaussian._pair_leads(plan_sides(ev, subsets))
            for t in [0.0, *rng.uniform(1e4, 2e4, 2)]:  # at t = 0 the blocks are diagonal but for the Bell pair
                blocks += [ev.block_at(t, np.array(carrier) + 1) for carrier in carriers]
        for size in range(2, 65):
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            blocks.append(x + x.conj().T)
        for block in blocks:
            nu, lead = side_spectra(block, lead=True)
            assert np.abs(nu - np.linalg.eigvalsh(block)).max() <= 1e-12
            assert np.abs(lead - np.linalg.eigvalsh(block[:-1, :-1])).max() <= 1e-12

    @pytest.mark.parametrize("plan", ["half_chain_L_200", "sic_L_100", "sic_L_233", "every_size_L_24"])
    def test_lone_side_routine_matches_eigvalsh(self, plan):
        # the routine of a side in no pair, applied to every side of the plan, against numpy
        needs_kernel_routines()
        if plan == "half_chain_L_200":
            setup, subsets = neel_setup(200), [range(1, 101)]
        else:
            L = int(plan.rsplit("_", 1)[1])
            sizes = range(L + 1) if plan.startswith("every") else sorted(set(range(0, L + 1, 5)) | {L})
            setup, subsets = sic_sides_at(L, sizes)
        ev = quench_evolution(setup)
        sides = [side for side in plan_sides(ev, subsets) if side]
        for t in np.random.default_rng(29).uniform(1e4, 2e4, 2):
            for side in sides:
                block = ev.block_at(t, np.array(side) + 1)
                nu, lead = side_spectra(block)
                assert lead is None
                assert np.abs(nu - np.linalg.eigvalsh(block)).max() <= 1e-12, side

    def test_chained_sic_plan_equals_the_reference_exactly(self, hide_openblas):
        # every size at L = 24: windows Y, Y[:-1] and Y[:-2] are all sides, so a column given to the
        # wrong side of a pair would show (a first version gave I = -19.5 bits here)
        needs_kernel_routines()
        setup, subsets = sic_sides_at(24, range(25))
        ev = quench_evolution(setup)
        sides = plan_sides(ev, subsets)
        assert any(len(side) > 2 and side[:-1] in sides and side[:-2] in sides for side in sides)
        times = np.random.default_rng(19).uniform(1e4, 2e4, 20)
        got = entropies(ev, subsets, times)
        expected, _ = per_time_entropies(ev, subsets, times)
        assert np.array_equal(got, expected)
        protocol = observables.SamplingProtocol(n_samples=20)
        profile = observables.sic_profile(setup, range(25), "center", protocol)  # checks I in [0, 2] bits
        hide_openblas(KERNEL_SYMBOLS[1:2])  # no zhetrd: the numpy path, which pairs nothing
        assert np.abs(got - entropies(ev, subsets, times)).max() / LN2 <= 1e-12  # in bits
        unpaired = observables.sic_profile(setup, range(25), "center", protocol)
        assert np.abs(profile.mi - unpaired.mi).max() <= 1e-12

    def test_hidden_symbols_give_the_unpaired_kernel(self, monkeypatch, hide_openblas):
        setup, subsets = sic_sides_at_L_100()
        ev = quench_evolution(setup)
        times = np.random.default_rng(23).uniform(1e4, 2e4, 20)
        paired = entropies(ev, subsets, times)

        def forbidden(*args):
            raise AssertionError("ran the LAPACK spectra without the kernel routines")

        monkeypatch.setattr(gaussian, "_SideSpectra", forbidden)
        for symbol in KERNEL_SYMBOLS:  # any one of the three missing gives the numpy path
            hide_openblas([symbol])
            assert _blas._kernel_routines() is None
            got = entropies(ev, subsets, times)
            expected, groups = per_time_entropies(ev, subsets, times)  # pairs nothing either
            assert [len(rows) for rows in groups] == [51, 51]
            assert np.array_equal(got, expected), symbol
            assert np.abs(got - paired).max() / LN2 <= 1e-12  # in bits

    @pytest.mark.parametrize("routine, info", [(1, 9), (2, 3)], ids=["zhetrd", "dsterf"])
    def test_lapack_failure_at_a_later_time_of_a_chunk_raises(self, routine, info, monkeypatch):
        # each call of a chunk writes an INFO of its own: a failure at its 3rd time is not overwritten by the
        # 4th and 5th, and a failed reduction is caught before any dsterf runs
        needs_kernel_routines()
        routines, calls = list(_blas._kernel_routines()), {1: 0, 2: 0}

        def failing(which):
            real = routines[which]

            def call(*args):
                real(*args)
                if which == 1 and ctypes.c_int64.from_address(args[8]).value == -1:
                    return  # zhetrd's workspace query
                calls[which] += 1
                if which == routine and calls[which] == 3:
                    ctypes.c_int64.from_address(args[info]).value = 1

            return call

        wrapped = (routines[0], failing(1), failing(2))
        monkeypatch.setattr(_blas, "_kernel_routines", lambda: wrapped)
        ev, blas = quench_evolution(neel_setup(12)), FakeBlas(2)
        monkeypatch.setattr(_blas, "_blas_thread_control", blas.control)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            entropies(ev, [range(1, 7)], np.linspace(1e4, 2e4, 5))  # one side, one chunk of 5 times
        assert calls == ({1: 5, 2: 0} if routine == 1 else {1: 5, 2: 5})
        assert blas.history == [1, 2] and blas.threads == 2

    @pytest.mark.parametrize("subsets", [[[3, 4, 5], [3, 4, 5, 13]], [[6], [6, 13]], [[2, 3, 4, 5]], [[13]]],
                             ids=["four-modes", "two-modes", "lone-four-modes", "lone-one-mode"])
    def test_infinite_time_raises(self, subsets):
        # a plan of one pair, or of one lone side, and no other side: the block at t = inf is NaN
        ev = quench_evolution(neel_setup(12, reference=6))
        pairs = len(subsets) - 1
        assert len(gaussian._pair_leads(plan_sides(ev, subsets))) == pairs
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            entropies(ev, subsets, [1.0e4, np.inf])
        if _blas._kernel_routines() is not None:
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                side_spectra(np.full((len(subsets[-1]),) * 2, np.nan, dtype=complex), lead=pairs == 1)
