import numpy as np
import pytest

from gaaquench import _blas
from gaaquench.model import LatticeSpec, build_hamiltonian
from gaaquench.spectral import (
    EXTENDED,
    LOCALIZED,
    UNDEFINED,
    SpectrumData,
    analyze,
    classify,
    diagonalize,
    ipr_values,
    mobility_edge,
    phase_region,
)


class TestDiagonalize:
    def test_dimer(self):
        energies, vecs = diagonalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert energies == pytest.approx([-1.0, 1.0])
        s = 1 / np.sqrt(2)
        for col, expected in zip(vecs.T, ([s, s], [s, -s])):
            assert np.allclose(col, expected) or np.allclose(col, -np.asarray(expected))

    def test_diagonal_matrix(self):
        d = np.diag([3.0, -1.0, 2.0])
        energies, vecs = diagonalize(d)
        assert energies == pytest.approx([-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_residual_on_large_chain(self):
        h = build_hamiltonian(LatticeSpec(L=200, lam=1.0, a=0.3))
        energies, vecs = diagonalize(h)
        residual = np.max(np.linalg.norm(h @ vecs - vecs * energies, axis=0))
        assert residual <= 1e-8 * np.linalg.norm(h)
        assert np.all(np.diff(energies) >= 0)

    def test_orthonormality(self):
        _, vecs = diagonalize(build_hamiltonian(LatticeSpec(L=150, lam=0.8, a=0.5)))
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(150))) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            diagonalize(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_values_do_not_depend_on_the_blas_thread_count(self, blas_count):
        # at L = 1000 the eigh of two OpenBLAS threads gave other energies (lambda = 0.5) and IPRs (all three)
        # than that of one; diagonalize runs at one thread, so `spectrum` and `fractions` match across workers
        for lam in (0.5, 1.0, 1.3):
            spec = LatticeSpec(L=1000, lam=lam, a=0.3)
            runs = []
            for threads in (1, 2):
                blas_count(threads)
                runs.append(analyze(spec))
                assert _blas._blas_threads() == threads
            assert np.array_equal(runs[0].energies, runs[1].energies), lam
            assert np.array_equal(runs[0].ipr, runs[1].ipr), lam


class TestIpr:
    def test_uniform_state(self):
        L = 64
        assert ipr_values(np.full((L, 1), 1 / np.sqrt(L)))[0] == pytest.approx(1 / L)

    def test_delta_peak(self):
        psi = np.zeros((10, 1))
        psi[3] = 1.0
        assert ipr_values(psi)[0] == pytest.approx(1.0)

    def test_two_site_state(self):
        psi = np.zeros((8, 1))
        psi[2] = psi[5] = 1 / np.sqrt(2)
        assert ipr_values(psi)[0] == pytest.approx(0.5)

    def test_normalization_independent(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(20, 1))
        assert ipr_values(3.7 * psi)[0] == pytest.approx(ipr_values(psi)[0])

    def test_bounds_on_real_spectrum(self):
        data = analyze(LatticeSpec(L=100, lam=1.0, a=0.3))
        assert np.all(data.ipr >= 1 / 100 - 1e-12)
        assert np.all(data.ipr <= 1.0 + 1e-12)


class TestMobilityEdge:
    def test_direct_evaluation(self):
        assert mobility_edge(LatticeSpec(L=10, lam=0.5, a=0.3)) == pytest.approx(10 / 3)

    def test_zero_at_equal_strengths(self):
        assert mobility_edge(LatticeSpec(L=10, lam=1.0, a=0.3)) == pytest.approx(0.0)

    def test_negative_edge(self):
        assert mobility_edge(LatticeSpec(L=10, lam=1.3, a=0.3)) == pytest.approx(-2.0)

    def test_none_without_deformation(self):
        assert mobility_edge(LatticeSpec(L=10, lam=0.5, a=0.0)) is None

    def test_none_without_potential(self):
        assert mobility_edge(LatticeSpec(L=10, lam=0.0, a=0.3)) is None

    def test_sign_flip_with_lambda(self):
        plus = mobility_edge(LatticeSpec(L=10, lam=0.5, a=0.3))
        minus = mobility_edge(LatticeSpec(L=10, lam=-0.5, a=0.3))
        assert minus == pytest.approx(-plus)


class TestClassify:
    def test_edge_above_spectrum_all_extended(self):
        spec = LatticeSpec(L=200, lam=0.05, a=0.3)
        data = analyze(spec)
        assert data.energies.max() < data.mobility_edge
        assert data.n_e == 1.0 and data.n_l == 0.0

    def test_edge_below_spectrum_all_localized(self):
        spec = LatticeSpec(L=200, lam=2.0, a=0.3)
        data = analyze(spec)
        assert data.energies.min() > data.mobility_edge
        assert data.n_l == 1.0 and data.n_e == 0.0

    def test_aa_extended_phase(self):
        data = analyze(LatticeSpec(L=100, lam=0.5, a=0.0))
        assert data.mobility_edge is None
        assert np.all(data.labels == EXTENDED)
        assert data.n_e == 1.0

    def test_aa_localized_phase(self):
        data = analyze(LatticeSpec(L=100, lam=1.5, a=0.0))
        assert np.all(data.labels == LOCALIZED)
        assert data.n_l == 1.0

    def test_aa_critical_point_undefined(self):
        spec = LatticeSpec(L=10, lam=1.0, a=0.0)
        labels, n_e, n_l = classify(np.linspace(-2, 2, 10), spec)
        assert np.all(labels == UNDEFINED)
        assert np.isnan(n_e) and np.isnan(n_l)

    def test_sum_rule(self):
        spec = LatticeSpec(L=200, lam=1.0, a=0.3)
        data = analyze(spec)
        n_states = np.count_nonzero(data.labels == EXTENDED) + np.count_nonzero(
            data.labels == LOCALIZED
        )
        assert n_states == 200
        assert data.n_e + data.n_l == pytest.approx(1.0)

    def test_tie_break_uses_ipr(self):
        spec = LatticeSpec(L=4, lam=1.0, a=0.3)  # E_c = 0
        energies = np.array([-1.0, 0.0, 0.0, 1.0])
        iprs = np.array([0.3, 0.04, 0.9, 0.5])
        labels, n_e, n_l = classify(energies, spec, iprs)
        # threshold 2/sqrt(4) = 1: both tied states fall below it
        assert labels[1] == EXTENDED and labels[2] == EXTENDED
        assert n_e + n_l == pytest.approx(1.0)
        with pytest.raises(ValueError):
            classify(energies, spec, None)

    def test_near_tie_follows_ipr(self):
        spec = LatticeSpec(L=4, lam=0.79, a=0.6)
        e_c = mobility_edge(spec)  # 0.7
        energies = np.array([e_c - 1, e_c + 1e-15, e_c + 1])
        # threshold 2/sqrt(4) = 1: each near-tie is sent against the side it rounds to
        labels, _, _ = classify(energies, spec, np.array([0.5, 0.3, 0.5]))
        assert list(labels) == [EXTENDED, EXTENDED, LOCALIZED]
        labels, _, _ = classify(energies - 2e-15, spec, np.array([0.5, 1.5, 0.5]))
        assert list(labels) == [EXTENDED, LOCALIZED, LOCALIZED]
        with pytest.raises(ValueError):
            classify(energies, spec, None)

    def test_tie_band_scales_with_the_edge(self):
        spec = LatticeSpec(L=4, lam=1.7, a=0.04)
        e_c = mobility_edge(spec)  # -35.0: band 3.5e-11, so an offset of 1e-11 is a tie, 1e-10 is not
        energies = np.array([e_c - 1e-10, e_c + 1e-11, e_c + 1e-10])
        labels, _, _ = classify(energies, spec, np.array([0.5, 0.3, 0.5]))
        assert list(labels) == [EXTENDED, EXTENDED, LOCALIZED]

    def test_fraction_of_extended_states_non_increasing_in_lambda(self):
        grid = np.arange(0.2, 2.01, 0.2)
        fractions = [analyze(LatticeSpec(L=100, lam=lam, a=0.3)).n_e for lam in grid]
        assert np.all(np.diff(fractions) <= 1e-12)

    def test_ipr_bimodality_in_intermediate_phase(self):
        data = analyze(LatticeSpec(L=200, lam=1.0, a=0.3))
        med_ext = np.median(data.ipr[data.labels == EXTENDED])
        med_loc = np.median(data.ipr[data.labels == LOCALIZED])
        assert med_loc >= 10 * med_ext

    def test_aa_self_duality_scaling(self):
        # extended side: mean IPR ~ 1/L; localized side: L-independent O(1)
        ext = {L: analyze(LatticeSpec(L=L, lam=0.5, a=0.0)).ipr.mean() for L in (100, 200)}
        loc = {L: analyze(LatticeSpec(L=L, lam=1.5, a=0.0)).ipr.mean() for L in (100, 200)}
        assert 1.5 <= ext[100] / ext[200] <= 2.5
        assert ext[200] < 0.05
        assert 0.8 <= loc[100] / loc[200] <= 1.2
        assert loc[200] > 0.1


class TestPhaseRegion:
    def test_aa_extended(self):
        spec = LatticeSpec(L=100, lam=0.5, a=0.0)
        assert phase_region(spec, analyze(spec).energies) == "extended"

    def test_intermediate(self):
        spec = LatticeSpec(L=200, lam=1.0, a=0.3)
        assert phase_region(spec, analyze(spec).energies) == "intermediate"

    def test_localized(self):
        spec = LatticeSpec(L=200, lam=2.0, a=0.3)
        assert phase_region(spec, analyze(spec).energies) == "localized"

    def test_extended_with_deformation(self):
        spec = LatticeSpec(L=200, lam=0.05, a=0.3)
        assert phase_region(spec, analyze(spec).energies) == "extended"

    def test_aa_critical_point_raises(self):
        spec = LatticeSpec(L=50, lam=1.0, a=0.0)
        with pytest.raises(ValueError):
            phase_region(spec, analyze(spec).energies)


class TestSpectrumDataInvariants:
    @pytest.mark.parametrize("lam,a", [(0.5, 0.0), (1.0, 0.3), (2.0, 0.3)])
    def test_analyze_bundle_consistent(self, lam, a):
        data = analyze(LatticeSpec(L=120, lam=lam, a=a))
        assert isinstance(data, SpectrumData)
        assert np.all(np.diff(data.energies) >= 0)
        assert data.ipr == pytest.approx(ipr_values(data.eigenvectors))
        assert data.labels.shape == (120,)
