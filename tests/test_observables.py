import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaaquench
from gaaquench.gaussian import (
    CorrelationMatrix,
    QuenchEvolution,
    QuenchSetup,
    entropies,
    quench_evolution,
)
from gaaquench.model import LatticeSpec
from gaaquench.observables import (
    MAX_POINTS,
    MAX_TIME,
    EETimeSeries,
    SamplingProtocol,
    SicProfile,
    early_velocity,
    ee_timeseries,
    fit_power_law,
    fit_window_times,
    half_chain_sites,
    information_table,
    pearson,
    quench_velocity,
    reference_site_for,
    sample_times,
    saturation_value,
    sic_jump,
    sic_profile,
    subsystem_window,
)
from gaaquench.runner import _point_scaling, parse_config
from gaaquench.spectral import analyze
from kernel_references import bare_information, kernel_entropy

FAST = SamplingProtocol(burn_in=50.0, n_samples=40, mean_interval=2.0, jitter=1.0, seed=9)


class TestSamplingProtocol:
    def test_defaults_match_measurement_procedure(self):
        p = SamplingProtocol()
        assert p.fit_window == (0.0, 20.0)
        assert p.burn_in == 10000.0
        assert p.n_samples == 1000
        assert p.mean_interval == 10.0
        assert p.jitter == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fit_window=(-1.0, 20.0)),
            dict(fit_window=(5.0, 5.0)),
            dict(n_samples=1),
            dict(jitter=-1.0),
            dict(mean_interval=3.0, jitter=3.0),
            dict(fit_dt=0.0),
            dict(burn_in=-5.0),
            dict(n_samples=MAX_POINTS + 1),
            dict(fit_dt=1e-300),
            dict(fit_window=(0.0, float(MAX_POINTS)), fit_dt=1.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SamplingProtocol(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("fit_window", (0.0, np.nan)), ("fit_window", (-np.inf, 20.0)), ("fit_dt", np.nan), ("fit_dt", np.inf),
        ("burn_in", np.nan), ("burn_in", np.inf), ("mean_interval", np.nan), ("mean_interval", np.inf),
        ("jitter", np.nan),
    ])
    def test_non_finite_fields_rejected(self, field, value):
        # burn_in = nan and mean_interval = inf used to be accepted, and a NaN fit_window or fit_dt was
        # said to hold more than 10^5 times
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SamplingProtocol(**{field: value})

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_samples=10.5), "n_samples must be an integer"),
        (dict(n_samples=10.0), "n_samples must be an integer"),
        (dict(seed=-1), "seed must be non-negative"),
    ], ids=["samples-10.5", "samples-10.0", "seed-negative"])
    def test_malformed_integers_rejected_not_truncated(self, kwargs, message):
        # 10.5 was accepted; 10.0 and the negative seed failed only in sample_times
        with pytest.raises(ValueError, match=message):
            SamplingProtocol(**kwargs)

    def test_time_tables_of_the_bound_accepted(self):
        # spacings of 0.5 +- 0.25: at the default 10 +- 5, 10^5 samples would run past MAX_TIME
        protocol = SamplingProtocol(fit_window=(0.0, MAX_POINTS - 1.0), fit_dt=1.0, n_samples=MAX_POINTS,
                                    mean_interval=0.5, jitter=0.25)
        assert fit_window_times(protocol).size == sample_times(protocol).size == MAX_POINTS

    @pytest.mark.parametrize("kwargs", [
        dict(mean_interval=1e308, jitter=0.0, n_samples=10),
        dict(burn_in=MAX_TIME, n_samples=2),
        dict(fit_window=(0.0, 2 * MAX_TIME), fit_dt=MAX_TIME),
    ])
    def test_late_times_rejected(self, kwargs):
        # mean_interval = 1e308 used to be accepted; np.cumsum then gave inf and eigvalsh a NaN block
        with pytest.raises(ValueError, match=r"after the latest time 100000"):
            SamplingProtocol(**kwargs)

    def test_latest_sample_time_of_the_bound_accepted(self):
        protocol = SamplingProtocol(burn_in=MAX_TIME - 150.0, n_samples=10, mean_interval=10.0, jitter=5.0)
        assert sample_times(protocol).max() <= MAX_TIME
        assert SamplingProtocol(fit_window=(0.0, MAX_TIME), fit_dt=MAX_TIME / 2).fit_window[1] == MAX_TIME

    def test_sample_times_bounds_and_mean(self):
        p = SamplingProtocol(seed=3)
        ts = sample_times(p)
        assert ts.size == 1000
        assert ts[0] >= p.burn_in + p.mean_interval - p.jitter
        spacings = np.diff(ts)
        assert spacings.min() >= p.mean_interval - p.jitter - 1e-12
        assert spacings.max() <= p.mean_interval + p.jitter + 1e-12
        assert abs(spacings.mean() - p.mean_interval) < 0.3

    def test_sample_times_deterministic_per_seed(self):
        a = sample_times(SamplingProtocol(seed=5))
        b = sample_times(SamplingProtocol(seed=5))
        c = sample_times(SamplingProtocol(seed=6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("window, accepted", [
        ((0.0, 0.2), False), ((0.0, 0.4), False), ((3.0, 3.49), False),
        ((0.0, 0.5), True), ((0.1, 0.6), True), ((0.7, 1.2), True),
    ])
    def test_fit_window_holds_two_samples(self, window, accepted):
        # 0:0.2 used to be accepted, and then every velocity fit failed with fewer than 2 samples
        if not accepted:
            with pytest.raises(ValueError, match=r"fit_window .* is shorter than fit_dt 0\.5"):
                SamplingProtocol(fit_window=window)
            return
        protocol = SamplingProtocol(fit_window=window)
        times = fit_window_times(protocol)
        assert early_velocity(EETimeSeries(times, 2.0 * times), protocol) == pytest.approx(2.0)

    def test_fit_window_grid(self):
        grid = fit_window_times(SamplingProtocol())
        assert grid[0] == 0.0 and grid[-1] == 20.0 and grid.size == 41


class TestEETimeSeries:
    def test_product_state_starts_at_zero(self):
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.3), "neel")
        series = ee_timeseries(setup, [0.0, 0.5, 1.0])
        assert series.entropies[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(series.entropies >= -1e-12)

    def test_entropy_grows_after_quench(self):
        setup = QuenchSetup(LatticeSpec(L=40, lam=0.5, a=0.0), "neel")
        series = ee_timeseries(setup, [0.0, 2.0, 5.0])
        assert series.entropies[1] > 0.1
        assert series.entropies[2] > series.entropies[1]

    def test_reference_mode_rejected(self):
        setup = QuenchSetup(LatticeSpec(L=8, lam=1.0, a=0.3), "neel", reference_site=4)
        with pytest.raises(ValueError):
            ee_timeseries(setup, [0.0])


class TestEarlyVelocity:
    def test_constant_series(self):
        series = EETimeSeries(np.linspace(0, 20, 41), np.full(41, 1.3))
        assert early_velocity(series, SamplingProtocol()) == pytest.approx(0.0, abs=1e-12)

    def test_exact_line(self):
        t = np.linspace(0, 20, 41)
        series = EETimeSeries(t, 0.3 * t)
        assert early_velocity(series, SamplingProtocol()) == pytest.approx(0.3, abs=1e-12)

    def test_window_restriction(self):
        t = np.linspace(0, 40, 81)
        entropy = np.where(t <= 20, 0.5 * t, 10.0)
        series = EETimeSeries(t, entropy)
        assert early_velocity(series, SamplingProtocol()) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_points(self):
        series = EETimeSeries(np.array([30.0, 40.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            early_velocity(series, SamplingProtocol())


class TestClosedFormAnchors:
    def test_clean_chain_velocity_is_the_quasiparticle_value(self):
        # a = 0, lambda = 0: pairs of quasiparticles with speed |2 sin k| give
        # v = ln 2 * integral dk / (2 pi) |2 sin k| = (4 / pi) ln 2 (Fagotti & Calabrese 2008);
        # the default fit window 0:20 at L = 200 reads 0.88562, 1.0035 times that
        setup = QuenchSetup(LatticeSpec(L=200, lam=0.0, a=0.0), "neel")
        assert quench_velocity(setup, SamplingProtocol()) == pytest.approx(4 / np.pi * np.log(2.0), rel=0.01)

    @pytest.mark.parametrize("L", [100, 200])
    def test_clean_chain_saturation_is_the_typical_gaussian_value(self, L):
        # the average entanglement of a typical number-conserving fermionic Gaussian state at subsystem
        # fraction 1/2 is (L/2)(2 ln 2 - 1) (Lydzba, Rigol & Vidmar 2020; Bianchi, Hackl & Kieburg 2021).
        # The default protocol reads 0.9990, 0.9997 and 1.0122 of it at L = 100, 200 and 400: the band
        # lies 1 % below the lowest reading and holds the rising trend through L = 400 with 0.8 % to spare
        setup = QuenchSetup(LatticeSpec(L=L, lam=0.0, a=0.0), "neel")
        ratio = saturation_value(setup, SamplingProtocol()) / ((L / 2) * (2 * np.log(2.0) - 1))
        assert 0.99 <= ratio <= 1.02

    @pytest.mark.parametrize("L", [100, 200])
    def test_single_extended_band_saturates_near_the_typical_value(self, L):
        # criterion 5's n_e = 1 end point: at a = 0.3, lambda = 0.5 every state is extended, and S_sat
        # stays just below the typical Gaussian value (L/2)(2 ln 2 - 1). The default protocol reads
        # 0.9886 and 0.9892 of it at L = 100, and 0.9728 and 0.9720 at L = 200 (seeds 0 and 7)
        spec = LatticeSpec(L=L, lam=0.5, a=0.3)
        assert analyze(spec).n_e == 1
        typical = (L / 2) * (2 * np.log(2.0) - 1)
        for seed in (0, 7):
            ratio = saturation_value(QuenchSetup(spec, "neel"), SamplingProtocol(seed=seed)) / typical
            assert 0.95 <= ratio <= 1.0, seed

    @staticmethod
    def typical_information(L, sizes):
        """The SIC profile of a typical state in bits, for V = L + 1 modes and f = |A| / V: -log2(1 - f)
        up to f = 1/2 and 2 + log2(f + 1/V) above, so 0 at |A| = 0 and 2 at |A| = L."""
        f = np.asarray(sizes) / (L + 1)
        return np.where(f <= 0.5, -np.log2(1 - f), 2 + np.log2(f + 1 / (L + 1)))

    @pytest.mark.parametrize("coupling", ["center", "edge"])
    def test_clean_chain_sic_profile_is_the_typical_curve(self, coupling):
        # an anchor that needs no oracle: the clean chain (a = 0, lambda = 0) spreads the reference's
        # information like a typical state. At L = 100, the default protocol and seed 0, every fifth size
        # lies within 0.0297 (center) and 0.0183 (edge) bits of the curve
        L = 100
        setup = QuenchSetup(LatticeSpec(L=L, lam=0.0, a=0.0), "neel", reference_site=reference_site_for(L, coupling))
        profile = sic_profile(setup, range(0, L + 1, 5), coupling, SamplingProtocol())
        assert np.abs(profile.mi - self.typical_information(L, profile.sizes)).max() <= 0.05

    def test_mobility_edge_chain_traps_the_information(self):
        # the paper's information trapping: the mobility-edge chain (a = 0.3, lambda = 1, center coupling)
        # keeps the reference's information near its site, 1.645 bits at |A| = 10 at L = 100, the default
        # protocol and seed 0, 1.495 bits above the typical curve
        L = 100
        setup = QuenchSetup(LatticeSpec(L=L, lam=1.0, a=0.3), "neel", reference_site=reference_site_for(L, "center"))
        profile = sic_profile(setup, [10], "center", SamplingProtocol())
        assert profile.mi[0] - self.typical_information(L, [10])[0] > 1.0


class TestSaturation:
    def test_frozen_dynamics_zero_entropy(self):
        # hopping-free test Hamiltonian: occupations commute with H
        c0 = CorrelationMatrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        ev = QuenchEvolution(c0, np.diag([0.4, -0.3, 1.0, 0.2]))
        assert np.mean(entropies(ev, [[1, 2]], sample_times(FAST))) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        setup = QuenchSetup(LatticeSpec(L=12, lam=0.8, a=0.3), "neel")
        one = saturation_value(setup, FAST)
        two = saturation_value(setup, FAST)
        assert one == two
        assert saturation_value(setup, SamplingProtocol(burn_in=50.0, n_samples=40,
                                                        mean_interval=2.0, jitter=1.0, seed=10)) != one

    def test_localized_chain_saturates_low(self):
        extended = saturation_value(QuenchSetup(LatticeSpec(L=20, lam=0.5, a=0.0), "neel"), FAST)
        localized = saturation_value(QuenchSetup(LatticeSpec(L=20, lam=2.5, a=0.0), "neel"), FAST)
        assert localized < 0.25 * extended

    def test_area_vs_volume_size_dependence(self):
        # volume law doubles with L; the localized value stays area-law small
        # at both sizes (its exact value wanders with the cut's quasiperiodic
        # environment, so only the regression exponent is L-stable)
        proto = SamplingProtocol(n_samples=300, seed=21)
        sat = {
            (lam, L): saturation_value(QuenchSetup(LatticeSpec(L=L, lam=lam, a=0.0), "neel"), proto)
            for lam in (0.5, 1.5)
            for L in (100, 200)
        }
        assert 1.7 <= sat[(0.5, 200)] / sat[(0.5, 100)] <= 2.3
        assert sat[(1.5, 100)] < 0.1 * sat[(0.5, 100)]
        assert sat[(1.5, 200)] < 0.1 * sat[(0.5, 200)]


class TestScalingFit:
    def test_linear_in_size(self):
        sizes = np.array([80, 120, 160, 200, 240])
        alpha, stderr = fit_power_law(sizes, 0.37 * sizes)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant(self):
        alpha, stderr = fit_power_law([100, 150, 200], [2.2, 2.2, 2.2])
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_noisy_series_matches_textbook_ols(self):
        sizes = np.array([80, 120, 160, 200, 240])
        rng = np.random.default_rng(3)
        values = 0.4 * sizes**0.9 * np.exp(rng.normal(0.0, 0.05, sizes.size))
        alpha, stderr = fit_power_law(sizes, values)
        # slope and its error from the normal equations: beta = (X^T X)^-1 X^T y,
        # var(beta) = sigma^2 (X^T X)^-1 with sigma^2 = RSS / (n - 2)
        design = np.column_stack([np.ones(sizes.size), np.log(sizes)])
        beta, rss, _, _ = np.linalg.lstsq(design, np.log(values), rcond=None)
        cov = rss[0] / (sizes.size - 2) * np.linalg.inv(design.T @ design)
        assert stderr > 1e-3  # a genuinely noisy fit, not an exact one
        assert alpha == pytest.approx(beta[1], abs=1e-12)
        assert stderr == pytest.approx(np.sqrt(cov[1, 1]), abs=1e-12)

    def test_identical_sizes(self):
        with pytest.raises(ValueError):
            fit_power_law([100, 100, 100], [1.0, 2.0, 3.0])

    def test_unfittable_values(self):
        with pytest.raises(ValueError):
            fit_power_law([100, 150, 200], [1.0, 0.0, 2.0])

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            fit_power_law([100, 200], [1.0, 2.0])

    @pytest.mark.parametrize("sizes, values, message", [
        ([0, 10, 20], [1.0, 2.0, 3.0], "positive sizes"),
        ([-10, 10, 20], [1.0, 2.0, 3.0], "positive sizes"),
        ([10, np.inf, 20], [1.0, 2.0, 3.0], "finite sizes and values"),
        ([10, 15, 20], [1.0, np.nan, 3.0], "finite sizes and values"),
    ], ids=["zero-size", "negative-size", "inf-size", "nan-value"])
    def test_non_positive_or_non_finite_input_rejected(self, sizes, values, message):
        # a zero size or a NaN value gave (nan, nan) with only RuntimeWarnings
        with pytest.raises(ValueError, match=message):
            fit_power_law(sizes, values)

    def test_scaling_exponent_of_real_quench(self):
        config = parse_config("experiment = scaling\nL = 12, 16, 20, 24\na = 0\nlambda = 0.5\n")
        [(_, _, alpha, stderr)] = _point_scaling(config, FAST, 0.0, 0.5)
        assert 0.5 < alpha < 1.5  # volume-law trend already visible at toy sizes
        assert stderr >= 0.0


class TestSubsystemWindow:
    def test_edge_prefix(self):
        assert subsystem_window(10, "edge", 3) == [1, 2, 3]
        assert subsystem_window(10, "edge", 0) == []

    def test_center_left_biased(self):
        assert subsystem_window(10, "center", 1) == [5]
        assert subsystem_window(10, "center", 2) == [4, 5]
        assert subsystem_window(10, "center", 3) == [4, 5, 6]
        assert subsystem_window(10, "center", 4) == [3, 4, 5, 6]

    def test_center_full_chain_clamped(self):
        assert subsystem_window(10, "center", 10) == list(range(1, 11))
        assert subsystem_window(10, "center", 9) == list(range(1, 10))

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            subsystem_window(10, "center", 11)
        with pytest.raises(ValueError):
            subsystem_window(10, "center", -1)

    @pytest.mark.parametrize("coupling", ["center", "edge"])
    def test_non_integer_size_rejected_not_truncated(self, coupling):
        # sic_profile truncated 2.5 to 2, and subsystem_window died with a TypeError from range
        for size in (2.5, 2.0):
            with pytest.raises(ValueError, match="subsystem size must be an integer"):
                subsystem_window(10, coupling, size)
        setup = QuenchSetup(LatticeSpec(L=8, lam=0.8, a=0.3), "neel", reference_site=reference_site_for(8, coupling))
        with pytest.raises(ValueError, match="subsystem size must be an integer"):
            sic_profile(setup, [0, 2.5, 8], coupling, FAST)

    def test_reference_sites(self):
        assert reference_site_for(10, "center") == 5
        assert reference_site_for(10, "edge") == 1
        with pytest.raises(ValueError):
            reference_site_for(10, "corner")


@pytest.fixture(scope="module")
def small_profile():
    setup = QuenchSetup(LatticeSpec(L=8, lam=0.8, a=0.3), "neel", reference_site=4)
    return sic_profile(setup, range(9), "center", FAST)


class TestSicProfile:
    def test_endpoints(self, small_profile):
        assert small_profile.mi[0] == pytest.approx(0.0, abs=1e-12)
        assert small_profile.mi[-1] == pytest.approx(2.0, abs=1e-6)

    def test_monotone_and_bounded(self, small_profile):
        assert np.all(np.diff(small_profile.mi) >= -1e-3)
        assert np.all(small_profile.mi >= -1e-9)
        assert np.all(small_profile.mi <= 2 + 1e-9)

    def test_requires_matching_reference_site(self):
        setup = QuenchSetup(LatticeSpec(L=8, lam=0.8, a=0.3), "neel", reference_site=3)
        with pytest.raises(ValueError):
            sic_profile(setup, range(9), "center", FAST)

    def test_sizes_beyond_chain_rejected(self, monkeypatch):
        def no_evolution(setup):
            raise AssertionError("an evolution was built before the sizes were checked")

        monkeypatch.setattr(gaaquench.observables, "quench_evolution", no_evolution)
        setup = QuenchSetup(LatticeSpec(L=8, lam=0.8, a=0.3), "neel", reference_site=4)
        for sizes, bad in (([0, 9], 9), ([-1, 8], -1)):  # L + 1 and -1
            with pytest.raises(ValueError, match=rf"subsystem size {bad} outside 0\.\.8"):
                sic_profile(setup, sizes, "center", FAST)

    def test_jump_extraction(self):
        profile = SicProfile("center", [0, 5, 8], [0.0, 1.25, 2.0], "open")
        assert sic_jump(profile) == 1.25

    def test_jump_of_flat_profile(self):
        profile = SicProfile("center", [0, 5, 10], [0.0, 0.0, 0.0], "open")
        assert sic_jump(profile) == 0.0

    @pytest.mark.parametrize("size", [2.5, 2.0])
    def test_non_integer_size_rejected(self, size):
        # [0, 2.5, 8] used to be stored as [0, 2, 8]
        with pytest.raises(ValueError, match=f"a subsystem size must be an integer, got {size}"):
            SicProfile("center", [0, size, 8], [0.0, 1.0, 2.0], "open")

    def test_jump_requires_probe_size(self):
        profile = SicProfile("center", [0, 4, 8], [0.0, 1.0, 2.0], "open")
        with pytest.raises(ValueError):
            sic_jump(profile)


LATE = SamplingProtocol(burn_in=10000.0, n_samples=30, mean_interval=10.0, jitter=5.0, seed=4)


class TestSamplingKernelEquivalence:
    """The shared entropy kernel against direct per-time evaluation."""

    @pytest.mark.parametrize("coupling", ["center", "edge"])
    def test_sic_profile_matches_mutual_information_per_time(self, coupling):
        L = 24
        setup = QuenchSetup(LatticeSpec(L=L, lam=1.0, a=0.3), "neel",
                            reference_site=reference_site_for(L, coupling))
        profile = sic_profile(setup, range(L + 1), coupling, LATE)
        ev = quench_evolution(setup)
        direct = [
            np.mean([bare_information(ev.correlation_at(t), subsystem_window(L, coupling, size))
                     for t in sample_times(LATE)])
            for size in range(L + 1)
        ]
        assert profile.mi == pytest.approx(direct, abs=1e-9)

    def test_ee_timeseries_unchanged(self):
        setup = QuenchSetup(LatticeSpec(L=24, lam=1.2, a=0.3), "neel")
        times = [0.0, 0.5, 3.0, 1.0e4, 1.7e4]
        ev = quench_evolution(setup)
        direct = [kernel_entropy(ev.block_at(t, half_chain_sites(24))) for t in times]
        assert ee_timeseries(setup, times).entropies.tolist() == direct

    def test_saturation_value_unchanged(self):
        setup = QuenchSetup(LatticeSpec(L=24, lam=0.9, a=0.3), "neel")
        ev = quench_evolution(setup)
        half = half_chain_sites(24)
        direct = np.mean([kernel_entropy(ev.block_at(t, half)) for t in sample_times(LATE)])
        assert saturation_value(setup, LATE) == direct
        # with a reference mode the larger side is evaluated through its complement
        ev_r = quench_evolution(QuenchSetup(LatticeSpec(L=24, lam=0.9, a=0.3), "neel", reference_site=12))
        sites = list(range(3, 23))
        direct = np.mean([kernel_entropy(ev_r.block_at(t, sites)) for t in sample_times(LATE)])
        mean = np.mean(entropies(ev_r, [sites], sample_times(LATE)))
        assert mean / np.log(2.0) == pytest.approx(direct / np.log(2.0), abs=1e-9)

    def test_information_table_matches_mutual_information_per_time(self):
        # the table sic_profile averages and `gaa verify` compares with the oracle, one row per time
        L = 12
        setup = QuenchSetup(LatticeSpec(L=L, lam=1.0, a=0.3), "neel", reference_site=reference_site_for(L, "edge"))
        windows = [subsystem_window(L, "edge", size) for size in range(L + 1)]
        times = [0.0, 2.5, 1.3e4]
        table = information_table(setup, windows, times)
        ev = quench_evolution(setup)
        direct = [[bare_information(ev.correlation_at(t), w) for w in windows] for t in times]
        assert table.shape == (len(times), L + 1)
        assert table == pytest.approx(np.array(direct), abs=1e-9)


class TestPearson:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_degenerate_variance(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("x, y", [([0.1, 0.2, 0.3], [0.0, np.nan, 1.0]), ([0.1, np.inf, 0.3], [0.0, 0.5, 1.0])],
                             ids=["nan", "inf"])
    def test_non_finite_samples_rejected(self, x, y):
        with pytest.raises(ValueError, match="finite samples"):
            pearson(x, y)

    def test_textbook_value(self):
        # deviations from the mean 2.5: (-1.5, -0.5, 0.5, 1.5) and (-1.5, 0.5, -0.5, 1.5), so r = 4 / 5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_package_does_not_import_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(Path(gaaquench.__file__).parents[1])}
        code = "import sys, gaaquench, gaaquench.cli; print('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestVelocityOnQuench:
    def test_velocity_positive_in_extended_phase(self):
        setup = QuenchSetup(LatticeSpec(L=60, lam=0.5, a=0.0), "neel")
        v = quench_velocity(setup, SamplingProtocol(seed=1))
        assert v > 0.1

    def test_velocity_suppressed_when_localized(self):
        fast_moving = quench_velocity(QuenchSetup(LatticeSpec(L=60, lam=0.0, a=0.0), "neel"),
                                      SamplingProtocol(seed=1))
        pinned = quench_velocity(QuenchSetup(LatticeSpec(L=60, lam=2.5, a=0.0), "neel"),
                                 SamplingProtocol(seed=1))
        assert pinned < 0.2 * fast_moving
