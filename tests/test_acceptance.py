"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single line with its measured values (visible with
`pytest -v -s` or in the captured output), then asserts. The sampling
protocol is the full measurement procedure: burn-in 10000, 1000 samples,
mean spacing 10 with jitter 5.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gaaquench import observables
from gaaquench.gaussian import QuenchSetup, entropies, quench_evolution, reference_information
from gaaquench.model import LatticeSpec, build_hamiltonian
from gaaquench.observables import (
    SamplingProtocol,
    half_chain_sites,
    pearson,
    quench_velocity,
    sic_jump,
    sic_profile,
    subsystem_window,
)
from gaaquench.oracle import (
    exact_entropies,
    exact_entropy,
    exact_evolve,
    initial_state,
    many_body_hamiltonian,
)
from gaaquench.runner import ExperimentConfig, _point_scaling, parse_config, run
from gaaquench.spectral import PHASE_INTERMEDIATE, PHASE_LOCALIZED, analyze, phase_region
from kernel_references import bare_entropy, bare_information
from oracle_references import exact_mutual_information

PROTOCOL = SamplingProtocol(seed=20240)

LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(21))  # 0.0 .. 2.0


def neel(L, lam, a, reference=None):
    return QuenchSetup(LatticeSpec(L=L, lam=lam, a=a), "neel", reference_site=reference)


def report(criterion, text):
    print(f"[criterion {criterion}] {text}")


@pytest.fixture(scope="module")
def center_profiles_aa():
    """Criterion 7 profiles: a=0, L=100, center coupling, sizes 0,5,...,100."""
    sizes = range(0, 101, 5)
    return {
        lam: sic_profile(neel(100, lam, 0.0, reference=50), sizes, "center", PROTOCOL)
        for lam in (0.5, 1.5)
    }


@pytest.fixture(scope="module")
def jump_profiles():
    """Criterion 8 sweep: a=0.3, L=100, center coupling, sizes {0, 5, 100}."""
    return {
        lam: sic_profile(neel(100, lam, 0.3, reference=50), (0, 5, 100), "center", PROTOCOL)
        for lam in LAMBDA_GRID
    }


def test_criterion_1_oracle_equivalence_ee():
    # the production kernel against the oracle's table, then the bare path against one-shot evolution
    start = time.perf_counter()
    setup = neel(8, 1.0, 0.3)
    ev = quench_evolution(setup)
    basis, psi0 = initial_state(setup)
    hamiltonian = many_body_hamiltonian(build_hamiltonian(setup.spec), basis)
    half = half_chain_sites(8)
    times = (0.5, 1.0, 2.0, 5.0, 10.0)
    kernel = np.abs(entropies(ev, [half], times) - exact_entropies(setup, [half], times)).max()
    bare = max(
        abs(bare_entropy(ev.correlation_at(t), half) - exact_entropy(exact_evolve(psi0, hamiltonian, t), basis, half))
        for t in times
    )
    elapsed = time.perf_counter() - start
    report(1, f"EE oracle equivalence: max |dS| = {kernel:.3e} (kernel), {bare:.3e} (bare) ({elapsed:.1f} s)")
    assert kernel <= 1e-8
    assert bare <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence_sic():
    # the production kernel against the oracle's table, then the bare path against one-shot evolution
    start = time.perf_counter()
    setup = neel(6, 0.5, 0.0, reference=3)
    ev = quench_evolution(setup)
    basis, psi0 = initial_state(setup)
    h = build_hamiltonian(setup.spec)
    hamiltonian = many_body_hamiltonian(np.pad(h, (0, 1)), basis)
    windows = [subsystem_window(6, "center", size) for size in range(7)]
    times = (1.0, 3.0, 7.0)
    i_kernel = reference_information(windows, 7, lambda sets: entropies(ev, sets, times))
    i_exact = reference_information(windows, 7, lambda sets: exact_entropies(setup, sets, times))
    kernel = np.abs(i_kernel - i_exact).max()
    bare = 0.0
    for t in times:
        c = ev.correlation_at(t)
        psi_t = exact_evolve(psi0, hamiltonian, t)
        for window in windows:
            bare = max(bare, abs(bare_information(c, window) - exact_mutual_information(psi_t, basis, window, 7)))
    elapsed = time.perf_counter() - start
    report(2, f"SIC oracle equivalence: max |dI| = {kernel:.3e} (kernel), {bare:.3e} (bare) ({elapsed:.1f} s)")
    assert kernel <= 1e-8
    assert bare <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_saturation_contrast(saturation_points):
    # The contrast needs the deformed chain inside its mobility-edge phase. At
    # a = 0.3 that phase ends between lam = 1.37 and 1.40; beyond it E_c lies
    # below the whole spectrum, every state is localized, and both chains sit
    # on the area-law floor. lam = 1.3 probes the phase, lam = 1.5 is the
    # fully localized control.
    start = time.perf_counter()
    probe, control = 1.3, 1.5

    def region(a, lam):
        spec = LatticeSpec(L=200, lam=lam, a=a)
        data = analyze(spec)
        return phase_region(spec, data.energies), data.n_e

    phase_gaa, n_e = region(0.3, probe)
    assert phase_gaa == PHASE_INTERMEDIATE and n_e > 0
    assert region(0.0, probe)[0] == PHASE_LOCALIZED
    assert region(0.3, control)[0] == PHASE_LOCALIZED
    sat = {
        (a, lam): saturation_points(neel(200, lam, a), PROTOCOL)
        for a, lam in ((0.0, 0.5), (0.0, probe), (0.3, 0.5), (0.3, probe), (0.3, control))
    }
    ratio_aa = sat[(0.0, probe)] / sat[(0.0, 0.5)]
    ratio_gaa = sat[(0.3, probe)] / sat[(0.3, 0.5)]
    ratio_control = sat[(0.3, control)] / sat[(0.3, 0.5)]
    elapsed = time.perf_counter() - start
    report(
        3,
        f"saturation ratios at lam={probe}: AA = {ratio_aa:.4f}, deformed = {ratio_gaa:.4f} "
        f"(n_e = {n_e:.3f}), enhancement = {ratio_gaa / ratio_aa:.2f}x; "
        f"localized control at lam={control}: deformed = {ratio_control:.4f} "
        f"({elapsed:.0f} s; {saturation_points.note()})",
    )
    assert elapsed < 300.0
    assert ratio_aa < 0.1
    assert ratio_gaa > 3 * ratio_aa
    assert ratio_control < 0.1


def test_criterion_4_scaling_exponents(saturation_points, monkeypatch):
    start = time.perf_counter()
    # the points of one `gaa scaling` run, each at PROTOCOL, through the runner's own path; the
    # saturation_value it calls takes the points it shares with criteria 3 and 5 from the shared store
    monkeypatch.setattr(observables, "saturation_value", saturation_points)
    config = ExperimentConfig("scaling", L=(80, 120, 160, 200, 240), lam=(0.5, 1.0, 1.5), a=(0.0, 0.3))
    results = {}
    for a, lam in ((0.0, 0.5), (0.0, 1.5), (0.3, 1.0)):
        [(_, _, alpha, err)] = _point_scaling(config, PROTOCOL, a, lam)
        results[(a, lam)] = alpha, err
    elapsed = time.perf_counter() - start
    summary = ", ".join(
        f"alpha(a={a}, lam={lam}) = {alpha:.3f} +- {err:.3f}"
        for (a, lam), (alpha, err) in results.items()
    )
    report(4, f"{summary} ({elapsed:.0f} s; {saturation_points.note()})")
    assert 0.8 <= results[(0.0, 0.5)][0] <= 1.1
    assert results[(0.0, 1.5)][0] < 0.2
    assert 0.8 <= results[(0.3, 1.0)][0] <= 1.1
    assert elapsed < 1200.0


def test_criterion_5_saturation_tracks_extended_fraction(saturation_points):
    start = time.perf_counter()
    s_sat = [saturation_points(neel(200, lam, 0.3), PROTOCOL) for lam in LAMBDA_GRID]
    n_e = [analyze(LatticeSpec(L=200, lam=lam, a=0.3)).n_e for lam in LAMBDA_GRID]
    r = pearson(s_sat, n_e)
    elapsed = time.perf_counter() - start
    report(5, f"pearson(S_sat, n_e) = {r:.4f} over {len(LAMBDA_GRID)} lambda points "
              f"({elapsed:.0f} s; {saturation_points.note()})")
    assert r > 0.95
    assert elapsed < 600.0


def test_criterion_6_sic_endpoints_and_monotonicity(center_profiles_aa, jump_profiles):
    profiles = list(center_profiles_aa.values()) + list(jump_profiles.values())
    worst_end = 0.0
    worst_drop = 0.0
    for profile in profiles:
        assert profile.sizes[0] == 0 and profile.sizes[-1] == 100  # all profiles run at L = 100
        assert profile.mi[0] == pytest.approx(0.0, abs=1e-12)
        worst_end = max(worst_end, abs(profile.mi[-1] - 2.0))
        worst_drop = max(worst_drop, float(np.max(-np.diff(profile.mi))))
    report(
        6,
        f"{len(profiles)} steady-state profiles: max |I(L) - 2| = {worst_end:.2e}, "
        f"worst monotonicity violation = {worst_drop:.2e}",
    )
    assert worst_end <= 1e-6
    assert worst_drop <= 1e-3


def test_criterion_7_sic_phase_contrast(center_profiles_aa):
    start = time.perf_counter()
    ramp = center_profiles_aa[0.5]
    step = center_profiles_aa[1.5]
    jump_ramp = sic_jump(ramp)
    jump_step = sic_jump(step)
    mask = (ramp.sizes >= 10) & (ramp.sizes <= 90)
    slope, intercept = np.polyfit(ramp.sizes[mask], ramp.mi[mask], 1)
    residuals = ramp.mi[mask] - (slope * ramp.sizes[mask] + intercept)
    r_squared = 1.0 - residuals.var() / ramp.mi[mask].var()
    elapsed = time.perf_counter() - start
    report(
        7,
        f"ramp: I(5) = {jump_ramp:.3f} bits, linear R^2 = {r_squared:.4f}; "
        f"step: I(5) = {jump_step:.3f} bits ({elapsed:.0f} s)",
    )
    assert jump_ramp < 0.3
    assert r_squared > 0.95
    assert jump_step > 1.5
    assert elapsed < 600.0


def test_criterion_8_jump_tracks_localized_fraction(jump_profiles):
    start = time.perf_counter()
    jumps = [sic_jump(jump_profiles[lam]) for lam in LAMBDA_GRID]
    n_l = [analyze(LatticeSpec(L=100, lam=lam, a=0.3)).n_l for lam in LAMBDA_GRID]
    r = pearson(jumps, n_l)
    elapsed = time.perf_counter() - start
    report(8, f"pearson(SIC_jump, n_l) = {r:.4f} over {len(LAMBDA_GRID)} lambda points ({elapsed:.0f} s)")
    assert r > 0.9
    assert elapsed < 900.0


def test_criterion_9_velocity_monotonic():
    start = time.perf_counter()
    grid = tuple(round(0.2 * k, 10) for k in range(11))  # 0.0 .. 2.0
    worst = -np.inf
    for a in (0.0, 0.3):
        velocities = [quench_velocity(neel(200, lam, a), PROTOCOL) for lam in grid]
        tolerance = 0.02 * velocities[0]
        increases = np.diff(velocities)
        worst = max(worst, float(increases.max() / velocities[0]))
        assert velocities[0] == max(velocities)
        assert np.all(increases <= tolerance)
    elapsed = time.perf_counter() - start
    report(9, f"velocity sweeps monotone: worst increase = {worst:+.4%} of v(0) ({elapsed:.0f} s)")
    assert elapsed < 600.0


def test_criterion_10_determinism(tmp_path):
    config_text = (
        "experiment = velocity\nL = 16\na = 0, 0.3\nlambda = 0, 0.5, 1.0\nseed = 5\n"
    )
    config = parse_config(config_text)
    run(config, tmp_path / "one")
    run(config, tmp_path / "two")
    body_one = (tmp_path / "one/velocity.csv").read_bytes()
    body_two = (tmp_path / "two/velocity.csv").read_bytes()
    run(replace(config, workers=4), tmp_path / "four")
    body_four = (tmp_path / "four/velocity.csv").read_bytes()
    report(
        10,
        f"repeat run identical: {body_one == body_two}; "
        f"workers 1 vs 4 identical: {body_one == body_four}",
    )
    assert body_one == body_two
    assert body_one == body_four
