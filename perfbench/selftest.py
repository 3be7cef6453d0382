"""Self-test of the benchmark itself, at paper scale (a few minutes).

    python3 perfbench/selftest.py

Checks that two traced runs of each workload give identical call and work
counts, that those counts match the analytic counts of the configs, that
tracing restores every original so a later untraced run records no spans,
and that the output check rejects a perturbed reference cell.
"""

from __future__ import annotations

import shutil
import sys

import checks
import tracing
from run import OUT, SRC, WORKLOADS, config_text

sys.path.insert(0, str(SRC))

from gaaquench import runner  # noqa: E402


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def expected_counts(config) -> dict:
    """Analytic call and work counts of one run of a workload config."""
    samples, L = config.n_samples, config.L[0]
    if config.experiment == "saturation":
        points = len(config.a) * len(config.lam) * len(config.L)
        blocks, n = points * samples, L // 2  # one half-chain block per sample time
        return {"gaussian.entropy_of_block.calls": blocks, "gaussian.entropy_of_block.n3_sum": blocks * n**3,
                "gaussian.block_at.calls": blocks, "gaussian.block_at.elems": blocks * n**2,
                "gaussian.correlation_at.calls": 0, "observables.saturation_value.calls": points,
                "oracle.exact_entropy.calls": 0}
    if config.experiment == "sic_profile":
        sizes = config.sizes or sorted(set(range(0, L + 1, 5)) | {L})
        samples *= len(config.a) * len(config.lam)
        # per sample time: S(A) and S(AR) for every size, from one full C(t)
        return {"gaussian.entropy_of_block.calls": samples * 2 * len(sizes),
                "gaussian.entropy_of_block.n3_sum": samples * sum(s**3 + (s + 1)**3 for s in sizes),
                "gaussian.correlation_at.calls": samples, "gaussian.block_at.calls": 0,
                "observables.sic_profile.calls": len(config.a) * len(config.lam),
                "oracle.exact_entropy.calls": 0}
    # verify: half-chain entropies at 5 times, then S(A), S(R), S(AR) for |A| = 0..L at 3 times
    ee, sic = 5, 3 * 3 * (L + 1)
    return {"gaussian.entropy_of_block.calls": ee + sic, "gaussian.correlation_at.calls": 5 + 3,
            "gaussian.block_at.calls": 0, "oracle.exact_evolve.calls": 5 + 3,
            "oracle.exact_entropy.calls": ee + sic,
            "oracle.reduced_density_matrix.calls": ee + sic - 3,  # S(A) of the empty A needs no RDM
            "oracle.exact_entropy.dim3_sum": ee * 8 ** (L // 2)
            + 3 * sum(8**s * (s > 0) + 8 + 8 ** (s + 1) for s in range(L + 1))}


def traced_counts(config, out_dir) -> dict:
    with tracing.Tracer() as tracer:
        runner.run(config, out_dir)
    summary = tracer.summary()
    counts = {f"{name}.calls": row["calls"] for name, row in summary["spans"].items()}
    return {**counts, **summary["work"]}


def test_counts():
    for workload in WORKLOADS:
        config = runner.parse_config(config_text(workload, checks.DEFAULT_SEED))
        first = traced_counts(config, OUT / "selftest" / "first")
        second = traced_counts(config, OUT / "selftest" / "second")
        expect(first == second, f"{workload}: two traced runs counted differently")
        for name, value in expected_counts(config).items():
            expect(first.get(name, 0) == value, f"{workload}: {name} = {first.get(name, 0)}, expected {value}")
        print(f"{workload}: {len(first)} counts repeat exactly and match the analytic counts")
    paper = {"saturation": 4000, "sic_profile": 42000}
    for workload, calls in paper.items():
        config = runner.parse_config(config_text(workload, checks.DEFAULT_SEED))
        expect(expected_counts(config)["gaussian.entropy_of_block.calls"] == calls,
               f"{workload} is not at paper scale")


def test_restore():
    originals = {name: id(fn) for name, fn in tracing.traced_targets().items()}
    config = runner.parse_config(config_text("saturation", 0, n_samples=10))
    with tracing.Tracer() as tracer:
        runner.run(config, OUT / "selftest" / "traced")
    recorded = len(tracer.spans)
    expect(recorded > 0, "traced run recorded no spans")
    restored = {name: id(fn) for name, fn in tracing.traced_targets().items()}
    expect(restored == originals, "tracing left a wrapper in place")
    runner.run(config, OUT / "selftest" / "untraced")
    expect(len(tracer.spans) == recorded, "untraced run after a traced one recorded spans")
    print(f"restore: {len(originals)} traced functions restored; untraced run recorded no spans")


def test_check_rejects_perturbation():
    out = OUT / "selftest" / "perturbed"
    shutil.copytree(checks.REFERENCE_DIR / "sic_profile", out)
    manifest = {"failures": [], "outputs": [{"file": "sic_profile.csv"}]}
    expect(not checks.check_outputs("sic_profile", 0, out, manifest).errors, "reference fails its own check")
    path = out / "sic_profile.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    expect(checks.check_outputs("sic_profile", 0, out, manifest).errors, "perturbed cell passed the check")
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.9"
    path.write_text("\n".join(lines) + "\n")
    expect(checks.check_outputs("sic_profile", 7, out, manifest).errors, "I(L) = 1.9 passed the invariants")
    print("check: a 1e-6 perturbation and a wrong endpoint are rejected")


if __name__ == "__main__":
    shutil.rmtree(OUT / "selftest", ignore_errors=True)
    try:
        test_restore()
        test_check_rejects_perturbation()
        test_counts()
    finally:
        shutil.rmtree(OUT / "selftest", ignore_errors=True)
    print("selftest passed")
