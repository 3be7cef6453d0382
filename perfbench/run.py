"""gaaquench benchmark: paper-scale experiments timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is one experiment config, run through gaaquench.runner's
parse_config and run exactly as `gaa <experiment>` runs it, with the paper's
sampling protocol (burn-in 10000, 1000 samples, spacing 10 +- 5) and the
seed argument as the sampling seed. runner.run is repeated for as long as
the next run is expected to end within --seconds (at least once), and every
run's CSV output is checked.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from
one extra traced run (see tracing.py) whose wall time, against the untraced
median, gives the tracing overhead. Earlier stdout lines print every metric
with its unit and the environment; perfbench/out/ keeps a JSON record of each
invocation and the raw spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402  (sibling module; the script's directory is on sys.path)
import tracing  # noqa: E402

# the paper protocol, written out so that a change of the package defaults cannot change the workload
PROTOCOL = {"burn_in": "10000", "n_samples": "1000", "mean_interval": "10", "jitter": "5"}

WORKLOADS = {
    "saturation": {"experiment": "saturation", "L": "200", "a": "0.3",
                   "lambda": "0.5, 1.0, 1.3, 1.5", "workers": "1"},
    "sic_profile": {"experiment": "sic_profile", "L": "100", "a": "0.3", "lambda": "1.0",
                    "coupling": "center", "workers": "1"},
    "verify": {"experiment": "verify", "L": "10", "a": "0.3", "lambda": "1.0"},
}

SETUP_PROBES = 3
# what `gaa` does before runner.run: import the package and parse the config
SETUP_PROBE = "import sys; from gaaquench import runner; runner.parse_config(sys.stdin.read())"

# Host-speed calibration. The shared host drifts by +-25% over minutes in runs
# of the same code. A fixed kernel, timed just before and after each
# runner.run, gives the host's speed at that time, and the run's wall time is
# scaled by CALIBRATION_REF_S over the kernel's time. The kernel mixes the
# interpreter work and the 2-thread BLAS eigvalsh that the workloads spend
# their time in, and calls no gaaquench code, so a change to the program
# cannot move it. CALIBRATION_REF_S is the kernel's time on the reference
# machine of NOTES.md, so normalised times read as seconds there. Set-up time
# is left raw: it is mostly file reads and unmarshalling in a fresh
# interpreter, which the kernel does not track.
CALIBRATION_S = 2.5
CALIBRATION_REF_S = 0.030


def _calibration_kernel(h) -> int:
    acc, counts = 0, {}
    for i in range(100000):
        acc = (acc * 31 + i) % 1000003
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    for _ in range(10):
        np.linalg.eigvalsh(h)
    return acc


def _calibration_matrix() -> np.ndarray:
    m = np.random.default_rng(20250622).standard_normal((100, 200)).view(complex)
    return m + m.conj().T


def calibrate() -> float:
    """Mean time of the calibration kernel over CALIBRATION_S of wall time."""
    h = _calibration_matrix()
    count, start = 0, time.perf_counter()
    while not count or time.perf_counter() - start < CALIBRATION_S:
        _calibration_kernel(h)
        count += 1
    return (time.perf_counter() - start) / count


def config_text(workload: str, seed: int, **overrides) -> str:
    keys = {**WORKLOADS[workload], **PROTOCOL, "seed": str(seed), **overrides}
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def sweep_points(config) -> int:
    """Points one run of `config` attempts: one per (a, lambda[, L]) sweep point, one for verify."""
    if config.experiment == "verify":
        return 1
    n = len(config.a) * len(config.lam)
    return n * len(config.L) if config.experiment == "saturation" else n


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup_seconds(text: str) -> list[float]:
    """Wall times of fresh interpreters that import gaaquench and parse the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], input=text, text=True,
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_once(runner, workload: str, seed: int, config, out_dir: Path) -> dict:
    """One runner.run with its wall time, CPU share and output check."""
    points = sweep_points(config)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        manifest = runner.run(config, out_dir)
    except Exception:  # a run that raises fails all of its points; the benchmark reports it
        manifest, check = None, checks.CheckResult([traceback.format_exc()])
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if manifest is not None:
        check = checks.check_outputs(workload, seed, out_dir, manifest)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"run_s": wall, "cpu_per_wall": cpu / wall, "points": points,
            "failed": points if check.errors else 0,
            "errors": check.errors, "max_abs_err": check.max_abs_err}


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(config, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaaquench").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "workers": config.workers,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def layer_value(name: str, summary: dict, extra: dict):
    """Resolve a per-layer metric name against the traced-run summary."""
    if name in extra:
        return extra[name]
    spans, work = summary["spans"], summary["work"]
    base, field = name.rsplit(".", 1)
    if field in tracing.WORK_FIELDS:
        return work.get(name, 0)
    if base in tracing.LAYERS and field == "self_s":
        return sum(row["self_s"] for span, row in spans.items() if span.startswith(base + "."))
    if base not in tracing.traced_targets() or field not in ("calls", "s", "self_s"):
        raise KeyError(f"per-layer metric {name!r} names no traced function and field")
    return spans.get(base, {"calls": 0, "s": 0.0, "self_s": 0.0})[field]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from gaaquench import runner

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    text = config_text(workload, seed)
    config = runner.parse_config(text)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": environment(config, seed)}
    if not trace:
        record["setup_s_samples"] = setup_seconds(text)

    # calibrate, then run and calibrate again while the next run and its
    # calibration, as long as the median so far, still end within --seconds
    _calibration_kernel(_calibration_matrix())  # warm-up
    start = time.perf_counter()
    calibrations, iterations = [calibrate()], []
    while not iterations or (time.perf_counter() - start + CALIBRATION_S
                             + statistics.median(it["run_s"] for it in iterations) <= seconds):
        iterations.append(run_once(runner, workload, seed, config, work_dir / f"run{len(iterations)}"))
        calibrations.append(calibrate())
    for it, before, after in zip(iterations, calibrations, calibrations[1:]):
        it["host_factor"] = CALIBRATION_REF_S / ((before + after) / 2)
        it["run_norm_s"] = it["run_s"] * it["host_factor"]
    run_s = statistics.median(it["run_norm_s"] for it in iterations)
    record["calibration_s"] = calibrations

    if trace:
        untraced = list(iterations)
        with tracing.Tracer() as tracer:
            traced_config = runner.parse_config(text)
            iterations.append(run_once(runner, workload, seed, traced_config, work_dir / "traced"))
        calibrations.append(calibrate())
        traced_norm_s = iterations[-1]["run_s"] * CALIBRATION_REF_S / statistics.mean(calibrations[-2:])
        summary = tracer.summary()
        extra = {"runner.cpu_per_wall": statistics.median(it["cpu_per_wall"] for it in untraced),
                 "runner.run.wall_s": statistics.median(it["run_s"] for it in untraced),
                 "host.calibration_s": statistics.median(calibrations),
                 "trace.overhead_frac": traced_norm_s / run_s - 1.0}
        declared = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], summary, extra) for m in declared}
        record["trace_summary"] = summary
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(tracer.spans))
    shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(it["points"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    if not trace:
        declared = spec["end_to_end"]
        values = {"setup_s": statistics.median(record["setup_s_samples"]), "run_s": run_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": 1.0 - failed / attempted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    errs = [it["max_abs_err"] for it in iterations if it["max_abs_err"] is not None]
    record.update(iterations=iterations, metrics=metrics,
                  max_abs_err=max(errs) if errs else None, failed_frac=failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gaaquench" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no gaaquench checkout with BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['iterations'])} runs of runner.run")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    errors = [error for it in record["iterations"] for error in it["errors"]]
    for error in errors[:10]:
        print(f"check failed: {error.strip().splitlines()[-1]}")
    if len(errors) > 10:
        print(f"... {len(errors) - 10} more check failures in {OUT.relative_to(ROOT)}/")
    err = record["max_abs_err"]
    print(f"max_abs_err = {'n/a (no reference comparison)' if err is None else f'{err:.3e}'}"
          f"  failed_frac = {record['failed_frac']:.6g} ({result['failed']} of {result['attempted']} points)")
    untraced = [it for it in record["iterations"] if "host_factor" in it]
    print("runner.run wall s " + ", ".join(f"{it['run_s']:.4g}" for it in untraced)
          + "; host factor " + ", ".join(f"{it['host_factor']:.4g}" for it in untraced))
    for name, metric in result["metrics"].items():
        label = " (computed from block sizes)" if name.endswith(tracing.WORK_FIELDS) else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
