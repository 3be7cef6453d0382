"""The benchmark's tracer finds the functions it wraps by name, so a rename in
the package must fail here rather than in a later `perfbench/run.py --trace 1`."""

import importlib
import json
from pathlib import Path

import gaaquench.runner  # noqa: F401  (loads every layer the tracer scans)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_cover_every_named_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.traced_targets()
    named = set(tracing.WORK) | set(tracing.METHODS) | {
        "gaussian.block_entropies",
        "observables.saturation_value",
        "observables.sic_profile",
        "oracle.exact_evolve",
        "oracle.reduced_density_matrix",
    }
    assert sorted(named - set(targets)) == []
    assert all(callable(fn) for fn in targets.values())


# filled from the run itself (wall and CPU clocks, host calibration), not from the traced summary
MEASURED_EXTRAS = {"runner.cpu_per_wall", "runner.run.wall_s", "host.calibration_s", "trace.overhead_frac"}


def test_every_per_layer_metric_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    names = [m["name"] for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    unresolved = []
    for name in sorted(set(names) - MEASURED_EXTRAS):
        try:
            run.layer_value(name, {"spans": {}, "work": {}}, {})
        except KeyError:
            unresolved.append(name)
    assert unresolved == []
