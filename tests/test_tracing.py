"""The benchmark's tracer finds the functions it wraps by name, so a rename in
the package must fail here rather than in a later `perfbench/run.py --trace 1`."""

import importlib
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
