"""Per-layer spans recorded from outside the program.

A Tracer wraps the public functions of each gaaquench layer (plus the few
methods named in METHODS) while it is entered, and restores the originals
when it exits. Every wrapper records one span (name, start, end, parent
index) in memory and, for the functions in WORK, a computed work count
derived from argument or result shapes.

A wrapped function is replaced at every place it is looked up: each
gaaquench module attribute that is the original object (observables, for
example, imports entropy_of_block from gaussian by name), and the class
attribute for methods.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("model", "spectral", "gaussian", "observables", "oracle", "runner")

# span name -> (module, class, attribute) of the traced methods
METHODS = {
    "gaussian.correlation_at": ("gaussian", "QuenchEvolution", "correlation_at"),
    "gaussian.block_at": ("gaussian", "QuenchEvolution", "block_at"),
    "gaussian.validate": ("gaussian", "CorrelationMatrix", "__post_init__"),
}


def _block_n3(args, kwargs, result):
    block = args[0] if args else kwargs["block"]
    return block.shape[0] ** 3 if block.size else 0


def _block_elems(args, kwargs, result):
    return result.shape[0] * result.shape[1]


def _rdm_dim3(args, kwargs, result):
    subset = args[2] if len(args) > 2 else kwargs["subset"]
    return (2 ** len(subset)) ** 3 if len(subset) else 0


# span name -> (work counter name, function of (args, kwargs, result)); the
# counts are computed from block sizes, not measured
WORK = {
    "gaussian.entropy_of_block": ("n3_sum", _block_n3),
    "gaussian.block_at": ("elems", _block_elems),
    "oracle.exact_entropy": ("dim3_sum", _rdm_dim3),
}
WORK_FIELDS = tuple(field for field, _ in WORK.values())


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "gaaquench" or name.startswith("gaaquench.")]


def traced_targets() -> dict:
    """Span name -> original callable, for every function the tracer wraps."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"gaaquench.{layer}"]
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == module.__name__:
                targets[f"{layer}.{attr}"] = fn
    for name, (layer, cls, attr) in METHODS.items():
        targets[name] = vars(getattr(sys.modules[f"gaaquench.{layer}"], cls))[attr]
    return targets


class Tracer:
    """Context manager that records spans of the wrapped layer functions."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                work[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        targets = traced_targets()
        # keyed by id: the originals stay alive in `targets` while we scan
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for name, (layer, cls, attr) in METHODS.items():
            owner = getattr(sys.modules[f"gaaquench.{layer}"], cls)
            self._patch(owner, attr, wrappers[id(targets[name])])
        return self

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds `s` and `self_s`; plus work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, parent), children in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - children
        return {"spans": dict(table), "work": dict(self.work)}

