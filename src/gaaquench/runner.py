"""Configuration-driven experiment orchestration and CSV emission.

Configs are flat "key = value" text (# comments). Scalar keys take one value;
sweepable keys (lambda, a, L, sizes, times) also take comma lists or inclusive
start:stop:step grids. Unknown keys are fatal: silent typos in physics
parameters are the costliest failure mode, so nothing is rounded either:
integer keys (L, sizes) and the span of a grid must be exact.

Each experiment writes fixed-schema CSV files plus a manifest.json run record.
Sweep points are pure functions of (config, point index); per-point RNG seeds
derive from (seed, point index), so serial and parallel runs emit identical
bytes. Floats are written with 12 significant digits and LF line endings.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, _blas, observables, oracle, spectral
from ._blas import _blas_threads, _cap_blas_threads
from .gaussian import QuenchSetup, _integer, reference_information
from .model import GOLDEN_INVERSE, LatticeSpec
from .observables import SamplingProtocol

_ORACLE_TOLERANCE = 1e-8
# longest chain: above every paper size (at most 240) and the L = 1000 spectral checks; the run
# diagonalises an L x L Hamiltonian at each point
MAX_L = 10**4

_SCHEMAS = {
    "spectrum.csv": ("index", "energy", "ipr", "label"),
    "ee_timeseries.csv": ("time", "entropy_nats"),
    "velocity.csv": ("a", "lambda", "v_s"),
    "saturation.csv": ("a", "lambda", "L", "s_sat"),
    "scaling.csv": ("a", "lambda", "alpha", "stderr"),
    "sic_profile.csv": ("coupling", "boundary", "a", "lambda", "size_A", "mi_bits"),
    "fractions.csv": ("a", "lambda", "n_e", "n_l"),
    "correlation.csv": ("figure", "pearson_r"),
    "verify.csv": ("check", "time", "size_A", "gaussian", "oracle", "abs_diff"),
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description; sweepable fields hold sorted value tuples."""

    experiment: str
    L: tuple[int, ...]
    lam: tuple[float, ...]
    a: tuple[float, ...]
    t: float = 1.0
    b: float | Fraction | None = None
    phi: float = 0.0
    boundary: str = "open"
    initial: str = "neel"
    occupations: tuple[int, ...] | None = None
    initial_seed: int | None = None
    n_random: int = 20
    coupling: str = "center"
    sizes: tuple[int, ...] | None = None
    times: tuple[float, ...] | None = None
    fit_window: tuple[float, float] = SamplingProtocol.fit_window
    fit_dt: float = SamplingProtocol.fit_dt
    burn_in: float = SamplingProtocol.burn_in
    n_samples: int = SamplingProtocol.n_samples
    mean_interval: float = SamplingProtocol.mean_interval
    jitter: float = SamplingProtocol.jitter
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        experiment = EXPERIMENTS.get(self.experiment)
        if experiment is None:
            raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {self.experiment!r}")
        for name, kind in (("L", lambda value: _config_integer("L", value)), ("lam", float), ("a", float)):
            key = _KEY_OF_FIELD.get(name, name)
            if not getattr(self, name):
                raise ConfigError(f"sweep range for '{key}' is empty")
            object.__setattr__(self, name, _sorted_distinct(key, map(kind, getattr(self, name))))
        if self.L[-1] > MAX_L:
            raise ConfigError(f"L must be at most {MAX_L}, got {self.L[-1]}")
        points = len(self.a) * len(self.lam) * len(self.L)
        if points > observables.MAX_POINTS:  # before a setup is built for each of them
            raise ConfigError(f"the sweep over a, lambda and L holds {points} points, "
                              f"more than {observables.MAX_POINTS}")
        if experiment.lengths == "point" and (len(self.L) > 1 or len(self.lam) > 1 or len(self.a) > 1):
            raise ConfigError(f"experiment '{self.experiment}' takes a single (L, lambda, a) point")
        if experiment.lengths == "single" and len(self.L) > 1:
            raise ConfigError(f"experiment '{self.experiment}' takes a single L")
        if experiment.lengths == "fit" and len(self.L) < 3:
            raise ConfigError(f"{self.experiment} needs at least 3 chain lengths")
        if experiment.max_L is not None and self.L[0] > experiment.max_L:
            raise ConfigError(f"{self.experiment} is limited to L <= {experiment.max_L}")
        if experiment.fixed_sizes and self.L[0] < observables.JUMP_SIZE:
            raise ConfigError(f"{self.experiment} needs L >= {observables.JUMP_SIZE}")
        if experiment.fixed_sizes and self.sizes is not None:
            raise ConfigError(f"sizes are fixed to {{0, {observables.JUMP_SIZE}, L}} for {self.experiment}")
        if self.sizes is not None:
            sizes = _sorted_distinct("sizes", (_config_integer("a size", size) for size in self.sizes))
            if not sizes:
                raise ConfigError("sizes is empty")
            if sizes[0] < 0 or sizes[-1] > self.L[-1]:
                raise ConfigError(f"sizes must lie in 0..L, got {sizes}")
            object.__setattr__(self, "sizes", sizes)
        if self.times is not None:
            times = _sorted_distinct("times", map(float, self.times))
            if not times:
                raise ConfigError("times is empty")
            outside = [t for t in times if not abs(t) <= observables.MAX_TIME]  # NaN too, which no comparison holds
            if outside:
                raise ConfigError(f"times must lie within +-{observables.MAX_TIME:g}, got {outside[0]:g}")
            object.__setattr__(self, "times", times)
        if self.coupling not in observables.COUPLINGS:
            raise ConfigError(f"coupling must be one of {observables.COUPLINGS}, got {self.coupling!r}")
        if self.initial == "random_product" and self.initial_seed is None:
            object.__setattr__(self, "initial_seed", 0)
        n_random, workers = _config_integer("n_random", self.n_random), _config_integer("workers", self.workers)
        if not 1 <= n_random <= observables.MAX_POINTS:  # before a setup is built for each of them
            raise ConfigError(f"n_random must lie in 1..{observables.MAX_POINTS}, got {self.n_random}")
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.protocol(self.seed)  # surfaces invalid sampling parameters early
        for a, lam, L in product(self.a, self.lam, self.L):
            reference = None if experiment.even_L else observables.reference_site_for(L, self.coupling)
            self.setup_at(a, lam, L, reference)

    def spec_at(self, a: float, lam: float, L: int) -> LatticeSpec:
        b = self.b
        if b is None:
            b = GOLDEN_INVERSE
        try:
            return LatticeSpec(L=L, lam=lam, a=a, t=self.t, b=b, phi=self.phi, boundary=self.boundary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def setup_at(self, a: float, lam: float, L: int, reference_site: int | None = None,
                 initial_seed: int | None = None) -> QuenchSetup:
        spec = self.spec_at(a, lam, L)
        try:
            return QuenchSetup(
                spec,
                initial=self.initial,
                occupations=self.occupations,
                initial_seed=self.initial_seed if initial_seed is None else initial_seed,
                reference_site=reference_site,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def protocol(self, seed: int) -> SamplingProtocol:
        """The sampling protocol of this config, seeded with `seed` (the fields share their names)."""
        settings = {f.name: getattr(self, f.name) for f in fields(SamplingProtocol) if f.name != "seed"}
        try:
            return SamplingProtocol(**settings, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        """JSON-ready echo of every field, keyed as in a config file (the manifest's `config`)."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[_KEY_OF_FIELD.get(f.name, f.name)] = list(value) if isinstance(value, tuple) else value
        if isinstance(self.b, Fraction):
            data["b"] = str(self.b)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = {_FIELD_OF_KEY.get(key, key): tuple(v) if isinstance(v, list) else v for key, v in data.items()}
        if isinstance(kwargs.get("b"), str):
            kwargs["b"] = Fraction(kwargs["b"])
        return cls(**kwargs)


def _config_integer(name: str, value) -> int:
    """`value` as an int (gaussian._integer): from the Python API, 8.5 or 2.0 is a ConfigError, not truncated."""
    try:
        return _integer(name, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sorted_distinct(key: str, values) -> tuple:
    """The values of a sweep key in ascending order; a repeated value would run one point twice."""
    values = tuple(sorted(values))
    for before, value in zip(values, values[1:]):
        if before == value:
            raise ConfigError(f"'{key}' repeats the value {value:g}")
    return values


# the one config key that differs from the ExperimentConfig field it sets
_KEY_OF_FIELD = {"lam": "lambda"}
_FIELD_OF_KEY = {key: name for name, key in _KEY_OF_FIELD.items()}


def _parse_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value.strip()!r}")
    return number


def _parse_float_list(value: str) -> tuple[float, ...]:
    value = value.strip()
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid syntax is start:stop:step, got {value!r}")
        start, stop, step = map(_parse_float, parts)
        if step <= 0 or stop < start:
            raise ValueError(f"invalid grid {value!r}")
        steps = (stop - start) / step
        if not steps < observables.MAX_POINTS - 0.5:
            raise ValueError(f"grid {value!r} holds more than {observables.MAX_POINTS} points")
        n = round(steps)
        if not math.isclose(steps, n, rel_tol=1e-9):
            raise ValueError(f"grid {value!r}: span {stop - start:g} is not a whole number of steps of {step:g}")
        return tuple(start + step * k for k in range(n + 1))
    return tuple(map(_parse_float, value.split(",")))


def _parse_int_list(value: str) -> tuple[int, ...]:
    values = _parse_float_list(value)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"expected integers, got {value!r}")
    return tuple(int(v) for v in values)


def _parse_b(value: str):
    if "/" in value:
        b = Fraction(value)
        float(b)  # an OverflowError where no float holds it
        return b
    return _parse_float(value)


def _parse_window(value: str) -> tuple[float, float]:
    parts = value.split(":")
    if len(parts) != 2:
        raise ValueError(f"window syntax is start:stop, got {value!r}")
    return _parse_float(parts[0]), _parse_float(parts[1])


def _parse_initial(value: str):
    if value.startswith("custom:"):
        bits = value[len("custom:"):].strip()
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError("custom pattern must be a 0/1 string, e.g. custom:1010")
        return "custom", tuple(int(ch) for ch in bits)
    return value, None


# parsers by field annotation; b, initial and fit_window have a syntax of their own
_TYPE_PARSERS = {"str": str, "int": int, "float": _parse_float,
                 "tuple[int, ...]": _parse_int_list, "tuple[float, ...]": _parse_float_list}
_SYNTAX_PARSERS = {"b": _parse_b, "initial": _parse_initial, "fit_window": _parse_window}

_KEY_PARSERS = {
    _KEY_OF_FIELD.get(f.name, f.name): _SYNTAX_PARSERS.get(f.name) or _TYPE_PARSERS[f.type.removesuffix(" | None")]
    for f in fields(ExperimentConfig)
    if f.name != "occupations"  # set by initial = custom:...
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key = value document into a fully-resolved config (strict mode)."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        try:
            raw[key] = _KEY_PARSERS[key](value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
    for required in ("experiment", "L", "lambda", "a"):
        if required not in raw:
            raise ConfigError(f"missing required key {required!r}")
    if "initial" in raw:
        raw["initial"], raw["occupations"] = raw["initial"]
    return ExperimentConfig.from_dict(raw)


def derived_seed(base: int, index: int) -> int:
    """Stable per-task RNG seed; identical for serial and parallel execution."""
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _realization_mean(config: ExperimentConfig, probe, a: float, lam: float, L: int,
                      reference_site: int | None = None) -> np.ndarray:
    """The mean of probe(setup) over a point's initial states: n_random seeded random products, else one."""
    seeds = [None] if config.initial != "random_product" else [
        derived_seed(config.initial_seed, k) for k in range(config.n_random)]
    return np.mean([probe(config.setup_at(a, lam, L, reference_site, initial_seed=seed)) for seed in seeds], axis=0)


def _default_sizes(L: int) -> tuple[int, ...]:
    return tuple(sorted(set(range(0, L + 1, 5)) | {L}))


def _point_spectrum(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    data = spectral.analyze(config.spec_at(a, lam, config.L[0]))
    return [
        (n + 1, data.energies[n], data.ipr[n], data.labels[n])
        for n in range(data.energies.size)
    ]


def _point_ee(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    times = config.times if config.times is not None else tuple(np.arange(0.0, 100.5, 0.5))
    entropies = _realization_mean(config, lambda s: observables.ee_timeseries(s, times).entropies, a, lam, config.L[0])
    return list(zip(times, entropies))


def _point_velocity(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    v_s = _realization_mean(config, lambda s: observables.quench_velocity(s, protocol), a, lam, config.L[0])
    return [(a, lam, float(v_s))]


def _point_saturation(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float, L: int) -> list[tuple]:
    s_sat = _realization_mean(config, lambda s: observables.saturation_value(s, protocol), a, lam, L)
    return [(a, lam, L, float(s_sat))]


def _point_scaling(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    means = [_point_saturation(config, protocol, a, lam, L)[0][3] for L in config.L]
    alpha, stderr = observables.fit_power_law(config.L, means)
    return [(a, lam, alpha, stderr)]


def _point_fractions(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    data = spectral.analyze(config.spec_at(a, lam, config.L[0]))
    return [(a, lam, data.n_e, data.n_l)]


def _point_sic(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    L = config.L[0]
    if EXPERIMENTS[config.experiment].fixed_sizes:
        sizes = tuple(sorted({0, observables.JUMP_SIZE, L}))
    else:
        sizes = config.sizes if config.sizes is not None else _default_sizes(L)
    mi = _realization_mean(config, lambda s: observables.sic_profile(s, sizes, config.coupling, protocol).mi,
                           a, lam, L, observables.reference_site_for(L, config.coupling))
    return [
        (config.coupling, config.boundary, a, lam, int(size), float(value))
        for size, value in zip(sizes, mi)
    ]


def _point_verify(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    """The Gaussian kernel's entropies and I(A:R) against the oracle's, on the same sets and times."""
    L = config.L[0]
    setup = config.setup_at(a, lam, L)
    half = [observables.half_chain_sites(L)]
    times = config.times if config.times is not None else (0.5, 1.0, 2.0, 5.0, 10.0)
    gauss = observables.ee_timeseries(setup, times).entropies
    sectors = oracle.ChainSectors(setup.spec)  # both checks' chain: each sector diagonalised once
    exact = oracle.exact_entropies(setup, half, times, sectors)[:, 0]
    rows = [("ee", t, len(half[0]), g, e, abs(g - e)) for t, g, e in zip(times, gauss, exact)]

    if L + 1 <= oracle.MAX_MODES:
        setup_r = config.setup_at(a, lam, L, reference_site=observables.reference_site_for(L, "center"))
        windows = [observables.subsystem_window(L, "center", size) for size in range(L + 1)]
        times = (1.0, 3.0, 7.0)
        gauss = observables.information_table(setup_r, windows, times)
        exact = reference_information(windows, L + 1, lambda sets: oracle.exact_entropies(setup_r, sets, times, sectors))
        rows += [("sic", t, size, g, e, abs(g - e))
                 for t, g_t, e_t in zip(times, gauss, exact) for size, (g, e) in enumerate(zip(g_t, e_t))]
    return rows


def _verify_summary(rows: list[tuple]) -> dict:
    max_abs_delta = max(row[5] for row in rows)
    return {"max_abs_delta": max_abs_delta, "verify_passed": bool(max_abs_delta <= _ORACLE_TOLERANCE),
            "verify_checks": list(dict.fromkeys(row[0] for row in rows))}


@dataclass(frozen=True)
class Experiment:
    """How one experiment sweeps, which configs it accepts and which CSV it writes."""

    point: Callable[..., list[tuple]]  # (config, the point's seeded protocol, a, lambda[, L]) -> CSV rows
    output: str
    # how L enters: "point" is one (L, lambda, a) point that raises instead of recording a failure,
    # "single" sweeps (a, lambda) at one L, "swept" adds L to the sweep, "fit" gives each point all (>= 3) L
    lengths: str
    even_L: bool  # a half-filling quench without a reference mode
    max_L: int | None = None
    fixed_sizes: bool = False  # sizes are {0, JUMP_SIZE, L}, so L >= JUMP_SIZE; the sizes key is rejected
    # on a lambda sweep at single a and L: (correlation.csv figure, fraction attribute, rows -> {lambda: value})
    figure: tuple[str, str, Callable[[list[tuple]], dict]] | None = None
    summary: Callable[[list[tuple]], dict] | None = None  # rows -> extra manifest keys


EXPERIMENTS = {
    "spectrum": Experiment(_point_spectrum, "spectrum.csv", "point", even_L=False),
    "ee": Experiment(_point_ee, "ee_timeseries.csv", "point", even_L=True),
    "velocity": Experiment(_point_velocity, "velocity.csv", "single", even_L=True),
    "saturation": Experiment(_point_saturation, "saturation.csv", "swept", even_L=True,
                             figure=("s_sat_vs_n_e", "n_e", lambda rows: {r[1]: r[3] for r in rows})),
    "scaling": Experiment(_point_scaling, "scaling.csv", "fit", even_L=True),
    "sic_profile": Experiment(_point_sic, "sic_profile.csv", "single", even_L=False),
    "sic_jump": Experiment(_point_sic, "sic_profile.csv", "single", even_L=False, fixed_sizes=True,
                           figure=("sic_jump_vs_n_l", "n_l",
                                   lambda rows: {r[3]: r[5] for r in rows if r[4] == observables.JUMP_SIZE})),
    "fractions": Experiment(_point_fractions, "fractions.csv", "single", even_L=False),
    "verify": Experiment(_point_verify, "verify.csv", "point", even_L=True, max_L=oracle.MAX_MODES,
                         summary=_verify_summary),
}


def _run_point(payload) -> tuple[list[tuple], dict | None, float]:
    """The point's CSV rows, or no rows and the failure record for the manifest; and its wall time."""
    config, index, point = payload
    experiment = EXPERIMENTS[config.experiment]
    t0 = time.perf_counter()
    try:
        rows, failure = experiment.point(config, config.protocol(derived_seed(config.seed, index)), *point), None
    except Exception as exc:  # recorded in the manifest; the sweep continues
        if experiment.lengths == "point":
            raise  # a single-point run has no sweep to continue
        rows, failure = [], {"point_index": index, "params": list(point), "error": f"{type(exc).__name__}: {exc}"}
    return rows, failure, time.perf_counter() - t0


def _format_cell(value) -> str:
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, name: str, rows: list[tuple]) -> dict:
    header = _SCHEMAS[name]
    with open(path / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    digest = hashlib.sha256((path / name).read_bytes()).hexdigest()
    return {"file": name, "rows": len(rows), "sha256": digest}


def _write_figure(out: Path, config: ExperimentConfig, figure, rows: list, failures: list) -> tuple[list, str | None]:
    """fractions.csv and the Pearson row tying a lambda sweep at single a and L to them, or no files and why
    not; ([], None) where the experiment draws no figure or the sweep has another shape."""
    if figure is None or len(config.a) != 1 or len(config.L) != 1 or len(config.lam) < 3:
        return [], None
    if failures:
        return [], f"{len(failures)} sweep point(s) failed"
    name, fraction, by_lambda = figure
    keyed = by_lambda(rows)
    fractions = [
        spectral.analyze(config.spec_at(config.a[0], lam, config.L[0])) for lam in config.lam
    ]
    values = [keyed[lam] for lam in config.lam]
    try:
        corr = [(name, observables.pearson(values, [getattr(d, fraction) for d in fractions]))]
    except ValueError as exc:  # a degenerate sweep: nothing meaningful to report
        return [], str(exc)
    fraction_rows = [(config.a[0], lam, d.n_e, d.n_l) for lam, d in zip(config.lam, fractions)]
    return [_write_csv(out, "fractions.csv", fraction_rows), _write_csv(out, "correlation.csv", corr)], None


def _run_points(config: ExperimentConfig, experiment: Experiment) -> tuple[list[tuple], list[dict], list[float], dict]:
    """The sweep's rows, its failure records, the wall time of each point (in payload order)
    and the thread setup it ran with: the BLAS thread cap of each pool worker and the
    threads `entropies` could spread its chunks over."""
    axes = (config.a, config.lam, config.L) if experiment.lengths == "swept" else (config.a, config.lam)
    payloads = [(config, index, point) for index, point in enumerate(product(*axes))]
    if config.workers == 1 or len(payloads) == 1:
        results, cap, threads = [_run_point(p) for p in payloads], "uncapped", _blas_threads() or 1
    else:
        # imported here: multiprocessing costs every serial run about 1.4 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        # at most one process per point: with fork, the pool starts all of its processes at the first submit
        workers = min(config.workers, len(payloads))
        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads) as pool:
            results = list(pool.map(_run_point, payloads))  # in payload order
        cap = 1 if _blas_threads() is not None else "uncapped"
        threads = 1  # one BLAS thread per worker, or uncapped: either way entropies stays serial
    rows = [row for point_rows, _, _ in results for row in point_rows]
    failures = [failure for _, failure, _ in results if failure is not None]
    return rows, failures, [wall for _, _, wall in results], {"blas_threads_per_worker": cap,
                                                              "entropy_threads": threads}


def _environment(config: ExperimentConfig, threads: dict) -> dict:
    """The library and machine setup of a run (the manifest's `environment`)."""
    import platform  # imported here, off the start-up path of every `gaa` command

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name"),
        "blas_threads": _blas_threads(),
        "lapack_pairs": _blas._kernel_routines() is not None,  # zherk, zhetrd and dsterf found (see gaussian.entropies)
        "cpu_count": os.cpu_count(),
        "workers": config.workers,
        **threads,
    }


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute the configured experiment; returns (and writes) the run manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    experiment = EXPERIMENTS[config.experiment]
    rows, failures, point_wall_s, threads = _run_points(config, experiment)
    outputs = [_write_csv(out, experiment.output, rows)]
    figure, figure_skipped = _write_figure(out, config, experiment.figure, rows, failures)
    manifest = {
        "experiment": config.experiment,
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "started": started,
        "wall_time_s": time.perf_counter() - t0,
        "point_wall_s": point_wall_s,
        "outputs": outputs + figure,
        "failures": failures,
        "environment": _environment(config, threads),
    }
    if figure_skipped is not None:
        manifest["figure_skipped"] = figure_skipped
    if experiment.summary is not None:
        manifest.update(experiment.summary(rows))
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
