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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, observables, oracle, spectral
from .gaussian import INITIAL_STATES, QuenchSetup, _embed_reference, mutual_information, quench_evolution, subsystem_entropy
from .model import GOLDEN_INVERSE, LatticeSpec, build_hamiltonian
from .observables import SamplingProtocol

_ORACLE_TOLERANCE = 1e-8

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
    fit_window: tuple[float, float] = (0.0, 20.0)
    fit_dt: float = 0.5
    burn_in: float = 10000.0
    n_samples: int = 1000
    mean_interval: float = 10.0
    jitter: float = 5.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        experiment = EXPERIMENTS.get(self.experiment)
        if experiment is None:
            raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {self.experiment!r}")
        for name, values in (("L", self.L), ("lambda", self.lam), ("a", self.a)):
            if not values:
                raise ConfigError(f"sweep range for '{name}' is empty")
        object.__setattr__(self, "L", tuple(sorted(int(v) for v in self.L)))
        object.__setattr__(self, "lam", tuple(sorted(float(v) for v in self.lam)))
        object.__setattr__(self, "a", tuple(sorted(float(v) for v in self.a)))
        if any(L < 2 for L in self.L):
            raise ConfigError("all L must be >= 2")
        if experiment.even_L and any(L % 2 for L in self.L):
            raise ConfigError(f"odd L invalid for experiment '{self.experiment}' (half filling)")
        if experiment.lengths == "point" and (len(self.L) > 1 or len(self.lam) > 1 or len(self.a) > 1):
            raise ConfigError(f"experiment '{self.experiment}' takes a single (L, lambda, a) point")
        if experiment.lengths == "single" and len(self.L) > 1:
            raise ConfigError(f"experiment '{self.experiment}' takes a single L")
        if experiment.lengths == "fit" and len(self.L) < 3:
            raise ConfigError(f"{self.experiment} needs at least 3 chain lengths")
        if experiment.max_L is not None and self.L[0] > experiment.max_L:
            raise ConfigError(f"{self.experiment} is limited to L <= {experiment.max_L}")
        if experiment.min_L is not None and self.L[0] < experiment.min_L:
            raise ConfigError(f"{self.experiment} needs L >= {experiment.min_L}")
        if experiment.fixed_sizes and self.sizes is not None:
            raise ConfigError(f"sizes are fixed to {{0, {observables.JUMP_SIZE}, L}} for {self.experiment}")
        if self.sizes is not None:
            sizes = tuple(sorted(int(s) for s in self.sizes))
            if not sizes:
                raise ConfigError("sizes is empty")
            if sizes[0] < 0 or sizes[-1] > self.L[-1]:
                raise ConfigError(f"sizes must lie in 0..L, got {sizes}")
            object.__setattr__(self, "sizes", sizes)
        if self.times is not None and not self.times:
            raise ConfigError("times is empty")
        if self.initial not in INITIAL_STATES:
            raise ConfigError(f"initial must be one of {INITIAL_STATES}, got {self.initial!r}")
        if self.coupling not in observables.COUPLINGS:
            raise ConfigError(f"coupling must be one of {observables.COUPLINGS}, got {self.coupling!r}")
        if self.initial == "random_product" and self.initial_seed is None:
            object.__setattr__(self, "initial_seed", 0)
        if self.n_random < 1:
            raise ConfigError("n_random must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.boundary == "periodic" and not isinstance(self.b, Fraction):
            raise ConfigError("periodic boundary requires b as a rational p/q (e.g. b = 144/233)")
        self.protocol(self.seed)  # surfaces invalid sampling parameters early
        self.spec_at(self.a[0], self.lam[0], self.L[0])  # surfaces invalid lattice parameters

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
        return QuenchSetup(
            self.spec_at(a, lam, L),
            initial=self.initial,
            occupations=self.occupations,
            initial_seed=self.initial_seed if initial_seed is None else initial_seed,
            reference_site=reference_site,
        )

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


# the one config key that differs from the ExperimentConfig field it sets
_KEY_OF_FIELD = {"lam": "lambda"}
_FIELD_OF_KEY = {key: name for name, key in _KEY_OF_FIELD.items()}


def _parse_float_list(value: str) -> tuple[float, ...]:
    value = value.strip()
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid syntax is start:stop:step, got {value!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start or not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"invalid grid {value!r}")
        steps = (stop - start) / step
        n = round(steps)
        if not math.isclose(steps, n, rel_tol=1e-9):
            raise ValueError(f"grid {value!r}: span {stop - start:g} is not a whole number of steps of {step:g}")
        return tuple(start + step * k for k in range(n + 1))
    return tuple(float(p) for p in value.split(","))


def _parse_int_list(value: str) -> tuple[int, ...]:
    values = _parse_float_list(value)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"expected integers, got {value!r}")
    return tuple(int(v) for v in values)


def _parse_b(value: str):
    if "/" in value:
        return Fraction(value)
    return float(value)


def _parse_window(value: str) -> tuple[float, float]:
    parts = value.split(":")
    if len(parts) != 2:
        raise ValueError(f"window syntax is start:stop, got {value!r}")
    return float(parts[0]), float(parts[1])


def _parse_initial(value: str):
    if value.startswith("custom:"):
        bits = value[len("custom:"):].strip()
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError("custom pattern must be a 0/1 string, e.g. custom:1010")
        return "custom", tuple(int(ch) for ch in bits)
    return value, None


# parsers by field annotation; b, initial and fit_window have a syntax of their own
_TYPE_PARSERS = {"str": str, "int": int, "float": float,
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


def _realization_setups(config: ExperimentConfig, a: float, lam: float, L: int,
                        reference_site: int | None = None) -> list[QuenchSetup]:
    """The initial states a point averages over (n_random for random products, else one)."""
    if config.initial != "random_product":
        return [config.setup_at(a, lam, L, reference_site)]
    return [
        config.setup_at(a, lam, L, reference_site, initial_seed=derived_seed(config.initial_seed, k))
        for k in range(config.n_random)
    ]


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
    setups = _realization_setups(config, a, lam, config.L[0])
    series = [observables.ee_timeseries(s, times) for s in setups]
    entropies = np.mean([s.entropies for s in series], axis=0)
    return list(zip(times, entropies))


def _point_velocity(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    values = [observables.quench_velocity(s, protocol) for s in _realization_setups(config, a, lam, config.L[0])]
    return [(a, lam, float(np.mean(values)))]


def _point_saturation(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float, L: int) -> list[tuple]:
    values = [observables.saturation_value(s, protocol) for s in _realization_setups(config, a, lam, L)]
    return [(a, lam, L, float(np.mean(values)))]


def _point_scaling(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    means = []
    for L in config.L:
        values = [observables.saturation_value(s, protocol) for s in _realization_setups(config, a, lam, L)]
        means.append(float(np.mean(values)))
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
    reference = observables.reference_site_for(L, config.coupling)
    profiles = [
        observables.sic_profile(s, sizes, config.coupling, protocol)
        for s in _realization_setups(config, a, lam, L, reference)
    ]
    mi = np.mean([p.mi for p in profiles], axis=0)
    return [
        (config.coupling, config.boundary, a, lam, int(size), float(value))
        for size, value in zip(sizes, mi)
    ]


def _point_verify(config: ExperimentConfig, protocol: SamplingProtocol, a: float, lam: float) -> list[tuple]:
    L = config.L[0]
    rows = []

    setup = config.setup_at(a, lam, L)
    h = build_hamiltonian(setup.spec)
    ev = quench_evolution(setup)
    basis, psi0 = oracle.initial_state(setup)
    hamiltonian = oracle.many_body_hamiltonian(h, basis)
    half = observables.half_chain_sites(L)
    times = config.times if config.times is not None else (0.5, 1.0, 2.0, 5.0, 10.0)
    for t in times:
        s_gauss = subsystem_entropy(ev.correlation_at(t), half)
        s_exact = oracle.exact_entropy(oracle.exact_evolve(psi0, hamiltonian, t), basis, half)
        rows.append(("ee", t, len(half), s_gauss, s_exact, abs(s_gauss - s_exact)))

    if L + 1 <= oracle.MAX_MODES:
        reference = observables.reference_site_for(L, "center")
        setup_r = config.setup_at(a, lam, L, reference_site=reference)
        ev_r = quench_evolution(setup_r)
        basis_r, psi0_r = oracle.initial_state(setup_r)
        hamiltonian_r = oracle.many_body_hamiltonian(_embed_reference(h, L + 1), basis_r)
        for t in (1.0, 3.0, 7.0):
            c = ev_r.correlation_at(t)
            psi_t = oracle.exact_evolve(psi0_r, hamiltonian_r, t)
            for size in range(L + 1):
                window = observables.subsystem_window(L, "center", size)
                i_gauss = mutual_information(c, window)
                i_exact = oracle.exact_mutual_information(psi_t, basis_r, window, L + 1)
                rows.append(("sic", t, size, i_gauss, i_exact, abs(i_gauss - i_exact)))
    return rows


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
    min_L: int | None = None
    fixed_sizes: bool = False  # sizes are {0, JUMP_SIZE, L}; the sizes key is rejected
    # on a lambda sweep at single a and L: (correlation.csv figure, fraction attribute, rows -> {lambda: value})
    figure: tuple[str, str, Callable[[list[tuple]], dict]] | None = None


EXPERIMENTS = {
    "spectrum": Experiment(_point_spectrum, "spectrum.csv", "point", even_L=False),
    "ee": Experiment(_point_ee, "ee_timeseries.csv", "point", even_L=True),
    "velocity": Experiment(_point_velocity, "velocity.csv", "single", even_L=True),
    "saturation": Experiment(_point_saturation, "saturation.csv", "swept", even_L=True,
                             figure=("s_sat_vs_n_e", "n_e", lambda rows: {r[1]: r[3] for r in rows})),
    "scaling": Experiment(_point_scaling, "scaling.csv", "fit", even_L=True),
    "sic_profile": Experiment(_point_sic, "sic_profile.csv", "single", even_L=False),
    "sic_jump": Experiment(_point_sic, "sic_profile.csv", "single", even_L=False,
                           min_L=observables.JUMP_SIZE, fixed_sizes=True,
                           figure=("sic_jump_vs_n_l", "n_l",
                                   lambda rows: {r[3]: r[5] for r in rows if r[4] == observables.JUMP_SIZE})),
    "fractions": Experiment(_point_fractions, "fractions.csv", "single", even_L=False),
    "verify": Experiment(_point_verify, "verify.csv", "point", even_L=True, max_L=oracle.MAX_MODES),
}


def _run_point(payload) -> tuple[list[tuple], dict | None]:
    """The point's CSV rows, or no rows and the failure record for the manifest."""
    config, index, point = payload
    experiment = EXPERIMENTS[config.experiment]
    try:
        return experiment.point(config, config.protocol(derived_seed(config.seed, index)), *point), None
    except Exception as exc:  # recorded in the manifest; the sweep continues
        if experiment.lengths == "point":
            raise  # a single-point run has no sweep to continue
        return [], {"point_index": index, "params": list(point), "error": f"{type(exc).__name__}: {exc}"}


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


def _write_figure(out: Path, config: ExperimentConfig, figure, rows: list[tuple]) -> list[dict]:
    """fractions.csv and the Pearson row tying a lambda sweep to them (single a, single L)."""
    if len(config.a) != 1 or len(config.L) != 1 or len(config.lam) < 3:
        return []
    name, fraction, by_lambda = figure
    keyed = by_lambda(rows)
    fractions = [
        spectral.analyze(config.spec_at(config.a[0], lam, config.L[0])) for lam in config.lam
    ]
    values = [keyed[lam] for lam in config.lam]
    try:
        corr = [(name, observables.pearson(values, [getattr(d, fraction) for d in fractions]))]
    except ValueError:
        return []  # degenerate sweep; nothing meaningful to report
    fraction_rows = [(config.a[0], lam, d.n_e, d.n_l) for lam, d in zip(config.lam, fractions)]
    return [_write_csv(out, "fractions.csv", fraction_rows), _write_csv(out, "correlation.csv", corr)]


def _run_points(config: ExperimentConfig, experiment: Experiment) -> tuple[list[tuple], list[dict]]:
    axes = (config.a, config.lam, config.L) if experiment.lengths == "swept" else (config.a, config.lam)
    payloads = [(config, index, point) for index, point in enumerate(product(*axes))]
    if config.workers == 1 or len(payloads) == 1:
        results = [_run_point(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_point, payloads))  # in payload order
    rows = [row for point_rows, _ in results for row in point_rows]
    return rows, [failure for _, failure in results if failure is not None]


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute the configured experiment; returns (and writes) the run manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    experiment = EXPERIMENTS[config.experiment]
    rows, failures = _run_points(config, experiment)
    outputs = [_write_csv(out, experiment.output, rows)]
    if experiment.figure is not None and not failures:
        outputs += _write_figure(out, config, experiment.figure, rows)
    manifest = {
        "experiment": config.experiment,
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "started": started,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
        "failures": failures,
    }
    if config.experiment == "verify":
        manifest["max_abs_delta"] = max(row[5] for row in rows)
        manifest["verify_passed"] = bool(manifest["max_abs_delta"] <= _ORACLE_TOLERANCE)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
