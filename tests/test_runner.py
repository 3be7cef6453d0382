import concurrent.futures
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from gaaquench import _blas, observables, runner, spectral
from gaaquench.cli import main
from gaaquench.gaussian import QuenchSetup
from gaaquench.model import GOLDEN_INVERSE
from gaaquench.runner import ConfigError, ExperimentConfig, parse_config, run
from kernel_references import KERNEL_SYMBOLS

VELOCITY_TOY = """
experiment = velocity
L = 8
a = 0, 0.3
lambda = 0:1:0.5
seed = 3
"""

# every key set away from its default (boundary aside: a float b needs an open chain)
NON_DEFAULT = """
experiment = sic_profile
L = 8
lambda = 0.5, 1.5
a = 0.1, 0.3
t = 0.9
b = 0.3
phi = 0.25
initial = custom:10110010
initial_seed = 7
n_random = 4
coupling = edge
sizes = 0, 4, 8
times = 0:2:0.5
fit_window = 1:9
fit_dt = 0.25
burn_in = 500
n_samples = 40
mean_interval = 4
jitter = 1.5
seed = 11
workers = 3
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config("experiment = spectrum\nL = 200\na = 0.3\nlambda = 1.0\n")
        assert config.t == 1.0
        assert config.phi == 0.0
        assert config.b is None  # resolved to the inverse golden ratio per spec
        assert config.spec_at(0.3, 1.0, 200).b == pytest.approx(GOLDEN_INVERSE)
        assert config.boundary == "open"
        assert config.initial == "neel"
        assert config.workers == 1

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# sweep\nexperiment = velocity\n\nL = 8  # small chain\na = 0\nlambda = 0, 1\n"
        )
        assert config.lam == (0.0, 1.0)

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'lamda'"):
            parse_config("experiment = spectrum\nL = 8\nlamda = 1.0\na = 0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("experiment = spectrum\nL = 8\nL = 10\na = 0\nlambda = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'lambda'"):
            parse_config("experiment = spectrum\nL = 8\na = 0\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("experiment = spectrum\njust some words\n")

    def test_grid_syntax_inclusive(self):
        config = parse_config("experiment = fractions\nL = 8\na = 0.3\nlambda = 0:2:0.1\n")
        assert len(config.lam) == 21
        assert config.lam[0] == 0.0
        assert config.lam[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("lines, key", [
        ("L = 100.5\n", "L"),
        ("L = 8, 9.5\n", "L"),
        ("L = 8\nsizes = 2.6\n", "sizes"),
    ], ids=["L", "L-list", "sizes"])
    def test_non_integer_rejected(self, lines, key):
        with pytest.raises(ConfigError, match=rf"line \d: key '{key}': expected integers"):
            parse_config("experiment = sic_profile\na = 0\nlambda = 1\n" + lines)

    @pytest.mark.parametrize("lines, key", [
        ("L = 80:240:60\nlambda = 1\n", "L"),
        ("L = 8, 10, 12\nlambda = 0:1:0.35\n", "lambda"),
        ("L = 8, 10, 12\nlambda = 0:inf:1\n", "lambda"),
        ("L = 8, 10, 12\nlambda = 0:1:inf\n", "lambda"),
        ("L = 8, 10, 12\nlambda = 0:1:1e-320\n", "lambda"),
    ], ids=["L-overshoots", "lambda-overshoots", "lambda-infinite-stop", "lambda-infinite-step",
            "lambda-step-count-overflows"])
    def test_grid_must_span_whole_steps(self, lines, key):
        with pytest.raises(ConfigError, match=rf"line \d: key '{key}'"):
            parse_config("experiment = scaling\na = 0\n" + lines)

    def test_exact_grids_unchanged(self):
        config = parse_config("experiment = scaling\nL = 80:240:40\na = 0\nlambda = 0:1:0.5\n")
        assert config.L == (80, 120, 160, 200, 240)
        assert config.lam == (0.0, 0.5, 1.0)

    def test_odd_L_rejected_for_half_filling_quenches(self):
        with pytest.raises(ConfigError, match="odd L"):
            parse_config("experiment = velocity\nL = 9\na = 0\nlambda = 1\n")

    def test_periodic_rational_b_accepted(self):
        config = parse_config(
            "experiment = sic_profile\nL = 233\na = 0\nlambda = 0.5\n"
            "boundary = periodic\nb = 144/233\ncoupling = edge\n"
        )
        assert config.b == Fraction(144, 233)
        assert config.spec_at(0.0, 0.5, 233).boundary == "periodic"

    def test_periodic_requires_rational_b(self):
        with pytest.raises(ConfigError, match="rational"):
            parse_config("experiment = spectrum\nL = 8\na = 0\nlambda = 1\nboundary = periodic\n")

    def test_custom_initial_pattern(self):
        config = parse_config(
            "experiment = ee\nL = 4\na = 0\nlambda = 1\ninitial = custom:1100\n"
        )
        assert config.initial == "custom"
        assert config.occupations == (1, 1, 0, 0)

    def test_invalid_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("experiment = warp\nL = 8\na = 0\nlambda = 1\n")

    def test_scaling_needs_three_sizes(self):
        with pytest.raises(ConfigError, match="at least 3"):
            parse_config("experiment = scaling\nL = 100, 200\na = 0\nlambda = 0.5\n")

    @pytest.mark.parametrize("text, key, value", [
        ("experiment = saturation\nL = 8\na = 0\nlambda = 0.5, 0.5, 1.5\n", "lambda", "0.5"),
        ("experiment = fractions\nL = 8\na = 0.3, 0.1, 0.3\nlambda = 1\n", "a", "0.3"),
        ("experiment = sic_profile\nL = 8\na = 0\nlambda = 0.5\nsizes = 5, 5\n", "sizes", "5"),
        ("experiment = scaling\nL = 8, 8, 8\na = 0\nlambda = 0.5\n", "L", "8"),
        ("experiment = scaling\nL = 8, 8, 12\na = 0\nlambda = 0.5\n", "L", "8"),
    ], ids=["lambda", "a", "sizes", "scaling-one-L", "scaling-L-twice"])
    def test_repeated_sweep_value_rejected(self, text, key, value):
        # each used to run one point twice: duplicate rows, a Pearson row over a repeated point, a fit that
        # counts one length twice, or 3 "lengths" that fail at run time in fit_power_law
        with pytest.raises(ConfigError, match=rf"^'{key}' repeats the value {value}$"):
            parse_config(text)

    def test_repeated_time_rejected(self):
        # used to write the row at t = 1 twice and out of time order
        with pytest.raises(ConfigError, match=r"^'times' repeats the value 1$"):
            parse_config("experiment = ee\nL = 8\na = 0\nlambda = 1\ntimes = 2, 1, 1\n")

    def test_times_sorted(self):
        assert parse_config("experiment = verify\nL = 8\na = 0\nlambda = 1\ntimes = 2, 1\n").times == (1.0, 2.0)

    def test_sic_jump_needs_the_probe_size(self):
        # below |A| = 5 every point would fail at run time and leave an empty CSV
        with pytest.raises(ConfigError, match=f"L >= {observables.JUMP_SIZE}"):
            parse_config("experiment = sic_jump\nL = 4\na = 0.3\nlambda = 0.5, 1, 2\n")
        config = parse_config(f"experiment = sic_jump\nL = {observables.JUMP_SIZE}\na = 0.3\nlambda = 1\n")
        assert config.L == (observables.JUMP_SIZE,)

    @pytest.mark.parametrize("key, value", [
        ("lambda", "nan"), ("phi", "nan"), ("t", "nan"), ("burn_in", "nan"), ("times", "0, nan"),
        ("a", "0, inf"), ("b", "nan"), ("fit_window", "0:inf"), ("jitter", "-inf"), ("mean_interval", "1e999"),
    ])
    def test_non_finite_floats_rejected(self, key, value):
        # each of these used to parse, and then every point failed inside eigh
        keys = {"experiment": "ee", "L": "8", "a": "0.3", "lambda": "1", key: value}
        with pytest.raises(ConfigError, match=rf"key '{key}': expected a finite number"):
            parse_config("".join(f"{k} = {v}\n" for k, v in keys.items()))

    @pytest.mark.parametrize("text, message", [
        ("experiment = fractions\nL = 8\na = 0.3, 1.5\nlambda = 1\n", r"a=1\.5"),
        ("experiment = saturation\nL = 8, 10\na = 0\nlambda = 1\nboundary = periodic\nb = 1/4\n",
         "does not divide L=10"),
    ], ids=["second-a", "second-L"])
    def test_every_sweep_lattice_validated(self, text, message):
        # the first (a, L) point is valid; the sweep used to run and record the rest as failures
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("text, message", [
        ("experiment = saturation\nL = 8\na = 0\nlambda = 0.5, 1\ninitial = custom:1100\n", "length L"),
        ("experiment = sic_profile\nL = 8\na = 0\nlambda = 0.5, 1\ninitial = custom:1100\n", "length L"),
        ("experiment = velocity\nL = 8\na = 0\nlambda = 0.5, 1\ninitial = custom:11111111\n", "L/2 particles"),
        ("experiment = scaling\nL = 8, 10, 12\na = 0\nlambda = 0.5\ninitial = custom:11110000\n", "length L"),
    ], ids=["saturation-length", "sic-length", "velocity-count", "scaling-second-L"])
    def test_every_sweep_initial_pattern_validated(self, text, message):
        # each of these used to parse, and then every point failed on its initial pattern
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_coupling_checked_without_a_reference(self):
        # velocity attaches no reference, so no setup it builds reads the coupling
        with pytest.raises(ConfigError, match="coupling must be one of"):
            parse_config("experiment = velocity\nL = 8\na = 0\nlambda = 1\ncoupling = middle\n")

    @pytest.mark.parametrize("line", ["seed = -1", "initial_seed = -1"])
    def test_negative_seed_rejected(self, line):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config(f"experiment = velocity\nL = 8\na = 0\nlambda = 1\ninitial = random_product\n{line}\n")
        with pytest.raises(ConfigError, match="non-negative"):
            replace(parse_config(VELOCITY_TOY), seed=-1)

    def test_bad_protocol_surfaces(self):
        with pytest.raises(ConfigError, match="jitter"):
            parse_config(
                "experiment = velocity\nL = 8\na = 0\nlambda = 1\nmean_interval = 2\njitter = 5\n"
            )

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ConfigError, match="burn_in must be non-negative"):
            parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\nburn_in = -5\n")
        assert parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\nburn_in = 0\n").burn_in == 0.0

    def test_sampling_defaults_are_the_protocol_defaults(self):
        config = parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\n")
        assert config.protocol(config.seed) == observables.SamplingProtocol()

    @pytest.mark.parametrize("values", ["1e308", "-1e308, 0.5", "0.5, 1e308, 1", "0.5, 1, 1e308"])
    def test_overflowing_potential_rejected_at_every_lambda(self, values):
        # each used to parse, and the point at 1e308 then failed inside eigh
        with pytest.raises(ConfigError, match=r"potential overflows at lambda = -?1e\+308"):
            parse_config(f"experiment = saturation\nL = 8\na = 0.3\nlambda = {values}\n")

    @pytest.mark.parametrize("line, message", [
        ("fit_dt = 1e-300", "holds more than 100000 times"),
        ("fit_window = 0:100000\nfit_dt = 1", "holds more than 100000 times"),
        ("n_samples = 100001", r"n_samples must lie in 2\.\.100000"),
    ])
    def test_oversized_time_tables_rejected(self, line, message):
        # fit_dt = 1e-300 used to parse, and then every point failed with "Maximum allowed size exceeded"
        with pytest.raises(ConfigError, match=message):
            parse_config(f"experiment = velocity\nL = 8\na = 0\nlambda = 1\n{line}\n")

    def test_n_random_bounded(self):
        # n_random = 10^11 used to parse, and the run then built that many setups per point
        text = "experiment = velocity\nL = 8\na = 0\nlambda = 1\ninitial = random_product\nn_random = {}\n"
        assert parse_config(text.format(observables.MAX_POINTS)).n_random == observables.MAX_POINTS
        for value in (observables.MAX_POINTS + 1, 10**11, 0):
            with pytest.raises(ConfigError, match=r"n_random must lie in 1\.\.100000"):
                parse_config(text.format(value))

    @pytest.mark.parametrize("value", [2.5, 2.0])
    @pytest.mark.parametrize("field", ["n_random", "workers"])
    def test_integer_fields_checked_from_the_python_api(self, field, value):
        # replace(config, n_random=2.5) used to be accepted, and every point then failed with a TypeError
        # from range; workers = 2.5 was accepted too
        config = parse_config("experiment = velocity\nL = 8\na = 0\nlambda = 1\ninitial = random_product\n")
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value}"):
            replace(config, **{field: value})

    def test_chain_length_checked_from_the_python_api(self):
        # replace(config, L=(8.5,)) used to parse to L = (8,): __post_init__ truncated with int
        config = parse_config("experiment = spectrum\nL = 8\na = 0\nlambda = 1\n")
        assert replace(config, L=(np.int64(9),)).L == (9,)
        for value in (8.5, 8.0):
            with pytest.raises(ConfigError, match=f"L must be an integer, got {value}"):
                replace(config, L=(value,))

    def test_sizes_checked_from_the_python_api(self):
        # replace(config, sizes=(0, 2.5)) used to parse to sizes = (0, 2)
        config = parse_config("experiment = sic_profile\nL = 8\na = 0\nlambda = 1\nsizes = 0, 2\n")
        assert replace(config, sizes=(np.int64(3), 0)).sizes == (0, 3)
        for value in (2.5, 2.0):
            with pytest.raises(ConfigError, match=f"a size must be an integer, got {value}"):
                replace(config, sizes=(0, value))

    def test_fit_window_shorter_than_fit_dt_rejected(self, tmp_path):
        # 0:0.2 used to parse, and then every velocity point failed with "fewer than 2 samples inside the fit window"
        text = "experiment = velocity\nL = 8\na = 0\nlambda = 0.5, 1\nfit_window = {}\n"
        with pytest.raises(ConfigError, match=r"fit_window \(0\.0, 0\.4\) is shorter than fit_dt 0\.5"):
            parse_config(text.format("0:0.4"))
        path = write_config(tmp_path, text.format("0:0.5"))
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert not manifest["failures"] and manifest["outputs"][0]["rows"] == 2

    def test_oversized_grid_rejected_quickly(self):
        started = time.perf_counter()
        with pytest.raises(ConfigError, match=r"line 5: key 'times': .* more than 100000"):
            parse_config("experiment = ee\nL = 8\na = 0\nlambda = 1\ntimes = 0:1:1e-9\n")
        assert time.perf_counter() - started < 1.0
        grid = "experiment = ee\nL = 8\na = 0\nlambda = 1\ntimes = 0:{}:1\n"
        assert len(parse_config(grid.format(observables.MAX_POINTS - 1)).times) == observables.MAX_POINTS
        with pytest.raises(ConfigError, match="line 5: key 'times'"):
            parse_config(grid.format(observables.MAX_POINTS))
        # (stop - start) / step = 99999.00000000001: the rounded count, 10^5, is accepted
        hair = "experiment = ee\nL = 8\na = 0\nlambda = 1\ntimes = 0:9999.900000000001:0.1\n"
        assert len(parse_config(hair).times) == observables.MAX_POINTS

    def test_chain_length_bounded(self):
        # L = 10^9 used to parse in about 1 ms, and the run would then diagonalise an L x L Hamiltonian
        text = "experiment = spectrum\nL = {}\na = 0\nlambda = 1\n"
        assert parse_config(text.format(runner.MAX_L)).L == (10**4,)
        for L in (runner.MAX_L + 1, 10**9):
            with pytest.raises(ConfigError, match=f"L must be at most 10000, got {L}"):
                parse_config(text.format(L))
        with pytest.raises(ConfigError, match="L must be at most 10000, got 10001"):
            parse_config("experiment = saturation\nL = 8, 10001\na = 0\nlambda = 1\n")

    @pytest.mark.parametrize("lines", [
        "mean_interval = 1e308\njitter = 0\nn_samples = 10",
        "burn_in = 99850.000001\nn_samples = 10",
        "fit_window = 0:2e6\nfit_dt = 1e4",
    ], ids=["mean_interval", "burn_in", "fit_window"])
    def test_late_sample_times_rejected(self, lines):
        # mean_interval = 1e308 used to parse; np.cumsum then gave inf, and the point failed inside eigvalsh
        with pytest.raises(ConfigError, match=r"after the latest time 100000"):
            parse_config(f"experiment = saturation\nL = 8\na = 0\nlambda = 1\n{lines}\n")

    def test_sample_times_up_to_the_bound_accepted(self):
        paper = "burn_in = 10000\nn_samples = 1000\nmean_interval = 10\njitter = 5\n"
        config = parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\n" + paper)
        assert config.protocol(0) == observables.SamplingProtocol()
        # 99850 + 10 * (10 + 5) reaches 1e5 exactly
        edge = parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\nburn_in = 99850\nn_samples = 10\n")
        assert observables.sample_times(edge.protocol(0)).max() <= observables.MAX_TIME

    @pytest.mark.parametrize("times, accepted", [
        ("0, 1e5", True), ("-1e5, 5", True), ("1e308", False), ("0.5, 100000001", False), ("-2e8", False),
        ("0, 1e8", False), ("0.5, 1000001", False), ("0.5, 100001", False),
    ])
    def test_time_table_bounded(self, times, accepted):
        # times = 1e308 used to parse, and `gaa ee` then failed inside eigvalsh on a NaN block
        text = f"experiment = ee\nL = 8\na = 0\nlambda = 1\ntimes = {times}\n"
        if accepted:
            assert parse_config(text).times is not None
        else:
            with pytest.raises(ConfigError, match=r"times must lie within \+-100000"):
                parse_config(text)

    def test_nan_time_rejected_from_the_python_api(self):
        # replace(config, times=(nan,)) used to be accepted, since NaN fails the > MAX_TIME comparison too;
        # `gaa ee` then died inside the kernel with LinAlgError
        config = parse_config("experiment = ee\nL = 8\na = 0\nlambda = 1\n")
        with pytest.raises(ConfigError, match=r"times must lie within \+-100000, got nan"):
            replace(config, times=(0.5, float("nan")))

    def test_oversized_sweep_rejected_quickly(self):
        # 100 a x 10^4 lambda: each grid is within its bound, but a setup per point took 6 s to build
        started = time.perf_counter()
        with pytest.raises(ConfigError, match=r"sweep over a, lambda and L holds 1000000 points, more than 100000"):
            parse_config("experiment = saturation\nL = 8\na = 0:0.99:0.01\nlambda = 0:9.999:0.001\n")
        assert time.perf_counter() - started < 1.0

    def test_round_trip_through_dict(self):
        periodic = parse_config(
            "experiment = sic_profile\nL = 233\na = 0\nlambda = 0.5, 1.5\n"
            "boundary = periodic\nb = 144/233\ncoupling = edge\nsizes = 0, 5, 233\nseed = 11\n"
        )
        for config in (periodic, parse_config(NON_DEFAULT)):
            assert ExperimentConfig.from_dict(config.to_dict()) == config
            assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_every_field_in_round_trip_case(self):
        config = parse_config(NON_DEFAULT)
        defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
        assert [name for name, value in defaults.items() if getattr(config, name) == value] == ["boundary"]

    def test_manifest_config_keys(self):
        assert set(parse_config(NON_DEFAULT).to_dict()) == {
            "experiment", "L", "lambda", "a", "t", "b", "phi", "boundary", "initial", "occupations",
            "initial_seed", "n_random", "coupling", "sizes", "times", "fit_window", "fit_dt", "burn_in",
            "n_samples", "mean_interval", "jitter", "seed", "workers",
        }


# one value token of each kind the grammar reads, valid and invalid alike
NUMBERS = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["0.3", "-0.5", "0.9", "1.5", "0.25", "2.5e2", "1e308", "-1e308", "1e-300", "1e999",
                     "nan", "inf", "-inf", "0x10", "1_0", "abc", "9" * 40]),
)
TOKENS = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=2, max_size=3).map(", ".join),
    st.tuples(NUMBERS, NUMBERS, NUMBERS).map(":".join),
    st.tuples(NUMBERS, NUMBERS).map(":".join),
    st.tuples(st.one_of(st.integers(-2, 400), st.integers(10**300, 10**400)), st.integers(-1, 400))
    .map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from([*runner.EXPERIMENTS, *observables.COUPLINGS, "open", "periodic", "neel", "domain_wall",
                     "random_product", "warp"]),
    st.text("01", max_size=12).map("custom:".__add__),
)
# the required keys, each drawn from a few valid values
REQUIRED = {
    "experiment": st.sampled_from(sorted(runner.EXPERIMENTS)),
    "L": st.sampled_from(["8", "10", "6, 8, 10", "6:10:2"]),
    "lambda": st.sampled_from(["1", "0.5, 1.5", "0:2:0.5"]),
    "a": st.sampled_from(["0", "0.3", "0, 0.3"]),
}
# a valid value of every other key: the round-trip case's
VALID = dict(line.split(" = ") for line in NON_DEFAULT.strip().splitlines()) | {"boundary": "open"}
PARSE_DEADLINE_S = 2.0  # the largest sweep a document here can hold, 10^5 points, parses in about 0.7 s


@st.composite
def config_documents(draw):
    """A key = value document: the required keys (one may be missing), other keys of the grammar or
    unknown ones, and comment, blank, malformed or repeated lines, in any order. One value in ten is a
    token of any kind, the rest valid."""

    def value(valid):
        return draw(valid) if draw(st.sampled_from([True] * 9 + [False])) else draw(TOKENS)

    lines = [f"{key} = {value(valid)}" for key, valid in REQUIRED.items()]
    if not draw(st.sampled_from([True] * 9 + [False])):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    keys = st.sampled_from(sorted(set(runner._KEY_PARSERS) - set(REQUIRED)) + ["lamda", "occupations"])
    for key in draw(st.lists(keys, max_size=5, unique=True)):
        lines.append(f"{key} = {value(st.just(VALID.get(key, '1')))}")
    other = st.sampled_from(["# comment", "", "   ", "no equals sign", "= 1", "L =", "L = 8"])
    lines += draw(st.lists(other, max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def parse_within_deadline(text):
    """parse_config's config, or its ConfigError; any other exception propagates."""
    started = time.perf_counter()
    try:
        result = parse_config(text)
    except ConfigError as exc:
        result = exc
    assert time.perf_counter() - started < PARSE_DEADLINE_S, text
    return result


class TestParserFuzz:
    """Documents built from the grammar, with valid and invalid tokens alike: each parses to a config
    that round-trips through its dict, or to a ConfigError, within the deadline."""

    @settings(max_examples=300, deadline=None)
    @given(text=config_documents())
    def test_config_or_config_error(self, text):
        config = parse_within_deadline(text)
        if isinstance(config, ExperimentConfig):
            assert ExperimentConfig.from_dict(config.to_dict()) == config
            assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_documents_reach_valid_configs(self):
        # the fuzz test is only as good as its accepted documents: some with optional keys must parse
        text = find(config_documents(),
                    lambda text: text.count("=") > 5 and isinstance(parse_within_deadline(text), ExperimentConfig),
                    settings=settings(max_examples=2000))
        assert isinstance(parse_config(text), ExperimentConfig)

    def test_huge_rational_b_rejected(self):
        # b = 10^400 / 1 used to raise an OverflowError out of parse_config, past the CLI's error report
        with pytest.raises(ConfigError, match="line 5: key 'b'"):
            parse_config("experiment = saturation\nL = 8\na = 0\nlambda = 1\nb = 1" + "0" * 400 + "/1\n")


class TestRun:
    def test_velocity_cardinality(self, tmp_path):
        config = parse_config(
            "experiment = velocity\nL = 8\na = 0, 0.1, 0.3\nlambda = 0:2:0.1\nseed = 1\n"
        )
        manifest = run(config, tmp_path)
        body = (tmp_path / "velocity.csv").read_text()
        lines = body.splitlines()
        assert lines[0] == "a,lambda,v_s"
        assert len(lines) == 1 + 63
        assert manifest["outputs"][0]["rows"] == 63
        assert not manifest["failures"]

    def test_csv_format_details(self, tmp_path):
        config = parse_config("experiment = velocity\nL = 8\na = 0\nlambda = 0.5\nseed = 1\n")
        run(config, tmp_path)
        raw = (tmp_path / "velocity.csv").read_bytes()
        assert b"\r" not in raw
        value = raw.decode().splitlines()[1].split(",")[2]
        assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(VELOCITY_TOY)
        run(config, tmp_path / "one")
        run(config, tmp_path / "two")
        assert (tmp_path / "one/velocity.csv").read_bytes() == (
            tmp_path / "two/velocity.csv"
        ).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = parse_config(VELOCITY_TOY)
        parallel = parse_config(VELOCITY_TOY + "workers = 2\n")
        manifests = [run(serial, tmp_path / "serial"), run(parallel, tmp_path / "parallel")]
        assert (tmp_path / "serial/velocity.csv").read_bytes() == (
            tmp_path / "parallel/velocity.csv"
        ).read_bytes()
        # each point is timed where it runs, in the pool worker too
        for name, manifest in zip(("serial", "parallel"), manifests):
            walls = json.loads((tmp_path / name / "manifest.json").read_text())["point_wall_s"]
            assert walls == manifest["point_wall_s"]
            assert len(walls) == 6 and all(w > 0 for w in walls)

    def test_seed_changes_sampled_observables(self, tmp_path):
        base = "experiment = saturation\nL = 8\na = 0\nlambda = 0.5\nn_samples = 50\n"
        run(parse_config(base + "seed = 1\n"), tmp_path / "one")
        run(parse_config(base + "seed = 2\n"), tmp_path / "two")
        assert (tmp_path / "one/saturation.csv").read_text() != (
            tmp_path / "two/saturation.csv"
        ).read_text()

    def test_spectrum_rows_and_labels(self, tmp_path):
        config = parse_config("experiment = spectrum\nL = 50\na = 0.3\nlambda = 1.0\n")
        run(config, tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,energy,ipr,label"
        assert len(lines) == 51
        labels = {line.split(",")[3] for line in lines[1:]}
        assert labels <= {"extended", "localized"}

    def test_ee_timeseries_output(self, tmp_path):
        config = parse_config(
            "experiment = ee\nL = 8\na = 0\nlambda = 0.5\ntimes = 0:5:1\n"
        )
        run(config, tmp_path)
        lines = (tmp_path / "ee_timeseries.csv").read_text().splitlines()
        assert lines[0] == "time,entropy_nats"
        assert len(lines) == 7
        assert float(lines[1].split(",")[1]) == pytest.approx(0.0, abs=1e-9)

    def test_scaling_output(self, tmp_path):
        config = parse_config(
            "experiment = scaling\nL = 8, 12, 16\na = 0\nlambda = 0.5\n"
            "n_samples = 40\nburn_in = 50\nmean_interval = 2\njitter = 1\n"
        )
        run(config, tmp_path)
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert lines[0] == "a,lambda,alpha,stderr"
        assert len(lines) == 2

    def test_scaling_point_fits_the_saturation_means(self):
        # `gaa scaling` and `gaa saturation` share one path: the fit runs over the realization means
        config = parse_config(
            "experiment = scaling\nL = 8, 12, 16\na = 0\nlambda = 0.5, 1.5\ninitial = random_product\n"
            "n_random = 2\nn_samples = 40\nburn_in = 50\nmean_interval = 2\njitter = 1\n"
        )
        protocol = config.protocol(runner.derived_seed(config.seed, 0))
        for lam in config.lam:
            means = [runner._point_saturation(config, protocol, 0.0, lam, L)[0][3] for L in config.L]
            expected = (0.0, lam, *observables.fit_power_law(config.L, means))
            assert runner._point_scaling(config, protocol, 0.0, lam) == [expected]

    @pytest.mark.parametrize("experiment, extra", [
        ("ee", "times = 0:4:0.5\n"),
        ("velocity", ""),
        ("saturation", ""),
        ("sic_profile", "sizes = 0, 3, 8\n"),
    ])
    def test_point_is_the_mean_over_realizations(self, experiment, extra):
        # a random_product point averages its probe over the n_random setups seeded derived_seed(initial_seed, k)
        config = parse_config(f"experiment = {experiment}\nL = 8\na = 0.3\nlambda = 0.5\ninitial = random_product\n"
                              "initial_seed = 5\nn_random = 3\nn_samples = 20\nburn_in = 50\nmean_interval = 2\n"
                              f"jitter = 1\n{extra}")
        protocol = config.protocol(runner.derived_seed(config.seed, 0))
        reference = observables.reference_site_for(8, "center") if experiment == "sic_profile" else None
        setups = [QuenchSetup(config.spec_at(0.3, 0.5, 8), "random_product", initial_seed=runner.derived_seed(5, k),
                              reference_site=reference) for k in range(3)]
        probe = {
            "ee": lambda s: observables.ee_timeseries(s, config.times).entropies,
            "velocity": lambda s: observables.quench_velocity(s, protocol),
            "saturation": lambda s: observables.saturation_value(s, protocol),
            "sic_profile": lambda s: observables.sic_profile(s, config.sizes, "center", protocol).mi,
        }[experiment]
        values = [probe(s) for s in setups]
        assert not np.array_equal(values[0], values[1])  # the realizations differ, so a point of one would fail
        point = (0.3, 0.5, 8) if experiment == "saturation" else (0.3, 0.5)
        rows = runner.EXPERIMENTS[experiment].point(config, protocol, *point)
        assert [row[-1] for row in rows] == np.atleast_1d(np.mean(values, axis=0)).tolist()

    @pytest.mark.parametrize("experiment", ["saturation", "sic_jump"])
    def test_sweep_through_the_aa_critical_point_writes_no_figure(self, tmp_path, experiment):
        # n_e and n_l are NaN at a = 0, lambda = 1: no fractions.csv and no NaN pearson_r
        config = parse_config(f"experiment = {experiment}\nL = 20\na = 0\nlambda = 0.5, 1.0, 1.5\n"
                              "n_samples = 20\nburn_in = 100\n")
        manifest = run(config, tmp_path)
        assert manifest["failures"] == []
        assert [o["file"] for o in manifest["outputs"]] == [runner.EXPERIMENTS[experiment].output]
        assert not (tmp_path / "fractions.csv").exists() and not (tmp_path / "correlation.csv").exists()
        assert manifest["figure_skipped"] == "pearson needs finite samples"

    def test_failed_point_skips_the_figure_with_its_reason(self, tmp_path, monkeypatch):
        real = observables.saturation_value

        def flaky(setup, protocol):
            if setup.spec.lam == 1.0:
                raise RuntimeError("synthetic point failure")
            return real(setup, protocol)

        monkeypatch.setattr(observables, "saturation_value", flaky)
        config = parse_config("experiment = saturation\nL = 8\na = 0.3\nlambda = 0.5, 1.0, 1.5\n"
                              "n_samples = 20\nburn_in = 100\n")
        manifest = run(config, tmp_path)
        assert len(manifest["failures"]) == 1
        assert [o["file"] for o in manifest["outputs"]] == ["saturation.csv"]
        assert manifest["figure_skipped"] == "1 sweep point(s) failed"

    def test_fractions_sweep(self, tmp_path):
        config = parse_config("experiment = fractions\nL = 100\na = 0.3\nlambda = 0.5, 1.0, 2.0\n")
        run(config, tmp_path)
        rows = (tmp_path / "fractions.csv").read_text().splitlines()[1:]
        parsed = [row.split(",") for row in rows]
        assert [float(p[3]) for p in parsed] == sorted(float(p[3]) for p in parsed)
        n_e = {float(p[1]): float(p[2]) for p in parsed}
        assert n_e[0.5] == 1.0 and n_e[2.0] == 0.0

    def test_sic_jump_emits_profile_fractions_and_correlation(self, tmp_path):
        config = parse_config(
            "experiment = sic_jump\nL = 8\na = 0.3\nlambda = 0.2, 1.0, 2.2\n"
            "n_samples = 30\nburn_in = 50\nmean_interval = 2\njitter = 1\n"
        )
        manifest = run(config, tmp_path)
        names = {o["file"] for o in manifest["outputs"]}
        assert names == {"sic_profile.csv", "fractions.csv", "correlation.csv"}
        assert "figure_skipped" not in manifest
        profile_lines = (tmp_path / "sic_profile.csv").read_text().splitlines()
        assert profile_lines[0] == "coupling,boundary,a,lambda,size_A,mi_bits"
        sizes = {line.split(",")[4] for line in profile_lines[1:]}
        assert sizes == {"0", "5", "8"}
        corr = (tmp_path / "correlation.csv").read_text().splitlines()
        assert corr[0] == "figure,pearson_r"
        assert corr[1].startswith("sic_jump_vs_n_l,")

    # the chains of a lambda-swept saturation (even L) and sic_jump (odd L, periodic) run
    FIGURE_CHAINS = {"saturation": "L = 20\n", "sic_jump": "L = 21\nboundary = periodic\nb = 13/21\n"}
    FIGURE_SWEEP = "a = 0.3\nlambda = 0.2, 0.8, 1.3, 2.2\n"

    def run_figure(self, experiment, out):
        config = f"experiment = {experiment}\n{self.FIGURE_CHAINS[experiment]}{self.FIGURE_SWEEP}"
        manifest = run(parse_config(config + "n_samples = 20\nburn_in = 100\n"), out)
        assert "figure_skipped" not in manifest

    @pytest.mark.parametrize("experiment", sorted(FIGURE_CHAINS))
    def test_figure_fractions_are_those_of_the_fractions_experiment(self, tmp_path, experiment):
        # one producer: the figure's fractions.csv is byte for byte what gaa fractions writes over the sweep
        self.run_figure(experiment, tmp_path / "figure")
        run(parse_config(f"experiment = fractions\n{self.FIGURE_CHAINS[experiment]}{self.FIGURE_SWEEP}"),
            tmp_path / "fractions")
        assert (tmp_path / "figure/fractions.csv").read_bytes() == (tmp_path / "fractions/fractions.csv").read_bytes()

    @pytest.mark.parametrize("experiment", sorted(FIGURE_CHAINS))
    def test_figure_keeps_one_spectrum_alive_at_a_time(self, tmp_path, monkeypatch, experiment):
        # each lambda's SpectrumData (L x L eigenvectors) is dropped once its fractions row exists
        analyze, spectra = spectral.analyze, []

        def tracked_analyze(spec):
            alive = [ref for ref in spectra if ref() is not None]
            assert not alive, f"{len(alive)} earlier spectra still alive"
            data = analyze(spec)
            spectra.append(weakref.ref(data))
            return data

        monkeypatch.setattr(spectral, "analyze", tracked_analyze)
        self.run_figure(experiment, tmp_path)
        assert len(spectra) == 4

    def test_sic_profile_default_sizes(self, tmp_path):
        config = parse_config(
            "experiment = sic_profile\nL = 8\na = 0\nlambda = 0.5\n"
            "n_samples = 30\nburn_in = 50\nmean_interval = 2\njitter = 1\n"
        )
        run(config, tmp_path)
        lines = (tmp_path / "sic_profile.csv").read_text().splitlines()[1:]
        sizes = [int(line.split(",")[4]) for line in lines]
        assert sizes == [0, 5, 8]
        assert float(lines[-1].split(",")[5]) == pytest.approx(2.0, abs=1e-6)

    def test_point_failure_recorded_without_abort(self, tmp_path, monkeypatch):
        real = observables.quench_velocity

        def flaky(setup, protocol):
            if setup.spec.lam == 0.5:
                raise RuntimeError("synthetic point failure")
            return real(setup, protocol)

        monkeypatch.setattr(observables, "quench_velocity", flaky)
        config = parse_config("experiment = velocity\nL = 8\na = 0\nlambda = 0, 0.5, 1\nseed = 2\n")
        manifest = run(config, tmp_path)
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["params"] == [0.0, 0.5]
        assert "synthetic point failure" in manifest["failures"][0]["error"]
        assert manifest["outputs"][0]["rows"] == 2

    def test_point_wall_times_in_payload_order_with_failures(self, tmp_path, monkeypatch):
        real = observables.quench_velocity

        def slow_failure(setup, protocol):
            if setup.spec.lam == 0.0:
                time.sleep(0.3)
                raise RuntimeError("synthetic point failure")
            return real(setup, protocol)

        monkeypatch.setattr(observables, "quench_velocity", slow_failure)
        config = parse_config("experiment = velocity\nL = 8\na = 0\nlambda = 0, 0.5, 1\nseed = 2\n")
        walls = run(config, tmp_path)["point_wall_s"]
        assert len(walls) == 3
        assert walls[0] >= 0.3 > max(walls[1:])

    def test_manifest_contents(self, tmp_path):
        config = parse_config(VELOCITY_TOY)
        run(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiment"] == "velocity"
        assert manifest["seed"] == 3
        assert manifest["config"]["L"] == [8]
        assert "wall_time_s" in manifest
        assert ExperimentConfig.from_dict(manifest["config"]) == config

    def test_manifest_environment(self, tmp_path):
        manifest = run(parse_config(VELOCITY_TOY), tmp_path)
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] == np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        assert env["blas_threads"] == _blas._blas_threads()
        assert env["cpu_count"] == os.cpu_count()
        assert (env["workers"], env["blas_threads_per_worker"]) == (1, "uncapped")
        assert env["entropy_processes"] == (env["blas_threads"] or 1)
        assert env["lapack_pairs"] is (_blas._kernel_routines() is not None)
        assert "max_abs_delta" not in manifest and "verify_passed" not in manifest

    def test_pool_workers_run_with_one_blas_thread(self, tmp_path):
        threads = _blas._blas_threads()
        manifest = run(parse_config(VELOCITY_TOY + "workers = 2\n"), tmp_path)
        assert manifest["environment"]["blas_threads_per_worker"] == (1 if threads is not None else "uncapped")
        assert manifest["environment"]["entropy_processes"] == 1
        assert _blas._blas_threads() == threads  # the parent keeps its own count
        with ProcessPoolExecutor(max_workers=1, initializer=_blas._cap_blas_threads) as pool:
            assert pool.submit(_blas._blas_threads).result(timeout=60) == (1 if threads is not None else None)

    def test_serial_run_leaves_blas_threads_alone(self, tmp_path, monkeypatch):
        def forbidden():
            raise AssertionError("a serial run capped the BLAS threads")

        threads = _blas._blas_threads()
        monkeypatch.setattr(runner, "_cap_blas_threads", forbidden)
        manifest = run(parse_config(VELOCITY_TOY), tmp_path)
        assert not manifest["failures"]
        assert _blas._blas_threads() == threads

    def test_serial_saturation_spreads_chunks_and_matches_the_pool(self, tmp_path):
        # half chains of 20 modes in chunks of 102 times: 4 chunks
        text = ("experiment = saturation\nL = 40\na = 0.3\nlambda = 0.5, 1.5\nn_samples = 400\n"
                "burn_in = 100\nmean_interval = 2\njitter = 1\n")
        threads = _blas._blas_threads()
        serial = run(parse_config(text), tmp_path / "serial")
        assert _blas._blas_threads() == threads
        assert serial["environment"]["entropy_processes"] == (threads or 1)
        run(parse_config(text + "workers = 2\n"), tmp_path / "pool")
        assert (tmp_path / "serial/saturation.csv").read_bytes() == (tmp_path / "pool/saturation.csv").read_bytes()

    def test_no_fork_records_one_entropy_process(self, tmp_path, monkeypatch, blas_count):
        # without os.fork entropies runs serially, and the manifest used to report the BLAS count anyway
        text = ("experiment = saturation\nL = 40\na = 0.3\nlambda = 0.5, 1, 1.5\nn_samples = 400\n"
                "burn_in = 100\nmean_interval = 2\njitter = 1\n")  # half chains in 4 chunks of 102 times
        blas_count(2)
        forked = run(parse_config(text), tmp_path / "forked")
        assert forked["environment"]["entropy_processes"] == 2
        monkeypatch.delattr(os, "fork")
        serial = run(parse_config(text), tmp_path / "serial")
        assert serial["environment"]["entropy_processes"] == 1
        assert not serial["failures"] and len(serial["outputs"]) == 3
        for output in serial["outputs"]:
            name = output["file"]
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes(), name

    def test_pool_starts_no_more_processes_than_points(self, tmp_path, monkeypatch):
        # with fork, the pool starts every process at the first submit: 5000 workers used to ask for 5000
        asked = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        text = "experiment = velocity\nL = 8\na = 0\nlambda = 0.5, 1\nworkers = 5000\n"
        manifest = run(parse_config(text), tmp_path)
        assert asked == [2]
        assert not manifest["failures"] and manifest["outputs"][0]["rows"] == 2

    def test_importing_the_runner_loads_no_multiprocessing(self):
        # concurrent.futures too: only a pool or an entropies call needs it
        probe = "import sys, gaaquench.runner; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(runner.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_missing_blas_library_runs_uncapped(self, tmp_path, monkeypatch, hide_openblas):
        def missing(*args, **kwargs):
            raise OSError("no such library")

        with monkeypatch.context() as patch:
            patch.setattr(ctypes, "CDLL", missing)
            assert _blas._openblas.__wrapped__() is None  # the lookup itself, past its per-process cache
        hide_openblas(None)  # pool workers inherit it
        assert _blas._blas_threads() is None and _blas._kernel_routines() is None
        manifest = run(parse_config(VELOCITY_TOY + "workers = 2\n"), tmp_path)
        assert not manifest["failures"] and manifest["outputs"][0]["rows"] == 6
        assert manifest["environment"]["blas_threads"] is None
        assert manifest["environment"]["blas_threads_per_worker"] == "uncapped"
        assert manifest["environment"]["lapack_pairs"] is False

    @pytest.mark.parametrize("symbol", KERNEL_SYMBOLS)
    def test_any_missing_kernel_symbol_turns_lapack_pairs_off(self, symbol, tmp_path, hide_openblas):
        hide_openblas([symbol])
        manifest = run(parse_config(VELOCITY_TOY), tmp_path)
        assert not manifest["failures"] and manifest["outputs"][0]["rows"] == 6
        assert manifest["environment"]["lapack_pairs"] is False
        assert manifest["environment"]["blas_threads"] == _blas._blas_threads()

    def test_verify_passes_at_small_size(self, tmp_path):
        config = parse_config("experiment = verify\nL = 6\na = 0.3\nlambda = 1.0\n")
        manifest = run(config, tmp_path)
        assert manifest["verify_passed"] is True
        assert manifest["max_abs_delta"] <= 1e-8
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,time,size_A,gaussian,oracle,abs_diff"
        checks = {line.split(",")[0] for line in lines[1:]}
        assert checks == {"ee", "sic"}

    @pytest.mark.parametrize("L, checks", [(10, ["ee", "sic"]), (12, ["ee"])], ids=["L10", "L12"])
    def test_verify_records_the_checks_that_ran(self, tmp_path, L, checks):
        # the oracle holds at most 12 modes: at L = 12 the reference mode leaves no room for the sic check
        manifest = run(parse_config(f"experiment = verify\nL = {L}\na = 0.3\nlambda = 1.0\n"), tmp_path)
        assert manifest["verify_passed"] is True
        assert manifest["verify_checks"] == checks
        rows = (tmp_path / "verify.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == checks


    def test_verify_diagonalises_each_many_body_hamiltonian_once(self, tmp_path, monkeypatch):
        dims = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m, *args, **kw: dims.append(m.shape[0]) or eigh(m, *args, **kw))
        # the benchmark's verify config, run twice in one process as the benchmark repeats runner.run
        config = parse_config("experiment = verify\nL = 10\na = 0.3\nlambda = 1.0\nburn_in = 10000\n"
                              "n_samples = 1000\nmean_interval = 10\njitter = 5\nseed = 0\n")
        runs = []
        for k in range(2):
            assert run(config, tmp_path / str(k))["verify_passed"] is True
            runs.append(sorted(dims))
            dims.clear()
        # the Gaussian engine diagonalises h and factors C0 once each, for the chain without and
        # with the reference (10 and 11 modes); the oracle diagonalises each chain sector once: the
        # 462 states of C(11, 5) with the reference split on the occupation of R, which never hops,
        # into 252 (R empty, the C(10, 5) states of the chain without it) + 210 (R occupied)
        assert runs[0] == [10, 10, 11, 11, 210, 252]
        # no basis, Hamiltonian or eigensystem outlives the point: the second run repeats every eigh
        assert runs[1] == runs[0]


class TestCli:
    def test_velocity_roundtrip(self, tmp_path, capsys):
        path = write_config(tmp_path, VELOCITY_TOY)
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out/velocity.csv").exists()
        assert "velocity.csv" in capsys.readouterr().out

    def test_subcommand_must_match_config(self, tmp_path, capsys):
        path = write_config(tmp_path, VELOCITY_TOY)
        assert main(["saturation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "declares experiment" in capsys.readouterr().err

    def test_config_error_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, "experiment = velocity\nL = 8\nbad_key = 1\n")
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_overflowing_potential_reported(self, tmp_path, capsys):
        # used to raise a TypeError from _format_cell and leave a spectrum.csv holding only the header
        path = write_config(tmp_path, "experiment = spectrum\nL = 8\na = 0.3\nlambda = 1e308\n")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("gaa: error: the on-site potential overflows at lambda")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["velocity", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, VELOCITY_TOY.replace("lambda = 0:1:0.5", "lambda = 0.5"))
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "9"]) == 0
        assert (tmp_path / "a/velocity.csv").read_bytes() == (tmp_path / "b/velocity.csv").read_bytes()

    def test_negative_seed_override_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, VELOCITY_TOY)
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_cli_reports_status(self, tmp_path, capsys):
        path = write_config(tmp_path, "experiment = verify\nL = 6\na = 0\nlambda = 0.5\n")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "verify (ee, sic): max |delta| = " in out and "[PASS]" in out
