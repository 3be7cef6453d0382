import json
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest

from gaaquench import observables
from gaaquench.cli import main
from gaaquench.model import GOLDEN_INVERSE
from gaaquench.runner import ConfigError, ExperimentConfig, parse_config, run

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

    def test_sic_jump_needs_the_probe_size(self):
        # below |A| = 5 every point would fail at run time and leave an empty CSV
        with pytest.raises(ConfigError, match=f"L >= {observables.JUMP_SIZE}"):
            parse_config("experiment = sic_jump\nL = 4\na = 0.3\nlambda = 0.5, 1, 2\n")
        config = parse_config(f"experiment = sic_jump\nL = {observables.JUMP_SIZE}\na = 0.3\nlambda = 1\n")
        assert config.L == (observables.JUMP_SIZE,)

    def test_bad_protocol_surfaces(self):
        with pytest.raises(ConfigError, match="jitter"):
            parse_config(
                "experiment = velocity\nL = 8\na = 0\nlambda = 1\nmean_interval = 2\njitter = 5\n"
            )

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
        run(serial, tmp_path / "serial")
        run(parallel, tmp_path / "parallel")
        assert (tmp_path / "serial/velocity.csv").read_bytes() == (
            tmp_path / "parallel/velocity.csv"
        ).read_bytes()

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
        profile_lines = (tmp_path / "sic_profile.csv").read_text().splitlines()
        assert profile_lines[0] == "coupling,boundary,a,lambda,size_A,mi_bits"
        sizes = {line.split(",")[4] for line in profile_lines[1:]}
        assert sizes == {"0", "5", "8"}
        corr = (tmp_path / "correlation.csv").read_text().splitlines()
        assert corr[0] == "figure,pearson_r"
        assert corr[1].startswith("sic_jump_vs_n_l,")

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

    def test_manifest_contents(self, tmp_path):
        config = parse_config(VELOCITY_TOY)
        run(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiment"] == "velocity"
        assert manifest["seed"] == 3
        assert manifest["config"]["L"] == [8]
        assert "wall_time_s" in manifest
        assert ExperimentConfig.from_dict(manifest["config"]) == config

    def test_verify_passes_at_small_size(self, tmp_path):
        config = parse_config("experiment = verify\nL = 6\na = 0.3\nlambda = 1.0\n")
        manifest = run(config, tmp_path)
        assert manifest["verify_passed"] is True
        assert manifest["max_abs_delta"] <= 1e-8
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,time,size_A,gaussian,oracle,abs_diff"
        checks = {line.split(",")[0] for line in lines[1:]}
        assert checks == {"ee", "sic"}


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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["velocity", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, VELOCITY_TOY.replace("lambda = 0:1:0.5", "lambda = 0.5"))
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
        assert main(["velocity", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "9"]) == 0
        assert (tmp_path / "a/velocity.csv").read_bytes() == (tmp_path / "b/velocity.csv").read_bytes()

    def test_verify_cli_reports_status(self, tmp_path, capsys):
        path = write_config(tmp_path, "experiment = verify\nL = 6\na = 0\nlambda = 0.5\n")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "PASS" in capsys.readouterr().out
