"""Command-line entry point: `gaa <experiment> --config <path> --out <dir>`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .runner import EXPERIMENTS, ConfigError, parse_config, run

_COMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaa",
        description="Quench dynamics of the generalized Aubry-Andre chain: "
        "spectra, entanglement growth, information-capacity profiles, and "
        "oracle verification, emitted as CSV files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    for command in _COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} experiment from a config file")
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", required=True, help="output directory for CSV files and manifest")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = _COMMANDS[args.command]
    try:
        config = parse_config(Path(args.config).read_text())
        if config.experiment != experiment:
            raise ConfigError(
                f"config declares experiment {config.experiment!r} "
                f"but the {args.command!r} subcommand was invoked"
            )
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.workers is not None:
            config = replace(config, workers=args.workers)
        manifest = run(config, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"gaa: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gaa: i/o error: {exc}", file=sys.stderr)
        return 1
    for output in manifest["outputs"]:
        print(f"wrote {output['file']} ({output['rows']} rows)")
    if manifest["failures"]:
        print(f"gaa: {len(manifest['failures'])} sweep point(s) failed; see manifest.json", file=sys.stderr)
        return 1
    if experiment == "verify":
        status = "PASS" if manifest["verify_passed"] else "FAIL"
        checks = ", ".join(manifest["verify_checks"])
        print(f"verify ({checks}): max |delta| = {manifest['max_abs_delta']:.3e} [{status}]")
        if not manifest["verify_passed"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
