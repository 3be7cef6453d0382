"""Correctness checks on the CSV files a workload run writes.

Every run is checked against the invariants that hold for any seed: the
output files and their row counts match the reference, every numeric cell
is finite, and the physics bounds of each experiment hold. For the default
seed (and for workloads whose output does not depend on the seed) every
numeric cell is also compared with the reference CSV written by the seed
code, to within REFERENCE_TOL.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 0
REFERENCE_TOL = 1e-9
# the verify experiment samples no times, so its output is the same for every seed
SEED_FREE = ("verify",)

ORACLE_TOL = 1e-8
SIC_ENDPOINT_TOL = 1e-6
SIC_MONOTONE_TOL = 1e-3


@dataclass
class CheckResult:
    errors: list[str] = field(default_factory=list)
    max_abs_err: float | None = None  # None when no reference comparison was made


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _columns(header: list[str], rows: list[list[str]]) -> dict[str, list[float]]:
    return {name: [float(row[k]) for row in rows] for k, name in enumerate(header)
            if all(_number(row[k]) is not None for row in rows)}


def _invariants(workload: str, tables: dict, manifest: dict) -> list[str]:
    errors = []
    if workload == "saturation":
        cols = _columns(*tables["saturation.csv"])
        for L, s in zip(cols["L"], cols["s_sat"]):
            if not 0.0 < s <= 0.5 * L * math.log(2.0):
                errors.append(f"saturation entropy {s} outside (0, (L/2) ln 2] at L={L:g}")
    elif workload == "sic_profile":
        cols = _columns(*tables["sic_profile.csv"])
        profile = sorted(zip(cols["size_A"], cols["mi_bits"]))
        sizes, mi = [p[0] for p in profile], [p[1] for p in profile]
        if sizes[0] == 0 and abs(mi[0]) > SIC_ENDPOINT_TOL:
            errors.append(f"I(0) = {mi[0]}, expected 0")
        if abs(mi[-1] - 2.0) > SIC_ENDPOINT_TOL:
            errors.append(f"|I(L) - 2| = {abs(mi[-1] - 2.0):.3e} > {SIC_ENDPOINT_TOL}")
        drops = [mi[k] - mi[k + 1] for k in range(len(mi) - 1)]
        if drops and max(drops) > SIC_MONOTONE_TOL:
            errors.append(f"I(A:R) decreases by {max(drops):.3e} between nested sizes")
    elif workload == "verify":
        delta = manifest.get("max_abs_delta")
        if delta is None or not delta <= ORACLE_TOL:
            errors.append(f"verify max_abs_delta {delta} exceeds {ORACLE_TOL}")
    return errors


def check_outputs(workload: str, seed: int, out_dir: Path, manifest: dict) -> CheckResult:
    """Check one run's outputs; the returned errors are empty when they are correct."""
    result = CheckResult()
    for failure in manifest["failures"]:
        result.errors.append(f"point {failure['point_index']} failed: {failure['error']}")
    reference = REFERENCE_DIR / workload
    expected = sorted(p.name for p in reference.glob("*.csv"))
    written = sorted(o["file"] for o in manifest["outputs"])
    if written != expected:
        result.errors.append(f"wrote {written}, expected {expected}")
        return result
    compare = seed == DEFAULT_SEED or workload in SEED_FREE
    if compare:
        result.max_abs_err = 0.0
    tables = {}
    for name in expected:
        header, rows = tables[name] = _read_csv(out_dir / name)
        ref_header, ref_rows = _read_csv(reference / name)
        if header != ref_header or len(rows) != len(ref_rows):
            result.errors.append(f"{name}: header or row count differs from the reference")
            return result
        for row, ref_row in zip(rows, ref_rows):
            for cell, ref_cell in zip(row, ref_row):
                value, ref_value = _number(cell), _number(ref_cell)
                if value is not None and not math.isfinite(value):
                    result.errors.append(f"{name}: non-finite value {cell}")
                elif not compare:
                    continue
                elif value is None or ref_value is None:
                    if cell != ref_cell:
                        result.errors.append(f"{name}: {cell!r} differs from reference {ref_cell!r}")
                else:
                    err = abs(value - ref_value)
                    result.max_abs_err = max(result.max_abs_err, err)
                    if err > REFERENCE_TOL:
                        result.errors.append(f"{name}: {cell} differs from reference {ref_cell} by {err:.3e}")
    if not result.errors:
        result.errors.extend(_invariants(workload, tables, manifest))
    return result
