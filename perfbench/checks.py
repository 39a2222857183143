"""Checks on the outputs of one `hotspot simulate` run. Any problem found
counts the run as failed."""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Workload

CSV_COLUMNS = ("t", "mass_N", "minA", "maxA", "minN", "grad_A_l2sq", "phi",
               "y_entropy", "mass_residual", "r1", "r2", "r3", "r4", "flags")
MAX_STEP_MASS_RESIDUAL = 1e-12  # the discrete mass law holds to rounding
# final-row diagnostics against the stored reference: |v - ref| <= RTOL |ref| + ATOL
RTOL, ATOL = 1e-9, 1e-12


def parse_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError("diagnostics.csv header does not match")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"diagnostics.csv row has {len(cells)} cells")
        row = {c: (float(v) if v else None) for c, v in zip(CSV_COLUMNS[:-1], cells)}
        row["flags"] = cells[-1]
        rows.append(row)
    return rows


def numeric(row: dict) -> dict:
    """The non-empty numeric cells of a diagnostics row."""
    return {k: v for k, v in row.items() if k != "flags" and v is not None}


def final_row(out_dir: Path) -> dict:
    return numeric(parse_rows((out_dir / "diagnostics.csv").read_text())[-1])


def check_run(w: Workload, out_dir: Path, exit_code: int,
              reference: dict | None) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.
    `reference` is the expected final diagnostics row, when one is stored
    for this workload and seed."""
    problems = []
    if exit_code != w.exit_code:
        problems.append(f"exit code {exit_code}, expected {w.exit_code}")
    try:
        outcome = json.loads((out_dir / "outcome.json").read_text())
        rows = parse_rows((out_dir / "diagnostics.csv").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"]

    if outcome.get("outcome") != w.outcome:
        problems.append(f"outcome {outcome.get('outcome')!r}, expected {w.outcome!r}")
    t_final = outcome.get("t_final")
    if not isinstance(t_final, (int, float)) or not 0 < t_final <= w.t_end:
        return problems + [f"t_final {t_final!r} outside (0, {w.t_end}]"]
    expected_rows = math.floor(t_final / w.output_every + 1e-9) + 1
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} diagnostics rows, expected {expected_rows}")

    for row in rows:
        if not all(math.isfinite(v) for v in numeric(row).values()):
            problems.append(f"non-finite diagnostics at t={row['t']}")
        elif row["minA"] <= 0:
            problems.append(f"minA {row['minA']} <= 0 at t={row['t']}")
    if w.main_model:
        residual = outcome.get("max_step_mass_residual")
        if not isinstance(residual, (int, float)) or not residual <= MAX_STEP_MASS_RESIDUAL:
            problems.append(f"max_step_mass_residual {residual!r} > {MAX_STEP_MASS_RESIDUAL}")

    per_output = len(rows) if w.snapshots else 0
    for pattern, per_row in (("A_*.field", 1), ("N_*.field", 1), ("*.pgm", 2),
                             ("*.pgm.json", 2)):
        found = len(list(out_dir.glob(pattern)))
        if found != per_output * per_row:
            problems.append(f"{found} files {pattern}, expected {per_output * per_row}")

    if reference is not None and rows:
        last = numeric(rows[-1])
        for key, ref in reference.items():
            got = last.get(key)
            if got is None or abs(got - ref) > RTOL * abs(ref) + ATOL:
                problems.append(f"final {key} = {got!r}, reference {ref!r}")
    return problems
