"""The benchmark's workloads and their seeded inputs.

Each workload is one `hotspot simulate` configuration family. `make_inputs`
writes a workload's config and initial-condition files for one seed; the
program sees only those files. The IC files are written by `write_field`
below, an independent writer for the documented `hotspotfield v1` format, so
a change to the program's own writer cannot change the benchmark's inputs.
Everything here uses numpy only, never `hotspotsim`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Coefficients of configs/compliant.json (main model).
MAIN = {"kind": "main", "eta": 0.1, "psi": 0.0046667, "omega": 84.0,
        "atilde": 0.7, "chi": 2.0}
# Short et al. variant with a strong sensitivity, so a hotspot forms and the
# positivity guards end the run.
SHORT = {"kind": "short", "eta": 0.05, "a0": 0.2, "abar": 0.8, "chi": 4.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    t_end: float
    output_every: float
    dt_init: float
    dt_max: float | None  # None: adaptive steps up to the output cadence
    snapshots: bool
    main_model: bool
    exit_code: int  # expected exit code of `hotspot simulate`
    outcome: str  # expected outcome.json kind


WORKLOADS = {
    w.name: w
    for w in (
        # Emit and analysis do most of the work while the solver does little:
        # 11 outputs, each a diagnostics row with energy residuals and four
        # snapshot files. It is the only workload that both reads and writes
        # the snapshot format, and the target of snapshot-I/O changes.
        Workload(
            name="emit_heavy",
            why="n=256, 11 outputs with snapshots: file emission and per-output "
            "analysis dominate; reads and writes hotspotfield text",
            n=256, t_end=0.2, output_every=0.02, dt_init=1e-3, dt_max=None,
            snapshots=True,
            main_model=True, exit_code=0, outcome="completed",
        ),
        # The numerical core at large arrays: Helmholtz solves, DCTs and the
        # explicit stage dominate while emit and analysis are nearly idle. It
        # is the bypass workload for emit changes, where no change is expected.
        # The step is fixed below the advective CFL limit of every seed's
        # initial data (at least 4.5e-4 over seeds 0..199), so every seed takes
        # 40 steps.
        Workload(
            name="step_heavy",
            why="n=512, 40 fixed steps, snapshots off, 5 outputs: the Helmholtz "
            "solves and the explicit stage dominate; bypasses snapshot emission",
            n=512, t_end=0.008, output_every=0.002, dt_init=2e-4, dt_max=2e-4,
            snapshots=False,
            main_model=True, exit_code=0, outcome="completed",
        ),
        # Tiny steps on small arrays until the guards collapse the step size,
        # so per-call overhead dominates rather than FFT work. It is the only
        # workload on the Short-model branches, the guard-halving path and
        # exit code 3; a change tuned for large grids that costs small ones
        # (such as FFT workers) shows here. The seeded part of the initial data
        # is small, so every seed collapses at t = 0.41 to 0.43 after 1059 to
        # 1078 steps (seeds 0..31), between the outputs at 0.32 and 0.48: each
        # seed writes the same number of outputs and does nearly the same work. Snapshots are off: writing a few small
        # files took 20 to 40 ms, too jittery a share of emit_s to compare.
        Workload(
            name="blowup_small",
            why="Short model at n=64 until suspected blow-up: about 1070 tiny "
            "steps, so per-call overhead and guard halving dominate",
            n=64, t_end=2.0, output_every=0.16, dt_init=5e-4, dt_max=None,
            snapshots=False,
            main_model=False, exit_code=3, outcome="blowup_suspected",
        ),
    )
}


def main_steady_a(psi: float, atilde: float) -> float:
    """Positive root a* of psi a^2 + (1 - psi) a - atilde = 0."""
    b = 1.0 - psi
    return 2.0 * atilde / (b + math.sqrt(b * b + 4.0 * psi * atilde))


def cell_centers(n: int, L: float = 1.0) -> np.ndarray:
    return (np.arange(n) + 0.5) * (L / n)


def cosine_sum(rng: np.random.Generator, n: int, max_mode: int,
               amplitude: float) -> np.ndarray:
    """sum_{j,k <= max_mode} c_jk cos(j pi x) cos(k pi y), c_jk uniform in
    [-amplitude, amplitude]; values[i, j] with i along x, as the program
    stores fields."""
    coeffs = rng.uniform(-amplitude, amplitude, size=(max_mode + 1, max_mode + 1))
    modes = np.cos(np.pi * np.outer(np.arange(max_mode + 1), cell_centers(n)))
    return modes.T @ coeffs @ modes


def write_field(path: Path, values: np.ndarray, L: float = 1.0) -> None:
    """`hotspotfield v1`: a header line, then n lines of n values, one line
    per y value, x increasing along the line."""
    n = values.shape[0]
    lines = [f"hotspotfield v1 L={L!r} n={n}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in values.T]
    path.write_text("\n".join(lines) + "\n")


def _config(w: Workload, model: dict, ic: dict, out_dir: Path) -> dict:
    return {
        "model": model,
        "grid": {"L": 1.0, "n": w.n},
        "time": {"t_end": w.t_end, "dt_init": w.dt_init, "dt_max": w.dt_max,
                 "dt_min": 1e-9, "output_every": w.output_every},
        "ic": ic,
        "numerics": {"flux_scheme": "centered", "cfl": 0.5},
        "outputs": {"dir": str(out_dir), "snapshots": w.snapshots,
                    "diagnostics": True},
    }


def make_inputs(name: str, seed: int, in_dir: Path, out_dir: Path) -> Path:
    """Write the config (and IC files) of workload `name` for `seed` into
    `in_dir`; the program is told to write its outputs to `out_dir`.
    Returns the config path. The same seed gives byte-identical files."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    in_dir.mkdir(parents=True, exist_ok=True)
    if name == "emit_heavy":
        # a restart near the steady state: small smooth offsets in both fields
        a_star = main_steady_a(MAIN["psi"], MAIN["atilde"])
        A = a_star + cosine_sum(rng, w.n, 4, 1e-3)
        N = 1.0 + cosine_sum(rng, w.n, 4, 1e-3)
        model = MAIN
    elif name == "step_heavy":
        model = MAIN
        j, k = (int(v) for v in rng.integers(1, 5, size=2))
        ic = {"recipe": "perturbed_steady", "amplitude": float(rng.uniform(0.04, 0.06)),
              "mode_j": j, "mode_k": k}
    else:
        # Short steady state plus a strong (2,1) mode that seeds the hotspot
        a_star, n_star = SHORT["abar"], (SHORT["abar"] - SHORT["a0"]) / SHORT["abar"]
        x = cell_centers(w.n)
        bump = 0.5 * np.outer(np.cos(2 * np.pi * x), np.cos(np.pi * x))
        A = a_star + bump + cosine_sum(rng, w.n, 4, 0.001)
        N = np.full((w.n, w.n), n_star)
        model = SHORT
    if name != "step_heavy":
        write_field(in_dir / "A0.field", A)
        write_field(in_dir / "N0.field", N)
        ic = {"recipe": "file", "path_A": str(in_dir / "A0.field"),
              "path_N": str(in_dir / "N0.field")}
    path = in_dir / "config.json"
    path.write_text(json.dumps(_config(w, model, ic, out_dir), indent=2) + "\n")
    return path
