"""Benchmark of `hotspot simulate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's inputs for the seed
under `.perfbench_work/`, then starts one fresh `hotspot simulate` process
at a time (perfbench/child.py) with the same inputs until S seconds have
passed, checks every run's outputs and deletes them. Before and after each
process it times a fixed calibration kernel (speed.py), and rescales the
process's timings to the kernel's reference speed. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, medians over the runs; with
`--trace 1` untraced and traced runs alternate and the metrics are the
per-layer ones, medians over the traced runs, plus `trace.overhead_s`. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks
import speed
from tracing import median_or_zero, now_ns, percentile, summarize, under
from workloads import WORKLOADS, Workload, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120
REFERENCE = HERE / "reference.json"

# name, unit, better: the order in which they are printed
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("emit_s", "s", "lower"),
    ("cell_steps_per_s", "cell-steps/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("output_mb", "MB", "lower"),
]
PER_LAYER = [
    ("cli.load_config_s", "s", "lower"),
    ("cli.write_pgm_s", "s", "lower"),
    ("cli.write_pgm.count", "count", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("grid.write_field_s", "s", "lower"),
    ("grid.write_field.count", "count", "lower"),
    ("grid.write_field.mb", "MB", "lower"),
    ("grid.write_field_ms.per_field", "ms", "lower"),
    ("grid.read_field_s", "s", "lower"),
    ("grid.helmholtz_s", "s", "lower"),
    ("grid.helmholtz.count", "count", "lower"),
    ("grid.helmholtz.dct_s", "s", "lower"),
    ("grid.helmholtz.residual_s", "s", "lower"),
    ("grid.helmholtz.self_s", "s", "lower"),
    ("grid.helmholtz_ms.per_call", "ms", "lower"),
    ("grid.helmholtz.dct_ms.per_call", "ms", "lower"),
    ("grid.divergence_s", "s", "lower"),
    ("grid.scalarfield.validations", "count", "lower"),
    ("grid.scalarfield.validations_per_step", "count/step", "lower"),
    ("model.reaction_terms_s", "s", "lower"),
    ("model.sensitivity_grad_s", "s", "lower"),
    ("model.sensitivity_grad.count", "count", "lower"),
    ("model.sensitivity_grad.per_step", "count/step", "lower"),
    ("solver.step_s", "s", "lower"),
    ("solver.step.self_s", "s", "lower"),
    ("solver.step_ms.p50", "ms", "lower"),
    ("solver.step_ms.p90", "ms", "lower"),
    ("solver.step.attempts", "count", "lower"),
    ("solver.step.rejected", "count", "lower"),
    ("solver.step.accept_ratio", "ratio", "higher"),
    ("solver.adapt_dt_s", "s", "lower"),
    ("solver.guard_s", "s", "lower"),
    ("solver.build_initial_s", "s", "lower"),
    ("solver.run.self_s", "s", "lower"),
    ("analysis.energy_residuals_s", "s", "lower"),
    ("analysis.energy_residuals.count", "count", "lower"),
    ("analysis.diagnostics_record_s", "s", "lower"),
    ("analysis.diagnostics_record.count", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass
class Sample:
    """One simulate process: its mode, its problems and its metrics."""
    mode: str
    problems: list
    metrics: dict = field(default_factory=dict)
    diagnostics_digest: str = ""
    final_row: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # layers not found: metrics read 0
    # speed.REFERENCE_S over the calibration kernel's mean time just before
    # and just after this process: below 1 when the machine ran slower
    factor: float = 1.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOTSPOT_OUT", None)  # it would override the config's output dir
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def accepted_steps(doc: dict) -> int:
    """Counted directly in an untraced run; the traced run has step spans."""
    if "solver.step.accepted" in doc["counts"]:
        return doc["counts"]["solver.step.accepted"]
    return sum(1 for name, _, _, _, ok in doc["spans"] if name == "solver.step" and ok)


def phase_metrics(w: Workload, doc: dict, start_ns: int, end_ns: int) -> dict:
    spans = {name: (start, end) for name, start, end, parent, ok in doc["spans"]}
    b_start, b_end = spans["solver.build_initial"]
    r_start, r_end = spans["solver.run"]
    e_start, e_end = spans["cli.emit"]
    run_ns = r_end - r_start
    if r_start <= b_start and b_end <= r_end:  # build_initial is called from run
        run_ns -= b_end - b_start
    run_s = run_ns / 1e9
    return {
        "wall_s": (end_ns - start_ns) / 1e9,
        "setup_s": (b_end - start_ns) / 1e9,
        "run_s": run_s,
        "emit_s": (e_end - e_start) / 1e9,
        "cell_steps_per_s": w.n ** 2 * accepted_steps(doc) / run_s,
        "peak_rss_mb": doc["maxrss_kb"] / 1024,
    }


def layer_metrics(doc: dict) -> dict:
    spans = doc["spans"]
    s = summarize(spans)
    total, self_s, count = s["total"], s["self"], s["count"]
    step_ms = [(end - start) / 1e6 for name, start, end, parent, ok in spans
               if name == "solver.step"]
    attempts = len(step_ms)
    rejected = sum(1 for name, _, _, _, ok in spans if name == "solver.step" and not ok)
    accepted = attempts - rejected
    dct_s = (under(spans, "grid.dctn", "grid.helmholtz")
             + under(spans, "grid.idctn", "grid.helmholtz"))
    helm_n = count["grid.helmholtz"]
    validations = doc["counts"].get("grid.scalarfield.validations", 0)

    def per(x, n):
        return x / n if n else 0.0

    return {
        "cli.load_config_s": total["cli.load_config"],
        "cli.write_pgm_s": total["cli.write_pgm"],
        "cli.write_pgm.count": count["cli.write_pgm"],
        "cli.emit.self_s": self_s["cli.emit"],
        "grid.write_field_s": total["grid.write_field"],
        "grid.write_field.count": count["grid.write_field"],
        "grid.write_field_ms.per_field": 1e3 * per(total["grid.write_field"],
                                                  count["grid.write_field"]),
        "grid.read_field_s": total["grid.read_field"],
        "grid.helmholtz_s": total["grid.helmholtz"],
        "grid.helmholtz.count": helm_n,
        "grid.helmholtz.dct_s": dct_s,
        "grid.helmholtz.residual_s": under(spans, "grid.laplacian", "grid.helmholtz"),
        "grid.helmholtz.self_s": self_s["grid.helmholtz"],
        "grid.helmholtz_ms.per_call": 1e3 * per(total["grid.helmholtz"], helm_n),
        "grid.helmholtz.dct_ms.per_call": 1e3 * per(dct_s, helm_n),
        "grid.divergence_s": total["grid.divergence"],
        "grid.scalarfield.validations": validations,
        "grid.scalarfield.validations_per_step": per(validations, accepted),
        "model.reaction_terms_s": total["model.reaction_terms"],
        "model.sensitivity_grad_s": total["model.sensitivity_grad"],
        "model.sensitivity_grad.count": count["model.sensitivity_grad"],
        "model.sensitivity_grad.per_step": per(count["model.sensitivity_grad"], accepted),
        "solver.step_s": total["solver.step"],
        "solver.step.self_s": self_s["solver.step"],
        "solver.step_ms.p50": percentile(step_ms, 50),
        "solver.step_ms.p90": percentile(step_ms, 90),
        "solver.step.attempts": attempts,
        "solver.step.rejected": rejected,
        "solver.step.accept_ratio": per(accepted, attempts),
        "solver.adapt_dt_s": total["solver.adapt_dt"],
        "solver.guard_s": total["solver.guard"],
        "solver.build_initial_s": total["solver.build_initial"],
        "solver.run.self_s": self_s["solver.run"],
        "analysis.energy_residuals_s": total["analysis.energy_residuals"],
        "analysis.energy_residuals.count": count["analysis.energy_residuals"],
        "analysis.diagnostics_record_s": total["analysis.diagnostics_record"],
        "analysis.diagnostics_record.count": count["analysis.diagnostics_record"],
    }


def run_child(w: Workload, mode: str, config: Path, out_dir: Path, report: Path,
              reference: dict | None) -> Sample:
    """Start one simulate process, wait for it, check its outputs, then
    delete them."""
    shutil.rmtree(out_dir, ignore_errors=True)
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), mode, str(config), str(report)]
    start_ns = now_ns()
    try:
        # on timeout, subprocess.run kills the child and waits for it
        proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(mode, [f"child still running after {CHILD_TIMEOUT_S} s"])
    end_ns = now_ns()
    try:
        doc = json.loads(report.read_text())
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no report"]
        return Sample(mode, [f"child failed with exit {proc.returncode}: {tail[0]}"])
    sample = Sample(mode, checks.check_run(w, out_dir, proc.returncode, reference),
                    missing=doc["missing"])
    diagnostics = out_dir / "diagnostics.csv"
    if diagnostics.is_file():
        sample.diagnostics_digest = hashlib.sha256(diagnostics.read_bytes()).hexdigest()
    if not sample.problems:
        sample.final_row = checks.final_row(out_dir)
        sample.metrics = phase_metrics(w, doc, start_ns, end_ns)
        sample.metrics["output_mb"] = dir_bytes(out_dir) / 1e6
        if mode == "full":
            sample.metrics.update(layer_metrics(doc))
            sample.metrics["grid.write_field.mb"] = dir_bytes(out_dir, "*.field") / 1e6
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def load_reference(name: str, seed: int) -> dict | None:
    try:
        rows = json.loads(REFERENCE.read_text())[name]
    except (OSError, ValueError, KeyError):
        return None
    return rows.get(str(seed))


def at_reference_speed(s: Sample, name: str) -> float:
    """A metric of one process with a time rescaled from the machine's speed
    around that process to the reference speed, a rate per second inversely,
    and any other unit as measured."""
    value, unit = s.metrics[name], UNITS[name]
    if unit in ("s", "ms"):
        return value * s.factor
    if unit.endswith("/s"):
        return value / s.factor
    return value


def medians(samples: list[Sample], names) -> dict:
    return {name: median_or_zero([at_reference_speed(s, name) for s in samples])
            for name in names}


def print_table(title: str, samples: list[Sample], specs) -> None:
    print(title)
    print(f"  {'metric':40s} {'unit':12s} {'median':>14s} {'min':>14s} {'max':>14s}  n")
    for name, unit, _ in specs:
        vals = [at_reference_speed(s, name) for s in samples]
        if vals:
            print(f"  {name:40s} {unit:12s} {median(vals):14.6g} {min(vals):14.6g} "
                  f"{max(vals):14.6g}  {len(vals)}")


def print_roadmap_row(w: Workload, untraced: list[Sample], traced: list[Sample]) -> None:
    """One row in the layout of ROADMAP's baseline table."""
    e2e = medians(untraced, ("run_s", "emit_s", "output_mb"))
    lay = medians(traced, ("solver.step_ms.p50", "grid.helmholtz_ms.per_call",
                           "grid.helmholtz.dct_ms.per_call", "grid.write_field_ms.per_field"))
    print("| workload | n | run / emit | step | Helmholtz (DCT pair) | write_field per field |")
    print(f"| {w.name} | {w.n} | {e2e['run_s']:.2f} s / {e2e['emit_s']:.2f} s "
          f"({e2e['output_mb']:.0f} MB) | {lay['solver.step_ms.p50']:.1f} ms | "
          f"{lay['grid.helmholtz_ms.per_call']:.1f} ms "
          f"({lay['grid.helmholtz.dct_ms.per_call']:.1f}) | "
          f"{lay['grid.write_field_ms.per_field']:.0f} ms |")


def mark_nondeterministic(samples: list[Sample]) -> None:
    """Repeats of one workload and seed must write the same diagnostics."""
    if len({s.diagnostics_digest for s in samples if s.diagnostics_digest}) > 1:
        for s in samples:
            s.problems.append("diagnostics.csv differs between repeats")


def split(samples: list[Sample]) -> tuple[list, list, list]:
    """(failed, untraced, traced) samples; only correct runs are measured."""
    good = [s for s in samples if not s.problems]
    return ([s for s in samples if s.problems], [s for s in good if s.mode == "phases"],
            [s for s in good if s.mode == "full"])


def summary(samples: list[Sample], trace: bool) -> dict:
    """The result object printed as the last line."""
    failed, untraced, traced = split(samples)
    values = medians(untraced, [name for name, _, _ in END_TO_END])
    specs = END_TO_END
    if trace:
        specs = PER_LAYER
        values.update(medians(traced, [name for name, _, _ in PER_LAYER[:-1]]))
        values["trace.overhead_s"] = medians(traced, ["wall_s"])["wall_s"] - values["wall_s"]
    return {
        "correct": not failed and bool(untraced) and (bool(traced) or not trace),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }


def report(w: Workload, seed: int, samples: list[Sample], trace: bool) -> None:
    """Human-readable tables: every metric with its spread and sample count."""
    failed, untraced, traced = split(samples)
    for s in failed[:3]:
        print(f"FAILED ({s.mode}): " + "; ".join(s.problems[:5]), file=sys.stderr)
    for name in sorted({name for s in samples for name in s.missing}):
        print(f"warning: layer {name} not found in the program; its metrics read 0",
              file=sys.stderr)
    factors = [s.factor for s in samples]
    print(f"workload {w.name}  seed {seed}  runs {len(samples)}  "
          f"failed {len(failed)}  failed_share {len(failed) / len(samples):.3f}")
    print(f"times at the reference speed: scaled by {median(factors):.4f} "
          f"(min {min(factors):.4f}, max {max(factors):.4f})")
    print_table("end to end (untraced runs)", untraced, END_TO_END)
    if trace:
        print_table("per layer (traced runs)", traced, PER_LAYER[:-1])
        print_roadmap_row(w, untraced, traced)


def bench(w: Workload, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Run simulate processes on the workload's inputs for `seconds`; with
    `trace`, untraced and traced runs alternate."""
    work = ROOT / ".perfbench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = make_inputs(w.name, seed, work / "in", work / "out")
        reference = load_reference(w.name, seed)
        samples: list[Sample] = []
        deadline = now_ns() + int(seconds * 1e9)
        modes = ("phases", "full") if trace else ("phases",)
        kernel_s = [speed.kernel()]
        while len(samples) < len(modes) or now_ns() < deadline:
            mode = modes[len(samples) % len(modes)]
            samples.append(run_child(w, mode, config, work / "out",
                                     work / "report.json", reference))
            kernel_s.append(speed.kernel())
        for s, before, after in zip(samples, kernel_s, kernel_s[1:]):
            s.factor = 2 * speed.REFERENCE_S / (before + after)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    mark_nondeterministic(samples)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # waits for the running child and bench() deletes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hotspotsim" / "cli.py").is_file():
        print(f"error: no hotspotsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w, trace = WORKLOADS[args.workload], bool(args.trace)
    samples = bench(w, args.seed, args.seconds, trace)
    report(w, args.seed, samples, trace)
    print(json.dumps(summary(samples, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
