"""Tests of the benchmark's own code. They start no simulate process."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Proxy, Tracer, percentile, self_times, summarize, under  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    make_inputs(name, 7, tmp_path / "a", tmp_path / "out")
    first = _read_all(tmp_path / "a")
    make_inputs(name, 7, tmp_path / "a", tmp_path / "out")
    assert _read_all(tmp_path / "a") == first
    make_inputs(name, 8, tmp_path / "a", tmp_path / "out")
    assert _read_all(tmp_path / "a") != first


def test_field_writer_round_trips_through_the_program_reader(tmp_path):
    from hotspotsim.grid import GridSpec, read_field

    config = json.loads(make_inputs("blowup_small", 3, tmp_path, tmp_path / "out").read_text())
    n = config["grid"]["n"]
    field = read_field(config["ic"]["path_A"], GridSpec(1.0, n))
    lines = Path(config["ic"]["path_A"]).read_text().splitlines()
    assert lines[0] == f"hotspotfield v1 L=1.0 n={n}"
    # line j holds the values at y index j, x increasing along the line
    assert [float(v) for v in lines[1].split()] == list(field.values[:, 0])
    assert np.min(field.values) > 0


def test_self_time_subtracts_direct_children_only():
    s = 1_000_000_000  # spans are in ns, self times in s
    spans = [
        ("run", 0, 10 * s, -1, True),
        ("step", 1 * s, 4 * s, 0, True),
        ("solve", 2 * s, 3 * s, 1, True),
        ("step", 5 * s, 9 * s, 0, False),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = summarize(spans)
    assert summary["total"]["step"] == 7.0
    assert summary["self"]["step"] == 6.0
    assert summary["count"]["step"] == 2
    assert under(spans, "solve", "step") == 1.0
    assert under(spans, "solve", "run") == 0


def test_percentile_is_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile(list(range(1, 11)), 100) == 10


def test_tracer_records_parents_failures_and_counts():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x

    tracer = Tracer()
    tracer.patch(Owner, "outer", "outer")
    tracer.patch(Owner, "inner", "inner")
    tracer.patch(Owner, "absent", "absent")
    assert Owner.outer(1) == 2
    with pytest.raises(ValueError):
        Owner.outer(-1)
    names = [(name, parent, ok) for name, _, _, parent, ok in tracer.spans]
    assert names == [("outer", -1, True), ("inner", 0, True),
                     ("outer", -1, False), ("inner", 2, False)]
    assert tracer.missing == ["absent"]
    with pytest.raises(AttributeError):
        tracer.patch(Owner, "absent", "absent", required=True)

    tracer.count_calls(Owner, "inner", "inner.calls")
    Owner.inner(5)
    with pytest.raises(ValueError):
        Owner.inner(-5)
    assert tracer.counts["inner.calls"] == 1


def test_proxy_overrides_and_forwards():
    import math

    proxy = Proxy(math, sqrt=lambda x: "wrapped")
    assert proxy.sqrt(4) == "wrapped"
    assert proxy.floor(2.5) == 2


# --- output checks --------------------------------------------------------

def _fake_outputs(out_dir: Path, rows: int) -> None:
    """A well-formed output directory for a completed main-model run with
    snapshots."""
    out_dir.mkdir(parents=True)
    lines = [",".join(checks.CSV_COLUMNS)]
    for i in range(rows):
        lines.append(f"{0.02 * i!r},1.0,0.7,0.71,0.99,{1e-6 * i!r},1.5,2.5,1e-16,,,,,"
                     "amin=pass;amax=pass;npos=pass")
    (out_dir / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    t_final = 0.02 * (rows - 1)
    (out_dir / "outcome.json").write_text(json.dumps(
        {"outcome": "completed", "t_final": t_final, "reason": None,
         "max_step_mass_residual": 2e-16}))
    for i in range(rows):
        tag = f"{0.02 * i:.6f}"
        for field in "AN":
            (out_dir / f"{field}_{tag}.field").write_text("x\n")
            (out_dir / f"{field}_{tag}.pgm").write_bytes(b"P5")
            (out_dir / f"{field}_{tag}.pgm.json").write_text("{}")


@pytest.fixture
def emit_outputs(tmp_path):
    w = WORKLOADS["emit_heavy"]
    rows = round(w.t_end / w.output_every) + 1
    out = tmp_path / "out"
    _fake_outputs(out, rows)
    return w, out


def test_checker_accepts_well_formed_outputs(emit_outputs):
    w, out = emit_outputs
    reference = checks.final_row(out)
    assert checks.check_run(w, out, 0, reference) == []


def _corrupt_outcome(out, **changes):
    doc = json.loads((out / "outcome.json").read_text())
    doc.update(changes)
    (out / "outcome.json").write_text(json.dumps(doc))


def _drop_last_row(out):
    lines = (out / "diagnostics.csv").read_text().splitlines()
    (out / "diagnostics.csv").write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("corrupt, exit_code, expect", [
    (lambda out: None, 1, "exit code"),
    (lambda out: _corrupt_outcome(out, outcome="failed"), 0, "outcome"),
    (lambda out: _corrupt_outcome(out, max_step_mass_residual=1e-9), 0, "max_step_mass_residual"),
    (lambda out: next(out.glob("A_*.field")).unlink(), 0, "A_*.field"),
    (lambda out: _drop_last_row(out), 0, "diagnostics rows"),
    (lambda out: (out / "diagnostics.csv").write_text("t,x\n"), 0, "header"),
    (lambda out: (out / "outcome.json").unlink(), 0, "unreadable"),
])
def test_checker_flags_corrupted_outputs(emit_outputs, corrupt, exit_code, expect):
    w, out = emit_outputs
    reference = checks.final_row(out)
    corrupt(out)
    problems = checks.check_run(w, out, exit_code, reference)
    assert any(expect in p for p in problems), problems


def test_checker_compares_the_final_row_with_the_reference(emit_outputs):
    w, out = emit_outputs
    reference = dict(checks.final_row(out))
    reference["minA"] *= 1 + 1e-6
    problems = checks.check_run(w, out, 0, reference)
    assert problems and all("final minA" in p for p in problems)


def test_a_corrupted_repeat_is_counted_as_failed():
    samples = [run.Sample("phases", [], diagnostics_digest="a") for _ in range(3)]
    samples[1].diagnostics_digest = "b"
    run.mark_nondeterministic(samples)
    assert all("differs between repeats" in p for s in samples for p in s.problems)
    assert run.summary(samples, trace=False)["failed"] == 3


def test_timings_are_rescaled_to_the_reference_speed():
    # a process that ran while the machine was at half the reference speed
    metrics = {"wall_s": 3.0, "solver.step_ms.p50": 4.0, "cell_steps_per_s": 100.0,
               "peak_rss_mb": 50.0, "model.sensitivity_grad.per_step": 2.0}
    slow = run.Sample("phases", [], metrics=metrics, factor=0.5)
    assert run.at_reference_speed(slow, "wall_s") == 1.5
    assert run.at_reference_speed(slow, "solver.step_ms.p50") == 2.0
    assert run.at_reference_speed(slow, "cell_steps_per_s") == 200.0
    assert run.at_reference_speed(slow, "peak_rss_mb") == 50.0
    assert run.at_reference_speed(slow, "model.sensitivity_grad.per_step") == 2.0
    fast = run.Sample("phases", [], metrics=dict(metrics, wall_s=1.0), factor=2.0)
    assert run.medians([slow, fast, fast], ["wall_s"]) == {"wall_s": 2.0}


# --- the benchmark's declaration ------------------------------------------

def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert doc["command"] == ["python3", "perfbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
