"""One `hotspot simulate` process, started fresh by run.py for every sample.

    python3 perfbench/child.py {phases|full} <config.json> <report.json>

Runs `hotspotsim.cli.main(["simulate", config])` from this checkout's `src/`
and exits with its code. Before that it wraps layer boundaries (see
tracing.py) and afterwards writes the spans, counts and peak RSS to
<report.json>.

`phases` wraps only the four phase boundaries the end-to-end metrics need
(load_config, build_initial, run, emit) and counts accepted steps: one call
each, a negligible cost. `full` adds a span around every layer function the
per-layer metrics need, under the name its caller looks it up by.
"""

import json
import resource
import sys
from pathlib import Path

from tracing import Proxy, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hotspotsim import analysis, cli, grid, solver  # noqa: E402


def install(tracer: Tracer, full: bool) -> None:
    # phase boundaries, needed by every run
    tracer.patch(cli, "load_config", "cli.load_config", required=True)
    tracer.patch(solver, "build_initial", "solver.build_initial", required=True)
    tracer.patch(solver, "run", "solver.run", required=True)
    tracer.patch(cli, "_emit_outputs", "cli.emit", required=True)
    if not full:
        tracer.count_calls(solver, "step", "solver.step.accepted")
        return
    tracer.patch(solver, "step", "solver.step")
    tracer.patch(solver, "adapt_dt", "solver.adapt_dt")
    tracer.patch(solver, "_guard", "solver.guard")
    tracer.patch(solver, "read_field", "grid.read_field")
    tracer.patch(solver, "helmholtz_solve", "grid.helmholtz")
    tracer.patch(solver, "divergence", "grid.divergence")
    tracer.patch(solver, "reaction_terms", "model.reaction_terms")
    tracer.patch(solver, "sensitivity_grad", "model.sensitivity_grad")
    tracer.patch(grid, "laplacian", "grid.laplacian")
    fft = grid._fft
    grid._fft = Proxy(fft, dctn=tracer.wrap("grid.dctn", fft.dctn),
                      idctn=tracer.wrap("grid.idctn", fft.idctn))
    tracer.patch(cli, "write_field", "grid.write_field")
    tracer.patch(cli, "_write_pgm", "cli.write_pgm")
    tracer.patch(analysis, "diagnostics_record", "analysis.diagnostics_record")
    tracer.patch(analysis, "energy_residuals", "analysis.energy_residuals")
    tracer.count_calls(grid.ScalarField, "__post_init__", "grid.scalarfield.validations")


def main() -> int:
    mode, config, report = sys.argv[1:4]
    tracer = Tracer()
    install(tracer, full=(mode == "full"))
    code = cli.main(["simulate", config])
    doc = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "missing": tracer.missing,
    }
    Path(report).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
