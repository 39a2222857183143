"""Command-line entry point: config ingestion, the five workflows
(simulate, check, table, verify, steady) and all file emission.

Exit codes: 0 success, 1 usage/config failure, 2 check/verify found the
condition violated, 3 simulation ended with a suspected blow-up."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, solver
from .grid import (
    GridSpec,
    HotspotError,
    ScalarField,
    osc,
    sample_cosine_field,
    write_field,
)
from .model import DerivedBounds, ModelParams, ShortParams


def _number(kind=float, positive=False):
    """The argparse type of a flag whose value is a finite `kind`, > 0 if
    `positive`; any other text, a word too, is an ArgumentTypeError."""
    low = 0 if positive else -math.inf
    words = "an integer" if kind is int else "a finite number"
    if positive:
        words += " > 0"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # NaN fails the comparison below
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {words}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    # exit 1 (not argparse's default 2) on bad flags
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

# The JSON kinds of a config value: the types json.loads gives it (a bool is
# no number) and the words an error message names it by.
_NUMBER = ((int, float), "a JSON number")
_NUMBER_OR_NULL = ((int, float, type(None)), "a JSON number or null")
_INTEGER = ((int,), "a JSON integer")
_STRING = ((str,), "a JSON string")
_BOOL = ((bool,), "true or false")
_REQUIRED = object()

# section -> key -> (kind, default), the default being a value, _REQUIRED or
# None for unset; load_config requires the model kind's own keys, and an
# unset output_every is t_end / 10.
_KEYS = {
    "model": {"kind": (_STRING, "main"), "eta": (_NUMBER, None), "psi": (_NUMBER, None),
              "omega": (_NUMBER, None), "atilde": (_NUMBER, None), "chi": (_NUMBER, 2.0),
              "a0": (_NUMBER, None), "abar": (_NUMBER, None)},
    "grid": {"L": (_NUMBER, _REQUIRED), "n": (_INTEGER, _REQUIRED)},
    "time": {"t_end": (_NUMBER, _REQUIRED), "dt_init": (_NUMBER, 1e-3),
             "dt_min": (_NUMBER, 1e-9), "dt_max": (_NUMBER_OR_NULL, None),
             "output_every": (_NUMBER, None)},
    "ic": {"recipe": (_STRING, "perturbed_steady"), "a0": (_NUMBER, None),
           "n0": (_NUMBER, None), "amplitude": (_NUMBER, None), "mode_j": (_INTEGER, 1),
           "mode_k": (_INTEGER, 1), "path_A": (_STRING, None), "path_N": (_STRING, None)},
    "numerics": {"flux_scheme": (_STRING, "centered"), "cfl": (_NUMBER, 0.5),
                 "guard_tol": (_NUMBER, 1e-6)},
    "outputs": {"dir": (_STRING, "out"), "snapshots": (_BOOL, True),
                "diagnostics": (_BOOL, True)},
}

_MAIN = (ModelParams, ("eta", "psi", "omega", "atilde"))
_MODELS = {"main": _MAIN, "pitcher": _MAIN, "short": (ShortParams, ("eta", "a0", "abar"))}


def _section(name: str, doc) -> dict:
    """Config section `name` checked against _KEYS: every key of the section,
    each of its kind and a number as a float, or at its default if absent."""
    if not isinstance(doc, dict):
        raise HotspotError(f"section '{name}' must be a JSON object")
    unknown = set(doc) - set(_KEYS[name])
    if unknown:
        raise HotspotError(f"unknown key(s) {sorted(unknown)} in section '{name}'")
    values = {}
    for key, ((types, words), default) in _KEYS[name].items():
        value = doc.get(key, default)
        if value is _REQUIRED:
            raise HotspotError(f"missing required key {name}.{key}")
        if key in doc and type(value) not in types:
            raise HotspotError(f"{name}.{key} must be {words}, got {value!r}")
        if type(value) is int and float in types:
            value = float(value)  # a number is a float, also one written as 2
        values[key] = value
    return values


def _non_finite(literal: str):
    shown = literal if len(literal) < 25 else literal[:20] + "..."
    raise HotspotError(f"config holds {shown}, which is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value


def _finite_int(literal: str) -> int:
    _finite_float(literal)  # an integer past a double's range reads as inf
    return int(literal)


def load_config(path) -> tuple[solver.SimConfig, dict]:
    """Parse and validate the JSON run configuration; returns the SimConfig
    and the output options (dir, snapshots, diagnostics).  The literals
    NaN, Infinity and -Infinity, which json accepts, and numbers that no
    double holds (1e400, a 400-digit integer) are rejected."""
    try:
        doc = json.loads(
            Path(path).read_text(),
            parse_constant=_non_finite,
            parse_float=_finite_float,
            parse_int=_finite_int,
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise HotspotError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise HotspotError("config must be a JSON object")
    unknown = set(doc) - set(_KEYS)
    if unknown:
        raise HotspotError(f"unknown top-level section(s) {sorted(unknown)}")
    for sec in ("model", "grid", "time"):
        if sec not in doc:
            raise HotspotError(f"missing required section '{sec}'")
    doc.setdefault("ic", {"amplitude": 0.0})
    m, g, t, ic, num, out = (_section(name, doc.get(name, {})) for name in _KEYS)

    if m["kind"] not in _MODELS:
        raise HotspotError(f"unknown model kind {m['kind']!r}")
    model, keys = _MODELS[m["kind"]]
    for key in keys:
        if m[key] is None:
            raise HotspotError(f"missing required key model.{key}")
    if t["output_every"] is None:
        t["output_every"] = t["t_end"] / 10.0
    try:
        params = model(**{key: m[key] for key in keys}, chi=m["chi"])
        if model is ModelParams:
            analysis.choose_c(params.chi, params.eta)  # every output's record needs it
        grid = GridSpec(L=g["L"], n=g["n"])
        # a cosine mode the grid resolves: mode n samples to zero at every cell
        for key in ("mode_j", "mode_k"):
            if not 0 <= ic[key] < grid.n:
                raise HotspotError(f"ic.{key} must be an integer in [0, {grid.n}) on an "
                                   f"n={grid.n} grid, got {ic[key]!r}")
        config = solver.SimConfig(
            grid=grid, params=params, ic=solver.InitialCondition(**ic), **t,
            cfl_advection=num["cfl"], flux_scheme=num["flux_scheme"],
            guard_tol=num["guard_tol"],
        )
    except ValueError as exc:
        raise HotspotError(f"invalid config: {exc}")
    return config, {**out, "dir": os.environ.get("HOTSPOT_OUT", out["dir"])}


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _write_pgm(path: Path, field: ScalarField) -> None:
    v = field.values
    lo, hi = float(np.min(v)), float(np.max(v))
    if not hi > lo:
        bytes_ = np.zeros_like(v, dtype=np.uint8)
    elif 255.0 * (hi - lo) < math.inf:
        bytes_ = np.rint(255.0 * (v - lo) / (hi - lo)).astype(np.uint8)
    else:  # 255 (hi - lo) overflows: scale by halves, whose range is finite
        bytes_ = np.rint(255.0 * ((0.5 * v - 0.5 * lo) / (0.5 * hi - 0.5 * lo))).astype(np.uint8)
    n = field.grid.n
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode())
        # one raster row per y value, matching the .field line layout
        fh.write(bytes_.T.tobytes())
    sidecar = {"min": lo, "max": hi, "levels": 255}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _snapshot_tags(times) -> list[str]:
    """File-name tags of the snapshot times: `f"{t:.6f}"`, or with the
    fewest more decimals that give every time its own tag."""
    # 1074 decimals print every double exactly, so distinct times part there
    for digits in range(6, 1075):
        tags = [f"{t:.{digits}f}" for t in times]
        if len(set(tags)) == len(tags):
            return tags
    raise ValueError("two snapshots share one time")


def _write_snapshots(out_dir: Path, snapshots) -> None:
    """Write each snapshot field, A and N at every output time, as
    `<name>_<tag>.field`, `<name>_<tag>.pgm` and its sidecar, in this
    process and one field after another."""
    tags = _snapshot_tags([t for t, _, _ in snapshots])
    for tag, (_, A, N) in zip(tags, snapshots):
        for name, field in (("A", A), ("N", N)):
            stem = out_dir / f"{name}_{tag}"
            write_field(f"{stem}.field", field)
            _write_pgm(Path(f"{stem}.pgm"), field)


# the names `_write_snapshots` gives its files; a time tag has at least six
# decimals (see _snapshot_tags)
_SNAPSHOT_NAME = re.compile(r"[AN]_[0-9]+\.[0-9]{6,}\.(?:field|pgm|pgm\.json)")


def _remove_snapshots(out_dir: Path) -> None:
    """Delete the snapshot files an earlier run left in `out_dir`, so none
    is mistaken for an output of this run; no file of another name."""
    with os.scandir(out_dir) as entries:
        for entry in entries:
            if _SNAPSHOT_NAME.fullmatch(entry.name) and entry.is_file():
                os.unlink(entry.path)


def _emit_outputs(result: solver.RunResult, out_opts: dict) -> None:
    out_dir = Path(out_opts["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_snapshots(out_dir)
    if out_opts["diagnostics"]:
        with open(out_dir / "diagnostics.csv", "w", buffering=1) as fh:
            fh.write(",".join(analysis.CSV_COLUMNS) + "\n")
            for rec in result.records:
                fh.write(rec.csv_row() + "\n")
    if out_opts["snapshots"]:
        _write_snapshots(out_dir, result.snapshots)
    doc = {
        "outcome": result.outcome.kind,
        "t_final": result.outcome.t,
        "reason": result.outcome.reason,
        "max_step_mass_residual": result.max_step_mass_residual,
        "steps_accepted": result.steps_accepted,
        "steps_rejected": result.steps_rejected,
    }
    (out_dir / "outcome.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config, out_opts = load_config(args.config)
    result = solver.run(config, keep_snapshots=out_opts["snapshots"])
    try:
        _emit_outputs(result, out_opts)
    except OSError as exc:
        where = exc.filename or out_opts["dir"]
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"outcome: {result.outcome.kind} at t={result.outcome.t:.6g}")
    if result.outcome.kind == "completed":
        return 0
    if result.outcome.kind == "blowup_suspected":
        return 3
    print(f"reason: {result.outcome.reason}", file=sys.stderr)
    return 1


def cmd_check(args) -> int:
    if args.amin > args.amax:
        raise ValueError("--amin must not exceed --amax")
    if (args.mu is None) != (args.K is None):
        raise ValueError("--mu and --K must be given together")
    override = None if args.mu is None else (args.mu, args.K)
    params = ModelParams(
        eta=args.eta, psi=args.psi, omega=1.0, atilde=args.atilde, chi=args.chi
    )
    bounds = DerivedBounds(a_min=args.amin, a_max=args.amax, n1_max=args.n1max)
    domain = GridSpec(L=args.L, n=8)
    report = analysis.check_global_condition(params, bounds, domain, override)
    print(report.to_json())
    return 0 if report.any_route_holds else 2


def cmd_table(args) -> int:
    etas = [float(tok) for tok in args.eta_list.split(",") if tok]
    if not etas or not all(0 < e < math.inf for e in etas):
        raise ValueError("eta values must be finite and positive")
    gamma, _ = analysis.critical_constants(etas[0], args.psi, args.area)
    print(f"# gamma = {gamma:.6f}")
    print("eta,atilde_minus")
    for eta in etas:
        _, atm = analysis.critical_constants(eta, args.psi, args.area)
        print(f"{eta:g},{atm:.6f}")
    return 0


def cmd_verify(args) -> int:
    if args.n < 32:
        raise ValueError("--n must be at least 32")
    grid = GridSpec(L=1.0, n=args.n)
    probes = []  # (ratio_l1, ratio_K, fourier_gap, sobolev_slack) of each sample probed
    for i in range(args.samples):
        # a probe that overflows or is not finite is evidence of nothing
        try:
            with np.errstate(all="ignore"):
                field, coeffs = sample_cosine_field(
                    args.seed + i, args.max_mode, args.amplitude, grid
                )
                if osc(field) <= 1e-13:
                    print(f"sample {i}: degenerate constant field skipped")
                    continue
                p = analysis.poincare_probe(field)
                k = analysis.interpolation_probe(field, coeffs)
                shifted = ScalarField(grid, field.values + 1.0 + args.amplitude)
                if np.min(shifted.values) <= 0:
                    shifted = ScalarField(grid, field.values - float(np.min(field.values)) + 1.0)
                    print(f"sample {i}: shift raised to keep the field positive")
                ps = analysis.poincare_probe(shifted)
            probe = (p.ratio_l1, k.ratio_K, k.fourier_gap, ps.sobolev_slack)
        except OverflowError:  # a Python float that overflowed
            probe = (math.inf,)
        if not all(map(math.isfinite, probe)):
            raise HotspotError(
                f"sample {i}: a probe is not finite at --amplitude {args.amplitude:g}"
            )
        probes.append(probe)
    if not probes:
        raise HotspotError("every sampled field was constant, so no probe ran")
    skipped = args.samples - len(probes)
    columns = list(zip(*probes))
    worst_ratio_l1, worst_ratio_k, worst_gap = (max(column) for column in columns[:3])
    worst_slack = min(columns[3])
    mu_bound = math.sqrt(analysis.MU_SQ_SQUARE)
    print(f"samples: {args.samples} (skipped {skipped})")
    print(f"worst ratio_l1: {worst_ratio_l1:.12g} (bound {mu_bound:.12g})")
    print(f"worst ratio_K: {worst_ratio_k:.12g} (bound {analysis.K_SQUARE:g})")
    print(f"worst fourier_gap (relative): {worst_gap:.3e}")
    print(f"worst sobolev_slack: {worst_slack:.3e} (must be >= -1e-10)")
    ok = (
        worst_ratio_l1 <= mu_bound + 1e-10
        and worst_ratio_k <= analysis.K_SQUARE + 1e-10
        and worst_gap <= 1e-10
        and worst_slack >= -1e-10
    )
    print(
        "no counterexample found at sampled fields"
        if ok
        else "COUNTEREXAMPLE: a sampled field exceeded a proven bound "
        "(red flag for the discretization)"
    )
    return 0 if ok else 2


def cmd_steady(args) -> int:
    params = ModelParams(eta=1.0, psi=args.psi, omega=1.0, atilde=args.atilde, chi=1.0)
    a_star, n_star = params.steady_state()
    residual = args.psi * a_star * (1.0 - a_star) + args.atilde - a_star
    print(f"A* = {a_star:.12g}")
    print(f"N* = {n_star:.12g}")
    print(f"residual = {residual:.3e}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hotspot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("config")
    p_sim.set_defaults(fn=cmd_simulate)

    p_chk = sub.add_parser("check", help="evaluate the global-existence condition")
    for flag in ("eta", "psi", "chi", "atilde", "amin", "amax", "n1max", "L"):
        p_chk.add_argument(f"--{flag}", type=_number(), required=flag != "L", default=1.0)
    p_chk.add_argument("--mu", type=_number(positive=True), default=None)
    p_chk.add_argument("--K", type=_number(positive=True), default=None)
    p_chk.set_defaults(fn=cmd_check)

    p_tab = sub.add_parser("table", help="critical static attractiveness vs eta")
    p_tab.add_argument("--psi", type=_number(), required=True)
    p_tab.add_argument("--area", type=_number(), required=True)
    p_tab.add_argument("--eta-list", required=True)
    p_tab.set_defaults(fn=cmd_table)

    p_ver = sub.add_parser("verify", help="sampled functional-inequality probes")
    p_ver.add_argument("--n", type=int, default=64)
    p_ver.add_argument("--samples", type=_number(int, positive=True), default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-mode", type=int, default=4)
    p_ver.add_argument("--amplitude", type=_number(positive=True), default=0.02)
    p_ver.set_defaults(fn=cmd_verify)

    p_std = sub.add_parser("steady", help="homogeneous steady state")
    p_std.add_argument("--psi", type=_number(), required=True)
    p_std.add_argument("--atilde", type=_number(), required=True)
    p_std.set_defaults(fn=cmd_steady)

    return parser


def main(argv=None) -> int:
    # The objects alive now, mostly those the import of this package made,
    # last as long as the process.  Frozen, they are left out of cyclic
    # collections: the first one of a command (0.2 ms, in whichever phase
    # reaches the allocation threshold) and, frozen again by the exit hook
    # (registered once), the interpreter's shutdown collections (14 ms).
    own_freeze = gc.get_freeze_count() == 0  # a caller's frozen heap is left as it is
    if own_freeze:
        gc.freeze()
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.fn(args)
        except (ValueError, HotspotError, MemoryError) as exc:
            # a value the command cannot use, named by the message, or numpy's
            # failure to allocate a grid too large for the memory left
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if own_freeze:
            gc.unfreeze()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
