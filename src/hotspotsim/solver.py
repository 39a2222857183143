"""Time integration of the coupled system: implicit diffusion and linear
decay, explicit chemotaxis and nonlinear reaction, adaptive step control,
and trajectory emission with per-output diagnostics.

The splitting keeps constants exact discrete fixed points and makes the
density mass obey the discrete relaxation law exactly (the flux form is
conservative, so reaction is the only mass source).  Bound violations beyond
the guard tolerance are errors, never silently clamped: the analytic bounds
hold for the continuum system, and enforcing them would mask scheme
failure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from . import analysis
from .grid import (
    GridSpec,
    HotspotError,
    ScalarField,
    _Faces,
    _helmholtz,
    _same_grid,
    _Stack,
    _workspace,
    integral,
    read_field,
    cosine_mode,
)
from .model import DerivedBounds, ModelKind, sensitivity_floor


class StepRejected(HotspotError):
    """A smaller step may cure this: A or N left the guarded region, or the
    explicit stage was not finite.  run() halves the step on it; every other
    HotspotError ends the run failed."""


@dataclass
class SimState:
    t: float
    A: ScalarField
    N: ScalarField
    step_count: int = 0
    _stack: Optional[_Stack] = field(default=None, repr=False, compare=False)  # see run


@dataclass(frozen=True)
class InitialCondition:
    recipe: Literal["constants", "perturbed_steady", "file"]
    a0: Optional[float] = None
    n0: Optional[float] = None
    amplitude: Optional[float] = None
    mode_j: int = 1
    mode_k: int = 1
    path_A: Optional[str] = None
    path_N: Optional[str] = None


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    params: ModelKind
    t_end: float
    dt_init: float
    dt_min: float
    output_every: float
    ic: InitialCondition
    dt_max: Optional[float] = None  # fixed-step refinement studies set this
    cfl_advection: float = 0.5
    flux_scheme: Literal["centered", "upwind"] = "centered"
    guard_tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails every test
        if not (self.t_end > 0 and self.dt_init > 0 and self.dt_min > 0):
            raise ValueError("t_end, dt_init, dt_min must be positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.dt_min > self.dt_init:
            raise ValueError("dt_min must not exceed dt_init")
        if not self.output_every >= self.dt_min:
            raise ValueError("output_every must be at least dt_min")
        if not (0 < self.cfl_advection <= 1):
            raise ValueError("cfl_advection must lie in (0, 1]")
        if self.flux_scheme not in ("centered", "upwind"):
            raise ValueError(f"unknown flux scheme {self.flux_scheme!r}")
        if self.dt_max is not None and not self.dt_max > 0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not self.guard_tol > 0:
            raise ValueError(f"guard_tol must be positive, got {self.guard_tol}")
        if not isinstance(self.params, ModelKind):
            raise ValueError(f"params must be a ModelKind, got {self.params!r}")


@dataclass(frozen=True)
class Outcome:
    kind: Literal["completed", "blowup_suspected", "failed"]
    t: float
    reason: Optional[str] = None


@dataclass
class RunResult:
    records: list
    snapshots: list  # (t, A, N) at output times, when run() keeps them
    outcome: Outcome
    max_step_mass_residual: float
    steps_accepted: int
    steps_rejected: int  # guard-driven step halvings


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def build_initial(config: SimConfig) -> tuple[ScalarField, ScalarField]:
    try:
        A, N = _recipe_fields(config)
    except (OSError, ValueError, HotspotError, MemoryError) as exc:
        raise HotspotError(f"cannot build the initial condition: {exc}") from exc
    if np.min(A.values) <= 0:
        raise HotspotError("initial attractiveness must be positive everywhere")
    if np.min(N.values) < 0:
        raise HotspotError("initial criminal density must be nonnegative")
    return A, N


def _recipe_fields(config: SimConfig) -> tuple[ScalarField, ScalarField]:
    ic, grid = config.ic, config.grid
    if ic.recipe == "constants":
        if ic.a0 is None or ic.n0 is None:
            raise ValueError("constants recipe needs a0 and n0")
        A = ScalarField(grid, np.full((grid.n, grid.n), float(ic.a0)))
        N = ScalarField(grid, np.full((grid.n, grid.n), float(ic.n0)))
    elif ic.recipe == "perturbed_steady":
        if ic.amplitude is None:
            raise ValueError("perturbed_steady recipe needs an amplitude")
        a_star, n_star = config.params.steady_state()
        bump = cosine_mode(grid, ic.mode_j, ic.mode_k, ic.amplitude)
        A = ScalarField(grid, a_star + bump.values)
        N = ScalarField(grid, np.full((grid.n, grid.n), n_star))
    elif ic.recipe == "file":
        if ic.path_A is None or ic.path_N is None:
            raise ValueError("file recipe needs path_A and path_N")
        A = read_field(ic.path_A, grid)
        N = read_field(ic.path_N, grid)
    else:
        raise ValueError(f"unknown initial-condition recipe {ic.recipe!r}")
    return A, N


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------

def _advective_flux(pairs, v: _Faces, scheme: str, flux: _Faces) -> float:
    """Face flux of the drift term, -N_face * v, with N at faces from its
    _pairs by arithmetic mean (centered) or by donor cell (upwind), written
    into the faces `flux`, in the layout of `v` (see _Faces), times -2 or
    -1; returns h times that power of two, which divides the divergence to
    the same bits."""
    x_hi, x_lo, y_hi, y_lo = pairs
    fx, fy = flux.fx_in, flux.fy_in
    if scheme == "centered":
        np.add(x_hi, x_lo, out=fx)
        np.add(y_hi, y_lo, out=fy)
    else:
        np.copyto(fx, x_hi)
        np.copyto(fx, x_lo, where=v.fx_in >= 0)
        np.copyto(fy, y_hi)
        np.copyto(fy, y_lo, where=v.fy_in >= 0)
    fx *= v.fx_in
    fy *= v.fy_in
    flux.close()
    return (-2.0 if scheme == "centered" else -1.0) * flux.grid.h


def step(
    state: SimState,
    dt: float,
    config: SimConfig,
    bounds: Optional[DerivedBounds] = None,
    velocity: _Faces | None = None,
) -> SimState:
    """One IMEX update: explicit chemotactic transport and nonlinear
    reaction, then implicit Helmholtz solves for diffusion and linear decay,
    on the grid's workspace buffers.  A state of run(), which carries its
    _stack, has passed the guards; any other state, a public step's result
    included, is checked at entry and copied into a new stack.  The
    result's fields are the slices of one new array, or in run() of its
    other state stack.  `velocity` is the chemotactic face velocity of
    state.A, in the workspace faces that ModelKind._face_velocity fills;
    when None, the step computes it with `sensitivity_floor(A, bounds)`."""
    if not 0 < dt < math.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got dt={dt}")
    params = config.params
    A, N = state.A, state.N
    g = _same_grid(A, N)
    src = state._stack
    if src is None:
        # the reaction's preconditions; N may undershoot 0 by guard_tol
        if A.values.min() <= 0:
            raise HotspotError("attractiveness must be positive everywhere")
        if N.values.min() < -config.guard_tol:
            raise HotspotError(f"criminal density fell below -{config.guard_tol}")
        # the new stack holds the state until the solve overwrites it
        src = _Stack(_workspace(g), np.stack((A.values, N.values)))
    dst, ws = src.other or src, src.ws  # a run's other stack, or the new one
    a, n = src.slices

    rA, rN, lam_A, lam_N = params._reaction(g, ws.slots, a, n)
    if velocity is None:
        velocity = params._face_velocity(A, sensitivity_floor(A, bounds))
    _same_grid(A, velocity)
    divisor = _advective_flux(src.pairs[1], velocity, config.flux_scheme, ws.flux)

    # A + dt*rA and N + dt*(div(flux) + rN) in the workspace's rhs stack,
    # whose slots hold the rates (rN may be a read-only broadcast)
    rhs = ws.rhs
    np.add(ws.flux.divergence(*ws.scratch, divisor), rN, out=ws.slots[1])
    rhs *= dt
    rhs += src.values
    # the residual check's squared norms; one not finite may be an overflow
    rhs_sq = np.einsum("kij,kij->k", rhs, rhs)
    if not math.isfinite(rhs_sq[0] + rhs_sq[1]) and not np.isfinite(rhs).all():
        raise StepRejected("explicit stage produced non-finite values")

    # a solve that passes its residual check has a finite solution
    _helmholtz(dst, rhs, (params.eta, 1.0), (lam_A, lam_N), dt, rhs_sq)
    _guard(dst.values, config, bounds)
    owned = dst if dst is not src else None
    return SimState(state.t + dt, *dst.fields(g), state.step_count + 1, owned)


def _guard(u: np.ndarray, config: SimConfig, bounds: Optional[DerivedBounds]) -> None:
    """The positivity guards on the finite (2, n, n) stack u of A, N."""
    tol = config.guard_tol
    a_min, n_min = np.minimum.reduce(u, axis=(1, 2)).tolist()
    if bounds is not None:
        span = bounds.a_max - bounds.a_min
        floor = bounds.a_min - tol * span
        if a_min < floor:
            raise StepRejected(f"A reached {a_min:.6g}, below guarded floor {floor:.6g}")
    elif a_min <= 0:
        raise StepRejected("A lost positivity")
    if n_min < -tol:
        raise StepRejected(f"N reached {n_min:.6g}, below -guard_tol = {-tol:.6g}")


def adapt_dt(velocity: _Faces, config: SimConfig, dt_prev: float) -> float:
    """Grow the step by at most 10%, limited by the advective CFL condition
    on the chemotactic face velocity and by the output cadence; a velocity
    that is not finite, or whose CFL step underflows to 0, is a HotspotError."""
    vmax = velocity.max_abs()
    if not math.isfinite(vmax):
        raise HotspotError("chemotactic velocity is not finite")
    dt = dt_prev * 1.1
    if vmax > 0:
        dt = min(dt, config.cfl_advection * config.grid.h / vmax)
        if dt == 0:
            raise HotspotError(f"CFL step underflows to 0 at chemotactic velocity {vmax:.6g}")
    dt = min(dt, config.output_every)
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return dt


# ---------------------------------------------------------------------------
# Trajectory driver
# ---------------------------------------------------------------------------

_SNAP = 1e-12


def run(config: SimConfig, keep_snapshots: bool = True) -> RunResult:
    """Integrate to t_end or termination; deterministic given the config.
    Each output is reduced, when it arrives, to the scalars of its energy
    windows, and its residuals are filled in when the next output arrives,
    so the loop holds the fields of no earlier output; RunResult.snapshots
    holds copies of them all when `keep_snapshots` is true and stays empty
    otherwise."""
    g = config.grid
    # two state stacks in turn for the whole run: an attempt reads the
    # state's and writes the other, so a rejected attempt leaves the state
    # as it was.  The initial condition's temporaries are gone before the
    # grid's workspace is built
    values = np.stack([f.values for f in build_initial(config)])
    first = _Stack.pair(_workspace(g), values)
    state = SimState(0.0, *first.fields(g), 0, first)
    params = config.params
    # only the main model has invariant-region bounds; the floor they set,
    # the exact mass law and the energy balances hold for that model alone
    bounds = params.bounds(state.A, state.N)
    a_floor = sensitivity_floor(state.A, bounds)
    n0_mass = integral(state.N)
    area = g.area

    tol = config.guard_tol
    records, snapshots = [], []
    window = []  # (t, scalars) of the last outputs; see _slide_window

    def output() -> None:
        # the record and, for the main model, the scalars of the output's
        # energy windows, in one pass; the first and the last output are
        # no window's middle
        last = state.t >= config.t_end - _SNAP
        records.append(analysis.diagnostics_record(
            state, params, bounds, n0_mass, tol, middle=bool(window) and not last
        ))
        if keep_snapshots:
            # a copy: the steps go on writing the state's stack
            values = np.stack((state.A.values, state.N.values))
            snapshots.append((state.t, ScalarField._checked(g, values[0]),
                              ScalarField._checked(g, values[1])))
        if bounds is not None:
            _slide_window(window, records, params)

    # no numpy warning: a value that is not finite is left to the checks
    # that name it (adapt_dt, the explicit stage, the guards, the residual)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        output()
        outcome = Outcome("completed", config.t_end)
        max_mass_res = 0.0
        n_mass = n0_mass  # the integral of state.N
        dt = min(config.dt_init, config.output_every)
        out_idx = 1
        rejected = 0

        try:
            while state.t < config.t_end - _SNAP:
                t_next = min(out_idx * config.output_every, config.t_end)
                # one velocity per accepted state, in the workspace's faces, sets the
                # CFL step and drives every guard-driven retry
                velocity = params._face_velocity(state.A, a_floor)
                dt = adapt_dt(velocity, config, dt)
                # clipping to the output boundary may shrink the step legitimately;
                # only guard-driven halving counts toward the dt_min floor
                dt_try = min(dt, t_next - state.t)
                halved = False
                while True:
                    if halved and dt_try < config.dt_min * (1.0 - 1e-12):
                        outcome = Outcome(
                            "blowup_suspected",
                            state.t,
                            "step size collapsed below dt_min under positivity guards",
                        )
                        break
                    try:
                        new_state = step(state, dt_try, config, bounds, velocity)
                    except StepRejected:
                        dt_try *= 0.5
                        halved = True
                        rejected += 1
                        continue
                    break
                if outcome.kind != "completed":
                    break

                if bounds is not None:
                    new_mass = integral(new_state.N)
                    res = (
                        abs(
                            (1.0 + params.omega * dt_try) * new_mass
                            - n_mass
                            - dt_try * params.omega * area
                        )
                        / area
                    )
                    max_mass_res = max(max_mass_res, res)
                    n_mass = new_mass
                state = new_state
                if halved:
                    dt = dt_try
                if state.t >= t_next - _SNAP:
                    output()
                    out_idx += 1
        except HotspotError as exc:
            # every numerical failure that halving cannot cure: a velocity that
            # is not finite, a solve above its residual tolerance, A below the
            # sensitivity floor, bad plugin output, an output whose diagnostics
            # are undefined
            outcome = Outcome("failed", state.t, str(exc))

    return RunResult(
        records, snapshots, outcome, max_mass_res, state.step_count, rejected
    )


def _slide_window(window, records, params) -> None:
    """Move the energy terms of the last of `records` into `window`, the
    (t, terms) of the last outputs; they are None where N > 0 fails, and
    have no middle terms for the first output, the last, or one of A <= 0,
    after which the next step's velocity ends the run.  The output completes
    the three-output window of the output before it, whose energy residuals
    are filled in where that window is uniformly spaced and N > 0 holds on
    all three."""
    rec = records[-1]
    window.append((rec.t, rec.terms))
    rec.terms = None
    if len(window) == 3:
        (t0, s0), (t1, s1), (t2, s2) = window
        if analysis._uniform_spacing(t0, t1, t2) and None not in (s0, s1, s2):
            records[-2].residuals = analysis._energy_balances((t0, t1, t2), (s0, s1, s2), params)
        del window[0]
