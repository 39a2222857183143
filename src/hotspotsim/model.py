"""Model definitions: the two-field burglary system, the Short et al.
variant, a generalized plugin contract, parameter validation, derived
bounds, homogeneous steady states and the chemotactic sensitivity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .grid import (
    GridSpec,
    HotspotError,
    ScalarField,
    VectorField,
    _Faces,
    _pairs,
    _same_grid,
    _workspace,
    gradient,
    integral,
)


POSITIVITY_MESSAGE = (
    "model coefficients eta, psi, omega, atilde, chi must all be strictly positive"
)


class ModelKind:
    """What the solver asks of a model: its reaction split into an explicit
    part and implicit linear decay rates (_reaction), its chemotactic face
    velocity (_face_velocity), its homogeneous steady state and its
    invariant-region bounds; the public reaction and velocity derive from them."""

    def reaction(self, grid: GridSpec, a: np.ndarray, n: np.ndarray):
        """(rA, rN, lam_A, lam_N), so A_t = eta Lap A + rA - lam_A A etc.
        The rates are the slots of the grid's workspace right-hand sides,
        which the next call on that grid overwrites, or a read-only
        broadcast of a constant."""
        return self._reaction(grid, _workspace(grid).slots, a, n)

    def _reaction(self, grid: GridSpec, slots, a: np.ndarray, n: np.ndarray):
        """reaction() with the rates in the two (n, n) arrays `slots`."""
        raise NotImplementedError

    def velocity(self, A: ScalarField, a_floor: float) -> VectorField:
        """The chemotactic face velocity of A, with arrays of its own."""
        return self._face_velocity(A, a_floor).vector_field()

    def _face_velocity(self, A: ScalarField, a_floor: float) -> _Faces:
        """The velocity of A in the grid workspace's velocity faces, which
        the next velocity built on that grid overwrites.  For the built-in
        kinds it is chi * grad(A) / A with A averaged to faces: chi * diff /
        h / face mean on each interior face, in place, as chi * diff / (h/2)
        / face sum, the same bits (2 chi would overflow for chi > 9e307).
        The y faces take one contiguous call per operation over the
        flattened cells (see _Faces), with the face sums in the workspace's
        scratch."""
        if a_floor <= 0:
            raise ValueError("a_floor must be positive")
        a_min = A.values.min()
        if a_min < a_floor:
            raise HotspotError(f"A dropped to {a_min:.6g}, below floor {a_floor:.6g}")
        ws, (x_hi, x_lo, y_hi, y_lo) = _workspace(A.grid), _pairs(A.values)
        faces, half_h = ws.velocity, ws.half_h
        for hi, lo, v, total in ((x_hi, x_lo, faces.fx_in, ws.sums[0]),
                                 (y_hi, y_lo, faces.fy_in, ws.sums[1])):
            np.add(hi, lo, out=total)
            np.subtract(hi, lo, out=v)
            v *= self.chi
            v /= half_h
            v /= total
        faces.close()
        return faces

    def steady_state(self) -> tuple[float, float]:
        raise ValueError("perturbed_steady is only defined for the built-in model kinds")

    def bounds(self, A0: ScalarField, N0: ScalarField) -> DerivedBounds | None:
        return None


@dataclass(frozen=True)
class ModelParams(ModelKind):
    """Coefficients of the main system: attractiveness diffusivity eta,
    burglary boost rate psi, burglar relaxation rate omega, static
    attractiveness atilde, sensitivity strength chi."""

    eta: float
    psi: float
    omega: float
    atilde: float
    chi: float

    def __post_init__(self):
        vals = (self.eta, self.psi, self.omega, self.atilde, self.chi)
        if not all(v > 0 for v in vals):
            raise ValueError(f"{POSITIVITY_MESSAGE}; got {self}")

    def _reaction(self, grid, slots, a, n):
        # psi * n * a * (1.0 - a) + atilde, in that order
        rA, one_minus_a = slots
        np.multiply(self.psi, n, out=rA)
        rA *= a
        rA *= np.subtract(1.0, a, out=one_minus_a)
        rA += self.atilde
        return rA, np.broadcast_to(self.omega, n.shape), 1.0, self.omega

    def steady_state(self):
        return steady_state(self)

    def bounds(self, A0, N0):
        return derived_bounds(A0, N0, self)


@dataclass(frozen=True)
class ShortParams(ModelKind):
    """Coefficients of the Short et al. variant: diffusivity eta, intrinsic
    attractiveness a0, average attractiveness abar, sensitivity chi."""

    eta: float
    a0: float
    abar: float
    chi: float

    def __post_init__(self):
        if not all(v > 0 for v in (self.eta, self.a0, self.abar, self.chi)):
            raise ValueError(
                f"coefficients eta, a0, abar, chi must be strictly positive; got {self}"
            )

    def _reaction(self, grid, slots, a, n):
        # n * a + a0 and -n * a + abar - a0, in that order; rounding is
        # symmetric in sign, so abar - n * a has the bits of -n * a + abar
        rA, rN = slots
        na = np.multiply(n, a, out=rN)
        np.add(na, self.a0, out=rA)
        np.subtract(self.abar, na, out=rN)
        rN -= self.a0
        return rA, rN, 1.0, 0.0

    def steady_state(self):
        return short_steady_state(self)


@dataclass(frozen=True)
class DerivedBounds:
    """Invariant-region bounds: a_min = min{1, atilde, min A0},
    a_max = max{1, atilde, max A0}, n1_max = max{||N0||_1, |Omega|}."""

    a_min: float
    a_max: float
    n1_max: float

    def __post_init__(self):
        if not (0 < self.a_min <= self.a_max and self.n1_max > 0):
            raise ValueError(f"inconsistent bounds {self}")


EnvelopeFn = Union[float, Callable[[float], float]]


@dataclass
class GeneralModel(ModelKind):
    """Plugin contract for the generalized chemotaxis system
    A_t = eta Lap A - A + f(A,N),  N_t = Lap N - div(N grad h(A)) - omega N + g(A,N).

    The growth envelopes (g1, g2, delta, f1, f2) are declared by the plugin
    author and checked only at sampled points."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    eta: float
    omega: float
    a_min: float
    a_max: float
    delta: float
    g1: EnvelopeFn
    g2: EnvelopeFn
    f1: EnvelopeFn
    f2: EnvelopeFn

    def __post_init__(self):
        if not (0 < self.a_min < self.a_max):
            raise ValueError("declared bounds need 0 < a_min < a_max")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if not (self.eta > 0 and self.omega > 0):
            raise ValueError("eta and omega must be positive")

    def _reaction(self, grid, slots, a, n):
        for slot, name, fn in zip(slots, "fg", (self.f, self.g)):
            np.copyto(slot, plugin_field(grid, name, fn, a, n).values)
        return *slots, 1.0, self.omega

    def _face_velocity(self, A, a_floor):
        # generalized sensitivity: the face gradient of h(A) sampled at cells
        return gradient(plugin_field(A.grid, "h", self.h, A.values), _workspace(A.grid).velocity)


def plugin_field(grid: GridSpec, name: str, fn: Callable, *args) -> ScalarField:
    """Call the plugin callable `name` on read-only views of `args` and
    validate what it returned, where it enters.  Any Exception of either,
    a write into an input included, ends as a HotspotError naming the
    callable, so a run ends failed; a KeyboardInterrupt passes through."""
    views = [np.asarray(x).view() for x in args]
    for view in views:
        view.flags.writeable = False
    try:
        values = fn(*views)
    except Exception as exc:
        raise HotspotError(f"GeneralModel.{name} raised {exc!r}") from exc
    try:
        return ScalarField(grid, values)
    except (TypeError, ValueError) as exc:
        raise HotspotError(f"GeneralModel.{name}: {exc}") from exc


def _eval_envelope(e: EnvelopeFn, a: np.ndarray) -> np.ndarray:
    return e(a) if callable(e) else np.full_like(np.asarray(a, dtype=float), float(e))


# ---------------------------------------------------------------------------
# Chemotactic sensitivity
# ---------------------------------------------------------------------------

def sensitivity_floor(A: ScalarField, bounds: DerivedBounds | None = None) -> float:
    """The a_floor below which the built-in kinds' velocity refuses A: half
    of the bounds' a_min, or without bounds half of min(A)."""
    return (bounds.a_min if bounds is not None else float(np.min(A.values))) / 2.0


# ---------------------------------------------------------------------------
# Steady states and derived bounds
# ---------------------------------------------------------------------------

def steady_state(params: ModelParams) -> tuple[float, float]:
    """Homogeneous steady state (a*, n* = 1) of the main system."""
    psi, atilde = params.psi, params.atilde
    b = 1.0 - psi
    # positive root of psi a^2 + b a - atilde = 0, branch chosen to avoid
    # cancellation in the denominator
    disc = math.sqrt(b * b + 4.0 * psi * atilde)
    if b >= 0:
        a_star = 2.0 * atilde / (b + disc)
    else:
        a_star = (disc - b) / (2.0 * psi)
    residual = psi * a_star * (1.0 - a_star) + atilde - a_star
    scale = max(1.0, atilde, psi * a_star * a_star)
    if not abs(residual) <= 1e-12 * scale:  # NaN fails too
        raise ValueError(f"steady-state residual {residual:.3e} exceeds {1e-12 * scale:.3e}")
    return a_star, 1.0


def short_steady_state(params: ShortParams) -> tuple[float, float]:
    """Homogeneous steady state (abar, (abar - a0)/abar) of the Short variant."""
    if params.abar <= params.a0:
        raise ValueError("Short steady state needs abar > a0 for N* > 0")
    return params.abar, (params.abar - params.a0) / params.abar


def derived_bounds(
    A0: ScalarField, N0: ScalarField, params: ModelParams
) -> DerivedBounds:
    _same_grid(A0, N0)
    if np.min(A0.values) <= 0:
        raise HotspotError("initial attractiveness must be positive everywhere")
    if np.min(N0.values) < 0:
        raise HotspotError("initial criminal density must be nonnegative")
    a_min = min(1.0, params.atilde, float(np.min(A0.values)))
    a_max = max(1.0, params.atilde, float(np.max(A0.values)))
    n1_max = max(integral(N0), A0.grid.area)  # ||N0||_1, as N0 >= 0, with no temporary
    return DerivedBounds(a_min, a_max, n1_max)


# ---------------------------------------------------------------------------
# Sampled validation of the generalized-model hypotheses
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    passed: bool
    checked: tuple[str, ...]
    failures: list[str] = field(default_factory=list)
    n_samples: int = 0

    def summary(self) -> str:
        if self.passed:
            return (
                f"no counterexample found at {self.n_samples} sampled points "
                f"({', '.join(self.checked)})"
            )
        return "; ".join(self.failures)


_DERIV_CAP = 1e8  # sampled |h'|, |h''| above this is reported as a suspected violation


def validate_general_hypotheses(
    m: GeneralModel, n_samples: int = 256, seed: int = 0, n_big: float = 1e3
) -> HypothesisReport:
    """Check the sign, growth-envelope and sensitivity-smoothness conditions
    of the generalized model at deterministically sampled (A, N) points.
    Violations are report content, not errors."""
    rng = np.random.default_rng(seed)
    a_grid = np.linspace(m.a_min, m.a_max, max(2, n_samples // 4))
    a_rand = rng.uniform(m.a_min, m.a_max, n_samples)
    a = np.concatenate([a_grid, a_rand])
    n_grid = np.concatenate([[0.0], np.geomspace(1e-6, n_big, max(2, n_samples // 4))])
    n_rand = rng.uniform(0.0, n_big, n_samples)
    n = np.concatenate([n_grid, n_rand])

    failures: list[str] = []

    ga0 = np.asarray(m.g(a, np.zeros_like(a)), dtype=float)
    if np.any(ga0 < 0):
        bad = a[np.argmin(ga0)]
        failures.append(f"source sign: g(A, 0) = {np.min(ga0):.6g} < 0 at A={bad:.6g}")

    f_lo = np.asarray(m.f(np.full_like(n, m.a_min), n), dtype=float) - m.a_min
    if np.any(f_lo < 0):
        bad = n[np.argmin(f_lo)]
        failures.append(
            f"lower barrier: -a_min + f(a_min, N) = {np.min(f_lo):.6g} < 0 at N={bad:.6g}"
        )
    f_hi = np.asarray(m.f(np.full_like(n, m.a_max), n), dtype=float) - m.a_max
    if np.any(f_hi > 0):
        bad = n[np.argmax(f_hi)]
        failures.append(
            f"upper barrier: -a_max + f(a_max, N) = {np.max(f_hi):.6g} > 0 at N={bad:.6g}"
        )

    aa, nn = np.meshgrid(a[:: max(1, len(a) // 32)], n[:: max(1, len(n) // 32)])
    g_env = _eval_envelope(m.g1, aa) * nn ** (1.0 - m.delta) + _eval_envelope(m.g2, aa)
    g_val = np.abs(np.asarray(m.g(aa, nn), dtype=float))
    if np.any(g_val > g_env * (1 + 1e-12) + 1e-12):
        i = np.unravel_index(np.argmax(g_val - g_env), g_val.shape)
        failures.append(
            f"g-envelope: |g|={g_val[i]:.6g} exceeds declared bound {g_env[i]:.6g} "
            f"at (A, N)=({aa[i]:.6g}, {nn[i]:.6g})"
        )
    f_env = _eval_envelope(m.f1, aa) * nn + _eval_envelope(m.f2, aa)
    f_val = np.abs(np.asarray(m.f(aa, nn), dtype=float))
    if np.any(f_val > f_env * (1 + 1e-12) + 1e-12):
        i = np.unravel_index(np.argmax(f_val - f_env), f_val.shape)
        failures.append(
            f"f-envelope: |f|={f_val[i]:.6g} exceeds declared bound {f_env[i]:.6g} "
            f"at (A, N)=({aa[i]:.6g}, {nn[i]:.6g})"
        )

    # Sensitivity smoothness: finite h', h'' on the declared range, probed by
    # central differences at sampled interior points.
    da = (m.a_max - m.a_min) * 1e-6
    interior = a[(a > m.a_min + 2 * da) & (a < m.a_max - 2 * da)]
    # singularities hide at the endpoints, so probe there with a step scaled
    # to the endpoint itself
    da_lo = m.a_min * 1e-3
    probes = [(interior, da)]
    if da_lo > 0:
        probes.append((np.array([m.a_min + 2 * da_lo]), da_lo))
    smoothness_flagged = False
    for pts, step_ in probes:
        if pts.size == 0 or smoothness_flagged:
            continue
        hp = (np.asarray(m.h(pts + step_)) - np.asarray(m.h(pts - step_))) / (2 * step_)
        hpp = (
            np.asarray(m.h(pts + step_))
            - 2 * np.asarray(m.h(pts))
            + np.asarray(m.h(pts - step_))
        ) / step_ ** 2
        for name, vals in (("h'", hp), ("h''", hpp)):
            worst = float(np.max(np.abs(vals))) if np.all(np.isfinite(vals)) else math.inf
            if not math.isfinite(worst) or worst > _DERIV_CAP:
                failures.append(
                    f"sensitivity smoothness: sampled sup|{name}| = {worst:.6g} "
                    f"suggests an unbounded derivative on the declared A-range"
                )
                smoothness_flagged = True
                break

    checked = (
        "source sign",
        "invariant-region barriers",
        "g growth envelope",
        "f growth envelope",
        "sensitivity smoothness",
    )
    return HypothesisReport(
        passed=not failures,
        checked=checked,
        failures=failures,
        n_samples=len(a) + len(n),
    )
