"""Executable estimates and diagnostics: the global-existence condition
checker, critical-parameter formulas, entropy functionals, a priori bound
monitors, energy-identity residuals and functional-inequality probes.

Probe verdicts are sampled evidence about inequalities quantified over whole
function spaces; reports therefore say "no counterexample found", never
"verified"."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from . import grid as g
from .grid import HotspotError, ScalarField, _pairs, _same_grid, _workspace, spectral_hessian_norms
from .model import DerivedBounds, ModelParams


# Square-domain constants: best-constant bounds mu^2 <= 3/2 and K <= 12,
# giving epsilon_0 = mu^-2 K^-1/2 = 1/(3 sqrt 3).
MU_SQ_SQUARE = 1.5
K_SQUARE = 12.0
EPS0_SQUARE = 1.0 / (3.0 * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# Global existence condition
# ---------------------------------------------------------------------------

@dataclass
class ExistenceReport:
    lhs: float
    rhs: float
    epsilon0: float
    epsilon0_source: str  # "square_closed_form" or "user_supplied"
    holds: bool  # strict smallness condition lhs < rhs
    margin: float
    route: str  # "theorem_1_1" or "theorem_1_3" (first route that holds)
    alternate_route_holds: bool  # chi <= 1, atilde <= 1, max A0 <= 1: no size condition
    inputs: dict

    @property
    def any_route_holds(self) -> bool:
        return self.holds or self.alternate_route_holds

    def to_json(self) -> str:
        doc = asdict(self)
        doc["any_route_holds"] = self.any_route_holds
        return json.dumps(doc, indent=2, sort_keys=True)


def check_global_condition(
    params: ModelParams,
    bounds: DerivedBounds,
    domain: Optional[g.GridSpec] = None,
    mu_k_override: Optional[tuple[float, float]] = None,
) -> ExistenceReport:
    """Evaluate the smallness condition
    (a_max/a_min)^2 (a_max - a_min) n1_max < eps0 * eta / (psi chi^2),
    with eps0 the square closed form unless (mu, K) are supplied; also report
    the size-free alternate route (chi <= 1, atilde <= 1, max A0 <= 1)."""
    try:
        if mu_k_override is not None:
            mu, K = mu_k_override
            eps0 = mu ** -2 * K ** -0.5
            source = "user_supplied"
        else:
            eps0 = EPS0_SQUARE
            source = "square_closed_form"
        lhs = (bounds.a_max / bounds.a_min) ** 2 * (bounds.a_max - bounds.a_min) * bounds.n1_max
        rhs = eps0 * params.eta / (params.psi * params.chi ** 2)
        if not all(map(math.isfinite, (eps0, lhs, rhs))):
            raise OverflowError  # a product overflowed to inf without raising
    except (OverflowError, ZeroDivisionError):
        raise ValueError("a term of the condition overflows a double") from None
    holds = lhs < rhs
    # a_max = max{1, atilde, max A0} >= 1, so a_max <= 1 encodes max A0 <= 1.
    alternate = params.chi <= 1.0 and params.atilde <= 1.0 and bounds.a_max <= 1.0
    route = "theorem_1_1" if holds or not alternate else "theorem_1_3"
    inputs = {
        "eta": params.eta,
        "psi": params.psi,
        "chi": params.chi,
        "atilde": params.atilde,
        "a_min": bounds.a_min,
        "a_max": bounds.a_max,
        "n1_max": bounds.n1_max,
    }
    if domain is not None:
        inputs["L"] = domain.L
    return ExistenceReport(
        lhs=lhs,
        rhs=rhs,
        epsilon0=eps0,
        epsilon0_source=source,
        holds=holds,
        margin=rhs - lhs,
        route=route,
        alternate_route_holds=alternate,
        inputs=inputs,
    )


def critical_constants(eta: float, psi: float, area: float) -> tuple[float, float]:
    """Critical coefficient gamma = (12 sqrt 3 |Omega| psi)^-1 and the
    critical static attractiveness atilde_- = 2 / (1 + sqrt(1 + 4 gamma eta))."""
    if eta <= 0 or psi <= 0 or area <= 0:
        raise ValueError("eta, psi, area must be positive")
    denominator = 12.0 * math.sqrt(3.0) * area * psi  # 0 where psi * area underflows
    gamma = 1.0 / denominator if denominator > 0 else math.inf
    if not math.isfinite(gamma):
        raise ValueError(f"gamma overflows a double at psi={psi:g}, area={area:g}")
    atilde_minus = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * gamma * eta))
    return gamma, atilde_minus


# ---------------------------------------------------------------------------
# Entropy functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyParams:
    sigma: float
    c1: float
    omega_tilde: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class InfeasibleRegime:
    """The entropy coefficient c1 came out nonpositive: the dissipative
    regime of the approximate-entropy estimate is not available."""

    c1: float


def entropy_sigma(
    params: ModelParams, bounds: DerivedBounds, mu_sq: float = MU_SQ_SQUARE
) -> float:
    """Weight sigma = (2 psi^2 / eta) a_max^4 mu^2 n1_max of the N-entropy term."""
    try:
        return 2.0 * params.psi ** 2 / params.eta * bounds.a_max ** 4 * mu_sq * bounds.n1_max
    except OverflowError:
        raise ValueError(f"entropy weight sigma overflows at a_max={bounds.a_max:g}") from None


def entropy_params(
    params: ModelParams,
    bounds: DerivedBounds,
    mu_sq: float = MU_SQ_SQUARE,
    K: float = K_SQUARE,
) -> Union[EntropyParams, InfeasibleRegime]:
    if mu_sq <= 0 or K <= 0:
        raise ValueError("mu_sq and K must be positive")
    c1 = 0.5 * params.eta * (
        1.0
        - K
        * params.chi ** 4
        * params.eta ** -2
        * mu_sq ** 2
        * params.psi ** 2
        * bounds.n1_max ** 2
        * bounds.a_min ** -4
        * bounds.a_max ** 4
        * (bounds.a_max - bounds.a_min) ** 2
    )
    if c1 <= 0:
        return InfeasibleRegime(c1=c1)
    return EntropyParams(
        sigma=entropy_sigma(params, bounds, mu_sq),
        c1=c1,
        omega_tilde=min(params.omega, 2.0),
    )


def _nlogn_m_n_p1(n: np.ndarray) -> np.ndarray:
    """s log s - s + 1 extended by its limit 1 at s = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(n > 0, n * np.log(np.where(n > 0, n, 1.0)) - n + 1.0, 1.0)
    return vals


def boltzmann_entropy(N: ScalarField) -> float:
    """int (N log N - N + 1) dx, the Boltzmann-type entropy of the density."""
    if np.min(N.values) < 0:
        raise HotspotError(
            f"entropy integrand undefined: density reached {np.min(N.values):.3e} < 0"
        )
    vals = _nlogn_m_n_p1(N.values)
    return float(np.sum(vals)) * N.grid.h ** 2


def entropy_phi(state, ep: EntropyParams) -> float:
    """Approximate entropy phi = sigma int(N log N - N + 1) + 1/2 ||grad A||_2^2."""
    if np.min(state.N.values) < 0:
        raise HotspotError("density must be nonnegative")
    return ep.sigma * boltzmann_entropy(state.N) + 0.5 * g.grad_l2sq(state.A)


def choose_c(chi: float, eta: float) -> Optional[float]:
    """Most-feasible weight c for the modified entropy: the vertex of the
    feasibility quadratic (1+eta)^2 c^2 - 2c(chi + 2 eta - chi eta) + chi^2.
    Returns None when no feasible c exists (equivalently chi > 1)."""
    if chi <= 0 or eta <= 0:
        raise ValueError("chi and eta must be positive")
    try:
        c = (chi + 2.0 * eta - chi * eta) / (1.0 + eta) ** 2
        q = (1.0 + eta) ** 2 * c * c - 2.0 * c * (chi + 2.0 * eta - chi * eta) + chi * chi
    except OverflowError:
        raise ValueError(f"(1 + eta)^2 overflows at eta={eta:g}") from None
    if q <= 1e-14 * max(1.0, chi * chi):
        return c
    return None


def entropy_Y(state, c: float) -> float:
    """Modified entropy Y = int N (log N - c log A) dx (N log N extended by 0)."""
    a, n = state.A.values, state.N.values
    if np.min(a) <= 0:
        raise HotspotError("attractiveness must be positive for the log weight")
    with np.errstate(divide="ignore", invalid="ignore"):
        nlogn = np.where(n > 0, n * np.log(np.where(n > 0, n, 1.0)), 0.0)
    vals = nlogn - c * n * np.log(a)
    return float(np.sum(vals)) * state.A.grid.h ** 2


# ---------------------------------------------------------------------------
# A priori bound monitors
# ---------------------------------------------------------------------------

@dataclass
class BoundFlags:
    amin_ok: bool
    amax_ok: bool
    npos_ok: bool
    amin_margin: float
    amax_margin: float
    npos_margin: float
    mass_residual: float

    @property
    def all_ok(self) -> bool:
        return self.amin_ok and self.amax_ok and self.npos_ok

    def as_string(self) -> str:
        return (
            f"amin={'pass' if self.amin_ok else 'FAIL'};"
            f"amax={'pass' if self.amax_ok else 'FAIL'};"
            f"npos={'pass' if self.npos_ok else 'FAIL'}"
        )


def verify_apriori(
    state,
    bounds: DerivedBounds,
    params: ModelParams,
    n0_mass: float,
    tol: float = 1e-6,
) -> BoundFlags:
    """Check the invariant-region bounds on A, the exponential lower bound
    on N and the exact L1 law of N at the state's time."""
    a, n = state.A.values, state.N.values
    extrema = float(np.min(a)), float(np.max(a)), float(np.min(n))
    return _bound_flags(state.t, *extrema, g.integral(state.N), state.A.grid.area,
                        bounds, params, n0_mass, tol)


def _bound_flags(t, min_a, max_a, min_n, mass, area, bounds, params, n0_mass, tol) -> BoundFlags:
    """verify_apriori from a state's extrema and the mass of its N."""
    span = bounds.a_max - bounds.a_min
    decay = math.exp(-params.omega * t)
    n_floor = 1.0 - decay
    expected_mass = decay * n0_mass + area * (1.0 - decay)
    return BoundFlags(
        amin_ok=min_a >= bounds.a_min - tol * span,
        amax_ok=max_a <= bounds.a_max + tol * span,
        npos_ok=min_n >= n_floor - tol,
        amin_margin=min_a - bounds.a_min,
        amax_margin=bounds.a_max - max_a,
        npos_margin=min_n - n_floor,
        mass_residual=abs(mass - expected_mass) / area,
    )


# ---------------------------------------------------------------------------
# Energy-identity residuals
# ---------------------------------------------------------------------------

@dataclass
class EnergyResiduals:
    r1: float
    r2: float
    r3: float
    r4: float
    id3_sign_ok: bool  # omega int(log N - N + 1) <= 0


def _output_scalars(A: ScalarField, N: ScalarField, params, main: bool = False,
                    c: Optional[float] = None, middle: bool = False):
    """Every scalar that one output gives its diagnostics record and its
    energy balances, in one pass that allocates nothing of n^2 size.  Each
    n x n intermediate goes into a grid workspace buffer that the next step
    overwrites before it reads it: the residual slices, the flux faces and
    the velocity faces (never the rhs slots, which ModelKind.reaction hands
    out, nor the cached denominators).  Each scalar keeps the operations,
    operand order and summed array shapes of the functional it equals, so
    its bits too; gradient(A) and log N are each taken once.

    Returns (mass_N, minA, maxA, minN, ||grad A||_2^2, entropy, Y, terms),
    the last three None unless `main` asks for the main model's: the
    Boltzmann entropy of N (an error where N < 0), Y when `c` is given (an
    error where A <= 0), and, where N > 0, the (outer, middle) terms that
    _energy_balances takes.  The outer terms are ||A||_2^2, ||grad A||_2^2,
    the Boltzmann entropy of N and ||N||_2^2, read in every window the
    output sits in; the middle terms, those at its time, are taken when
    `middle` asks for them and A > 0, else None."""
    grid = _same_grid(A, N)
    ws, h2, m = _workspace(grid), grid.h ** 2, grid.n
    a, n = A.values, N.values
    r0, r1 = ws.scratch  # the residual slices, (m, m) each, and as one array:
    flat = ws.residual.reshape(-1)
    min_a, max_a, min_n = float(np.min(a)), float(np.max(a)), float(np.min(n))
    mass = float(np.sum(n)) * h2
    outer = main and min_n > 0
    mid = outer and middle and min_a > 0

    # grad A in the flux faces: its divergence is the Laplacian of the r2
    # terms, and then ||grad A||^2 squares it in place
    G = g.gradient(A, ws.flux)
    if mid:
        lap = G.divergence(r0, r1, grid.h)
        diffusion_grad = params.eta * (float(np.square(lap, out=r1).sum()) * h2)
        one_minus_a = np.subtract(1.0, a, out=ws.velocity.fy)  # theta overwrites it
        s = np.square(a, out=r1)
        s *= n
        s *= one_minus_a
        reaction_a = params.psi * float(s.sum()) * h2
        s = np.multiply(n, a, out=r1)
        s *= one_minus_a
        s *= lap
        reaction_grad = params.psi * float(s.sum()) * h2
    grad_a = float(g._grad_sq_cells(G, r0, r1).sum()) * h2

    if mid:
        # theta in the velocity faces, grad N in the flux faces.  numpy
        # buffers a 2-D strided operand, so every operand is contiguous: the
        # y faces are worked on flat and copied out to be summed.  Each sum is
        # over an array of the shape the VectorField terms had, as pairwise
        # sums group by shape
        theta = params._face_velocity(A, min_a / 2.0)
        G = g.gradient(N, ws.flux)
        # x faces: theta . grad N over all, (m + 1, m); the drift and fisher
        # terms over the interior ones, from N's face means
        dot_x = np.multiply(G.fx, theta.fx, out=flat[: (m + 1) * m].reshape(m + 1, m)).sum()
        mean = np.add(n[1:, :], n[:-1, :], out=flat[m * m : (2 * m - 1) * m].reshape(m - 1, m))
        mean *= 0.5
        q = np.multiply(mean, G.fx_in, out=flat[: (m - 1) * m].reshape(m - 1, m))
        q *= theta.fx_in
        drift = [q.sum()]
        np.square(G.fx_in, out=q)
        q /= mean
        fisher = [q.sum()]
        # y faces, flat; the interior ones are summed as (m, m - 1) in
        # theta's x faces, which are read no more
        mean, q = r0.reshape(-1)[:-1], r1.reshape(-1)[:-1]
        interior = theta.fx_in.reshape(m, m - 1)

        def interior_sum():
            np.copyto(interior, r1[:, :-1])
            return interior.sum()

        np.add(*_pairs(n)[2:], out=mean)
        mean *= 0.5
        np.multiply(mean, G.fy_in, out=q)
        q *= theta.fy_in
        drift.append(interior_sum())
        np.square(G.fy_in, out=q)
        q /= mean
        fisher.append(interior_sum())
        drift_n = float((drift[0] + drift[1]) * h2)
        fisher_n = float((fisher[0] + fisher[1]) * h2)
        # theta . grad N over all y faces, (m, m + 1), the boundary ones 0
        np.multiply(G.fy_in, theta.fy_in, out=theta.fy_in)
        dot_y = flat[: m * (m + 1)].reshape(m, m + 1)
        dot_y[:, ::m] = 0.0
        np.copyto(dot_y[:, 1:-1], theta.fy[:, :-1])
        theta_dot = float((dot_x + dot_y.sum()) * h2)
        grad_n_l2sq = float(g._grad_sq_cells(G, r0, r1).sum()) * h2

    boltzmann = y_entropy = None
    if main:
        if min_n < 0:
            raise HotspotError(f"entropy integrand undefined: density reached {min_n:.3e} < 0")
        # log N, with log 1 = 0 where N = 0 (an N with zeros takes a temporary)
        positive = n if min_n > 0 else np.where(n > 0, n, 1.0)
        log_n = np.log(positive, out=r0)
        if mid:
            s = np.subtract(log_n, n, out=r1)
            s += 1.0
            id3_rhs = params.omega * float(s.sum()) * h2
        nlogn = np.multiply(positive, log_n, out=r0)  # N log N extended by 0
        s = np.subtract(nlogn, n, out=r1)
        s += 1.0
        boltzmann = float(s.sum()) * h2
        if c is not None:
            if min_a <= 0:
                raise HotspotError("attractiveness must be positive for the log weight")
            s = np.multiply(c, n, out=r1)
            s *= np.log(a, out=ws.flux.fy)
            y_entropy = float(np.subtract(nlogn, s, out=s).sum()) * h2
    if not outer:
        return mass, min_a, max_a, min_n, grad_a, boltzmann, y_entropy, None

    def l2sq(v):
        return (float(np.square(v, out=r1).sum() * h2) ** 0.5) ** 2

    middle_terms = None
    if mid:
        source_a = params.atilde * (float(np.sum(a)) * h2)
        middle_terms = (reaction_a, source_a, diffusion_grad, reaction_grad, fisher_n,
                        theta_dot, id3_rhs, grad_n_l2sq, drift_n, params.omega * mass)
    outer_terms = l2sq(a), grad_a, boltzmann, l2sq(n)
    return mass, min_a, max_a, min_n, grad_a, boltzmann, y_entropy, (outer_terms, middle_terms)


def _energy_balances(times, terms, params: ModelParams) -> EnergyResiduals:
    """The four balances' absolute defects at the middle of three outputs
    at `times`, from their _output_scalars terms, with the time derivatives by
    central differences."""
    t0, _, t2 = times
    (s0, _), (s1, middle), (s2, _) = terms
    two_d = t2 - t0
    d_a2, d_grad, d_ent, d_n2 = ((late - early) / two_d for early, late in zip(s0, s2))
    a_l2sq, grad_a_l2sq, entropy, n_l2sq = s1
    (reaction_a, source_a, diffusion_grad, reaction_grad, fisher_n,
     theta_dot, id3_rhs, grad_n_l2sq, drift_n, source_n) = middle
    eta, omega = params.eta, params.omega
    return EnergyResiduals(
        r1=abs(0.5 * d_a2 + a_l2sq + eta * grad_a_l2sq - reaction_a - source_a),
        r2=abs(0.5 * d_grad + grad_a_l2sq + diffusion_grad + reaction_grad),
        r3=abs(d_ent + omega * entropy + fisher_n - theta_dot - id3_rhs),
        r4=abs(0.5 * d_n2 + omega * n_l2sq + grad_n_l2sq - drift_n - source_n),
        id3_sign_ok=id3_rhs <= 1e-12,
    )


def _uniform_spacing(t0: float, t1: float, t2: float) -> bool:
    """Whether three output times are uniformly spaced: their two gaps
    differ by at most 1e-9 of the larger one."""
    return abs((t2 - t1) - (t1 - t0)) <= 1e-9 * max(t1 - t0, t2 - t1)


def energy_residuals(window, params: ModelParams) -> EnergyResiduals:
    """Absolute defects of the four energy balances on a uniformly spaced
    window of three consecutive outputs ((t-d, A, N), (t, A, N), (t+d, A, N)),
    with time derivatives by central differences at the middle time; run()
    takes the same _output_scalars terms of each output and combines them alike."""
    (t0, _, _), (t1, A1, _), (t2, _, _) = window
    if not (t1 - t0 > 0 and _uniform_spacing(t0, t1, t2)):
        raise ValueError("window must be uniformly spaced in time")
    if min(np.min(N.values) for _, _, N in window) <= 0:
        raise HotspotError("the entropy balance needs N > 0 on the whole window")
    if np.min(A1.values) <= 0:
        raise HotspotError("the energy balances need A > 0 at the window's middle")
    terms = [_output_scalars(A, N, params, main=True, middle=k == 1)[-1]
             for k, (_, A, N) in enumerate(window)]
    return _energy_balances((t0, t1, t2), terms, params)


# ---------------------------------------------------------------------------
# Functional-inequality probes
# ---------------------------------------------------------------------------

@dataclass
class PoincareProbe:
    ratio_l1: float  # ||u - mean||_2 / ||grad u||_1, bounded by sqrt(3/2)
    sobolev_slack: Optional[float]  # >= 0 up to discretization slack when u > 0


def poincare_probe(u: ScalarField) -> PoincareProbe:
    if g.osc(u) <= 1e-13 * max(1.0, float(np.max(np.abs(u.values)))):
        raise HotspotError("ratio is undefined for a constant field")
    ubar = g.mean(u)
    centered = ScalarField(u.grid, u.values - ubar)
    ratio = g.lp_norm(centered, 2) / g.grad_l1(u)
    slack = None
    if np.min(u.values) > 0:
        l1 = g.lp_norm(u, 1)
        slack = (
            MU_SQ_SQUARE * l1 * g.fisher(u)
            + l1 ** 2 / u.grid.area
            - g.lp_norm(u, 2) ** 2
        )
    return PoincareProbe(ratio_l1=ratio, sobolev_slack=slack)


@dataclass
class InterpolationProbe:
    ratio_K: float  # int|grad u|^4 / (osc^2 int|Lap u|^2), bounded by 12
    fourier_gap: Optional[float]  # relative defect of the spectral Hessian identity


def interpolation_probe(
    u: ScalarField, spectral_coeffs: Optional[np.ndarray] = None
) -> InterpolationProbe:
    o = g.osc(u)
    lap2 = g.laplacian_l2sq(u)
    scale = max(1.0, float(np.max(np.abs(u.values))))
    if o <= 1e-13 * scale or lap2 <= (1e-13 * scale) ** 2:
        raise HotspotError("ratio is undefined for constant or harmonic fields")
    ratio = g.grad4(u) / (o ** 2 * lap2)
    gap = None
    if spectral_coeffs is not None:
        norms = spectral_hessian_norms(spectral_coeffs, u.grid.L)
        lhs = norms["uxx"] + norms["uyy"] + 2.0 * norms["uxy"]
        rhs = norms["laplacian"]
        gap = abs(lhs - rhs) / max(rhs, np.finfo(float).tiny)
    return InterpolationProbe(ratio_K=ratio, fourier_gap=gap)


# ---------------------------------------------------------------------------
# Per-output diagnostics
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "mass_N",
    "minA",
    "maxA",
    "minN",
    "grad_A_l2sq",
    "phi",
    "y_entropy",
    "mass_residual",
    "r1",
    "r2",
    "r3",
    "r4",
    "flags",
)


@dataclass
class DiagnosticsRecord:
    t: float
    mass_N: float
    minA: float
    maxA: float
    minN: float
    grad_A_l2sq: float
    phi: Optional[float] = None
    y_entropy: Optional[float] = None
    c_used: Optional[float] = None
    mass_residual: Optional[float] = None
    bound_flags: Optional[BoundFlags] = None
    residuals: Optional[EnergyResiduals] = None
    # the output's energy terms, where diagnostics_record took them (see
    # _output_scalars); _append_record combines those of the last three records
    terms: Optional[tuple] = field(default=None, repr=False, compare=False)

    def csv_row(self) -> str:
        cells = []
        for name in CSV_COLUMNS:
            if name == "flags":
                cells.append(self.bound_flags.as_string() if self.bound_flags else "")
                continue
            if name in ("r1", "r2", "r3", "r4"):
                v = getattr(self.residuals, name) if self.residuals else None
            else:
                v = getattr(self, name)
            cells.append("" if v is None else repr(float(v)))
        return ",".join(cells)


def diagnostics_record(
    state,
    params=None,
    bounds: Optional[DerivedBounds] = None,
    n0_mass: Optional[float] = None,
    tol: float = 1e-6,
    middle: bool = False,
) -> DiagnosticsRecord:
    """Fill the per-output-time scalars; the entropy and monitor columns are
    only available for the main model, and so are the output's energy
    `terms`, with its `middle` ones if asked: run() takes each output's
    record and terms in this one pass."""
    main = isinstance(params, ModelParams) and bounds is not None
    sigma = entropy_sigma(params, bounds) if main else None
    c = choose_c(params.chi, params.eta) if main else None
    mass, min_a, max_a, min_n, grad_a, entropy, y_entropy, output_terms = _output_scalars(
        state.A, state.N, params, main, c, middle
    )
    rec = DiagnosticsRecord(state.t, mass, min_a, max_a, min_n, grad_a, terms=output_terms)
    if main:
        rec.phi = sigma * entropy + 0.5 * grad_a
        if c is not None:
            rec.c_used, rec.y_entropy = c, y_entropy
        if n0_mass is not None:
            rec.bound_flags = _bound_flags(state.t, min_a, max_a, min_n, mass,
                                           state.A.grid.area, bounds, params, n0_mass, tol)
            rec.mass_residual = rec.bound_flags.mass_residual
    return rec


def _append_record(records, state, params, bounds, n0_mass, tol, last) -> None:
    """Append the diagnostics record of the output `state` to `records`, a
    run's records so far, whose last three are the energy window: the new
    record completes the window of the one before it, whose residuals are
    filled in where the three are uniformly spaced and each has its terms.
    Terms are None for a model other than the main one and where N > 0
    fails; the first output, the `last` and one of A <= 0 (after which the
    next step's velocity ends the run) have no middle terms."""
    records.append(diagnostics_record(state, params, bounds, n0_mass, tol,
                                      middle=bool(records) and not last))
    window = records[-3:]
    times, terms = [rec.t for rec in window], [rec.terms for rec in window]
    if len(window) == 3 and _uniform_spacing(*times) and None not in terms:
        window[1].residuals = _energy_balances(times, terms, params)
