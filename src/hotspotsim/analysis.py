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
from .grid import HotspotError, ScalarField, spectral_hessian_norms
from .model import DerivedBounds, ModelParams, sensitivity_floor


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
    span = bounds.a_max - bounds.a_min
    min_a = float(np.min(state.A.values))
    max_a = float(np.max(state.A.values))
    min_n = float(np.min(state.N.values))
    decay = math.exp(-params.omega * state.t)
    n_floor = 1.0 - decay
    area = state.A.grid.area
    mass = g.integral(state.N)
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


def _grad_dot(G, F) -> float:
    """int grad(u) . F dx over interior faces, from G = grad(u); the x-face
    sum is taken before the y-face product is built."""
    h2 = G.grid.h ** 2
    x = np.sum(G.fx * F.fx)
    return float((x + np.sum(G.fy * F.fy)) * h2)


def _weighted_grad_dot(w: np.ndarray, G, F) -> float:
    """int w grad(u) . F dx from the values w and G = grad(u); each face
    family's means of w are built, used in place and dropped in turn."""
    h2 = G.grid.h ** 2
    x = g._face_mean_x(w)
    x *= G.fx[1:-1, :]
    x *= F.fx[1:-1, :]
    x = np.sum(x)
    y = g._face_mean_y(w)
    y *= G.fy[:, 1:-1]
    y *= F.fy[:, 1:-1]
    return float((x + np.sum(y)) * h2)


def _output_terms(
    A: ScalarField, N: ScalarField, grad_A_l2sq: float, params: ModelParams, middle: bool
):
    """The scalars that the energy balances take from one output of N > 0,
    so that its fields need not be kept for them: the outer terms, read in
    every window the output sits in, and, for the `middle` output of a
    window, the terms at its time (else None).  The outer terms are
    ||A||_2^2, ||grad A||_2^2 (given, as a diagnostics record has it), the
    Boltzmann entropy of N and ||N||_2^2."""
    outer = (g.lp_norm(A, 2) ** 2, grad_A_l2sq, boltzmann_entropy(N), g.lp_norm(N, 2) ** 2)
    if not middle:
        return outer, None
    area_w = A.grid.h ** 2
    a, n = A.values, N.values
    psi, eta, omega = params.psi, params.eta, params.omega

    # each integral is taken, and its n^2 temporaries dropped, before the
    # arrays of the next are built, so few are alive at once; every one
    # keeps its operations and their order
    reaction_a = psi * float(np.sum(n * a ** 2 * (1.0 - a))) * area_w
    source_a = params.atilde * g.integral(A)

    lap_a = g.laplacian(A).values
    diffusion_grad = eta * (float(np.sum(lap_a ** 2)) * area_w)
    reaction_grad = psi * float(np.sum(n * a * (1.0 - a) * lap_a)) * area_w
    del lap_a

    id3_rhs = omega * float(np.sum(np.log(n) - n + 1.0)) * area_w
    # the gradient of N serves ||grad N||_2^2, the fisher term and both
    # dot products
    grad_n = g.gradient(N)
    grad_n_l2sq = float(np.sum(g._grad_sq_cells(grad_n))) * area_w
    fisher_n = g._fisher(grad_n, n)
    theta_grad = params.velocity(A, sensitivity_floor(A))
    theta_dot = _grad_dot(grad_n, theta_grad)
    drift_n = _weighted_grad_dot(n, grad_n, theta_grad)
    source_n = omega * g.integral(N)
    return outer, (reaction_a, source_a, diffusion_grad, reaction_grad, fisher_n,
                   theta_dot, id3_rhs, grad_n_l2sq, drift_n, source_n)


def _energy_balances(times, terms, params: ModelParams) -> EnergyResiduals:
    """The four balances' absolute defects at the middle of three outputs
    at `times`, from their _output_terms, with the time derivatives by
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
    takes the same _output_terms of each output and combines them alike."""
    (t0, _, _), (t1, _, _), (t2, _, _) = window
    if not (t1 - t0 > 0 and _uniform_spacing(t0, t1, t2)):
        raise ValueError("window must be uniformly spaced in time")
    if min(np.min(N.values) for _, _, N in window) <= 0:
        raise HotspotError("the entropy balance needs N > 0 on the whole window")
    terms = [_output_terms(A, N, g.grad_l2sq(A), params, middle=k == 1)
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
) -> DiagnosticsRecord:
    """Fill the per-output-time scalars; the entropy and monitor columns are
    only available for the main model."""
    rec = DiagnosticsRecord(
        t=state.t,
        mass_N=g.integral(state.N),
        minA=float(np.min(state.A.values)),
        maxA=float(np.max(state.A.values)),
        minN=float(np.min(state.N.values)),
        grad_A_l2sq=g.grad_l2sq(state.A),
    )
    if isinstance(params, ModelParams) and bounds is not None:
        sigma = entropy_sigma(params, bounds)
        rec.phi = sigma * boltzmann_entropy(state.N) + 0.5 * rec.grad_A_l2sq
        c = choose_c(params.chi, params.eta)
        if c is not None:
            rec.c_used = c
            rec.y_entropy = entropy_Y(state, c)
        if n0_mass is not None:
            rec.bound_flags = verify_apriori(state, bounds, params, n0_mass, tol)
            rec.mass_residual = rec.bound_flags.mass_residual
    return rec
