"""The per-output analysis against a reference: the record and energy-term
code as it was before the analysis moved into the grid workspace, written
out here with arrays of its own.  The workspace pass must give every scalar
with the same bits.  Sizes from n=33 up reach numpy's recursive pairwise
sums, whose grouping follows each summed array's shape, which the n=16
golden runs do not."""

import math

import numpy as np
import pytest

from hotspotsim import analysis
from hotspotsim.analysis import choose_c, diagnostics_record, entropy_sigma
from hotspotsim.grid import GridSpec, HotspotError, ScalarField
from hotspotsim.model import DerivedBounds, ModelParams
from hotspotsim.solver import SimState


def _gradient(v, h):
    n = v.shape[0]
    fx, fy = np.zeros((n + 1, n)), np.zeros((n, n + 1))
    np.subtract(v[1:, :], v[:-1, :], out=fx[1:-1, :])
    fx[1:-1, :] /= h
    np.subtract(v[:, 1:], v[:, :-1], out=fy[:, 1:-1])
    fy[:, 1:-1] /= h
    return fx, fy


def _grad_sq_cells(fx, fy):
    gx2 = 0.5 * (fx[:-1, :] ** 2 + fx[1:, :] ** 2)
    gy2 = 0.5 * (fy[:, :-1] ** 2 + fy[:, 1:] ** 2)
    return gx2 + gy2


def _face_means(v):
    x, y = np.add(v[1:, :], v[:-1, :]), np.add(v[:, 1:], v[:, :-1])
    x *= 0.5
    y *= 0.5
    return x, y


def _l2sq(v, h2):
    return (float(np.sum(np.abs(v) ** 2) * h2) ** (1.0 / 2)) ** 2


def _boltzmann(n, h2):
    if np.min(n) < 0:
        raise HotspotError(f"entropy integrand undefined: density reached {np.min(n):.3e} < 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(n > 0, n * np.log(np.where(n > 0, n, 1.0)) - n + 1.0, 1.0)
    return float(np.sum(vals)) * h2


def _entropy_y(a, n, c, h2):
    if np.min(a) <= 0:
        raise HotspotError("attractiveness must be positive for the log weight")
    with np.errstate(divide="ignore", invalid="ignore"):
        nlogn = np.where(n > 0, n * np.log(np.where(n > 0, n, 1.0)), 0.0)
    vals = nlogn - c * n * np.log(a)
    return float(np.sum(vals)) * h2


def reference_record(state, params=None, bounds=None, n0_mass=None, tol=1e-6):
    """The record's scalars in CSV order, then c_used and the flags."""
    A, N = state.A, state.N
    a, n, h2 = A.values, N.values, A.grid.h ** 2
    grad = float(np.sum(_grad_sq_cells(*_gradient(a, A.grid.h)))) * h2
    mass = float(np.sum(n)) * h2
    rec = {"t": state.t, "mass_N": mass, "minA": float(np.min(a)), "maxA": float(np.max(a)),
           "minN": float(np.min(n)), "grad_A_l2sq": grad}
    if isinstance(params, ModelParams) and bounds is not None:
        rec["phi"] = entropy_sigma(params, bounds) * _boltzmann(n, h2) + 0.5 * grad
        c = choose_c(params.chi, params.eta)
        if c is not None:
            rec["c_used"], rec["y_entropy"] = c, _entropy_y(a, n, c, h2)
        if n0_mass is not None:
            span = bounds.a_max - bounds.a_min
            decay = math.exp(-params.omega * state.t)
            area = A.grid.area
            expected = decay * n0_mass + area * (1.0 - decay)
            rec["flags"] = (
                rec["minA"] >= bounds.a_min - tol * span,
                rec["maxA"] <= bounds.a_max + tol * span,
                rec["minN"] >= 1.0 - decay - tol,
                rec["minA"] - bounds.a_min,
                bounds.a_max - rec["maxA"],
                rec["minN"] - (1.0 - decay),
            )
            rec["mass_residual"] = abs(mass - expected) / area
    return rec


def reference_terms(A, N, params, middle):
    """The outer energy terms of an output of N > 0 and, if `middle`, the
    terms at its time."""
    a, n, h, h2 = A.values, N.values, A.grid.h, A.grid.h ** 2
    ax, ay = _gradient(a, h)
    outer = (_l2sq(a, h2), float(np.sum(_grad_sq_cells(ax, ay))) * h2,
             _boltzmann(n, h2), _l2sq(n, h2))
    if not middle:
        return outer, None
    psi, eta, omega = params.psi, params.eta, params.omega
    reaction_a = psi * float(np.sum(n * a ** 2 * (1.0 - a))) * h2
    source_a = params.atilde * (float(np.sum(a)) * h2)
    lap = np.subtract(ax[1:, :], ax[:-1, :])
    lap += ay[:, 1:] - ay[:, :-1]
    lap /= h
    diffusion_grad = eta * (float(np.sum(lap ** 2)) * h2)
    reaction_grad = psi * float(np.sum(n * a * (1.0 - a) * lap)) * h2
    id3_rhs = omega * float(np.sum(np.log(n) - n + 1.0)) * h2
    gx, gy = _gradient(n, h)
    grad_n_l2sq = float(np.sum(_grad_sq_cells(gx, gy))) * h2
    mx, my = _face_means(n)
    x = gx[1:-1, :] ** 2
    x /= mx
    x = np.sum(x)
    y = gy[:, 1:-1] ** 2
    y /= my
    fisher_n = float((x + np.sum(y)) * h2)
    theta = params.velocity(A, float(np.min(a)) / 2.0)
    x = np.sum(gx * theta.fx)
    theta_dot = float((x + np.sum(gy * theta.fy)) * h2)
    x = mx.copy()
    x *= gx[1:-1, :]
    x *= theta.fx[1:-1, :]
    x = np.sum(x)
    y = my.copy()
    y *= gy[:, 1:-1]
    y *= theta.fy[:, 1:-1]
    drift_n = float((x + np.sum(y)) * h2)
    source_n = omega * (float(np.sum(n)) * h2)
    return outer, (reaction_a, source_a, diffusion_grad, reaction_grad, fisher_n,
                   theta_dot, id3_rhs, grad_n_l2sq, drift_n, source_n)


def record_scalars(rec):
    got = {"t": rec.t, "mass_N": rec.mass_N, "minA": rec.minA, "maxA": rec.maxA,
           "minN": rec.minN, "grad_A_l2sq": rec.grad_A_l2sq}
    if rec.phi is not None:
        got["phi"] = rec.phi
    if rec.c_used is not None:
        got["c_used"], got["y_entropy"] = rec.c_used, rec.y_entropy
    if rec.bound_flags is not None:
        f = rec.bound_flags
        got["flags"] = (f.amin_ok, f.amax_ok, f.npos_ok,
                        f.amin_margin, f.amax_margin, f.npos_margin)
        got["mass_residual"] = rec.mass_residual
    return got


def bits(value):
    """Every float by repr, so that -0.0 and 0.0 differ."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return value


SMALL_CHI = ModelParams(eta=0.1, psi=0.3, omega=2.0, atilde=0.7, chi=0.8)  # Y defined
MAIN = ModelParams(eta=0.1, psi=0.0046667, omega=84.0, atilde=0.7, chi=2.0)


def random_state(n, seed, t=0.37):
    rng = np.random.default_rng(seed)
    grid = GridSpec(L=1.3, n=n)
    A = ScalarField(grid, rng.uniform(0.4, 1.6, (n, n)))
    N = ScalarField(grid, rng.uniform(0.05, 2.5, (n, n)))
    return SimState(t, A, N)


@pytest.mark.parametrize("n", [33, 64, 257])
@pytest.mark.parametrize("params", [SMALL_CHI, MAIN], ids=["small-chi", "main"])
def test_every_scalar_bitwise_equal_to_reference(n, params):
    state = random_state(n, seed=n)
    bounds = DerivedBounds(a_min=0.4, a_max=1.6, n1_max=3.0)
    for middle in (False, True):
        rec = diagnostics_record(state, params, bounds, n0_mass=1.9, middle=middle)
        assert bits(record_scalars(rec)) == bits(reference_record(state, params, bounds, 1.9))
        assert bits(rec.terms) == bits(reference_terms(state.A, state.N, params, middle))
    plain = diagnostics_record(state)
    assert bits(record_scalars(plain)) == bits(reference_record(state))
    assert plain.terms is None


@pytest.mark.parametrize("n", [33, 64, 257])
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
def test_record_of_a_density_with_exact_zeros(n, zero):
    state = random_state(n, seed=100 + n)
    values = state.N.values.copy()
    values[::3, ::2] = zero
    state = SimState(state.t, state.A, ScalarField(state.A.grid, values))
    bounds = DerivedBounds(a_min=0.4, a_max=1.6, n1_max=3.0)
    for params in (SMALL_CHI, MAIN):
        rec = diagnostics_record(state, params, bounds, n0_mass=1.9, middle=True)
        assert bits(record_scalars(rec)) == bits(reference_record(state, params, bounds, 1.9))
        assert rec.terms is None  # the energy balances need N > 0


def test_terms_need_positive_attractiveness_for_the_middle():
    state = random_state(33, seed=7)
    values = state.A.values.copy()
    values[4, 4] = -0.2
    state = SimState(state.t, ScalarField(state.A.grid, values), state.N)
    rec = diagnostics_record(state, MAIN, DerivedBounds(0.4, 1.6, 3.0), middle=True)
    outer, middle = rec.terms
    assert middle is None
    assert bits(outer) == bits(reference_terms(state.A, state.N, MAIN, False)[0])


def test_energy_residuals_equal_the_reference_terms():
    states = [random_state(64, seed=200 + k, t=0.1 * k) for k in range(3)]
    window = [(s.t, s.A, s.N) for s in states]
    terms = [reference_terms(s.A, s.N, MAIN, k == 1) for k, s in enumerate(states)]
    want = analysis._energy_balances([s.t for s in states], terms, MAIN)
    got = analysis.energy_residuals(window, MAIN)
    assert bits((got.r1, got.r2, got.r3, got.r4)) == bits((want.r1, want.r2, want.r3, want.r4))
    assert got.id3_sign_ok == want.id3_sign_ok
