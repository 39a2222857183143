import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspotsim import analysis
from hotspotsim import grid as g
from hotspotsim.analysis import (
    EPS0_SQUARE,
    K_SQUARE,
    MU_SQ_SQUARE,
    EntropyParams,
    InfeasibleRegime,
    boltzmann_entropy,
    check_global_condition,
    choose_c,
    critical_constants,
    diagnostics_record,
    energy_residuals,
    entropy_Y,
    entropy_params,
    entropy_phi,
    entropy_sigma,
    interpolation_probe,
    poincare_probe,
    verify_apriori,
)
from hotspotsim.grid import GridSpec, HotspotError, ScalarField, cosine_mode, sample_cosine_field
from hotspotsim.model import (
    DerivedBounds,
    ModelParams,
    sensitivity_grad,
    steady_state,
)
from hotspotsim.solver import SimState

PSI = 0.0046667
PARAMS = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)


def const_state(grid, a, n, t=0.0):
    A = ScalarField(grid, np.full((grid.n, grid.n), float(a)))
    N = ScalarField(grid, np.full((grid.n, grid.n), float(n)))
    return SimState(t, A, N)


class TestConstants:
    def test_eps0_closed_form(self):
        assert EPS0_SQUARE == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
        # also equals mu^-2 K^-1/2 with the square-domain constants
        assert EPS0_SQUARE == pytest.approx(
            MU_SQ_SQUARE ** -1 * K_SQUARE ** -0.5, rel=1e-15
        )

    def test_gamma_value(self):
        gamma, _ = critical_constants(0.1, PSI, 1.0)
        # 1/(12 sqrt(3) psi) with psi = 14/3 * 10^-3 equals 125 sqrt(3)/21
        assert gamma == pytest.approx(125.0 * math.sqrt(3.0) / 21.0, rel=2e-5)
        assert gamma == pytest.approx(10.3098, abs=5e-4)

    def test_critical_atilde_table(self):
        expected = {0.01: 0.91, 0.05: 0.73, 0.1: 0.61, 0.2: 0.49}
        for eta, val in expected.items():
            _, atm = critical_constants(eta, PSI, 1.0)
            assert atm == pytest.approx(val, abs=5e-3)

    @given(e1=st.floats(1e-4, 10.0), e2=st.floats(1e-4, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_critical_atilde_decreasing_in_eta(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        _, a_lo = critical_constants(lo, PSI, 1.0)
        _, a_hi = critical_constants(hi, PSI, 1.0)
        assert a_hi < a_lo

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            critical_constants(-1.0, PSI, 1.0)


class TestGlobalCondition:
    def test_reference_hold_case(self):
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        rep = check_global_condition(PARAMS, bounds)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.6122, abs=5e-5)
        assert rep.rhs == pytest.approx(1.031, abs=5e-4)
        assert rep.route == "theorem_1_1"

    def test_reference_fail_case(self):
        bounds = DerivedBounds(a_min=0.5, a_max=1.0, n1_max=1.0)
        rep = check_global_condition(PARAMS, bounds)
        assert not rep.holds
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)
        assert not rep.any_route_holds  # chi = 2 closes the alternate route too

    def test_zero_oscillation_holds_trivially(self):
        bounds = DerivedBounds(a_min=1.0, a_max=1.0, n1_max=50.0)
        rep = check_global_condition(PARAMS, bounds)
        assert rep.lhs == 0.0
        assert rep.holds

    def test_alternate_route_ignores_size(self):
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.9, chi=0.8)
        bounds = DerivedBounds(a_min=0.5, a_max=1.0, n1_max=1e9)
        rep = check_global_condition(params, bounds)
        assert not rep.holds
        assert rep.alternate_route_holds
        assert rep.any_route_holds
        assert rep.route == "theorem_1_3"

    def test_alternate_route_requires_small_chi(self):
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.9, chi=1.1)
        bounds = DerivedBounds(a_min=0.5, a_max=1.0, n1_max=1e9)
        rep = check_global_condition(params, bounds)
        assert not rep.alternate_route_holds

    def test_mu_k_override(self):
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        rep = check_global_condition(PARAMS, bounds, mu_k_override=(1.0, 4.0))
        assert rep.epsilon0 == pytest.approx(0.5)
        assert rep.epsilon0_source == "user_supplied"

    def test_lhs_depends_only_on_shape_quantities(self):
        # lhs = (ratio)^2 * (difference) * n1_max
        bounds = DerivedBounds(a_min=0.8, a_max=1.2, n1_max=2.5)
        rep = check_global_condition(PARAMS, bounds)
        assert rep.lhs == pytest.approx((1.2 / 0.8) ** 2 * 0.4 * 2.5, rel=1e-13)

    def test_json_round_trip(self):
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        rep = check_global_condition(PARAMS, bounds, domain=GridSpec(1.0, 8))
        doc = json.loads(rep.to_json())
        for key in ("lhs", "rhs", "epsilon0", "holds", "margin", "route", "inputs"):
            assert key in doc
        assert doc["inputs"]["L"] == 1.0

    def test_margin_sign_matches_verdict(self):
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        rep = check_global_condition(PARAMS, bounds)
        assert (rep.margin > 0) == rep.holds


class TestEntropyParams:
    BOUNDS_OK = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
    BOUNDS_BAD = DerivedBounds(a_min=0.5, a_max=1.0, n1_max=1.0)

    def test_sigma_value(self):
        sigma = entropy_sigma(PARAMS, self.BOUNDS_OK)
        assert sigma == pytest.approx(2 * PSI ** 2 / 0.1 * 1.5, rel=1e-12)
        assert sigma == pytest.approx(6.533e-4, abs=1e-6)

    def test_dissipative_regime(self):
        ep = entropy_params(PARAMS, self.BOUNDS_OK)
        assert isinstance(ep, EntropyParams)
        assert ep.c1 == pytest.approx(0.0324, abs=5e-4)
        assert ep.omega_tilde == pytest.approx(2.0)  # min(omega, 2)

    def test_infeasible_regime(self):
        ep = entropy_params(PARAMS, self.BOUNDS_BAD)
        assert isinstance(ep, InfeasibleRegime)
        assert ep.c1 < 0

    def test_omega_tilde_caps_at_omega(self):
        params = ModelParams(eta=0.1, psi=PSI, omega=0.5, atilde=0.7, chi=2.0)
        ep = entropy_params(params, self.BOUNDS_OK)
        assert ep.omega_tilde == pytest.approx(0.5)


class TestEntropyFunctionals:
    def test_boltzmann_zero_at_uniform_one(self):
        grid = GridSpec(L=1.0, n=16)
        state = const_state(grid, 1.0, 1.0)
        assert boltzmann_entropy(state.N) == pytest.approx(0.0, abs=1e-15)

    def test_boltzmann_constant_value(self):
        grid = GridSpec(L=2.0, n=16)
        state = const_state(grid, 1.0, 3.0)
        assert boltzmann_entropy(state.N) == pytest.approx(
            (3 * math.log(3) - 2) * 4.0, rel=1e-12
        )

    def test_boltzmann_limit_at_zero(self):
        grid = GridSpec(L=1.0, n=16)
        state = const_state(grid, 1.0, 0.0)
        assert boltzmann_entropy(state.N) == pytest.approx(1.0)

    def test_boltzmann_rejects_negative(self):
        grid = GridSpec(L=1.0, n=16)
        vals = np.ones((16, 16))
        vals[0, 0] = -0.5
        with pytest.raises(HotspotError, match=r"^entropy integrand undefined: density reached "
                                               r"-5\.000e-01 < 0$"):
            boltzmann_entropy(ScalarField(grid, vals))

    def test_phi_combines_terms(self):
        grid = GridSpec(L=1.0, n=32)
        A = ScalarField(grid, 0.7 + 0.01 * cosine_mode(grid, 1, 1).values)
        N = ScalarField(grid, np.full((32, 32), 2.0))
        state = SimState(0.0, A, N)
        ep = EntropyParams(sigma=0.5, c1=1.0, omega_tilde=1.0)
        from hotspotsim.grid import grad_l2sq

        expected = 0.5 * boltzmann_entropy(N) + 0.5 * grad_l2sq(A)
        assert entropy_phi(state, ep) == pytest.approx(expected, rel=1e-12)

    def test_Y_zero_at_uniform_units(self):
        grid = GridSpec(L=1.0, n=16)
        state = const_state(grid, 1.0, 1.0)
        assert entropy_Y(state, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_Y_log_weight(self):
        grid = GridSpec(L=1.0, n=16)
        state = const_state(grid, 2.0, 1.0)
        # N log N = 0, so Y = -c log 2 * area
        assert entropy_Y(state, 0.3) == pytest.approx(-0.3 * math.log(2), rel=1e-12)

    def test_Y_requires_positive_A(self):
        grid = GridSpec(L=1.0, n=16)
        A = ScalarField(grid, np.zeros((16, 16)))
        N = ScalarField(grid, np.ones((16, 16)))
        with pytest.raises(HotspotError,
                           match="^attractiveness must be positive for the log weight$"):
            entropy_Y(SimState(0.0, A, N), 0.5)


class TestChooseC:
    def test_feasibility_boundary(self):
        for chi in (0.25, 0.5, 0.75, 1.0):
            for eta in (0.01, 0.1, 1.0):
                assert choose_c(chi, eta) is not None, (chi, eta)
        for chi in (1.25, 2.0):
            for eta in (0.01, 0.1, 1.0):
                assert choose_c(chi, eta) is None, (chi, eta)

    def test_boundary_value_at_chi_one(self):
        for eta in (0.01, 0.1, 1.0):
            assert choose_c(1.0, eta) == pytest.approx(1.0 / (1.0 + eta), abs=1e-12)

    def test_chosen_c_satisfies_quadratic(self):
        # feasibility means (1+eta)^2 c^2 - 2c(chi+2eta-chi eta) + chi^2 <= 0
        for chi in (0.3, 0.7, 0.99):
            for eta in (0.05, 0.5):
                c = choose_c(chi, eta)
                q = (1 + eta) ** 2 * c * c - 2 * c * (chi + 2 * eta - chi * eta) + chi ** 2
                assert q <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_c(0.0, 0.1)
        with pytest.raises(ValueError):
            choose_c(0.5, -1.0)


class TestAprioriMonitors:
    def test_exact_homogeneous_solution_passes(self):
        grid = GridSpec(L=1.0, n=16)
        a_star, _ = steady_state(PARAMS)
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        t = 0.03
        n_exact = math.exp(-84.0 * t) * 0.5 + (1 - math.exp(-84.0 * t))
        state = const_state(grid, a_star, n_exact, t=t)
        flags = verify_apriori(state, bounds, PARAMS, n0_mass=0.5)
        assert flags.all_ok
        assert flags.mass_residual < 1e-14
        assert flags.as_string() == "amin=pass;amax=pass;npos=pass"

    def test_floor_violation_flagged(self):
        grid = GridSpec(L=1.0, n=16)
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        state = const_state(grid, 0.6, 1.0, t=1.0)
        flags = verify_apriori(state, bounds, PARAMS, n0_mass=1.0)
        assert not flags.amin_ok
        assert "amin=FAIL" in flags.as_string()

    def test_n_floor_uses_exponential(self):
        grid = GridSpec(L=1.0, n=16)
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        # N = 0.5 is fine at small t (floor ~ 0) but not at large t (floor ~ 1)
        early = verify_apriori(const_state(grid, 0.8, 0.5, t=0.001), bounds, PARAMS, 0.5)
        late = verify_apriori(const_state(grid, 0.8, 0.5, t=1.0), bounds, PARAMS, 0.5)
        assert early.npos_ok
        assert not late.npos_ok


def _reference_energy_residuals(window, params):
    """The four balance defects written out from the public functionals,
    one call per term, in the order and with the operands of the formulas."""
    (t0, A0, N0), (t1, A1, N1), (t2, A2, N2) = window
    two_d = t2 - t0
    h2 = A1.grid.h ** 2
    a, n = A1.values, N1.values
    p = params

    r1 = abs(
        0.5 * ((g.lp_norm(A2, 2) ** 2 - g.lp_norm(A0, 2) ** 2) / two_d)
        + g.lp_norm(A1, 2) ** 2
        + p.eta * g.grad_l2sq(A1)
        - p.psi * float(np.sum(n * a ** 2 * (1.0 - a))) * h2
        - p.atilde * g.integral(A1)
    )
    r2 = abs(
        0.5 * ((g.grad_l2sq(A2) - g.grad_l2sq(A0)) / two_d)
        + g.grad_l2sq(A1)
        + p.eta * g.laplacian_l2sq(A1)
        + p.psi * float(np.sum(n * a * (1.0 - a) * g.laplacian(A1).values)) * h2
    )
    theta = sensitivity_grad(A1, p.chi, float(np.min(a)) / 2.0)
    G = g.gradient(N1)
    id3_rhs = p.omega * float(np.sum(np.log(n) - n + 1.0)) * h2
    r3 = abs(
        (boltzmann_entropy(N2) - boltzmann_entropy(N0)) / two_d
        + p.omega * boltzmann_entropy(N1)
        + g.fisher(N1)
        - float((np.sum(G.fx * theta.fx) + np.sum(G.fy * theta.fy)) * h2)
        - id3_rhs
    )
    nfx, nfy = 0.5 * (n[1:, :] + n[:-1, :]), 0.5 * (n[:, 1:] + n[:, :-1])
    r4 = abs(
        0.5 * ((g.lp_norm(N2, 2) ** 2 - g.lp_norm(N0, 2) ** 2) / two_d)
        + p.omega * g.lp_norm(N1, 2) ** 2
        + g.grad_l2sq(N1)
        - float(
            (np.sum(nfx * G.fx[1:-1, :] * theta.fx[1:-1, :])
             + np.sum(nfy * G.fy[:, 1:-1] * theta.fy[:, 1:-1])) * h2
        )
        - p.omega * g.integral(N1)
    )
    return r1, r2, r3, r4, id3_rhs <= 1e-12


class TestEnergyResiduals:
    def test_bitwise_equal_to_reference(self):
        grid = GridSpec(L=1.0, n=24)
        window = []
        for k in range(3):
            a, _ = sample_cosine_field(10 + k, 4, 0.005, grid)
            n, _ = sample_cosine_field(20 + k, 4, 0.02, grid)
            window.append((0.01 * k, ScalarField(grid, 0.8 + a.values),
                           ScalarField(grid, 1.0 + n.values)))
        res = energy_residuals(window, PARAMS)
        got = (res.r1, res.r2, res.r3, res.r4, res.id3_sign_ok)
        assert got == _reference_energy_residuals(window, PARAMS)
        assert all(r > 0 for r in got[:4])  # the fields are far from a solution

    def test_window_peak_memory(self):
        # each face family's means and products are built and dropped in
        # turn, so a window's middle output allocates about 6 n^2 fields
        # beyond its inputs; with both families' face means alive together
        # it took 8.5
        n = 128
        grid = GridSpec(L=1.0, n=n)
        wave, _ = sample_cosine_field(3, 4, 0.05, grid)
        A = ScalarField(grid, 0.8 + 1.1 * wave.values)
        N = ScalarField(grid, 1.0 + 0.9 * wave.values.T.copy())
        grad = g.grad_l2sq(A)
        want = analysis._output_terms(A, N, grad, PARAMS, True)  # builds the workspace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = analysis._output_terms(A, N, grad, PARAMS, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak - before < 7 * n * n * 8

    def steady_window(self, grid, dt=0.01):
        a_star, n_star = steady_state(PARAMS)
        states = [const_state(grid, a_star, n_star, t=k * dt) for k in range(3)]
        return [(s.t, s.A, s.N) for s in states]

    def test_steady_state_residuals_vanish(self):
        window = self.steady_window(GridSpec(L=1.0, n=32))
        res = energy_residuals(window, PARAMS)
        for r in (res.r1, res.r2, res.r3, res.r4):
            assert abs(r) < 1e-11
        assert res.id3_sign_ok

    def test_id3_sign_holds_for_any_positive_density(self):
        # log N - N + 1 <= 0 pointwise
        grid = GridSpec(L=1.0, n=32)
        rng = np.random.default_rng(0)
        A = ScalarField(grid, np.full((32, 32), 0.8))
        N0 = ScalarField(grid, rng.uniform(0.2, 3.0, (32, 32)))
        window = [(k * 0.01, A, N0) for k in range(3)]
        res = energy_residuals(window, PARAMS)
        assert res.id3_sign_ok

    def test_rejects_nonuniform_window(self):
        grid = GridSpec(L=1.0, n=16)
        s = self.steady_window(grid)
        bad = [s[0], (s[1][0] * 1.5, s[1][1], s[1][2]), s[2]]
        with pytest.raises(ValueError):
            energy_residuals(bad, PARAMS)

    def test_rejects_nonpositive_density(self):
        grid = GridSpec(L=1.0, n=16)
        s = self.steady_window(grid)
        zero_n = ScalarField(grid, np.zeros((16, 16)))
        bad = [s[0], (s[1][0], s[1][1], zero_n), s[2]]
        with pytest.raises(HotspotError,
                           match="^the entropy balance needs N > 0 on the whole window$"):
            energy_residuals(bad, PARAMS)


class TestProbes:
    def test_poincare_single_mode_value(self):
        # for cos(pi x): ||u - mean||_2 / ||grad u||_1 -> sqrt(1/2) / 2
        grid = GridSpec(L=1.0, n=256)
        p = poincare_probe(cosine_mode(grid, 1, 0))
        assert p.ratio_l1 == pytest.approx(math.sqrt(0.5) / 2.0, rel=1e-3)
        assert p.ratio_l1 <= math.sqrt(MU_SQ_SQUARE)

    def test_poincare_constant_rejected(self):
        grid = GridSpec(L=1.0, n=16)
        with pytest.raises(HotspotError, match="^ratio is undefined for a constant field$"):
            poincare_probe(ScalarField(grid, np.full((16, 16), 2.0)))

    def test_sobolev_slack_only_for_positive_fields(self):
        grid = GridSpec(L=1.0, n=64)
        u = cosine_mode(grid, 1, 1)  # changes sign
        assert poincare_probe(u).sobolev_slack is None
        shifted = ScalarField(grid, u.values + 2.0)
        slack = poincare_probe(shifted).sobolev_slack
        assert slack is not None and slack >= -1e-10

    def test_interpolation_single_mode_value(self):
        # cos(pi x): int|grad|^4 = 3 pi^4/8, osc = 2, int|Lap|^2 = pi^4/2
        grid = GridSpec(L=1.0, n=256)
        k = interpolation_probe(cosine_mode(grid, 1, 0))
        assert k.ratio_K == pytest.approx(3.0 / 16.0, rel=2e-3)
        assert k.ratio_K <= K_SQUARE

    def test_interpolation_degenerate_rejected(self):
        grid = GridSpec(L=1.0, n=16)
        with pytest.raises(HotspotError,
                           match="^ratio is undefined for constant or harmonic fields$"):
            interpolation_probe(ScalarField(grid, np.zeros((16, 16))))

    def test_fourier_gap_tiny_on_sampled_fields(self):
        grid = GridSpec(L=1.0, n=64)
        u, coeffs = sample_cosine_field(11, 4, 0.02, grid)
        k = interpolation_probe(u, coeffs)
        assert k.fourier_gap is not None
        assert k.fourier_gap <= 1e-10

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_probe_bounds_property(self, seed):
        grid = GridSpec(L=1.0, n=64)
        u, coeffs = sample_cosine_field(seed, 4, 0.02, grid)
        from hotspotsim.grid import osc

        if osc(u) <= 1e-13:
            return
        assert poincare_probe(u).ratio_l1 <= math.sqrt(MU_SQ_SQUARE) + 1e-10
        assert interpolation_probe(u, coeffs).ratio_K <= K_SQUARE + 1e-10


class TestDiagnostics:
    def test_record_columns_and_order(self):
        assert analysis.CSV_COLUMNS[0] == "t"
        assert analysis.CSV_COLUMNS[-1] == "flags"
        assert len(analysis.CSV_COLUMNS) == 14

    def test_minimal_record(self):
        grid = GridSpec(L=1.0, n=16)
        state = const_state(grid, 0.7, 1.0)
        rec = diagnostics_record(state)
        row = rec.csv_row().split(",")
        assert len(row) == len(analysis.CSV_COLUMNS)
        assert row[-1] == ""  # no flags without bounds
        assert float(row[1]) == pytest.approx(1.0)  # mass of N == area

    def test_full_record_for_main_model(self):
        grid = GridSpec(L=1.0, n=16)
        bounds = DerivedBounds(a_min=0.7, a_max=1.0, n1_max=1.0)
        state = const_state(grid, 0.75, 1.0)
        rec = diagnostics_record(state, PARAMS, bounds, n0_mass=1.0)
        assert rec.phi is not None
        assert rec.y_entropy is None  # chi = 2: no feasible c
        assert rec.bound_flags is not None
        assert rec.csv_row().endswith("amin=pass;amax=pass;npos=pass")

    def test_y_entropy_present_for_small_chi(self):
        grid = GridSpec(L=1.0, n=16)
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.9, chi=0.8)
        bounds = DerivedBounds(a_min=0.9, a_max=1.0, n1_max=1.0)
        state = const_state(grid, 0.95, 1.0)
        rec = diagnostics_record(state, params, bounds, n0_mass=1.0)
        assert rec.y_entropy is not None
        assert rec.c_used == pytest.approx(choose_c(0.8, 0.1))
