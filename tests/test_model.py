import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspotsim.grid import GridSpec, HotspotError, ScalarField, cosine_mode, gradient
from hotspotsim.model import (
    DerivedBounds,
    GeneralModel,
    ModelParams,
    POSITIVITY_MESSAGE,
    ShortParams,
    derived_bounds,
    short_steady_state,
    steady_state,
    validate_general_hypotheses,
)
from hotspotsim.solver import InitialCondition, SimConfig, SimState, step

PSI = 0.0046667


def const_field(grid, v):
    return ScalarField(grid, np.full((grid.n, grid.n), float(v)))


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=-1.0, chi=2.0)

    def test_message_names_all_coefficients(self):
        for name in ("eta", "psi", "omega", "atilde", "chi"):
            assert name in POSITIVITY_MESSAGE

    def test_short_positivity(self):
        with pytest.raises(ValueError):
            ShortParams(eta=0.1, a0=0.0, abar=1.0, chi=1.0)

    def test_bounds_consistency(self):
        with pytest.raises(ValueError):
            DerivedBounds(a_min=1.0, a_max=0.5, n1_max=1.0)


class TestSteadyState:
    def test_fixed_point_of_reaction(self):
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        a_star, n_star = steady_state(params)
        assert n_star == 1.0
        # a* solves psi a(1-a) + atilde = a by construction
        res = PSI * a_star * (1 - a_star) + 0.7 - a_star
        assert abs(res) < 1e-15

    def test_reference_value(self):
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        a_star, _ = steady_state(params)
        # independent root of psi a^2 + (1-psi) a - atilde = 0 via numpy
        roots = np.roots([PSI, 1 - PSI, -0.7])
        positive = roots[roots > 0]
        assert a_star == pytest.approx(float(positive[0]), rel=1e-12)

    def test_quadratic_form_agrees(self):
        # textbook form (psi-1+sqrt((psi-1)^2+4 psi atilde))/(2 psi), where stable
        params = ModelParams(eta=1.0, psi=0.3, omega=1.0, atilde=0.9, chi=1.0)
        a_star, _ = steady_state(params)
        direct = (0.3 - 1 + math.sqrt((0.3 - 1) ** 2 + 4 * 0.3 * 0.9)) / (2 * 0.3)
        assert a_star == pytest.approx(direct, rel=1e-14)

    @given(
        psi=st.floats(1e-6, 10.0),
        atilde=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_root_property(self, psi, atilde):
        params = ModelParams(eta=1.0, psi=psi, omega=1.0, atilde=atilde, chi=1.0)
        a_star, _ = steady_state(params)
        assert a_star > 0
        res = psi * a_star * (1 - a_star) + atilde - a_star
        assert abs(res) <= 1e-10 * max(1.0, atilde)

    @pytest.mark.parametrize("psi", [1e308, math.inf])
    def test_no_finite_root_raises_value_error(self, psi):
        params = ModelParams(eta=1.0, psi=psi, omega=1.0, atilde=0.7, chi=1.0)
        with pytest.raises(ValueError, match="steady-state residual nan"):
            steady_state(params)

    def test_short_variant(self):
        p = ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=1.0)
        abar, n_star = short_steady_state(p)
        assert abar == 0.8
        assert n_star == pytest.approx(0.75)
        # fixed point of the Short reactions: N a = abar - a0 at a = abar
        assert n_star * abar == pytest.approx(0.8 - 0.2)

    def test_short_needs_abar_above_a0(self):
        with pytest.raises(ValueError):
            short_steady_state(ShortParams(eta=0.05, a0=0.9, abar=0.8, chi=1.0))


class TestReactionTerms:
    """The reaction terms of ModelKind.reaction, and the preconditions that
    solver.step checks before it calls them."""

    def grid(self):
        return GridSpec(L=1.0, n=16)

    def step_from(self, A, N, guard_tol=1e-6):
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        config = SimConfig(
            grid=A.grid, params=params, t_end=0.01, dt_init=1e-3, dt_min=1e-9,
            output_every=0.01, ic=InitialCondition("constants", a0=1.0, n0=1.0),
            guard_tol=guard_tol,
        )
        return step(SimState(0.0, A, N), 1e-3, config)

    def test_main_terms(self):
        g = self.grid()
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        a, n = const_field(g, 0.5).values, const_field(g, 2.0).values
        rA, rN, lam_A, lam_N = params.reaction(g, a, n)
        assert rA[0, 0] == pytest.approx(PSI * 2.0 * 0.5 * 0.5 + 0.7)
        assert rN[0, 0] == pytest.approx(84.0)
        assert (lam_A, lam_N) == (1.0, 84.0)

    def test_short_terms(self):
        g = self.grid()
        p = ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=1.0)
        a, n = const_field(g, 0.5).values, const_field(g, 1.0).values
        rA, rN, lam_A, lam_N = p.reaction(g, a, n)
        assert rA[0, 0] == pytest.approx(0.5 + 0.2)
        assert rN[0, 0] == pytest.approx(-0.5 + 0.8 - 0.2)
        assert (lam_A, lam_N) == (1.0, 0.0)

    def test_rejects_nonpositive_A(self):
        g = self.grid()
        with pytest.raises(HotspotError, match="^attractiveness must be positive everywhere$"):
            self.step_from(const_field(g, 0.0), const_field(g, 1.0))

    def test_rejects_negative_N_beyond_atol(self):
        g = self.grid()
        with pytest.raises(HotspotError, match=r"^criminal density fell below -1e-06$"):
            self.step_from(const_field(g, 1.0), const_field(g, -1e-3), guard_tol=1e-6)
        # small undershoot tolerated
        self.step_from(const_field(g, 1.0), const_field(g, -1e-9), guard_tol=1e-6)


def main_params(chi):
    return ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=chi)


class TestSensitivity:
    def test_matches_grad_log_for_smooth_field(self):
        grid = GridSpec(L=1.0, n=256)
        A = ScalarField(grid, 1.0 + 0.3 * cosine_mode(grid, 1, 0).values)
        chi = 2.0
        V = main_params(chi).velocity(A, 0.1)
        logA = ScalarField(grid, chi * np.log(A.values))
        G = gradient(logA)
        # both are O(h^2) consistent with chi grad log A; compare to each other
        assert np.max(np.abs(V.fx - G.fx)) < 1e-5
        assert np.max(np.abs(V.fy - G.fy)) < 1e-12

    def test_floor_violation(self):
        grid = GridSpec(L=1.0, n=16)
        A = const_field(grid, 0.05)
        with pytest.raises(HotspotError, match=r"^A dropped to 0\.05, below floor 0\.1$"):
            main_params(2.0).velocity(A, 0.1)

    def test_constant_field_gives_zero_drift(self):
        grid = GridSpec(L=1.0, n=16)
        V = main_params(2.0).velocity(const_field(grid, 0.7), 0.1)
        assert not V.fx.any() and not V.fy.any()


class TestDerivedBounds:
    def test_envelopes_include_one_and_atilde(self):
        grid = GridSpec(L=1.0, n=16)
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        A0 = ScalarField(grid, 0.9 + 0.05 * cosine_mode(grid, 1, 1).values)
        N0 = const_field(grid, 0.5)
        b = derived_bounds(A0, N0, params)
        assert b.a_min == pytest.approx(0.7)  # atilde below min A0
        assert b.a_max == pytest.approx(1.0)  # the constant 1 dominates
        assert b.n1_max == pytest.approx(1.0)  # |Omega| dominates ||N0||_1 = 0.5

    def test_mass_dominates_when_large(self):
        grid = GridSpec(L=1.0, n=16)
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        b = derived_bounds(const_field(grid, 1.0), const_field(grid, 3.0), params)
        assert b.n1_max == pytest.approx(3.0)

    def test_rejects_bad_data(self):
        grid = GridSpec(L=1.0, n=16)
        params = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
        with pytest.raises(HotspotError,
                           match="^initial attractiveness must be positive everywhere$"):
            derived_bounds(const_field(grid, -1.0), const_field(grid, 1.0), params)
        with pytest.raises(HotspotError, match="^initial criminal density must be nonnegative$"):
            derived_bounds(const_field(grid, 1.0), const_field(grid, -0.1), params)


def make_general(**overrides):
    base = dict(
        f=lambda a, n: np.full_like(np.asarray(a, float), 0.5),
        g=lambda a, n: np.sqrt(np.asarray(n, float)),
        h=lambda a: np.log(np.asarray(a, float)),
        eta=0.1,
        omega=1.0,
        a_min=0.25,
        a_max=1.0,
        delta=0.5,
        g1=1.0,
        g2=0.0,
        f1=0.0,
        f2=0.5,
    )
    base.update(overrides)
    return GeneralModel(**base)


class TestGeneralModel:
    def test_valid_plugin_passes(self):
        report = validate_general_hypotheses(make_general())
        assert report.passed
        assert "no counterexample found" in report.summary()
        assert report.n_samples > 0

    def test_sign_violation_detected(self):
        m = make_general(g=lambda a, n: np.asarray(n, float) - 1.0, g1=1.0, g2=1.0)
        report = validate_general_hypotheses(m)
        assert not report.passed
        assert any("source sign" in msg for msg in report.failures)

    def test_barrier_violation_detected(self):
        # f(a_max, N) > a_max breaks the upper invariant barrier
        m = make_general(f=lambda a, n: np.full_like(np.asarray(a, float), 2.0), f2=2.0)
        report = validate_general_hypotheses(m)
        assert any("upper barrier" in msg for msg in report.failures)

    def test_envelope_violation_detected(self):
        m = make_general(g=lambda a, n: 10.0 * np.sqrt(np.asarray(n, float)), g1=1.0)
        report = validate_general_hypotheses(m)
        assert any("g-envelope" in msg for msg in report.failures)

    def test_singular_sensitivity_detected(self):
        m = make_general(a_min=1e-12, h=lambda a: np.log(np.asarray(a, float)))
        report = validate_general_hypotheses(m)
        assert any("sensitivity smoothness" in msg for msg in report.failures)

    def test_validation_is_deterministic(self):
        m = make_general()
        r1 = validate_general_hypotheses(m, seed=5)
        r2 = validate_general_hypotheses(m, seed=5)
        assert r1 == r2

    @pytest.mark.parametrize("name, fn", [
        ("f", lambda a, n: 0.3 * np.asarray(n) * np.asarray(a) + 0.1 + 1e-3j),
        ("g", lambda a, n: np.sqrt(np.asarray(n, float)) + 1e-3j),
        ("h", lambda a: np.log(np.asarray(a, float)) + 1e-3j),
    ])
    def test_complex_result_is_a_failure_naming_the_callable(self, name, fn):
        # judging only the real part would drop the imaginary part unseen,
        # where a run with the same plugin ends failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_general_hypotheses(make_general(**{name: fn}))
        assert not report.passed
        assert f"GeneralModel.{name}: values must be real, got complex128" in report.failures
        assert sum("must be real" in msg for msg in report.failures) == 1

    def test_real_results_give_the_same_report(self):
        # a real plugin is judged as before: the same failures, in order
        m = make_general(g=lambda a, n: np.asarray(n, float) - 1.0, g1=1.0, g2=1.0,
                         f=lambda a, n: np.full_like(np.asarray(a, float), 2.0))
        report = validate_general_hypotheses(m)
        assert [msg.split(":")[0] for msg in report.failures] == [
            "source sign", "upper barrier", "g-envelope", "f-envelope"]

    def test_bad_declarations_rejected(self):
        with pytest.raises(ValueError):
            make_general(delta=1.5)
        with pytest.raises(ValueError):
            make_general(a_min=2.0, a_max=1.0)


class TestModelProtocol:
    MAIN = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)
    SHORT = ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=1.0)

    @pytest.mark.parametrize("params, want", [
        (MAIN, (0.7009781765920831, 1.0)),
        (ModelParams(eta=1.0, psi=2.5, omega=1.0, atilde=0.3, chi=1.0),
         (0.758257569495584, 1.0)),
        (ModelParams(eta=1.0, psi=1.0, omega=1.0, atilde=2.0, chi=1.0),
         (1.414213562373095, 1.0)),
    ])
    def test_main_steady_state_values(self, params, want):
        assert steady_state(params) == want
        assert params.steady_state() == want

    @pytest.mark.parametrize("params, want", [
        (SHORT, (0.8, 0.7500000000000001)),
        (ShortParams(eta=0.05, a0=1 / 30, abar=1 / 3, chi=2.0),
         (0.3333333333333333, 0.9)),
    ])
    def test_short_steady_state_values(self, params, want):
        assert short_steady_state(params) == want
        assert params.steady_state() == want

    def test_only_the_main_model_has_bounds(self):
        grid = GridSpec(L=1.0, n=16)
        A0 = ScalarField(grid, 0.8 + cosine_mode(grid, 1, 2, 0.1).values)
        N0 = const_field(grid, 1.5)
        assert self.MAIN.bounds(A0, N0) == derived_bounds(A0, N0, self.MAIN)
        assert self.SHORT.bounds(A0, N0) is None
        assert make_general().bounds(A0, N0) is None
