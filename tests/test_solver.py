import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as scipy_fft

from hotspotsim import analysis
from hotspotsim import grid as grid_module
from hotspotsim import model as model_module
from hotspotsim import solver
from hotspotsim.grid import (
    GridSpec,
    HotspotError,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    helmholtz_solve,
    integral,
    sample_cosine_field,
    write_field,
)
from hotspotsim.model import (
    DerivedBounds,
    GeneralModel,
    ModelParams,
    ShortParams,
    derived_bounds,
    sensitivity_floor,
    steady_state,
)
from hotspotsim.solver import (
    InitialCondition,
    Outcome,
    SimConfig,
    SimState,
    StepRejected,
    adapt_dt,
    build_initial,
    run,
    step,
)

PSI = 0.0046667
PARAMS = ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=2.0)


def small_config(**overrides):
    base = dict(
        grid=GridSpec(L=1.0, n=32),
        params=PARAMS,
        t_end=0.05,
        dt_init=1e-3,
        dt_min=1e-9,
        output_every=0.01,
        ic=InitialCondition("perturbed_steady", amplitude=0.01),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    def test_dt_ordering(self):
        with pytest.raises(ValueError):
            small_config(dt_init=1e-10)  # below dt_min

    def test_output_cadence_floor(self):
        with pytest.raises(ValueError):
            small_config(output_every=1e-12)

    def test_dt_max_below_dt_min_rejected(self):
        # every step was below the halving floor, so run() ended
        # blowup_suspected at the first guard rejection, without one halving
        with pytest.raises(ValueError, match=r"^dt_max must be at least dt_min, "
                                             r"got 1e-05 < 0\.0001$"):
            small_config(dt_min=1e-4, dt_max=1e-5)
        assert small_config(dt_min=1e-4, dt_max=1e-4).dt_max == 1e-4

    def test_flux_scheme_names(self):
        with pytest.raises(ValueError):
            small_config(flux_scheme="quick")

    @pytest.mark.parametrize("params", [
        None, "main", {"eta": 0.1, "psi": PSI, "omega": 84.0, "atilde": 0.7},
    ])
    def test_params_must_be_a_model_kind(self, params):
        with pytest.raises(ValueError, match="params must be a ModelKind"):
            small_config(params=params)

    @pytest.mark.parametrize("field, value", [
        ("dt_max", 0.0), ("dt_max", -1e-3), ("guard_tol", 0.0), ("guard_tol", -1.0),
    ])
    def test_nonpositive_numerics_rejected_at_the_config(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["t_end", "dt_init", "dt_min", "output_every"])
    def test_nan_times_rejected(self, field):
        # a NaN dt_init made the guard-driven halving loop of run() endless
        with pytest.raises(ValueError):
            small_config(**{field: math.nan})

    def test_infinite_t_end_rejected(self):
        # a run to t = inf never ends
        with pytest.raises(ValueError, match="t_end must be finite"):
            small_config(t_end=math.inf)


class TestBuildInitial:
    def test_constants(self):
        cfg = small_config(ic=InitialCondition("constants", a0=0.8, n0=1.5))
        A, N = build_initial(cfg)
        assert np.all(A.values == 0.8)
        assert np.all(N.values == 1.5)

    def test_perturbed_steady_main(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        a_star, _ = steady_state(PARAMS)
        assert abs(float(np.mean(A.values)) - a_star) < 1e-12
        # peak slightly under the amplitude: cells sample off the corner
        assert float(np.max(A.values)) - a_star == pytest.approx(0.01, rel=5e-3)
        assert np.all(N.values == 1.0)

    def test_perturbed_steady_has_the_bits_of_the_meshgrid_formula(self):
        grid = GridSpec(L=1.0, n=257)
        ic = InitialCondition("perturbed_steady", amplitude=0.03, mode_j=3, mode_k=2)
        A, N = build_initial(small_config(grid=grid, ic=ic))
        a_star, n_star = steady_state(PARAMS)
        x, y = grid.cell_coords()
        bump = 0.03 * np.cos(3 * np.pi * x / grid.L) * np.cos(2 * np.pi * y / grid.L)
        assert A.values.tobytes() == (a_star + bump).tobytes()
        assert N.values.tobytes() == np.full((257, 257), n_star).tobytes()

    def test_perturbed_steady_peaks_below_three_and_a_half_fields(self):
        # A, N and the cosine mode, which is sampled from one x and one y
        # vector of cosines; on the cell_coords meshgrid it peaked at 5 fields
        n = 256
        cfg = small_config(grid=GridSpec(L=1.0, n=n))
        build_initial(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            A, N = build_initial(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 3.5 * n * n * 8

    def test_perturbed_steady_short(self):
        p = ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=1.0)
        cfg = small_config(params=p)
        A, N = build_initial(cfg)
        assert abs(float(np.mean(A.values)) - 0.8) < 1e-12
        assert np.all(N.values == pytest.approx(0.75))

    def test_file_recipe(self, tmp_path):
        grid = GridSpec(L=1.0, n=32)
        rng = np.random.default_rng(0)
        A0 = ScalarField(grid, rng.uniform(0.7, 1.0, (32, 32)))
        N0 = ScalarField(grid, rng.uniform(0.0, 2.0, (32, 32)))
        pa, pn = tmp_path / "A.field", tmp_path / "N.field"
        write_field(pa, A0)
        write_field(pn, N0)
        cfg = small_config(
            ic=InitialCondition("file", path_A=str(pa), path_N=str(pn))
        )
        A, N = build_initial(cfg)
        np.testing.assert_array_equal(A.values, A0.values)
        np.testing.assert_array_equal(N.values, N0.values)

    def test_rejects_nonpositive_A(self):
        cfg = small_config(ic=InitialCondition("constants", a0=-1.0, n0=1.0))
        with pytest.raises(HotspotError,
                           match="^initial attractiveness must be positive everywhere$"):
            build_initial(cfg)

    def test_unknown_recipe(self):
        cfg = small_config(ic=InitialCondition("noise", amplitude=0.1))
        with pytest.raises(HotspotError, match="^cannot build the initial condition: "
                                               "unknown initial-condition recipe 'noise'$"):
            build_initial(cfg)


class TestStep:
    def test_steady_state_is_discrete_fixed_point(self):
        a_star, n_star = steady_state(PARAMS)
        cfg = small_config(ic=InitialCondition("constants", a0=a_star, n0=n_star))
        A, N = build_initial(cfg)
        state = SimState(0.0, A, N)
        new = step(state, 0.01, cfg)
        assert float(np.max(np.abs(new.A.values - a_star))) < 1e-14
        assert float(np.max(np.abs(new.N.values - n_star))) < 1e-14

    def test_discrete_mass_law_single_step(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        bounds = derived_bounds(A, N, PARAMS)
        dt = 2e-3
        new = step(SimState(0.0, A, N), dt, cfg, bounds)
        m0, m1 = integral(N), integral(new.N)
        # implicit decay gives (1 + omega dt) m1 = m0 + dt omega |Omega| exactly
        lhs = (1.0 + 84.0 * dt) * m1
        rhs = m0 + dt * 84.0 * 1.0
        assert abs(lhs - rhs) < 1e-12

    def test_homogeneous_n_relaxation(self):
        # spatially uniform N obeys the implicit-Euler recurrence toward 1
        cfg = small_config(ic=InitialCondition("constants", a0=0.7, n0=0.2))
        A, N = build_initial(cfg)
        dt = 1e-3
        new = step(SimState(0.0, A, N), dt, cfg)
        expected = (0.2 + dt * 84.0) / (1.0 + dt * 84.0)
        assert float(np.max(np.abs(new.N.values - expected))) < 1e-13

    def test_guard_raises_on_bound_escape(self):
        grid = GridSpec(L=1.0, n=32)
        from hotspotsim.model import DerivedBounds

        cfg = small_config()
        bounds = DerivedBounds(a_min=0.9, a_max=1.0, n1_max=1.0)
        A = ScalarField(grid, np.full((32, 32), 0.7))  # below guarded floor
        N = ScalarField(grid, np.ones((32, 32)))
        with pytest.raises(StepRejected, match=r"^A reached 0\.7, below guarded floor 0\.9$"):
            solver._guard(np.stack((A.values, N.values)), cfg, bounds)

    def test_guard_rejects_negative_density(self):
        grid = GridSpec(L=1.0, n=32)
        cfg = small_config()
        A = ScalarField(grid, np.ones((32, 32)))
        N = ScalarField(grid, np.full((32, 32), -1e-3))
        with pytest.raises(StepRejected, match=r"^N reached -0\.001, below -guard_tol = -1e-06$"):
            solver._guard(np.stack((A.values, N.values)), cfg, None)

    def test_rejects_nonpositive_dt(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        with pytest.raises(ValueError):
            step(SimState(0.0, A, N), 0.0, cfg)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, dt):
        # a NaN or inf dt was a StepRejected from the explicit stage, which
        # tells the caller that a smaller step may cure it
        cfg = small_config()
        A, N = build_initial(cfg)
        with pytest.raises(ValueError, match="^dt must be positive"):
            step(SimState(0.0, A, N), dt, cfg)

    def test_step_sees_A_changed_after_adapt_dt(self):
        # a velocity kept on the state would go stale here: min(A), and
        # with it the sensitivity floor, stays the same
        cfg = small_config()
        A, N = build_initial(cfg)
        state = SimState(0.0, A, N)
        dt = adapt_dt(cfg.params._face_velocity(A, sensitivity_floor(A)), cfg, 1e-4)
        A.values[np.unravel_index(np.argmax(A.values), A.values.shape)] += 0.1
        got = step(state, dt, cfg)
        want = step(SimState(0.0, A.copy(), N.copy()), dt, cfg)
        assert got.A.values.tobytes() == want.A.values.tobytes()
        assert got.N.values.tobytes() == want.N.values.tobytes()

    def test_results_and_other_states_are_checked_at_entry(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        new = step(SimState(0.0, A, N), 1e-3, cfg)
        # a state that no step built has its minima taken
        sunk = SimState(new.t, ScalarField(new.A.grid, new.A.values - 10.0), new.N)
        with pytest.raises(HotspotError, match="^attractiveness must be positive everywhere$"):
            step(sunk, 1e-3, cfg)
        # a public step's result changed in place is a caller's state too
        for name, message in (("A", "^attractiveness must be positive everywhere$"),
                              ("N", r"^criminal density fell below -1e-06$")):
            new = step(SimState(0.0, A, N), 1e-3, cfg)
            getattr(new, name).values[3, 5] = -1.0
            with pytest.raises(HotspotError, match=message):
                step(new, 1e-3, cfg)

    def test_rejects_velocity_on_another_grid(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        other = ScalarField(GridSpec(L=1.0, n=16), np.ones((16, 16)))
        velocity = cfg.params._face_velocity(other, 0.5)
        with pytest.raises(HotspotError, match="^operands live on different grids$"):
            step(SimState(0.0, A, N), 1e-3, cfg, None, velocity)


def initial_velocity(cfg):
    A, _ = build_initial(cfg)
    return cfg.params._face_velocity(A, sensitivity_floor(A))


class TestAdaptDt:
    def test_growth_capped_at_ten_percent(self):
        cfg = small_config()
        dt = adapt_dt(initial_velocity(cfg), cfg, 1e-4)
        assert dt <= 1.1e-4 + 1e-18

    def test_output_every_is_a_ceiling(self):
        cfg = small_config()
        dt = adapt_dt(initial_velocity(cfg), cfg, 1.0)
        assert dt <= cfg.output_every

    def test_dt_max_pins_the_step(self):
        cfg = small_config(dt_max=5e-4)
        dt = adapt_dt(initial_velocity(cfg), cfg, 5e-4)
        assert dt == pytest.approx(5e-4)


def _bits(res):
    """EnergyResiduals by the bits of r1..r4, so -0.0 and NaN compare too."""
    if res is None:
        return None
    return np.array([res.r1, res.r2, res.r3, res.r4]).tobytes(), res.id3_sign_ok


def _window_by_window(result):
    """The _bits of each record's residuals as energy_residuals gives them on
    its window of the result's snapshots, or None where none is taken."""
    snaps = result.snapshots
    expected = [None]
    for i in range(1, len(snaps) - 1):
        (t0, _, _), (t1, _, _), (t2, _, _) = snaps[i - 1 : i + 2]
        uniform = abs((t2 - t1) - (t1 - t0)) <= 1e-9 * max(t1 - t0, t2 - t1)
        expected.append(
            _bits(analysis.energy_residuals(snaps[i - 1 : i + 2], PARAMS))
            if uniform
            else None
        )
    expected.append(None)
    return expected


class TestRun:
    def test_completed_with_output_cadence(self):
        cfg = small_config()
        result = run(cfg)
        assert result.outcome.kind == "completed"
        times = [rec.t for rec in result.records]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.05, abs=1e-9)
        assert len(times) == 6  # t = 0, 0.01, ..., 0.05
        for k, t in enumerate(times):
            assert t == pytest.approx(0.01 * k, abs=1e-9)

    def test_snapshots_align_with_records(self):
        result = run(small_config())
        assert len(result.snapshots) == len(result.records)
        for (t, A, N), rec in zip(result.snapshots, result.records):
            assert t == pytest.approx(rec.t)
            assert float(np.min(A.values)) == pytest.approx(rec.minA)

    def test_deterministic(self):
        r1 = run(small_config())
        r2 = run(small_config())
        for a, b in zip(r1.records, r2.records):
            assert a.t == b.t
            assert a.mass_N == b.mass_N
            assert a.minA == b.minA
            assert a.grad_A_l2sq == b.grad_A_l2sq
        np.testing.assert_array_equal(
            r1.snapshots[-1][1].values, r2.snapshots[-1][1].values
        )

    def test_per_step_mass_residual_tiny(self):
        result = run(small_config())
        assert result.max_step_mass_residual < 1e-10

    def test_energy_residuals_attached_to_interior_records(self):
        result = run(small_config())
        assert result.records[0].residuals is None
        assert result.records[-1].residuals is None
        for rec in result.records[1:-1]:
            assert rec.residuals is not None
            assert rec.residuals.id3_sign_ok

    @pytest.mark.parametrize("t_end", [0.05, 0.045])
    def test_attached_residuals_equal_window_by_window_calls(self, t_end):
        # t_end 0.045 ends on a short output interval: that window is skipped
        result = run(small_config(t_end=t_end))
        expected = _window_by_window(result)
        assert [_bits(rec.residuals) for rec in result.records] == expected
        assert expected.count(None) == (2 if t_end == 0.05 else 3)

    def test_monitor_flags_present_for_main_model(self):
        result = run(small_config())
        for rec in result.records:
            assert rec.bound_flags is not None
            assert rec.bound_flags.all_ok

    def test_blowup_reported_when_steps_collapse(self, monkeypatch):
        calls = {"n": 0}

        def always_breach(state, dt, config, bounds=None, velocity=None):
            calls["n"] += 1
            raise StepRejected("forced for the driver test")

        monkeypatch.setattr(solver, "step", always_breach)
        cfg = small_config(dt_min=1e-6)
        result = run(cfg)
        assert result.outcome.kind == "blowup_suspected"
        assert result.outcome.t == 0.0
        assert "dt_min" in result.outcome.reason
        assert calls["n"] > 5  # actually retried with halved steps

    def test_failed_on_solver_error(self, monkeypatch):
        def explode(state, dt, config, bounds=None, velocity=None):
            raise HotspotError("synthetic failure")

        monkeypatch.setattr(solver, "step", explode)
        result = run(small_config())
        assert result.outcome.kind == "failed"
        assert "synthetic" in result.outcome.reason

    def test_short_model_runs(self):
        p = ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=1.0)
        cfg = small_config(params=p, t_end=0.02, output_every=0.01)
        result = run(cfg)
        assert result.outcome.kind == "completed"
        # Short records carry no main-model monitors
        assert result.records[0].bound_flags is None

    def test_upwind_scheme_runs_and_preserves_mass_law(self):
        cfg = small_config(flux_scheme="upwind")
        result = run(cfg)
        assert result.outcome.kind == "completed"
        assert result.max_step_mass_residual < 1e-10

    def test_fixed_step_via_dt_max(self):
        cfg = small_config(dt_init=1e-3, dt_max=1e-3, t_end=0.01)
        result = run(cfg)
        assert result.outcome.kind == "completed"
        # 10 steps of exactly 1e-3
        assert result.snapshots[-1][0] == pytest.approx(0.01)

    def test_zero_amplitude_run_is_constant_in_time(self):
        cfg = small_config(ic=InitialCondition("perturbed_steady", amplitude=0.0))
        result = run(cfg)
        assert result.outcome.kind == "completed"
        first = result.records[0]
        for rec in result.records[1:]:
            assert rec.minA == pytest.approx(first.minA, abs=1e-12)
            assert rec.maxA == pytest.approx(first.maxA, abs=1e-12)
            assert rec.minN == pytest.approx(first.minN, abs=1e-12)
            assert rec.mass_N == pytest.approx(first.mass_N, abs=1e-12)
            assert rec.grad_A_l2sq == pytest.approx(first.grad_A_l2sq, abs=1e-12)
            assert rec.phi == pytest.approx(first.phi, abs=1e-12)


class TestRetrySchedule:
    """A guard rejection halves the attempted step; halving stops at the
    dt_min floor, and the step grows again from the one accepted."""

    @staticmethod
    def scripted_run(monkeypatch, cfg, rejects):
        """run(cfg) with a solver.step that rejects the attempts whose
        0-based index `rejects(k)` is true; returns the result, the
        attempted dts and the time of each accepted state."""
        dts, accepted = [], []
        real = solver.step

        def scripted(state, dt, config, bounds=None, velocity=None):
            dts.append(dt)
            if rejects(len(dts) - 1):
                raise StepRejected("forced for the schedule test")
            new_state = real(state, dt, config, bounds, velocity)
            accepted.append(new_state.t)
            return new_state

        monkeypatch.setattr(solver, "step", scripted)
        return run(cfg, keep_snapshots=False), dts, accepted

    @pytest.mark.parametrize("dt_min", [1e-3 / 8, 1e-6])
    def test_an_always_rejected_step_halves_down_to_dt_min(self, monkeypatch, dt_min):
        # three accepted steps of dt_max, then every attempt is rejected
        cfg = small_config(grid=GridSpec(L=1.0, n=16), dt_init=1e-3, dt_max=1e-3,
                           dt_min=dt_min)
        result, dts, accepted = self.scripted_run(monkeypatch, cfg, lambda k: k >= 3)
        halved = [1e-3]
        while halved[-1] * 0.5 >= dt_min * (1.0 - 1e-12):
            halved.append(halved[-1] * 0.5)
        assert dts == [1e-3] * 3 + halved
        assert halved[-1] >= dt_min * (1.0 - 1e-12) > halved[-1] * 0.5
        assert result.steps_rejected == len(halved)
        assert result.outcome.kind == "blowup_suspected"
        assert "dt_min" in result.outcome.reason
        assert result.outcome.t == accepted[-1] > 0
        assert result.steps_accepted == 3

    def test_a_step_clipped_below_dt_min_is_attempted(self, monkeypatch):
        # 0.01 then the 0.0005 left to the output at 0.0105, below dt_min
        cfg = small_config(grid=GridSpec(L=1.0, n=16), dt_init=1e-2, dt_min=1e-3,
                           dt_max=1e-2, output_every=0.0105, t_end=0.021)
        result, dts, _ = self.scripted_run(monkeypatch, cfg, lambda k: False)
        assert result.outcome.kind == "completed"
        assert result.steps_rejected == 0
        assert dts[:2] == [1e-2, pytest.approx(5e-4)]
        assert dts[1] < cfg.dt_min
        assert [rec.t for rec in result.records] == pytest.approx([0.0, 0.0105, 0.021])

    @pytest.mark.parametrize("halvings", [1, 3])
    def test_the_step_grows_from_the_accepted_halved_dt(self, monkeypatch, halvings):
        # attempt 0 is accepted, attempts 1..halvings rejected, then accepted
        cfg = small_config(grid=GridSpec(L=1.0, n=16), dt_init=1e-3)
        result, dts, _ = self.scripted_run(monkeypatch, cfg, lambda k: 1 <= k <= halvings)
        assert result.outcome.kind == "completed"
        assert result.steps_rejected == halvings
        assert dts[1] == dts[0] * 1.1
        for k in range(2, halvings + 2):
            assert dts[k] == dts[k - 1] * 0.5
        assert dts[halvings + 2] == dts[halvings + 1] * 1.1


class TestOutputWindow:
    """run() reduces each output, when it arrives, to the scalars its energy
    windows take, fills its residuals when the next output arrives, and
    holds the fields of no earlier output."""

    @staticmethod
    def peak_bytes(cfg):
        run(cfg, keep_snapshots=False)  # the grid's workspace, built once
        tracemalloc.start()
        try:
            result = run(cfg, keep_snapshots=False)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_flat_in_the_number_of_outputs(self):
        n = 64
        configs = [
            small_config(grid=GridSpec(L=1.0, n=n), t_end=0.02,
                         output_every=0.02 / outputs, dt_max=5e-4)
            for outputs in (4, 20)
        ]
        (few, r_few), (many, r_many) = map(self.peak_bytes, configs)
        assert (len(r_few.records), len(r_many.records)) == (5, 21)
        assert sum(rec.residuals is not None for rec in r_many.records) == 19
        assert abs(many - few) < n * n * 8

    def test_run_allocates_little_beyond_its_workspace_and_stacks(self):
        # the outputs are analysed in the workspace, and the initial
        # condition's temporaries are gone before the workspace is built;
        # each output's analysis took about 6 n^2 fields of temporaries before
        n = 128
        cfg = small_config(grid=GridSpec(L=1.0, n=n), t_end=0.005, output_every=0.001,
                           dt_max=2.5e-4, ic=InitialCondition("perturbed_steady",
                                                              amplitude=0.01, mode_j=2))
        grid_module._workspace.cache_clear()  # so that the run builds it
        tracemalloc.start()
        try:
            result = run(cfg, keep_snapshots=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.outcome.kind == "completed"
        assert len(result.records) == 6
        assert sum(rec.residuals is not None for rec in result.records) == 4
        ws = grid_module._workspace(cfg.grid)
        # the residual slices are the first 2 n^2 floats of the transforms
        arrays = [ws.eig_sum, ws.rhs, ws.denom, ws.transform, ws.velocity._all, ws.flux._all]
        workspace = sum(a.nbytes for a in arrays)
        field = n * n * 8
        # two face buffers of 2 n^2 + n + 1; five padded rows of n + _PAD
        pads = 5 * n * grid_module._PAD * 8
        assert workspace == 11 * field + 2 * (n + 1) * 8 + pads
        assert peak - (workspace + 2 * 2 * field) < 0.5 * field

    @pytest.mark.parametrize("keep_snapshots", [True, False])
    def test_one_stack_pair_per_run(self, monkeypatch, keep_snapshots):
        # a kept snapshot is a copy, so no output takes a stack from the steps
        built = []
        real = grid_module._Stack.__init__

        def counted(stack, ws, values):
            built.append(values.shape)
            real(stack, ws, values)

        monkeypatch.setattr(grid_module._Stack, "__init__", counted)
        result = run(small_config(), keep_snapshots=keep_snapshots)
        assert result.outcome.kind == "completed"
        assert len(result.records) == 6
        assert built == [(2, 32, 32)] * 2

    @pytest.mark.parametrize("t_end", [0.05, 0.045])
    def test_middle_terms_once_per_interior_output(self, monkeypatch, t_end):
        # neither the first output nor the one at t_end is a window's middle;
        # at t_end 0.045 the window of t = 0.04 is skipped all the same
        middles = []
        real = analysis._output_scalars

        def counted(A, *args):
            scalars = real(A, *args)
            if scalars[-1] is not None and scalars[-1][1] is not None:
                middles.append(A)
            return scalars

        monkeypatch.setattr(analysis, "_output_scalars", counted)
        result = run(small_config(t_end=t_end))
        assert result.outcome.kind == "completed"
        assert len(middles) == len(result.records) - 2
        monkeypatch.undo()
        expected = _window_by_window(result)
        assert [_bits(rec.residuals) for rec in result.records] == expected
        assert expected.count(None) == (2 if t_end == 0.05 else 3)

    def test_an_output_of_negative_A_ends_the_run_failed(self, tmp_path):
        # a loose guard lets A < 0 reach an output; its middle terms would
        # need A > 0, so none are taken, and the next step's velocity ends
        # the run at that output, with its record
        grid = GridSpec(L=1.0, n=16)
        x, y = grid.cell_coords()
        bump = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.01)
        write_field(tmp_path / "A.field", ScalarField(grid, 1.0 + 49.0 * bump))
        write_field(tmp_path / "N.field", ScalarField(grid, np.ones((16, 16))))
        cfg = small_config(
            grid=grid, params=ModelParams(eta=0.1, psi=1000.0, omega=1.0, atilde=0.7, chi=2.0),
            t_end=0.01, dt_init=2e-4, dt_max=2e-4, output_every=2e-4, guard_tol=100.0,
            ic=InitialCondition("file", path_A=str(tmp_path / "A.field"),
                                path_N=str(tmp_path / "N.field")),
        )
        result = run(cfg)
        assert [rec.minA < 0 for rec in result.records] == [False, True]
        assert (result.outcome.kind, result.outcome.t) == ("failed", result.records[-1].t)
        assert result.outcome.reason.startswith("A dropped to")

    @pytest.mark.parametrize("t_end", [0.05, 0.045])
    def test_residuals_are_filled_when_the_next_output_arrives(self, monkeypatch, t_end):
        # the balance of the window ending at output k runs after output k's
        # record is taken and before output k + 1's
        events = []
        record, balances = analysis.diagnostics_record, analysis._energy_balances

        def logged_record(state, *args, **kwargs):
            events.append(("record", state.t))
            return record(state, *args, **kwargs)

        def logged_balances(times, *args):
            events.append(("balance", times[-1]))
            return balances(times, *args)

        monkeypatch.setattr(analysis, "diagnostics_record", logged_record)
        monkeypatch.setattr(analysis, "_energy_balances", logged_balances)
        result = run(small_config(t_end=t_end), keep_snapshots=False)
        assert result.outcome.kind == "completed"
        expected = []
        for k, rec in enumerate(result.records):
            expected.append(("record", rec.t))
            if k >= 2 and result.records[k - 1].residuals is not None:
                expected.append(("balance", rec.t))
        assert events == expected
        assert [kind for kind, _ in events].count("balance") == (4 if t_end == 0.05 else 3)

    def test_snapshots_are_kept_by_default_only(self):
        cfg = small_config()
        kept = run(cfg)
        assert [t for t, _, _ in kept.snapshots] == [rec.t for rec in kept.records]
        assert len(kept.snapshots) == 6
        dropped = run(cfg, keep_snapshots=False)
        assert dropped.snapshots == []
        assert [rec.csv_row() for rec in dropped.records] == [
            rec.csv_row() for rec in kept.records
        ]
        assert [_bits(rec.residuals) for rec in dropped.records] == [
            _bits(rec.residuals) for rec in kept.records
        ]

    def test_no_residuals_where_N_reaches_zero(self):
        # N = 0 at t = 0: the first window lacks N > 0 and is skipped
        cfg = small_config(ic=InitialCondition("constants", a0=0.8, n0=0.0))
        result = run(cfg)
        assert result.records[0].minN == 0.0
        assert result.records[1].residuals is None
        assert all(rec.minN > 0 for rec in result.records[1:])
        assert all(rec.residuals is not None for rec in result.records[2:-1])


class TestDecoupledLimit:
    def test_tiny_coupling_reduces_to_scalar_diffusion(self):
        # with negligible psi and chi the A update is a pure Helmholtz solve
        # of A + dt*atilde and uniform N = 1 is preserved exactly
        params = ModelParams(eta=0.1, psi=1e-14, omega=84.0, atilde=0.7, chi=1e-14)
        cfg = small_config(
            params=params,
            ic=InitialCondition("perturbed_steady", amplitude=0.01),
        )
        A, _ = build_initial(cfg)
        N = ScalarField(cfg.grid, np.ones((32, 32)))
        dt = 1e-3
        new = step(SimState(0.0, A, N), dt, cfg)
        oracle = helmholtz_solve(
            ScalarField(cfg.grid, A.values + dt * 0.7), 0.1, 1.0, dt
        )
        assert float(np.max(np.abs(new.A.values - oracle.values))) < 1e-13
        assert float(np.max(np.abs(new.N.values - 1.0))) < 1e-12


class TestRunConvergence:
    def test_diagnostics_converge_at_first_order_overall(self):
        # simultaneous (h, dt) refinement; aggregate relative change in the
        # final diagnostics should shrink by >= 1.8x per level (order >= 0.9)
        def final_diags(n, dt):
            cfg = SimConfig(
                grid=GridSpec(L=1.0, n=n),
                params=PARAMS,
                t_end=1.0,
                dt_init=dt,
                dt_min=1e-9,
                dt_max=dt,
                output_every=0.25,
                ic=InitialCondition("perturbed_steady", amplitude=0.01),
            )
            result = run(cfg)
            assert result.outcome.kind == "completed"
            rec = result.records[-1]
            return np.array(
                [rec.mass_N, rec.minA, rec.maxA, rec.minN, rec.grad_A_l2sq, rec.phi]
            )

        d_half = final_diags(32, 4e-3)
        d_base = final_diags(64, 2e-3)
        d_fine = final_diags(128, 1e-3)
        scale = np.maximum(np.abs(d_base), 1e-12)
        err_coarse = np.linalg.norm((d_base - d_half) / scale)
        err_fine = np.linalg.norm((d_fine - d_base) / scale)
        assert err_coarse / err_fine >= 1.8


def overflowing_plugin():
    def f(a, n):
        with np.errstate(over="ignore"):
            return np.exp(np.full_like(a, 1000.0))

    return GeneralModel(
        f=f,
        g=lambda a, n: np.sqrt(n),
        h=lambda a: np.log(a),
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


class TestNumericalFailuresAreOutcomes:
    def test_overflowing_plugin_fails_without_halving(self):
        cfg = small_config(
            params=overflowing_plugin(),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
        )
        A, N = build_initial(cfg)
        with pytest.raises(HotspotError, match=r"^GeneralModel\.f: field contains non-finite values$"):
            step(SimState(0.0, A, N), 1e-3, cfg)
        result = run(cfg)
        assert result.outcome.kind == "failed"
        assert "GeneralModel.f" in result.outcome.reason

    @staticmethod
    def plugin_with(name, fn):
        """_reference_params("general") with its callable `name` set to fn."""
        return dataclasses.replace(_reference_params("general"), **{name: fn})

    @classmethod
    def raising_plugin(cls, name, exc):
        def raising(*args):
            raise exc

        return cls.plugin_with(name, raising)

    @pytest.mark.parametrize("name", ["f", "g", "h"])
    def test_plugin_exception_ends_the_run_failed(self, name):
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.raising_plugin(name, ZeroDivisionError("division by zero")),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
        )
        A, N = build_initial(cfg)
        with pytest.raises(HotspotError, match=rf"^GeneralModel\.{name} raised "
                                               r"ZeroDivisionError\('division by zero'\)$") as info:
            step(SimState(0.0, A, N), 1e-3, cfg)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        result = run(cfg)
        assert result.outcome.kind == "failed"
        assert f"GeneralModel.{name}" in result.outcome.reason
        assert "ZeroDivisionError" in result.outcome.reason

    @pytest.mark.parametrize("name, arg", [("f", 0), ("f", 1), ("g", 0), ("g", 1), ("h", 0)])
    def test_plugin_that_writes_its_input_ends_the_run_failed(self, name, arg):
        # the callables see read-only views of the state; written into, the
        # state went negative and the run ended blowup_suspected
        inner = getattr(_reference_params("general"), name)

        def writing(*args):
            args[arg][0, 0] = -1.0
            return inner(*args)

        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.plugin_with(name, writing),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
            t_end=0.02,
        )
        A, N = build_initial(cfg)
        with pytest.raises(HotspotError, match=rf"^GeneralModel\.{name} raised ValueError\("
                                               r"'assignment destination is read-only'\)$"):
            step(SimState(0.0, A, N), 1e-3, cfg)
        assert np.all(A.values == 0.5) and np.all(N.values == 1.0)
        result = run(cfg)
        assert result.outcome.kind == "failed"
        assert result.outcome.reason.startswith(f"GeneralModel.{name} raised ValueError")

    def test_read_only_inputs_leave_a_run_bitwise_unchanged(self, tmp_path):
        # against the same callables on writable copies of their inputs
        seen = []

        def spying(fn):
            def call(*args):
                seen.extend(x.flags.writeable for x in args)
                return fn(*args)
            return call

        def copying(fn):
            return lambda *args: fn(*(x.copy() for x in args))

        grid = GridSpec(L=1.0, n=16)
        state = _wavy_state(grid)
        pa, pn = tmp_path / "A.field", tmp_path / "N.field"
        write_field(pa, state.A)
        write_field(pn, state.N)
        ic = InitialCondition("file", path_A=str(pa), path_N=str(pn))
        plugin = _reference_params("general")
        results = [
            run(small_config(grid=grid, ic=ic, params=dataclasses.replace(
                plugin, f=wrap(plugin.f), g=wrap(plugin.g), h=wrap(plugin.h))))
            for wrap in (spying, copying)
        ]
        assert seen and not any(seen)
        got, want = results
        assert got.outcome.kind == want.outcome.kind == "completed"
        assert repr(got) == repr(want)  # records and counts; repr round-trips floats
        for (_, A, N), (_, A_want, N_want) in zip(got.snapshots, want.snapshots):
            assert A.values.tobytes() == A_want.values.tobytes()
            assert N.values.tobytes() == N_want.values.tobytes()

    def test_complex_plugin_output_ends_the_run_failed(self):
        # the float cast dropped the imaginary part with two ComplexWarnings
        # and the run completed
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.plugin_with("f", lambda a, n: 0.5 * a + 0.5 + 1e-3j),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
            t_end=0.02,
        )
        A, N = build_initial(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HotspotError, match=r"^GeneralModel\.f: field values must be "
                                                   r"real, got complex128$"):
                step(SimState(0.0, A, N), 1e-3, cfg)
            result = run(cfg)
        assert result.outcome.kind == "failed"
        assert result.outcome.reason == "GeneralModel.f: field values must be real, got complex128"

    def test_plugin_interrupt_is_not_wrapped(self):
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.raising_plugin("f", KeyboardInterrupt()),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
        )
        with pytest.raises(KeyboardInterrupt):
            run(cfg)

    def test_floor_violation_fails(self, monkeypatch):
        # bounds whose a_min puts the sensitivity floor above every A value
        monkeypatch.setattr(
            model_module,
            "derived_bounds",
            lambda A, N, params: DerivedBounds(a_min=2.0, a_max=3.0, n1_max=1.0),
        )
        result = run(small_config())
        assert result.outcome.kind == "failed"
        assert "below floor" in result.outcome.reason

    def test_nonpositive_A_at_an_output_fails(self, monkeypatch):
        # chi <= 1, so the record computes the modified entropy Y, whose
        # log weight needs A > 0
        real_step = solver.step

        def sinking(state, dt, config, bounds=None, velocity=None):
            new = real_step(state, dt, config, bounds, velocity)
            A = ScalarField(new.A.grid, new.A.values - 10.0)
            return SimState(new.t, A, new.N, new.step_count)

        monkeypatch.setattr(solver, "step", sinking)
        cfg = small_config(
            params=ModelParams(eta=0.1, psi=PSI, omega=84.0, atilde=0.7, chi=0.5),
            ic=InitialCondition("constants", a0=0.8, n0=1.0),
            dt_init=0.01,
        )
        result = run(cfg)
        assert result.outcome.kind == "failed"
        assert result.outcome.t == pytest.approx(0.01)
        assert "positive" in result.outcome.reason

    def test_corrupted_inverse_dct_fails_the_residual_check(self, monkeypatch):
        real = grid_module._fft

        class CorruptedFFT:
            dctn = staticmethod(real.dctn)

            @staticmethod
            def idctn(x):
                # one cell of the first slice of the solve's stack
                u = real.idctn(x)
                u[0, 3, 5] += 1e-6
                return u

        monkeypatch.setattr(grid_module, "_fft", CorruptedFFT)
        rhs = ScalarField(GridSpec(L=1.0, n=32), np.full((32, 32), 0.7))
        with pytest.raises(HotspotError, match=r"^Helmholtz residual \S+ exceeds 1e-10$"):
            helmholtz_solve(rhs, 0.1, 1.0, 1e-3)
        result = run(small_config())
        assert result.outcome.kind == "failed"
        assert "Helmholtz residual" in result.outcome.reason

    def test_overflowing_norms_do_not_pass_a_wrong_solve(self, monkeypatch):
        # ||rhs|| overflows at |rhs| ~ 1e200: inf / inf is NaN, and a NaN
        # ratio must fail rather than pass "rel > tol"
        real = grid_module._fft

        class ScaledFFT:
            dctn = staticmethod(real.dctn)

            @staticmethod
            def idctn(x):
                u = real.idctn(x)
                u *= 1.5
                return u

        wave, _ = sample_cosine_field(3, 4, 1.0, GridSpec(L=1.0, n=32))
        rhs = ScalarField(wave.grid, 1e200 * (2.0 + wave.values))
        u = helmholtz_solve(rhs, 0.1, 1.0, 1e-3)  # the right solve passes
        assert np.isfinite(u.values).all()
        monkeypatch.setattr(grid_module, "_fft", ScaledFFT)
        with pytest.raises(HotspotError, match=r"^Helmholtz residual 5\.0\d*e-01 exceeds 1e-10$"):
            helmholtz_solve(rhs, 0.1, 1.0, 1e-3)

    def test_nan_solution_fails_the_residual_check(self, monkeypatch):
        real = grid_module._fft

        class NanFFT:
            dctn = staticmethod(real.dctn)

            @staticmethod
            def idctn(x):
                u = real.idctn(x)
                u[0, 2, 2] = np.nan
                return u

        monkeypatch.setattr(grid_module, "_fft", NanFFT)
        rhs = ScalarField(GridSpec(L=1.0, n=16), np.full((16, 16), 0.7))
        with pytest.raises(HotspotError, match="^Helmholtz residual nan exceeds 1e-10$"):
            helmholtz_solve(rhs, 0.1, 1.0, 1e-3)


def source_plugin(f):
    """A GeneralModel with the A source f, no N source and no drift."""
    return GeneralModel(
        f=f, g=lambda a, n: np.zeros_like(n), h=lambda a: np.zeros_like(a),
        eta=0.1, omega=1.0, a_min=0.25, a_max=1.0, delta=0.5,
        g1=1.0, g2=0.0, f1=0.0, f2=0.5,
    )


class TestHalvedFailures:
    """The failures run() cures by halving the step: a non-finite explicit
    stage and a guard breach."""

    @staticmethod
    def overflowing_once():
        """A plugin whose f is 1e308, finite, at its first call, so that
        dt * f overflows at dt = 2, and 0.1 at every later call."""
        calls = []

        def f(a, n):
            calls.append(None)
            return np.full_like(a, 1e308 if len(calls) == 1 else 0.1)

        return source_plugin(f)

    def test_non_finite_explicit_stage_is_raised_before_the_solve(self, monkeypatch):
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.overflowing_once(),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
            t_end=2.0, dt_init=2.0, output_every=2.0,
        )
        A, N = build_initial(cfg)
        solves = []
        real = solver._helmholtz
        monkeypatch.setattr(
            solver, "_helmholtz", lambda *args: solves.append(None) or real(*args)
        )
        with np.errstate(over="ignore"):
            with pytest.raises(StepRejected, match="^explicit stage produced non-finite values$"):
                step(SimState(0.0, A, N), 2.0, cfg)
        assert solves == []

    def test_non_finite_explicit_stage_halves(self):
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=self.overflowing_once(),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
            t_end=2.0, dt_init=2.0, output_every=2.0,
        )
        with np.errstate(over="ignore"):
            result = run(cfg)
        assert result.outcome.kind == "completed"
        assert (result.steps_accepted, result.steps_rejected) == (2, 1)

    def test_short_model_a_losing_positivity_is_a_breach(self):
        # N down to -0.9 (guard_tol 1) makes A's source n a + a0 negative
        grid = GridSpec(L=1.0, n=16)
        cfg = small_config(
            grid=grid, params=ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0),
            guard_tol=1.0,
        )
        state = SimState(
            0.0, ScalarField(grid, np.full((16, 16), 0.8)),
            ScalarField(grid, np.full((16, 16), -0.9)),
        )
        with pytest.raises(StepRejected, match="^A lost positivity$"):
            step(state, 2.0, cfg)
        assert step(state, 0.5, cfg).A.values.min() > 0

    def test_a_losing_positivity_halves(self):
        # a0 (1 - 40 dt) < 0 at dt = 0.04, and 0.2 a0 at 0.02
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=source_plugin(lambda a, n: -40.0 * a),
            ic=InitialCondition("constants", a0=0.5, n0=1.0),
            t_end=0.04, dt_init=0.04, output_every=0.04,
        )
        A, N = build_initial(cfg)
        with pytest.raises(StepRejected, match="^A lost positivity$"):
            step(SimState(0.0, A, N), 0.04, cfg)
        result = run(cfg)
        assert result.outcome.kind == "completed"
        assert (result.steps_accepted, result.steps_rejected) == (2, 1)


class TestStepCounter:
    """The benchmark's phases mode counts the returns of solver.step, which
    run() calls through its module attribute once per attempt."""

    @staticmethod
    def counted_run(monkeypatch, cfg):
        calls, returns = [], []
        real = solver.step

        def counted(*args, **kwargs):
            calls.append(None)
            result = real(*args, **kwargs)
            returns.append(None)
            return result

        monkeypatch.setattr(solver, "step", counted)
        result = run(cfg, keep_snapshots=False)
        return result, len(calls), len(returns)

    @pytest.mark.parametrize("model", ["main", "short"])
    def test_returns_equal_accepted_steps(self, monkeypatch, model):
        cfg = small_config(grid=GridSpec(L=1.0, n=16), params=_reference_params(model))
        result, calls, returns = self.counted_run(monkeypatch, cfg)
        assert result.outcome.kind == "completed"
        assert result.steps_accepted > 0
        assert returns == calls == result.steps_accepted

    def test_guard_retries_are_attempts_that_do_not_return(self, monkeypatch):
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0),
            t_end=2.0,
            output_every=0.16,
            ic=InitialCondition("perturbed_steady", amplitude=0.5, mode_j=2, mode_k=1),
        )
        result, calls, returns = self.counted_run(monkeypatch, cfg)
        assert result.outcome.kind == "blowup_suspected"
        assert result.steps_rejected > 0
        assert returns == result.steps_accepted
        assert calls == result.steps_accepted + result.steps_rejected


def _reference_step(state, dt, cfg, a_floor):
    """One step built from the public operators and the formulas of the
    scheme, with the Helmholtz solves written out on scipy's DCT."""
    p, grid = cfg.params, cfg.grid
    A, N = state.A, state.N
    a, n = A.values, N.values
    if isinstance(p, ModelParams):
        rA = p.psi * n * a * (1.0 - a) + p.atilde
        rN = np.full_like(n, p.omega)
        lam_A, lam_N = 1.0, p.omega
    elif isinstance(p, ShortParams):
        rA = n * a + p.a0
        rN = -n * a + p.abar - p.a0
        lam_A, lam_N = 1.0, 0.0
    if isinstance(p, (ModelParams, ShortParams)):
        afx = 0.5 * (a[1:, :] + a[:-1, :])
        afy = 0.5 * (a[:, 1:] + a[:, :-1])
        vfx = np.zeros((grid.n + 1, grid.n))
        vfy = np.zeros((grid.n, grid.n + 1))
        vfx[1:-1, :] = p.chi * np.diff(a, axis=0) / grid.h / afx
        vfy[:, 1:-1] = p.chi * np.diff(a, axis=1) / grid.h / afy
        v = VectorField(grid, vfx, vfy)
    else:
        rA = np.asarray(p.f(a, n), dtype=float)
        rN = np.asarray(p.g(a, n), dtype=float)
        lam_A, lam_N = 1.0, p.omega
        v = gradient(ScalarField(grid, p.h(a)))
    vx, vy = v.fx[1:-1, :], v.fy[:, 1:-1]
    if cfg.flux_scheme == "centered":
        nfx = 0.5 * (n[1:, :] + n[:-1, :])
        nfy = 0.5 * (n[:, 1:] + n[:, :-1])
    else:
        nfx = np.where(vx >= 0, n[:-1, :], n[1:, :])
        nfy = np.where(vy >= 0, n[:, :-1], n[:, 1:])
    fx = np.zeros_like(v.fx)
    fy = np.zeros_like(v.fy)
    fx[1:-1, :] = -nfx * vx
    fy[:, 1:-1] = -nfy * vy
    adv = divergence(VectorField(grid, fx, fy)).values
    a_exp = a + dt * rA
    n_exp = n + dt * (adv + rN)

    j = np.arange(grid.n)
    s = (4.0 / grid.h ** 2) * np.sin(np.pi * j / (2 * grid.n)) ** 2

    def solve(rhs, d, lam):
        denom = (1.0 + dt * lam) + dt * d * (s[:, None] + s[None, :])
        rh = scipy_fft.dctn(rhs, type=2, norm="ortho")
        return scipy_fft.idctn(rh / denom, type=2, norm="ortho")

    return solve(a_exp, p.eta, lam_A), solve(n_exp, 1.0, lam_N)


def _reference_params(model):
    if model == "main":
        return ModelParams(eta=0.1, psi=0.5, omega=84.0, atilde=0.7, chi=2.0)
    if model == "short":
        return ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0)
    return GeneralModel(
        f=lambda a, n: 0.3 * n * a + 0.1,
        g=lambda a, n: np.sqrt(n),
        h=lambda a: 2.0 * np.log(a),
        eta=0.1, omega=1.0, a_min=0.25, a_max=1.0, delta=0.5,
        g1=1.0, g2=0.0, f1=0.3, f2=0.1,
    )


def _wavy_state(grid):
    """A state whose velocities and fluxes take both signs on both face
    families; N is not C-contiguous."""
    wave, _ = sample_cosine_field(7, min(5, (grid.n - 1) // 2), 0.05, grid)
    A = ScalarField(grid, 0.8 + wave.values)
    N = ScalarField(grid, 1.0 + 2.0 * wave.values.T)
    return SimState(0.0, A, N)


class TestScipyFallback:
    def test_a_run_on_scipy_fft_equals_the_pocketfft_run(self, monkeypatch):
        # scipy.fft transforms the solves' padded rows in place but returns
        # a new array object, which the fallback pair copies back
        n = 8
        spectral = np.zeros((2, n, n + grid_module._PAD))[:, :, :n]
        u = scipy_fft.dctn(spectral, type=2, norm="ortho", overwrite_x=True, axes=(1, 2))
        assert u is not spectral
        want = run(small_config())
        monkeypatch.setattr(grid_module, "_pocketfft_path", lambda: None)
        monkeypatch.setattr(grid_module, "_fft", grid_module._load_dct())
        got = run(small_config())
        assert got.outcome.kind == want.outcome.kind == "completed"
        assert repr(got) == repr(want)  # records and counts; repr round-trips floats
        assert len(got.snapshots) == len(want.snapshots) == 6
        for (t, A, N), (t_want, A_want, N_want) in zip(got.snapshots, want.snapshots):
            assert t == t_want
            assert A.values.tobytes() == A_want.values.tobytes()
            assert N.values.tobytes() == N_want.values.tobytes()


class TestStepMatchesReference:
    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    @pytest.mark.parametrize("model", ["main", "short", "general"])
    def test_bitwise_equal_to_reference(self, scheme, model):
        params = _reference_params(model)
        # odd n puts the row wraps of the flat y faces at odd offsets
        for n in (8, 9, 33):
            grid = GridSpec(L=1.0, n=n)
            cfg = small_config(grid=grid, params=params, flux_scheme=scheme)
            state = _wavy_state(grid)
            a_floor = float(np.min(state.A.values)) / 2.0
            for _ in range(3):
                want_A, want_N = _reference_step(state, 1e-4, cfg, a_floor)
                # the step's own velocity and the faces run() builds give
                # the same bytes
                own = step(state, 1e-4, cfg)
                state = step(
                    state, 1e-4, cfg, None, params._face_velocity(state.A, a_floor)
                )
                for got in (own, state):
                    assert got.A.values.tobytes() == want_A.tobytes()
                    assert got.N.values.tobytes() == want_N.tobytes()

    @pytest.mark.parametrize("model", ["main", "short"])
    def test_rejected_attempt_leaves_no_trace(self, model):
        # a guard-driven retry reuses the state's velocity faces and the
        # workspace a failed attempt wrote into
        grid = GridSpec(L=1.0, n=33)
        params = {
            "main": ModelParams(eta=0.1, psi=0.5, omega=1.0, atilde=0.7, chi=50.0),
            "short": ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0),
        }[model]
        cfg = small_config(grid=grid, params=params)
        state = _wavy_state(grid)
        bounds = params.bounds(state.A, state.N)
        a_floor = sensitivity_floor(state.A, bounds)
        grid_module._workspace.cache_clear()
        fresh = step(state, 1e-4, cfg, bounds)
        velocity = params._face_velocity(state.A, a_floor)
        with pytest.raises(StepRejected, match="^(A reached .+|A lost positivity|N reached .+)$"):
            step(state, 0.5, cfg, bounds, velocity)
        retried = step(state, 1e-4, cfg, bounds, velocity)
        assert retried.A.values.tobytes() == fresh.A.values.tobytes()
        assert retried.N.values.tobytes() == fresh.N.values.tobytes()


class TestStepAllocation:
    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    @pytest.mark.parametrize("model", ["main", "short"])
    def test_a_step_allocates_only_its_result(self, model, scheme):
        # after the first step on a grid, a step and its velocity run in the
        # workspace: nothing of n^2 floats is allocated beyond the result
        n = 64
        grid = GridSpec(L=1.0, n=n)
        params = _reference_params(model)
        cfg = small_config(grid=grid, params=params, flux_scheme=scheme)
        A, N = _wavy_state(grid).A, ScalarField(grid, np.full((n, n), 1.0))
        state = SimState(0.0, A, N)
        bounds = params.bounds(A, N)
        step(state, 1e-4, cfg, bounds)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = step(state, 1e-4, cfg, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = n * n * 8
        assert new.A.values.base is new.N.values.base
        assert peak - before < 2 * field + field // 2

    def test_general_velocity_allocates_only_h_of_A(self):
        # the face gradient of h(A) is written straight into the workspace
        # faces; h = 2 log(A) holds log(A) and its double at once, and the
        # velocity allocates nothing more of n^2 floats
        n = 64
        grid = GridSpec(L=1.0, n=n)
        params = _reference_params("general")
        A = _wavy_state(grid).A
        params._face_velocity(A, 0.1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            faces = params._face_velocity(A, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2.1 * n * n * 8
        got, want = faces.vector_field(), gradient(ScalarField(grid, params.h(A.values)))
        assert got.fx.tobytes() == want.fx.tobytes()
        assert got.fy.tobytes() == want.fy.tobytes()


    @pytest.mark.parametrize("dt", [1e-4, 2e-4], ids=["repeated-dt", "changed-dt"])
    def test_denominators_are_rebuilt_only_when_dt_changes(self, dt):
        n = 64
        grid = GridSpec(L=1.0, n=n)
        params = _reference_params("main")
        cfg = small_config(grid=grid, params=params)
        A, N = _wavy_state(grid).A, ScalarField(grid, np.full((n, n), 1.0))
        state = SimState(0.0, A, N)
        bounds = params.bounds(A, N)
        step(state, 1e-4, cfg, bounds)
        ws = grid_module._workspace(grid)
        # a step at the same dt must not write them
        ws.denom.flags.writeable = dt != 1e-4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = step(state, dt, cfg, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ws.denom.flags.writeable = True
        field = n * n * 8
        assert peak - before < 2 * field + field // 2
        grid_module._workspace.cache_clear()
        fresh = step(state, dt, cfg, bounds)
        assert new.A.values.tobytes() == fresh.A.values.tobytes()
        assert new.N.values.tobytes() == fresh.N.values.tobytes()

    def test_a_solve_between_steps_leaves_no_trace(self):
        # helmholtz_solve rebuilds the first denominator for its own d and
        # lam, and its neighbour sums overwrite the flux faces
        grid = GridSpec(L=1.0, n=33)
        cfg = small_config(grid=grid, params=_reference_params("short"))
        state = _wavy_state(grid)
        grid_module._workspace.cache_clear()
        fresh = step(state, 1e-4, cfg)
        helmholtz_solve(state.A, 0.3, 2.0, 1e-4)
        again = step(state, 1e-4, cfg)
        assert again.A.values.tobytes() == fresh.A.values.tobytes()
        assert again.N.values.tobytes() == fresh.N.values.tobytes()


class TestModelProtocol:
    KINDS = {
        "main": ModelParams(eta=0.1, psi=0.5, omega=84.0, atilde=0.7, chi=2.0),
        "short": ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=3.0),
        "general": GeneralModel(
            f=lambda a, n: 0.3 * n * a + 0.1,
            g=lambda a, n: np.sqrt(n),
            h=lambda a: 2.0 * np.log(a),
            eta=0.1, omega=1.0, a_min=0.25, a_max=1.0, delta=0.5,
            g1=1.0, g2=0.0, f1=0.3, f2=0.1,
        ),
    }

    @staticmethod
    def fields():
        grid = GridSpec(L=1.0, n=32)
        wave, _ = sample_cosine_field(7, 5, 0.05, grid)
        return (
            ScalarField(grid, 0.8 + wave.values),
            ScalarField(grid, 1.0 + 2.0 * wave.values.T),
        )

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_reaction_terms_bitwise_equal_to_reference(self, kind):
        # ModelKind.reaction, which solver.step calls on the state's arrays
        p = self.KINDS[kind]
        A, N = self.fields()
        a, n = A.values, N.values
        if kind == "main":
            want = (p.psi * n * a * (1.0 - a) + p.atilde,
                    np.full_like(n, p.omega), 1.0, p.omega)
        elif kind == "short":
            want = (n * a + p.a0, -n * a + p.abar - p.a0, 1.0, 0.0)
        else:
            want = (p.f(a, n), p.g(a, n), 1.0, p.omega)
        rA, rN, lam_A, lam_N = p.reaction(A.grid, a, n)
        assert rA.tobytes() == want[0].tobytes()
        assert rN.tobytes() == want[1].tobytes()
        assert (lam_A, lam_N) == want[2:]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_chemo_velocity_bitwise_equal_to_reference(self, kind):
        p = self.KINDS[kind]
        A, N = self.fields()
        grid, a = A.grid, A.values
        if kind == "general":
            want = gradient(ScalarField(grid, p.h(a)))
        else:
            afx = 0.5 * (a[1:, :] + a[:-1, :])
            afy = 0.5 * (a[:, 1:] + a[:, :-1])
            vfx = np.zeros((grid.n + 1, grid.n))
            vfy = np.zeros((grid.n, grid.n + 1))
            vfx[1:-1, :] = p.chi * np.diff(a, axis=0) / grid.h / afx
            vfy[:, 1:-1] = p.chi * np.diff(a, axis=1) / grid.h / afy
            want = VectorField(grid, vfx, vfy)
        v = p.velocity(A, float(np.min(a)) / 2.0)
        assert v.fx.tobytes() == want.fx.tobytes()
        assert v.fy.tobytes() == want.fy.tobytes()

    def test_general_model_has_no_perturbed_steady_state(self):
        cfg = small_config(params=self.KINDS["general"])
        with pytest.raises(HotspotError, match="^cannot build the initial condition: "
                                               "perturbed_steady is only defined for the "
                                               "built-in model kinds$"):
            build_initial(cfg)


class TestStatesOwnTheirArrays:
    def test_successive_states_do_not_share_buffers(self):
        cfg = small_config()
        A, N = build_initial(cfg)
        s1 = step(SimState(0.0, A, N), 1e-3, cfg)
        kept_A, kept_N = s1.A.values.copy(), s1.N.values.copy()
        s2 = step(s1, 1e-3, cfg)
        arrays = [f.values for s in (SimState(0.0, A, N), s1, s2) for f in (s.A, s.N)]
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        np.testing.assert_array_equal(s1.A.values, kept_A)
        np.testing.assert_array_equal(s1.N.values, kept_N)

    def test_snapshots_do_not_share_buffers(self):
        result = run(small_config())
        arrays = [f.values for _, A, N in result.snapshots for f in (A, N)]
        assert len(arrays) == 12
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_fields_validated_once_per_step_result(self, monkeypatch):
        # the step works on arrays, and the residual check is its results'
        # one validation: a passing check shows them finite, so the two
        # result fields are built without a ScalarField validation.  An
        # output builds no field either (its analysis works in the grid's
        # workspace); any validation inside the step would raise the count
        calls = []
        real = ScalarField.__post_init__

        def counted(field):
            calls.append(field)
            real(field)

        monkeypatch.setattr(ScalarField, "__post_init__", counted)
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16), t_end=0.02, output_every=0.005, dt_max=1e-3
        )
        build_initial(cfg)
        initial = len(calls)
        calls.clear()
        result = run(cfg)
        assert result.outcome.kind == "completed"
        assert result.steps_rejected == 0
        assert result.steps_accepted == 20
        assert len(result.records) == 5
        windows = sum(rec.residuals is not None for rec in result.records)
        assert windows == 3
        assert len(calls) == initial

    def test_one_velocity_per_accepted_state(self, monkeypatch):
        # the solver's calls only: an output's analysis builds its theta
        # with the same call, from analysis
        calls = []
        real = ModelParams._face_velocity

        def counted(params, A, a_floor):
            if sys._getframe(1).f_globals["__name__"] == solver.__name__:
                calls.append(A)
            return real(params, A, a_floor)

        monkeypatch.setattr(ModelParams, "_face_velocity", counted)
        result = run(small_config())
        assert result.outcome.kind == "completed"
        assert result.steps_rejected == 0
        # one per accepted state; the final state steps no further
        assert len(calls) == result.steps_accepted
        assert len(calls) == len({id(A) for A in calls})

    def test_guard_retries_share_the_state_velocity(self, monkeypatch):
        calls = []
        real = ShortParams._face_velocity

        def counted(params, A, a_floor):
            calls.append(A)
            return real(params, A, a_floor)

        monkeypatch.setattr(ShortParams, "_face_velocity", counted)
        cfg = small_config(
            grid=GridSpec(L=1.0, n=16),
            params=ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0),
            t_end=2.0,
            output_every=0.16,
            ic=InitialCondition("perturbed_steady", amplitude=0.5, mode_j=2, mode_k=1),
        )
        result = run(cfg)
        assert result.outcome.kind == "blowup_suspected"
        assert result.steps_rejected > 0
        # one per accepted state and one for the state the run stops at
        assert len(calls) == result.steps_accepted + 1


class TestRunStacks:
    """run() steps between two state stacks that it allocates once; every
    attempt still goes through solver.step, and what it hands out owns its
    arrays."""

    @staticmethod
    def config(model, scheme, tmp_path, **overrides):
        grid = GridSpec(L=1.0, n=16)
        params = _reference_params(model)
        if model == "general":
            # no steady state: the wavy fields from files
            state = _wavy_state(grid)
            write_field(tmp_path / "A.field", state.A)
            write_field(tmp_path / "N.field", state.N)
            ic = InitialCondition("file", path_A=str(tmp_path / "A.field"),
                                  path_N=str(tmp_path / "N.field"))
        else:
            ic = InitialCondition("perturbed_steady", amplitude=0.05, mode_j=2)
        base = dict(grid=grid, params=params, flux_scheme=scheme, ic=ic,
                    t_end=0.02, output_every=0.005)
        return small_config(**{**base, **overrides})

    @staticmethod
    def recorded_run(monkeypatch, cfg):
        """run(cfg) with every attempt recorded: (dt, the state's arrays
        before, A and N after or the exception class raised)."""
        attempts = []
        real = solver.step

        def recording(state, dt, config, bounds=None, velocity=None):
            before = (state.A.values.copy(), state.N.values.copy())
            try:
                new = real(state, dt, config, bounds, velocity)
            except Exception as exc:
                # a rejected attempt leaves the current stack as it was
                assert state.A.values.tobytes() == before[0].tobytes()
                assert state.N.values.tobytes() == before[1].tobytes()
                attempts.append((dt, type(exc)))
                raise
            attempts.append((dt, (new.A.values.copy(), new.N.values.copy(), new)))
            return new

        monkeypatch.setattr(solver, "step", recording)
        return run(cfg), attempts

    # the upwind flux keeps N >= 0, so only a centered run halves
    @pytest.mark.parametrize("model, scheme", [
        (model, scheme) for model in ("main", "short", "general")
        for scheme in ("centered", "upwind")
    ] + [("short-halving", "centered")] + [("main-fixed-dt", scheme) for scheme in (
        "centered", "upwind")])
    def test_run_equals_a_chain_of_public_steps(self, monkeypatch, tmp_path, model, scheme):
        if model == "short-halving":
            cfg = self.config(
                "short", scheme, tmp_path, t_end=2.0, output_every=0.16,
                params=ShortParams(eta=0.05, a0=0.2, abar=0.8, chi=4.0),
                ic=InitialCondition("perturbed_steady", amplitude=0.5, mode_j=2, mode_k=1),
            )
        elif model == "main-fixed-dt":
            # steps of one dt reuse the cached denominators of the solves
            cfg = self.config("main", scheme, tmp_path, dt_max=1e-3)
        else:
            cfg = self.config(model, scheme, tmp_path)
        result, attempts = self.recorded_run(monkeypatch, cfg)
        assert result.steps_accepted + result.steps_rejected == len(attempts)
        if model == "short-halving":
            assert result.outcome.kind == "blowup_suspected"
            assert result.steps_rejected > 0
        else:
            assert result.outcome.kind == "completed"

        # the same dt sequence through the public step, from the initial
        # state, with an output analysed after every step: the analysis
        # borrows workspace buffers, and no later step may see it.  The chain
        # starts on a new workspace, so that what the run's analyses left in
        # the old one shows
        monkeypatch.undo()
        grid_module._workspace.cache_clear()
        A, N = build_initial(cfg)
        state = SimState(0.0, A, N)
        bounds = cfg.params.bounds(A, N)
        a_floor = sensitivity_floor(A, bounds)
        n0_mass = integral(N)
        stacks, rows = set(), {}
        for dt, got in attempts:
            velocity = cfg.params._face_velocity(state.A, a_floor)
            if isinstance(got, type):
                with pytest.raises(got):
                    step(state, dt, cfg, bounds, velocity)
                continue
            state = step(state, dt, cfg, bounds, velocity)
            assert state.A.values.tobytes() == got[0].tobytes()
            assert state.N.values.tobytes() == got[1].tobytes()
            stacks.add(id(got[2].A.values.base))
            rec = analysis.diagnostics_record(state, cfg.params, bounds, n0_mass, middle=True)
            assert (rec.terms is not None) == (bounds is not None)
            rows[rec.t] = rec.csv_row().split(",")[:9]  # the columns before r1
        # two stacks in turn for the whole run
        assert len(stacks) <= 2
        # the run's records where an output fell
        for rec in result.records[1:]:
            assert rows[rec.t] == rec.csv_row().split(",")[:9]

    @pytest.mark.parametrize("model", ["main", "short"])
    def test_no_field_handed_out_shares_memory(self, monkeypatch, tmp_path, model):
        # an output keeps the stack of its state, which no later step writes
        cfg = self.config(model, "centered", tmp_path)
        result, attempts = self.recorded_run(monkeypatch, cfg)
        states = [got for _, got in attempts if not isinstance(got, type)]
        ws = grid_module._workspace(cfg.grid)
        buffers = [ws.rhs, ws.denom, ws.residual, ws.velocity._all, ws.flux._all]
        arrays = [f.values for _, A, N in result.snapshots for f in (A, N)]
        assert len(arrays) == 2 * len(result.records) == 10
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:] + buffers:
                assert not np.shares_memory(x, y)
        for t, A, N in result.snapshots[1:]:
            k = next(k for k, got in enumerate(states) if got[2].t == t)
            assert A.values.tobytes() == states[k][0].tobytes()
            assert N.values.tobytes() == states[k][1].tobytes()
            for later in states[k + 1:]:
                assert not np.shares_memory(A.values, later[2].A.values.base)

    def test_peak_memory_is_flat_in_the_number_of_steps(self):
        n = 64
        peaks = []
        for steps in (20, 200):
            cfg = small_config(grid=GridSpec(L=1.0, n=n), params=_reference_params("short"),
                               ic=InitialCondition("perturbed_steady", amplitude=0.05,
                                                   mode_j=2),
                               t_end=steps * 1e-5, dt_init=1e-5, dt_max=1e-5,
                               output_every=steps * 1e-5)
            run(cfg, keep_snapshots=False)  # the workspace is cached from here on
            tracemalloc.start()
            try:
                result = run(cfg, keep_snapshots=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.steps_accepted == steps
        assert abs(peaks[1] - peaks[0]) < n * n * 8
