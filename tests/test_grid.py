import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

import hotspotsim
from hotspotsim import grid as grid_module
from hotspotsim.grid import (
    HELMHOLTZ_TOL,
    GridSpec,
    HotspotError,
    ScalarField,
    VectorField,
    _workspace,
    cosine_mode,
    divergence,
    fisher,
    grad4,
    grad_l1,
    grad_l2sq,
    gradient,
    helmholtz_solve,
    integral,
    laplacian,
    laplacian_l2sq,
    lp_norm,
    mean,
    osc,
    read_field,
    sample_cosine_field,
    spectral_hessian_norms,
    write_field,
)


def dct_laplacian_symbol(grid: GridSpec, j: int, k: int = 0) -> float:
    """Eigenvalue of the discrete Neumann Laplacian on the cosine mode (j,k)."""
    s = lambda m: (4.0 / grid.h ** 2) * math.sin(math.pi * m / (2 * grid.n)) ** 2
    return -(s(j) + s(k))


def rand_field(grid, seed=0, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.uniform(lo, hi, size=(grid.n, grid.n)))


class TestGridSpec:
    def test_geometry(self):
        grid = GridSpec(L=2.0, n=16)
        assert grid.h == pytest.approx(0.125)
        assert grid.area == pytest.approx(4.0)

    def test_cell_coords_are_centers(self):
        grid = GridSpec(L=1.0, n=8)
        x, y = grid.cell_coords()
        assert x[0, 0] == pytest.approx(1.0 / 16)
        assert x[-1, 0] == pytest.approx(1.0 - 1.0 / 16)
        assert y[0, -1] == pytest.approx(1.0 - 1.0 / 16)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(L=1.0, n=4)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            GridSpec(L=0.0, n=16)

    @pytest.mark.parametrize("n", [16.7, 16.0])
    def test_rejects_non_integer_cell_count(self, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            GridSpec(L=1.0, n=n)

    def test_accepts_numpy_integer_cell_count(self):
        assert GridSpec(L=1.0, n=np.int64(16)) == GridSpec(L=1.0, n=16)


class TestFields:
    def test_scalar_rejects_wrong_shape(self):
        grid = GridSpec(L=1.0, n=8)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((8, 9)))

    def test_scalar_rejects_nan(self):
        grid = GridSpec(L=1.0, n=8)
        vals = np.ones((8, 8))
        vals[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid, vals)

    @pytest.mark.parametrize("vals", [
        np.full((8, 8), 1.0 + 1e-3j),
        np.ones((8, 8), dtype=np.complex64),  # a zero imaginary part too
        [[1.0 + 0j] * 8] * 8,
    ], ids=["complex128", "complex64", "list"])
    def test_scalar_rejects_complex_values(self, vals):
        # before the float cast, which would drop the imaginary part with a
        # ComplexWarning
        grid = GridSpec(L=1.0, n=8)
        with pytest.raises(ValueError, match="^field values must be real, got complex"):
            ScalarField(grid, vals)

    def test_vector_requires_zero_normal_flux(self):
        grid = GridSpec(L=1.0, n=8)
        fx = np.zeros((9, 8))
        fy = np.zeros((8, 9))
        fx[0, 2] = 1.0
        with pytest.raises(ValueError):
            VectorField(grid, fx, fy)

    def test_mixed_grids_rejected(self):
        a = rand_field(GridSpec(L=1.0, n=8))
        b = rand_field(GridSpec(L=1.0, n=16))
        with pytest.raises(HotspotError, match="^operands live on different grids$"):
            from hotspotsim.grid import _same_grid

            _same_grid(a, b)


class TestOperators:
    def test_gradient_of_constant_vanishes(self):
        grid = GridSpec(L=1.0, n=16)
        F = gradient(ScalarField(grid, np.full((16, 16), 3.7)))
        assert not F.fx.any() and not F.fy.any()

    def test_gradient_bits_do_not_depend_on_memory_order(self):
        # _pairs flattens a copy of a field that is not C-contiguous; either
        # way each interior face is the difference of its cells over h
        grid = GridSpec(L=1.3, n=17)
        v = rand_field(grid, seed=3).values.T
        strided = ScalarField(grid, v)
        assert not strided.values.flags.c_contiguous
        got, want = gradient(strided), gradient(ScalarField(grid, v.copy()))
        assert got.fx.tobytes() == want.fx.tobytes()
        assert got.fy.tobytes() == want.fy.tobytes()
        assert got.fx[1:-1, :].tobytes() == (np.diff(v, axis=0) / grid.h).tobytes()
        assert got.fy[:, 1:-1].tobytes() == (np.diff(v, axis=1) / grid.h).tobytes()
        assert not got.fx[[0, -1]].any() and not got.fy[:, [0, -1]].any()

    def test_laplacian_is_div_grad(self):
        u = rand_field(GridSpec(L=1.3, n=24), seed=5)
        lap = laplacian(u)
        dg = divergence(gradient(u))
        np.testing.assert_allclose(lap.values, dg.values, rtol=0, atol=1e-13)

    def test_laplacian_integral_zero(self):
        # discrete divergence theorem with no-flux boundaries
        u = rand_field(GridSpec(L=1.0, n=32), seed=7)
        assert abs(integral(laplacian(u))) < 1e-11

    def test_cosine_modes_are_eigenfunctions(self):
        grid = GridSpec(L=1.0, n=32)
        for j, k in [(1, 0), (2, 3), (5, 5)]:
            u = cosine_mode(grid, j, k)
            lam = dct_laplacian_symbol(grid, j, k)
            np.testing.assert_allclose(
                laplacian(u).values, lam * u.values, rtol=1e-11, atol=1e-9
            )

    def test_symbol_matches_continuum_for_low_modes(self):
        grid = GridSpec(L=1.0, n=512)
        lam = dct_laplacian_symbol(grid, 1, 1)
        assert lam == pytest.approx(-2.0 * math.pi ** 2, rel=1e-5)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_divergence_integral_zero_property(self, seed):
        grid = GridSpec(L=1.0, n=16)
        rng = np.random.default_rng(seed)
        fx = np.zeros((17, 16))
        fy = np.zeros((16, 17))
        fx[1:-1, :] = rng.normal(size=(15, 16))
        fy[:, 1:-1] = rng.normal(size=(16, 15))
        F = VectorField(grid, fx, fy)
        assert abs(integral(divergence(F))) < 1e-12


class TestFunctionals:
    def test_integral_of_constant(self):
        grid = GridSpec(L=2.0, n=16)
        assert integral(ScalarField(grid, np.full((16, 16), 0.25))) == pytest.approx(1.0)

    def test_integral_of_cosine_mode_vanishes(self):
        grid = GridSpec(L=1.0, n=64)
        assert abs(integral(cosine_mode(grid, 3, 0))) < 1e-14

    def test_mean(self):
        grid = GridSpec(L=3.0, n=16)
        assert mean(ScalarField(grid, np.full((16, 16), 7.0))) == pytest.approx(7.0)

    def test_lp_norms(self):
        grid = GridSpec(L=2.0, n=16)
        u = ScalarField(grid, np.full((16, 16), -3.0))
        assert lp_norm(u, 1) == pytest.approx(12.0)
        assert lp_norm(u, 2) == pytest.approx(6.0)
        assert lp_norm(u, math.inf) == pytest.approx(3.0)

    def test_lp_rejects_small_exponent(self):
        u = rand_field(GridSpec(L=1.0, n=8))
        with pytest.raises(HotspotError, match=r"^Lp norm needs p >= 1, got p=0\.5$"):
            lp_norm(u, 0.5)

    def test_osc(self):
        grid = GridSpec(L=1.0, n=8)
        vals = np.ones((8, 8))
        vals[2, 2] = 4.0
        assert osc(ScalarField(grid, vals)) == pytest.approx(3.0)

    def test_grad_l2sq_converges_on_mode(self):
        # ||grad cos(pi x)||^2 over the unit square is pi^2 / 2
        errs = []
        for n in (32, 64):
            grid = GridSpec(L=1.0, n=n)
            errs.append(abs(grad_l2sq(cosine_mode(grid, 1, 0)) - math.pi ** 2 / 2))
        assert errs[1] < errs[0] / 3.5

    def test_grad_l1_cauchy_schwarz(self):
        u = rand_field(GridSpec(L=1.0, n=32), seed=3)
        assert grad_l1(u) <= math.sqrt(grad_l2sq(u) * u.grid.area) + 1e-12

    def test_grad4_vs_grad_l2sq_bound(self):
        u = rand_field(GridSpec(L=1.0, n=32), seed=4)
        gmax_sq = grad_l2sq(u) / u.grid.h ** 2  # crude sup bound on |grad|^2
        assert grad4(u) <= gmax_sq * grad_l2sq(u) + 1e-9

    def test_fisher_positive_and_scaling(self):
        u = rand_field(GridSpec(L=1.0, n=16), seed=9, lo=1.0, hi=2.0)
        f1 = fisher(u)
        assert f1 > 0
        scaled = ScalarField(u.grid, 2.0 * u.values)
        # int |grad(2u)|^2/(2u) = 2 int |grad u|^2/u
        assert fisher(scaled) == pytest.approx(2.0 * f1, rel=1e-12)

    def test_fisher_requires_positive(self):
        grid = GridSpec(L=1.0, n=8)
        vals = np.ones((8, 8))
        vals[0, 0] = 0.0
        with pytest.raises(HotspotError, match="^fisher functional requires u > 0 everywhere$"):
            fisher(ScalarField(grid, vals))

    def test_laplacian_l2sq_matches_symbol(self):
        grid = GridSpec(L=1.0, n=64)
        u = cosine_mode(grid, 2, 1)
        lam = dct_laplacian_symbol(grid, 2, 1)
        # mode has discrete L2 norm^2 = area/4
        assert laplacian_l2sq(u) == pytest.approx(lam ** 2 * grid.area / 4, rel=1e-10)


class TestHelmholtz:
    def test_eigenmode_solution(self):
        grid = GridSpec(L=1.0, n=32)
        d, lam, dt = 0.1, 1.0, 0.01
        u_exact = cosine_mode(grid, 3, 2)
        sym = dct_laplacian_symbol(grid, 3, 2)
        rhs = ScalarField(grid, (1.0 + dt * lam - dt * d * sym) * u_exact.values)
        u = helmholtz_solve(rhs, d, lam, dt)
        np.testing.assert_allclose(u.values, u_exact.values, rtol=1e-11, atol=1e-12)

    def test_residual_bound_on_random_rhs(self):
        rhs = rand_field(GridSpec(L=2.0, n=48), seed=11)
        u = helmholtz_solve(rhs, 0.05, 84.0, 0.002)
        applied = (1.0 + 0.002 * 84.0) * u.values - 0.002 * 0.05 * laplacian(u).values
        rel = np.linalg.norm(applied - rhs.values) / np.linalg.norm(rhs.values)
        assert rel <= HELMHOLTZ_TOL

    @pytest.mark.parametrize("n", [8, 9, 33, 64])
    @pytest.mark.parametrize("d, lam, dt", [(0.1, 1.0, 1e-3), (1.0, 84.0, 2e-4)])
    def test_checked_residual_matches_div_grad(self, n, d, lam, dt):
        # the workspace keeps the residual the solve checked, in slot 0
        rhs = rand_field(GridSpec(L=1.0, n=n), seed=n)
        u = helmholtz_solve(rhs, d, lam, dt)
        scale = np.linalg.norm(rhs.values)
        div_grad = (1.0 + dt * lam) * u.values - dt * d * laplacian(u).values
        rel_div_grad = np.linalg.norm(div_grad - rhs.values) / scale
        rel_checked = np.linalg.norm(_workspace(rhs.grid).residual[0]) / scale
        assert abs(rel_checked - rel_div_grad) <= 1e-14

    @pytest.mark.parametrize("cell", [(13, 5), (0, 7), (31, 0)],
                             ids=["interior", "edge", "corner"])
    def test_corrupted_cell_fails_the_residual_check(self, monkeypatch, cell):
        real = hotspotsim.grid._fft

        class CorruptedFFT:
            dctn = staticmethod(real.dctn)

            @staticmethod
            def idctn(x, *args, **kwargs):
                # one cell of the first slice of the solve's stack
                u = real.idctn(x, *args, **kwargs)
                u[(0, *cell)] += 1e-6
                return u

        monkeypatch.setattr(hotspotsim.grid, "_fft", CorruptedFFT)
        rhs = rand_field(GridSpec(L=1.0, n=32), seed=4)
        with pytest.raises(HotspotError, match=r"^Helmholtz residual \S+ exceeds 1e-10$"):
            helmholtz_solve(rhs, 0.1, 1.0, 1e-3)

    def test_zero_diffusion_reduces_to_scaling(self):
        rhs = rand_field(GridSpec(L=1.0, n=16), seed=2)
        u = helmholtz_solve(rhs, 0.0, 3.0, 0.5)
        np.testing.assert_allclose(u.values, rhs.values / 2.5, rtol=1e-12)

    def test_bad_arguments(self):
        rhs = rand_field(GridSpec(L=1.0, n=16))
        with pytest.raises(ValueError):
            helmholtz_solve(rhs, -1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            helmholtz_solve(rhs, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("d, lam, dt", [
        (math.inf, 1.0, 0.1), (1.0, math.inf, 0.1), (1.0, 1.0, math.inf),
        (math.nan, 1.0, 0.1), (1.0, math.nan, 0.1), (1.0, 1.0, math.nan),
    ])
    def test_non_finite_arguments(self, d, lam, dt):
        # an inf was a numpy RuntimeWarning, a NaN a residual of nan
        rhs = rand_field(GridSpec(L=1.0, n=16))
        with pytest.raises(ValueError, match=r"^need d >= 0, lam >= 0, dt > 0"):
            helmholtz_solve(rhs, d, lam, dt)

    @pytest.mark.parametrize("n", [8, 33, 64, 256, 512])
    @pytest.mark.parametrize("d, lam, dt", [(0.1, 1.0, 1e-3), (1.0, 84.0, 2e-4)])
    def test_padded_rows_give_the_contiguous_bits(self, n, d, lam, dt):
        # the solves transform in rows padded by _PAD floats, and their
        # denominators divide the pads too: one solve and a two-slice solve
        # give the bits of scipy.fft's solve on contiguous arrays
        grid = GridSpec(L=1.0, n=n)
        rhs = np.random.default_rng(n).uniform(0.5, 2.0, (2, n, n))
        ds, lams = (d, 0.3 * d), (lam, 2.0 * lam)
        s = (4.0 / grid.h ** 2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        want = []
        for r, d_s, lam_s in zip(rhs, ds, lams):
            denom = (s[:, None] + s[None, :]) * (dt * d_s)
            denom += 1.0 + dt * lam_s
            coeffs = scipy_fft.dctn(r, type=2, norm="ortho")
            coeffs /= denom
            want.append(scipy_fft.idctn(coeffs, type=2, norm="ortho"))
        one = helmholtz_solve(ScalarField(grid, rhs[0]), d, lam, dt)
        assert one.values.tobytes() == want[0].tobytes()
        two = grid_module._Stack(_workspace(grid), np.empty((2, n, n)))
        grid_module._helmholtz(two, rhs, ds, lams, dt)
        assert two.values.tobytes() == np.stack(want).tobytes()


def meshgrid_cosine_mode(grid, j, k, amplitude):
    """cosine_mode's samples as the formula on the cell_coords meshgrid."""
    x, y = grid.cell_coords()
    return amplitude * np.cos(j * np.pi * x / grid.L) * np.cos(k * np.pi * y / grid.L)


@st.composite
def cosine_modes(draw):
    n = draw(st.integers(8, 600))
    L = draw(st.floats(1e-3, 1e3))
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-12, 1e5))
    return GridSpec(L=L, n=n), j, k, amplitude


class TestCosineSampling:
    @given(mode=cosine_modes())
    @settings(max_examples=60, deadline=None)
    def test_cosine_mode_has_the_bits_of_the_meshgrid_formula(self, mode):
        # the outer product of the x and y factors takes each sample through
        # the same operations in the same order
        grid, j, k, amplitude = mode
        got = cosine_mode(grid, j, k, amplitude).values
        want = meshgrid_cosine_mode(grid, j, k, amplitude)
        assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        grid = GridSpec(L=1.0, n=32)
        a, ca = sample_cosine_field(42, 4, 0.02, grid)
        b, cb = sample_cosine_field(42, 4, 0.02, grid)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(ca, cb)

    def test_coefficients_reconstruct_field(self):
        grid = GridSpec(L=1.0, n=32)
        u, coeffs = sample_cosine_field(7, 3, 0.1, grid)
        acc = np.zeros((32, 32))
        for j in range(4):
            for k in range(4):
                acc += coeffs[j, k] * cosine_mode(grid, j, k).values
        np.testing.assert_allclose(u.values, acc, atol=1e-13)

    def test_unresolvable_mode_rejected(self):
        with pytest.raises(HotspotError, match="^max_mode=16 is not resolvable on n=32 cells$"):
            sample_cosine_field(0, 16, 0.1, GridSpec(L=1.0, n=32))

    def test_spectral_hessian_identity(self):
        # ||u_xx||^2 + ||u_yy||^2 + 2||u_xy||^2 == ||Lap u||^2, exactly in mode sums
        _, coeffs = sample_cosine_field(3, 5, 1.0, GridSpec(L=1.0, n=64))
        norms = spectral_hessian_norms(coeffs, 1.0)
        lhs = norms["uxx"] + norms["uyy"] + 2.0 * norms["uxy"]
        assert lhs == pytest.approx(norms["laplacian"], rel=1e-13)

    def test_spectral_laplacian_matches_grid_refinement(self):
        coeffs = np.zeros((3, 3))
        coeffs[2, 1] = 1.0
        exact = spectral_hessian_norms(coeffs, 1.0)["laplacian"]
        grid = GridSpec(L=1.0, n=256)
        u = cosine_mode(grid, 2, 1)
        assert laplacian_l2sq(u) == pytest.approx(exact, rel=1e-3)


class TestFieldIO:
    def test_round_trip_exact(self, tmp_path):
        u = rand_field(GridSpec(L=1.5, n=16), seed=8)
        path = tmp_path / "u.field"
        write_field(path, u)
        v = read_field(path)
        assert v.grid == u.grid
        np.testing.assert_array_equal(v.values, u.values)

    def test_header_line(self, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8))
        path = tmp_path / "u.field"
        write_field(path, u)
        first = path.read_text().splitlines()[0]
        assert first.startswith("hotspotfield v1 ")
        assert "n=8" in first

    def test_headerless_csv_fallback(self, tmp_path):
        grid = GridSpec(L=1.0, n=8)
        vals = np.arange(64, dtype=float).reshape(8, 8)
        path = tmp_path / "u.csv"
        lines = [",".join(repr(float(vals[i, j])) for i in range(8)) for j in range(8)]
        path.write_text("\n".join(lines) + "\n")
        v = read_field(path, grid)
        np.testing.assert_array_equal(v.values, vals)

    def test_headerless_requires_grid(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            read_field(path)

    def test_grid_mismatch_detected(self, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8))
        path = tmp_path / "u.field"
        write_field(path, u)
        with pytest.raises(HotspotError, match=r"u\.field: file grid \(L=1\.0, n=8\) "
                                               "does not match expected grid$"):
            read_field(path, GridSpec(L=1.0, n=16))

    def test_huge_header_n_fails_at_the_end_of_the_file(self, tmp_path):
        # rows are read only while the file has them: a two-line file whose
        # header claims 2e7 rows fails at once, with the per-row message
        path = tmp_path / "u.field"
        path.write_text("hotspotfield v1 L=1.0 n=20000000\n1.0 2.0 3.0\n")
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            read_field(path)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"{path}: row 1 has 3 values, expected 20000000"

    @pytest.mark.parametrize("n", [32, 128])  # row by row, and through orjson
    def test_byte_that_is_not_utf8_names_the_file_and_row(self, tmp_path, n):
        path = tmp_path / "u.field"
        write_field(path, rand_field(GridSpec(L=1.0, n=n)))
        lines = path.read_bytes().split(b"\n")
        lines[6] = lines[6][:4] + b"\xff" + lines[6][4:]  # row 6, after the header
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as info:
            read_field(path)
        assert str(info.value) == f"{path}: row 6: byte 0xff is not UTF-8"

    def test_undecodable_lines_after_the_rows_are_ignored(self, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8))
        path = tmp_path / "u.field"
        write_field(path, u)
        with open(path, "ab") as fh:
            fh.write(b"trailing \xff\xfe bytes\n")
        np.testing.assert_array_equal(read_field(path).values, u.values)


def repr_field_bytes(u: ScalarField) -> bytes:
    """The reference .field writer: every value through repr."""
    g = u.grid
    lines = [f"hotspotfield v1 L={g.L!r} n={g.n}"]
    lines += [" ".join(repr(float(v)) for v in u.values[:, j]) for j in range(g.n)]
    return ("\n".join(lines) + "\n").encode()


def _around(x: float, steps: int = 3) -> list[float]:
    """x and its `steps` nearest doubles on each side."""
    below, above, out = x, x, [x]
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


# where repr and orjson print different exponent forms, and the specials
EDGE_VALUES = [
    v * sign
    for v in _around(1e-4) + _around(1e16) + [
        0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1e-300, 1e-5, 1e-7, 1e21, 1e300, 1.7976931348623157e308,
    ]
    for sign in (1.0, -1.0)
]

positional_values = (
    st.floats(1e-4, 1e16, exclude_max=True)
    | st.floats(-1e16, -1e-4, exclude_min=True)
    | st.sampled_from([0.0, -0.0])
)
bit_pattern_values = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(math.isfinite)
any_values = positional_values | bit_pattern_values | st.sampled_from(EDGE_VALUES)


def bit_patterns(rng, size):
    """Uniform random bit patterns as doubles; a non-finite one becomes 0."""
    x = np.frombuffer(rng.bytes(8 * size), dtype=np.float64).copy()
    x[~np.isfinite(x)] = 0.0
    return x


def positional_mix(rng, size):
    """Half field-like values in [0.5, 2), half of either sign spread over
    the positional range 1e-4 <= |v| < 1e16."""
    spread = 10.0 ** rng.uniform(-4.0, 16.0, size) * rng.choice([-1.0, 1.0], size)
    return np.where(rng.random(size) < 0.5, rng.uniform(0.5, 2.0, size), spread)


@st.composite
def fields(draw, bulk, values):
    """A field of `bulk(rng, n * n)` values, seeded by hypothesis, with up to
    eight cells set to values drawn from `values`."""
    n = draw(st.sampled_from([8, 9, 16]))
    vals = bulk(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n * n)
    cells = st.tuples(st.integers(0, n * n - 1), values)
    for k, v in draw(st.lists(cells, max_size=8)):
        vals[k] = v
    return ScalarField(GridSpec(L=1.0, n=n), vals.reshape(n, n))


@pytest.fixture(scope="module")
def field_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fields") / "u.field"


@pytest.fixture
def fresh_dumps():
    """The serializer is chosen again on the next write, and after the test."""
    grid_module._numpy_dumps.cache_clear()
    yield
    grid_module._numpy_dumps.cache_clear()


def _wrong_digits(obj, option=None):
    return orjson.dumps(obj, option=option).replace(b"0.1", b"0.10")


def _raises(obj, option=None):
    raise TypeError("Type is not JSON serializable: numpy.ndarray")


class TestFieldBytes:
    """write_field against the repr writer: orjson formats every row that
    holds only positional values, repr the rest."""

    def test_orjson_is_used(self):
        assert grid_module._numpy_dumps() is not None

    @given(u=fields(bit_patterns, bit_pattern_values))
    @settings(max_examples=100, deadline=None)
    def test_random_bit_patterns(self, u, field_path):
        write_field(field_path, u)
        assert field_path.read_bytes() == repr_field_bytes(u)

    @given(u=fields(positional_mix, positional_values))
    @settings(max_examples=100, deadline=None)
    def test_positional_values(self, u, field_path):
        write_field(field_path, u)
        assert field_path.read_bytes() == repr_field_bytes(u)

    @given(u=fields(positional_mix, any_values))
    @settings(max_examples=100, deadline=None)
    def test_rows_mixing_positional_and_exponent_tokens(self, u, field_path):
        write_field(field_path, u)
        assert field_path.read_bytes() == repr_field_bytes(u)

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_edge_value(self, value, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8), seed=3)
        u.values[2, 5] = value  # row 5: one edge value among positional ones
        u.values[:, 7] = value  # row 7: edge values only
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)

    @pytest.mark.parametrize("where", ["first-and-last", "every"])
    def test_rows_printed_by_repr(self, where, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8), seed=7)
        if where == "every":
            u.values[0, :] = 1e-5  # the first value of every row
        else:
            u.values[3, 0] = -1e-7  # one exponent token in the first row
            u.values[:, 7] = 1e20  # the last row: exponent tokens only
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)

    @pytest.mark.parametrize("repr_row", [False, True], ids=["positional", "with-repr-row"])
    def test_signed_zeros(self, repr_row, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8), seed=8)
        u.values[:, 0] = -0.0
        u.values[:, 3] = 0.0
        u.values[::2, 5] = -0.0
        u.values[1::2, 5] = 0.0
        u.values[7, 6] = -0.0
        if repr_row:
            u.values[4, 5] = 5e-324  # row 5 then goes through repr
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)

    def test_positional_field_of_n_256(self, tmp_path):
        rng = np.random.default_rng(9)
        u = ScalarField(GridSpec(L=1.0, n=256), positional_mix(rng, 256 * 256).reshape(256, 256))
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)

    def test_positional_rows_never_reach_repr(self, monkeypatch, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=16), seed=10)
        u.values[:, 4] = 0.0
        u.values[2, :] = 1e-4  # the smallest value orjson prints as repr does
        u.values[5, :] = -9999999999999998.0  # and the largest below 1e16
        expected = repr_field_bytes(u)
        grid_module._numpy_dumps()  # its known-answer check calls _repr_line

        def no_repr(row):
            raise AssertionError("a positional row was formatted by repr")

        monkeypatch.setattr(grid_module, "_repr_line", no_repr)
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_values_replaced_by_another_dtype(self, dtype, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8), seed=5)
        u.values = (u.values * 10).astype(dtype)  # bypasses the constructor
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)

    @given(u=fields(bit_patterns, any_values) | fields(positional_mix, any_values))
    @settings(max_examples=100, deadline=None)
    def test_read_returns_the_written_field_bitwise(self, u, field_path):
        write_field(field_path, u)
        assert read_field(field_path).values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize(
        "stand_in",
        [
            None,
            SimpleNamespace(dumps=_wrong_digits, OPT_SERIALIZE_NUMPY=0),
            SimpleNamespace(dumps=_raises, OPT_SERIALIZE_NUMPY=0),
            SimpleNamespace(dumps=_raises),
        ],
        ids=["not-importable", "wrong-digits", "raises", "no-numpy-option"],
    )
    def test_falls_back_to_repr(self, monkeypatch, fresh_dumps, tmp_path, stand_in):
        monkeypatch.setitem(sys.modules, "orjson", stand_in)
        assert grid_module._numpy_dumps() is None
        u = rand_field(GridSpec(L=1.0, n=9), seed=4)
        u.values[3, 4] = 1e-5
        u.values[0, 0] = 0.1  # printed wrong by the wrong-digits stand-in
        path = tmp_path / "u.field"
        write_field(path, u)
        assert path.read_bytes() == repr_field_bytes(u)


def per_row_read(path, grid: GridSpec | None = None) -> ScalarField:
    """The reference .field reader: each of the n rows parsed on its own by
    np.array(line.split(sep), dtype=float), with read_field's messages."""
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("hotspotfield v1"):
            tokens = dict(t.partition("=")[::2] for t in first.split()[2:])
            grid = GridSpec(float(tokens["L"]), int(tokens["n"]))
            sep, lines = None, []
        else:
            sep, lines = ("," if "," in first else None), [first]
        lines += [fh.readline() for _ in range(grid.n - len(lines))]
    rows = []
    for j, line in enumerate(lines):
        if not line:
            raise ValueError(f"{path}: file ends after {j} of {grid.n} rows")
        try:
            row = np.array(line.split(sep), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: row {j + 1}: {exc}") from None
        if row.shape != (grid.n,):
            raise ValueError(f"{path}: row {j + 1} has {row.size} values, expected {grid.n}")
        rows.append(row)
    try:
        return ScalarField(grid, np.vstack(rows).T.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_outcome(reader, path, grid=None):
    """The bytes of the values a reader returns, or the text of its error."""
    try:
        return reader(path, grid).values.tobytes()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def field_text(u: ScalarField, fmt=repr) -> str:
    lines = [f"hotspotfield v1 L={u.grid.L!r} n={u.grid.n}"]
    lines += [" ".join(fmt(float(v)) for v in row) for row in u.values.T]
    return "\n".join(lines) + "\n"


def percent_17g(v: float) -> str:
    return f"{v:.17g}"


@pytest.fixture
def fast_rows(monkeypatch):
    """The results of read_field's orjson path, in order; None where it
    declined the file."""
    taken, parse = [], grid_module._json_rows

    def spy(*args):
        taken.append(parse(*args))
        return taken[-1]

    monkeypatch.setattr(grid_module, "_json_rows", spy)
    return taken


@pytest.fixture
def fresh_loads():
    """The parser is chosen again on the next read, and after the test."""
    grid_module._json_loads.cache_clear()
    yield
    grid_module._json_loads.cache_clear()


def _wrong_values(doc):
    return orjson.loads(doc.replace(b"7", b"8"))


def _raises_on_parse(doc):
    raise ValueError("unexpected character: line 1 column 2 (char 1)")


# tokens float() and JSON read alike, differently or not at all
ODD_TOKENS = [
    "-0", "-0.0", "0", "-0e5", "-1e-400", "1e-400", "2.4703282292062328e-324",
    "9007199254740993", "18446744073709551615", "18446744073709551617",
    "-9223372036854775809", "123456789012345678901234567890", "1E+16", "1e-5",
    "1e400", "-1e400", "nan", "inf", "-inf", "+1.0", ".5", "5.", "00.5", "1_0",
    "true", "null", "[1.0]", '"1.0"', "0x10", "1.0.0", "--1", "1e", "e5",
]


@pytest.mark.parametrize("n, taken", [(127, []), (128, [True])])
def test_orjson_parses_from_n_128_up(n, taken, fast_rows, tmp_path):
    # below n=128, importing orjson would cost more than it saves
    u = rand_field(GridSpec(L=1.0, n=n), seed=12)
    path = tmp_path / "u.field"
    write_field(path, u)
    assert read_field(path).values.tobytes() == u.values.tobytes()
    assert [rows is not None for rows in fast_rows] == taken


class TestFieldParse:
    """read_field against the per-row reader: the same values bitwise, or
    the same error text, whether or not orjson parsed the file."""

    @pytest.fixture(autouse=True)
    def small_files_too(self, monkeypatch):
        """orjson parses files of every n, not only from n=128 up."""
        monkeypatch.setattr(grid_module, "_JSON_MIN_N", 8)

    def test_orjson_is_used(self):
        assert grid_module._json_loads() is not None

    @given(u=fields(bit_patterns, any_values), fmt=st.sampled_from([repr, percent_17g]))
    @settings(max_examples=100, deadline=None)
    def test_random_bit_patterns(self, u, fmt, field_path):
        field_path.write_text(field_text(u, fmt))
        assert read_field(field_path).values.tobytes() == u.values.tobytes()
        assert read_outcome(per_row_read, field_path) == u.values.tobytes()

    @given(u=fields(positional_mix, any_values), fmt=st.sampled_from([repr, percent_17g]))
    @settings(max_examples=100, deadline=None)
    def test_rows_mixing_positional_and_exponent_tokens(self, u, fmt, field_path):
        field_path.write_text(field_text(u, fmt))
        assert read_field(field_path).values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("csv", [False, True], ids=["spaces", "csv"])
    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_odd_token(self, token, csv, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=8), seed=6)
        rows = [[repr(float(v)) for v in row] for row in u.values.T]
        rows[2][3] = token  # among positional values
        rows[5] = [token] * 8  # a whole row
        path = tmp_path / "u.csv"
        path.write_text("".join((", " if csv else " ").join(r) + "\n" for r in rows))
        expected = read_outcome(per_row_read, path, u.grid)
        assert read_outcome(read_field, path, u.grid) == expected

    @pytest.mark.parametrize("token", ["-0", "-0.0", "-0e5", "-1e-400"])
    def test_negative_zero_keeps_its_sign(self, token, tmp_path):
        path = tmp_path / "u.field"
        rest = " ".join(["0", "-0.5"] * 4) + "\n"
        path.write_text(f"hotspotfield v1 L=1.0 n=8\n{token}" + " 0.5" * 7 + "\n" + rest * 7)
        v = read_field(path)
        assert np.signbit(v.values[0, 0])
        assert v.values.tobytes() == per_row_read(path).values.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace(" ", "\t"),
        lambda t: t.replace(" ", "  "),
        lambda t: t.replace("\n", " \n"),
        lambda t: t.replace("\n", "\n "),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t.rstrip("\n"),
        lambda t: t + "\n",
        lambda t: t + "1.0 2.0\nnot a row\n",
        lambda t: t.replace(" ", "\u00a0"),
        lambda t: t.replace(" ", "\x0c", 5),
        lambda t: t.replace("\n", "\n\n", 3),
        lambda t: t.replace(" ", ",", 9),
        lambda t: "\n".join(t.split("\n")[:5]),
        lambda t: t.replace("5", "5 ", 1),
    ], ids=["tabs", "double-spaces", "trailing-spaces", "leading-spaces", "crlf",
            "cr", "no-final-newline", "blank-line-after-row-n", "lines-after-row-n",
            "no-break-spaces", "form-feeds", "blank-lines-inside", "commas",
            "cut-off", "split-value"])
    def test_layout(self, edit, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=9), seed=7)
        header, body = field_text(u).split("\n", 1)
        path = tmp_path / "u.field"
        path.write_bytes(f"{header}\n{edit(body)}".encode())
        assert read_outcome(read_field, path) == read_outcome(per_row_read, path)

    @pytest.mark.parametrize("sep", [",", ", ", " ,", ",\t", ",,", " "])
    @pytest.mark.parametrize("tail", ["\n", "", ",\n", "\n\n", "\nx,y\n"])
    def test_headerless_csv(self, sep, tail, tmp_path):
        grid = GridSpec(L=1.0, n=8)
        u = rand_field(grid, seed=9)
        path = tmp_path / "u.csv"
        rows = [sep.join(repr(float(v)) for v in row) for row in u.values.T]
        path.write_text("\n".join(rows) + tail)
        assert read_outcome(read_field, path, grid) == read_outcome(per_row_read, path, grid)

    @pytest.mark.parametrize("text", [
        "hotspotfield v1 L=1.0 n=8\n" + "1.0 " * 7 + "1.0\n",
        "hotspotfield v1 L=1.0 n=8\n" + ("1.0 " * 7 + "1.0\n") * 5 + "1.0 2.0\n",
        "hotspotfield v1 L=1.0 n=8\n" + "1.0 " * 7 + "1.0\nx" + ("1.0 " * 7 + "1.0\n") * 7,
        "hotspotfield v1 L=1.0 n=8\n" + ("1.0 " * 8 + "1.0\n") * 8,
        "hotspotfield v1 L=1.0 n=8\n" + ("1.0 " * 7 + "1e400\n") * 8,
        "hotspotfield v1 L=1.0 n=8\n",
        "",
    ], ids=["cut-off", "short-row", "bad-value", "long-rows", "overflow", "no-rows",
            "empty"])
    def test_malformed_file(self, text, tmp_path):
        path = tmp_path / "u.field"
        path.write_text(text)
        grid = GridSpec(L=1.0, n=8)
        assert read_outcome(read_field, path, grid) == read_outcome(per_row_read, path, grid)

    def test_fast_path_is_taken_on_a_written_field(self, fast_rows, tmp_path):
        u = rand_field(GridSpec(L=1.0, n=16), seed=10)
        u.values[3, 4] = 1e-5  # a row with an exponent token
        path = tmp_path / "u.field"
        write_field(path, u)
        assert read_field(path).values.tobytes() == u.values.tobytes()
        assert len(fast_rows) == 1 and fast_rows[0] is not None

    @pytest.mark.parametrize("fmt", [repr, percent_17g])
    def test_fast_path_is_taken_on_random_bit_patterns(self, fmt, fast_rows, tmp_path):
        vals = bit_patterns(np.random.default_rng(11), 32 * 32).reshape(32, 32)
        vals[vals == 0.0] = 0.5  # a zero next to `-0` text (e-05) goes row by row
        u = ScalarField(GridSpec(L=1.0, n=32), vals)
        path = tmp_path / "u.field"
        path.write_text(field_text(u, fmt))
        assert read_field(path).values.tobytes() == vals.tobytes()
        assert fast_rows[0] is not None

    @pytest.mark.parametrize(
        "stand_in",
        [
            None,
            SimpleNamespace(loads=_wrong_values),
            SimpleNamespace(loads=_raises_on_parse),
            SimpleNamespace(),
        ],
        ids=["not-importable", "wrong-values", "raises", "no-loads"],
    )
    def test_falls_back_to_the_per_row_parse(self, monkeypatch, fresh_loads, tmp_path,
                                             stand_in):
        monkeypatch.setitem(sys.modules, "orjson", stand_in)
        assert grid_module._json_loads() is None
        u = rand_field(GridSpec(L=1.0, n=9), seed=4)
        u.values[3, 4] = 7.0  # parsed wrong by the wrong-values stand-in
        path = tmp_path / "u.field"
        write_field(path, u)
        assert read_field(path).values.tobytes() == u.values.tobytes()
        path.write_text(field_text(u).replace("7.0", "7.0x"))
        assert read_outcome(read_field, path) == read_outcome(per_row_read, path)


class TestFunctionalSymmetry:
    def test_functionals_invariant_under_transpose(self):
        grid = GridSpec(L=1.0, n=24)
        u = rand_field(grid, seed=11)
        ut = ScalarField(grid, u.values.T.copy())
        for f in (integral, mean, grad_l1, grad_l2sq, grad4, osc, fisher,
                  laplacian_l2sq):
            assert f(ut) == pytest.approx(f(u), rel=1e-13, abs=1e-13)
        assert lp_norm(ut, 3.0) == pytest.approx(lp_norm(u, 3.0), rel=1e-13)


class TestOperatorConvergence:
    def test_grad4_closed_form_single_mode(self):
        # integral of |grad cos(pi x)|^4 over the unit square is 3 pi^4 / 8
        u = cosine_mode(GridSpec(L=1.0, n=256), 1, 0)
        assert grad4(u) == pytest.approx(3.0 * math.pi ** 4 / 8.0, rel=1e-2)

    def test_laplacian_second_order(self):
        def l2_error(n):
            grid = GridSpec(L=1.0, n=n)
            x, y = grid.cell_coords()
            u = ScalarField(grid, np.cos(np.pi * x) * np.cos(2.0 * np.pi * y))
            exact = -5.0 * math.pi ** 2 * u.values
            diff = laplacian(u).values - exact
            return math.sqrt(np.sum(diff ** 2) * grid.h ** 2)

        order = math.log2(l2_error(64) / l2_error(128))
        assert order >= 1.9


class TestCosineSamplingExtras:
    def test_max_mode_zero_is_constant(self):
        u, coeffs = sample_cosine_field(3, 0, 0.5, GridSpec(L=1.0, n=16))
        assert coeffs.shape == (1, 1)
        np.testing.assert_allclose(u.values, coeffs[0, 0], rtol=0, atol=1e-15)

    def test_mean_equals_dc_coefficient(self):
        u, coeffs = sample_cosine_field(1, 4, 1.0, GridSpec(L=1.0, n=64))
        assert abs(mean(u) - coeffs[0, 0]) <= 1e-12


class TestHelmholtzConstantInput:
    def test_constant_rhs_with_diffusion(self):
        grid = GridSpec(L=1.0, n=16)
        rhs = ScalarField(grid, np.full((16, 16), 3.7))
        u = helmholtz_solve(rhs, d=0.2, lam=5.0, dt=0.01)
        np.testing.assert_allclose(u.values, 3.7 / (1.0 + 0.01 * 5.0), rtol=1e-13)


_SOLVES = [(0.1, 1.0, 1e-3), (1.0, 84.0, 2e-3), (0.05, 0.0, 0.5)]

_FRESH_PROCESS_SOLVES = """
import json
import sys
import numpy as np
from hotspotsim.grid import GridSpec, ScalarField, helmholtz_solve
out, n, solves = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
rng = np.random.default_rng(n)
rhs = ScalarField(GridSpec(L=1.0, n=n), rng.uniform(0.5, 2.0, (n, n)))
np.save(out, np.stack([helmholtz_solve(rhs, *s).values for s in solves]))
"""


class TestHelmholtzWorkspace:
    def test_second_solve_leaves_first_result_unchanged(self):
        grid = GridSpec(L=1.0, n=24)
        u1 = helmholtz_solve(rand_field(grid, seed=1), 0.1, 1.0, 1e-2)
        lap1 = laplacian(u1)
        kept_u, kept_lap = u1.values.copy(), lap1.values.copy()
        u2 = helmholtz_solve(rand_field(grid, seed=2), 1.0, 84.0, 1e-3)
        lap2 = laplacian(u2)
        np.testing.assert_array_equal(u1.values, kept_u)
        np.testing.assert_array_equal(lap1.values, kept_lap)
        assert not np.shares_memory(u1.values, u2.values)
        assert not np.shares_memory(lap1.values, lap2.values)

    def test_interleaved_grids_match_a_fresh_process(self, tmp_path):
        sizes = (16, 24)
        rhs = {}
        for n in sizes:
            rng = np.random.default_rng(n)
            rhs[n] = ScalarField(GridSpec(L=1.0, n=n), rng.uniform(0.5, 2.0, (n, n)))
        got = {n: [] for n in sizes}
        for s in _SOLVES:
            for n in sizes:
                got[n].append(helmholtz_solve(rhs[n], *s).values)

        src = str(Path(hotspotsim.__file__).resolve().parent.parent)
        for n in sizes:
            out = tmp_path / f"u{n}.npy"
            subprocess.run(
                [sys.executable, "-c", _FRESH_PROCESS_SOLVES, str(out), str(n),
                 json.dumps(_SOLVES)],
                check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
            assert np.stack(got[n]).tobytes() == np.load(out).tobytes()

    def test_workspace_holds_eleven_fields(self):
        # the symbol, two face families and three (2, n, n) stacks: a cache
        # that added a buffer would show here
        n = 64
        ws = grid_module._Workspace(GridSpec(L=1.0, n=n))
        arrays = [
            x for owner in (ws, ws.velocity, ws.flux) for x in vars(owner).values()
            if isinstance(x, np.ndarray)
        ]
        owners = {}
        for x in arrays:
            while x.base is not None:
                x = x.base
            owners[id(x)] = x
        total = sum(x.nbytes for x in owners.values())
        assert total // (n * n * 8) == 11

    def test_workspace_cache_stays_bounded(self):
        for n in range(8, 24):
            helmholtz_solve(rand_field(GridSpec(L=1.0, n=n)), 0.1, 1.0, 1e-2)
        info = _workspace.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize <= 8


def _dct_with_old_signature(x, type, axes=None, inorm=0, out=None, nthreads=1):
    return np.zeros_like(x)


def _load_fails(path):
    raise ImportError(f"cannot load {path}")


class TestDctPair:
    """The DCT pair loaded from scipy's pocketfft extension against
    scipy.fft, which makes the same call."""

    def test_the_extension_is_loaded(self):
        assert isinstance(grid_module._fft, grid_module._PocketDCT)
        assert isinstance(grid_module._load_dct(), grid_module._PocketDCT)

    @pytest.mark.parametrize("n", [8, 9, 64])
    @pytest.mark.parametrize("overwrite_x", [False, True])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bitwise_equal_to_scipy(self, n, overwrite_x, transposed):
        base = np.random.default_rng(n).standard_normal((n, n))
        view = (lambda a: a.T) if transposed else (lambda a: a)
        ours, theirs = view(base.copy()), view(base.copy())
        got = grid_module._fft.dctn(ours, type=2, norm="ortho", overwrite_x=overwrite_x)
        want = scipy_fft.dctn(theirs, type=2, norm="ortho", overwrite_x=overwrite_x)
        assert got.tobytes() == want.tobytes()
        assert ours.tobytes() == theirs.tobytes()
        if not overwrite_x:
            assert ours.tobytes() == view(base).tobytes()
        back = grid_module._fft.idctn(got, type=2, norm="ortho", overwrite_x=overwrite_x)
        back_want = scipy_fft.idctn(want, type=2, norm="ortho", overwrite_x=overwrite_x)
        assert back.tobytes() == back_want.tobytes()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 33, 64])
    @pytest.mark.parametrize("overwrite_x", [False, True])
    def test_stack_bitwise_equal_to_scipy(self, n, overwrite_x):
        # the Helmholtz solves transform a (2, n, n) stack over its last axes
        base = np.random.default_rng(n).standard_normal((2, n, n))
        ours, theirs = base.copy(), base.copy()
        kw = dict(type=2, norm="ortho", overwrite_x=overwrite_x, axes=(1, 2))
        got = grid_module._fft.dctn(ours, **kw)
        want = scipy_fft.dctn(theirs, **kw)
        assert got.tobytes() == want.tobytes()
        each = np.stack([scipy_fft.dctn(b, type=2, norm="ortho") for b in base])
        assert got.tobytes() == each.tobytes()
        assert got is ours if overwrite_x else ours.tobytes() == base.tobytes()
        back = grid_module._fft.idctn(got, **kw)
        back_want = scipy_fft.idctn(want, **kw)
        assert back.tobytes() == back_want.tobytes()
        each = np.stack([scipy_fft.idctn(c, type=2, norm="ortho") for c in each])
        assert back.tobytes() == each.tobytes()

    def test_only_the_orthonormal_type_2_pair(self):
        x = np.ones((8, 8))
        with pytest.raises(ValueError):
            grid_module._fft.dctn(x, type=3, norm="ortho")
        with pytest.raises(ValueError):
            grid_module._fft.idctn(x, type=2, norm="backward")

    @pytest.mark.parametrize(
        "attr, stand_in",
        [
            ("_pocketfft_path", lambda: None),
            ("_load_pocketfft_dct", lambda path: lambda x, *args: np.zeros_like(x)),
            ("_load_pocketfft_dct", lambda path: _dct_with_old_signature),
            ("_load_pocketfft_dct", _load_fails),
        ],
        ids=["not-found", "wrong-values", "wrong-signature", "load-fails"],
    )
    def test_falls_back_to_scipy_fft(self, monkeypatch, attr, stand_in):
        monkeypatch.setattr(grid_module, attr, stand_in)
        fft = grid_module._load_dct()
        assert fft is scipy_fft
        x = np.random.default_rng(9).standard_normal((9, 9))
        got = fft.dctn(x, type=2, norm="ortho")
        assert got.tobytes() == grid_module._fft.dctn(x, type=2, norm="ortho").tobytes()
        back = fft.idctn(got, type=2, norm="ortho")
        assert back.tobytes() == grid_module._fft.idctn(got, type=2, norm="ortho").tobytes()
