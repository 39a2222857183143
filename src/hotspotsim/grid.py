"""Uniform cell-centered square grid: fields, Neumann operators, functionals,
implicit Helmholtz solves and Neumann-compatible cosine test fields.

All fields live at cell centers ((i+1/2)h, (j+1/2)h) of an n x n grid on
(0,L)^2, indexed values[i, j] with i along x and j along y.  No-flux boundary
conditions are realized by mirror ghost cells, which makes boundary-normal
gradient faces exactly zero and constants exact steady states of every
operator in this module.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import operator
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np


class HotspotError(Exception):
    """Every failure this package names, its message saying which; the one
    subclass, solver.StepRejected, marks a failure a smaller step may cure."""


HELMHOLTZ_TOL = 1e-10
_TINY = np.finfo(float).tiny  # the residual check's floor under ||rhs||
_PAD = 8  # floats, one 64-byte cache line, added to each row of the transforms


# ---------------------------------------------------------------------------
# The orthonormal DCT pair
# ---------------------------------------------------------------------------
#
# The Helmholtz solves need only the orthonormal 2-D DCT-II and its inverse.
# They come from scipy's own pocketfft extension, loaded by file path:
# importing scipy.fft would also load scipy.special and scipy's array-API
# layer, which is most of a process's start-up.  Checked against scipy
# 1.17.1, where scipy.fft.dctn/idctn(type=2, norm="ortho") on a float64
# array make the same extension call, so the results are bitwise equal.
# scipy.fft is the fallback when the file is missing, fails to load or
# fails the known-answer check.

def _pocketfft_path() -> str | None:
    """Path of scipy's pocketfft extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_pocketfft_dct(path: str):
    """The extension's `dct` function; the module is not put in sys.modules."""
    spec = importlib.util.spec_from_file_location("scipy.fft._pocketfft.pypocketfft", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dct


class _PocketDCT:
    """`dctn`/`idctn` with scipy.fft's keywords, for the orthonormal type-2
    pair over `axes` (all by default).  `dct(x, type, axes, inorm, out,
    nthreads, orthogonalize)`: inorm=1 is "ortho", out=x is in place."""

    def __init__(self, dct):
        self._dct = dct

    def dctn(self, x, type=2, norm="ortho", overwrite_x=False, axes=None):
        return self._transform(x, 2, type, norm, overwrite_x, axes)

    def idctn(self, x, type=2, norm="ortho", overwrite_x=False, axes=None):
        return self._transform(x, 3, type, norm, overwrite_x, axes)

    def _transform(self, x, kind, type, norm, overwrite_x, axes):
        if type != 2 or norm != "ortho":
            raise ValueError("only the orthonormal type-2 DCT pair is available")
        out = x if overwrite_x else None
        return self._dct(x, kind, tuple(axes or range(x.ndim)), 1, out, 1, True)


def _passes_known_answer(fft) -> bool:
    """On n=8, 1 + cos(3 pi x) cos(5 pi y) at cell centers has the two
    orthonormal DCT-II coefficients n at (0, 0) and n/2 at (3, 5), and the
    inverse maps those back to it, both to 1e-12."""
    n = 8
    c = (np.arange(n) + 0.5) / n
    x = 1.0 + np.outer(np.cos(3 * np.pi * c), np.cos(5 * np.pi * c))
    expected = np.zeros((n, n))
    expected[0, 0], expected[3, 5] = n, n / 2
    coeffs = fft.dctn(x, type=2, norm="ortho")
    if not np.allclose(coeffs, expected, rtol=0, atol=1e-12):
        return False
    return np.allclose(fft.idctn(expected, type=2, norm="ortho"), x, rtol=0, atol=1e-12)


def _load_dct():
    """The DCT pair of the Helmholtz solves: scipy's pocketfft extension
    when it loads and passes the known-answer check, else scipy.fft."""
    path = _pocketfft_path()
    if path is not None:
        try:
            fft = _PocketDCT(_load_pocketfft_dct(path))
            if _passes_known_answer(fft):
                return fft
        except (ImportError, AttributeError, TypeError, ValueError, RuntimeError):
            pass
    from scipy import fft

    return fft


_fft = _load_dct()


@dataclass(frozen=True)
class GridSpec:
    """Square domain (0,L)^2 split into n x n cells; h is derived, never stored."""

    L: float
    n: int

    def __post_init__(self):
        if not (self.L > 0):
            raise ValueError(f"side length must be positive, got L={self.L}")
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError(f"cell count must be an integer, got n={self.n!r}") from None
        if self.n < 8:
            raise ValueError(f"need at least 8 cells per side, got n={self.n}")
        if not (self.h * self.h > 0 and self.area < math.inf):
            raise ValueError(f"cell area L^2/n^2 underflows or L^2 overflows at L={self.L}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def area(self) -> float:
        return self.L * self.L

    def cell_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (x, y) of cell-center coordinates, shape (n, n)."""
        c = (np.arange(self.n) + 0.5) * self.h
        return np.meshgrid(c, c, indexing="ij")


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):  # the float cast would drop the imaginary part
            raise ValueError(f"field values must be real, got {np.asarray(self.values).dtype}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    @classmethod
    def _checked(cls, grid: GridSpec, values: np.ndarray) -> "ScalarField":
        """A field of finite (n, n) `values`, unvalidated."""
        field = object.__new__(cls)
        field.grid, field.values = grid, values
        return field


@dataclass
class VectorField:
    """Face-staggered vector field: fx on x-normal faces (n+1, n), fy on
    y-normal faces (n, n+1).  Boundary-normal components must vanish."""

    grid: GridSpec
    fx: np.ndarray
    fy: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.fx = np.asarray(self.fx, dtype=float)
        self.fy = np.asarray(self.fy, dtype=float)
        if self.fx.shape != (n + 1, n) or self.fy.shape != (n, n + 1):
            raise ValueError("staggered component shapes do not match grid")
        # any() is true for a float that is != 0.0, NaN included, and
        # builds no temporary
        fx, fy = self.fx, self.fy
        if fx[0].any() or fx[-1].any() or fy[:, 0].any() or fy[:, -1].any():
            raise ValueError("boundary-normal face components must be zero (no-flux)")


class _Faces:
    """A face field in the workspace layout: fx on x-normal faces (n+1, n),
    as in VectorField, and the y-normal faces flat in an (n, n) fy, where
    fy[i, j] is the face between cells (i, j) and (i, j+1) and the last
    column is the zero boundary face at y = L.  Read in C order, fy pairs
    each cell with the next one (_y_pairs), so a y-direction mean,
    difference or product over all faces is one contiguous call over the
    flattened cells into _y_faces(fy); close() then sets back to zero the
    faces where that order wraps to the next row.  fy follows one zero,
    the boundary face at y = 0 of cell (0, 0), so fy_prev, the face before
    each in C order, is the zero boundary face of the row before at j = 0.
    The arrays are workspace buffers (see _Workspace)."""

    def __init__(self, grid: GridSpec):
        n = grid.n
        self.grid = grid
        # both families in one buffer, so max_abs takes two reductions
        self._all = np.zeros((n + 1) * n + n * n + 1)
        self.fx = self._all[: (n + 1) * n].reshape(n + 1, n)
        flat = self._all[(n + 1) * n :]
        self.fy, self.fy_prev = flat[1:].reshape(n, n), flat[:-1].reshape(n, n)
        self._edge = self._all[n * n : (n + 1) * n + 1]  # fx[-1] and the zero before fy
        # the interior x faces and the flat y faces one call over _pairs
        # writes (all but the last), the x differences' sides and the wraps
        self.fx_in, self.fy_in = self.fx[1:-1, :], flat[1:-1]
        self._fx_hi, self._fx_lo, self._wrap = self.fx[1:, :], self.fx[:-1, :], self.fy[:, -1]

    def close(self) -> None:
        """Zero the faces where the flat order wraps to the next row."""
        self._wrap.fill(0.0)

    def max_abs(self) -> float:
        """max |v| over all faces, taken as max(max v, -min v) so that no |v|
        temporary is built; the same value for finite faces."""
        return float(max(self._all.max(), -self._all.min()))

    def divergence(self, out: np.ndarray, scratch: np.ndarray, h: float) -> np.ndarray:
        """The cell divergence into `out`, as divergence() computes it but over
        `h`, h times the faces' scale, with the y differences in `scratch`."""
        np.subtract(self._fx_hi, self._fx_lo, out=out)
        out += np.subtract(self.fy, self.fy_prev, out=scratch)
        out /= h
        return out

    def vector_field(self) -> VectorField:
        """A VectorField of these faces, with arrays of its own."""
        n = self.grid.n
        fy = np.zeros((n, n + 1))
        fy[:, 1:-1] = self.fy[:, :-1]
        return VectorField(self.grid, self.fx.copy(), fy)


def _pairs(v: np.ndarray) -> tuple:
    """The cells after and before each interior x face, then each flat y
    face (see _Faces), of the n x n cells v: views of v, the y pairs of its
    flattened cells; a copy if v is not C-ordered."""
    flat = v.reshape(-1)
    return v[1:, :], v[:-1, :], flat[1:], flat[:-1]


class _Workspace:
    """Per-grid arrays of the hot path: the cosine eigenvalue sum of the
    Helmholtz symbol and scratch buffers, each reused by the stages of a
    step in turn, and between steps by an output's analysis, which borrows
    the residual slices and both face buffers (leaving their boundary faces
    0).  The solves transform in rows padded by _PAD floats, so that no
    column's stride is a multiple of 4 KiB; the symbol and denominators
    share that layout, 0 and c = 1 + dt*lam in the pads.  Each call on the
    grid overwrites the buffers, so no field handed to a caller may alias
    one, and two threads must not work on one grid at the same time."""

    def __init__(self, grid: GridSpec):
        n = grid.n
        s = (4.0 / grid.h ** 2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        self.eig_sum = np.zeros((n, n + _PAD))
        np.add(s[:, None], s[None, :], out=self.eig_sum[:, :n])
        # the chemotactic velocity and the advective flux; only interior
        # faces are ever left nonzero (no-flux)
        self.velocity, self.flux = _Faces(grid), _Faces(grid)
        # the built-in models' reaction rates, then the step's (A, N) rhs
        self.rhs = np.empty((2, n, n))
        # the solves' denominators, kept while a slice's key is unchanged
        self.denom, self.denom_keys = np.empty((2, n, n + _PAD)), [None, None]
        # the solves' spectra, zeroed so that no pad is a signalling NaN; its
        # first 2 n^2 floats, dead from a solve's copy-in to its copy-out, are
        # y-direction scratch, then the residuals of the last solves
        self.transform = np.zeros((2, n, n + _PAD))
        self.residual = self.transform.reshape(-1)[: 2 * n * n].reshape(2, n, n)
        # the residuals' neighbour sums, in the flux faces, dead once a step
        # has taken their divergence; _helmholtz zeroes flux._edge after use
        self.neighbours = self.flux._all[n + 1 :].reshape(2, n, n)
        # views of the hot path, built once: the rhs slots, the denominators,
        # the scratch slices and the velocity's face sums in the first one
        self.slots, self.denoms = tuple(self.rhs), tuple(self.denom)
        self.scratch = tuple(self.residual)
        self.sums = self.residual[0][:-1, :], self.residual[0].reshape(-1)[:-1]
        self.half_h, self.h_sq = 0.5 * grid.h, grid.h ** 2


@functools.lru_cache(maxsize=4)
def _workspace(grid: GridSpec) -> _Workspace:
    return _Workspace(grid)


class _Stack:
    """A C-contiguous (k, n, n) stack of cell values, k <= 2, and the views
    a step or a solve into it takes of it and of the grid's workspace `ws`,
    built once: its slices, their _pairs, its neighbour sums' operands and
    the workspace's k slices, the transforms' (k, n, n) `spectral` in
    their padded rows.  A run's next step writes into `other`."""

    def __init__(self, ws: _Workspace, values: np.ndarray):
        k, n = len(values), values.shape[-1]
        self.ws, self.values, self.slices, self.other = ws, values, tuple(values), None
        self.pairs = tuple(map(_pairs, values))
        self.denom, self.nb, self.applied = ws.denom[:k], ws.neighbours[:k], ws.residual[:k]
        self.transform, self.spectral = ws.transform[:k], ws.transform[:k, :, :n]
        self.nb_slices, self.applied_slices = tuple(self.nb), tuple(self.applied)
        nb, scratch = self.nb, self.applied
        # the x sums and, in the scratch, the y sums each take one call over
        # the flattened stack, which pairs cells across rows or slices on the
        # boundaries; the calls after each overwrite those with the mirror
        # ghosts, the cells themselves
        flat, v = values.reshape(-1), values
        self.nb_sums = (
            (flat[: -2 * n], flat[2 * n :], nb.reshape(-1)[n:-n]),
            (v[:, 0, :], v[:, 1, :], nb[:, 0, :]),
            (v[:, -2, :], v[:, -1, :], nb[:, -1, :]),
            (flat[:-2], flat[2:], scratch.reshape(-1)[1:-1]),
            (v[:, :, 0], v[:, :, 1], scratch[:, :, 0]),
            (v[:, :, -2], v[:, :, -1], scratch[:, :, -1]),
        )

    @classmethod
    def pair(cls, ws: _Workspace, values: np.ndarray) -> "_Stack":
        """A stack of `values` and a new one, each the other's `other`."""
        first, second = cls(ws, values), cls(ws, np.empty_like(values))
        first.other, second.other = second, first
        return first

    def fields(self, grid: GridSpec) -> tuple[ScalarField, ScalarField]:
        """A and N, viewing the two slices."""
        a, n = self.slices
        return ScalarField._checked(grid, a), ScalarField._checked(grid, n)


def _same_grid(*fields) -> GridSpec:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid is not g and f.grid != g:
            raise HotspotError("operands live on different grids")
    return g


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------

def gradient(u: ScalarField, out: _Faces | None = None) -> VectorField | _Faces:
    """Interior face differences of u over h; boundary-normal faces stay 0.
    They are written, one call per family over _pairs, into `out`, faces of
    u's grid whose boundary faces are 0, and returned; without `out`, into
    new faces, returned as a VectorField."""
    if out is None:
        return gradient(u, _Faces(u.grid)).vector_field()
    x_hi, x_lo, y_hi, y_lo = _pairs(u.values)
    for hi, lo, f in ((x_hi, x_lo, out.fx_in), (y_hi, y_lo, out.fy_in)):
        np.subtract(hi, lo, out=f)
        f /= u.grid.h
    out.close()
    return out


def divergence(F: VectorField) -> ScalarField:
    vals = np.subtract(F.fx[1:, :], F.fx[:-1, :])
    vals += F.fy[:, 1:] - F.fy[:, :-1]
    vals /= F.grid.h
    return ScalarField(F.grid, vals)


def laplacian(u: ScalarField) -> ScalarField:
    """div(grad(u)), so the discrete compatibility holds identically."""
    return divergence(gradient(u))


# ---------------------------------------------------------------------------
# Integral functionals (midpoint quadrature: cell value x h^2)
# ---------------------------------------------------------------------------

def integral(u: ScalarField) -> float:
    return float(np.sum(u.values)) * u.grid.h ** 2


def mean(u: ScalarField) -> float:
    return integral(u) / u.grid.area


def lp_norm(u: ScalarField, p: float) -> float:
    if p != math.inf and p < 1:
        raise HotspotError(f"Lp norm needs p >= 1, got p={p}")
    if p == math.inf:
        return float(np.max(np.abs(u.values)))
    return float(np.sum(np.abs(u.values) ** p) * u.grid.h ** 2) ** (1.0 / p)


def osc(u: ScalarField) -> float:
    """Oscillation max(u) - min(u), exact over cells."""
    return float(np.max(u.values) - np.min(u.values))


def fisher(u: ScalarField) -> float:
    """int |grad u|^2 / u with u evaluated at faces by arithmetic mean.  The
    x-face sum is taken, and its temporaries dropped, before the y-face
    means are built."""
    v = u.values
    if np.min(v) <= 0.0:
        raise HotspotError("fisher functional requires u > 0 everywhere")
    F = gradient(u)
    x = F.fx[1:-1, :] ** 2
    x /= 0.5 * (v[1:, :] + v[:-1, :])
    x = np.sum(x)
    y = F.fy[:, 1:-1] ** 2
    y /= 0.5 * (v[:, 1:] + v[:, :-1])
    return float((x + np.sum(y)) * u.grid.h ** 2)


def _grad_sq_cells(F: _Faces, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|grad u|^2 at cell centers into the (n, n) `out`, from the faces F of
    grad u, which it squares in place: per direction, the mean of the
    squared faces on either side of a cell, the y means built in `scratch`,
    then the two summed."""
    np.square(F._all, out=F._all)
    np.add(F._fx_lo, F._fx_hi, out=out)
    out *= 0.5
    np.add(F.fy_prev, F.fy, out=scratch)
    scratch *= 0.5
    out += scratch
    return out


def _grad_sq(u: ScalarField) -> np.ndarray:
    """|grad u|^2 at cell centers, in arrays of its own."""
    n = u.grid.n
    return _grad_sq_cells(gradient(u, _Faces(u.grid)), np.empty((n, n)), np.empty((n, n)))


def grad_l2sq(u: ScalarField) -> float:
    return float(np.sum(_grad_sq(u))) * u.grid.h ** 2


def grad_l1(u: ScalarField) -> float:
    return float(np.sum(np.sqrt(_grad_sq(u)))) * u.grid.h ** 2


def grad4(u: ScalarField) -> float:
    return float(np.sum(_grad_sq(u) ** 2)) * u.grid.h ** 2


def laplacian_l2sq(u: ScalarField) -> float:
    lap = laplacian(u)
    return float(np.sum(lap.values ** 2)) * u.grid.h ** 2


# ---------------------------------------------------------------------------
# Implicit Helmholtz solve
# ---------------------------------------------------------------------------

def helmholtz_solve(rhs: ScalarField, d: float, lam: float, dt: float) -> ScalarField:
    """Solve (1 + dt*lam) u - dt*d*Lap_h u = rhs under discrete Neumann
    conditions by cosine-basis diagonalization; checked to 1e-10 relative
    residual.  The returned field owns its values."""
    if not (0 <= d < math.inf and 0 <= lam < math.inf and 0 < dt < math.inf):
        raise ValueError(f"need d >= 0, lam >= 0, dt > 0, all finite; got {d}, {lam}, {dt}")
    g = rhs.grid
    u = _Stack(_workspace(g), np.empty((1, g.n, g.n)))
    _helmholtz(u, rhs.values[None], (d,), (lam,), dt)
    return ScalarField(g, u.values[0])


def _helmholtz(out: _Stack, rhs: np.ndarray, ds, lams, dt: float, rhs_sq=None) -> None:
    """helmholtz_solve on a (k, n, n) stack of right-hand sides into the
    k-slice stack `out`, slice s with d = ds[s] and lam = lams[s], for
    d >= 0, lam >= 0 and dt > 0, with the same residual check on each
    slice, given their squared norms `rhs_sq` if known.  Each slice's
    arithmetic is that of a solve on its own; the operations without a
    per-slice scalar run once on the stack."""
    ws = out.ws
    for s, (d, lam) in enumerate(zip(ds, lams)):
        key = (dt * d, 1.0 + dt * lam)
        if ws.denom_keys[s] != key:
            denom = ws.denoms[s]
            np.multiply(ws.eig_sum, key[0], out=denom)
            denom += key[1]
            ws.denom_keys[s] = key
    # pocketfft transforms in place; the scipy.fft fallback may not.  The
    # division is one flat pass over the padded rows, a pad divided by c
    spectral = out.spectral
    np.copyto(spectral, rhs)
    u = _fft.dctn(spectral, type=2, norm="ortho", overwrite_x=True, axes=(1, 2))
    if u is not spectral:
        np.copyto(spectral, u)
    out.transform /= out.denom
    u = _fft.idctn(spectral, type=2, norm="ortho", overwrite_x=True, axes=(1, 2))
    np.copyto(out.values, u)

    # residual of the applied operator, c*u - dt*d*Lap_h(u) - rhs, as one
    # five-point stencil: (c + 4k) u - k (sum of the four neighbours) - rhs
    # with c = 1 + dt*lam and k = dt*d/h^2, a neighbour across the boundary
    # being the mirror ghost, that is the cell itself
    nb, applied = out.nb, out.applied
    for x, y, z in out.nb_sums:
        np.add(x, y, out=z)
    nb += applied
    slices = zip(out.slices, out.nb_slices, out.applied_slices, ds, lams)
    for v, nb_s, applied_s, d, lam in slices:
        kk = dt * d / ws.h_sq
        nb_s *= kk
        np.multiply(v, 1.0 + dt * lam + 4.0 * kk, out=applied_s)
    applied -= nb
    ws.flux._edge.fill(0.0)  # zero faces that the neighbour sums overwrote
    applied -= rhs
    # ||applied|| / ||rhs|| of each slice from their squares (np.einsum, as
    # np.linalg.norm wakes BLAS threads on every call), floored by _TINY.
    # When either square overflows, both are taken again on the arrays
    # divided by max|rhs|: a ratio of finite numbers, or NaN or inf when
    # applied is not finite.
    if rhs_sq is None:
        rhs_sq = np.einsum("kij,kij->k", rhs, rhs)
    applied_sq = np.einsum("kij,kij->k", applied, applied)
    for s, (r2, a2) in enumerate(zip(rhs_sq.tolist(), applied_sq.tolist())):
        if not math.isfinite(r2 + a2):
            top = max(float(np.max(np.abs(rhs[s]))), _TINY)
            r, a = rhs[s] / top, applied[s] / top
            r2, a2 = np.einsum("ij,ij", r, r), np.einsum("ij,ij", a, a)
        rel = math.sqrt(a2) / max(math.sqrt(r2), _TINY)
        if not rel <= HELMHOLTZ_TOL:  # NaN fails too
            raise HotspotError(f"Helmholtz residual {rel:.3e} exceeds {HELMHOLTZ_TOL}")


# ---------------------------------------------------------------------------
# Cosine test fields
# ---------------------------------------------------------------------------

def cosine_mode(grid: GridSpec, j: int, k: int, amplitude: float = 1.0) -> ScalarField:
    """amplitude * cos(j pi x / L) cos(k pi y / L) at cell centers, an outer product."""
    c = (np.arange(grid.n) + 0.5) * grid.h
    cx = amplitude * np.cos(j * np.pi * c / grid.L)
    return ScalarField(grid, np.multiply.outer(cx, np.cos(k * np.pi * c / grid.L)))


def sample_cosine_field(
    seed: int, max_mode: int, amplitude: float, grid: GridSpec
) -> tuple[ScalarField, np.ndarray]:
    """Deterministic pseudo-random Neumann-compatible cosine sum.

    Returns the gridded samples together with the exact coefficient table
    a[j, k], 0 <= j, k <= max_mode, each uniform in [-amplitude, amplitude],
    so spectrally exact derivatives remain available downstream.
    """
    if max_mode < 0:
        raise ValueError("max_mode must be >= 0")
    if amplitude <= 0:
        raise ValueError("amplitude must be > 0")
    if max_mode >= grid.n / 2:
        raise HotspotError(
            f"max_mode={max_mode} is not resolvable on n={grid.n} cells"
        )
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-amplitude, amplitude, size=(max_mode + 1, max_mode + 1))
    c = (np.arange(grid.n) + 0.5) / grid.n  # cell centers scaled to (0,1)
    modes = np.cos(np.pi * np.outer(np.arange(max_mode + 1), c))  # (m+1, n)
    vals = modes.T @ coeffs @ modes
    return ScalarField(grid, vals), coeffs


def spectral_hessian_norms(coeffs: np.ndarray, L: float) -> dict[str, float]:
    """Exact mode sums of ||u_xx||_2^2, ||u_yy||_2^2, ||u_xy||_2^2 and
    ||Lap u||_2^2 for a cosine sum with the given coefficient table."""
    m = coeffs.shape[0] - 1
    idx = np.arange(m + 1)
    wc = np.where(idx == 0, 1.0, 0.5)  # int cos^2 over (0,L) / L
    ws = np.where(idx == 0, 0.0, 0.5)  # int sin^2 over (0,L) / L
    k2 = (idx * np.pi / L) ** 2
    a2 = coeffs ** 2
    area = L * L
    uxx = area * float(np.sum(k2[:, None] ** 2 * a2 * wc[:, None] * wc[None, :]))
    uyy = area * float(np.sum(k2[None, :] ** 2 * a2 * wc[:, None] * wc[None, :]))
    uxy = area * float(
        np.sum(k2[:, None] * k2[None, :] * a2 * ws[:, None] * ws[None, :])
    )
    lap = area * float(
        np.sum((k2[:, None] + k2[None, :]) ** 2 * a2 * wc[:, None] * wc[None, :])
    )
    return {"uxx": uxx, "uyy": uyy, "uxy": uxy, "laplacian": lap}


# ---------------------------------------------------------------------------
# Field snapshot files
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "hotspotfield v1"


# Rows that orjson must print as repr does before the writer uses it: zeros
# of both signs, the ends of the range repr prints without an exponent, and
# values of up to 17 digits.
_KNOWN_ROWS = np.array([
    [0.0, -0.0, 1e-4, 9999999999999998.0, 0.1, -2.5, 1.0 / 3.0],
    [1.0, 2.0 ** -13, -1e15, 123456.789, 0.30000000000000004, 7.0, -0.001],
])


def _repr_line(row: np.ndarray) -> bytes:
    return " ".join(map(repr, row.tolist())).encode()


def _field_lines(rows: np.ndarray, dumps=None) -> bytes | memoryview:
    """The .field lines of a C-contiguous 2-D float64 array: each row's
    values as repr prints them, separated by spaces.  Given orjson's numpy
    serializer `dumps`, which prints the same shortest round-trip digits,
    it formats every row that repr prints without an exponent (each value
    0 or 1e-4 <= |v| < 1e16); repr formats the other rows, as orjson writes
    1e-05 as 0.00001, 1e+16 as 1e16 and a non-finite value as null.  orjson
    prints the values as one flat list, whose commas become spaces, every
    n-th comma and the closing bracket a newline, in place."""
    if dumps is None:
        lines = [_repr_line(row) for row in rows]
    else:
        n = rows.shape[1]
        buf = bytearray(dumps(rows.reshape(-1)))
        text = np.frombuffer(buf, np.uint8)
        commas = np.flatnonzero(text == ord(","))
        text[commas] = ord(" ")
        text[commas[n - 1 :: n]] = text[-1] = ord("\n")
        a = np.abs(rows)
        positional = (a == 0.0) | ((a >= 1e-4) & (a < 1e16))
        repr_rows = np.flatnonzero(~positional.all(axis=1))
        if not repr_rows.size:
            return memoryview(buf)[1:]
        lines = buf[1:-1].split(b"\n")
        for j in repr_rows:
            lines[j] = _repr_line(rows[j])
    return b"\n".join(lines) + b"\n"


@functools.cache
def _numpy_dumps():
    """orjson's numpy serializer, imported on the first snapshot write; None
    when orjson does not import or formats the known-answer rows unlike
    repr."""
    try:
        import orjson

        dumps = functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
        if _field_lines(_KNOWN_ROWS, dumps) == _field_lines(_KNOWN_ROWS):
            return dumps
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    return None


def write_field(path, u: ScalarField) -> None:
    """Write the snapshot format: header line, then n lines of n values
    (row-major, y increasing), each value as repr prints it.  The lines are
    formatted by orjson's numpy serializer, which prints the same digits
    about 10x faster; without orjson, or when it fails its known-answer
    check, by repr.  The bytes are the same either way."""
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER_PREFIX} L={g.L!r} n={g.n}\n".encode())
        rows = np.ascontiguousarray(u.values.T, dtype=np.float64)
        fh.write(_field_lines(rows, _numpy_dumps()))


# The smallest n for which parsing with orjson saves more (about 0.2 us per
# value) than importing it costs (about 5 ms in a fresh process)
_JSON_MIN_N = 128

_KNOWN_TOKENS = (
    "-0.0 -1e-400 0.1 -2.5 0.30000000000000004 0.99999999999999989 1e-05 "
    "1.0000000000000001e-05 2.5E+16 5e-324 2.4703282292062328e-324 "
    "2.2250738585072009e-308 1.7976931348623157e+308 9007199254740993 "
    "18446744073709551617 7"
)


def _json_rows(lines: list[str], sep: str | None, loads) -> np.ndarray | None:
    """The rows parsed as one JSON document by orjson's `loads`; None where
    that could differ from float() on each token: a character other than
    digits, signs, '.', 'e', 'E', newlines and spaces (and commas when
    sep=","), a token JSON rejects, rows of unequal length, or a +0.0 that
    a `-0` token, read by JSON as the integer 0, might have given."""
    body = "".join(lines).encode(errors="surrogateescape")
    if body.translate(None, b"0123456789+-.eE \n" + (b"," if sep else b"")):
        return None
    if sep is None:
        body = body.replace(b" ", b",")
    doc = b"[[" + body.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]"
    try:
        values = np.array(loads(doc), dtype=float)
    except (TypeError, ValueError):
        return None
    zero = values == 0  # tested first: the scan of the text costs more
    if zero.any() and b"-0" in body and not np.signbit(values[zero]).all():
        return None
    return values


@functools.cache
def _json_loads():
    """orjson.loads, imported on the first file read; None when orjson does
    not import or parses the known-answer tokens unlike float(): repr and
    %.17g digits, exponent forms, subnormals, negative zeros and integers
    beyond 2**53 and 2**64."""
    try:
        import orjson

        got = _json_rows([_KNOWN_TOKENS + "\n"] * 2, None, orjson.loads)
        expected = np.array([_KNOWN_TOKENS.split()] * 2, dtype=float)
        if got is not None and got.tobytes() == expected.tobytes():
            return orjson.loads
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    return None


def read_field(path, grid: GridSpec | None = None) -> ScalarField:
    """Read a snapshot file; accepts the headered format or headerless CSV
    (the latter needs an explicit grid to supply L).  It reads at most n
    rows and stops at the end of the file.  From n=128 up, orjson parses
    the rows when _json_rows finds that it gives the values float() gives;
    otherwise each row is parsed with float().  A malformed file raises
    ValueError naming the file and the part that is wrong; a byte that is
    not UTF-8 is escaped on reading, so it fails where its row is parsed."""
    with open(path, errors="surrogateescape") as fh:
        first = fh.readline()
        if first.startswith(_HEADER_PREFIX):
            tokens = dict(t.partition("=")[::2] for t in first.split()[2:])
            for key in ("L", "n"):
                if key not in tokens:
                    raise ValueError(f"{path}: header has no {key}= entry")
            try:
                file_grid = GridSpec(float(tokens["L"]), int(tokens["n"]))
            except ValueError as exc:
                raise ValueError(f"{path}: bad header L= or n= entry: {exc}") from None
            if grid is not None and grid != file_grid:
                raise HotspotError(
                    f"{path}: file grid (L={file_grid.L}, n={file_grid.n}) "
                    "does not match expected grid"
                )
            file_grid = grid or file_grid  # the same object passes grid checks fastest
            lines = list(itertools.islice(fh, file_grid.n))
            sep = None
        else:
            if grid is None:
                raise ValueError(f"{path}: headerless CSV needs an explicit GridSpec")
            file_grid = grid
            sep = "," if "," in first else None
            lines = [first, *itertools.islice(fh, grid.n - 1)] if first else []
    n = file_grid.n
    loads = _json_loads() if n >= _JSON_MIN_N else None
    values = _json_rows(lines, sep, loads) if loads else None
    if values is None or values.shape != (n, n):
        rows = []
        for j, line in enumerate(lines):
            try:
                row = np.array(line.split(sep), dtype=float)
            except ValueError as exc:
                bad = [ord(c) - 0xDC00 for c in line if "\udc80" <= c <= "\udcff"]
                why = f"byte {bad[0]:#04x} is not UTF-8" if bad else exc
                raise ValueError(f"{path}: row {j + 1}: {why}") from None
            if row.shape != (n,):
                raise ValueError(f"{path}: row {j + 1} has {row.size} values, expected {n}")
            rows.append(row)
        if len(rows) < n:
            raise ValueError(f"{path}: file ends after {len(rows)} of {n} rows")
        values = np.vstack(rows)
    try:
        return ScalarField(file_grid, values.T.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
