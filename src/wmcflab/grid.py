"""Cell-centered tensor grids with homogeneous Neumann boundary handling.

Ghost cells mirror the boundary cell across the face (edge replication),
which encodes the 90-degree Neumann condition, keeps the 3/5-point
Laplacian symmetric, and makes its output sum to zero exactly (telescoping
fluxes). Fields are immutable value holders; all operators are pure.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExtractionError, GridMismatchError


@dataclass(frozen=True)
class Grid:
    lower: tuple
    upper: tuple
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if not (len(self.lower) == len(self.upper) == len(self.cells)):
            raise ValueError("lower/upper/cells must share one dimension")
        if self.dim not in (1, 2):
            raise ValueError("only 1-d and 2-d grids are supported")
        for lo, hi, n in zip(self.lower, self.upper, self.cells):
            if hi <= lo:
                raise ValueError("upper must exceed lower")
            if n < 8:
                raise ValueError("at least 8 cells per axis")
        # derived once; not dataclass fields, so equality and hashing stay
        # on lower/upper/cells
        h = (np.array(self.upper) - np.array(self.lower)) / np.array(self.cells)
        h.setflags(write=False)
        object.__setattr__(self, "_spacing", h)
        object.__setattr__(self, "_cell_volume", float(np.prod(h)))

    def __reduce__(self):
        # rebuild through __init__ so copies get their own read-only spacing
        return (Grid, (self.lower, self.upper, self.cells))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> np.ndarray:
        """Cell widths per axis (read-only)."""
        return self._spacing

    @property
    def cell_volume(self) -> float:
        return self._cell_volume

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.lower[axis] + h * (np.arange(self.cells[axis]) + 0.5)

    def points(self) -> np.ndarray:
        """Cell centers, shape (*cells, dim)."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @staticmethod
    def interval(lo: float, hi: float, n: int) -> "Grid":
        return Grid((lo,), (hi,), (n,))

    @staticmethod
    def box(lower: Sequence[float], upper: Sequence[float],
            cells: Sequence[int]) -> "Grid":
        return Grid(tuple(lower), tuple(upper), tuple(cells))


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.cells:
            raise ValueError(f"values shape {vals.shape} does not match grid "
                             f"cells {self.grid.cells}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_function(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        return Field(grid, np.asarray(fn(grid.points()), dtype=float))

    @staticmethod
    def constant(grid: Grid, value: float) -> "Field":
        return Field(grid, np.full(grid.cells, float(value)))


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    components: tuple

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=float) for c in self.components)
        if len(comps) != self.grid.dim:
            raise ValueError("one component per axis required")
        for c in comps:
            if c.shape != self.grid.cells:
                raise ValueError("component shape does not match grid")
            if not np.all(np.isfinite(c)):
                raise ValueError("vector field values must be finite")
        object.__setattr__(self, "components", comps)

    def norm(self) -> np.ndarray:
        return np.sqrt(sum(c ** 2 for c in self.components))

    def dot(self, other: "VectorField") -> np.ndarray:
        _same_grid(self, other)
        return sum(c * d for c, d in zip(self.components, other.components))


def _same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def _padded(values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with one ghost layer per side on every axis, each
    ghost repeating its boundary cell (the values of ``np.pad(mode="edge")``
    on the edges; 2-d corners are left unset, no stencil reads them)."""
    p = np.empty(tuple(n + 2 for n in values.shape), dtype=values.dtype)
    if values.ndim == 1:
        p[1:-1] = values
        p[0] = values[0]
        p[-1] = values[-1]
    else:
        p[1:-1, 1:-1] = values
        p[0, 1:-1] = values[0]
        p[-1, 1:-1] = values[-1]
        p[1:-1, 0] = values[:, 0]
        p[1:-1, -1] = values[:, -1]
    return p


def laplacian_neumann(f: Field) -> Field:
    """Second-order 3/5-point stencil with mirrored ghost cells.

    The output sums to zero exactly up to roundoff (discrete divergence
    theorem for zero-flux boundaries).
    """
    v = f.values
    h = f.grid.spacing
    p = _padded(v)
    if f.grid.dim == 1:
        out = (p[2:] - 2.0 * v + p[:-2]) / h[0] ** 2
    else:
        # (p_up - 2v + p_down) / h0^2 + (p_right - 2v + p_left) / h1^2,
        # evaluated in that order with 2v formed once and in-place sums
        v2 = 2.0 * v
        out = p[2:, 1:-1] - v2
        out += p[:-2, 1:-1]
        out /= h[0] ** 2
        across = p[1:-1, 2:] - v2
        across += p[1:-1, :-2]
        across /= h[1] ** 2
        out += across
    return Field(f.grid, out)


def gradient_neumann(f: Field) -> VectorField:
    """Centered differences with mirrored ghosts (even extension)."""
    v = f.values
    h = f.grid.spacing
    p = _padded(v)
    if f.grid.dim == 1:
        comps = [(p[2:] - p[:-2]) / (2.0 * h[0])]
    else:
        comps = [(p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h[0]),
                 (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h[1])]
    return VectorField(f.grid, tuple(comps))


def integrate(f: Field) -> float:
    """Midpoint quadrature: sum of cell values times cell volume."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def pair_density(density: Field, testfn: Field) -> float:
    """Pairing int density * testfn of a measure density with a test sample."""
    _same_grid(density, testfn)
    return float(np.sum(density.values * testfn.values) * density.grid.cell_volume)


# ---------------------------------------------------------------------------
# level-set extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSetSample:
    """Crossing points of {f = level}: positions (1-d) or a marching-squares
    point cloud (2-d)."""

    dim: int
    points: np.ndarray          # (n,) in 1-d, (n, 2) in 2-d

    def fitted_circle(self):
        """Least-squares circle (center, radius) through the crossing points."""
        if self.dim != 2:
            raise ValueError("circle fit requires a 2-d sample")
        return fit_circle(self.points)

    def position(self) -> float:
        """Single crossing of a 1-d sample (the first, if several)."""
        if self.dim != 1:
            raise ValueError("position() is for 1-d samples")
        return float(self.points[0])


def fit_circle(points: np.ndarray):
    """Algebraic least-squares circle fit; exact on noise-free circles."""
    pts = np.asarray(points, dtype=float)
    A = np.column_stack([2.0 * pts, np.ones(len(pts))])
    rhs = np.sum(pts ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = sol[:2]
    radius = float(np.sqrt(max(sol[2] + center @ center, 0.0)))
    return center, radius


def extract_levelset(f: Field, level: float) -> LevelSetSample:
    """Locate {f = level} by linear interpolation between cell centers."""
    d = f.values - level
    if np.all(d > 0) or np.all(d < 0):
        raise ExtractionError("field does not cross the requested level")
    if f.grid.dim == 1:
        x = f.grid.axis_centers(0)
        sign_change = d[:-1] * d[1:] < 0
        theta = d[:-1][sign_change] / (d[:-1][sign_change] - d[1:][sign_change])
        crossings = x[:-1][sign_change] + theta * f.grid.spacing[0]
        exact = x[d == 0]
        pts = np.sort(np.concatenate([crossings, exact]))
        if len(pts) == 0:
            raise ExtractionError("no sign change between adjacent cells")
        return LevelSetSample(1, pts)

    xs = f.grid.axis_centers(0)
    ys = f.grid.axis_centers(1)
    pts = []
    seen = set()

    def crossing(i0, j0, i1, j1):
        """Append the crossing on this cell edge, once per edge."""
        if (i1, j1) < (i0, j0):
            i0, j0, i1, j1 = i1, j1, i0, j0
        key = (i0, j0, i1, j1)
        if key in seen:
            return
        d0, d1 = d[i0, j0], d[i1, j1]
        if d0 * d1 >= 0 and not (d0 == 0 or d1 == 0):
            return
        if d0 == d1:
            theta = 0.5
        else:
            theta = d0 / (d0 - d1)
        if not (0.0 <= theta <= 1.0):
            return
        seen.add(key)
        pts.append(np.array([xs[i0] + theta * (xs[i1] - xs[i0]),
                             ys[j0] + theta * (ys[j1] - ys[j0])]))

    mixed_i, mixed_j = np.nonzero(
        (np.sign(d[:-1, :-1]) != np.sign(d[1:, :-1]))
        | (np.sign(d[:-1, :-1]) != np.sign(d[:-1, 1:]))
        | (np.sign(d[:-1, :-1]) != np.sign(d[1:, 1:]))
    )
    for i, j in zip(mixed_i, mixed_j):
        crossing(i, j, i + 1, j)
        crossing(i + 1, j, i + 1, j + 1)
        crossing(i + 1, j + 1, i, j + 1)
        crossing(i, j + 1, i, j)
    if not pts:
        raise ExtractionError("no crossings located")
    return LevelSetSample(2, np.array(pts))
