"""Cell-centered tensor grids with homogeneous Neumann boundary handling.

Ghost cells mirror the boundary cell across the face (edge replication),
which encodes the 90-degree Neumann condition, keeps the 3/5-point
Laplacian symmetric, and makes its output sum to zero exactly (telescoping
fluxes). Fields are immutable value holders; all operators are pure
(``laplacian_neumann`` can write its result into an array the caller
gives it); on an axis with h_k^2 a power of two it multiplies by 1/h_k^2.
``laplacian_neumann`` also applies the stencil to each field of a
``FieldStack`` (fields of one grid stacked along a leading axis). It is
a thin wrapper, which checks and allocates, around the one stencil core
``_laplacian``, which a loop that owns its work arrays and knows its
values finite calls directly.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
            if not -np.inf < lo < hi < np.inf:
                raise ValueError("bounds must be finite, upper above lower")
            if n < 8:
                raise ValueError("at least 8 cells per axis")
        # derived once; not dataclass fields, so equality and hashing stay
        # on lower/upper/cells
        h = (np.array(self.upper) - np.array(self.lower)) / np.array(self.cells)
        h.setflags(write=False)
        object.__setattr__(self, "_spacing", h)
        object.__setattr__(self, "_cell_volume", float(np.prod(h)))
        object.__setattr__(self, "_stencil_scaling",
                           tuple(_axis_scaling(float(hk ** 2)) for hk in h))

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


def _check_finite(values: np.ndarray) -> None:
    """Raise ValueError unless all ``values`` are finite, as a ``Field``."""
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray
    _lead = 0      # axes before the grid's (not a dataclass field)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[self._lead:] != self.grid.cells:
            raise ValueError(f"values shape {vals.shape} does not match grid "
                             f"cells {self.grid.cells}")
        _check_finite(vals)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_function(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        return Field(grid, np.asarray(fn(grid.points()), dtype=float))

    @staticmethod
    def constant(grid: Grid, value: float) -> "Field":
        return Field(grid, np.full(grid.cells, float(value)))


@dataclass(frozen=True)
class FieldStack:
    """Fields of one grid stacked along a leading axis, checked as Field."""

    grid: Grid
    values: np.ndarray
    _lead = 1
    __post_init__ = Field.__post_init__


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
            if not np.isfinite(c).all():
                raise ValueError("vector field values must be finite")
        object.__setattr__(self, "components", comps)

    def norm(self) -> np.ndarray:
        return np.sqrt(sum(c ** 2 for c in self.components))


def _same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def _second_difference(v: np.ndarray, axis: int,
                       out: np.ndarray) -> np.ndarray:
    """(v[i+1] - 2 v[i]) + v[i-1] along array axis ``axis`` into ``out``
    (which must not overlap ``v``), each ghost repeating its boundary cell.

    No padded copy: ``out`` starts as -2v, every cell but the last adds
    its forward neighbour and the last its ghost (itself), then every
    cell but the first adds its backward neighbour and the first itself.
    x + (-2v) rounds as x - 2v, so the bits are those of the padded
    formula.

    Along the last axis of an array of two or more axes both neighbour
    passes run over the flattened arrays, contiguous in memory. There a
    row's last cell adds the next row's first and its first cell the
    previous row's last, so the two boundary columns are then formed
    again, with the additions above, in the same order. ``out`` must be
    C-contiguous for this (ValueError otherwise); a ``v`` that is not is
    read through a C-contiguous copy.
    """
    np.multiply(v, -2.0, out=out)
    axis %= v.ndim
    if axis < v.ndim - 1 or v.ndim == 1:
        vt, ot = v.swapaxes(0, axis), out.swapaxes(0, axis)
        ot[:-1] += vt[1:]
        ot[-1] += vt[-1]
        ot[1:] += vt[:-1]
        ot[0] += vt[0]
        return out
    if not out.flags.c_contiguous:
        raise ValueError("the second difference along the last axis needs "
                         "a C-contiguous out")
    vf = np.ascontiguousarray(v).reshape(-1)
    of = out.reshape(-1)
    of[:-1] += vf[1:]
    of[1:] += vf[:-1]
    first, last = out[..., 0], out[..., -1]
    np.multiply(v[..., 0], -2.0, out=first)
    np.multiply(v[..., -1], -2.0, out=last)
    # in a 1-cell row the one cell is first and last, and adds only its
    # two ghosts
    if v.shape[-1] > 1:
        first += v[..., 1]
    last += v[..., -1]
    if v.shape[-1] > 1:
        last += v[..., -2]
    first += v[..., 0]
    return out


def _axis_scaling(h2: float):
    """(ufunc, operand) scaling by 1 / h2: times 1 / h2 when h2 and 1 / h2
    are powers of two (both round one real, even subnormal or overflowing
    ones), else / h2."""
    if math.frexp(h2)[0] == 0.5 and math.frexp(1.0 / h2)[0] == 0.5:
        return np.multiply, 1.0 / h2
    return np.divide, h2


def laplacian_neumann(f, out: Optional[np.ndarray] = None):
    """Second-order 3/5-point stencil with mirrored ghost cells.

    The output sums to zero exactly up to roundoff (discrete divergence
    theorem for zero-flux boundaries). ``out``, when given, is an array
    of the shape of ``f.values``, not overlapping it, that receives the
    values of the returned field. ``f`` is a ``Field`` or a
    ``FieldStack``; the result is of its kind, so a non-finite result
    raises ValueError as a ``Field`` does. This wrapper allocates what
    the caller does not give (``out`` and, in 2-d, the scratch array)
    and leaves the arithmetic to ``_laplacian``.
    """
    v = f.values
    if out is None:
        out = np.empty_like(v)
    scratch = np.empty(v.shape) if f.grid.dim == 2 else None
    return type(f)(f.grid, _laplacian(v, f.grid, out, scratch))


def _laplacian(v: np.ndarray, grid: Grid, out: np.ndarray,
               scratch: Optional[np.ndarray]) -> np.ndarray:
    """The stencil of ``laplacian_neumann`` on the values ``v`` of one
    state, or of a stack of states along a leading axis, into ``out``,
    which is returned: no check and no allocation.

    It reads ``v`` through slices, with no padded copy (see
    ``_second_difference``). On a 2-d grid the second axis's difference
    goes into ``scratch``, a C-contiguous array of v's shape; in 1-d
    ``scratch`` is unused. ``out`` and ``scratch`` must not overlap ``v``
    or each other. A power-of-two h_k^2 scales by its exact reciprocal,
    with the bits of the division (``_axis_scaling``).
    """
    scaling = grid._stencil_scaling
    lead = v.ndim - grid.dim
    # (v_up - 2v + v_down) / h0^2 [+ (v_right - 2v + v_left) / h1^2]
    op, c = scaling[0]
    op(_second_difference(v, lead, out), c, out=out)
    if grid.dim == 2:
        op, c = scaling[1]
        across = _second_difference(v, lead + 1, scratch)
        out += op(across, c, out=across)
    return out


def gradient_neumann(f: Field) -> VectorField:
    """Centered differences with mirrored ghosts (even extension)."""
    v = f.values
    h = f.grid.spacing
    comps = []
    for axis in range(f.grid.dim):
        # (v[i+1] - v[i-1]) / 2h, a boundary ghost repeating its cell
        d = np.empty_like(v)
        vt, gt = (v, d) if axis == 0 else (v.T, d.T)
        np.subtract(vt[2:], vt[:-2], out=gt[1:-1])
        gt[0] = vt[1] - vt[0]
        gt[-1] = vt[-1] - vt[-2]
        d /= 2.0 * h[axis]
        comps.append(d)
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
    """Points of {f = level} found by ``extract_levelset``, sorted by x, then
    by y: positions (1-d) or points in the plane (2-d)."""

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
    """Locate {f = level} by linear interpolation between cell centers.

    Every edge between neighbouring centers whose values lie strictly on
    opposite sides of the level gives one crossing, at center + theta * h
    along the edge's axis with theta = d0 / (d0 - d1), d = f - level; every
    center exactly at the level gives one point.
    """
    d = f.values - level
    if np.all(d > 0) or np.all(d < 0):
        raise ExtractionError("field does not cross the requested level")
    grid = f.grid
    centers = [grid.axis_centers(k) for k in range(grid.dim)]
    # signs, not products: d0 * d1 underflows to zero for tiny values
    side = np.sign(d)
    blocks = [np.stack([c[i] for c, i in zip(centers, np.nonzero(d == 0))],
                       axis=-1)]
    for k in range(grid.dim):
        lo = tuple(slice(None, -1) if m == k else slice(None)
                   for m in range(grid.dim))
        hi = tuple(slice(1, None) if m == k else slice(None)
                   for m in range(grid.dim))
        edges = side[lo] * side[hi] < 0
        d0, d1 = d[lo][edges], d[hi][edges]
        coords = [c[i] for c, i in zip(centers, np.nonzero(edges))]
        coords[k] = coords[k] + d0 / (d0 - d1) * grid.spacing[k]
        blocks.append(np.stack(coords, axis=-1))
    pts = np.concatenate(blocks)
    if len(pts) == 0:
        raise ExtractionError("no crossings located")
    pts = pts[np.lexsort(pts.T[::-1])]
    return LevelSetSample(grid.dim, pts[:, 0] if grid.dim == 1 else pts)
