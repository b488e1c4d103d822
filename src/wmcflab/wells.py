"""The heterogeneous quartic double well with moving wells.

A ``WellSpec`` is the potential W(x, u) = m(x) |u - a(x)|^2 |u - b(x)|^2
with wells a(x) < b(x) and a positive amplitude m(x), together with
analytic partial derivatives and the closed forms of the quartic.
Positions are arrays whose last axis is the spatial dimension; a bare
scalar is accepted as a 1-d point. All derived scalar quantities of the
sharp-interface theory live here:

    gamma(x)        = b(x) - a(x)                      (well separation)
    W_n(x, v)       = W(x, a(x) + gamma(x) v)          (normalized well)
    sigma(x)        = int_a^b sqrt(2 W(x, s)) ds       (surface tension)
    d_n(x, v)       = int_0^v sqrt(2 W_n(x, s)) ds     (geodesic distance)
    sigma_n(x)      = d_n(x, 1)                        = sigma / gamma

together with the one-dimensional transition profile solving
v' = sqrt(2 W_n(x, v)), v(0) = 1/2, with x frozen. The quadratures and
the profile solvers evaluate W itself, so each is an independent route
to the closed forms sigma = sqrt(2 m) gamma^3 / 6 and the logistic
profile with rate sqrt(2 m) gamma.

The factories vary a, b and m along x_0 only, and take only the values
some run sets. A run on a grid evaluates W and dW_du many times on the
same positions. ``bind(spec, pts)`` evaluates m(x), a(x) and b(x) on
them once, and checks there that m and b - a are finite and positive,
as the sigma routes check at their own positions; the spec's W and
dW_du take the bound coefficients in place of the positions and give the
same bits. Both go through ``quartic_W`` and ``quartic_dW_du``, the
formula as a function of u - a and u - b, which the semi-implicit run
and the descent also call, in place, with the differences they share
between a state's energy and its reaction; the profile march calls
``quartic_W`` on a recovery build's bound well, its one evaluation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError, NumericError
from .quadrature import adaptive_gauss_legendre

Scalar = Callable[[np.ndarray], np.ndarray]
Vector = Callable[[np.ndarray], np.ndarray]


def as_points(x) -> np.ndarray:
    """Normalize a position argument: last axis is the spatial dimension."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    return x


def point_norm(x) -> np.ndarray:
    """The Euclidean norm over the last axis of a real point cloud (..., d).

    Sums x_k * x_k in axis order and takes the square root: the operations
    of ``numpy.linalg.norm(x, axis=-1)`` on real input, in the same order
    (numpy sums an axis shorter than 8 in order), so the bits are the same,
    +-0 and inf included, and the result is NaN where that norm's is. Only
    the sign of a NaN summed from two NaNs is not fixed: numpy's own add
    takes it from either operand, depending on where the element falls in
    its vector loop. numpy reduces over the d-long axis once per point;
    this works on whole slices instead, about 9x faster for d = 2.
    """
    x = np.asarray(x)
    s = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        s = s + x[..., k] * x[..., k]
    return np.sqrt(s)


@dataclass(frozen=True)
class WellSpec:
    """The quartic W(x, u) = m(x) |u - a(x)|^2 |u - b(x)|^2 with moving
    wells, analytic derivatives and closed forms; built by
    ``canonical_quartic``.

    ``a``, ``b`` and the positive ``amplitude`` m map positions (..., d)
    -> (...); ``grad_a``, ``grad_b`` and ``grad_amplitude`` map (..., d)
    -> (..., d). ``W`` and ``dW_du`` map (positions or a ``BoundQuartic``,
    u) to (...); ``dW_dx`` maps (positions, u) to (..., d). No separation
    is declared: ``bind``, the sigma routes and the scalar profile routes
    check m > 0 and b - a > 0 at the points they read.
    sigma = sqrt(2 m) gamma^3 / 6 and the equipartitioned profile is
    logistic with rate sqrt(2 m) gamma.
    """

    a: Scalar
    b: Scalar
    amplitude: Scalar
    grad_a: Vector
    grad_b: Vector
    grad_amplitude: Vector
    W: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dW_du: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dW_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def sigma_exact(self, x) -> np.ndarray:
        x = as_points(x)
        m = self.amplitude(x)
        g = _checked_gap(m, self.a(x), self.b(x))
        return np.sqrt(2.0 * m) * g ** 3 / 6.0

    def profile_rate(self, x) -> np.ndarray:
        x = as_points(x)
        m = self.amplitude(x)
        g = _checked_gap(m, self.a(x), self.b(x))
        return np.sqrt(2.0 * m) * g

    def profile_exact(self, x, s) -> np.ndarray:
        rate = self.profile_rate(x)
        return 1.0 / (1.0 + np.exp(-rate * np.asarray(s, dtype=float)))


def _checked_gap(m, a, b):
    """The separation b - a, once the double well is checked: GeometryError
    unless m and b - a are finite and positive at every point. ``bind``,
    the sigma routes and the scalar profile routes check all their
    positions, before any quadrature or profile solve."""
    with np.errstate(invalid="ignore", over="ignore"):
        gap = b - a
    for name, c in (("amplitude m", m), ("separation b - a", gap)):
        lo, hi = float(np.min(c)), float(np.max(c))
        if not (lo > 0 and hi < np.inf):
            raise GeometryError(f"{name} must be finite and positive at "
                                f"every point; it spans [{lo!r}, {hi!r}]")
    return gap


def gamma(spec: WellSpec, x) -> np.ndarray:
    """Well separation b(x) - a(x), unchecked here; ``bind`` checks that
    it is positive on a run's points."""
    x = as_points(x)
    return spec.b(x) - spec.a(x)


def grad_gamma(spec: WellSpec, x) -> np.ndarray:
    x = as_points(x)
    return spec.grad_b(x) - spec.grad_a(x)


def normalized_well(spec: WellSpec, x, v) -> np.ndarray:
    """W_n(x, v) = W(x, a(x) + gamma(x) v); vanishes at v = 0 and v = 1."""
    x = as_points(x)
    v = np.asarray(v, dtype=float)
    u = spec.a(x) + (spec.b(x) - spec.a(x)) * v
    return spec.W(x, u)


def normalized_well_dx(spec: WellSpec, x, v) -> np.ndarray:
    """Spatial partial of the normalized well at frozen v, shape (..., d).

    partial_x W_n = dW_dx(x, u) + dW_du(x, u) (grad_a + v grad_gamma)
    with u = a + gamma v.
    """
    x = as_points(x)
    v = np.asarray(v, dtype=float)
    u = spec.a(x) + (spec.b(x) - spec.a(x)) * v
    drift = spec.grad_a(x) + v[..., None] * grad_gamma(spec, x)
    return spec.dW_dx(x, u) + spec.dW_du(x, u)[..., None] * drift


def _well_integral(spec: WellSpec, x, v: float, tol: float, integrand):
    """int_0^v integrand(p, t) dt at each position p of x, by one adaptive
    quadrature per position.

    ``integrand`` maps one position p, shape (d,), and the (k,) nodes t
    to (k,) values, so each position's integral is its own. Returns an
    array of shape x.shape[:-1], or a float for a single position;
    GeometryError unless every position is in the double well.
    """
    x = as_points(x)
    _checked_gap(spec.amplitude(x), spec.a(x), spec.b(x))
    pts = x.reshape(-1, x.shape[-1])
    val = np.array([adaptive_gauss_legendre(lambda t: integrand(p, t), 0.0,
                                            v, tol=tol)[0] for p in pts])
    val = val.reshape(x.shape[:-1])
    return float(val) if val.ndim == 0 else val


def surface_tension(spec: WellSpec, x, tol: float = 1e-10) -> np.ndarray:
    """sigma(x) = int_{a(x)}^{b(x)} sqrt(2 W(x, s)) ds by adaptive quadrature
    at each position (the u-interval is rescaled to [0, 1], which is exact
    for the affine substitution)."""
    def integrand(p, t):
        # s = a + gamma t, ds = gamma dt; evaluates W itself, not W_n
        a = spec.a(p)
        g = spec.b(p) - a
        return g * np.sqrt(np.maximum(2.0 * spec.W(p, a + g * t), 0.0))

    return _well_integral(spec, x, 1.0, tol, integrand)


def geodesic_distance(spec: WellSpec, x, v: float, tol: float = 1e-10):
    """d_n(x, v) = int_0^v sqrt(2 W_n(x, s)) ds (signed for v < 0) at each
    position of x; d_n(x, 1) is the normalized surface tension sigma_n."""
    def integrand(p, t):
        return np.sqrt(np.maximum(2.0 * normalized_well(spec, p, t), 0.0))

    return _well_integral(spec, x, float(v), tol, integrand)


# ---------------------------------------------------------------------------
# transition profile
# ---------------------------------------------------------------------------

_TAIL = 1e-12


def _reject_nan(s: np.ndarray) -> None:
    """A NaN arclength has no profile value (+-inf clamps to 1/0)."""
    nan = np.count_nonzero(np.isnan(s))
    if nan:
        raise GeometryError(f"profile arclength is NaN at {nan} of "
                            f"{s.size} points")


def optimal_profile(spec: WellSpec, x, s):
    """Transition profile v(s) solving v' = sqrt(2 W_n(x, v))/gamma(x),
    v(0) = 1/2, with x frozen.

    This is the normalized form of du/ds = sqrt(2 W(x, u)), the profile
    that equipartitions the energy pointwise, so u = a + gamma v recovers
    the surface tension exactly in 1-d. Integration is an adaptive
    embedded Runge-Kutta pair; values beyond the window where the tails
    are below 1e-12 clamp to 0/1; a NaN s, and a position where m or
    b - a is not finite and positive, raise GeometryError. The
    exact result is ``spec.profile_exact``, the logistic profile with
    rate sqrt(2 m) gamma.
    """
    from scipy.integrate import solve_ivp
    x = as_points(x)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    _reject_nan(s_arr)
    gam = float(_checked_gap(spec.amplitude(x), spec.a(x), spec.b(x)))

    def rhs(_, v):
        wn = normalized_well(spec, x, float(v[0]))
        return [np.sqrt(max(2.0 * float(wn), 0.0)) / gam]

    def hit_upper(_, v):
        return v[0] - (1.0 - _TAIL)

    def hit_lower(_, v):
        return v[0] - _TAIL

    hit_upper.terminal = True
    hit_lower.terminal = True

    out = np.empty_like(s_arr)
    pos = s_arr > 0
    neg = s_arr < 0
    out[~pos & ~neg] = 0.5

    for mask, span, event, clamp in (
        (pos, (0.0, 1e6), hit_upper, 1.0),
        (neg, (0.0, -1e6), hit_lower, 0.0),
    ):
        if not np.any(mask):
            continue
        sol = solve_ivp(rhs, span, [0.5], method="RK45", events=[event],
                        dense_output=True, atol=1e-10, rtol=1e-10)
        if not sol.success:
            raise NumericError("profile integration failed: " + sol.message)
        s_edge = sol.t[-1]
        ss = s_arr[mask]
        inside = np.abs(ss) <= abs(s_edge)
        vals = np.full(ss.shape, clamp)
        if np.any(inside):
            vals[inside] = sol.sol(ss[inside])[0]
        out[mask] = np.clip(vals, 0.0, 1.0)

    if np.asarray(s, dtype=float).ndim == 0:
        return float(out[0])
    return out


def _tau_knots():
    """The fixed knots 0, 0.1, ..., 34 of the profile march (341 knots),
    built by the sequential additions of a stepping loop, and the width
    and midpoint of each of the 340 steps between them; read-only."""
    knots = [0.0]
    while knots[-1] < 34.0:
        knots.append(min(knots[-1] + 0.1, 34.0))
    tau = np.array(knots)
    step = tau[1:] - tau[:-1]
    mid = tau[:-1] + 0.5 * step
    for table in (tau, step, mid):
        table.flags.writeable = False
    return tau, step, mid


_TAU, _TAU_STEP, _TAU_MID = _tau_knots()
# Rows of an arclength table as the step search reads it: the search
# reaches rows up to 511, and the rows past the last knot hold +inf.
_TABLE_ROWS = 1 << _TAU_STEP.size.bit_length()

# Wells per arclength table and points per search of the profile march:
# a table holds 681 x 64 values of ds/dtau, a search 2^13 points, however
# large the grid. Larger blocks (256 wells, 2^15 points) raised the peak
# memory of a 1-d flow run by 5 % on a 2-core AMD EPYC VM; the profile's
# bits do not depend on them.
_PROFILE_CLASSES = 64
_PROFILE_POINTS = 1 << 13


def _well_classes(a, b, m):
    """Group points by their well for the profile march.

    ``a``, ``b`` and ``m`` are the well's coefficients at the points,
    shape (n,) each. Returns the order that sorts the points by class,
    the class id of each sorted point (int32, nondecreasing) and the
    index of one representative point per class; points of one class
    share the triple (a, b, m) and so W(x, .). Classes are found by
    lexsort, change flags and a cumulative sum.
    """
    keys = (a, b, m)
    order = np.lexsort(keys)
    new = np.zeros(a.size, dtype=bool)
    new[0] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    cls = np.cumsum(new, dtype=np.int32) - 1
    return order, cls, order[new]


def _arclength_table(a, b, m, sgn: float):
    """ds/dtau at the knots, shape (341, wells), and s(tau), shape
    (_TABLE_ROWS, wells), for the wells (a, b, m) on the side sgn of the
    profile; the rows of s past the last knot hold +inf.

    ``quartic_W`` gives ds/dtau at the knots and the step midpoints; s
    is the cumulative sum of the Simpson increments, added in knot order.
    """
    tau = sgn * np.concatenate((_TAU, _TAU_MID))[:, None]
    v = 1.0 / (1.0 + np.exp(-tau))
    g = b - a
    u = a + g * v
    wn = quartic_W(m, u - a, u - b)
    phi = g * v * (1.0 - v) / np.sqrt(np.maximum(2.0 * wn, 1e-300))
    phi, phi_mid = phi[:_TAU.size], phi[_TAU.size:]
    s = np.full((_TABLE_ROWS, phi.shape[1]), np.inf)
    s[0] = 0.0
    np.cumsum((_TAU_STEP / 6.0)[:, None]
              * (phi[:-1] + 4.0 * phi_mid + phi[1:]), axis=0,
              out=s[1:_TAU.size])
    return phi, s


def _invert_profile(phi, s, col, targets, sgn: float) -> np.ndarray:
    """Profile values at positive target arclengths on the side sgn.

    Point i reads column col[i] of the tables of ``_arclength_table``. A
    branchless binary search over the padded table finds the first step k
    with target <= s[k + 1], tracking the flat offset k * wells + col[i];
    four Newton steps invert the cubic Hermite of s(tau) on that step,
    each term written into work arrays allocated once per call. A target
    beyond s at the last knot clamps to 1 (sgn > 0) or 0.
    """
    n_cls = s.shape[1]
    flat_s, flat_phi = s.reshape(-1), phi.reshape(-1)
    last = _TAU_STEP.size
    # off = k * n_cls + col for the largest k with s[k] < target; the rows
    # past the last knot read +inf, so k = last when the target lies
    # beyond the window, else the crossing step
    off = col.astype(np.intp)
    up = np.empty_like(off)
    below = np.empty(off.shape, dtype=bool)
    s_up = np.empty(targets.shape)
    step = 1 << (last.bit_length() - 1)
    while step:
        np.add(off, step * n_cls, out=up)
        # every index is in range; "clip" writes to out unbuffered
        np.take(flat_s, up, out=s_up, mode="clip")
        np.less(s_up, targets, out=below)
        np.copyto(off, up, where=below)
        step >>= 1
    k = off // n_cls
    out = np.full(targets.shape, 1.0 if sgn > 0 else 0.0)
    placed = k < last
    k, tc, lo = k[placed], targets[placed], off[placed]
    h = _TAU_STEP[k]
    p0, p1 = flat_s[lo], flat_s[lo + n_cls]
    m0, m1 = h * flat_phi[lo], h * flat_phi[lo + n_cls]
    t = np.clip((tc - p0) / np.maximum(p1 - p0, 1e-300), 0.0, 1.0)
    omt, omt2, twot, tt, tm1, th, val, der, w = (np.empty_like(t)
                                                  for _ in range(9))
    for _ in range(4):
        np.subtract(1.0, t, out=omt)
        np.multiply(omt, omt, out=omt2)
        np.add(t, t, out=twot)
        np.multiply(t, t, out=tt)
        np.subtract(t, 1.0, out=tm1)
        np.multiply(t, 3.0, out=th)
        # val - tc with val = ((h00 p0 + h10 m0) + h01 p1) + h11 m1
        np.add(twot, 1.0, out=val)     # h00 = (1 + 2t)(1 - t)^2
        val *= omt2
        val *= p0
        np.multiply(t, omt2, out=w)    # h10 = t (1 - t)^2
        w *= m0
        val += w
        np.subtract(3.0, twot, out=w)  # h01 = t^2 (3 - 2t)
        w *= tt
        w *= p1
        val += w
        np.multiply(tt, tm1, out=w)    # h11 = t^2 (t - 1)
        w *= m1
        val += w
        val -= tc
        # der, the same form; 2t is exact, so (2t) 3 is 6t
        d00 = np.multiply(twot, 3.0, out=twot)
        d00 *= tm1                     # d00 = 6t (t - 1)
        np.multiply(d00, p0, out=der)
        np.subtract(1.0, th, out=w)    # d10 = (1 - t)(1 - 3t)
        w *= omt
        w *= m0
        der += w
        np.negative(d00, out=w)        # d01 = -d00
        w *= p1
        der += w
        np.subtract(th, 2.0, out=w)    # d11 = t (3t - 2)
        w *= t
        w *= m1
        der += w
        np.maximum(der, 1e-300, out=der)
        val /= der
        t -= val
        np.clip(t, 0.0, 1.0, out=t)
    tau_star = sgn * (_TAU[k] + t * h)
    out[placed] = 1.0 / (1.0 + np.exp(-tau_star))
    return out


def _mirrored(c: np.ndarray, axis: int) -> bool:
    """Whether ``c`` equals its mirror image along ``axis`` bit for bit;
    +0.0 and -0.0 differ, and so do NaNs of different bits."""
    bits = np.moveaxis(c.view(np.int64), axis, 0)
    half = bits.shape[0] // 2
    return np.array_equal(bits[:half], bits[::-1][:half])


def optimal_profile_grid(well: "BoundQuartic", s: np.ndarray):
    """Frozen-x profile values v(x_i, s_i) for many points at once.

    ``well`` is ``bind(spec, points)``, which has evaluated the well once
    and checked the double well at every point, and ``s`` the arclengths
    there. Each coefficient is 0-d (``bind`` collapses a constant one) or
    of s's shape, else ValueError.

    Substitutes v = 1/(1 + exp(-tau)), where
    ds/dtau = gamma v(1-v)/sqrt(2 W_n(x, v)) is bounded and smooth, and
    takes s(tau) on the fixed knots tau = 0, 0.1, ..., 34 by Simpson's
    rule per step. Per distinct well the quartic formula ``quartic_W``
    gives ds/dtau at the 341 knots and 340 step midpoints, and a
    cumulative sum gives s at the knots, padded with +inf to 512 rows.
    Each point then finds its step by one branchless binary search in
    its well's padded table, nine rounds of an add, a gather, a compare
    and a select on its flat table offset, and inverts the local cubic
    Hermite there by four Newton steps whose terms go into work arrays
    allocated once per point block. Exact up to roundoff, since ds/dtau =
    1/(sqrt(2 m) gamma) is constant in tau for the quartic. Targets
    beyond the window (tails below 1e-14) clamp to 0/1; a NaN target
    raises GeometryError.

    Points are grouped by (a, b, m), so a well that varies along one axis
    of an n^d grid builds n tables, and a constant well one. Tables are
    built for at most _PROFILE_CLASSES wells and searched by at most
    _PROFILE_POINTS points at a time, which bounds the temporaries for
    any grid.

    Mirror rule: along each axis of s in turn, where s, a, b and m each
    equal their own mirror image bit for bit (compared as int64, so +0.0
    and -0.0 differ), only the leading ceil(n/2) slices are solved, the
    next axis is tested on that half, and the trailing slices are the
    leading ones flipped. This keeps every bit: a point's value reads
    only its target and its class's table, a table only its class's
    (a, b, m), and a mirrored point has the same target and class as its
    image (the blocks do not move a bit either). On the unit box with a
    power-of-two number of cells per axis (every 2-d registry grid), the
    cell centres of ``Grid.points`` are mirror-symmetric about 1/2, so a
    centred disk gives a constant well a quarter of the work and a well
    that moves along one axis a half. Other inputs pay one compare per
    axis.

    Agrees with optimal_profile to solver tolerance; kept vectorized so
    diffuse states can be built on large grids.
    """
    s = np.asarray(s, dtype=float)
    for c in (well.a, well.b, well.m):
        if np.ndim(c) and np.shape(c) != s.shape:
            raise ValueError(f"well coefficients of shape {np.shape(c)} do "
                             f"not match arclengths of shape {s.shape}")
    _reject_nan(s)
    a, b, m = (np.broadcast_to(np.asarray(c, dtype=float), s.shape)
               for c in (well.a, well.b, well.m))

    mirrored = []
    for ax in range(s.ndim):
        n = s.shape[ax]
        if n > 1 and all(_mirrored(c, ax) for c in (s, a, b, m)):
            lead = (slice(None),) * ax + (slice(n - n // 2),)
            # copies, so the solve reads flat views
            s, a, b, m = (np.ascontiguousarray(c[lead]) for c in (s, a, b, m))
            mirrored.append((ax, n))
    out = _solve_profile(s, a, b, m)
    for ax, n in reversed(mirrored):
        # the image of slice j < n // 2 is slice n - 1 - j
        tail = np.flip(out, ax)[(slice(None),) * ax + (slice(n % 2, None),)]
        out = np.concatenate((out, tail), axis=ax)
    return out


def _solve_profile(s, a, b, m) -> np.ndarray:
    """The profile march of ``optimal_profile_grid`` at arclengths ``s``
    for the well coefficients ``a``, ``b`` and ``m``, each of s's shape;
    1/2 where s = 0."""
    flat_s, a, b, m = (c.reshape(-1) for c in (s, a, b, m))
    out = np.full(flat_s.shape, 0.5)
    for sgn in (1.0, -1.0):
        active = np.flatnonzero(sgn * flat_s > 0)
        if active.size == 0:
            continue
        order, cls, rep = _well_classes(a[active], b[active], m[active])
        a_c, b_c, m_c = (c[active[rep]] for c in (a, b, m))
        active = active[order]
        targets = sgn * flat_s[active]
        for c0 in range(0, rep.size, _PROFILE_CLASSES):
            c = slice(c0, c0 + _PROFILE_CLASSES)
            phi, s_tab = _arclength_table(a_c[c], b_c[c], m_c[c], sgn)
            lo, hi = np.searchsorted(cls, (c0, c0 + _PROFILE_CLASSES))
            for p0 in range(lo, hi, _PROFILE_POINTS):
                p = slice(p0, min(p0 + _PROFILE_POINTS, hi))
                out[active[p]] = _invert_profile(phi, s_tab, cls[p] - c0,
                                                 targets[p], sgn)

    return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# quartic family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundQuartic:
    """The coefficients of a quartic well on fixed positions.

    ``m``, ``a`` and ``b`` are the amplitude and the two wells, evaluated
    once on the positions given to ``bind``. There a coefficient whose
    entries all have the same bits is a 0-d scalar: a scalar 1.0 or 0.0
    gives the same bits as the array it replaces and saves its
    arithmetic; the descent kernel then drops the u - a pass of a +0.0
    and the * m pass of a 1.0. The spec's ``W`` and ``dW_du`` take it in
    place of the positions, and build an uncollapsed one when given
    positions.
    """

    m: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _collapse(c) -> np.ndarray:
    """``c`` as a 0-d scalar when all its entries have the same bits."""
    flat = np.ascontiguousarray(c, dtype=float).reshape(-1)
    if flat.size and np.all(flat.view(np.int64) == flat[:1].view(np.int64)):
        return flat[0]
    return np.asarray(c, dtype=float)


def bind(spec: WellSpec, pts) -> BoundQuartic:
    """The well bound to fixed positions, for repeated W/dW_du calls.

    A run or a descent evaluates W(x, u) and dW_du(x, u) many times on
    the same positions x with changing u. This evaluates m(x), a(x) and
    b(x) once and returns them as a ``BoundQuartic``;
    ``spec.W(bound, u)`` and ``spec.dW_du(bound, u)`` then give the same
    bits as ``spec.W(pts, u)`` and ``spec.dW_du(pts, u)``. Every run binds
    its well, so the double well is checked here: GeometryError unless m
    and b - a are finite and positive at every position.
    """
    pts = as_points(pts)
    well = BoundQuartic(*(_collapse(f(pts))
                          for f in (spec.amplitude, spec.a, spec.b)))
    _checked_gap(well.m, well.a, well.b)
    return well


def quartic_W(m, da, db):
    """The quartic m (u - a)^2 (u - b)^2 from the differences da = u - a
    and db = u - b, evaluated as (m da^2) db^2.

    ``da`` and ``db`` are two scratch arrays (or scalars) the caller
    gives up. When ``da`` is an array of the result's shape, the terms
    are formed in place and ``da`` is returned, so nothing is allocated,
    as numpy's temporary elision does for the expression written with
    the differences inline. Otherwise the expression allocates. Both
    square by multiplication (an array's ``**= 2`` is x * x), so a point
    evaluated alone has the bits it has inside an array.
    """
    if isinstance(da, np.ndarray) \
            and da.shape == np.broadcast(m, da, db).shape:
        da **= 2
        da *= m
        db **= 2
        da *= db
        return da
    return m * (da * da) * (db * db)


def quartic_dW_du(m2, da, db, out=None):
    """Its u-partial 2 m (u - a)(u - b)(2u - a - b) from m2 = m * 2.0, da
    and db, evaluated as ((m2 da) db)(da + db). With ``out``, a pair of
    arrays of the result's shape, the product goes into the first, which
    is returned, and da + db into the second: the same bits, with nothing
    allocated. The first must be neither da nor db; the second may be
    db, which the caller then gives up (da + db is formed after the last
    read of db). ``da`` is kept, and so is ``db`` unless it is the
    second array.
    """
    if out is None:
        return m2 * da * db * (da + db)
    dw, s = out
    np.multiply(m2, da, out=dw)
    dw *= db
    dw *= np.add(da, db, out=s)
    return dw


def canonical_quartic(a, grad_a, b, grad_b,
                      amplitude=None, grad_amplitude=None) -> WellSpec:
    """Quartic double well with moving wells and optional amplitude m(x).

    ``W`` and ``dW_du`` take either positions or a ``BoundQuartic`` from
    ``bind``. Positions are bound on the spot, without collapsing, so
    both forms go through the one formula, ``quartic_W`` and
    ``quartic_dW_du``, and give the same bits.
    """
    if amplitude is None:
        amplitude, grad_amplitude = _coefficient(1.0)
    if grad_amplitude is None:
        raise ValueError("grad_amplitude required when amplitude is given")

    def coefficients(x) -> BoundQuartic:
        if isinstance(x, BoundQuartic):
            return x
        return BoundQuartic(amplitude(x), a(x), b(x))

    def W(x, u):
        c = coefficients(x)
        return quartic_W(c.m, u - c.a, u - c.b)

    def dW_du(x, u):
        c = coefficients(x)
        return quartic_dW_du(c.m * 2.0, u - c.a, u - c.b)

    def dW_dx(x, u):
        da, db = u - a(x), u - b(x)
        well = -2.0 * (da * db ** 2)[..., None] * grad_a(x) \
               - 2.0 * (da ** 2 * db)[..., None] * grad_b(x)
        return (da ** 2 * db ** 2)[..., None] * grad_amplitude(x) \
            + amplitude(x)[..., None] * well

    return WellSpec(a=a, b=b, amplitude=amplitude, grad_a=grad_a,
                    grad_b=grad_b, grad_amplitude=grad_amplitude,
                    W=W, dW_du=dW_du, dW_dx=dW_dx)


def _coefficient(c0: float, slope: float = 0.0):
    """The coefficient c0 + slope * x_0 and its gradient, as position
    callables; a zero slope gives the constant c0 * 1."""
    if slope == 0:
        def value(x):
            return c0 * np.ones(np.shape(x)[:-1])
    else:
        def value(x):
            return c0 + slope * x[..., 0]

    def grad(x):
        g = np.zeros(np.shape(x))
        g[..., 0] = slope
        return g

    return value, grad


def constant_quartic() -> WellSpec:
    """The unit quartic: wells 0 and 1, amplitude 1."""
    return canonical_quartic(*_coefficient(0.0), *_coefficient(1.0))


def affine_scaled_quartic(offset: float = 1.0, slope: float = 1.0) -> WellSpec:
    """Quartic with wells 0, 1 and amplitude m(x) = offset + slope * x_0.

    Gives the heterogeneous surface tension
    sigma(x) = sqrt(2 (offset + slope x_0)) / 6.
    """
    return canonical_quartic(*_coefficient(0.0), *_coefficient(1.0),
                             *_coefficient(offset, slope))


def exp_scaled_quartic(kappa: float) -> WellSpec:
    """Quartic with wells 0, 1 and amplitude m(x) = exp(2 kappa x_0).

    sigma(x) = (sqrt(2)/6) exp(kappa x_0), so a flat 1-d interface
    drifts with exact speed -kappa (sigma'/sigma = kappa).
    """
    def m(x):
        return np.exp(2.0 * kappa * x[..., 0])

    def grad_m(x):
        g = np.zeros(np.shape(x))
        g[..., 0] = 2.0 * kappa * np.exp(2.0 * kappa * x[..., 0])
        return g

    return canonical_quartic(*_coefficient(0.0), *_coefficient(1.0),
                             m, grad_m)


def linear_wells_quartic(a0: float, a_slope: float, b0: float,
                         b_slope: float) -> WellSpec:
    """Canonical quartic whose wells move linearly along x_0."""
    return canonical_quartic(*_coefficient(a0, a_slope),
                             *_coefficient(b0, b_slope))
