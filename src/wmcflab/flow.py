"""Time integration of the heterogeneous Allen-Cahn equation.

Two schemes advance du/dt = Lap u - dW_du(x, u)/eps^2 with zero-flux
boundaries, each through one entry point:

  * ``run``: semi-implicit splitting (diffusion implicit, reaction
    explicit), stable for dt <= eps^2 / L where L bounds |d2W/du2| on the
    invariant box. It checks the step and the stability bound once and
    hands the steps to one private kernel, ``_march``, which builds the
    per-run operators and its work arrays once, solves each step
    directly in the cosine basis, into its row of the block's state
    stack, and returns a ``RunResult``. The solve calls pocketfft's
    kernel past ``scipy.fft``'s dispatch if, checked once per run, it
    has the bits of ``scipy.fft``, else ``scipy.fft`` (``_bind_solve``);
  * ``step_minmov``: one minimizing-movements step, which minimizes
        (1/eps) E[u] + 1/(2 dt) ||u - u_prev||_L2^2,
    giving exact per-step energy decay and, for wells monotone outside a
    box, a maximum principle via clamp comparison. Callers loop over it.

Each entry point binds the well to the grid once (``wells.bind``): the
well's m(x), a(x) and b(x) are evaluated on the cell centers at the
start of the run or descent, and every W/dW_du evaluation after that
takes the bound coefficients instead of the positions. The run kernel
forms u - a and u - b once per state and evaluates dW_du (for the next
step, in place) and, once per block, W (for the ledger) from them with
``wells.quartic_dW_du`` and ``wells.quartic_W``, the formula the spec's
closures call, so every stepped value has the bits of the closures.

One descent kernel, ``_bb_descent`` (Barzilai-Borwein steps under a
nonmonotone Armijo line search), has two callers: ``step_minmov``
(unconstrained, one minimizing-movements step) and
``minimize_constrained`` (projected onto mean(u) = mass). It is the
descent analogue of ``_march``: its work arrays are allocated once per
descent and rotated, and u - a and u - b of each trial feed both that
trial's energy and, once the trial is accepted, its gradient (through
``wells.quartic_dW_du``'s in-place form), in the operation order of
the spec's closures, so every iterate has the bits
of a descent written through ``spec.W``, ``spec.dW_du`` and
``energy_face``. Passes whose result is known are skipped, exactly:
u - a for a = +0.0, x * m for m = 1.0 (``constant_quartic``'s defaults)
and, on a dyadic grid, the Laplacian's division (an exact product).
Only a descent's first gradient goes through ``laplacian_neumann`` of a
``Field``, which checks u0; every later one calls the stencil core
``grid._laplacian`` into the kernel's own scratch arrays, with no
``Field`` and no new array. An accepted trial is checked for finiteness
only when its J is not finite, since a finite J implies a finite trial
whose Laplacian cannot overflow (within the bounds ``_bb_descent``
states; past them every gradient is checked). Every pass writes into an
operand that is dead after it where there is one, and squares with
``np.square``.

E_eps has one quadrature, the face-difference sum ``energy_face``, whose
exact L2-gradient is W_u/eps - eps times the compact 3/5-point Neumann
Laplacian: the schemes descend it, the ledger inequalities are exact for
it, and ``Reading.energy`` sums it from a reading's own W. A ``Reading``
of a state (W and the centered-difference |grad u|, evaluated once) also
serves the equipartition diagnostics of ``variations``, which read |grad
u| pointwise.

``run`` records every step in a ``DissipationLedger``; one append is
O(1). Its defect is summed once, by ``math.fsum`` of the dissipation
increments, when it is read.

The run kernel forms the ledger per block of steps (``_BLOCK_CELLS``
cells), stacked on a leading axis, with the ``laplacian_neumann``,
``quartic_W`` and ``_face_energy`` of one state: elementwise passes and
numpy's pairwise row sums of a C-contiguous stack keep the bits.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import NumericError
from .grid import (Field, FieldStack, Grid, _check_finite, _laplacian,
                   gradient_neumann, laplacian_neumann)
from .wells import BoundQuartic, WellSpec, bind, quartic_W, quartic_dW_du


@dataclass(frozen=True)
class PhaseState:
    """Order parameter snapshot: field, interface width, simulation time."""

    u: Field
    eps: float
    time: float = 0.0

    def replace(self, values: np.ndarray, time: Optional[float] = None) -> "PhaseState":
        return PhaseState(Field(self.u.grid, values), self.eps,
                          self.time if time is None else time)


class Reading(NamedTuple):
    """One reading of a diffuse state: its values u, the well values
    W(x, u) and the centered-difference |grad u| on its grid. The energy,
    the equipartition defect and the localized densities of the state are
    all formed from these arrays. W and |grad u| are a snapshot; ``values``
    is the state's own array, not a copy."""

    values: np.ndarray
    w: np.ndarray
    grad_norm: np.ndarray
    eps: float
    grid: Grid

    def energy(self) -> float:
        """``energy_face`` of the state, summed from the reading's W."""
        return _face_energy(self.w, self.values, self.grid, self.eps)


def read(state: PhaseState, spec: WellSpec,
         x: Union[np.ndarray, BoundQuartic]) -> Reading:
    """Evaluate W and |grad u| of ``state`` once. ``x`` is positions or a
    bound well: ``state.u.grid.points()`` or ``wells.bind`` of the spec
    to them, passed by a caller that already holds it; both give the same
    bits."""
    u = state.u.values
    return Reading(u, spec.W(x, u), gradient_neumann(state.u).norm(),
                   state.eps, state.u.grid)


def energy_face(values: np.ndarray, grid: Grid, eps: float,
                spec: WellSpec, bound: BoundQuartic) -> float:
    """Discrete energy with face-difference gradient quadrature.

    ``bound`` is ``wells.bind(spec, grid.points())``, bound once by the
    caller that evaluates the energy many times on one grid.
    """
    return _face_energy(spec.W(bound, values), values, grid, eps)


def _face_energy(w: np.ndarray, values: np.ndarray, grid: Grid,
                 eps: float, work: Optional[np.ndarray] = None):
    """``energy_face`` from the well values w = W(x, values).

    ``values`` is one state, or a stack of states along a leading axis
    that gets the array of their energies (``_sums``). The face
    differences go into ``work`` when it is given: a C-contiguous scratch
    array of the values' shape, which may be ``w`` itself (w is summed
    first).
    """
    lead = values.ndim - grid.dim
    total = _sums(w, lead) / eps
    h = grid.spacing
    for axis in range(-grid.dim, 0):
        total += 0.5 * eps * _sum_sq(
            _face_difference(values, axis, work), lead) / h[axis] ** 2
    return total * grid.cell_volume


def _face_difference(values: np.ndarray, axis: int,
                     work: Optional[np.ndarray]) -> np.ndarray:
    """values[i+1] - values[i] along the last (``axis`` -1) or last but
    one (-2) axis: a new array, or, with ``work`` given, a C-contiguous
    view of its leading cells, which sums as a new array does."""
    hi, lo = ((values[..., 1:], values[..., :-1]) if axis == -1
              else (values[..., 1:, :], values[..., :-1, :]))
    if work is None:
        return hi - lo
    out = work.reshape(-1)[:lo.size].reshape(lo.shape)
    return np.subtract(hi, lo, out=out)


def _sum_sq(d: np.ndarray, lead: int = 0):
    """``_sums`` of the squares of the scratch array ``d``, in place."""
    return _sums(np.square(d, out=d), lead)


def _sums(x: np.ndarray, lead: int):
    """The sum of the C-contiguous ``x`` as a float or, with ``lead`` 1,
    the pairwise sums of its slabs x[i], each ``float(x[i].sum())``."""
    return float(x.sum()) if lead == 0 else x.reshape(len(x), -1).sum(axis=1)


def reaction_lipschitz(spec: WellSpec, grid: Grid, box,
                       max_pts: int = 4096) -> float:
    """Estimate max |d2W/du2| over grid x box by differencing dW_du at 41
    evenly spaced values of u.

    A grid of more than ``max_pts`` cells is sampled on a sub-lattice of
    at most ``max_pts`` points, evenly spaced along each axis and holding
    the first and last cell of every axis, so a well that is monotone
    along an axis is sampled at both ends of it. The well is bound once
    to the sampled points and u varies along a new trailing axis.
    """
    pts = grid.points()
    if math.prod(grid.cells) > max_pts:
        per_axis = max_pts if grid.dim == 1 else math.isqrt(max_pts)
        idx = [np.linspace(0, n - 1, min(n, per_axis)).round().astype(int)
               for n in grid.cells]
        pts = pts[np.ix_(*idx)]
    bound = bind(spec, pts.reshape(-1, 1, grid.dim))
    us = np.linspace(box[0], box[1], 41)
    delta = 1e-5 * max(1.0, box[1] - box[0])
    d2 = (spec.dW_du(bound, us + delta)
          - spec.dW_du(bound, us - delta)) / (2 * delta)
    return float(np.max(np.abs(d2)))


def _dct_eigenvalues(grid: Grid):
    """Eigenvalues of the mirrored-ghost Laplacian in the cosine basis."""
    h = grid.spacing
    lams = []
    for ax, n in enumerate(grid.cells):
        k = np.arange(n)
        lams.append(-4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / h[ax] ** 2)
    if grid.dim == 1:
        return lams[0]
    return lams[0][:, None] + lams[1][None, :]


def _spectral_denominator(grid: Grid, dt: float) -> np.ndarray:
    """Symbol 1 - dt lam of (I - dt Lap) in the cosine basis."""
    return 1.0 - dt * _dct_eigenvalues(grid)


def _spectral_solve(denom: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of (I - dt Lap) u = rhs given its symbol ``denom``
    (see ``_spectral_denominator``); the mirrored Neumann stencil
    diagonalizes exactly in the DCT-II basis. The reference route, and
    the fallback of ``_bind_solve``, which gives the same bits."""
    from scipy.fft import dctn, idctn
    coeff = dctn(rhs, type=2, norm="ortho")
    coeff /= denom
    return idctn(coeff, type=2, norm="ortho", overwrite_x=True)


def _bind_solve(denom: np.ndarray):
    """``_spectral_solve`` with ``denom`` bound, as a function of rhs and
    ``out`` (rhs's shape), which takes the solution and is returned,
    calling pocketfft's cosine kernel with the arguments ``scipy.fft``
    passes it (type 2 into ``out``, then 3 in place; all axes;
    orthonormal; one thread). The kernel is private to SciPy, so a probe
    is solved both ways first, by that call: if the kernel does not
    import, raises TypeError, returns another array or differs in any
    bit, this returns the ``scipy.fft`` route, which copies into ``out``."""
    def reference(rhs, out):
        np.copyto(out, _spectral_solve(denom, rhs))
        return out

    try:
        from scipy.fft._pocketfft.pypocketfft import dct
    except ImportError:
        return reference
    axes = tuple(range(denom.ndim))

    def solve(rhs, out):
        coeff = dct(rhs, 2, axes, 1, out, 1, None)
        coeff /= denom
        return dct(coeff, 3, axes, 1, coeff, 1, None)

    # generic values: no symmetry, no zeros, full mantissas
    probe = np.cos(np.arange(denom.size) * 0.7548776662466927)
    probe = probe.reshape(denom.shape)
    out = np.empty_like(probe)
    try:
        got = solve(probe, out)
    except TypeError:
        return reference
    want = reference(probe, np.empty_like(probe))
    return solve if got is out and got.tobytes() == want.tobytes() \
        else reference


# ---------------------------------------------------------------------------
# minimizing movements
# ---------------------------------------------------------------------------

@dataclass
class MinMovRecord:
    time: float
    energy: float            # face-form E after the step
    movement_sq: float       # ||u_i - u_{i-1}||_{L2}^2
    slack: float             # E_prev - E_new - (eps/2h)||du||^2, >= 0
    inner_residual: float
    iterations: int


def _bb_descent(u0, grid, eps, bound, alpha0, max_iter, tol, mass=None,
                anchor=None, h_step=None, obj_tol=None):
    """Barzilai-Borwein descent with nonmonotone Armijo backtracking.

    The module's one descent loop, with two callers:

    * ``step_minmov`` passes ``anchor`` (the previous state) and
      ``h_step``, and descends J(u) = E(u)/eps + ||u - anchor||^2/(2 h)
      freely along -g. It stops once the L2 norm of g is at most
      ``tol``, or once J changes by at most ``obj_tol`` relative in one
      iteration.
    * ``minimize_constrained`` passes ``mass`` and descends J(u) = E(u).
      Every iterate and trial is shifted to mean(u) = mass, and the
      search direction is the mean-free part of -g. It stops only once
      the standard deviation of g is at most ``tol`` (the multiplier
      field is flat to its tolerance).

    E is ``energy_face`` of the well ``bound`` on ``grid``. Each
    iteration first tests the gradient g at the current iterate and
    stops if it is stationary. Otherwise it steps from the BB step
    length, halving the step (at most 60 times) until J is below the
    Armijo line from the largest of the last 10 values of J.

    The arithmetic is bit for bit that of the objective and gradient
    written through ``energy_face``, ``spec.dW_du`` and
    ``laplacian_neumann``, with less dispatch around it:

    * the work arrays are allocated once per descent and rotated. They
      are: the iterate u and the previous one; the gradient g and the
      previous one; the centred gradient (constrained only); u - a
      (unless skipped, see below) and u - b; and two scratch arrays s1
      and s2. The BB step writes its differences u - u_prev and
      g - g_prev into u_prev and g_prev, which are dead after it; u_prev
      then takes the trials, and g_prev the next gradient;
    * J of a trial keeps that trial's u - a and u - b, evaluating W from
      them without consuming them in the order of ``wells.quartic_W``;
      the gradient of the accepted trial takes its reaction from the
      same differences through ``wells.quartic_dW_du``'s in-place form,
      with 2m formed once per descent and (u - a) + (u - b) written into
      u - b, which the gradient gives up;
    * the first gradient goes through ``laplacian_neumann`` of a
      ``Field``, which checks u0. Every later one calls the stencil core
      ``grid._laplacian`` into s1, with s2 as its scratch: no ``Field``
      and no new array (see below for why no check is lost);
    * every pass writes into one of its own dead operands where there is
      one, and squares with ``np.square`` (x * x, one rounding, as
      ``np.multiply(x, x)`` but cheaper);
    * known passes are skipped: u - a for a scalar a with the bits of
      +0.0 (v - (+0.0) is v; v - (-0.0) turns -0.0 into +0.0), and W's
      product with m for m = 1.0 (x * 1.0 is x);
    * one mean of g feeds both the stationarity test and the direction;
      each mean is ``np.mean``'s own arithmetic, a sum then a division.

    A constrained iteration makes about 43 array passes: 6 to test g and
    take the slope, 6 for the BB step, per trial 4 to form it and 11 for
    J, and 16 for the gradient (9 of them in the stencil; a ``Field``
    would add 4 more, two finiteness checks of two passes). At 256^2 a
    binary pass into one of its own operands costs about 21 us, one into
    a third array about 50 us, ``np.square`` 16 us against 38 us for
    ``np.multiply(x, x)``, and a ``Field`` of the iterate 18-30 us.

    Finiteness is checked as ``laplacian_neumann`` of a ``Field`` of
    every accepted iterate would check it, which the reference written
    through the closures does: ValueError if the iterate or its
    Laplacian is not finite. u0 is checked by the first gradient. An
    accepted trial whose J is finite is finite itself, since every cell
    enters J through W's quartic (an inf or NaN cell makes its W, and so
    J, inf or NaN); so the trial is checked (``grid._check_finite``)
    only when J is not finite. A finite J also bounds |u - a| (W's
    (u - a)^2 is finite) and every face difference (E's sums of their
    squares over h_k^2 are finite). Where h_k >= 1e-50, eps >= 1e-100
    and |a|, |b| <= 1e200 these bounds keep the Laplacian below 1e290,
    so it cannot overflow; on any other grid, eps or well every gradient
    goes through ``laplacian_neumann`` of a ``Field``, as the first.

    If all 60 halvings fail, the descent stops at the current iterate;
    the caller judges that iterate by its gradient. Returns
    (u, J, g, iterations) with J and g the objective and gradient at u,
    in arrays of this descent. Raises NumericError after ``max_iter``
    iterations without a stop.
    """
    constrained = mass is not None
    m, a, b = bound.m, bound.a, bound.b
    m2 = m * 2.0
    a_zero = np.ndim(a) == 0 and a == 0.0 and math.copysign(1.0, a) > 0
    m_one = np.ndim(m) == 0 and m == 1.0
    vol = grid.cell_volume
    # the bounds under which a finite J keeps the Laplacian finite
    lap_bounded = (float(np.min(grid.spacing)) >= 1e-50 and eps >= 1e-100
                   and all(np.max(np.abs(w)) <= 1e200 for w in (a, b)))
    u, u_prev, g, g_prev, db, s1, s2 = (
        np.empty(grid.cells) for _ in range(7))
    da = None if a_zero else np.empty(grid.cells)
    centred = np.empty(grid.cells) if constrained else None

    def objective(v):
        """J at v; leaves v - a in da (unless a_zero) and v - b in db."""
        d = v if a_zero else np.subtract(v, a, out=da)
        np.subtract(v, b, out=db)
        np.square(d, out=s1)
        if not m_one:
            np.multiply(s1, m, out=s1)
        np.square(db, out=s2)
        np.multiply(s1, s2, out=s1)
        e = _face_energy(s1, v, grid, eps, work=s1)
        if constrained:
            return e
        np.subtract(v, anchor, out=s2)
        return e / eps + _sum_sq(s2) * vol / (2 * h_step)

    def gradient(v, out, checked):
        """The gradient at v into ``out``, from the da and db of v (db is
        consumed); ``checked`` takes the Laplacian through a ``Field``."""
        quartic_dW_du(m2, v if a_zero else da, db, out=(out, db))
        out /= eps
        if checked:
            laplacian_neumann(Field(grid, v), out=s1)
        else:
            _laplacian(v, grid, s1, s2)
        np.multiply(s1, eps, out=s1)
        out -= s1
        if not constrained:
            out /= eps
            np.subtract(v, anchor, out=s1)
            np.divide(s1, h_step, out=s1)
            out += s1

    np.copyto(u, u0)
    if constrained:
        u += mass - float(u.sum()) / u.size
    J = objective(u)
    gradient(u, g, checked=True)
    recent = [J]
    alpha = alpha0
    for it in range(max_iter):
        # stationarity, and the slope gd of J along the direction -c
        if constrained:
            c = centred
            np.subtract(g, float(g.sum()) / g.size, out=c)
            np.square(c, out=s1)
            # the standard deviation of g, as np.std forms it
            if math.sqrt(float(s1.sum()) / g.size) <= tol:
                return u, J, g, it
            np.multiply(g, c, out=s1)
            gd = -float(s1.sum()) * vol
        else:
            c = g
            np.square(g, out=s1)
            gg = float(s1.sum())
            if math.sqrt(gg * vol) <= tol:
                return u, J, g, it
            gd = -gg * vol
        # Barzilai-Borwein step from the previous displacement pair, its
        # differences written into the dead u_prev and g_prev
        if it > 0:
            np.subtract(u, u_prev, out=u_prev)
            np.subtract(g, g_prev, out=g_prev)
            g_prev *= u_prev
            sy = float(g_prev.sum()) * vol
            ss = _sum_sq(u_prev) * vol
            if sy > 1e-300:
                alpha = min(max(ss / sy, 1e-6 * alpha0), 1e6 * alpha0)
        trial = u_prev
        ref = max(recent)
        step = alpha
        for _ in range(60):
            np.multiply(c, -step, out=trial)
            trial += u
            if constrained:
                trial += mass - float(trial.sum()) / trial.size
            J_trial = objective(trial)
            if J_trial <= ref + 1e-4 * step * gd:
                break
            step *= 0.5
        else:
            return u, J, g, it
        u_prev, u = u, trial
        g_prev, g = g, g_prev
        if not math.isfinite(J_trial):
            _check_finite(u)
        gradient(u, g, checked=not lap_bounded)
        recent.append(J_trial)
        if len(recent) > 10:
            recent.pop(0)
        if obj_tol is not None \
                and abs(J - J_trial) <= obj_tol * max(1.0, abs(J_trial)):
            return u, J_trial, g, it + 1
        J = J_trial
    raise NumericError("descent did not converge within the iteration budget",
                       last_iterate=u)


def step_minmov(state: PhaseState, spec: WellSpec, h_step: float,
                trunc: Optional[float] = None):
    """One minimizing-movements step of at most 2000 descent iterations.

    Returns (new_state, MinMovRecord). The record's slack certifies the
    exact minimality comparison against the previous iterate; with
    ``trunc`` = C0 given (wells monotone outside [-C0, C0]) the clamped
    candidate is taken whenever it does not increase the objective, which
    enforces the maximum principle exactly. Raises NumericError, with the
    descent's iterate as ``last_iterate``, when the gradient norm there is
    not finite.
    """
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    grid = state.u.grid
    bound = bind(spec, grid.points())
    eps = state.eps
    u_prev = state.u.values
    vol = grid.cell_volume

    def objective(u):
        # the descent's J, for the comparisons after it
        move = float(np.sum((u - u_prev) ** 2)) * vol
        return energy_face(u, grid, eps, spec, bound) / eps \
            + move / (2 * h_step)

    lw = reaction_lipschitz(spec, grid,
                            (float(np.min(u_prev)) - 0.5,
                             float(np.max(u_prev)) + 0.5))
    lip = lw / eps ** 2 + 4 * grid.dim / float(np.min(grid.spacing)) ** 2 \
        + 1.0 / h_step
    u, J, g, iters = _bb_descent(u_prev, grid, eps, bound, alpha0=1.0 / lip,
                                 max_iter=2000, tol=1e-9, anchor=u_prev,
                                 h_step=h_step, obj_tol=1e-12)
    gnorm = np.sqrt(float(np.sum(g * g)) * vol)
    if not np.isfinite(gnorm):
        raise NumericError("minimizing-movements descent reached a "
                           "non-finite gradient", achieved=gnorm,
                           last_iterate=u)
    J_prev = objective(u_prev)
    if J > J_prev:
        u, J = u_prev.copy(), J_prev
    if trunc is not None:
        clamped = np.clip(u, -trunc, trunc)
        J_clamped = objective(clamped)
        if J_clamped <= J:
            u, J = clamped, J_clamped
    move_sq = float(np.sum((u - u_prev) ** 2)) * vol
    slack = eps * (J_prev - J)  # = E_prev - E_new - (eps/2h)||du||^2 exactly
    e_new = energy_face(u, grid, eps, spec, bound)
    record = MinMovRecord(time=state.time + h_step, energy=e_new,
                          movement_sq=move_sq, slack=slack,
                          inner_residual=gnorm, iterations=iters)
    return state.replace(u, time=state.time + h_step), record


# ---------------------------------------------------------------------------
# runs and dissipation bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class DissipationLedger:
    """Per-step energy and dissipation records of a gradient-flow run.

    ``final_defect`` is |E(0) - E(T) - sum of eps ||du/dt||^2 dt| at the
    last step (``run`` records at least one), the discrete residue of the
    optimal dissipation identity; it vanishes at first order in dt for
    consistent schemes. The sum is ``math.fsum`` of
    ``dissipation_increments``, formed when the defect is read, so
    ``append`` only records.
    """

    e_initial: float
    steps: list = field(default_factory=list)
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    dissipation_increments: list = field(default_factory=list)
    inner_residuals: list = field(default_factory=list)

    def append(self, step, time, energy_val, increment, residual):
        self.steps.append(step)
        self.times.append(time)
        self.energies.append(energy_val)
        self.dissipation_increments.append(increment)
        self.inner_residuals.append(residual)

    @property
    def final_defect(self) -> float:
        return abs(self.e_initial - self.energies[-1]
                   - math.fsum(self.dissipation_increments))


class RunResult(NamedTuple):
    """What ``run`` returns, whatever its arguments."""

    state: PhaseState          # state at t_end
    ledger: DissipationLedger  # one record per step
    snapshots: list            # states right after each snapshot time


def run(state: PhaseState, spec: WellSpec, dt: float, t_end: float,
        snapshot_times=()) -> RunResult:
    """Advance to t_end by semi-implicit steps, recording the ledger.

    Each step solves
    (I - dt Lap) u_new = u_old - (dt/eps^2) dW_du(x, u_old)
    directly in the cosine basis, where the mirrored-ghost Neumann
    Laplacian of the uniform grid is diagonal. The ledger's
    ``inner_residuals`` hold the L2 residual of that system on every
    step, so each direct solve is checked against the stencil it
    inverts, a block of steps at a time (a ``FieldStack``). Every new
    state is checked as a ``Field`` is, so a non-finite state raises
    ValueError on the step that produced it. The well is bound to the
    cell centers once per run, and the steps run in ``_march`` with work
    arrays allocated once per run; each returned state owns its array.

    ``dt`` must divide t_end - state.time (to 1e-9 dt) into at least
    one step and must not exceed the stability bound eps^2 / L_W on the
    initial value box; otherwise ValueError. A step reaches a snapshot time t once its time
    is at least t - 1e-12. ``snapshots`` holds, for each entry of
    ``snapshot_times`` in increasing order, the first state that reaches
    it (empty when none are asked for). Every entry must lie in
    (state.time, t_end] under that slack, so that the initial state does
    not reach it and the final one does; otherwise ValueError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end <= state.time:
        raise ValueError("t_end must exceed the current time")
    bad = [t for t in snapshot_times
           if not state.time + 1e-12 < t <= t_end + 1e-12]
    if bad:
        raise ValueError(f"snapshot times {bad} lie outside "
                         f"(time, t_end] = ({state.time}, {t_end}]")
    grid = state.u.grid
    bound = bind(spec, grid.points())
    eps = state.eps
    span = t_end - state.time
    n_steps = int(round(span / dt))
    if n_steps == 0 or abs(n_steps * dt - span) > 1e-9 * dt:
        raise ValueError(f"dt={dt} does not divide the time span "
                         f"t_end - time = {span}")
    ledger = DissipationLedger(e_initial=energy_face(state.u.values, grid,
                                                     eps, spec, bound))
    lo, hi = float(np.min(state.u.values)), float(np.max(state.u.values))
    pad = 0.05 * max(hi - lo, 1.0)
    lw = reaction_lipschitz(spec, grid, (lo - pad, hi + pad))
    if dt > eps ** 2 / lw * (1 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the stability bound "
                         f"{eps ** 2 / lw}")
    return _march(state, bound, dt, n_steps, ledger, snapshot_times)


# Cells per ledger block of ``_march`` (max(1, _BLOCK_CELLS // cells)
# steps); the bits do not depend on it. On a 2-core Intel Xeon VM 2^15
# took a 1 024-cell step from 76 to 56 us, 2^14 and 2^16 within noise.
_BLOCK_CELLS = 1 << 15


def _march(state: PhaseState, bound: BoundQuartic, dt: float, n_steps: int,
           ledger: DissipationLedger, snapshot_times) -> RunResult:
    """The step loop of ``run``: ``n_steps`` semi-implicit steps from
    ``state``, each appended to ``ledger``, bit for bit the arithmetic of
    one step at a time through ``spec.dW_du``, ``_spectral_solve``,
    ``laplacian_neumann`` and ``energy_face``.

    A step does only its arithmetic: its right-hand side, the solve, the
    finiteness check of the new state (``grid._check_finite``: a
    non-finite state raises ValueError before the next solve), u - a,
    u - b and, in place through ``wells.quartic_dW_du``, the next
    reaction. These go into one row of stacks allocated once per run;
    the solve (bound once per run, ``_bind_solve``) writes the state into
    its row, or into a fresh array when a block is one step. ``_record``
    turns each block, and the last, partial one, into ledger entries. A
    ``PhaseState`` is built only for a snapshot and the final state, on a
    copy of the row.
    """
    grid = state.u.grid
    eps = state.eps
    m2, a, b = bound.m * 2.0, bound.a, bound.b
    solve = _bind_solve(_spectral_denominator(grid, dt))
    rate = dt / eps ** 2
    k = max(1, min(n_steps, _BLOCK_CELLS // math.prod(grid.cells)))
    rhs, da, db, work = (np.empty((k, *grid.cells)) for _ in range(4))
    new = np.empty((k, *grid.cells)) if k > 1 else None  # else fresh arrays
    rows = list(zip(rhs, da, db, work, [None] if new is None else new))
    u = state.u.values
    dw = quartic_dW_du(m2, u - a, u - b)
    time = state.time
    before, times, snapshots = u, [], []
    want = sorted(snapshot_times)
    for step in range(1, n_steps + 1):
        j = len(times)
        r, ra, rb, rw, row = rows[j]
        np.multiply(dw, rate, out=r)
        np.subtract(u, r, out=r)
        u = solve(r, np.empty(grid.cells) if row is None else row)
        _check_finite(u)
        quartic_dW_du(m2, np.subtract(u, a, out=ra),
                      np.subtract(u, b, out=rb), out=(dw, rw))
        time = time + dt
        times.append(time)
        if j + 1 == k or step == n_steps:
            n = j + 1
            states = u[None] if new is None else new[:n]
            _record(ledger, step - j, times, before, (states, rhs[:n],
                    da[:n], db[:n], work[:n]), bound, dt, eps, grid)
            # the next block overwrites this row before it records
            before, times = u if new is None else u.copy(), []
        # the last step reaches every remaining time, whatever rounding
        # the accumulated time carries
        if step == n_steps or want and time >= want[0] - 1e-12:
            state = PhaseState(Field(grid, u if new is None else u.copy()),
                               eps, time)
            while want and (step == n_steps or time >= want[0] - 1e-12):
                snapshots.append(state)
                want.pop(0)
    return RunResult(state, ledger, snapshots)


def _record(ledger, step, times, before, stacks, bound, dt, eps, grid):
    """Append the block of steps ``step``, ``step`` + 1, ... at ``times``
    to ``ledger`` from ``stacks``: the block's states, right-hand sides,
    u - a and u - b (consumed) and scratch, along a leading axis, with
    ``before`` the state before the block. Each of the residuals, the
    energies and the increments takes a few passes over the stacks."""
    new, rhs, da, db, work = stacks
    laplacian_neumann(FieldStack(grid, new), out=work)
    work *= dt
    np.subtract(new, work, out=work)
    work -= rhs
    resid = np.sqrt(_sum_sq(work, 1)).tolist()
    np.subtract(new[0], before, out=work[0])
    np.subtract(new[1:], new[:-1], out=work[1:])
    increments = (eps / dt * _sum_sq(work, 1) * grid.cell_volume).tolist()
    energies = _face_energy(quartic_W(bound.m, da, db), new, grid, eps, work)
    for args in zip(times, energies, increments, resid):
        ledger.append(step, *args)
        step += 1


# ---------------------------------------------------------------------------
# mass-constrained minimization
# ---------------------------------------------------------------------------

@dataclass
class ConstrainedMinimum:
    state: PhaseState
    lam: float          # Lagrange multiplier: mean of eps Lap u - dW_du/eps
    residual: float     # pointwise std of the same field (stationarity)
    iterations: int


def minimize_constrained(spec: WellSpec, grid: Grid, eps: float, mass: float,
                         init: Field, tol_residual: float = 2e-4,
                         max_iter: int = 60000) -> ConstrainedMinimum:
    """Projected-gradient minimization of E_eps subject to mean(u) = mass.

    Each descent step is followed by an exact additive mean correction.
    The multiplier is the spatial mean of eps Lap u - dW_du(x, u)/eps and
    the returned residual (its standard deviation) certifies pointwise
    stationarity of the constrained first-order conditions. Raises
    NumericError, with the current iterate as ``last_iterate``, when the
    descent stops (line search exhausted or ``max_iter`` reached) with
    the residual still above ``tol_residual`` or not finite, and
    ValueError, before any descent, when ``tol_residual`` is not positive:
    a rounded residual is not relied on to reach 0.
    """
    if not tol_residual > 0:   # NaN too
        raise ValueError(f"tol_residual must be positive, got {tol_residual}")
    bound = bind(spec, grid.points())
    mean_a = float(np.mean(bound.a))
    mean_b = float(np.mean(bound.b))
    if not (min(mean_a, mean_b) - 1e-12 <= mass <= max(mean_a, mean_b) + 1e-12):
        raise ValueError(f"mass {mass} outside the admissible range "
                         f"[{mean_a}, {mean_b}]")

    lw = reaction_lipschitz(spec, grid, (float(np.min(init.values)) - 0.5,
                                         float(np.max(init.values)) + 0.5))
    lip = lw / eps + eps * 4 * grid.dim / float(np.min(grid.spacing)) ** 2
    u, _, g, iters = _bb_descent(init.values, grid, eps, bound,
                                 alpha0=1.0 / lip, max_iter=max_iter,
                                 tol=tol_residual, mass=mass)
    lam_field = -g
    resid = float(np.std(lam_field))
    if not resid <= tol_residual:   # a NaN residual fails too
        raise NumericError("constrained minimization stopped above the "
                           "stationarity tolerance", achieved=resid,
                           last_iterate=u)
    return ConstrainedMinimum(state=PhaseState(Field(grid, u), eps),
                              lam=float(np.mean(lam_field)), residual=resid,
                              iterations=iters)
