"""Statistical estimation of regularity and uniqueness quantities.

The workhorse is the structure function: the p-th absolute moment of field
increments as a function of the lag.  Its log-log slope divided by p
estimates the scaling exponent, which for the Gaussian-driven fields here is
the Hoelder-regularity bound (1 - alpha/2 in space, half that in time, with
the white-noise limits 1/2 and 1/4).

Increments of order 2 (``u(x+l) - 2 u(x) + u(x-l)``) are available for the
spatial direction: they annihilate the slowly equilibrating large-scale modes
of a finite-horizon run, which otherwise leak into first differences and
flatten the measured slope.  First differences remain the default and the
contractual meaning of :func:`structure_function`.

Every estimator here shares one structure-function path: one periodic
increment helper and one window, ``[grid.t_min, grid.t_end]``, selected from
a trajectory's ``times`` as a slice of its ``values`` rows (a view, never a
copy).  The one lattice check is the grid's: :meth:`GridSpec.cells` turns a
spatial lag or a conditioning scale ``eps`` into whole cells (to 1e-9 of a
cell, in ``[1, n/2]``), and :meth:`GridSpec.steps` turns a time lag into
whole ``dt`` steps (to 1e-6 of a step, at least one); anything else is an
InputError.  Snapshots are
matched by their recorded ``steps``, each to the one exactly the lag's number
of steps later.  Every exponent is the slope of the package's one log-log
least-squares fit, divided by ``p``; a :class:`HolderReport` keeps the
MomentRows it fitted in ``rows``.

Small-value conditioning restricts the anchors of the structure function to
space-time points where the difference field of a coupled pair is below
``eps^xi`` somewhere within distance ``eps`` -- the numerically checkable
form of the improved regularity that difference fields exhibit near their
small values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter1d

from ._fit import fit_loglog
from .errors import DomainError, InputError, InsufficientDataError
from .solver import SolutionPair, Trajectory

_WINDOW_TOL = 1e-9


@dataclass(frozen=True)
class MomentRow:
    lag: float
    moment: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class HolderReport:
    """Log-log regression of a structure function.

    ``exponent = slope / p`` estimates the scaling exponent; ``stderr`` is the
    regression standard error of that ratio.  ``rows`` are the MomentRows that
    were fitted, one per lag.
    """

    direction: str
    p: float
    lags: tuple
    slope: float
    exponent: float
    stderr: float
    order: int = 1
    n_samples: int = 0
    rows: tuple = ()


def _as_traj_list(trajs) -> list[Trajectory]:
    if isinstance(trajs, Trajectory):
        return [trajs]
    out = list(trajs)
    if not out:
        raise InputError("no trajectories given")
    return out


def _window_slice(grid, times) -> slice:
    """The snapshot rows whose times lie in ``[grid.t_min, grid.t_end]``: a
    slice, so that the rows it selects are a view, not a copy (``times`` are
    increasing)."""
    tol = _WINDOW_TOL * max(1.0, abs(grid.t_end))
    return slice(bisect_left(times, grid.t_min - tol), bisect_right(times, grid.t_end + tol))


def _increment_power(values, p, order=1, cells=0, later=None) -> np.ndarray:
    """``|increment|^p`` at every anchor: ``later - values`` for a time lag,
    else the periodic order-1 or order-2 difference at ``cells`` along axis 0."""
    if later is not None:
        diff = later - values
    elif order == 1:
        diff = np.roll(values, -cells, axis=0) - values
    else:
        diff = np.roll(values, -cells, axis=0) - 2.0 * values + np.roll(values, cells, axis=0)
    return np.abs(diff) ** p


def structure_function(
    trajs,
    p: float = 2.0,
    direction: str = "space",
    lags=None,
    order: int = 1,
) -> list[MomentRow]:
    """Moment table of field increments over all anchors in the window.

    Spatial lags are physical separations (multiples of the grid spacing).
    Temporal lags must lie on the ``dt`` lattice; each snapshot is paired,
    by its recorded step, with the one exactly the lag's number of steps
    later, if it was recorded.  The standard error at each lag
    is the spread of the per-trajectory means.
    """
    trajs = _as_traj_list(trajs)
    grid = trajs[0].grid
    if direction not in ("space", "time"):
        raise DomainError("direction must be 'space' or 'time'")
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if order == 2 and direction == "time":
        raise DomainError("order-2 increments are supported in space only")
    if lags is None:
        raise DomainError("lags must be given")
    windows = [_window_slice(grid, traj.times) for traj in trajs]
    snaps = [traj.values[w] for traj, w in zip(trajs, windows)]
    if direction == "time":
        by_step = [dict(zip(traj.steps[w], arr)) for traj, w, arr in zip(trajs, windows, snaps)]

    rows = []
    for lag in lags:
        per_traj = []
        n_anchors = 0
        if direction == "space":
            cells = grid.cells(lag)
            for arr in snaps:
                if len(arr):
                    moments = [np.mean(_increment_power(row, p, order, cells)) for row in arr]
                    per_traj.append(np.mean(moments))
                    n_anchors += len(arr) * grid.n_cells
        else:
            m = grid.steps(lag, lo=1)
            for at_step in by_step:
                vals = [
                    np.mean(_increment_power(row, p, later=at_step[k + m]))
                    for k, row in at_step.items()
                    if k + m in at_step
                ]
                if vals:
                    per_traj.append(np.mean(vals))
                    n_anchors += len(vals) * grid.n_cells
        if n_anchors < 100:
            raise InsufficientDataError(
                f"only {n_anchors} anchor samples at lag {lag} (need >= 100)",
                n_samples=n_anchors,
            )
        per_traj = np.asarray(per_traj)
        est = float(np.mean(per_traj))
        se = (
            float(np.std(per_traj, ddof=1) / np.sqrt(len(per_traj)))
            if len(per_traj) > 1
            else 0.0
        )
        rows.append(MomentRow(lag=float(lag), moment=est, stderr=se, n_samples=n_anchors))
    return rows


def _require_octaves(lags):
    lags = np.asarray(list(lags), dtype=float)
    if lags.size < 2 or np.min(lags) <= 0:
        raise DomainError("need at least two positive lags")
    if np.max(lags) / np.min(lags) < 8.0 * (1.0 - 1e-12):
        raise DomainError("lag grid must span at least 3 octaves")
    return lags


def _fit_report(rows, direction, p, order, n_samples) -> HolderReport:
    slope, slope_se = fit_loglog([r.lag for r in rows], [r.moment for r in rows])
    return HolderReport(
        direction=direction,
        p=p,
        lags=tuple(r.lag for r in rows),
        slope=slope,
        exponent=slope / p,
        stderr=max(slope_se / p, 1e-15),
        order=order,
        n_samples=n_samples,
        rows=tuple(rows),
    )


def holder_exponent(
    trajs,
    p: float = 2.0,
    direction: str = "space",
    lags=None,
    order: int = 1,
) -> HolderReport:
    """Scaling-exponent estimate: log-log slope of the structure function over p."""
    lags = _require_octaves(lags)
    rows = structure_function(trajs, p=p, direction=direction, lags=lags, order=order)
    return _fit_report(rows, direction, p, order, sum(r.n_samples for r in rows))


def critical_exponent_limit(alpha: float, gamma: float) -> float:
    """Limit of the bootstrap exponents: ``min((1 - alpha/2)/(1 - gamma), 1)``; 1 at gamma = 1."""
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if not 0 < gamma <= 1:
        raise DomainError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return 1.0
    return float(min((1.0 - alpha / 2.0) / (1.0 - gamma), 1.0))


def exponent_recursion(alpha: float, gamma: float, steps: int) -> np.ndarray:
    """Bootstrap recursion for the small-value regularity exponent.

    ``xi_0 = (1 - alpha/2)/2`` and
    ``xi_k = min(gamma xi_{k-1} + 1 - alpha/2, 1) * (1 - 1/(k+3))``.
    The damping factor tends to 1, so the sequence converges to
    :func:`critical_exponent_limit`.
    """
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if not 0 < gamma <= 1:
        raise DomainError("gamma must lie in (0, 1]")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    xs = np.empty(steps + 1)
    xs[0] = 0.5 * (1.0 - alpha / 2.0)
    for k in range(1, steps + 1):
        grown = min(gamma * xs[k - 1] + 1.0 - alpha / 2.0, 1.0)
        xs[k] = grown * (1.0 - 1.0 / (k + 3.0))
    return xs


def default_conditioning_exponent(alpha: float, gamma: float) -> float:
    """Midpoint of the admissible conditioning window ``(1 - alpha/2, limit)``."""
    lo = 1.0 - alpha / 2.0
    hi = critical_exponent_limit(alpha, gamma)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConditionalRegularityResult:
    xi: float
    eps_values: tuple
    unconditional: HolderReport
    conditional: tuple
    gaps: tuple
    occupancy: dict


def conditional_regularity(
    pair,
    xi: float,
    eps_values,
    p: float = 2.0,
    lags=None,
    order: int = 1,
) -> ConditionalRegularityResult:
    """Structure-function exponents of the pair difference near its small values.

    ``pair`` is one SolutionPair or a sequence of replica pairs sharing grid
    and delta.  For each ``eps`` the anchor set keeps the points (t, x) where
    ``|diff(t, xhat)| <= eps^xi`` for some ``|xhat - x| <= eps``, and
    ``eps`` must be a whole number of cells (``GridSpec.cells``); the
    conditional exponent is compared against the unconditional one on the
    same lags.  Fails loudly when the conditioning set has fewer than 100
    anchors or the difference field is degenerate.
    """
    pairs = [pair] if isinstance(pair, SolutionPair) else list(pair)
    if not pairs:
        raise InputError("no pairs given")
    if any(pr.delta == 0.0 for pr in pairs):
        raise DomainError("conditioning degenerate: delta = 0 pair has identically zero difference")
    grid = pairs[0].grid
    if any(pr.grid != grid for pr in pairs):
        raise InputError("pairs must share a grid")
    if grid.dim != 1:
        raise DomainError("small-value conditioning is implemented for dim 1")
    if lags is None:
        lags = [grid.h * g for g in (1, 2, 4, 8)]
    lags = _require_octaves(lags)
    cells = [grid.cells(lag) for lag in lags]

    snaps = [row for pr in pairs for row in pr.diffs[_window_slice(grid, pr.times)]]
    if not snaps:
        raise InputError("no difference snapshots in window")
    if max(float(np.max(np.abs(row))) for row in snaps) == 0.0:
        raise DomainError("conditioning degenerate: difference field is identically zero")

    # each snapshot's |increment|^p at each lag, computed once for every fit
    powers = [[_increment_power(row, p, order, c) for row in snaps] for c in cells]

    def report(masks):
        """Fit of the anchor-pooled moments; ``masks[i]`` selects snapshot
        ``i``'s anchors, None selects them all."""
        rows = []
        for lag_powers, lag in zip(powers, lags):
            acc, cnt = 0.0, 0
            for pw, mask in zip(lag_powers, masks):
                m = grid.n if mask is None else int(np.count_nonzero(mask))
                if m == 0:
                    continue
                acc += float(np.sum(pw if mask is None else pw[mask]))
                cnt += m
            if cnt == 0:
                raise InsufficientDataError("empty anchor set", n_samples=0)
            rows.append(MomentRow(lag=float(lag), moment=acc / cnt, stderr=0.0, n_samples=cnt))
        return _fit_report(rows, "space", p, order, rows[0].n_samples)

    unconditional = report([None] * len(snaps))

    conditional = []
    gaps = []
    occupancy = {}
    for eps in eps_values:
        w = grid.cells(eps)
        thresh = float(eps) ** xi
        masks = []
        occupied = 0
        for row in snaps:
            local_min = minimum_filter1d(np.abs(row), size=2 * w + 1, mode="wrap")
            mask = local_min <= thresh
            occupied += int(np.count_nonzero(mask))
            masks.append(mask)
        occupancy[float(eps)] = occupied / (len(snaps) * grid.n)
        if occupied < 100:
            raise InsufficientDataError(
                f"conditioning set at eps={eps} has {occupied} anchors (need >= 100)",
                n_samples=occupied,
                occupancy=occupancy,
            )
        rep = report(masks)
        conditional.append(rep)
        gaps.append(rep.exponent - unconditional.exponent)

    return ConditionalRegularityResult(
        xi=float(xi),
        eps_values=tuple(float(e) for e in eps_values),
        unconditional=unconditional,
        conditional=tuple(conditional),
        gaps=tuple(gaps),
        occupancy=occupancy,
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Per-delta decay table of the pair difference, with a monotonicity summary."""

    deltas: tuple
    times: tuple
    median_l1: dict
    median_sup: dict
    peak_l1: dict
    monotone_in_delta: bool


def uniqueness_gap(pairs) -> UniquenessReport:
    """Summarize coupled-pair divergence across perturbation sizes.

    Groups pairs by their delta; for each delta and snapshot time reports the
    replica-median of ``int |diff| dx`` and ``sup |diff|``.  The summary flag
    records whether the peak L1 divergence is strictly monotone in delta
    (zero rows are exempt: delta = 0 must be identically zero).
    """
    pairs = list(pairs)
    if not pairs:
        raise InputError("no pairs given")
    times = pairs[0].times
    grid = pairs[0].grid
    cell = grid.h**grid.dim
    for pr in pairs[1:]:
        if pr.times != times or pr.grid != grid:
            raise InputError("pairs must share snapshot times and grid")

    by_delta: dict = {}
    for pr in pairs:
        by_delta.setdefault(float(pr.delta), []).append(pr)

    deltas = tuple(sorted(by_delta))
    median_l1, median_sup, peak_l1 = {}, {}, {}
    for d, group in by_delta.items():
        l1, sup = [], []
        for pr in group:
            diffs = pr.diffs
            l1.append([np.sum(np.abs(row)) * cell for row in diffs])
            sup.append([np.max(np.abs(row)) for row in diffs])
        l1, sup = np.array(l1), np.array(sup)
        median_l1[d] = np.median(l1, axis=0)
        median_sup[d] = np.median(sup, axis=0)
        peak_l1[d] = float(np.median(np.max(l1, axis=1)))
    nonzero = [d for d in deltas if d > 0]
    monotone = all(
        peak_l1[a] < peak_l1[b] for a, b in zip(nonzero, nonzero[1:])
    )
    return UniquenessReport(
        deltas=deltas,
        times=tuple(times),
        median_l1=median_l1,
        median_sup=median_sup,
        peak_l1=peak_l1,
        monotone_in_delta=monotone,
    )
