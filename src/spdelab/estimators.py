"""Statistical estimation of regularity and uniqueness quantities.

The workhorse is the structure function: the p-th absolute moment of field
increments as a function of the lag.  Its log-log slope divided by p
estimates the scaling exponent, which for the Gaussian-driven fields here is
the Hoelder-regularity bound (1 - alpha/2 in space, half that in time, with
the white-noise limits 1/2 and 1/4).

Increments of order 2 (``u(x+l) - 2 u(x) + u(x-l)``) are available for the
spatial direction: they annihilate the slowly equilibrating large-scale modes
of a finite-horizon run, which otherwise leak into first differences and
flatten the measured slope.  First differences remain the default, and the
only increments in time.

Every estimator here shares one periodic increment helper and one window,
``[grid.t_min, grid.t_end]``, and each public one is a streamed run:
``noise._run_replicas`` steps chunks of replicas through the engine, whose
observer takes a statistic of each snapshot row, and a reducer pools the rows
at the end in one fixed order; no snapshot is kept.  ``_Moments``
(:func:`structure_function`) keeps per-snapshot scalars and only the rows the
longest time lag still needs.  ``_pair_rows`` hands the engine the
perturbation and deltas to build the legs from, and takes a statistic of the
differences leg 0 minus leg k + 1: ``_gap_rows`` (:func:`uniqueness_gap`) or
``_Conditioning.rows`` (:func:`conditional_regularity`).  The one lattice
check is the grid's: :meth:`GridSpec.cells` turns a spatial lag or a
conditioning scale ``eps`` into whole cells (to 1e-9 of a cell, in
``[1, n/2]``), and :meth:`GridSpec.steps` turns a time lag into whole ``dt``
steps (to 1e-6 of a step, at least one); anything else is an InputError,
raised when ``_Moments`` or ``_Conditioning`` is built, before the engine's
step 1.  Snapshots are matched by their ``steps``, each to the one exactly
the lag's number of steps later.  ``p`` must be finite and > 0, and
``order`` 1 or 2.  Every exponent is the slope of the package's one log-log
least-squares fit, divided by ``p``; a :class:`HolderReport` keeps the
MomentRows it fitted in ``rows``.

Small-value conditioning restricts the anchors of the structure function to
space-time points where the difference field of a coupled pair is below
``eps^xi`` somewhere within distance ``eps`` -- the numerically checkable
form of the improved regularity that difference fields exhibit near their
small values.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter1d

from ._fit import fit_loglog
from .errors import DomainError, InputError, InsufficientDataError
from .noise import _run_replicas
from .solver import _integrate

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


def _in_window(grid, time) -> bool:
    """Whether a snapshot time lies in the one window, ``[t_min, t_end]`` widened by its tolerance."""
    tol = _WINDOW_TOL * max(1.0, abs(grid.t_end))
    return grid.t_min - tol <= time <= grid.t_end + tol


def _require_p(p, order=1):
    if not 0 < p < math.inf:
        raise DomainError(f"moment order p must be finite and > 0, got {p}")
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")


def _increment_powers(rows, p, order, cells):
    """``|increment|^p`` at every anchor of each row of ``rows``, one array per
    lag in ``cells``: the periodic order-1 or order-2 difference along the rows'
    first axis, as slices of the rows wrapped once (bitwise ``np.roll``'s)."""
    n = rows.shape[1]
    wrapped = np.concatenate([rows, rows], axis=1)
    here = rows if order == 1 else 2.0 * rows
    for c in cells:
        diff = wrapped[:, c:c + n] - here
        yield np.abs(diff if order == 1 else diff + wrapped[:, n - c:2 * n - c]) ** p


def _row_means(powers) -> list:
    """The mean of each row of ``powers`` over its anchors, bitwise ``np.mean`` of that row."""
    return np.mean(powers.reshape(len(powers), -1), axis=-1).tolist()


class _Moments:
    """Structure-function moments fed one snapshot at a time, as the observer
    ``(step, time, stack)`` of ``solver._integrate`` (leg 0).  Each in-window
    snapshot adds, per replica and lag, the anchor mean of ``|increment|^p``:
    of the row at a spatial lag, or of the row minus the kept row a time lag
    earlier.  Only rows that a later snapshot can still pair with are kept.
    ``scalars[r][direction][i]`` are replica ``r``'s scalars at lag ``i``."""

    def __init__(self, grid, replicas, p, space_lags=(), time_lags=(), order=1):
        _require_p(p, order)
        self.grid, self.p, self.order, self.kept = grid, p, order, {}
        self.cells = [grid.cells(lag) for lag in space_lags]
        self.lags = [grid.steps(lag, lo=1) for lag in time_lags]
        self.longest = max(self.lags, default=0)
        self.scalars = [{"space": [array("d") for _ in self.cells], "time": [array("d") for _ in self.lags]}
                        for _ in range(replicas)]

    def __call__(self, step, time, stack):
        if not _in_window(self.grid, time):
            return
        rows = stack[:, 0]
        for i, powers in enumerate(_increment_powers(rows, self.p, self.order, self.cells)):
            for out, value in zip(self.scalars, _row_means(powers)):
                out["space"][i].append(value)
        for i, m in enumerate(self.lags):
            if step - m in self.kept:
                for out, value in zip(self.scalars, _row_means(np.abs(rows - self.kept[step - m]) ** self.p)):
                    out["time"][i].append(value)
        self.kept = {k: kept for k, kept in self.kept.items() if k > step - self.longest}
        if self.longest:
            self.kept[step] = rows.copy()


def _moment_rows(grid, scalars, lags, direction) -> list[MomentRow]:
    """One MomentRow per lag from per-replica ``_Moments.scalars``, whose anchors are checked in lag
    order: each replica's mean, then the mean and standard error over replicas."""
    if not scalars:
        raise InputError("no trajectories given")
    rows = []
    for i, lag in enumerate(lags):
        per_replica = [s[direction][i] for s in scalars]
        n_anchors = sum(map(len, per_replica)) * grid.n_cells
        if n_anchors < 100:
            raise InsufficientDataError(f"only {n_anchors} anchor samples at lag {lag} (need >= 100)",
                                        n_samples=n_anchors)
        means = np.asarray([np.mean(v) for v in per_replica if v])
        se = float(np.std(means, ddof=1) / np.sqrt(len(means))) if len(means) > 1 else 0.0
        rows.append(MomentRow(lag=float(lag), moment=float(np.mean(means)), stderr=se, n_samples=n_anchors))
    return rows


def structure_function(grid, kspec, sspec, u0_spec, streams, snapshot_times, p, space_lags, time_lags,
                       order: int = 1) -> tuple[list[MomentRow], list[MomentRow]]:
    """Moment tables, in space then in time, of field increments over all anchors in the window, from one
    engine pass over the replicas of ``streams``.

    Spatial lags are whole cells, with increments of order ``order``.  Temporal lags must lie on the ``dt``
    lattice; each snapshot is paired, by its step, with the snapshot exactly the lag's number of steps later,
    if there is one.  The standard error at each lag is the spread of the per-replica means.
    """
    def batch(chunk):
        moments = _Moments(grid, len(chunk), p, space_lags, time_lags, order)
        _integrate(grid, kspec, sspec, u0_spec, chunk, snapshot_times, moments)
        return moments.scalars

    scalars = _run_replicas(streams, batch)
    return _moment_rows(grid, scalars, space_lags, "space"), _moment_rows(grid, scalars, time_lags, "time")


def _require_octaves(lags):
    lags = np.asarray(list(lags), dtype=float)
    if lags.size < 2 or np.min(lags) <= 0:
        raise DomainError("need at least two positive lags")
    if np.max(lags) / np.min(lags) < 8.0 * (1.0 - 1e-12):
        raise DomainError("lag grid must span at least 3 octaves")
    return lags


def _fit_report(rows, direction, p, order, n_samples=None) -> HolderReport:
    slope, slope_se = fit_loglog([r.lag for r in rows], [r.moment for r in rows])
    return HolderReport(
        direction=direction,
        p=p,
        lags=tuple(r.lag for r in rows),
        slope=slope,
        exponent=slope / p,
        stderr=max(slope_se / p, 1e-15),
        order=order,
        n_samples=sum(r.n_samples for r in rows) if n_samples is None else n_samples,
        rows=tuple(rows),
    )


def _holder_reports(tables, p, order) -> list[HolderReport]:
    """The fits of :func:`structure_function`'s space table (order ``order``) and time table; the caller
    checked before the run that each direction's lags span 3 octaves."""
    return [_fit_report(rows, d, p, k) for rows, d, k in zip(tables, ("space", "time"), (order, 1))]


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


class _Conditioning:
    """Small-value conditioning as a per-row statistic, :meth:`rows`, of in-window pair
    differences and a reducer, :meth:`result`, of those rows pooled replica-major.  Building
    it makes every check that needs no pair, so :func:`conditional_regularity` makes them
    before step 1: a delta other than 0, dim 1, ``p`` and ``order``, at least one ``eps``,
    lags over 3 octaves (default 1, 2, 4, 8 cells), and every lag and ``eps`` a whole number
    of cells."""

    def __init__(self, grid, delta, xi, eps_values, p, lags, order):
        if delta == 0.0:
            raise DomainError("conditioning degenerate: delta = 0 pair has identically zero difference")
        if grid.dim != 1:
            raise DomainError("small-value conditioning is implemented for dim 1")
        _require_p(p, order)
        if not eps_values:
            raise DomainError("conditioning needs at least one eps")
        self.grid, self.xi, self.eps_values, self.p, self.order = grid, xi, list(eps_values), p, order
        self.lags = _require_octaves([grid.h * g for g in (1, 2, 4, 8)] if lags is None else lags)
        self.cells = [grid.cells(lag) for lag in self.lags]
        self.filters = [(2 * grid.cells(eps) + 1, float(eps) ** xi) for eps in self.eps_values]

    def rows(self, diffs) -> np.ndarray:
        """One row per row of ``diffs``: its peak ``|diff|``; then the anchor counts of every anchor
        set, which is every anchor, then for each ``eps`` the anchors within ``eps`` of a point where
        ``|diff| <= eps^xi``; then each set's sum of ``|increment|^p`` at each lag."""
        mag = np.abs(diffs)
        powers = list(_increment_powers(diffs, self.p, self.order, self.cells))
        masks = [np.ones_like(mag, bool)] + [minimum_filter1d(mag, w, mode="wrap") <= t for w, t in self.filters]
        sums = [[np.sum(pw[r][m[r]]) for r in range(len(diffs))] for m in masks for pw in powers]
        return np.column_stack([np.max(mag, axis=-1), *(np.count_nonzero(m, axis=-1) for m in masks), *sums])

    def result(self, per_replica) -> ConditionalRegularityResult:
        """The fits over every anchor (unconditional) and for each ``eps`` of each replica's rows, summed
        replica-major; fails loudly on no row, an identically zero difference, or < 100 anchors at an eps."""
        sets = 1 + len(self.eps_values)
        rows = np.concatenate([np.reshape(rows, (-1, 1 + sets * (1 + len(self.lags)))) for rows in per_replica])
        if not len(rows):
            raise InputError("no difference snapshots in window")
        if np.max(rows[:, 0]) == 0.0:
            raise DomainError("conditioning degenerate: difference field is identically zero")
        sums = rows[:, 1 + sets:].reshape(len(rows), sets, len(self.lags))
        fits, occupancy = [], {}
        for j, eps in enumerate([None, *self.eps_values]):
            anchors = int(np.sum(rows[:, 1 + j]))
            if eps is not None:
                occupancy[float(eps)] = anchors / (len(rows) * self.grid.n)
                if anchors < 100:
                    raise InsufficientDataError(
                        f"conditioning set at eps={eps} has {anchors} anchors (need >= 100)",
                        n_samples=anchors, occupancy=occupancy)
            totals = np.cumsum(sums[:, j], axis=0)[-1]  # each lag's sum taken row by row, not pairwise
            moments = [MomentRow(lag=float(lag), moment=float(total) / anchors, stderr=0.0, n_samples=anchors)
                       for lag, total in zip(self.lags, totals)]
            fits.append(_fit_report(moments, "space", self.p, self.order, anchors))
        unconditional, *conditional = fits
        gaps = tuple(rep.exponent - unconditional.exponent for rep in conditional)
        return ConditionalRegularityResult(float(self.xi), tuple(map(float, self.eps_values)), unconditional,
                                           tuple(conditional), gaps, occupancy)


def conditional_regularity(grid, kspec, sspec, u0_spec, perturbation, delta, streams, snapshot_times, xi,
                           eps_values, p: float = 2.0, lags=None, order: int = 1) -> ConditionalRegularityResult:
    """Structure-function exponents near its small values of the difference of each replica's pair, started
    from ``u0`` and ``u0 + delta * perturbation`` on one noise path, at the in-window ``snapshot_times``.

    For each ``eps`` the anchor set keeps the points (t, x) where ``|diff(t, xhat)| <= eps^xi`` for some
    ``|xhat - x| <= eps``, and ``eps`` must be a whole number of cells (``GridSpec.cells``); the conditional
    exponent is compared against the unconditional one on the same lags.  Every check that needs no pair is
    made before step 1.  Fails loudly when the conditioning set has fewer than 100 anchors or the difference
    field is degenerate.
    """
    conditioning = _Conditioning(grid, delta, xi, eps_values, p, lags, order)
    window = [t for t in snapshot_times if _in_window(grid, t)]
    per_replica = _pair_rows(grid, kspec, sspec, u0_spec, perturbation, [delta], streams, window, conditioning.rows)
    return conditioning.result([rows for (rows,) in per_replica])


@dataclass(frozen=True)
class UniquenessReport:
    """Per-delta decay table of the pair difference, with a monotonicity summary."""

    deltas: tuple
    times: tuple
    median_l1: dict
    median_sup: dict
    peak_l1: dict
    monotone_in_delta: bool


def _gap_rows(grid, diffs) -> np.ndarray:
    """One row ``(int |diff| dx, sup |diff|)`` per row of ``diffs``."""
    mag = np.abs(diffs).reshape(len(diffs), grid.n_cells)
    return np.column_stack([np.sum(mag, axis=-1) * grid.h**grid.dim, np.max(mag, axis=-1)])


def _gap_report(times, deltas, per_replica) -> UniquenessReport:
    """The decay table of ``per_replica[r][k]``, the ``_gap_rows`` of replica ``r``'s pair for ``deltas[k]``:
    per delta, the median over its pairs of each statistic at each snapshot and of each pair's peak L1."""
    if not times:
        raise InputError("no snapshots given")
    by_delta: dict = {}
    for pairs in per_replica:
        for delta, rows in zip(deltas, pairs):
            by_delta.setdefault(float(delta), []).append(np.reshape(rows, (-1, 2)))
    median_l1, median_sup, peak_l1 = {}, {}, {}
    for d, group in by_delta.items():
        l1, sup = np.moveaxis(np.array(group), -1, 0)
        median_l1[d] = np.median(l1, axis=0)
        median_sup[d] = np.median(sup, axis=0)
        peak_l1[d] = float(np.median(np.max(l1, axis=1)))
    nonzero = [d for d in sorted(by_delta) if d > 0]
    monotone = all(peak_l1[a] < peak_l1[b] for a, b in zip(nonzero, nonzero[1:]))
    return UniquenessReport(tuple(sorted(by_delta)), tuple(times), median_l1, median_sup, peak_l1, monotone)


def uniqueness_gap(grid, kspec, sspec, u0_spec, perturbation, deltas, streams, snapshot_times) -> UniquenessReport:
    """Coupled-pair divergence across perturbation sizes: each replica's pair for ``deltas[k]`` starts from
    ``u0`` and ``u0 + deltas[k] * perturbation`` on its one noise path.

    For each delta and snapshot time the report holds the replica-median of ``int |diff| dx`` and
    ``sup |diff|``.  The summary flag records whether the peak L1 divergence is strictly monotone in delta
    (zero rows are exempt: delta = 0 must be identically zero).
    """
    per_replica = _pair_rows(grid, kspec, sspec, u0_spec, perturbation, deltas, streams, snapshot_times,
                             lambda diffs: _gap_rows(grid, diffs))
    return _gap_report(snapshot_times, deltas, per_replica)


def _pair_rows(grid, kspec, sspec, u0_spec, perturbation, deltas, streams, snapshot_times, statistic) -> list:
    """Coupled pairs of every replica of ``streams``, streamed from the engine on the replica runner: at each
    snapshot, ``statistic`` of a chunk's ``(replicas, *grid)`` differences ``leg 0 - leg k + 1`` of
    ``deltas[k]`` gives a row per replica.  Keeps no snapshot; returns ``[replica][delta]`` ``array("d")``
    buffers of the rows, back to back."""
    if not streams:
        raise InputError("no pairs given")

    def batch(chunk):
        rows = [[array("d") for _ in deltas] for _ in chunk]

        def observe(step, time, stack):
            for k in range(len(deltas)):
                for out, row in zip(rows, statistic(stack[:, 0] - stack[:, k + 1])):
                    out[k].extend(row)

        _integrate(grid, kspec, sspec, u0_spec, chunk, snapshot_times, observe, perturbation=perturbation,
                   deltas=deltas)
        return rows

    return _run_replicas(streams, batch)
