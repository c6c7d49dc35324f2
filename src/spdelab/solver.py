"""Mild-solution time integration of the stochastic heat equation on a torus.

The update is one exponential-Euler increment of the variation-of-constants
form: ``u_{m+1} = S_dt(u_m + sigma(u_m) dW_m)``, with the heat semigroup
``S_dt`` applied exactly in Fourier space.  Without noise this is exact heat
flow of the grid data, so there is no parabolic stability constraint; ``dt``
only sets the temporal resolution of the noise.

Every run is one batch of shape ``(replicas, legs, *grid)`` stepped by one
loop.  Each replica draws its own ``dW`` per step from its
``(seed, replica, step)`` stream, and its legs share it: a single run is one
leg, and the coupled pairs of every perturbation size are legs
``[u0] + [u0 + delta * pert for delta in deltas]`` on one noise path.  That
is the setting in which pathwise uniqueness is probed numerically: the
difference field of a pair started from identical data is identically zero,
and for small initial perturbations the difference should shrink with the
perturbation.  Each (replica, leg) row is bitwise the run it would be alone.

A :class:`Trajectory` holds its snapshots as one ``(snapshots, *grid)``
array, ``values``, with the integer step of each row in ``steps`` and the
requested time in ``times``; snapshot ``i`` is ``values[i]``, recorded after
``steps[i]`` steps.  Estimators pair snapshots by these steps, never by
converting a time back into a step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    DomainError,
    ExtrapolationError,
    InputError,
)
from .kernels import KernelSpec, semigroup_multiplier
from .noise import GridSpec, RngStream, read_field
from .noise import _amplitudes_cached, _draw_spectrum, _fields

SIGMA_KINDS = ("lipschitz-linear", "holder-power", "sqrt-plus", "viot", "table")


@dataclass(frozen=True)
class SigmaSpec:
    """Diffusion coefficient family sigma with Hoelder index gamma.

    kinds: ``lipschitz-linear`` is ``scale * u``; ``holder-power`` is
    ``scale * |u|^gamma``; ``sqrt-plus`` is ``scale * sqrt(max(u, 0))``;
    ``viot`` is ``scale * sqrt(max(u (1 - u), 0))``; ``table`` interpolates a
    strictly ordered value table and refuses to extrapolate.

    Every kind obeys the linear growth bound
    ``|sigma(u)| <= growth_c (1 + |u|)``, which is checked on a lattice at
    construction time.
    """

    kind: str = "lipschitz-linear"
    scale: float = 1.0
    gamma: float | None = None
    growth_c: float | None = None
    table_u: tuple = ()
    table_v: tuple = ()

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            raise DomainError(f"unknown sigma kind {self.kind!r}")
        if not self.scale > 0:
            raise DomainError("sigma scale must be > 0")
        if self.gamma is None:
            default = {"lipschitz-linear": 1.0, "table": 1.0}.get(self.kind, 0.5)
            object.__setattr__(self, "gamma", default)
        if not 0 < self.gamma <= 1:
            raise DomainError("gamma must lie in (0, 1]")
        if self.kind == "table":
            if len(self.table_u) < 2 or len(self.table_u) != len(self.table_v):
                raise DomainError("table sigma needs matching u/v tables, length >= 2")
            if np.any(np.diff(self.table_u) <= 0):
                raise DomainError("table abscissae must be strictly increasing")
        if self.growth_c is None:
            object.__setattr__(self, "growth_c", self._default_growth())
        if not self.growth_c > 0:
            raise DomainError("growth_c must be > 0")
        self._verify_growth()

    def _default_growth(self) -> float:
        if self.kind == "viot":
            return 0.5 * self.scale
        if self.kind == "table":
            u = np.asarray(self.table_u)
            v = np.asarray(self.table_v)
            return float(np.max(np.abs(v) / (1.0 + np.abs(u))))
        return self.scale

    def _verify_growth(self):
        if self.kind == "table":
            u = np.asarray(self.table_u, dtype=float)
        else:
            u = np.linspace(-50.0, 50.0, 401)
        vals = np.abs(sigma_eval(self, u))
        bound = self.growth_c * (1.0 + np.abs(u))
        if np.any(vals > bound * (1.0 + 1e-12)):
            raise DomainError("sigma violates the linear growth bound on the test lattice")

    @property
    def is_lipschitz(self) -> bool:
        return self.kind == "lipschitz-linear"

    @property
    def satisfies_yw_modulus(self) -> bool:
        """Admits a modulus rho with diverging integral of rho^-2 at 0+.

        True for the square-root families (modulus ``scale * sqrt(x)``), for
        Lipschitz coefficients (modulus ``scale * x``), and for Hoelder index
        >= 1/2 (modulus ``scale * x^gamma``).
        """
        if self.kind in ("sqrt-plus", "viot", "lipschitz-linear"):
            return True
        return self.gamma >= 0.5


def sigma_eval(spec: SigmaSpec, u):
    """Evaluate sigma pointwise (vectorized over ``u``)."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "lipschitz-linear":
        return spec.scale * u
    if spec.kind == "holder-power":
        return spec.scale * np.abs(u) ** spec.gamma
    if spec.kind == "sqrt-plus":
        return spec.scale * np.sqrt(np.maximum(u, 0.0))
    if spec.kind == "viot":
        return spec.scale * np.sqrt(np.maximum(u * (1.0 - u), 0.0))
    lo, hi = spec.table_u[0], spec.table_u[-1]
    if np.any(u < lo) or np.any(u > hi):
        raise ExtrapolationError(
            f"table sigma evaluated outside its range [{lo}, {hi}]"
        )
    return np.interp(u, spec.table_u, spec.table_v)


@dataclass(frozen=True)
class InitialCondition:
    """Initial data: constant level, sine mode, periodic Gaussian bump, or file."""

    kind: str = "constant"
    value: float = 0.0
    k: int = 1
    amplitude: float = 1.0
    offset: float = 0.0
    center: float = 0.0
    width: float = 0.1
    height: float = 1.0
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("constant", "sine", "bump", "file"):
            raise DomainError(f"unknown initial condition kind {self.kind!r}")
        if self.kind == "bump" and not self.width > 0:
            raise DomainError("bump width must be > 0")
        if self.kind == "file" and not self.path:
            raise DomainError("file initial condition needs a path")

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        x = grid.axis_coords()
        if self.kind == "constant":
            return np.full(grid.shape, float(self.value))
        if self.kind == "sine":
            profile = self.amplitude * np.sin(2.0 * np.pi * self.k * x / grid.l) + self.offset
            if grid.dim == 1:
                return profile
            return np.broadcast_to(profile[:, None], grid.shape).copy()
        if self.kind == "bump":
            dx = (x - self.center + grid.l / 2.0) % grid.l - grid.l / 2.0
            if grid.dim == 1:
                sq = dx * dx
            else:
                sq = dx[:, None] ** 2 + dx[None, :] ** 2
            return self.height * np.exp(-sq / (2.0 * self.width**2))
        loaded = read_field(self.path)
        if loaded.grid.dim != grid.dim or loaded.grid.n != grid.n:
            raise InputError("initial-condition file does not match the grid")
        if abs(loaded.grid.l - grid.l) > 1e-12 * max(1.0, grid.l):
            raise InputError("initial-condition file has a different domain length")
        return loaded.values


@dataclass(eq=False)
class Trajectory:
    """Snapshots as one ``(snapshots, *grid)`` array, with the integer step and
    the requested time of each row, plus provenance and clipping statistics."""

    fingerprint: str
    grid: GridSpec
    times: tuple
    steps: tuple
    values: np.ndarray
    clip_count: int = 0
    clip_max: float = 0.0
    complete: bool = True


def _fingerprint(parts: dict) -> str:
    text = "\n".join(f"{k} = {parts[k]}" for k in sorted(parts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_fingerprint(
    grid: GridSpec,
    kspec: KernelSpec,
    sspec: SigmaSpec,
    u0_spec: InitialCondition,
    stream: RngStream,
) -> str:
    return _fingerprint(
        {
            "grid": repr(grid),
            "kernel": repr(kspec),
            "sigma": repr(sspec),
            "u0": repr(u0_spec),
            "seed": (stream.master_seed, stream.replica_id),
        }
    )


def _snapshot_steps(grid: GridSpec, snapshot_times) -> dict[int, float]:
    """Map requested snapshot times onto step indices; times keep their requested values."""
    times = [float(t) for t in snapshot_times]
    steps = [grid.steps(t) for t in times]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise DomainError("snapshot times must be strictly increasing")
    return dict(zip(steps, times))


def _integrate(
    grid: GridSpec,
    kspec: KernelSpec,
    sspec: SigmaSpec,
    u0_spec: InitialCondition,
    legs0,
    streams,
    snapshot_times,
    clip: bool = False,
) -> list[list[Trajectory]]:
    """Step the initial fields ``legs0``, nested ``[replica][leg]``, as one
    ``(replicas, legs, *grid)`` stack; returns Trajectories nested the same way.

    Snapshots go into one ``(snapshots, replicas, legs, *grid)`` buffer, and
    the Trajectory of (replica ``r``, leg ``k``) holds the view ``buf[:, r, k]``
    with the integer step of each row.

    Step ``m`` draws replica ``r``'s ``dW`` from ``streams[r].at_step(m - 1)``
    (row ``r`` of the stacked draws is bitwise ``synthesize`` of that stream)
    and broadcasts it over that replica's legs; the step is then
    ``u + sigma(u) dW`` followed by the heat semigroup's FFT pair.  The FFTs
    transform each (replica, leg) row independently, so every row is bitwise
    the run it would be on its own.  A blow-up stops the batch at the first
    step where any replica is non-finite; the BlowUpError names that step, the
    lowest replica id at it and that replica's config fingerprint, and carries
    its ``partial_trajectories`` (``complete=False``): the rows recorded so far.
    """
    dt = grid.dt
    want = _snapshot_steps(grid, snapshot_times)
    mode_std = _amplitudes_cached(grid, kspec) * np.sqrt(dt)
    xi = np.fft.rfftfreq(grid.n, d=grid.h)
    if grid.dim == 1:
        rfft, irfft, size = np.fft.rfft, np.fft.irfft, grid.n
    else:
        rfft, irfft, size = np.fft.rfft2, np.fft.irfft2, grid.shape
        xi = np.stack(np.meshgrid(np.fft.fftfreq(grid.n, d=grid.h), xi, indexing="ij"), axis=-1)
    multiplier = semigroup_multiplier(xi, dt, grid.dim)
    u = np.array(legs0, dtype=float)
    shape = u.shape[:2]
    grid_axes = tuple(range(2, u.ndim))
    fingerprints = [config_fingerprint(grid, kspec, sspec, u0_spec, s) for s in streams]
    hi = 1.0 if sspec.kind == "viot" else np.inf

    buf = np.empty((len(want),) + u.shape)
    steps = tuple(want)
    times = tuple(want.values())
    done = 0
    clip_count = np.zeros(shape, dtype=np.int64)
    clip_max = np.zeros(shape)

    def trajectories(r: int, complete: bool) -> list[Trajectory]:
        return [
            Trajectory(fingerprint=fingerprints[r], grid=grid, times=times[:done], steps=steps[:done],
                       values=buf[:done, r, k], clip_count=int(clip_count[r, k]),
                       clip_max=float(clip_max[r, k]), complete=complete)
            for k in range(shape[1])
        ]

    last = steps[-1] if steps else 0
    for m in range(last + 1):
        if m > 0:
            spectra = [_draw_spectrum(grid, mode_std, s.at_step(m - 1).generator()) for s in streams]
            dw = _fields(grid, np.stack(spectra))[:, None]
            # overflowing states produce inf/nan here, turned into a blow-up
            # error with the offending step index just below
            with np.errstate(invalid="ignore", over="ignore"):
                u = irfft(rfft(u + sigma_eval(sspec, u) * dw) * multiplier, size)
            finite = np.isfinite(u)
            if not np.all(finite):
                r = int(np.argmin(finite.reshape(shape[0], -1).all(axis=1)))
                rid = streams[r].replica_id
                err = BlowUpError(f"non-finite values at step {m} (t={m * dt}) in replica {rid}",
                                  step_index=m, replica_id=rid, fingerprint=fingerprints[r])
                err.partial_trajectories = trajectories(r, complete=False)
                raise err
            if clip:
                mask = (u < 0.0) | (u > hi)
                if np.any(mask):
                    clipped = np.clip(u, 0.0, hi)
                    clip_count += np.count_nonzero(mask, axis=grid_axes)
                    clip_max = np.maximum(clip_max, np.max(np.abs(u - clipped), axis=grid_axes))
                    u = clipped
        if m in want:
            buf[done] = u
            done += 1
    return [trajectories(r, complete=True) for r in range(shape[0])]


def simulate_replicas(
    grid: GridSpec,
    kspec: KernelSpec,
    sspec: SigmaSpec,
    u0_spec: InitialCondition,
    streams,
    snapshot_times,
    clip: bool = False,
) -> list[Trajectory]:
    """Integrate one trajectory per stream as one batch; entry ``r`` is
    bitwise ``simulate`` with ``streams[r]``.  A blow-up error carries the
    ``partial_trajectory`` of the replica it names.
    """
    legs0 = [[u0_spec.evaluate(grid)]] * len(streams)
    try:
        batch = _integrate(grid, kspec, sspec, u0_spec, legs0, streams, snapshot_times, clip)
    except BlowUpError as err:
        (err.partial_trajectory,) = err.partial_trajectories
        raise
    return [traj for (traj,) in batch]


def simulate(
    grid: GridSpec,
    kspec: KernelSpec,
    sspec: SigmaSpec,
    u0_spec: InitialCondition,
    stream: RngStream,
    snapshot_times,
    clip: bool = False,
) -> Trajectory:
    """Integrate one trajectory; a deterministic function of its arguments.

    ``clip`` enables the optional nonnegativity guard: after each step the
    field is projected to [0, inf) (or [0, 1] for the viot coefficient) and
    every projected point is counted.  Off by default; the scheme itself is
    well-defined for negative values because the square-root coefficients
    clamp internally.  A blow-up error carries ``partial_trajectory``.
    """
    (traj,) = simulate_replicas(grid, kspec, sspec, u0_spec, [stream], snapshot_times, clip)
    return traj


@dataclass(eq=False)
class SolutionPair:
    """Two trajectories driven by the identical noise."""

    delta: float
    traj_a: Trajectory
    traj_b: Trajectory

    @property
    def diffs(self) -> np.ndarray:
        """``traj_a.values - traj_b.values``, one ``(snapshots, *grid)`` array,
        formed on each access so that a batch of pairs holds no copy."""
        return self.traj_a.values - self.traj_b.values

    @property
    def grid(self) -> GridSpec:
        return self.traj_a.grid

    @property
    def times(self) -> tuple:
        return self.traj_a.times


def _pairs(deltas, trajs: list[Trajectory]) -> list[SolutionPair]:
    """Pair leg 0 with leg ``k + 1`` for ``deltas[k]``."""
    traj_a = trajs[0]
    return [
        SolutionPair(delta=delta, traj_a=traj_a, traj_b=traj_b) for delta, traj_b in zip(deltas, trajs[1:])
    ]


def simulate_pairs(
    grid: GridSpec,
    kspec: KernelSpec,
    sspec: SigmaSpec,
    u0_spec: InitialCondition,
    perturbation: InitialCondition | None,
    deltas,
    streams,
    snapshot_times,
) -> list[list[SolutionPair]]:
    """Coupled pairs for every delta and every stream in one batch.

    Each replica steps legs ``[u0] + [u0 + d * perturbation for d in deltas]``
    on its one noise path, and its pair for ``deltas[k]`` is (leg 0, leg
    ``k + 1``).  Returns ``[replica][delta]``; entry ``[r][k]`` is bitwise the
    one-pair call with ``[deltas[k]]`` and ``[streams[r]]``, and a delta of 0
    reproduces leg 0 bitwise.  A blow-up error carries the ``partial_pairs``
    of the replica it names, diffs up to the last good snapshot.
    """
    u0 = u0_spec.evaluate(grid)
    pert = perturbation.evaluate(grid) if perturbation is not None and any(deltas) else None
    legs = [u0] + [u0 + d * pert if d != 0.0 and pert is not None else u0 for d in deltas]
    try:
        batch = _integrate(grid, kspec, sspec, u0_spec, [legs] * len(streams), streams, snapshot_times)
    except BlowUpError as err:
        err.partial_pairs = _pairs(deltas, err.partial_trajectories)
        raise
    return [_pairs(deltas, trajs) for trajs in batch]

