"""Synthesis of spatially colored, temporally white Gaussian noise on a torus.

A noise increment over a time step ``dt`` is a real Gaussian field on a
periodic grid whose spatial covariance at separation ``r`` is
``dt * k(r)`` for the configured correlation kernel ``k``.  Fields are built
spectrally: each DFT mode ``k`` receives an independent Gaussian coefficient
with standard deviation ``sigma_k``.  In 1-D ``sigma_k^2`` is the *exact
integral* of the kernel's spectral density over the frequency cell
``[k/l - 1/(2l), k/l + 1/(2l)]``.  In 2-D only the zero cell is integrated
(over the disc of equal area); every nonzero mode takes the density at the
cell midpoint times the cell area.  Integrating the zero cell matters: it
carries a finite fraction of the spectral mass of a Riesz kernel, and
dropping it biases the covariance at separations approaching the domain
scale by far more than the 10% contract.

The resolvable band ends at the Nyquist frequency ``n/(2l)``; truncating
there mollifies the ``r -> 0`` singularity of the kernel at the grid scale
``h``, which is the intended grid-level regularisation.  Only the half
spectrum is drawn (``n/2+1`` modes in 1-D, ``n*(n/2+1)`` in 2-D); the inverse
real DFT supplies the conjugate half, so fields are real by construction.

Covariance estimates rest on the Wiener-Khinchin identity: a field's circular
autocovariance at every lag is one inverse DFT of its power spectrum.

Randomness is counter-based: every (master_seed, replica_id, step_index)
triple keys an independent Philox stream, so replicas and steps can be
generated in any order, concurrently, with bit-identical results.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    SingularKernelError,
    SpectralError,
)
from .kernels import KernelSpec, kernel_eval, riesz_spectral_constant

_TWO32 = 1 << 32
_MAGIC = b"SPDENZ1"
_HEADER = struct.Struct("<7sIIddIdQQQ")
_KIND_CODES = {"riesz": 0, "riesz-plus-constant": 1, "bounded-constant": 2, "white": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial grid plus time-stepping parameters.

    ``n`` points per axis (power of two) on a torus of side ``l``; spacing
    ``h = l/n``.  ``dt`` defaults to ``h^2/2`` (resolves the smallest
    diffusive scale), ``t_min`` to ``0.1 * t_end`` (estimator burn-in).
    Lengths and times must be finite.
    """

    dim: int = 1
    n: int = 256
    l: float = 1.0
    dt: float | None = None
    t_end: float = 1.0
    t_min: float | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError("grid dim must be 1 or 2")
        if not _is_power_of_two(self.n) or self.n < 4:
            raise DomainError("n must be a power of two >= 4")
        if not 0 < self.l < math.inf:
            raise DomainError("domain length must be finite and > 0")
        if self.dt is None:
            object.__setattr__(self, "dt", self.h * self.h / 2.0)
        if not 0 < self.dt < math.inf:
            raise DomainError("dt must be finite and > 0")
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be finite and > 0")
        if self.t_min is None:
            object.__setattr__(self, "t_min", 0.1 * self.t_end)
        if not 0 <= self.t_min < self.t_end:
            raise DomainError("need 0 <= t_min < t_end")

    @property
    def h(self) -> float:
        return self.l / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.n**self.dim

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def cells(self, length, lo: int = 1) -> int:
        """``length`` as a whole number of cells (to 1e-9 of a cell) in
        ``[lo, n/2]``; longer lengths would alias through the periodic wrap."""
        g = length / self.h
        if math.isfinite(g):
            gi = int(round(g))
            if abs(g - gi) <= 1e-9 and lo <= gi <= self.n // 2:
                return gi
        raise InputError(f"length {length} is not a whole number of cells in [{lo}, {self.n // 2}]")

    def steps(self, t, lo: int = 0) -> int:
        """``t`` as a whole number of ``dt`` steps (to 1e-6 of a step), at least ``lo``."""
        m = t / self.dt
        if math.isfinite(m):
            mi = int(round(m))
            if abs(m - mi) <= 1e-6 and mi >= lo:
                return mi
        raise InputError(f"time {t} is not a whole number of steps >= {lo} (dt={self.dt})")


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG coordinates: (master_seed, replica_id, step_index).

    Distinct triples give statistically independent Philox streams; the same
    triple always reproduces the same draws bit-for-bit.
    """

    master_seed: int = 0xC0FFEE
    replica_id: int = 0
    step_index: int = 0

    def __post_init__(self):
        if not 0 <= self.replica_id < _TWO32:
            raise DomainError("replica_id must fit in 32 bits")
        if not 0 <= self.step_index < _TWO32:
            raise DomainError("step_index must fit in 32 bits")

    def key(self) -> np.ndarray:
        word0 = self.master_seed % (1 << 64)
        word1 = self.replica_id * _TWO32 + self.step_index
        return np.array([word0, word1], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))

    def at_step(self, step_index: int) -> "RngStream":
        return replace(self, step_index=step_index)


@dataclass(eq=False)
class NoiseField:
    """One sampled noise increment: grid, values, provenance."""

    grid: GridSpec
    values: np.ndarray
    kernel: KernelSpec
    stream: RngStream
    dt: float


def _signed_modes(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)


@lru_cache(maxsize=64)
def _amplitudes_cached(grid: GridSpec, kspec: KernelSpec) -> np.ndarray:
    """Per-mode standard deviations (unit dt): the square roots of the mode
    masses, which are checked here, once, for every caller."""
    n, l, d = grid.n, grid.l, grid.dim
    if kspec.kind == "white":
        mass = np.full(grid.shape, kspec.amplitude / l**d)
    elif kspec.kind == "bounded-constant":
        mass = np.zeros(grid.shape)
        mass[(0,) * d] = kspec.amplitude
    else:
        kspec.require_existence_regime()
        alpha = kspec.alpha
        c = riesz_spectral_constant(alpha, d)
        k = _signed_modes(n)
        if d == 1:
            kk = np.abs(k)
            mass = np.zeros(n)
            nz = kk > 0
            # exact integral of c |xi|^(alpha-1) over each frequency cell of width 1/l
            mass[nz] = c / alpha * ((kk[nz] + 0.5) ** alpha - (kk[nz] - 0.5) ** alpha)
            mass[0] = c / alpha * 2.0 * 0.5**alpha
            mass /= l**alpha
        else:
            kx, ky = np.meshgrid(k, k, indexing="ij")
            norm = np.sqrt(kx * kx + ky * ky)
            mass = np.zeros((n, n))
            nz = norm > 0
            # midpoint density x cell area for nonzero modes
            mass[nz] = c * (norm[nz] / l) ** (alpha - 2.0) / l**2
            # zero cell: density integrated over the equal-area disc
            r_eq = 1.0 / (np.sqrt(np.pi) * l)
            mass[0, 0] = c * 2.0 * np.pi * r_eq**alpha / alpha
        mass *= kspec.amplitude
        if kspec.kind == "riesz-plus-constant":
            # the additive constant in the kernel is a pure DC covariance component
            mass[(0,) * d] += kspec.amplitude
    if not np.all(np.isfinite(mass)) or np.any(mass < 0):
        raise SpectralError("spectral masses must be finite and >= 0")
    return np.sqrt(mass)


def spectral_amplitudes(grid: GridSpec, kspec: KernelSpec) -> np.ndarray:
    """Per-mode standard deviations (unit dt) on the full signed-frequency grid.

    The synthesized field has covariance ``sum_k sigma_k^2 cos(2 pi k.r / l)``,
    which matches ``kernel_eval`` at resolvable separations.
    """
    return _amplitudes_cached(grid, kspec).copy()


def _draw_spectrum(grid: GridSpec, mode_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coefficients ``mode_std * z`` of one draw on the rfft half spectrum (last axis ``0..n/2``)."""
    n, nh = grid.n, grid.n // 2 + 1
    if grid.dim == 1:
        g = rng.standard_normal((2, nh))
        z = (g[0] + 1j * g[1]) * np.sqrt(0.5)
        z[0] = g[0, 0]  # self-conjugate modes are real with unit variance
        z[-1] = g[0, -1]
        return mode_std[:nh] * z
    g = rng.standard_normal((2, n, nh))
    z = (g[0] + 1j * g[1]) * np.sqrt(0.5)
    edge = z[:, :: n // 2]  # view of columns ky = 0, n/2: Hermitian along kx, as irfft2 needs
    edge[:: n // 2] = g[0, :: n // 2, :: n // 2]  # self-conjugate modes
    edge[n // 2 + 1:] = np.conj(edge[n // 2 - 1:0:-1])
    return mode_std[:, :nh] * z


def _draw_power(grid: GridSpec, mode_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``|S|^2`` at ``kx = 0..n/2`` of ``S = _draw_spectrum(grid, mode_std, rng)``, summed over ``ky``.

    1-D: formed from the normal rows with no complex array, bitwise ``|S|^2``.
    2-D: the edge columns count once, each interior column at ``kx`` and ``-kx``."""
    if grid.dim == 1:
        g = rng.standard_normal((2, grid.n // 2 + 1))
        a = mode_std[: grid.n // 2 + 1]
        power = (a * (g[0] * np.sqrt(0.5))) ** 2 + (a * (g[1] * np.sqrt(0.5))) ** 2
        power[[0, -1]] = (a[[0, -1]] * g[0, [0, -1]]) ** 2  # the real modes
        return power
    s = _draw_spectrum(grid, mode_std, rng)
    p = s.real**2 + s.imag**2
    inner = p[:, 1:-1].sum(axis=1)
    return (p[:, 0] + p[:, -1] + inner + np.roll(inner[::-1], 1))[: grid.n // 2 + 1]


def synthesize(grid: GridSpec, mode_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one real Gaussian field with the given per-mode standard deviations.

    ``mode_std`` lives on the full signed-frequency grid (``numpy.fft.fftfreq``
    layout) and must be symmetric under frequency negation.  Only its half
    spectrum is drawn, and the inverse real DFT implies the conjugate half,
    so the returned field is real by construction.
    """
    mode_std = np.asarray(mode_std, dtype=float)
    if mode_std.shape != grid.shape:
        raise InputError("mode_std shape does not match the grid")
    if not np.all(np.isfinite(mode_std)) or np.any(mode_std < 0):
        raise SpectralError("mode standard deviations must be finite and >= 0")
    return _fields(grid, _draw_spectrum(grid, mode_std, rng)[None])[0]


def _fields(grid: GridSpec, spectra: np.ndarray) -> np.ndarray:
    """Real fields of ``_draw_spectrum`` draws stacked on a leading axis.

    The inverse real DFT (``irfft`` in 1-D, ``irfft2`` in 2-D) is unscaled
    (``norm="forward"``), so a field is the plain sum of its modes.  Each row
    is transformed on its own, so it is bitwise the field of that draw alone.
    """
    if grid.dim == 1:
        return np.fft.irfft(spectra, grid.n, norm="forward")
    return np.fft.irfft2(spectra, grid.shape, norm="forward")


@dataclass(frozen=True)
class CovarianceRow:
    lag: float
    estimate: float
    stderr: float
    theory: float


def _theory_cov(kspec: KernelSpec, grid: GridSpec, lag: float) -> float:
    if kspec.kind == "white":
        return grid.dt * kspec.amplitude / grid.h**grid.dim if lag == 0 else 0.0
    return float(grid.dt * kernel_eval(kspec, lag))


def covariance_check(
    grid: GridSpec,
    kspec: KernelSpec,
    lags,
    replicas: int,
    steps_per_replica: int = 1,
    master_seed: int = 0xC0FFEE,
) -> list[CovarianceRow]:
    """Streaming Monte Carlo covariance check of increments over ``grid.dt``
    against ``grid.dt * k``.

    Each replica is one stream that contributes ``steps_per_replica``
    independent increments (distinct step indices).  No field is formed: by
    Wiener-Khinchin, ``mean(x * roll(x, g))`` of the field
    ``x = irfft(S, norm="forward")`` is ``irfft(n * |S|^2)[g]``, so each
    replica sums the power of its drawn spectra ``S`` (in 2-D, summed over
    ``ky``) and takes one ``irfft``.
    The standard error comes from the spread of the per-replica means.  With a
    single increment per replica the estimator is noise-limited at large lags
    (its variance is dominated by the grid-scale mollified singularity), so
    tight tolerances need ``steps_per_replica`` well above 1.
    """
    if steps_per_replica < 1:
        raise DomainError("steps_per_replica must be >= 1")
    if replicas < 2:
        raise InsufficientDataError(f"need >= 2 replicas, got {replicas}", n_samples=replicas)
    offsets = [grid.cells(lag, lo=0) for lag in lags]
    if 0 in offsets and kspec.is_singular:
        raise SingularKernelError("lag 0 excluded: riesz kernel is singular at separation 0")
    amps = spectral_amplitudes(grid, kspec) * np.sqrt(grid.dt)
    n, nh = grid.n, grid.n // 2 + 1
    per_replica = np.empty((replicas, len(offsets)))
    for r in range(replicas):
        power = np.zeros(nh)
        for m in range(steps_per_replica):
            rng = RngStream(master_seed, r, m).generator()
            power += _draw_power(grid, amps, rng)
        per_replica[r] = np.fft.irfft(n * power, n)[offsets] / steps_per_replica
    return [
        CovarianceRow(lag=float(lag), estimate=float(np.mean(col)),
                      stderr=float(np.std(col, ddof=1) / np.sqrt(len(col))),
                      theory=_theory_cov(kspec, grid, float(lag)))
        for lag, col in zip(lags, per_replica.T)
    ]


def write_field(field: NoiseField, path) -> None:
    """Dump a field: fixed little-endian header then float64 values, row-major."""
    header = _HEADER.pack(
        _MAGIC,
        field.grid.dim,
        field.grid.n,
        field.grid.l,
        field.dt,
        _KIND_CODES[field.kernel.kind],
        field.kernel.alpha,
        field.stream.master_seed % (1 << 64),
        field.stream.replica_id,
        field.stream.step_index,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> NoiseField:
    """Read a field written by :func:`write_field`.

    The header does not carry the kernel amplitude; the reconstructed
    KernelSpec uses amplitude 1.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            payload = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read field dump: {exc}") from exc
    if len(raw) != _HEADER.size:
        raise InputError("truncated field header")
    magic, dim, n, l, dt, kind_code, alpha, seed, replica, step = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise InputError("bad magic; not a field dump")
    shape = (n,) * dim
    expected = 8 * n**dim
    if len(payload) != expected:
        raise InputError(f"payload length {len(payload)} != expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise InputError(f"unknown kernel kind code {kind_code}")
    kspec = KernelSpec(kind=kind, alpha=alpha if alpha else 0.5, dim=dim)
    grid = GridSpec(dim=dim, n=n, l=l, dt=dt if dt > 0 else None, t_end=max(dt, 1.0))
    stream = RngStream(master_seed=seed, replica_id=replica, step_index=step)
    return NoiseField(grid=grid, values=values, kernel=kspec, stream=stream, dt=dt)
