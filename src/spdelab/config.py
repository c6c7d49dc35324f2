"""Plain-text experiment configuration: ``section.key = value`` lines.

The format is deliberately minimal and diff-friendly: UTF-8 text, one
assignment per line, ``#`` starts a comment, values are kept as strings until
a typed accessor parses them.  The fingerprint is a stable hash of the
canonicalized text (sorted keys, normalized spacing), so key order never
matters and every artifact can embed the fingerprint of the configuration
that produced it.

Every key and its default is stated once, in ``DEFAULT_CONFIG`` or
``OPTIONAL_CONFIG``; a key named in neither is rejected at load time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .kernels import KernelSpec
from .noise import GridSpec, RngStream, _replica_streams
from .solver import InitialCondition, SigmaSpec

DEFAULT_CONFIG = """
# spdelab experiment configuration (defaults)
grid.dim = 1
grid.n = 512
grid.l = 1.0
grid.dt = auto
grid.t_end = auto
grid.t_min = auto

kernel.kind = riesz
kernel.alpha = 0.5
kernel.amplitude = 1.0

sigma.kind = lipschitz-linear
sigma.scale = 1.0
sigma.gamma = auto

u0.kind = constant
u0.value = 1.0

run.seed = 12648430
run.replicas = 8
run.out = out

noise.lags = 4,8,16,32,64
noise.tol = 0.10
noise.steps = 2048

holder.lags = 8,16,32,64
holder.tsteps = 64,128,256,512,1024
holder.order = 2
holder.p = 2
holder.snap_every = 16

pair.perturbation = bump
pair.width = auto
pair.height = 1.0
pair.deltas = 0.1,0.01,0.001

smallvalue.xi = auto
smallvalue.eps_cells = 4,8
smallvalue.lags = 1,2,4,8
smallvalue.delta = 0.1

yw.n = 4
yw.rho = sqrt

oracle.alpha = 0.5
oracle.cases = 12
"""

# Keys a config may set that DEFAULT_CONFIG leaves out.  Their defaults are
# read from here but never merged into a config's values, so a key enters
# the fingerprint and the manifest only once a config sets it.
OPTIONAL_CONFIG = """
sim.snapshots = auto
sim.clip = false
sigma.table_u = auto
sigma.table_v = auto
sigma.growth_c = auto
u0.k = 1
u0.amplitude = 1.0
u0.offset = 0.0
u0.center = 0.0
u0.width = 0.1
u0.height = 1.0
u0.path = auto
pair.k = 1
holder.gate_space = auto
holder.gate_time = auto
smallvalue.gate_gap = 0.05
"""


def parse_config_text(text: str) -> dict:
    """Parse ``section.key = value`` lines into a flat {dotted-key: string} map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must look like 'section.key'")
        out[key] = value
    return out


_OPTIONAL = parse_config_text(OPTIONAL_CONFIG)

# where results are written has no bearing on what was computed
_NON_SEMANTIC_KEYS = frozenset({"run.out"})


def canonical_text(mapping: dict) -> str:
    keys = [k for k in sorted(mapping) if k not in _NON_SEMANTIC_KEYS]
    return "\n".join(f"{k} = {mapping[k]}" for k in keys) + "\n"


def fingerprint(mapping: dict) -> str:
    return hashlib.sha256(canonical_text(mapping).encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    """Typed access over the flat key/value map, with override support.

    An unset, empty or ``auto`` key reads from ``values`` (what the fingerprint
    hashes), then the ``defaults`` it was loaded with, then ``OPTIONAL_CONFIG``;
    ``auto`` in all three reads as ``None``, ``()`` or ``False``."""

    values: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=lambda: parse_config_text(DEFAULT_CONFIG))

    @classmethod
    def load(cls, path: str | None = None, overrides=(), defaults: str = DEFAULT_CONFIG):
        base = parse_config_text(defaults)
        given = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            given.update(parse_config_text(text))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must look like section.key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if "." not in key:
                raise ConfigError(f"override key {key!r} must look like section.key")
            given[key] = value.strip()
        unknown = sorted(given.keys() - base.keys() - _OPTIONAL.keys())
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(values={**base, **given}, defaults=base)

    # -- typed accessors -----------------------------------------------------
    def _parse(self, key, caster, unset=None):
        val = next((src[key] for src in (self.values, self.defaults, _OPTIONAL)
                    if src.get(key, "").lower() not in ("", "auto")), None)
        if val is None:
            return unset
        try:
            return caster(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {val!r}") from exc

    def get_str(self, key: str):
        return self._parse(key, str)

    def get_int(self, key: str):
        return self._parse(key, lambda s: int(s, 0))

    def get_float(self, key: str):
        return self._parse(key, float)

    def get_bool(self, key: str):
        def cast(s):
            s = s.lower()
            if s in ("1", "true", "yes", "on"):
                return True
            if s in ("0", "false", "no", "off"):
                return False
            raise ValueError(s)

        return self._parse(key, cast, False)

    def get_floats(self, key: str):
        return self._parse(key, lambda s: tuple(float(part) for part in s.split(",") if part.strip()), ())

    def get_ints(self, key: str):
        return self._parse(key, lambda s: tuple(int(part, 0) for part in s.split(",") if part.strip()), ())

    # -- domain objects ------------------------------------------------------
    def grid(self) -> GridSpec:
        n = self.get_int("grid.n")
        l = self.get_float("grid.l")
        h = l / n if n else math.nan  # GridSpec rejects n = 0 with its own message
        return GridSpec(
            dim=self.get_int("grid.dim"),
            n=n,
            l=l,
            dt=self.get_float("grid.dt"),
            t_end=self.get_float("grid.t_end") or 2000.0 * h * h,
            t_min=self.get_float("grid.t_min"),
        )

    def kernel(self) -> KernelSpec:
        return KernelSpec(
            kind=self.get_str("kernel.kind"),
            alpha=self.get_float("kernel.alpha"),
            amplitude=self.get_float("kernel.amplitude"),
            dim=self.get_int("grid.dim"),
        )

    def sigma(self) -> SigmaSpec:
        table_u = self.get_floats("sigma.table_u")
        return SigmaSpec(
            kind=self.get_str("sigma.kind"),
            scale=self.get_float("sigma.scale"),
            gamma=self.get_float("sigma.gamma"),
            growth_c=self.get_float("sigma.growth_c"),
            table_u=table_u,
            table_v=self.get_floats("sigma.table_v") if table_u else (),
        )

    def u0(self) -> InitialCondition:
        return InitialCondition(
            kind=self.get_str("u0.kind"),
            value=self.get_float("u0.value"),
            k=self.get_int("u0.k"),
            amplitude=self.get_float("u0.amplitude"),
            offset=self.get_float("u0.offset"),
            center=self.get_float("u0.center"),
            width=self.get_float("u0.width"),
            height=self.get_float("u0.height"),
            # repr(u0) enters trajectory fingerprints, which hash an unset path as ''
            path=self.get_str("u0.path") or "",
        )

    def stream(self, replica_id: int = 0) -> RngStream:
        return RngStream(master_seed=self.get_int("run.seed"), replica_id=replica_id)

    def streams(self) -> list[RngStream]:
        """One stream per replica, ``run.replicas`` of them."""
        return _replica_streams(self.get_int("run.seed"), self.get_int("run.replicas"))

    def fingerprint(self) -> str:
        return fingerprint(self.values)

    def manifest_lines(self, extra: dict | None = None) -> list[str]:
        lines = [
            f"{k} = {self.values[k]}"
            for k in sorted(self.values)
            if k not in _NON_SEMANTIC_KEYS
        ]
        lines.append(f"fingerprint = {self.fingerprint()}")
        for k in sorted(extra or {}):
            lines.append(f"{k} = {extra[k]}")
        return lines
