"""Plain-text experiment configuration: ``section.key = value`` lines.

The format is deliberately minimal and diff-friendly: UTF-8 text, one
assignment per line, ``#`` starts a comment, values are kept as strings until
a typed accessor parses them.  The fingerprint is a stable hash of the
canonicalized text (sorted keys, normalized spacing), so key order never
matters and every artifact can embed the fingerprint of the configuration
that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import ConfigError
from .kernels import KernelSpec
from .noise import GridSpec, RngStream
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


# where results are written has no bearing on what was computed
_NON_SEMANTIC_KEYS = frozenset({"run.out"})


def canonical_text(mapping: dict) -> str:
    keys = [k for k in sorted(mapping) if k not in _NON_SEMANTIC_KEYS]
    return "\n".join(f"{k} = {mapping[k]}" for k in keys) + "\n"


def fingerprint(mapping: dict) -> str:
    return hashlib.sha256(canonical_text(mapping).encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    """Typed access over the flat key/value map, with override support."""

    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None = None, overrides=(), defaults: str = DEFAULT_CONFIG):
        values = parse_config_text(defaults)
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            values.update(parse_config_text(text))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must look like section.key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if "." not in key:
                raise ConfigError(f"override key {key!r} must look like section.key")
            values[key] = value.strip()
        return cls(values=values)

    # -- typed accessors -----------------------------------------------------
    def _parse(self, key, caster, default):
        val = self.values.get(key)
        if val is None or val == "" or val.lower() == "auto":
            return default
        try:
            return caster(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {val!r}") from exc

    def get_str(self, key: str, default: str | None = None):
        return self._parse(key, str, default)

    def get_int(self, key: str, default: int | None = None):
        return self._parse(key, lambda s: int(s, 0), default)

    def get_float(self, key: str, default: float | None = None):
        return self._parse(key, float, default)

    def get_bool(self, key: str, default: bool = False):
        def cast(s):
            s = s.lower()
            if s in ("1", "true", "yes", "on"):
                return True
            if s in ("0", "false", "no", "off"):
                return False
            raise ValueError(s)

        return self._parse(key, cast, default)

    def get_floats(self, key: str, default=()):
        def cast(s):
            return tuple(float(part) for part in s.split(",") if part.strip())

        return self._parse(key, cast, tuple(default))

    def get_ints(self, key: str, default=()):
        def cast(s):
            return tuple(int(part, 0) for part in s.split(",") if part.strip())

        return self._parse(key, cast, tuple(default))

    # -- domain objects ------------------------------------------------------
    def grid(self) -> GridSpec:
        n = self.get_int("grid.n", 512)
        l = self.get_float("grid.l", 1.0)
        h = l / n
        return GridSpec(
            dim=self.get_int("grid.dim", 1),
            n=n,
            l=l,
            dt=self.get_float("grid.dt", None),
            t_end=self.get_float("grid.t_end", None) or 2000.0 * h * h,
            t_min=self.get_float("grid.t_min", None),
        )

    def kernel(self) -> KernelSpec:
        return KernelSpec(
            kind=self.get_str("kernel.kind", "riesz"),
            alpha=self.get_float("kernel.alpha", 0.5),
            amplitude=self.get_float("kernel.amplitude", 1.0),
            dim=self.get_int("grid.dim", 1),
        )

    def sigma(self) -> SigmaSpec:
        kw = {}
        table_u = self.get_floats("sigma.table_u", ())
        table_v = self.get_floats("sigma.table_v", ())
        if table_u:
            kw["table_u"] = table_u
            kw["table_v"] = table_v
        return SigmaSpec(
            kind=self.get_str("sigma.kind", "lipschitz-linear"),
            scale=self.get_float("sigma.scale", 1.0),
            gamma=self.get_float("sigma.gamma", None),
            growth_c=self.get_float("sigma.growth_c", None),
            **kw,
        )

    def u0(self) -> InitialCondition:
        return InitialCondition(
            kind=self.get_str("u0.kind", "constant"),
            value=self.get_float("u0.value", 1.0),
            k=self.get_int("u0.k", 1),
            amplitude=self.get_float("u0.amplitude", 1.0),
            offset=self.get_float("u0.offset", 0.0),
            center=self.get_float("u0.center", 0.0),
            width=self.get_float("u0.width", 0.1),
            height=self.get_float("u0.height", 1.0),
            path=self.get_str("u0.path", ""),
        )

    def stream(self, replica_id: int = 0) -> RngStream:
        return RngStream(master_seed=self.get_int("run.seed", 0xC0FFEE), replica_id=replica_id)

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
