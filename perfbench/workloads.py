"""The four benchmark workloads, each a repeated ``spdelab`` CLI subcommand.

An op is one ``spdelab.cli.main`` call with a config from ``configs/``, the
op's seed and ``--gated``; its gate then reads the artifacts.  ``run.py``
repeats the op for ``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates

CONFIGS = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Op:
    command: str
    config: str
    # (outdir, seed, spdelab.noise module) -> (passed, detail)
    gate: Callable

    @property
    def config_path(self) -> Path:
        return CONFIGS / self.config


@dataclass(frozen=True)
class Workload:
    name: str
    op: Op
    threads: int
    check: Op | None = None  # one extra gated op per run, after the timed ops


# Why each workload exists, and which layer it stresses: BENCHMARK.json and
# README.md.  holder is the only one on the replica thread pool.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="covariance",
            op=Op("noise-check", "covariance.conf", lambda out, seed, noise: gates.covariance(out)),
            threads=1,
        ),
        Workload(
            name="holder",
            op=Op("holder", "holder.conf", lambda out, seed, noise: gates.holder(out)),
            threads=2,
        ),
        Workload(
            name="pairs",
            op=Op("uniqueness", "pairs.conf", lambda out, seed, noise: gates.pairs(out)),
            threads=1,
        ),
        Workload(
            name="field2d",
            op=Op(
                "simulate",
                "field2d.conf",
                lambda out, seed, noise: gates.field_dumps(out, noise.read_field, seed, alpha=1.0),
            ),
            threads=1,
            check=Op(
                "noise-check",
                "field2d_noise.conf",
                lambda out, seed, noise: gates.covariance(out, gates.COVARIANCE_2D_TOL),
            ),
        ),
    )
}


def read_config(path: Path) -> dict[str, str]:
    """``section.key = value`` lines, ``#`` comments, as the CLI reads them."""
    out = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def n_cells(cfg: dict[str, str]) -> int:
    """Grid points of a config, with the CLI's defaults."""
    return int(cfg.get("grid.n", 512)) ** int(cfg.get("grid.dim", 1))
