"""Correctness gates: each reads the artifacts one CLI op wrote to ``--out``.

Every gate returns ``(passed, detail)`` and never trusts the CLI's own
verdict; a missing file or column fails the gate.  Tolerances are the
acceptance criteria's: 10% covariance (criterion 1), the criterion-2
exponent bands, an exactly-zero delta-0 row plus monotone divergence
(criterion 6), and the 15% 2-D spot check.
"""

from __future__ import annotations

import csv
from pathlib import Path

COVARIANCE_TOL = 0.10
SPACE_BAND = (0.65, 0.85)
TIME_BAND = (0.30, 0.45)
COVARIANCE_2D_TOL = 0.15


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no data rows")
    return rows


def covariance(outdir: Path, tol: float = COVARIANCE_TOL):
    """Every lag's estimate within ``tol`` of the theory value."""
    worst = 0.0
    for row in read_rows(outdir / "noise_covariance.csv"):
        theory = float(row["theory"])
        if theory == 0.0:
            return False, f"lag {row['lag']}: zero theory value"
        worst = max(worst, abs(float(row["estimate"]) / theory - 1.0))
    return worst <= tol, f"max rel err {worst:.4f} (tol {tol})"


def holder(outdir: Path, space=SPACE_BAND, time=TIME_BAND):
    """Spatial and temporal exponents inside their bands."""
    exps = {row["direction"]: float(row["exponent"]) for row in read_rows(outdir / "holder.csv")}
    sp, tm = exps.get("space"), exps.get("time")
    if sp is None or tm is None:
        return False, f"holder.csv lacks a direction: {sorted(exps)}"
    ok = space[0] <= sp <= space[1] and time[0] <= tm <= time[1]
    return ok, f"spatial {sp:.4f} in {list(space)}, temporal {tm:.4f} in {list(time)}"


def pairs(outdir: Path):
    """The delta-0 row is exactly 0.0 and the divergence is monotone in delta."""
    rows = read_rows(outdir / "uniqueness_summary.csv")
    zero = [row for row in rows if float(row["delta"]) == 0.0]
    if not zero:
        return False, "no delta = 0 row"
    zero_ok = all(float(row["peak_l1"]) == 0.0 for row in zero)
    monotone = all(row["monotone_in_delta"] == "True" for row in rows)
    return zero_ok and monotone, f"delta-0 peak exactly zero: {zero_ok}; monotone: {monotone}"


def field_dumps(outdir: Path, read_field, seed: int, alpha: float):
    """Every snapshot dump reads back with a header that matches the run and
    values whose mean/min/max equal the ``trajectory.csv`` row."""
    rows = read_rows(outdir / "trajectory.csv")
    dumps = sorted(outdir.glob("snapshot_*.bin"))
    if len(dumps) != len(rows):
        return False, f"{len(dumps)} dumps for {len(rows)} trajectory rows"
    for path, row in zip(dumps, rows):
        f = read_field(path)
        stats = (float(f.values.mean()), float(f.values.min()), float(f.values.max()))
        want = (float(row["mean"]), float(row["min"]), float(row["max"]))
        header_ok = (
            f.dt == float(row["t"])
            and f.stream.master_seed == seed
            and f.kernel.alpha == alpha
            and f.values.shape == (f.grid.n,) * f.grid.dim
        )
        if not header_ok:
            return False, f"{path.name}: header does not match the run"
        if stats != want:
            return False, f"{path.name}: stats {stats} != trajectory.csv {want}"
    return True, f"{len(dumps)} dumps match header and trajectory.csv"

