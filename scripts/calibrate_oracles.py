#!/usr/bin/env python3
"""One-time calibration of the oracle envelope constant.

Sweeps the weighted L1 heat-kernel difference estimate over its parameter
space, records the max ratio of the quadrature lhs to the *shape* part of its
bound, and prints a constant with ~25% headroom.  The value lives in
``spdelab.oracles.FROZEN_CONSTANTS["pdiffest"]`` and is never refit at test
time; rerun this script only to regenerate it after changing the quadrature
internals.
"""

import numpy as np

from spdelab.oracles import heat_difference_l1


def calibrate_pdiffest(n_cases=150):
    """Sweep mixed, pure-spatial (tp = t) and pure-temporal (x = y) branches
    across the beta range; the frozen constant must dominate all of them."""
    rng = np.random.Generator(np.random.Philox(key=20240501))
    worst = 0.0
    for beta in (0.25, 0.5, 0.75, 1.0):
        for branch in ("mixed", "space", "time"):
            for _ in range(n_cases):
                t = float(rng.uniform(0.02, 2.0))
                tp = t if branch == "space" else t * float(rng.uniform(1.0, 4.0))
                x, y = rng.uniform(-2.0, 2.0, size=2)
                if branch == "time":
                    y = x
                lam = float(rng.choice([0.0, 0.0, 0.5, 1.0]))
                lhs = heat_difference_l1(t, tp, float(x), float(y), lam)
                shape = (
                    np.exp(2.0 * lam * lam * tp)
                    * (np.exp(lam * abs(x)) + np.exp(lam * abs(y)))
                    * np.exp(2.0 * beta * lam * abs(x - y))
                    * (t ** (-beta / 2.0) * abs(x - y) ** beta + t ** (-beta) * (tp - t) ** beta)
                )
                if shape > 0:
                    worst = max(worst, lhs / shape)
    return worst


if __name__ == "__main__":
    worst = calibrate_pdiffest()
    print(f"pdiffest: max ratio {worst:.6f} -> frozen constant {1.25 * worst:.4g}")
