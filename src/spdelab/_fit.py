"""The one log-log fit: every exponent in the package is the slope it returns.

It lives apart from :mod:`spdelab.estimators` so that :mod:`spdelab.oracles`
can use it without importing the solver.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def fit_loglog(xs, ys) -> tuple[float, float]:
    """Least-squares slope of ``log(ys)`` on ``log(xs)``, and its standard error."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    if np.any(~np.isfinite(y)):
        raise DomainError("zero or non-finite values cannot be fit on a log scale")
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    denom = np.sum((x - x.mean()) ** 2)
    return float(coef[0]), float(np.sqrt(np.sum(resid**2) / dof / denom))
