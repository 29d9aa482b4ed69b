"""Parameter covariance of a converged nonlinear least-squares solve."""

import numpy as np

from .errors import FitError


def covariance(res, what):
    """s^2 (J^T J)^-1 of a scipy least_squares result, in its coordinates.

    s^2 = 2*cost/(m - k) for m residuals and k parameters, and zero when
    m <= k. A singular J^T J falls back to its pseudo-inverse. Raises
    FitError naming `what` unless the solve converged (res.status > 0).
    """
    if res.status <= 0:
        raise FitError(f"{what} did not converge: {res.message}")
    dof = res.fun.size - res.x.size
    s2 = 2.0 * res.cost / dof if dof > 0 else 0.0
    jtj = res.jac.T @ res.jac
    try:
        return np.linalg.inv(jtj) * s2
    except np.linalg.LinAlgError:
        return np.linalg.pinv(jtj) * s2
