"""Parameter covariance of least-squares fits, from the SVD of the Jacobian."""

import numpy as np

from .errors import FitError


def gram_pinv(jac):
    """(J^T J)^+ = V^T S^-2 V from the SVD J = U S V^T.

    Singular values at or below eps*max(m, n)*s_0 are dropped, the cutoff
    scipy's curve_fit uses, so directions J does not constrain get zero
    variance instead of a round-off-sized inverse.
    """
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    vt = vt[keep]
    return (vt.T / s[keep] ** 2) @ vt


def covariance(res, what):
    """s^2 (J^T J)^+ of a scipy least_squares result, in its coordinates.

    s^2 = 2*cost/(m - k) for m residuals and k parameters, and zero when
    m <= k; (J^T J)^+ comes from gram_pinv. Raises FitError naming
    `what` unless the solve converged (res.status > 0).
    """
    if res.status <= 0:
        raise FitError(f"{what} did not converge: {res.message}")
    dof = res.fun.size - res.x.size
    s2 = 2.0 * res.cost / dof if dof > 0 else 0.0
    return gram_pinv(res.jac) * s2
