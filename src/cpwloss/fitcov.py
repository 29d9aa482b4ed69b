"""The least-squares kernel of the nonlinear fits and their covariance.

solve() takes Gauss-Newton steps -V S^-1 U^T r from the SVD U S V^T of
the Jacobian scaled by its column norms, never from J^T J, so a
Jacobian of condition 1e10 loses no digits to squaring. Each step is
halved until it lowers |r|^2 by a fraction of the gain the linear model
predicts for it, a backtracking line search (Nocedal and Wright,
Numerical Optimization, 2nd ed. (2006), ch. 3 and 10): the fits start
near their optimum and are well conditioned, so the full step is
nearly always taken and no trust region is needed. Box bounds clip
each trial point; a variable on a bound whose gradient points out of
the box is held fixed until it turns inward. Callers pass parameters
in the model's own units: the column scaling makes the steps, the
stopping tests and the covariance independent of those units. Every
fit shares the tolerances XTOL and FTOL and the evaluation cap MAX_NFEV.

Near the optimum the change of the sum of squares is round-off, so a
cost test accepts or refuses a step at random. Once the Gauss-Newton
step from x is predicted to gain at most FTOL, the solve therefore
finishes with Gauss-Newton steps and no cost test. The finishing stops
at the first step that is not at most half the one before it. So only
where the Gauss-Newton iteration contracts at least 2x per step do
these steps reach the optimum at round-off, with a result that no
longer depends on the path that got there. Where it contracts less, as
on a large-residual fit, the path still shows: draws 12, 50 and 5 of
the 1,400-fit stress set moved by 1e-9 to 1.1e-4 sigma between a
trust-region solve and this one. covariance() reads s^2 (J^T J)^+ from the SVD at
the final point; a separable fit maps it to its linear parameters
without a second factorisation (circlefit).
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError

EPS = np.finfo(float).eps
# Convergence tolerances of every fit: XTOL on the scaled step length
# relative to the scaled x, FTOL on the predicted relative gain of |r|^2.
XTOL = 1e-15
FTOL = 1e-10
# A cap on the finishing Gauss-Newton steps; they stop sooner, once a
# step no longer halves, so they reach the optimum at round-off only if
# the iteration contracts at least 2x per step (not on stress-set draws
# 12, 50 and 5: 1e-9 to 1.1e-4 sigma). On the 200 acceptance draws the
# resonance fit takes at most 4 at noise 1e-3, where no fit reaches the
# cap, and 4 fits of 189 reach it at noise 1e-2.
FINISH_STEPS = 8
# The evaluation cap of every fit. The most an accepted fit took: 7/9/19
# on the acceptance draw at noise 0/1e-3/1e-2, 67 on the 1,400-fit stress
# set, 17 for TLS over 80 noisy power series, 19 for 200 noisy
# pseudo-Voigt peaks. Only resonance solves that then fail reach it (110
# of 400 noise-only traces; 6/9/15 stress sweeps at 2e-2/3e-2/5e-2), and
# a solve that converges and is then rejected may take up to 194.
MAX_NFEV = 200


def _kept(s, shape):
    """Singular values above eps*max(m, n)*s_0, the cutoff scipy's
    curve_fit uses, so directions J does not constrain drop out instead
    of getting a round-off-sized inverse."""
    return s > EPS * max(shape) * s[0]


def gram_pinv(jac):
    """(J^T J)^+ = V^T S^-2 V from the SVD J = U S V^T, with _kept's cutoff."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = _kept(s, jac.shape)
    vt = vt[keep]
    return (vt.T / s[keep] ** 2) @ vt


def svd_lstsq(a, b):
    """Minimum-norm least-squares solution A^+ b from the SVD of A, with
    _kept's cutoff."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = _kept(s, a.shape)
    return vt[keep].T @ ((b @ u[:, keep]) / s[keep])


@dataclass(frozen=True)
class Solution:
    """Result of solve().

    fun and jac are the residuals and Jacobian at x, cost = |fun|^2/2.
    status is 0 when MAX_NFEV stopped the solve, 2 when it converged on
    FTOL and 3 when it converged on XTOL. s and vt are the kept singular
    values and right singular vectors of jac/scale, None at status 0.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    cost: float
    nfev: int
    njev: int
    status: int
    message: str
    scale: np.ndarray
    s: np.ndarray
    vt: np.ndarray


MESSAGES = {
    0: "the maximum number of function evaluations was reached",
    2: "ftol: the predicted relative gain fell to ftol",
    3: "xtol: the step fell to xtol",
}


def _norm(v):
    return np.sqrt(v @ v)


def _factor(jac, r, scale, free):
    """(U^T r, s, V^T) of the SVD U S V^T of jac/scale with the columns of
    the variables not free zeroed, kept singular values only."""
    u, s, vt = np.linalg.svd(jac * (free / scale), full_matrices=False)
    keep = _kept(s, jac.shape)
    return (r @ u)[keep], s[keep], vt[keep]


@np.errstate(over="ignore", invalid="ignore")
def solve(fun, jac, x0, lower=-np.inf, upper=np.inf):
    """Minimise |fun(x)|^2 over lower <= x <= upper; returns a Solution.

    jac(x) is the Jacobian of fun, and scale the running maximum of its
    column norms. At each point the Gauss-Newton step p is tried whole,
    then halved: t*p is accepted once it lowers |fun|^2 by 1e-4 of its
    predicted gain (2t - t^2)|U^T r|^2. x has converged when p is
    predicted to lower |fun|^2 by at most FTOL relative (status 2) or is
    at most XTOL*|scale*x| long in scaled terms (status 3). The
    finishing Gauss-Newton steps then run until one is at most
    XTOL*|scale*x| long, is longer than the last accepted step or than
    half the step before it, or would leave the box, at most
    FINISH_STEPS of them; the final x is path-independent only if the
    iteration contracts at least 2x per step (stress-set draws 12, 50
    and 5 moved 1e-9 to 1.1e-4 sigma). When halving shrinks t*p to
    XTOL*|scale*x| instead, no step along p lowers |fun|^2: the solve
    ends at x with status 3. MAX_NFEV caps the evaluations of fun before
    convergence, the first and those of the halvings included (status 0).
    A point whose |fun|^2 or Jacobian is not finite raises FitError, so
    numpy's overflow and invalid-value warnings on the way are silenced.
    """
    x = np.asarray(x0, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), x.shape)
    x = np.clip(x, lower, upper)
    r = fun(x)
    f2 = r @ r
    jx = jac(x)
    nfev = njev = 1
    scale = np.zeros(x.size)
    bound = np.inf
    status = None
    finishing = 0
    while True:
        if not (np.isfinite(f2) and np.all(np.isfinite(jx))):
            raise FitError("the residuals or the Jacobian are not finite")
        scale = np.maximum(scale, np.sqrt(np.einsum("ij,ij->j", jx, jx)))
        scale[scale == 0.0] = 1.0
        grad = r @ jx
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        g, s, vt = _factor(jx, r, scale, free)
        # the Gauss-Newton step; its scaled length against that of x is
        # MINPACK's xtol test, which a component near 0 cannot block
        step = -(vt.T @ (g / s)) * free / scale
        pnorm = _norm(scale * step)
        xnorm = _norm(scale * x)
        at_xtol = pnorm <= XTOL * xnorm
        gain = g @ g
        if status is None:
            if gain <= FTOL * f2:
                status = 2
            elif at_xtol:
                status = 3
            elif nfev >= MAX_NFEV:
                status = 0
        if status is not None:
            # finishing: the Gauss-Newton step, taken without a cost test
            # while it is no longer than the last accepted step and at
            # most half as long as the finishing step before it, so the
            # steps converge
            trial = x + step
            if (status == 0 or at_xtol or finishing == FINISH_STEPS
                    or pnorm > bound or np.any(trial < lower) or np.any(trial > upper)):
                break
            r_new = fun(trial)
            nfev += 1
            if not np.all(np.isfinite(r_new)):
                break
            x, r, f2 = trial, r_new, r_new @ r_new
            jx = jac(x)
            njev += 1
            finishing += 1
            bound = 0.5 * pnorm
            continue
        t = 1.0
        while True:
            trial = np.clip(x + t * step, lower, upper)
            r_new = fun(trial)
            nfev += 1
            f2_new = r_new @ r_new
            # a NaN or infinite |r|^2 fails this test and halves the step
            if f2 - f2_new >= 1e-4 * (2.0 * t - t * t) * gain:
                break
            t *= 0.5
            if t * pnorm <= XTOL * xnorm:
                status = 3
            elif nfev >= MAX_NFEV:
                status = 0
            if status is not None:
                break
        if status is not None:
            break
        bound = _norm(scale * (trial - x))
        x, r, f2 = trial, r_new, f2_new
        jx = jac(x)
        njev += 1

    if status == 0:
        s = vt = None
    elif not free.all():
        g, s, vt = _factor(jx, r, scale, np.ones(x.size, dtype=bool))
    return Solution(x=x, fun=r, jac=jx, cost=0.5 * float(r @ r), nfev=nfev,
                    njev=njev, status=status, message=MESSAGES[status],
                    scale=scale, s=s, vt=vt)


def covariance(res, what):
    """s^2 (J^T J)^+ at a solve()'s final point, in its coordinates.

    s^2 = 2*cost/(m - k) for m residuals and k parameters, and zero when
    m <= k; (J^T J)^+ = D^-1 V S^-2 V^T D^-1 comes from the SVD of the
    column-scaled Jacobian J D^-1 that the last step used, with the
    cutoff of gram_pinv. Raises FitError naming `what` unless the solve
    converged (res.status > 0).
    """
    if res.status <= 0:
        raise FitError(f"{what} did not converge: {res.message}")
    vt = res.vt / res.scale
    dof = res.fun.size - vt.shape[1]
    s2 = 2.0 * res.cost / dof if dof > 0 else 0.0
    return (vt.T / res.s ** 2) @ vt * s2
