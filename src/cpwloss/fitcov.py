"""The least-squares kernel of the nonlinear fits and their covariance.

solve() is Moré's Levenberg-Marquardt method (J. J. Moré, "The
Levenberg-Marquardt algorithm: implementation and theory", Lecture
Notes in Math. 630, 105 (1978)), as MINPACK's lmder implements it: a
trust region on the step scaled by the Jacobian's column norms, whose
damping parameter solves Moré's secular equation. Each step comes from
the SVD of the column-scaled Jacobian, never from J^T J, so every
damping trial at one point reuses one factorisation and a Jacobian of
condition 1e10 loses no digits to squaring. Box bounds clip each trial
point; a variable on a bound whose gradient points out of the box is
held fixed until it turns inward. Callers pass parameters in the
model's own units: the column scaling makes the steps, the stopping
tests and the covariance independent of those units.

Near the optimum the change of the sum of squares is round-off, so a
damped step is accepted or refused at random and the damped phase
stops ~1e-9 short, at a point set by its path. Once the Gauss-Newton
step from x is predicted to gain at most ftol, the solve therefore
finishes with undamped Gauss-Newton steps -V S^-1 U^T r and no cost
test (Nocedal and Wright, Numerical Optimization, 2nd ed. (2006),
ch. 10). They converge to the optimum at round-off, so the result no
longer depends on how the damped phase got there. covariance() reads
s^2 (J^T J)^+ from the SVD at the final point; a separable fit maps it
to its linear parameters without a second factorisation (circlefit).
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError

EPS = np.finfo(float).eps
# A cap on the finishing Gauss-Newton steps; they stop sooner, once a
# step no longer halves. On the 200 acceptance draws the resonance fit
# takes at most 4 at noise 1e-3, and 5 fits of 189 reach the cap at
# noise 1e-2.
FINISH_STEPS = 8


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
    status is 0 when max_nfev stopped the solve, 2 when it converged on
    ftol and 3 when it converged on xtol. s and vt are the kept singular
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
    2: "ftol: the predicted or actual relative gain fell to ftol",
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


def _damped(s, g, delta, lam):
    """Rotated step c (scaled step -V c) with |c| within 10 % of delta, and
    its damping lam, or the Gauss-Newton step with lam = 0 when that is
    no longer than 1.1*delta. Newton's method on 1/|c(lam)| - 1/delta,
    safeguarded by bounds on lam (Moré 1978, section 5)."""
    gn = g / s
    gn_norm = _norm(gn)
    if gn_norm <= 1.1 * delta:
        return gn, 0.0
    sg = s * g
    lo = (gn_norm - delta) * gn_norm / np.sum(gn ** 2 / s ** 2)
    hi = _norm(sg) / delta
    for _ in range(10):
        if not lo <= lam <= hi:
            lam = max(1e-3 * hi, np.sqrt(lo * hi))
        den = s ** 2 + lam
        c = sg / den
        c_norm = _norm(c)
        phi = c_norm - delta
        if abs(phi) <= 0.1 * delta:
            break
        dphi = -np.sum(c ** 2 / den) / c_norm
        if phi < 0:
            hi = lam
        lo = max(lo, lam - phi / dphi)
        lam -= (c_norm / delta) * phi / dphi
    return c, lam


def solve(fun, jac, x0, lower=-np.inf, upper=np.inf, *, xtol, ftol, max_nfev):
    """Minimise |fun(x)|^2 over lower <= x <= upper; returns a Solution.

    jac(x) is the Jacobian of fun. The damped phase is MINPACK's lmder:
    scale is the running maximum of J's column norms and the first step
    bound 100*|scale*x0|. It has converged when the Gauss-Newton step
    from x is predicted to lower |fun|^2 by at most ftol relative or
    is at most xtol*|scale*x| long in scaled terms, or, as in lmder,
    when a damped step gains at most ftol or the step bound falls to
    xtol*|scale*x| (status 2 for ftol, 3 for xtol). The finishing
    Gauss-Newton steps then run until one is at most xtol*|scale*x|
    long, is longer than the trust region or than half the step before
    it, or would leave the box, at most FINISH_STEPS of them. max_nfev
    counts evaluations of fun before convergence, the first included.
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
    free = np.ones(x.size, dtype=bool)
    delta = None
    lam = 0.0
    status = None
    finishing = 0
    while True:
        scale = np.maximum(scale, np.sqrt(np.einsum("ij,ij->j", jx, jx)))
        scale[scale == 0.0] = 1.0
        if delta is None:
            delta = 100.0 * (_norm(scale * x) or 1.0)
        grad = r @ jx
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        g, s, vt = _factor(jx, r, scale, free)
        # x has converged once the Gauss-Newton step from it is predicted
        # to gain at most ftol, or its scaled length is at most xtol times
        # that of x, MINPACK's test, which a component near 0 cannot block
        step = -(vt.T @ (g / s)) * free / scale
        at_xtol = _norm(scale * step) <= xtol * _norm(scale * x)
        if status is None:
            if g @ g <= ftol * f2:
                status = 2
            elif at_xtol:
                status = 3
            elif nfev >= max_nfev:
                status = 0
        if status is not None:
            # finishing: the Gauss-Newton step, taken without a cost test
            # while it stays in the trust region and is at most half as
            # long as the finishing step before it, so the steps converge
            pnorm = _norm(scale * step)
            trial = x + step
            if (status == 0 or at_xtol or finishing == FINISH_STEPS
                    or pnorm > delta or np.any(trial < lower) or np.any(trial > upper)):
                break
            r_new = fun(trial)
            nfev += 1
            if not np.all(np.isfinite(r_new)):
                break
            x, r, f2 = trial, r_new, r_new @ r_new
            jx = jac(x)
            njev += 1
            finishing += 1
            delta = 0.5 * pnorm
            continue
        while status is None:
            c, lam = _damped(s, g, delta, lam)
            step = -(vt.T @ c) * free / scale
            # the step actually taken, so the predicted gain below is
            # that of the point evaluated
            trial = np.clip(x + step, lower, upper)
            step = trial - x
            pnorm = _norm(scale * step)
            if njev == 1:
                delta = min(delta, pnorm)
            # U^T J step, and from it the predicted and the directional
            # relative change of |r|^2
            w = s * (vt @ (scale * step))
            prered = -(w @ (2.0 * g + w)) / f2
            dirder = (g @ w) / f2
            r_new = fun(trial)
            nfev += 1
            f2_new = r_new @ r_new
            actred = 1.0 - f2_new / f2 if f2_new < 100.0 * f2 else -1.0
            ratio = actred / prered if prered > 0 else 0.0
            if ratio <= 0.25:
                shrink = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if not f2_new < 100.0 * f2 or not shrink >= 0.1:
                    shrink = 0.1
                delta = shrink * min(delta, 10.0 * pnorm)
                lam /= shrink
            elif lam == 0.0 or ratio >= 0.75:
                delta = 2.0 * pnorm
                lam *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, r, f2 = trial, r_new, f2_new
                jx = jac(x)
                njev += 1
            if abs(actred) <= ftol and prered <= ftol:
                status = 2
            elif delta <= xtol * _norm(scale * x):
                status = 3
            elif nfev >= max_nfev:
                status = 0
            if accepted:
                break

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
