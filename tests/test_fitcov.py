"""The least-squares kernel and the shared covariance step of the nonlinear fits."""

import numpy as np
import pytest

from cpwloss import circlefit, filmchar, fitcov, tlsloss
from cpwloss.errors import FitError
from cpwloss.fitcov import covariance, solve
from test_circlefit import noisy_draws
from test_filmchar import make_scan
from test_tlsloss import series_from_model


def linear_problem(m=40, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, m)
    design = np.column_stack([np.ones(m), x, x ** 2])
    y = design @ np.array([0.3, -1.2, 0.7]) + 0.05 * rng.standard_normal(m)
    return design, y


def solve_linear(design, y, x0=None, **bounds):
    x0 = np.zeros(design.shape[1]) if x0 is None else x0
    return solve(lambda p: design @ p - y, lambda p: design, x0, **bounds)


def test_linear_model_matches_closed_form():
    design, y = linear_problem()
    res = solve_linear(design, y)
    r = design @ res.x - y
    s2 = r @ r / (y.size - 3)
    expected = s2 * np.linalg.inv(design.T @ design)
    assert covariance(res, "linear fit") == pytest.approx(expected, rel=1e-6)


def test_linear_solution_matches_closed_form():
    design, y = linear_problem()
    expected = np.linalg.lstsq(design, y, rcond=None)[0]
    res = solve_linear(design, y, x0=np.array([5.0, -3.0, 2.0]))
    assert res.status > 0
    assert np.max(np.abs(res.x - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_zero_component_does_not_block_xtol():
    # the optimum's slope is 0 up to round-off: no step passes a relative
    # test on that component alone, and the finishing steps ran on; the
    # scaled-norm test stops at the first point, which solves the problem
    m = 40
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(m), np.linspace(-1.0, 1.0, m)])
    noise = 0.05 * rng.standard_normal(m)
    y = 0.3 + noise - design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    res = solve_linear(design, y)
    assert res.status > 0
    assert res.nfev == 2
    assert np.max(np.abs(res.x - [0.3, 0.0])) <= 1e-13


def test_ill_conditioned_jacobian():
    # J = U diag(1, 1e-9) V^T: J^T J has condition number 1e18, past what
    # inverting it in double precision can resolve; the SVD of J is not
    m = 40
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((m, 2)))
    c, s = np.cos(0.3), np.sin(0.3)
    v = np.array([[c, -s], [s, c]])
    jac = u @ np.diag([1.0, 1e-9]) @ v.T
    y = rng.standard_normal(m)
    res = solve_linear(jac, y)
    s2 = 2.0 * res.cost / (m - 2)
    expected = s2 * v @ np.diag([1.0, 1e18]) @ v.T
    assert covariance(res, "ill-conditioned fit") == pytest.approx(expected, rel=1e-6)


def test_singular_jacobian_uses_pseudo_inverse():
    # the second parameter never enters the residuals: its Jacobian
    # column is exactly zero and J^T J is exactly singular
    design, y = linear_problem()
    col = design[:, 1]
    res = solve_linear(np.column_stack([col, np.zeros_like(col)]), y)
    assert not np.any(res.jac[:, 1])
    cov = covariance(res, "singular fit")
    s2 = 2.0 * res.cost / (y.size - 2)
    assert cov[0, 0] == pytest.approx(s2 / (col @ col), rel=1e-6)
    assert cov[0, 1] == cov[1, 0] == cov[1, 1] == 0.0


def test_bound_active_variable_stays_on_its_bound():
    # the slope fits -1.2 without bounds; held at >= -1 it sits on the
    # bound, and the intercept is the best one for that slope
    design, y = linear_problem()
    line = design[:, :2]
    res = solve_linear(line, y, lower=[-np.inf, -1.0], upper=[np.inf, 0.0])
    assert res.status > 0
    assert res.x[1] == -1.0
    assert res.x[0] == pytest.approx(np.mean(y + line[:, 1]), rel=1e-12)


def test_unconverged_solve_names_the_fit(monkeypatch):
    # two evaluations cannot converge: a MAX_NFEV stop
    monkeypatch.setattr(fitcov, "MAX_NFEV", 2)
    design, y = linear_problem()

    def fun(p):
        return np.exp(design @ p) - y - 2.0

    def jac(p):
        return design * np.exp(design @ p)[:, None]

    res = solve(fun, jac, np.ones(3))
    assert res.status == 0
    assert res.nfev == 2
    with pytest.raises(FitError, match="^demo stage did not converge: the maximum "
                                       "number of function evaluations was reached$"):
        covariance(res, "demo stage")


def test_overshooting_step_is_halved():
    # r = (atan x, 0.1) from x = 2: the full Gauss-Newton step lands at
    # x = -3.5, where |atan x| is larger; halving it converges to x = 0
    costs = []

    def fun(p):
        r = np.array([np.arctan(p[0]), 0.1])
        costs.append(r @ r)
        return r

    def jac(p):
        return np.array([[1.0 / (1.0 + p[0] ** 2)], [0.0]])

    res = solve(fun, jac, np.array([2.0]))
    assert costs[1] > costs[0] > costs[2]
    assert res.status == 2
    assert res.nfev > res.njev
    assert abs(res.x[0]) <= 1e-12


def ascent_solve():
    # the Jacobian's sign is flipped, so every step along its Gauss-Newton
    # direction raises |r|^2
    design, y = linear_problem()
    return solve(lambda p: design @ p - y, lambda p: -design,
                 np.array([5.0, -3.0, 2.0]))


def test_no_descent_ends_on_xtol(monkeypatch):
    # halving from t = 1 to the xtol length takes ~50 evaluations
    monkeypatch.setattr(fitcov, "MAX_NFEV", 200)
    res = ascent_solve()
    assert res.status == 3
    assert res.nfev < 200 and res.njev == 1
    assert np.all(res.x == [5.0, -3.0, 2.0])


def test_max_nfev_counts_the_halvings(monkeypatch):
    monkeypatch.setattr(fitcov, "MAX_NFEV", 10)
    res = ascent_solve()
    assert (res.status, res.nfev, res.njev) == (0, 10, 1)


def test_resonance_fit_names_the_cap(monkeypatch):
    # the resonance fit's message reads the one cap from fitcov
    monkeypatch.setattr(fitcov, "MAX_NFEV", 3)
    with pytest.raises(FitError, match="^resonance fit \\(limit 3 function evaluations\\) "
                                       "did not converge: the maximum number"):
        circlefit.fit_resonance(next(noisy_draws(1, noise=1e-2)))


def recorded_nfev(monkeypatch, module):
    """The nfev of every solve that `module` makes from here on."""
    nfev = []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(module, "solve", recording_solve)
    return nfev


def test_acceptance_draws_evaluation_budget(monkeypatch):
    # the 200 acceptance draws at noise 1e-3 took 1,416 evaluations with
    # the trust-region solve; the line search may not take more
    nfev = recorded_nfev(monkeypatch, circlefit)
    for sweep in noisy_draws(200):
        circlefit.fit_resonance(sweep)
    assert len(nfev) == 200
    assert sum(nfev) <= 1416, sum(nfev)


def test_tls_fits_evaluation_budget(monkeypatch):
    # 100 series of test_02's truth at 3 % noise take at most 16
    # evaluations each, far below the one cap every fit shares
    nfev = recorded_nfev(monkeypatch, tlsloss)
    for seed in range(100):
        tlsloss.fit_tls(series_from_model(2.4e-6, 17.0, 0.42, 2.9e-7, noise=0.03,
                                          rng=np.random.default_rng(seed)))
    assert len(nfev) == 100
    assert max(nfev) <= 25 < fitcov.MAX_NFEV, max(nfev)


def test_peak_fits_evaluation_budget(monkeypatch):
    # 100 pseudo-Voigt peaks (centre 35-38 deg, FWHM 0.1-0.8 deg, 100-1000
    # counts) at 5 counts of noise take at most 15 evaluations each
    nfev = recorded_nfev(monkeypatch, filmchar)
    for k in range(100):
        rng = np.random.default_rng(2000 + k)
        center, fwhm = rng.uniform(35.0, 38.0), rng.uniform(0.1, 0.8)
        scan = make_scan([(center, fwhm, rng.uniform(100.0, 1000.0), rng.uniform(0.0, 1.0))],
                         noise=5.0, seed=3000 + k)
        filmchar.fit_peaks(scan, windows=((center - 1.5, center + 1.5),))
    assert len(nfev) == 100
    assert max(nfev) <= 25 < fitcov.MAX_NFEV, max(nfev)


@pytest.mark.parametrize("fun,jac", [
    (lambda x: np.full(3, 1e300) * x, lambda x: np.full((3, 1), 1.0)),
    (lambda x: x - np.ones(3), lambda x: np.full((3, 1), np.nan)),
    (lambda x: x - np.ones(3), lambda x: np.full((3, 1), np.inf)),
], ids=["overflowing_residuals", "nan_jacobian", "infinite_jacobian"])
def test_non_finite_start_raises_fit_error(fun, jac):
    # an overflowing |r|^2 would pass for converged, and the SVD of a
    # non-finite Jacobian does not converge; solve raises no numpy warning
    with pytest.raises(FitError, match="the residuals or the Jacobian are not finite"):
        solve(fun, jac, np.array([1.0]))


def test_no_degrees_of_freedom_gives_zero():
    design, y = linear_problem(m=3)
    res = solve_linear(design, y)
    assert res.status > 0
    assert np.all(covariance(res, "exact fit") == 0.0)


@pytest.mark.parametrize("c", [
    [1e-12, 1e-12, 1e-12], [1e12, 1e12, 1e12], [1e-12, 1.0, 1e12],
    [1e12, 1e-6, 3.7], [7.3e-5, 1e9, 1e-12],
], ids=["all_small", "all_large", "spread", "mixed", "reversed"])
def test_solve_does_not_depend_on_parameter_units(c):
    # y = A exp(-t/T) + B with B held >= 0.05, solved for x and for x/c:
    # the column scaling makes the two solves take the same steps
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 5.0, 60)
    y = 2.0 * np.exp(-t / 1.3) + 0.04 + 0.01 * rng.standard_normal(t.size)
    x0, lower, upper = np.array([1.0, 3.0, 0.5]), np.array([-np.inf, 0.1, 0.05]), np.inf

    def fun(p):
        return p[0] * np.exp(-t / p[1]) + p[2] - y

    def jac(p):
        e = np.exp(-t / p[1])
        return np.column_stack([e, p[0] * e * t / p[1] ** 2, np.ones_like(t)])

    c = np.array(c)
    ref = solve(fun, jac, x0, lower, upper)
    res = solve(lambda q: fun(q * c), lambda q: jac(q * c) * c, x0 / c, lower / c, upper)
    assert ref.status > 0 and ref.x[2] == 0.05
    assert (res.status, res.nfev, res.njev) == (ref.status, ref.nfev, ref.njev)
    assert res.x * c == pytest.approx(ref.x, rel=1e-12, abs=0.0)
    sigma = np.sqrt(np.diag(covariance(res, "scaled fit"))) * c
    assert sigma == pytest.approx(np.sqrt(np.diag(covariance(ref, "fit"))), rel=1e-12, abs=0.0)
