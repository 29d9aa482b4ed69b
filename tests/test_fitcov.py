"""The shared covariance step of the nonlinear fits."""

import numpy as np
import pytest
from scipy.optimize import least_squares

from cpwloss.errors import FitError
from cpwloss.fitcov import covariance


def linear_problem(m=40, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, m)
    design = np.column_stack([np.ones(m), x, x ** 2])
    y = design @ np.array([0.3, -1.2, 0.7]) + 0.05 * rng.standard_normal(m)
    return design, y


def test_linear_model_matches_closed_form():
    design, y = linear_problem()
    res = least_squares(lambda p: design @ p - y, np.zeros(3),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    r = design @ res.x - y
    s2 = r @ r / (y.size - 3)
    expected = s2 * np.linalg.inv(design.T @ design)
    assert covariance(res, "linear fit") == pytest.approx(expected, rel=1e-6)


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
    res = least_squares(lambda p: jac @ p - y, np.zeros(2), jac=lambda p: jac)
    s2 = 2.0 * res.cost / (m - 2)
    expected = s2 * v @ np.diag([1.0, 1e18]) @ v.T
    assert covariance(res, "ill-conditioned fit") == pytest.approx(expected, rel=1e-6)


def test_singular_jacobian_uses_pseudo_inverse():
    # the second parameter never enters the residuals: its Jacobian
    # column is exactly zero and J^T J is exactly singular
    design, y = linear_problem()
    col = design[:, 1]
    res = least_squares(lambda p: col * p[0] - y, np.zeros(2))
    assert not np.any(res.jac[:, 1])
    cov = covariance(res, "singular fit")
    s2 = 2.0 * res.cost / (y.size - 2)
    assert cov[0, 0] == pytest.approx(s2 / (col @ col), rel=1e-6)
    assert cov[0, 1] == cov[1, 0] == cov[1, 1] == 0.0


def test_unconverged_solve_names_the_fit():
    design, y = linear_problem()
    res = least_squares(lambda p: np.exp(design @ p) - y - 2.0, np.ones(3),
                        method="lm", max_nfev=2)
    assert res.status == 0
    with pytest.raises(FitError, match="demo stage"):
        covariance(res, "demo stage")


def test_no_degrees_of_freedom_gives_zero():
    design, y = linear_problem(m=3)
    res = least_squares(lambda p: design @ p - y, np.zeros(3))
    assert res.status > 0
    assert np.all(covariance(res, "exact fit") == 0.0)
