"""Notch-type resonator model and its variable-projection fit.

The model for a quarter-wave resonator side-coupled to a feedline is

    S21(f) = a*e^{i*alpha}*e^{-2i*pi*f*tau}
             * [1 - (Ql/|Qc|)*e^{i*phi} / (1 + 2i*Ql*(f - fr)/fr)]

with environment amplitude a, phase alpha and cable delay tau, loaded
quality factor Ql, coupling magnitude |Qc| and impedance-mismatch angle
phi. fit_resonance() takes start values for (fr, Ql, tau) from the
trace's wing slope and its dip, then fits all seven parameters with one
variable-projection solve (Golub and Pereyra, SIAM J. Numer. Anal. 10,
413 (1973)): for fixed (fr, Ql, tau) the model is linear in two complex
coefficients, which a least-squares step gives, so the nonlinear solver
sees three parameters. The errors of all seven come from that solve's
final SVD and the Schur complement of the separable problem (Probst et
al., Rev. Sci. Instrum. 86, 024706 (2015)), and they also decide whether
the sweep holds a dip: a fit that does not resolve Qi finds none. The
detuning is written (f - fr)/fr, which is exact near fr, not f/fr - 1,
which loses up to log10(2*Ql) digits before the product with 2*Ql.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fitcov
from .dataio import ComplexSweep
from .errors import DataError, FitError
from .fitcov import covariance, solve
from .stats import median

TWO_PI = 2.0 * np.pi


def notch_model(f, fr, Ql, Qc_mag, phi, a=1.0, alpha=0.0, tau=0.0):
    """Complex S21 of a notch resonator in its environment."""
    f = np.asarray(f, dtype=float)
    env = a * np.exp(1j * alpha) * np.exp(-1j * TWO_PI * f * tau)
    return env * (1.0 - _dip(f, fr, Ql, Qc_mag, phi))


def _dip(f, fr, Ql, Qc_mag, phi):
    """The resonant term of notch_model, 1 - S21/env, for an array f.

    It is built in the one complex array this call returns, so the real
    f - fr is the only other temporary. The explicit ufunc calls keep the
    operand order of (Ql/|Qc|)*e^{i*phi} / (1 + 2i*Ql*(f - fr)/fr), which
    numpy's temporary elision could swap on arrays over 256 KiB.
    """
    d = np.multiply(2j * Ql, f - fr)
    d /= fr
    np.add(1.0, d, out=d)
    return np.divide((Ql / Qc_mag) * np.exp(1j * phi), d, out=d)


def check_internal_loss(what, Ql, Qc_mag, phi):
    """Raise DataError unless the internal loss 1/Qi = 1/Ql - cos(phi)/|Qc|
    of `what` is positive."""
    inv_qi = 1.0 / Ql - np.cos(phi) / Qc_mag
    if not inv_qi > 0:
        raise DataError(f"{what}: internal loss 1/Qi = 1/Ql - cos(phi)/Qc_mag "
                        f"must be positive, got {inv_qi:.3g}")


def default_frequencies(fr, Ql, span_linewidths=10.0, npoints=1001):
    """Symmetric frequency grid around fr covering span_linewidths*fr/Ql."""
    if not Ql > 0:
        raise DataError(f"Ql must be positive, got {float(Ql)!r}")
    half = 0.5 * span_linewidths * fr / Ql
    return np.linspace(fr - half, fr + half, npoints)


def synthesize_notch(fr, Ql, Qc_mag, phi=0.0, a=1.0, alpha=0.0, tau=0.0,
                     frequencies=None, noise_sigma=0.0, seed=None,
                     **sweep_fields):
    """Generate a ComplexSweep from known model parameters.

    Additive complex Gaussian noise of std noise_sigma per quadrature is
    drawn from a generator seeded with `seed`, so sweeps are exactly
    reproducible. Extra keyword fields (power_dbm, resonator_id, ...)
    are passed through to the ComplexSweep. Parameters with a
    non-positive internal loss 1/Ql - cos(phi)/|Qc| raise DataError.
    """
    for name, value in (("fr", fr), ("Ql", Ql), ("Qc_mag", Qc_mag), ("a", a)):
        if not value > 0:
            raise DataError(f"{name} must be positive, got {float(value)!r}")
    rid = sweep_fields.get("resonator_id")
    check_internal_loss(f"resonator {rid}" if rid else "resonator",
                        Ql, Qc_mag, phi)
    if noise_sigma < 0:
        raise DataError("noise_sigma must be >= 0")
    if frequencies is None:
        frequencies = default_frequencies(fr, Ql)
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.size == 0:
        raise DataError("empty frequency grid")
    z = notch_model(frequencies, fr, Ql, Qc_mag, phi, a, alpha, tau)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        z = z + noise_sigma * (rng.standard_normal(z.size)
                               + 1j * rng.standard_normal(z.size))
    return ComplexSweep(frequency_hz=frequencies, s21=z, **sweep_fields)


WING_FRACTION = 0.2


def _wing_slices(n):
    k = max(2, int(round(n * WING_FRACTION)))
    return slice(0, k), slice(n - k, n)


def _wing_delay(f, z):
    """Cable delay in seconds from the phase slope of the trace's wings.

    Least-squares slopes, in closed form on centred frequencies, of the
    unwrapped phase of the outer 20% of points on each side of the trace
    (averaged), which see mostly the e^{-2i*pi*f*tau} winding. This is
    only a start value: fit_resonance fits tau jointly with fr and Ql.
    """
    left, right = _wing_slices(f.size)
    slopes = []
    for sl in (left, right):
        # an overflow spoils only this start value; fitcov.solve rejects
        # any non-finite residual or Jacobian that follows from it
        with np.errstate(over="ignore", invalid="ignore"):
            inc = np.angle(z[sl][1:] * np.conj(z[sl][:-1]))
        if np.any(np.abs(inc) >= 0.99 * np.pi):
            raise FitError("phase unwrap failure: adjacent off-resonant points "
                           "step by ~pi; the sweep undersamples the delay winding")
        phase = np.concatenate([[0.0], np.cumsum(inc)])
        x = f[sl] - f[sl].sum() / phase.size
        slopes.append((x @ phase) / (x @ x))
    return -0.5 * (slopes[0] + slopes[1]) / TWO_PI


def _initial_guesses(f, zc):
    """(fr, Ql) start values read straight from a delay-corrected trace.

    fr0 is the frequency of the deepest point of |zc|. Ql0 is fr0 over
    the full width of the dip at half its depth below the off-resonant
    level (the mean of the two wings); when the dip shows no width at
    that level, Ql0 assumes a dip a tenth of the span wide. fit_resonance
    fits both, so neither needs to be more than a start.
    """
    mag = np.abs(zc)
    i_dip = int(np.argmin(mag))
    fr0 = float(f[i_dip])

    left, right = _wing_slices(f.size)
    p_off = 0.5 * (zc[left].mean() + zc[right].mean())

    # FWHM of the magnitude dip, relative to the off-resonant level
    depth = abs(p_off) - mag[i_dip]
    ql0 = None
    if depth > 0:
        half_level = abs(p_off) - 0.5 * depth
        below = mag < half_level
        if np.any(below):
            idx = np.nonzero(below)[0]
            width = f[idx[-1]] - f[idx[0]]
            if width > 0:
                ql0 = fr0 / width
    if ql0 is None:
        ql0 = 10.0 * fr0 / (f[-1] - f[0])
    return fr0, ql0


def _wrap_angle(angle):
    return (angle + np.pi) % TWO_PI - np.pi


def _noise_floor(z):
    # adjacent-point differences are insensitive to the resonance shape;
    # |diff| of white complex noise is Rayleigh with median 1.665*sigma
    return median(np.abs(np.diff(z))) / 1.665


@dataclass(frozen=True)
class ResonanceFit:
    """Extracted notch-model parameters with per-parameter errors.

    sigma maps parameter name -> standard error from the Jacobian at
    the optimum (Qi's error includes the Ql/Qc/phi covariances).
    rms_residual is per quadrature, comparable to the noise std.
    """

    fr: float
    Ql: float
    Qc_mag: float
    phi: float
    Qi: float
    a: float
    alpha: float
    tau: float
    rms_residual: float
    sigma: dict
    n_points: int = 0


# rms_residual / noise floor reads at most 1.22 over the acceptance draw
# and the stress set, and 30 or more with a second dip in the window; 3
# leaves room for noise that point-to-point differences underrate.
ADEQUACY_LIMIT = 3.0

# A fit finds a dip only if it resolves the dip's Qi: Qi must stand at
# least 4 sigma_Qi clear of zero. At sigma_Qi/Qi = 0.5 the 2-sigma interval
# reaches zero and bounds no internal loss; 0.25 asks for twice that, so a
# Qi passes even where sigma_Qi, a linearised estimate, is low by 2x, and
# the curvature term linearisation drops, (sigma_Qi/Qi)^2, stays under 7 %.
RESOLVABILITY_LIMIT = 0.25


def fit_resonance(sweep):
    """Fit the notch model to one sweep.

    A wing-slope delay and the dip's depth and width give a start for
    (fr, Ql, tau); one variable-projection solve over those three fits
    the rest as the two linear coefficients of _linear_step, and
    _covariance maps the solve's own covariance to the errors of all
    seven. Raises FitError when the solve does not converge, the residual
    is more than ADEQUACY_LIMIT times the noise floor, the fit is
    unphysical, or it finds no dip: sigma_Qi/Qi above RESOLVABILITY_LIMIT.
    """
    # a parsed sweep holds strided views of its file's block; the fit
    # works on contiguous copies of them
    f = np.ascontiguousarray(sweep.frequency_hz)
    z = np.ascontiguousarray(sweep.s21)

    tau0 = _wing_delay(f, z)
    zc = z * np.exp(1j * TWO_PI * f * tau0)

    fr0, ql0 = _initial_guesses(f, zc)
    fc = 0.5 * (f[0] + f[-1])
    df = f - f[0]
    w = 1j * TWO_PI * (f - fc)
    # one entry: solve asks for a Jacobian only where it has just taken residuals
    memo = [None, None]

    def step(theta):
        if memo[0] != theta.tobytes():
            memo[:] = theta.tobytes(), _linear_step(f, df, w, z, theta)
        return memo[1]

    def residuals(theta):
        r = step(theta)[4]
        return np.concatenate([r.real, r.imag])

    def jac(theta):
        return _projected_jac(f, w, theta, *step(theta)[:4])

    # fr enters as fr - f[0], whose double resolves the optimum below one
    # ulp of fr, so c0 and c1 belong to the optimum and not to the double
    # nearest fr
    res = solve(residuals, jac, np.array([fr0 - f[0], ql0, tau0]))
    if res.status == 0:
        raise FitError(f"resonance fit (limit {fitcov.MAX_NFEV} function evaluations) "
                       f"did not converge: {res.message}")
    fr_f, ql_f, tau_f = f[0] + res.x[0], res.x[1], res.x[2]
    c0, c1, h, hc = step(res.x)[:4]
    qc_f, phi_f, a_f, alpha_c = _linear_parameters(ql_f, c0, c1)

    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    noise = _noise_floor(zc)
    if rms > ADEQUACY_LIMIT * noise:
        ratio = rms / noise if noise > 0 else np.inf
        raise FitError(f"the notch model does not fit: residual rms {rms:.3g} is "
                       f"{ratio:.3g} times the noise floor ({noise:.3g} per "
                       f"quadrature); is there a second dip, or a response "
                       f"that is not a notch?")
    inv_qi = 1.0 / ql_f - np.cos(phi_f) / qc_f
    if ql_f <= 0 or not inv_qi > 0:
        raise FitError(f"unphysical fit: Ql={ql_f:.4g}, Qc_mag={qc_f:.4g}, "
                       f"1/Qi={inv_qi:.4g}")
    if not f[0] <= fr_f <= f[-1]:
        raise FitError(f"fitted resonance {fr_f:.6g} Hz lies outside the sweep")
    if abs(phi_f) >= np.pi / 2:
        raise FitError(f"fitted impedance-mismatch angle phi={phi_f:.3f} rad "
                       f"is outside (-pi/2, pi/2); not a notch-type response")
    qi = 1.0 / inv_qi

    cov = _covariance(res, f, fc, w, c0, c1, h, hc)
    alpha_f = _wrap_angle(alpha_c + TWO_PI * fc * tau_f)

    names = ("fr", "Ql", "Qc_mag", "phi", "a", "alpha", "tau")
    sigma = {n: float(np.sqrt(cov[i, i])) for i, n in enumerate(names)}
    # propagate Qi error including Ql/Qc/phi covariances
    g = np.zeros(7)
    g[1] = qi ** 2 / ql_f ** 2
    g[2] = -qi ** 2 * np.cos(phi_f) / qc_f ** 2
    g[3] = -qi ** 2 * np.sin(phi_f) / qc_f
    sigma["Qi"] = float(np.sqrt(max(g @ cov @ g, 0.0)))
    if not sigma["Qi"] <= RESOLVABILITY_LIMIT * qi:
        raise FitError(f"no dip found: sigma_Qi/Qi = {sigma['Qi'] / qi:.3g} is above "
                       f"{RESOLVABILITY_LIMIT:g}; the sweep does not resolve Qi")

    span_lw = (f[-1] - f[0]) * ql_f / fr_f
    if span_lw < 3.0:
        warnings.warn(f"sweep spans only {span_lw:.2f} linewidths around the dip; "
                      f"background calibration may be biased", stacklevel=2)

    return ResonanceFit(
        fr=float(fr_f), Ql=float(ql_f), Qc_mag=float(qc_f),
        phi=float(phi_f), Qi=float(qi), a=float(a_f),
        alpha=float(alpha_f), tau=float(tau_f),
        rms_residual=rms, sigma=sigma, n_points=int(f.size),
    )


def _linear_step(f, df, w, z, theta):
    """The least-squares c0, c1 of y = z*e^{w*tau} = c0 + c1*h, w = 2i*pi*(f - fc),
    h = 1/(1 + 2i*Ql*(f - fr)/fr), at theta = (fr - f[0], Ql, tau), df = f - f[0],
    from the orthogonal columns 1 and hc = h - mean(h). Returns (c0, c1, h,
    hc, r), r being the residual y - c0 - c1*h."""
    u, ql, tau = theta
    y = z * np.exp(w * tau)
    h = 1.0 / (1.0 + 2j * ql * (df - u) / (f[0] + u))
    hm = h.sum() / h.size
    hc = h - hm
    ym = y.sum() / y.size
    c1 = np.vdot(hc, y) / np.vdot(hc, hc).real
    return ym - c1 * hm, c1, h, hc, (y - ym) - c1 * hc


def _linear_parameters(ql, c0, c1):
    """(Qc_mag, phi, a, alpha_c) of the coefficients c0 = a*e^{i*alpha_c}
    and c1 = -c0*(Ql/Qc_mag)*e^{i*phi}; a and Qc_mag are positive."""
    return ql * abs(c0) / abs(c1), np.angle(-c1 / c0), abs(c0), np.angle(c0)


def _model_columns(f, w, theta, c0, c1, h):
    """d/dtheta of the model e^{-w*tau}*(c0 + c1*h) times e^{w*tau}, (3, n)."""
    u, ql, _ = theta
    fr = f[0] + u
    c1dh = 2j * c1 * h * h
    cols = np.empty((3, f.size), dtype=complex)
    cols[0] = c1dh * ql * f / fr ** 2
    cols[1] = -c1dh * (f - fr) / fr
    cols[2] = -w * (c0 + c1 * h)
    return cols


def _projected_jac(f, w, theta, c0, c1, h, hc):
    """Kaufman's Jacobian -P*(dB/dtheta)*c of _linear_step's residual (BIT
    15, 49 (1975)), B = e^{-w*tau}*[1, h], P projecting out its columns,
    real parts stacked over imaginary parts. Like r, each column is taken
    times e^{w*tau}, which keeps every norm."""
    cols = _model_columns(f, w, theta, c0, c1, h)
    cols -= cols.sum(axis=1, keepdims=True) / f.size
    cols -= (cols @ np.conj(hc) / np.vdot(hc, hc).real)[:, None] * hc
    return -np.concatenate([cols.real, cols.imag], axis=1).T


def _covariance(res, f, fc, w, c0, c1, h, hc):
    """s^2 (J^T J)^-1 of (fr, Ql, Qc_mag, phi, a, alpha, tau) at the projected
    solve's optimum res, s^2 = 2*cost/(2n - 7), alpha = arg c0 + 2*pi*fc*tau.

    J = [A B] holds the model's columns over theta (A, _model_columns) and
    over c0, c1 (B: 1 and h); beta are A's least-squares coefficients on B.
    The Schur complement gives parameters p(theta, c) with gradients
    G_theta, G_c the covariance E C E^T + s^2 G_c (B^T B)^-1 G_c^T, C being
    the solve's own, E = G_theta - G_c beta.
    """
    n = f.size
    dof = 2 * n - 7
    cov_theta = covariance(res, "resonance fit") * ((2 * n - 3) / dof)
    qc = res.x[1] * abs(c0) / abs(c1)
    # gradients over theta, and over c0 and c1 as complex g, dp = Re(conj(g)*dc)
    g_theta = np.zeros((7, 3))
    g_theta[[0, 1, 2, 5, 6], [0, 1, 1, 2, 2]] = 1.0, 1.0, qc / res.x[1], TWO_PI * fc, 1.0
    i0, i1 = 1.0 / np.conj(c0), 1.0 / np.conj(c1)
    g0 = np.array([0.0, 0.0, qc * i0, -1j * i0, abs(c0) * i0, 1j * i0, 0.0])
    g1 = np.array([0.0, 0.0, -qc * i1, 1j * i1, 0.0, 0.0, 0.0])
    # beta: A's columns ~ mean + nu*hc = (mean - nu*hm) + nu*h
    cols = _model_columns(f, w, res.x, c0, c1, h)
    hm = h.sum() / n
    hh = np.vdot(hc, hc).real
    nu = cols @ np.conj(hc) / hh
    beta0 = cols.sum(axis=1) / n - nu * hm
    e = g_theta - (np.conj(g0)[:, None] * beta0 + np.conj(g1)[:, None] * nu).real
    # G_c over d, c0 + c1*h = d0/sqrt(n) + d1*hc/|hc| on an orthonormal basis
    d = np.column_stack([g0 / np.sqrt(n), (g1 - g0 * np.conj(hm)) / np.sqrt(hh)])
    return e @ cov_theta @ e.T + 2.0 * res.cost / dof * (np.conj(d) @ d.T).real
