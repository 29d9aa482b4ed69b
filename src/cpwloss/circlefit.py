"""Notch-type resonator model and the S21 circle-fit pipeline.

The model for a quarter-wave resonator side-coupled to a feedline is

    S21(f) = a*e^{i*alpha}*e^{-2i*pi*f*tau}
             * [1 - (Ql/|Qc|)*e^{i*phi} / (1 + 2i*Ql*(f - fr)/fr)]

with environment amplitude a, phase alpha and cable delay tau, loaded
quality factor Ql, coupling magnitude |Qc| and impedance-mismatch angle
phi. fit_resonance() extracts all seven parameters by the classic
staged procedure: a wing-slope delay start, algebraic circle fit,
phase-vs-frequency fit, off-resonant-point calibration, then one
simultaneous Levenberg-Marquardt refinement of all seven parameters
(tau included) whose Jacobian provides the errors. Both solves take
the model's Jacobian in closed form (Probst et al., Rev. Sci. Instrum.
86, 024706 (2015)) rather than by finite differences, so the errors
rest on the exact Jacobian at the optimum. The detuning is written
(f - fr)/fr, which is exact near fr, not f/fr - 1, which loses up to
log10(2*Ql) digits before the product with 2*Ql.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import ComplexSweep
from .errors import DataError, FitError
from .fitcov import covariance, solve

TWO_PI = 2.0 * np.pi


def notch_model(f, fr, Ql, Qc_mag, phi, a=1.0, alpha=0.0, tau=0.0):
    """Complex S21 of a notch resonator in its environment."""
    f = np.asarray(f, dtype=float)
    env = a * np.exp(1j * alpha) * np.exp(-1j * TWO_PI * f * tau)
    return env * (1.0 - _dip(f, fr, Ql, Qc_mag, phi))


def _dip(f, fr, Ql, Qc_mag, phi):
    """The resonant term of notch_model, 1 - S21/env."""
    return (Ql / Qc_mag) * np.exp(1j * phi) / (1.0 + 2j * Ql * (f - fr) / fr)


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


def fit_circle(points):
    """Algebraic least-squares circle through complex points (Taubin method).

    Returns (center, radius). The Taubin constraint normalizes the
    algebraic residual by its gradient, which keeps the fit nearly
    unbiased on partial arcs. Raises FitError on collinear or
    coincident points.
    """
    z = np.asarray(points, dtype=complex).ravel()
    if z.size < 3:
        raise DataError(f"circle fit needs >= 3 points, got {z.size}")
    x = z.real
    y = z.imag
    xm = x.mean()
    ym = y.mean()
    u = x - xm
    v = y - ym
    q = u * u + v * v
    qm = q.mean()
    if qm <= 0.0:
        raise FitError("degenerate points: all coincident")
    scale = 2.0 * np.sqrt(qm)
    design = np.column_stack([(q - qm) / scale, u, v])
    _, svals, vt = np.linalg.svd(design, full_matrices=False)
    a0, b0, c0 = vt[int(np.argmin(svals))]
    if abs(a0) < 1e-12:
        raise FitError("collinear or degenerate points: no finite circle fits")
    a1 = a0 / scale
    d1 = -qm * a1
    cx = -b0 / (2.0 * a1) + xm
    cy = -c0 / (2.0 * a1) + ym
    radius = np.sqrt(b0 * b0 + c0 * c0 - 4.0 * a1 * d1) / (2.0 * abs(a1))
    return complex(cx, cy), float(radius)


def _phase_increments(z):
    return np.angle(z[1:] * np.conj(z[:-1]))


WING_FRACTION = 0.2


def _wing_slices(n):
    k = max(2, int(round(n * WING_FRACTION)))
    return slice(0, k), slice(n - k, n)


def _wing_delay(f, z):
    """Cable delay in seconds from the phase slope of the trace's wings.

    Linear fits to the unwrapped phase of the outer 20% of points on
    each side of the trace (averaged), which see mostly the
    e^{-2i*pi*f*tau} winding. This is only a start value: _refine fits
    tau jointly with the other six parameters.
    """
    left, right = _wing_slices(f.size)
    slopes = []
    for sl in (left, right):
        inc = _phase_increments(z[sl])
        if np.any(np.abs(inc) >= 0.99 * np.pi):
            raise FitError("phase unwrap failure: adjacent off-resonant points "
                           "step by ~pi; the sweep undersamples the delay winding")
        phase = np.concatenate([[0.0], np.cumsum(inc)])
        slopes.append(np.polyfit(f[sl], phase, 1)[0])
    return -0.5 * (slopes[0] + slopes[1]) / TWO_PI


def _initial_guesses(f, zc):
    """(fr, Ql) start values read straight from a delay-corrected trace.

    fr0 is the frequency of the deepest point of |zc|. Ql0 is fr0 over
    the full width of the dip at half its depth below the off-resonant
    level (the mean of the two wings); when the dip shows no width at
    that level, Ql0 assumes a dip a tenth of the span wide. _fit_phase
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


def _phase_model(f, theta0, Ql, fr):
    return theta0 + 2.0 * np.arctan(2.0 * Ql * (fr - f) / fr)


def _phase_jac(f, theta0, Ql, fr):
    """Columns d/d(theta0, Ql, fr) of _phase_model."""
    x = (fr - f) / fr
    g = 4.0 / (1.0 + (2.0 * Ql * x) ** 2)
    return np.column_stack([np.ones_like(f), g * x, g * Ql * f / fr ** 2])


def _fit_phase(f, w, fr0, ql0):
    """Fit theta(f) = theta0 + 2*arctan(2*Ql*(fr - f)/fr) to centered data.

    One Levenberg-Marquardt solve over (theta0, Ql, fr), started at the
    mean of the two end-point phases and the (fr0, ql0) guesses. The
    result only starts _refine, so the solve stops at 1e-8.
    """
    inc = _phase_increments(w)
    theta = np.angle(w[0]) + np.concatenate([[0.0], np.cumsum(inc)])
    p0 = np.array([0.5 * (theta[0] + theta[-1]), ql0, fr0])

    def resid(p):
        return _phase_model(f, *p) - theta

    def jac(p):
        return _phase_jac(f, *p)

    theta0, ql, fr = solve(resid, jac, p0, xtol=1e-6, ftol=1e-8, max_nfev=800).x
    if ql <= 0 or not f[0] <= fr <= f[-1]:
        raise FitError("phase fit failed: resonance outside the sweep or Ql <= 0")
    return theta0, ql, fr


def _wrap_angle(angle):
    return (angle + np.pi) % TWO_PI - np.pi


def _noise_floor(z):
    # adjacent-point differences are insensitive to the resonance shape;
    # |diff| of white complex noise is Rayleigh with median 1.665*sigma
    med = np.median(np.abs(np.diff(z)))
    return float(med) / 1.665


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


def fit_resonance(sweep):
    """Fit the notch model to one sweep.

    Pipeline: wing-slope delay start -> circle fit of the delay-corrected
    trace -> arctan phase fit -> off-resonant-point calibration giving
    (a, alpha, phi, |Qc|) -> simultaneous least-squares refinement of
    all seven parameters. Raises FitError when no dip stands above the
    noise floor or the refinement does not converge.
    """
    f = sweep.frequency_hz
    z = sweep.s21

    tau0 = _wing_delay(f, z)
    zc = z * np.exp(1j * TWO_PI * f * tau0)

    noise = _noise_floor(zc)
    try:
        center, radius = fit_circle(zc)
    except FitError as exc:
        raise FitError(f"no dip found: {exc}") from None
    if 2.0 * radius < 5.0 * noise:
        raise FitError(f"no dip found: circle diameter {2 * radius:.3g} is "
                       f"below the noise floor ({noise:.3g} per quadrature)")

    fr0, ql0 = _initial_guesses(f, zc)
    theta0, ql_g, fr_g = _fit_phase(f, zc - center, fr0, ql0)

    beta = _wrap_angle(theta0 - np.pi)
    p_offres = center + radius * np.exp(1j * beta)
    a_g = abs(p_offres)
    alpha_g = np.angle(p_offres)
    if a_g <= 0:
        raise FitError("background calibration failed: off-resonant point at origin")
    phi_g = _wrap_angle(beta - alpha_g)
    qc_g = ql_g / (2.0 * radius / a_g)

    p0 = np.array([fr_g, ql_g, qc_g, phi_g, a_g, alpha_g, tau0])
    refined, cov, rms = _refine(f, z, p0)
    fr_f, ql_f, qc_f, phi_f, a_f, alpha_f, tau_f = refined

    inv_qi = 1.0 / ql_f - np.cos(phi_f) / qc_f
    if ql_f <= 0 or qc_f <= 0 or inv_qi <= 0:
        raise FitError(f"unphysical fit: Ql={ql_f:.4g}, Qc_mag={qc_f:.4g}, "
                       f"1/Qi={inv_qi:.4g}")
    if not f[0] <= fr_f <= f[-1]:
        raise FitError(f"fitted resonance {fr_f:.6g} Hz lies outside the sweep")
    if abs(phi_f) >= np.pi / 2:
        raise FitError(f"fitted impedance-mismatch angle phi={phi_f:.3f} rad "
                       f"is outside (-pi/2, pi/2); not a notch-type response")
    qi = 1.0 / inv_qi

    span_lw = (f[-1] - f[0]) * ql_f / fr_f
    if span_lw < 3.0:
        warnings.warn(f"sweep spans only {span_lw:.2f} linewidths around the dip; "
                      f"background calibration may be biased", stacklevel=2)

    names = ("fr", "Ql", "Qc_mag", "phi", "a", "alpha", "tau")
    sigma = {n: float(np.sqrt(cov[i, i])) for i, n in enumerate(names)}
    # propagate Qi error including Ql/Qc/phi covariances
    g = np.zeros(7)
    g[1] = qi ** 2 / ql_f ** 2
    g[2] = -qi ** 2 * np.cos(phi_f) / qc_f ** 2
    g[3] = -qi ** 2 * np.sin(phi_f) / qc_f
    sigma["Qi"] = float(np.sqrt(max(g @ cov @ g, 0.0)))

    return ResonanceFit(
        fr=float(fr_f), Ql=float(ql_f), Qc_mag=float(qc_f),
        phi=float(phi_f), Qi=float(qi), a=float(a_f),
        alpha=float(alpha_f), tau=float(tau_f),
        rms_residual=rms, sigma=sigma, n_points=int(f.size),
    )


def _centred_model(f, fc, p):
    """S21 at p = (fr, Ql, Qc_mag, phi, a, alpha_c, tau), alpha_c being the
    environment phase at f = fc."""
    fr, ql, qc, phi, a, alpha_c, tau = p
    env = a * np.exp(1j * (alpha_c - TWO_PI * (f - fc) * tau))
    return env * (1.0 - _dip(f, fr, ql, qc, phi))


def _centred_jac(f, fc, p):
    """Jacobian of _centred_model, real parts stacked over imaginary parts."""
    fr, ql, qc, phi, a, alpha_c, tau = p
    env = a * np.exp(1j * (alpha_c - TWO_PI * (f - fc) * tau))
    den = 1.0 + 2j * ql * (f - fr) / fr
    edip = env * ((ql / qc) * np.exp(1j * phi)) / den
    m = env - edip
    cols = np.empty((7, f.size), dtype=complex)
    cols[0] = edip * (-2j * ql / fr ** 2) * f / den
    cols[1] = -edip / (ql * den)
    cols[2] = edip / qc
    cols[3] = -1j * edip
    cols[4] = m / a
    cols[5] = 1j * m
    cols[6] = (-1j * TWO_PI) * (f - fc) * m
    return np.concatenate([cols.real, cols.imag], axis=1).T


def _refine(f, z, p0):
    """Simultaneous Levenberg-Marquardt refinement of all 7 parameters.

    p0 and the returned parameters use notch_model's convention, alpha
    being the environment phase at f = 0. The solver instead fits the
    phase alpha_c at the sweep centre f_c: across a sweep of ~fr/Ql the
    f = 0 phase must cancel every change of tau by 2*pi*f_c*dtau, which
    makes the alpha and tau Jacobian columns nearly collinear. The
    result and its covariance are mapped back by alpha = alpha_c +
    2*pi*f_c*tau; the other six go to the solver in model units.
    """
    fc = 0.5 * (f[0] + f[-1])
    pc0 = np.array(p0, dtype=float)
    pc0[5] = _wrap_angle(p0[5] - TWO_PI * fc * p0[6])

    def residuals(p):
        diff = _centred_model(f, fc, p) - z
        return np.concatenate([diff.real, diff.imag])

    def jac(p):
        return _centred_jac(f, fc, p)

    max_nfev = 1600
    res = solve(residuals, jac, pc0, xtol=1e-15, ftol=1e-10, max_nfev=max_nfev)
    cov_c = covariance(res, f"refinement (limit {max_nfev} function evaluations)")
    p = res.x.copy()
    p[5] = p[5] + TWO_PI * fc * p[6]

    # the same linear map as alpha = alpha_c + 2*pi*f_c*tau
    t = np.eye(7)
    t[5, 6] = TWO_PI * fc

    # canonical parameter ranges, the model being unchanged under
    # (Qc_mag, phi) -> (-Qc_mag, phi + pi) and (a, alpha) -> (-a, alpha + pi):
    # Qc_mag > 0 and a > 0, each sign flip carried into the covariance by t
    for k in (2, 4):
        if p[k] < 0:
            p[k] = -p[k]
            p[k + 1] = p[k + 1] + np.pi
            t[k] = -t[k]
    p[3] = _wrap_angle(p[3])
    p[5] = _wrap_angle(p[5])
    cov = t @ cov_c @ t.T
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return p, cov, rms
