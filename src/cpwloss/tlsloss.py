"""Photon-number conversion and the TLS saturation model for loss vs power.

Internal loss delta = 1/Qi of a resonator saturates with the mean
photon number as

    delta(n) = delta_tls / (1 + n/n_c)^beta + delta_hp

so the zero-power limit is delta_lp = delta_tls + delta_hp and the
difference of the two asymptotes is exactly the TLS amplitude
delta_tls. Fits run on log(delta) so every decade of photon number
carries comparable weight.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .circlefit import fit_resonance
from .errors import DataError, FitError
from .fitcov import covariance, solve
from .stats import median

BETA_BOUNDS = (0.1, 1.0)
# Reduced Planck constant h/(2*pi) in J s, equal to scipy's hbar to the last bit.
HBAR = 1.0545718176461565e-34


def chip_power_watt(applied_power_dbm, line_attenuation_db):
    """Power arriving at the chip, in watts."""
    try:
        return 10.0 ** ((applied_power_dbm - line_attenuation_db - 30.0) / 10.0)
    except OverflowError:
        raise DataError(f"applied power {applied_power_dbm:g} dBm after "
                        f"{line_attenuation_db:g} dB of attenuation is more "
                        f"watts than a float holds") from None


def photon_number(fit, applied_power_dbm, line_attenuation_db):
    """Mean photon number stored in the resonator at a given drive.

    <n> = (2 / (hbar*omega_r^2)) * (Ql^2 / |Qc|) * P_chip with
    omega_r = 2*pi*fr and P_chip the power at the chip after the
    attenuation chain. The attenuation must be supplied explicitly;
    a silently assumed chain would corrupt every photon number.
    """
    if line_attenuation_db is None:
        raise DataError("line attenuation is required to compute photon numbers")
    if line_attenuation_db < 0:
        raise DataError("line attenuation must be >= 0 dB")
    if applied_power_dbm is None:
        raise DataError("applied power is required to compute photon numbers")
    p_chip = chip_power_watt(applied_power_dbm, line_attenuation_db)
    omega = 2.0 * np.pi * fit.fr
    return float((2.0 / (HBAR * omega ** 2)) * (fit.Ql ** 2 / fit.Qc_mag) * p_chip)


def eval_tls_model(n, delta_tls, n_c, beta, delta_hp):
    """TLS saturation loss at mean photon number n (scalar or array)."""
    if delta_tls <= 0 or n_c <= 0 or delta_hp <= 0:
        raise DataError("TLS model parameters must be positive")
    if not 0.0 < beta <= 2.0:
        raise DataError(f"beta={float(beta)!r} outside (0, 2]")
    n = np.asarray(n, dtype=float)
    out = delta_tls / (1.0 + n / n_c) ** beta + delta_hp
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LossPoint:
    """Loss delta = 1/Qi at one mean photon number."""

    n_photon: float
    delta: float
    sigma_delta: float = None
    source: str = None

    def __post_init__(self):
        for name, value in (("photon number", self.n_photon), ("loss", self.delta)):
            if not value > 0:
                raise DataError(f"{name} must be positive, got {float(value)!r}")
            if value == np.inf:
                raise DataError(f"{name} must be finite, got {float(value)!r}")


@dataclass(frozen=True)
class TlsFit:
    """Fitted TLS saturation parameters.

    The asymptote difference is stored so that
    delta_lp - delta_hp == delta_tls holds bit-exactly on every fit;
    the two-asymptote identity is part of the contract, not a
    tolerance. beta_clamped marks a fit that ran into the [0.1, 1.0]
    exponent bounds.
    """

    delta_tls: float
    delta_hp: float
    delta_lp: float
    n_c: float
    beta: float
    sigma: dict
    rms_residual: float
    beta_clamped: bool = False
    n_points: int = 0

    def __post_init__(self):
        if self.delta_tls <= 0 or self.delta_hp <= 0 or self.n_c <= 0:
            raise FitError("TLS fit produced non-positive parameters")
        if not BETA_BOUNDS[0] <= self.beta <= BETA_BOUNDS[1]:
            raise FitError(f"beta={float(self.beta)!r} outside {BETA_BOUNDS}")
        if self.delta_tls != self.delta_lp - self.delta_hp:
            raise FitError("delta_tls must equal delta_lp - delta_hp")


def _tls_log_jac(n, dtls, nc, beta, dhp):
    """Columns d/d(delta_tls, n_c, beta, delta_hp) of log(eval_tls_model)."""
    sat = (1.0 + n / nc) ** -beta
    tls = dtls * sat
    model = tls + dhp
    return np.column_stack([sat, tls * beta * n / (nc * (nc + n)),
                            -tls * np.log1p(n / nc), np.ones_like(n)]) / model[:, None]


def fit_tls(points):
    """Fit the saturation model to (photon number, loss) points.

    Weighted least squares on log(delta), solved by fitcov.solve with
    the closed-form Jacobian _tls_log_jac; weights follow the supplied
    sigma_delta (converted to log space) when every point has one,
    otherwise uniform. Parameters, in model units, are bounded positive
    with beta in [0.1, 1.0]; the solver holds a beta that the data push
    past a bound on that bound, and the fit flags it, not hides it.
    """
    points = sorted(points, key=lambda p: p.n_photon)
    if len(points) < 5:
        raise DataError(f"fit_tls needs at least 5 points for 4 parameters, "
                        f"got {len(points)}")
    n = np.array([p.n_photon for p in points])
    d = np.array([p.delta for p in points])

    span_decades = np.log10(n[-1] / n[0])
    if len(points) < 6 or span_decades < 3.0:
        warnings.warn(f"TLS fit on {len(points)} points spanning "
                      f"{span_decades:.1f} decades of photon number; "
                      f"recommend >= 6 points over >= 3 decades", stacklevel=2)

    dyn_range = d.max() / d.min()
    if dyn_range < 2.0:
        raise FitError(f"loss varies only {dyn_range:.2f}x across the power "
                       f"sweep (< 2x): flat curve, TLS parameters unidentifiable")

    sigmas = np.array([p.sigma_delta if p.sigma_delta else np.nan for p in points])
    if np.all(np.isfinite(sigmas)) and np.all(sigmas > 0):
        weights = d / sigmas  # 1/sigma in log space
        weights = weights / np.mean(weights)
    else:
        weights = np.ones_like(d)

    log_d = np.log(d)
    p0 = np.array([d.max() - d.min(),
                   np.exp(median(np.log(n))),  # geometric median of <n>
                   0.5,
                   d.min()])
    tiny = 1e-6
    lower = np.array([tiny * p0[0], tiny * p0[1], BETA_BOUNDS[0], tiny * p0[3]])
    upper = np.array([np.inf, np.inf, BETA_BOUNDS[1], np.inf])

    def residuals(p):
        dtls, nc, beta, dhp = p
        model = dtls / (1.0 + n / nc) ** beta + dhp
        return (np.log(model) - log_d) * weights

    def jac(p):
        return _tls_log_jac(n, *p) * weights[:, None]

    res = solve(residuals, jac, p0, lower, upper)
    cov = covariance(res, "TLS fit")
    dtls, nc, beta, dhp = res.x
    beta_clamped = (beta <= BETA_BOUNDS[0] * (1 + 1e-9)
                    or beta >= BETA_BOUNDS[1] * (1 - 1e-9))

    sigma = {
        "delta_tls": float(np.sqrt(cov[0, 0])),
        "n_c": float(np.sqrt(cov[1, 1])),
        "beta": float(np.sqrt(cov[2, 2])),
        "delta_hp": float(np.sqrt(cov[3, 3])),
        "delta_lp": float(np.sqrt(max(cov[0, 0] + cov[3, 3] + 2.0 * cov[0, 3], 0.0))),
    }
    rms = float(np.sqrt(np.mean(((np.log(eval_tls_model(n, dtls, nc, beta, dhp))
                                  - log_d)) ** 2)))
    delta_lp = float(dtls) + float(dhp)
    return TlsFit(
        delta_tls=delta_lp - float(dhp),  # <= 1 ulp from the optimizer value
        delta_hp=float(dhp),
        delta_lp=delta_lp,
        n_c=float(nc),
        beta=float(beta),
        sigma=sigma,
        rms_residual=rms,
        beta_clamped=bool(beta_clamped),
        n_points=len(points),
    )


def assemble_series(sweeps, attenuation_db=None):
    """Per-power resonance fits of one resonator, as (points, diagnostics).

    Each sweep is fitted with fit_resonance; delta = 1/Qi and the
    photon number come from the fit and the sweep's power metadata.
    attenuation_db overrides (or supplies) the per-file attenuation.
    Individual fit failures become diagnostics and the point is
    skipped; fewer than 6 surviving points is an error.
    """
    sweeps = list(sweeps)
    if not sweeps:
        raise DataError("assemble_series: no sweeps given")
    ids = {s.resonator_id for s in sweeps}
    if len(ids) > 1:
        raise DataError(f"assemble_series: sweeps mix resonator ids {sorted(ids)}")
    for sweep in sweeps:
        if sweep.power_dbm is None:
            raise DataError(f"{sweep.source or sweep.resonator_id}: sweep has no "
                            f"applied power, cannot place it on a power series")
        if attenuation_db is None and sweep.attenuation_db is None:
            raise DataError(f"{sweep.source or sweep.resonator_id}: no line "
                            f"attenuation on file or argument; refusing to guess")

    points = []
    diagnostics = []
    for sweep in sweeps:
        label = sweep.source or f"<sweep {sweep.resonator_id} @ {sweep.power_dbm} dBm>"
        att = attenuation_db if attenuation_db is not None else sweep.attenuation_db
        try:
            fit = fit_resonance(sweep)
            n = photon_number(fit, sweep.power_dbm, att)
            qi_sigma = fit.sigma.get("Qi", 0.0)
            points.append(LossPoint(
                n_photon=n,
                delta=1.0 / fit.Qi,
                sigma_delta=qi_sigma / fit.Qi ** 2 if qi_sigma else None,
                source=sweep.source,
            ))
        except (DataError, FitError) as exc:
            diagnostics.append(f"{label}: {exc}")
    if len(points) < 6:
        detail = "; ".join(diagnostics) if diagnostics else "too few input sweeps"
        raise FitError(f"only {len(points)} of {len(sweeps)} power points "
                       f"survived fitting (need >= 6): {detail}")
    points.sort(key=lambda p: p.n_photon)
    return points, diagnostics
