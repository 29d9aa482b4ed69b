"""Film metrics from room-temperature and DC-cryogenic measurements.

Covers pseudo-Voigt fitting of diffraction peaks with orientation
classification and relative Scherrer grain-size ratios, sheet-resistance
uniformity statistics across wafers, film resistivity, and Tc/RRR
extraction from R(T) traces.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError
from .fitcov import covariance, solve
from .stats import median

FOUR_LN2 = 4.0 * np.log(2.0)

# reference peak positions (degrees 2theta) for rock-salt TiN powder
TIN_111_REF_DEG = 36.6
TIN_200_REF_DEG = 42.6
BAND_111 = (36.0, 37.5)
BAND_200 = (42.0, 43.5)
DEFAULT_XRD_WINDOWS = ((35.5, 38.5), (41.5, 44.5))


def gaussian_peak(x, center, fwhm):
    """Unit-height Gaussian parameterized by its FWHM."""
    return np.exp(-FOUR_LN2 * (x - center) ** 2 / fwhm ** 2)


def lorentzian_peak(x, center, fwhm):
    """Unit-height Lorentzian parameterized by its FWHM."""
    return 1.0 / (1.0 + 4.0 * (x - center) ** 2 / fwhm ** 2)


def pseudo_voigt(x, center, fwhm, amplitude, eta, b0, b1):
    """Pseudo-Voigt peak on a linear baseline.

    amplitude * [eta * L + (1 - eta) * G] + b0 + b1 * x, with the
    Gaussian and Lorentzian parts sharing one FWHM and unit height, so
    the value at the center is amplitude + baseline(center).
    """
    x = np.asarray(x, dtype=float)
    shape = eta * lorentzian_peak(x, center, fwhm) + (1.0 - eta) * gaussian_peak(x, center, fwhm)
    return amplitude * shape + b0 + b1 * x


@dataclass(frozen=True)
class PeakFit:
    """One fitted diffraction peak. Angles in degrees 2theta, heights in counts."""

    center: float
    fwhm: float
    amplitude: float
    eta: float
    baseline_intercept: float
    baseline_slope: float
    sigma: dict
    window: tuple
    rms_residual: float

    def __post_init__(self):
        if self.fwhm <= 0:
            raise DataError("peak fwhm must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise DataError("eta must lie in [0, 1]")


def _edge_baseline(x, y):
    """Linear baseline through the window edges and the noise about it."""
    n_edge = max(3, x.size // 4)
    idx = np.r_[0:n_edge, x.size - n_edge:x.size]
    slope, intercept = np.polyfit(x[idx], y[idx], 1)
    resid = y[idx] - (slope * x[idx] + intercept)
    dof = max(idx.size - 2, 1)
    noise = float(np.sqrt(np.sum(resid ** 2) / dof))
    return intercept, slope, noise


def fit_peaks(scan, windows=DEFAULT_XRD_WINDOWS):
    """Fit one pseudo-Voigt peak per 2theta window.

    Each window must contain at least 15 scan points and one dominant
    maximum. Raises FitError("no peak ...") when the window's
    prominence is below 3x the local baseline noise.
    """
    fits = []
    for window in windows:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise DataError(f"window ({lo}, {hi}) is empty")
        mask = (scan.two_theta_deg >= lo) & (scan.two_theta_deg <= hi)
        x = scan.two_theta_deg[mask]
        y = scan.counts[mask]
        if x.size < 15:
            raise DataError(f"window [{lo}, {hi}] contains {x.size} points, need >= 15")
        fits.append(_fit_one_peak(x, y, (lo, hi)))
    return fits


def _pseudo_voigt_jac(x, center, fwhm, amplitude, eta):
    """Columns d/d(center, fwhm, amplitude, eta, b0, b1) of pseudo_voigt."""
    t = x - center
    lor = lorentzian_peak(x, center, fwhm)
    gau = gaussian_peak(x, center, fwhm)
    # d/dcenter of the two shapes; d/dfwhm is the same times t/fwhm
    d_lor = 8.0 * lor ** 2 * t / fwhm ** 2
    d_gau = 2.0 * FOUR_LN2 * gau * t / fwhm ** 2
    d_center = amplitude * (eta * d_lor + (1.0 - eta) * d_gau)
    return np.column_stack([d_center, d_center * t / fwhm, eta * lor + (1.0 - eta) * gau,
                            amplitude * (lor - gau), np.ones_like(x), x])


def _fit_one_peak(x, y, window):
    lo, hi = window
    b0_init, b1_init, noise = _edge_baseline(x, y)
    detrended = y - (b0_init + b1_init * x)
    i_peak = int(np.argmax(detrended))
    prominence = float(detrended[i_peak])
    floor = max(3.0 * noise, 1e-9 * max(1.0, abs(median(y))))
    if prominence < floor:
        raise FitError(f"no peak in window [{lo}, {hi}]: prominence "
                       f"{prominence:.3g} below 3x baseline noise {noise:.3g}")

    # fit with the baseline anchored at the window center so intercept
    # and slope stay decorrelated
    xc = 0.5 * (lo + hi)
    p0 = np.array([x[i_peak], (hi - lo) / 5.0, prominence, 0.5,
                   b0_init + b1_init * xc, b1_init])
    min_dx = float(np.min(np.diff(x)))
    lower = [lo, min_dx, 0.0, 0.0, -np.inf, -np.inf]
    upper = [hi, 4.0 * (hi - lo), np.inf, 1.0, np.inf, np.inf]

    def residuals(p):
        return pseudo_voigt(x - xc, p[0] - xc, p[1], p[2], p[3], p[4], p[5]) - y

    def jac(p):
        return _pseudo_voigt_jac(x - xc, p[0] - xc, p[1], p[2], p[3])

    res = solve(residuals, jac, p0, lower, upper)
    cov = covariance(res, f"peak fit in window [{lo}, {hi}]")
    center, fwhm, amp, eta, b0c, b1 = res.x
    if amp < 3.0 * noise:
        raise FitError(f"no peak in window [{lo}, {hi}]: fitted amplitude "
                       f"{amp:.3g} below 3x baseline noise {noise:.3g}")

    names = ("center", "fwhm", "amplitude", "eta", "baseline_intercept", "baseline_slope")
    sig = np.sqrt(np.diag(cov))
    # transform the centered intercept back to absolute 2theta
    var_b0 = cov[4, 4] + xc ** 2 * cov[5, 5] - 2 * xc * cov[4, 5]
    sig[4] = np.sqrt(max(var_b0, 0.0))
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return PeakFit(
        center=float(center),
        fwhm=float(fwhm),
        amplitude=float(amp),
        eta=float(eta),
        baseline_intercept=float(b0c - b1 * xc),
        baseline_slope=float(b1),
        sigma={n: float(s) for n, s in zip(names, sig)},
        window=(lo, hi),
        rms_residual=rms,
    )


@dataclass(frozen=True)
class OrientationResult:
    orientation: str  # "TiN111", "TiN200", "Mixed" or "None"
    shift_111_deg: float = None  # center - 36.6 when a (111) peak is present
    shift_200_deg: float = None  # center - 42.6 when a (200) peak is present


def strongest_in_band(peaks, band):
    """The highest-amplitude peak centered in band (lo, hi), or None."""
    inside = [p for p in peaks if band[0] <= p.center <= band[1]]
    return max(inside, key=lambda p: p.amplitude) if inside else None


def classify_orientation(peaks):
    """Classify film texture from fitted peaks near the (111)/(200) positions.

    A peak centered in [36.0, 37.5] marks (111), in [42.0, 43.5] marks
    (200); both present means mixed orientation. Shifts are reported
    against the 36.6/42.6 degree literature positions.
    """
    p111 = strongest_in_band(peaks, BAND_111)
    p200 = strongest_in_band(peaks, BAND_200)
    if p111 and p200:
        orientation = "Mixed"
    elif p111:
        orientation = "TiN111"
    elif p200:
        orientation = "TiN200"
    else:
        orientation = "None"
    return OrientationResult(
        orientation=orientation,
        shift_111_deg=(p111.center - TIN_111_REF_DEG) if p111 else None,
        shift_200_deg=(p200.center - TIN_200_REF_DEG) if p200 else None,
    )


def scherrer_ratio(peak_a, peak_b):
    """Relative grain size of peak_a's phase to peak_b's.

    Grain size scales as 1/(FWHM*cos(theta)) with theta = center/2, so
    the ratio (fwhm_b*cos(theta_b))/(fwhm_a*cos(theta_a)) needs no
    Scherrer constant or wavelength. Dimensionless; swap of the
    arguments gives the reciprocal.
    """
    theta_a = np.radians(peak_a.center) / 2.0
    theta_b = np.radians(peak_b.center) / 2.0
    return float((peak_b.fwhm * np.cos(theta_b)) / (peak_a.fwhm * np.cos(theta_a)))


@dataclass(frozen=True)
class SheetStats:
    """Uniformity of sheet resistance over a batch of wafer maps.

    Relative standard deviations are sample std (ddof=1) over mean, in
    percent. max_site_rel_std_pct compares the same site across wafers
    and is None for a single wafer.
    """

    batch_mean_ohm_sq: float
    max_wafer_rel_std_pct: float
    max_site_rel_std_pct: float
    n_wafers: int
    per_wafer: dict
    per_site: dict


def _rel_std_pct(values):
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    return float(100.0 * np.std(values, ddof=1) / np.mean(values))


def sheet_stats(maps):
    """Batch statistics over nine-site wafer maps sharing one site layout."""
    maps = list(maps)
    if not maps:
        raise DataError("sheet_stats needs at least one wafer map")
    sites = maps[0].sites
    for m in maps[1:]:
        if set(m.sites) != set(sites):
            raise DataError(f"wafer '{m.wafer_id}' site labels {sorted(m.sites)} "
                            f"do not match {sorted(sites)}")

    per_wafer = {}
    readings = []
    for m in maps:
        per_wafer[m.wafer_id] = {
            "mean_ohm_sq": float(np.mean(m.r_square_ohm_sq)),
            "rel_std_pct": _rel_std_pct(m.r_square_ohm_sq),
        }
        readings.extend(m.r_square_ohm_sq.tolist())

    per_site = {}
    if len(maps) > 1:
        for site in sites:
            vals = [m.r_square_ohm_sq[m.sites.index(site)] for m in maps]
            per_site[site] = {
                "mean_ohm_sq": float(np.mean(vals)),
                "rel_std_pct": _rel_std_pct(vals),
            }
        max_site = max(v["rel_std_pct"] for v in per_site.values())
    else:
        max_site = None

    return SheetStats(
        batch_mean_ohm_sq=float(np.mean(readings)),
        max_wafer_rel_std_pct=max(v["rel_std_pct"] for v in per_wafer.values()),
        max_site_rel_std_pct=max_site,
        n_wafers=len(maps),
        per_wafer=per_wafer,
        per_site=per_site,
    )


def resistivity(r_square_ohm_sq, thickness_nm):
    """Film resistivity rho = R_square * thickness, in micro-ohm*cm."""
    if r_square_ohm_sq <= 0 or thickness_nm <= 0:
        raise DataError("sheet resistance and thickness must be positive")
    # ohm/sq * nm: 1 nm = 1e-7 cm, 1 ohm*cm = 1e6 uOhm*cm
    return float(r_square_ohm_sq * thickness_nm * 0.1)


@dataclass(frozen=True)
class TcResult:
    """Superconducting transition metrics of one film. Temperatures in K."""

    tc: float
    transition_width: float
    r_normal: float
    r_300k: float
    rrr: float
    flags: tuple = ()


def extract_tc_rrr(sweep):
    """Transition temperature, width and residual resistance ratio.

    r_normal is the mean resistance over [T_onset, T_onset + 1 K],
    where T_onset is the lowest temperature at which R reaches 95% of
    the normal-state plateau (found by fixed-point iteration). tc is
    the 50% crossing of r_normal, linearly interpolated; the width is
    the 10%-90% span; rrr = R(300 K)/r_normal.
    """
    t = sweep.temperature_k
    r = sweep.resistance_ohm
    if t[-1] < 295.0:
        raise DataError(f"R(T) sweep ends at {t[-1]:.1f} K; must reach 300 K (within 5 K)")
    r_300k = float(np.interp(300.0, t, r))

    # locate the transition cliff: steepest rise well below room temperature
    slope = np.gradient(r, t)
    search = t < min(150.0, t[-1] - 1.0)
    if not np.any(search):
        raise FitError("no transition found: sweep has no low-temperature region")
    i_steep = int(np.argmax(np.where(search, slope, -np.inf)))
    init = (t >= t[i_steep]) & (t <= t[i_steep] + 2.0)
    r_plateau = median(r[init])

    for _ in range(6):
        above = np.nonzero(r >= 0.95 * r_plateau)[0]
        if above.size == 0:
            raise FitError("no transition found: resistance never reaches the plateau")
        t_onset = t[above[0]]
        window = (t >= t_onset) & (t <= t_onset + 1.0)
        r_new = float(np.mean(r[window]))
        done = abs(r_new - r_plateau) <= 1e-12 * abs(r_plateau)
        r_plateau = r_new
        if done:
            break
    r_normal = r_plateau

    if float(np.min(r)) >= 0.1 * r_normal:
        raise FitError("no transition found: resistance never drops below 10% "
                       "of the normal-state plateau")

    def upward_crossing(level):
        below = r <= level
        idx = np.nonzero(below[:-1] & ~below[1:])[0]
        if idx.size == 0:
            raise FitError(f"no crossing of {level:.4g} ohm found in the transition")
        i = idx[0]
        return float(t[i] + (level - r[i]) * (t[i + 1] - t[i]) / (r[i + 1] - r[i]))

    tc = upward_crossing(0.5 * r_normal)
    t10 = upward_crossing(0.1 * r_normal)
    t90 = upward_crossing(0.9 * r_normal)

    flags = []
    if r[0] >= 0.05 * r_normal:
        flags.append("low_end_above_5pct_of_plateau")
        warnings.warn("lowest-temperature resistance is not < 5% of the plateau; "
                      "the sweep may not reach the superconducting state", stacklevel=2)
    rrr = r_300k / r_normal
    if rrr < 1.0:
        flags.append("rrr_below_1")
    return TcResult(
        tc=tc,
        transition_width=t90 - t10,
        r_normal=r_normal,
        r_300k=r_300k,
        rrr=float(rrr),
        flags=tuple(flags),
    )
