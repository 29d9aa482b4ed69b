"""Synthetic measurement generators with known ground truth.

Each generator returns (data object(s), truth dict). The truth dict
holds exactly the parameters that produced the data, so round-trip
tests can compare fits against it. Every stochastic generator takes
an integer seed; the same seed reproduces the same samples bit for
bit.

The module runs on numpy alone, so `cpwloss synth` never imports scipy:
the photon number is found by bisection, and the R(T) step is
logistic, the formula of scipy's special.expit.
"""

import math

import numpy as np

from . import dataio
from .circlefit import _dip, check_internal_loss, default_frequencies, synthesize_notch
from .errors import DataError, FitError
from .filmchar import pseudo_voigt
from .tlsloss import HBAR, chip_power_watt, eval_tls_model


def loaded_q(delta_i, qc_mag, phi):
    """Loaded Q from internal loss and the coupling term."""
    inv_ql = delta_i + np.cos(phi) / qc_mag
    if inv_ql <= 0:
        raise DataError("negative loaded Q from the given loss and coupling")
    return float(1.0 / inv_ql)


def solve_photon_number(p_chip_w, fr, qc_mag, phi,
                        delta_tls, n_c, beta, delta_hp):
    """Self-consistent mean photon number at fixed chip power.

    <n> depends on Ql, Ql depends on the TLS loss, and the loss
    depends on <n>; the root of g(n) = n - coef * Ql(delta(n))^2 has
    g(0) < 0 <= g(n_hi), n_hi being the fully saturated limit plus one
    (g(n_hi) is 0 where that one rounds away). The bracket is checked
    first, and bisected until the midpoint equals an end. A root that
    is not bracketed raises FitError.
    """
    if p_chip_w <= 0:
        raise DataError("chip power must be positive")
    omega = 2.0 * np.pi * fr
    coef = (2.0 / (HBAR * omega ** 2)) * p_chip_w / qc_mag

    def g(n):
        delta = eval_tls_model(n, delta_tls, n_c, beta, delta_hp)
        return n - coef * loaded_q(delta, qc_mag, phi) ** 2

    n_hi = coef * loaded_q(delta_hp, qc_mag, phi) ** 2 + 1.0
    if not math.isfinite(n_hi):
        raise DataError(f"chip power {p_chip_w:g} W puts more photons in the "
                        f"resonator than a float holds")
    lo, hi = 0.0, n_hi
    if not g(lo) < 0.0 <= g(hi):
        raise FitError(f"photon number not bracketed in [0, {n_hi:g}]")
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def synthesize_power_series(fr=5.2e9, qc_mag=2.0e5, phi=0.02,
                            delta_tls=4.0e-6, n_c=10.0, beta=0.35,
                            delta_hp=4.0e-7,
                            powers_dbm=None, attenuation_db=60.0,
                            a=1.0, alpha=0.0, tau=30e-9,
                            noise_sigma=0.0, seed=1234,
                            resonator_id="R0", npoints=1001):
    """One resonator swept at several powers, following the TLS model.

    At each applied power the photon number and loaded Q are solved
    self-consistently before the sweep is synthesized, so the files
    describe a resonator whose Qi really follows the saturation
    curve. Returns (sweeps, truth).
    """
    if not (fr > 0 and qc_mag > 0):
        raise DataError("fr and qc_mag must be positive")
    if noise_sigma < 0:
        raise DataError("noise_sigma must be >= 0")
    if powers_dbm is None:
        powers_dbm = np.arange(-95.0, -95.0 + 5.0 * 12, 5.0)
    powers_dbm = [float(p) for p in powers_dbm]
    sweeps = []
    truth_points = []
    for k, p_dbm in enumerate(powers_dbm):
        p_chip = chip_power_watt(p_dbm, attenuation_db)
        n = solve_photon_number(p_chip, fr, qc_mag, phi,
                                delta_tls, n_c, beta, delta_hp)
        delta = float(eval_tls_model(n, delta_tls, n_c, beta, delta_hp))
        ql = loaded_q(delta, qc_mag, phi)
        freqs = default_frequencies(fr, ql, npoints=npoints)
        sweep = synthesize_notch(
            fr, ql, qc_mag, phi, a=a, alpha=alpha, tau=tau,
            frequencies=freqs, noise_sigma=noise_sigma,
            seed=None if noise_sigma == 0 else seed + k,
            power_dbm=p_dbm, attenuation_db=attenuation_db,
            resonator_id=resonator_id, chip_id="SYN",
        )
        sweeps.append(sweep)
        truth_points.append({"power_dbm": p_dbm, "n_photon": n,
                             "delta": delta, "Ql": ql, "Qi": 1.0 / delta})
    truth = {
        "kind": "power_series",
        "fr": fr, "Qc_mag": qc_mag, "phi": phi,
        "delta_tls": delta_tls, "n_c": n_c, "beta": beta,
        "delta_hp": delta_hp, "delta_lp": delta_tls + delta_hp,
        "attenuation_db": attenuation_db,
        "a": a, "alpha": alpha, "tau": tau,
        "noise_sigma": noise_sigma, "seed": seed,
        "resonator_id": resonator_id,
        "points": truth_points,
    }
    return sweeps, truth


def default_feedline_resonators(n_res=9, f_start=4.0e9, spacing=200e6):
    """A comb of notch resonators with varied Q and coupling."""
    resonators = []
    for k in range(n_res):
        resonators.append({
            "fr": f_start + k * spacing,
            "Ql": 2.0e4 * (1.0 + 0.08 * k),
            "Qc_mag": 2.0e4 * (1.0 + 0.08 * k) / (0.5 + 0.03 * k),
            "phi": 0.05 * ((k % 3) - 1),
            "resonator_id": f"R{k}",
        })
    return resonators


# points per block of synthesize_feedline's dip product and environment:
# a 256 KiB block stays in cache while every dip is multiplied into it
# (40 dips over 345,307 points with noise: a median of 0.158 s, against
# 0.188 s for one block of the whole trace, 12 alternating runs on a
# 2-core x86-64 container)
_FEEDLINE_BLOCK = 16384


def synthesize_feedline(resonators=None, npoints=72001, a=1.0, alpha=0.3,
                        tau=40e-9, noise_sigma=0.0, seed=4321):
    """Wideband transmission past several notch resonators.

    The trace is the product of the bare notch dips 1 - _dip(...), each
    without an environment, then multiplied once by the shared
    environment a*exp(i*(alpha - 2*pi*f*tau)) (Probst et al. 2015),
    both taken one _FEEDLINE_BLOCK of points at a time. Each dip takes
    one complex buffer: _dip's result becomes 1 - _dip in place and is
    multiplied into the trace, and the explicit ufunc calls fix the
    operand order, the trace on the left, whatever the block size. The
    environment and the noise are applied to the trace in place, and
    the sweep keeps f and the trace themselves, read-only, not copies.
    A resonator whose internal loss 1/Ql - cos(phi)/|Qc| is not
    positive raises DataError. Returns (sweep, truth).
    """
    if resonators is None:
        resonators = default_feedline_resonators()
    if not resonators:
        raise DataError("feedline needs at least one resonator")
    for k, r in enumerate(resonators):
        for name in ("fr", "Ql", "Qc_mag"):
            if not r[name] > 0:
                raise DataError(f"resonator {k}: {name} must be positive, "
                                f"got {float(r[name])!r}")
        check_internal_loss(f"resonator {r.get('resonator_id', k)}",
                            r["Ql"], r["Qc_mag"], r["phi"])
    if not a > 0:
        raise DataError(f"a must be positive, got {float(a)!r}")
    if noise_sigma < 0:
        raise DataError("noise_sigma must be >= 0")
    frs = np.array([r["fr"] for r in resonators])
    margin = 0.1 * (frs.max() - frs.min() + 200e6)
    f = np.linspace(frs.min() - margin, frs.max() + margin, npoints)
    z = np.ones_like(f, dtype=complex)
    for s in range(0, f.size, _FEEDLINE_BLOCK):
        fb, zb = f[s:s + _FEEDLINE_BLOCK], z[s:s + _FEEDLINE_BLOCK]
        for r in resonators:
            # in place, so zb stays the left operand: a complex product
            # can differ in the last bit when its operands swap; d is
            # dropped before the next _dip allocates
            d = _dip(fb, r["fr"], r["Ql"], r["Qc_mag"], r["phi"])
            zb *= np.subtract(1.0, d, out=d)
            del d
        # the environment per block as well, so no temporary spans the trace
        zb *= a
        zb *= np.exp(1j * (alpha - 2.0 * np.pi * fb * tau))
    if noise_sigma > 0:
        # the draws of z + sigma*(x + 1j*y), all of x and then all of y,
        # through one float buffer: sigma*x - 0*y is sigma*x, so adding
        # each scaled part to its half of z gives that expression's bits
        rng = np.random.default_rng(seed)
        buf = np.empty(f.size)
        for part in (z.real, z.imag):
            rng.standard_normal(out=buf)
            buf *= noise_sigma
            part += buf
        # dropped before the sweep's check allocates np.diff(f)
        del buf
    # read-only, so the sweep keeps these arrays instead of copying them
    f.setflags(write=False)
    z.setflags(write=False)
    sweep = dataio.ComplexSweep(
        frequency_hz=f, s21=z, chip_id="SYN",
        header={"kind": "feedline"},
    )
    truth = {
        "kind": "feedline",
        "resonators": [dict(r) for r in resonators],
        "a": a, "alpha": alpha, "tau": tau,
        "noise_sigma": noise_sigma, "seed": seed,
    }
    return sweep, truth


def _exp(x):
    """math.exp, with inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def logistic(z):
    """1 / (1 + exp(-z)) for each value of z, as an array.

    This is scipy.special.expit's formula with the same libm exp, so the
    two agree bit for bit; numpy's own exp differs from libm by an ulp
    at some points, which the division grows to up to 4 ulps. Far below
    the step exp(-z) overflows and the result is 0, without a warning.
    """
    return np.array([1.0 / (1.0 + _exp(-v)) for v in np.asarray(z, float).tolist()])


def synthesize_rt(tc=4.7, width=0.2, r_normal=25.0, rrr=4.0,
                  t_min=2.0, noise_sigma=0.0, seed=77):
    """Resistance vs temperature with a logistic superconducting step.

    The normal-state branch rises as a cubic from r_normal at the
    transition to rrr*r_normal at 300 K, and the step is a logistic
    whose 10-90 width equals the requested width. Returns
    (sweep, truth).
    """
    if not 0 < t_min < tc < 300.0:
        raise DataError("need 0 < t_min < tc < 300 K")
    if width <= 0 or r_normal <= 0 or rrr <= 0:
        raise DataError("width, r_normal, and rrr must be positive")
    if noise_sigma < 0:
        raise DataError("noise_sigma must be >= 0")
    # the sorted grid without repeats, as np.unique gives it but without
    # the numpy.ma import that np.unique makes
    t = np.sort(np.concatenate([
        np.linspace(t_min, tc + 3.0, 561),
        np.linspace(tc + 3.0, 300.0, 240),
    ]))
    t = t[np.concatenate([[True], t[1:] != t[:-1]])]
    w_s = width / (2.0 * np.log(9.0))
    r_norm_branch = r_normal * (1.0 + (rrr - 1.0)
                                * (np.clip(t - tc, 0.0, None) / (300.0 - tc)) ** 3)
    r = r_norm_branch * logistic((t - tc) / w_s)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        r = r + noise_sigma * r_normal * rng.standard_normal(t.size)
        r = np.clip(r, 0.0, None)
    sweep = dataio.RtSweep(temperature_k=t, resistance_ohm=r,
                           header={"kind": "rt"})
    truth = {"kind": "rt", "tc": tc, "width": width, "r_normal": r_normal,
             "rrr": rrr, "r_300k": r_normal * rrr,
             "noise_sigma": noise_sigma, "seed": seed}
    return sweep, truth


def synthesize_xrd(peaks=None, baseline=(50.0, 0.0),
                   two_theta_lo=30.0, two_theta_hi=50.0, step=0.01,
                   noise_sigma=0.0, seed=99):
    """Diffraction counts with pseudo-Voigt peaks on a linear baseline.

    peaks is a sequence of (center_deg, fwhm_deg, amplitude, eta).
    Returns (scan, truth).
    """
    if peaks is None:
        peaks = [(36.9, 0.4, 500.0, 0.3)]
    if not step > 0:
        raise DataError(f"step must be > 0 degrees, got {step:g}")
    if noise_sigma < 0:
        raise DataError("noise_sigma must be >= 0")
    x = np.arange(two_theta_lo, two_theta_hi + 0.5 * step, step)
    counts = baseline[0] + baseline[1] * x
    for center, fwhm, amplitude, eta in peaks:
        if fwhm <= 0 or amplitude < 0 or not 0.0 <= eta <= 1.0:
            raise DataError(f"bad peak parameters "
                            f"({center}, {fwhm}, {amplitude}, {eta})")
        counts = counts + pseudo_voigt(x, center, fwhm, amplitude, eta, 0.0, 0.0)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        counts = counts + noise_sigma * rng.standard_normal(x.size)
    counts = np.clip(counts, 0.0, None)
    scan = dataio.XrdScan(two_theta_deg=x, counts=counts,
                          header={"kind": "xrd"})
    truth = {
        "kind": "xrd",
        "peaks": [{"center": c, "fwhm": w, "amplitude": A, "eta": e}
                  for c, w, A, e in peaks],
        "baseline_intercept": baseline[0], "baseline_slope": baseline[1],
        "noise_sigma": noise_sigma, "seed": seed,
    }
    return scan, truth
