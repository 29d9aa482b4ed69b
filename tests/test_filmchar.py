"""Diffraction peaks, sheet-resistance uniformity, resistivity, Tc/RRR."""

import math

import numpy as np
import pytest

from cpwloss import dataio, filmchar, synth
from cpwloss.dataio import RtSweep, SheetMap, XrdScan
from cpwloss.errors import DataError, FitError
from cpwloss.filmchar import (
    DEFAULT_XRD_WINDOWS,
    PeakFit,
    classify_orientation,
    extract_tc_rrr,
    fit_peaks,
    pseudo_voigt,
    resistivity,
    scherrer_ratio,
    sheet_stats,
)

import test_circlefit


def make_scan(peaks, b0=50.0, b1=0.5, lo=30.0, hi=50.0, step=0.01,
              noise=0.0, seed=None):
    """peaks: list of (center, fwhm, amplitude, eta)."""
    x = np.arange(lo, hi + step / 2, step)
    y = b0 + b1 * x
    for center, fwhm, amp, eta in peaks:
        y = y + pseudo_voigt(x, center, fwhm, amp, eta, 0.0, 0.0)
    if noise:
        rng = np.random.default_rng(seed)
        y = np.clip(y + noise * rng.standard_normal(x.size), 0.0, None)
    return XrdScan(two_theta_deg=x, counts=y)


def peak_stub(center, fwhm, amplitude=100.0):
    return PeakFit(center=center, fwhm=fwhm, amplitude=amplitude, eta=0.5,
                   baseline_intercept=0.0, baseline_slope=0.0, sigma={},
                   window=(center - 1.5, center + 1.5), rms_residual=0.0)


class TestPeakFitting:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_noiseless_recovery(self, eta):
        scan = make_scan([(36.9, 0.4, 500.0, eta)])
        fit, = fit_peaks(scan, windows=((35.5, 38.5),))
        assert fit.center == pytest.approx(36.9, rel=1e-6)
        assert fit.fwhm == pytest.approx(0.4, rel=1e-6)
        assert fit.amplitude == pytest.approx(500.0, rel=1e-6)
        assert fit.eta == pytest.approx(eta, abs=1e-6)
        assert fit.baseline_intercept == pytest.approx(50.0, rel=1e-4)
        assert fit.baseline_slope == pytest.approx(0.5, rel=1e-4)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fwhm", [0.05, 0.08, 0.15, 0.4, 0.8, 1.2, 1.5])
    def test_noiseless_widths(self, fwhm, eta):
        # from 5 scan points per FWHM to half the window; the fit starts
        # every width at a fifth of the window
        scan = make_scan([(36.9, fwhm, 500.0, eta)])
        fit, = fit_peaks(scan, windows=((35.4, 38.4),))
        assert fit.center == pytest.approx(36.9, rel=1e-6)
        assert fit.fwhm == pytest.approx(fwhm, rel=1e-6)
        assert fit.amplitude == pytest.approx(500.0, rel=1e-6)
        assert fit.eta == pytest.approx(eta, abs=1e-6)

    def test_pseudo_voigt_jacobian(self):
        # the closed-form Jacobian of the peak fit against central differences
        rng = np.random.default_rng(22)
        x = np.arange(-1.5, 1.5, 0.01)
        for _ in range(6):
            p = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.1, 1.0),
                          rng.uniform(50.0, 500.0), rng.uniform(0.0, 1.0),
                          rng.uniform(0.0, 100.0), rng.uniform(-5.0, 5.0)])
            steps = np.array([1e-5, 1e-5 * p[1], 1e-5 * p[2], 1e-5, 1e-3, 1e-5])
            numeric = test_circlefit.TestJacobians.central(
                lambda q: pseudo_voigt(x, *q), p, steps)
            test_circlefit.TestJacobians.assert_columns_match(
                filmchar._pseudo_voigt_jac(x, *p[:4]), numeric)

    def test_noisy_recovery(self):
        scan = make_scan([(36.9, 0.4, 500.0, 0.3)], noise=3.0, seed=8)
        fit, = fit_peaks(scan, windows=((35.5, 38.5),))
        assert fit.center == pytest.approx(36.9, abs=0.01)
        assert fit.fwhm == pytest.approx(0.4, rel=0.05)
        for key in ("center", "fwhm", "amplitude", "eta"):
            assert fit.sigma[key] > 0

    def test_two_windows(self):
        # the Lorentzian tail of each peak leaks into the other's window,
        # so recovery is only good to ~1e-3 with two peaks present
        scan = make_scan([(36.9, 0.4, 500.0, 0.3), (42.8, 1.6, 300.0, 0.5)])
        f111, f200 = fit_peaks(scan)  # default windows
        assert f111.center == pytest.approx(36.9, rel=1e-6)
        assert f200.center == pytest.approx(42.8, rel=1e-6)
        assert f200.fwhm == pytest.approx(1.6, rel=1e-3)

    def test_flat_window_raises(self):
        scan = make_scan([])
        with pytest.raises(FitError, match="no peak"):
            fit_peaks(scan, windows=((35.5, 38.5),))

    def test_bad_windows(self):
        scan = make_scan([(36.9, 0.4, 500.0, 0.3)])
        with pytest.raises(DataError):
            fit_peaks(scan, windows=((38.5, 35.5),))
        with pytest.raises(DataError):
            fit_peaks(scan, windows=((36.89, 36.95),))  # too few points

    def test_synth_scan_is_fittable(self):
        scan, truth = synth.synthesize_xrd()
        fit, = fit_peaks(scan, windows=((35.5, 38.5),))
        peak = truth["peaks"][0]
        assert fit.center == pytest.approx(peak["center"], rel=1e-6)
        assert fit.fwhm == pytest.approx(peak["fwhm"], rel=1e-6)
        assert fit.amplitude == pytest.approx(peak["amplitude"], rel=1e-6)
        assert fit.eta == pytest.approx(peak["eta"], abs=1e-6)

    def test_peakfit_validation(self):
        with pytest.raises(DataError):
            peak_stub(36.9, -0.1)
        with pytest.raises(DataError):
            PeakFit(center=36.9, fwhm=0.4, amplitude=1.0, eta=1.5,
                    baseline_intercept=0.0, baseline_slope=0.0, sigma={},
                    window=(36, 38), rms_residual=0.0)


class TestOrientation:
    def test_111_only(self):
        res = classify_orientation([peak_stub(36.9, 0.4)])
        assert res.orientation == "TiN111"
        assert res.shift_111_deg == pytest.approx(0.3, abs=1e-12)
        assert res.shift_200_deg is None

    def test_200_only(self):
        res = classify_orientation([peak_stub(42.8, 0.8)])
        assert res.orientation == "TiN200"
        assert res.shift_200_deg == pytest.approx(0.2, abs=1e-12)
        assert res.shift_111_deg is None

    def test_mixed(self):
        res = classify_orientation([peak_stub(36.9, 0.4), peak_stub(42.8, 0.8)])
        assert res.orientation == "Mixed"
        assert res.shift_111_deg == pytest.approx(0.3, abs=1e-12)
        assert res.shift_200_deg == pytest.approx(0.2, abs=1e-12)

    def test_none(self):
        assert classify_orientation([]).orientation == "None"
        assert classify_orientation([peak_stub(39.5, 0.4)]).orientation == "None"

    def test_strongest_peak_wins_in_band(self):
        weak = peak_stub(36.2, 0.4, amplitude=10.0)
        strong = peak_stub(36.9, 0.4, amplitude=100.0)
        res = classify_orientation([weak, strong])
        assert res.shift_111_deg == pytest.approx(0.3, abs=1e-12)


class TestScherrer:
    def test_fwhm_ratio_four(self):
        # (200) peak four times broader than (111): relative grain size
        # follows 1/(fwhm*cos(theta))
        a = peak_stub(36.9, 0.4)
        b = peak_stub(42.8, 1.6)
        expect = (1.6 * math.cos(math.radians(42.8 / 2))) / \
                 (0.4 * math.cos(math.radians(36.9 / 2)))
        got = scherrer_ratio(a, b)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(3.926, abs=1e-3)

    def test_reciprocal(self):
        a = peak_stub(36.9, 0.4)
        b = peak_stub(42.8, 1.6)
        assert scherrer_ratio(a, b) * scherrer_ratio(b, a) == pytest.approx(1.0, rel=1e-12)

    def test_equal_widths_near_unity(self):
        a = peak_stub(36.9, 0.5)
        b = peak_stub(42.8, 0.5)
        # only the cos(theta) factor differs
        assert scherrer_ratio(a, b) == pytest.approx(
            math.cos(math.radians(21.4)) / math.cos(math.radians(18.45)), rel=1e-12)


SITES = ("c", "n", "ne", "e", "se", "s", "sw", "w", "nw")


def make_map(values, wafer_id="W1"):
    return SheetMap(wafer_id=wafer_id, sites=SITES,
                    r_square_ohm_sq=np.array(values, dtype=float))


class TestSheetStats:
    def test_single_wafer_hand_values(self):
        stats = sheet_stats([make_map([10.0] * 8 + [19.0])])
        assert stats.batch_mean_ohm_sq == pytest.approx(11.0, rel=1e-12)
        # deviations: eight of -1, one of +8 -> sample std exactly 3
        assert stats.max_wafer_rel_std_pct == pytest.approx(300.0 / 11.0, rel=1e-12)
        assert stats.max_site_rel_std_pct is None
        assert stats.n_wafers == 1
        assert stats.per_site == {}

    def test_uniform_batch(self):
        maps = [make_map([7.5] * 9, wafer_id=f"W{k}") for k in range(3)]
        stats = sheet_stats(maps)
        assert stats.batch_mean_ohm_sq == pytest.approx(7.5, rel=1e-12)
        assert stats.max_wafer_rel_std_pct == 0.0
        assert stats.max_site_rel_std_pct == 0.0
        assert stats.n_wafers == 3

    def test_site_variation_across_wafers(self):
        a = [10.0] * 9
        b = [12.0] * 9
        a[3], b[3] = 19.0, 5.0  # site "e" swings wafer to wafer
        stats = sheet_stats([make_map(a, "W1"), make_map(b, "W2")])
        site_e = stats.per_site["e"]
        assert site_e["mean_ohm_sq"] == pytest.approx(12.0, rel=1e-12)
        expect = 100.0 * np.std([19.0, 5.0], ddof=1) / 12.0
        assert site_e["rel_std_pct"] == pytest.approx(expect, rel=1e-12)
        assert stats.max_site_rel_std_pct == pytest.approx(expect, rel=1e-12)

    def test_mismatched_sites_rejected(self):
        other = SheetMap(wafer_id="W2", sites=SITES[:-1] + ("x",),
                         r_square_ohm_sq=np.full(9, 10.0))
        with pytest.raises(DataError):
            sheet_stats([make_map([10.0] * 9), other])

    def test_empty_batch(self):
        with pytest.raises(DataError):
            sheet_stats([])


class TestResistivity:
    def test_reference_value(self):
        # 11.75 ohm/sq at 60 nm -> 70.5 uOhm*cm
        assert resistivity(11.75, 60.0) == pytest.approx(70.5, rel=1e-12)

    def test_unit_chain(self):
        # 1 ohm/sq * 1 nm = 1e-7 ohm*cm = 0.1 uOhm*cm
        assert resistivity(1.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DataError):
            resistivity(-1.0, 60.0)
        with pytest.raises(DataError):
            resistivity(11.75, 0.0)


def plateau_curve():
    """Piecewise R(T) with an exactly flat 25 ohm plateau and R(300 K) = 100."""
    t = np.array([2.0, 3.0, 4.0, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9, 5.0,
                  5.25, 5.5, 5.75, 6.0, 10.0, 50.0, 100.0, 150.0, 200.0,
                  250.0, 300.0])
    r = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0,
                  25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0,
                  62.5, 100.0])
    return RtSweep(temperature_k=t, resistance_ohm=r)


class TestTcRrr:
    def test_exact_plateau(self):
        res = extract_tc_rrr(plateau_curve())
        assert res.r_normal == 25.0
        assert res.r_300k == 100.0
        assert res.rrr == 4.0  # 100/25 is exact in floating point
        assert res.tc == pytest.approx(4.75, abs=1e-12)
        assert res.transition_width == pytest.approx(0.4, abs=1e-12)
        assert res.flags == ()

    def test_logistic_round_trip(self):
        sweep, truth = synth.synthesize_rt(tc=4.7, width=0.2, r_normal=25.0,
                                           rrr=4.0)
        res = extract_tc_rrr(sweep)
        assert res.tc == pytest.approx(4.7, abs=0.01)
        assert res.transition_width == pytest.approx(0.2, abs=0.02)
        assert res.r_normal == pytest.approx(25.0, rel=0.01)
        assert res.r_300k == pytest.approx(100.0, rel=1e-9)
        assert res.rrr == pytest.approx(4.0, rel=0.01)

    def test_noisy_trace(self):
        sweep, _ = synth.synthesize_rt(tc=4.7, width=0.2, r_normal=25.0,
                                       rrr=4.0, noise_sigma=0.002, seed=21)
        res = extract_tc_rrr(sweep)
        assert res.tc == pytest.approx(4.7, abs=0.05)
        assert res.rrr == pytest.approx(4.0, rel=0.05)

    def test_no_transition(self):
        t = np.linspace(2.0, 300.0, 200)
        r = 20.0 + 80.0 * t / 300.0
        with pytest.raises(FitError, match="no transition"):
            extract_tc_rrr(RtSweep(temperature_k=t, resistance_ohm=r))

    def test_sweep_must_reach_room_temperature(self):
        t = np.linspace(2.0, 250.0, 100)
        r = np.linspace(0.0, 25.0, 100)
        with pytest.raises(DataError):
            extract_tc_rrr(RtSweep(temperature_k=t, resistance_ohm=r))

    def test_incomplete_transition_flagged(self):
        sweep = plateau_curve()
        # truncate below the transition so the lowest reading sits at 8%
        # of the plateau: still a transition, but flagged
        t = sweep.temperature_k.copy()
        r = sweep.resistance_ohm.copy()
        r[r == 0.0] = 2.0
        with pytest.warns(UserWarning):
            res = extract_tc_rrr(RtSweep(temperature_k=t, resistance_ohm=r))
        assert "low_end_above_5pct_of_plateau" in res.flags

    def test_rrr_below_one_flagged(self):
        sweep = plateau_curve()
        r = sweep.resistance_ohm.copy()
        r[-2:] = [22.0, 20.0]  # resistance falls toward room temperature
        res = extract_tc_rrr(RtSweep(temperature_k=sweep.temperature_k.copy(),
                                     resistance_ohm=r))
        assert res.rrr == pytest.approx(20.0 / 25.0, rel=1e-12)
        assert "rrr_below_1" in res.flags

    def test_report_record(self, tmp_path):
        path = tmp_path / "r.json"
        dataio.write_report(path, "demo", {"tc_rrr": extract_tc_rrr(plateau_curve())})
        doc = dataio.read_report(path)["body"]["tc_rrr"]
        assert set(doc) == {"tc", "transition_width", "r_normal", "r_300k",
                            "rrr", "flags"}
