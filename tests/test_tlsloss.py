"""Photon-number conversion and TLS saturation fitting."""

import dataclasses
import math

import numpy as np
import pytest

from cpwloss import circlefit, synth, tlsloss
from cpwloss.errors import DataError, FitError
import test_circlefit

HBAR = 6.62607015e-34 / (2.0 * math.pi)  # from the exact SI Planck constant


class FitStub:
    """Minimal fit-like object for the photon-number formula."""

    def __init__(self, fr, Ql, Qc_mag):
        self.fr = fr
        self.Ql = Ql
        self.Qc_mag = Qc_mag


def photon_reference(fr, ql, qc, p_chip_watt):
    """Independent oracle: <n> = 2 Ql^2 P / (hbar omega^2 |Qc|)."""
    omega = 2.0 * math.pi * fr
    return 2.0 * ql * ql * p_chip_watt / (HBAR * omega * omega * qc)


class TestPhotonNumber:
    def test_reference_case(self):
        # fr=6 GHz, Ql=5e4, |Qc|=1e5 at 1e-17 W on chip
        fit = FitStub(6e9, 5e4, 1e5)
        # -80 dBm applied with 60 dB line attenuation = -140 dBm = 1e-17 W
        n = tlsloss.photon_number(fit, -80.0, 60.0)
        assert n == pytest.approx(photon_reference(6e9, 5e4, 1e5, 1e-17), rel=1e-12)
        assert n == pytest.approx(3.34, rel=0.01)

    def test_linearity_in_power(self):
        fit = FitStub(6e9, 5e4, 1e5)
        n1 = tlsloss.photon_number(fit, -80.0, 60.0)
        n2 = tlsloss.photon_number(fit, -70.0, 60.0)
        assert n2 / n1 == pytest.approx(10.0, rel=1e-12)

    def test_ql_squared_scaling(self):
        n1 = tlsloss.photon_number(FitStub(6e9, 5e4, 1e5), -80.0, 60.0)
        n2 = tlsloss.photon_number(FitStub(6e9, 1e5, 1e5), -80.0, 60.0)
        assert n2 / n1 == pytest.approx(4.0, rel=1e-12)

    def test_attenuation_required(self):
        fit = FitStub(6e9, 5e4, 1e5)
        with pytest.raises(DataError):
            tlsloss.photon_number(fit, -80.0, None)
        with pytest.raises(DataError):
            tlsloss.photon_number(fit, -80.0, -5.0)

    def test_hbar_is_scipy_exact(self):
        from scipy.constants import hbar
        assert tlsloss.HBAR == hbar

    def test_chip_power(self):
        # 0 dBm through 30 dB of line = -30 dBm = 1 microwatt
        assert tlsloss.chip_power_watt(0.0, 30.0) == pytest.approx(1e-6, rel=1e-12)


class TestEvalModel:
    def test_asymptotes(self):
        d0 = tlsloss.eval_tls_model(1e-9, 2e-6, 10.0, 0.5, 3e-7)
        dinf = tlsloss.eval_tls_model(1e12, 2e-6, 10.0, 0.5, 3e-7)
        assert d0 == pytest.approx(2e-6 + 3e-7, rel=1e-6)
        assert dinf == pytest.approx(3e-7, rel=1e-3)

    def test_monotone_decreasing(self):
        n = np.geomspace(1e-3, 1e6, 50)
        d = tlsloss.eval_tls_model(n, 2e-6, 10.0, 0.5, 3e-7)
        assert np.all(np.diff(d) < 0)

    def test_half_saturation_at_nc(self):
        # beta=1: at n = n_c the TLS part is exactly half
        d = tlsloss.eval_tls_model(10.0, 2e-6, 10.0, 1.0, 3e-7)
        assert d == pytest.approx(1e-6 + 3e-7, rel=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(DataError):
            tlsloss.eval_tls_model(1.0, -1e-6, 10.0, 0.5, 3e-7)
        with pytest.raises(DataError):
            tlsloss.eval_tls_model(1.0, 1e-6, 10.0, 2.5, 3e-7)
        with pytest.raises(DataError, match=r"^beta=2\.5 outside"):
            tlsloss.eval_tls_model(1.0, 1e-6, 10.0, np.float64(2.5), 3e-7)
        with pytest.raises(DataError, match=r"^photon number must be positive, got -1\.0$"):
            tlsloss.LossPoint(n_photon=np.float64(-1.0), delta=1e-6)
        with pytest.raises(DataError, match=r"^loss must be positive, got 0\.0$"):
            tlsloss.LossPoint(n_photon=1.0, delta=np.float64(0.0))

    def test_non_finite_point_rejected(self):
        with pytest.raises(DataError, match=r"^photon number must be finite, got inf$"):
            tlsloss.LossPoint(n_photon=math.inf, delta=1e-6)
        with pytest.raises(DataError, match=r"^loss must be finite, got inf$"):
            tlsloss.LossPoint(n_photon=1.0, delta=np.float64(np.inf))
        with pytest.raises(DataError, match=r"^photon number must be positive, got nan$"):
            tlsloss.LossPoint(n_photon=math.nan, delta=1e-6)

    def test_log_model_jacobian(self):
        # the closed-form Jacobian of fit_tls against central differences
        rng = np.random.default_rng(19)
        n = np.geomspace(1e-2, 1e5, 20)
        for _ in range(6):
            p = np.array([10 ** rng.uniform(-7.0, -5.0), 10 ** rng.uniform(-1.0, 2.0),
                          rng.uniform(0.1, 1.0), 10 ** rng.uniform(-8.0, -6.0)])
            numeric = test_circlefit.TestJacobians.central(
                lambda q: np.log(tlsloss.eval_tls_model(n, *q)), p, 1e-5 * p)
            test_circlefit.TestJacobians.assert_columns_match(tlsloss._tls_log_jac(n, *p), numeric)


def series_from_model(delta_tls, n_c, beta, delta_hp, n_points=20,
                      n_lo=1e-2, n_hi=1e5, noise=0.0, rng=None):
    n = np.geomspace(n_lo, n_hi, n_points)
    d = tlsloss.eval_tls_model(n, delta_tls, n_c, beta, delta_hp)
    if noise:
        d = d * (1.0 + noise * rng.standard_normal(n_points))
    return [tlsloss.LossPoint(n_photon=float(ni), delta=float(di))
            for ni, di in zip(n, d)]


class TestFitTls:
    def test_noiseless_recovery(self):
        truth = (2.4e-6, 17.0, 0.42, 2.9e-7)
        fit = tlsloss.fit_tls(series_from_model(*truth))
        assert fit.delta_tls == pytest.approx(truth[0], rel=1e-6)
        assert fit.n_c == pytest.approx(truth[1], rel=1e-6)
        assert fit.beta == pytest.approx(truth[2], rel=1e-6)
        assert fit.delta_hp == pytest.approx(truth[3], rel=1e-6)

    def test_identity_exact(self):
        fit = tlsloss.fit_tls(series_from_model(2.4e-6, 17.0, 0.42, 2.9e-7))
        assert fit.delta_lp - fit.delta_hp == fit.delta_tls

    def test_noisy_median_recovery(self):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = series_from_model(3e-6, 8.0, 0.38, 4e-7,
                                    noise=0.03, rng=rng)
            fit = tlsloss.fit_tls(pts)
            errs.append(abs(fit.delta_tls / 3e-6 - 1.0))
            assert fit.delta_lp - fit.delta_hp == fit.delta_tls
        assert np.median(errs) < 0.10

    def test_beta_clamp_flagged(self):
        # data generated with a shallower exponent than the fit range allows
        pts = series_from_model(5e-6, 0.1, 0.08, 1e-7,
                                n_points=25, n_lo=1e-2, n_hi=1e8)
        fit = tlsloss.fit_tls(pts)
        assert fit.beta_clamped
        assert fit.beta == pytest.approx(0.1, abs=1e-6)

    def test_unclamped_not_flagged(self):
        fit = tlsloss.fit_tls(series_from_model(3e-6, 10.0, 0.5, 4e-7))
        assert not fit.beta_clamped

    def test_flat_series_rejected(self):
        # delta barely moves: parameters unidentifiable
        n = np.geomspace(0.1, 1e4, 12)
        pts = [tlsloss.LossPoint(n_photon=float(v), delta=1e-6 * (1 + 0.01 * k / 12))
               for k, v in enumerate(n)]
        with pytest.raises(FitError):
            tlsloss.fit_tls(pts)

    def test_out_of_bounds_beta_rejected(self):
        fit = tlsloss.fit_tls(series_from_model(3e-6, 10.0, 0.5, 4e-7))
        with pytest.raises(FitError, match=r"^beta=2\.5 outside \(0\.1, 1\.0\)$"):
            dataclasses.replace(fit, beta=np.float64(2.5))

    def test_few_points_warns(self):
        pts = series_from_model(3e-6, 10.0, 0.5, 4e-7, n_points=5)
        with pytest.warns(UserWarning):
            tlsloss.fit_tls(pts)

    def test_narrow_span_warns(self):
        pts = series_from_model(3e-6, 10.0, 0.5, 4e-7, n_points=8,
                                n_lo=1.0, n_hi=50.0)
        with pytest.warns(UserWarning):
            tlsloss.fit_tls(pts)

    def test_weighted_fit_uses_sigmas(self):
        rng = np.random.default_rng(4)
        n = np.geomspace(1e-2, 1e5, 20)
        d = tlsloss.eval_tls_model(n, 3e-6, 8.0, 0.38, 4e-7)
        # corrupt one point badly but give it a huge sigma
        d_noisy = d.copy()
        d_noisy[10] *= 1.8
        sig = 0.01 * d
        sig[10] = 10.0 * d[10]
        pts = [tlsloss.LossPoint(n_photon=float(a), delta=float(b), sigma_delta=float(c))
               for a, b, c in zip(n, d_noisy, sig)]
        fit = tlsloss.fit_tls(pts)
        assert fit.delta_tls == pytest.approx(3e-6, rel=0.02)

    def test_ulp_changes_of_sigmas_move_no_value(self):
        # the walk's power series: a 1-ulp change of each point's sigma
        # reweights the fit by 2e-16, so the optimum moves by round-off;
        # a solve that stops short of the optimum moves by ~1e-9
        sweeps, _ = synth.synthesize_power_series(noise_sigma=5e-4, seed=12345)
        points, _ = tlsloss.assemble_series(sweeps)
        base = tlsloss.fit_tls(points)
        sigmas = np.array([p.sigma_delta for p in points])
        rng = np.random.default_rng(20)
        for _ in range(20):
            changed = test_circlefit.ulp_change(sigmas, rng)
            fit = tlsloss.fit_tls([dataclasses.replace(p, sigma_delta=float(s))
                                   for p, s in zip(points, changed)])
            for name in ("delta_tls", "delta_hp", "delta_lp", "n_c", "beta"):
                assert getattr(fit, name) == pytest.approx(getattr(base, name),
                                                           rel=1e-12, abs=0.0), name

    def test_sigma_estimates_positive(self):
        rng = np.random.default_rng(6)
        pts = series_from_model(3e-6, 8.0, 0.38, 4e-7, noise=0.02, rng=rng)
        fit = tlsloss.fit_tls(pts)
        for key in ("delta_tls", "delta_hp", "delta_lp", "n_c", "beta"):
            assert fit.sigma[key] > 0


class TestAssembleSeries:
    def make_series_sweeps(self, noise=0.0):
        sweeps, truth = synth.synthesize_power_series(noise_sigma=noise, seed=3)
        return sweeps, truth

    def test_monotone_loss_points(self):
        sweeps, truth = self.make_series_sweeps()
        points, diags = tlsloss.assemble_series(sweeps)
        assert len(points) == 12
        assert diags == []
        n = [p.n_photon for p in points]
        d = [p.delta for p in points]
        assert all(a < b for a, b in zip(n, n[1:]))  # sorted by photon number
        assert all(a >= b for a, b in zip(d, d[1:]))  # loss saturates downward

    def test_matches_truth(self):
        sweeps, truth = self.make_series_sweeps()
        points, _ = tlsloss.assemble_series(sweeps)
        for p, t in zip(points, truth["points"]):
            assert p.n_photon == pytest.approx(t["n_photon"], rel=1e-3)
            assert p.delta == pytest.approx(t["delta"], rel=1e-4)

    def test_attenuation_override(self):
        sweeps, _ = self.make_series_sweeps()
        pts_hdr, _ = tlsloss.assemble_series(sweeps)
        pts_ovr, _ = tlsloss.assemble_series(sweeps, attenuation_db=70.0)
        # 10 dB more attenuation = 10x fewer photons
        assert pts_ovr[0].n_photon * 10 == pytest.approx(pts_hdr[0].n_photon, rel=5e-2)

    def test_missing_attenuation_raises(self):
        sweeps, _ = self.make_series_sweeps()
        from dataclasses import replace
        stripped = [replace(s, attenuation_db=None) for s in sweeps]
        with pytest.raises(DataError):
            tlsloss.assemble_series(stripped)
        # but an explicit value rescues the series
        points, _ = tlsloss.assemble_series(stripped, attenuation_db=60.0)
        assert len(points) == 12

    def test_mixed_resonators_rejected(self):
        sweeps, _ = self.make_series_sweeps()
        from dataclasses import replace
        mixed = list(sweeps)
        mixed[3] = replace(mixed[3], resonator_id="OTHER")
        with pytest.raises(DataError):
            tlsloss.assemble_series(mixed)

    def test_bad_sweep_becomes_diagnostic(self):
        from dataclasses import replace
        sweeps, _ = self.make_series_sweeps()
        f = sweeps[0].frequency_hz
        flat = replace(sweeps[0], s21=np.full(f.size, 0.9 + 0j))
        points, diags = tlsloss.assemble_series([flat] + list(sweeps[1:]))
        assert len(points) == 11
        assert len(diags) == 1

    def test_too_few_survivors(self):
        sweeps, _ = self.make_series_sweeps()
        with pytest.raises(FitError):
            tlsloss.assemble_series(sweeps[:4])

    def test_end_to_end_fit(self):
        sweeps, truth = self.make_series_sweeps()
        points, _ = tlsloss.assemble_series(sweeps)
        fit = tlsloss.fit_tls(points)
        assert fit.delta_tls == pytest.approx(truth["delta_tls"], rel=1e-3)
        assert fit.n_c == pytest.approx(truth["n_c"], rel=1e-2)
        assert fit.beta == pytest.approx(truth["beta"], rel=1e-3)
        assert fit.delta_hp == pytest.approx(truth["delta_hp"], rel=1e-3)
