"""Notch resonance fitting: the model, the delay start, the variable-projection
fit and its gates."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cpwloss import circlefit, dataio
from cpwloss.errors import DataError, FitError
from test_acceptance import draw_notch_params


def ulp_change(values, rng):
    """values with each element moved one ulp up or down at random."""
    return np.nextafter(values, np.where(rng.random(values.shape) < 0.5, -np.inf, np.inf))


def centred_jac(f, fc, p):
    """Jacobian of the seven-parameter model at p = (fr, Ql, Qc_mag, phi, a,
    alpha_c, tau), alpha_c being the environment phase at f = fc, real
    parts stacked over imaginary parts."""
    fr, ql, qc, phi, a, alpha_c, tau = p
    env = a * np.exp(1j * (alpha_c - 2 * np.pi * (f - fc) * tau))
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
    cols[6] = (-2j * np.pi) * (f - fc) * m
    return np.concatenate([cols.real, cols.imag], axis=1).T


def centred_parameters(fit, fc):
    """(fr, Ql, Qc_mag, phi, a, alpha_c, tau) of a ResonanceFit."""
    return np.array([fit.fr, fit.Ql, fit.Qc_mag, fit.phi, fit.a,
                     fit.alpha - 2 * np.pi * fc * fit.tau, fit.tau])


def noisy_draws(count, noise=1e-3):
    """The first `count` acceptance draws (rng 1) with noise seeds 1000 + k."""
    rng = np.random.default_rng(1)
    for k in range(count):
        p = draw_notch_params(rng)
        yield circlefit.synthesize_notch(
            **p, frequencies=circlefit.default_frequencies(p["fr"], p["Ql"]),
            noise_sigma=noise, seed=1000 + k)


def make_sweep(fr=6e9, ql=5e4, qc=1e5, phi=0.0, a=1.0, alpha=0.0, tau=0.0,
               noise=0.0, seed=None, **kw):
    return circlefit.synthesize_notch(fr, ql, qc, phi, a=a, alpha=alpha,
                                      tau=tau, noise_sigma=noise, seed=seed,
                                      **kw)


class TestNotchModel:
    def test_far_from_resonance_is_baseline(self):
        f = np.array([1e9, 20e9])
        z = circlefit.notch_model(f, 6e9, 5e4, 1e5, 0.0, a=0.7, alpha=0.2, tau=0.0)
        np.testing.assert_allclose(np.abs(z), 0.7, rtol=1e-4)

    def test_on_resonance_depth(self):
        # at f=fr the dip term is 1 - (Ql/Qc)e^{i phi}
        z = circlefit.notch_model(np.array([6e9]), 6e9, 5e4, 1e5, 0.0)
        assert z[0] == pytest.approx(1 - 0.5, abs=1e-12)

    def test_delay_term(self):
        f = np.array([6.001e9])
        z0 = circlefit.notch_model(f, 6e9, 5e4, 1e5, 0.0, tau=0.0)
        z1 = circlefit.notch_model(f, 6e9, 5e4, 1e5, 0.0, tau=10e-9)
        expected = z0 * np.exp(-2j * np.pi * f * 10e-9)
        np.testing.assert_allclose(z1, expected, rtol=1e-12)

    def test_detuning_exact_near_resonance(self):
        # the dip term against one built from the exactly rounded detuning;
        # f/fr - 1 would lose log10(2*Ql) digits before the product with 2*Ql
        fr, ql, qc = 6e9, 5e5, 1e6
        f = circlefit.default_frequencies(fr, ql)
        x = np.array([float(Fraction(fk) / Fraction(fr) - 1) for fk in f])
        expected = (ql / qc) / (1.0 + 2j * ql * x)
        dip = 1.0 - circlefit.notch_model(f, fr, ql, qc, 0.0)
        np.testing.assert_allclose(dip, expected, rtol=1e-13)

    @pytest.mark.parametrize("npoints", [1001, 100001])
    def test_bytes_match_one_line_dip(self, npoints):
        # the dip term as one expression; the explicit ufunc calls of
        # _dip must keep its operand order, also above numpy's 256 KiB
        # temporary-elision threshold (100,001 complex points is 1.6 MB)
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = draw_notch_params(rng)
            fr, ql, qc, phi = p["fr"], p["Ql"], p["Qc_mag"], p["phi"]
            a, alpha, tau = p["a"], p["alpha"], p["tau"]
            f = circlefit.default_frequencies(fr, ql, npoints=npoints)
            env = a * np.exp(1j * alpha) * np.exp(-1j * circlefit.TWO_PI * f * tau)
            expected = env * (1.0 - (ql / qc) * np.exp(1j * phi)
                              / (1.0 + 2j * ql * (f - fr) / fr))
            z = circlefit.notch_model(f, fr, ql, qc, phi, a, alpha, tau)
            assert z.tobytes() == expected.tobytes()

    def test_dip_allocates_one_complex_buffer(self):
        # the returned complex array and the real f - fr: 1.5 x 16 bytes
        # per point; every full-size complex temporary adds another 1.0
        f = circlefit.default_frequencies(6e9, 2e4, npoints=100001)
        circlefit._dip(f, 6e9, 2e4, 4e4, 0.05)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            d = circlefit._dip(f, 6e9, 2e4, 4e4, 0.05)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert d.dtype == complex and d.shape == f.shape
        assert peak < 1.75 * 16 * f.size


class TestJacobians:
    """The closed-form Jacobians of fit_resonance against central
    differences of what they differentiate, column by column."""

    @staticmethod
    def central(fun, p, steps):
        cols = []
        for i, h in enumerate(steps):
            dp = np.zeros(p.size)
            dp[i] = h
            hi, lo = p + dp, p - dp
            cols.append((fun(hi) - fun(lo)) / (hi[i] - lo[i]))
        return np.column_stack(cols)

    @staticmethod
    def assert_columns_match(analytic, numeric):
        assert analytic.shape == numeric.shape
        for k in range(numeric.shape[1]):
            err = np.linalg.norm(analytic[:, k] - numeric[:, k])
            assert err <= 1e-5 * np.linalg.norm(numeric[:, k]), f"column {k}"

    @staticmethod
    def draw(rng):
        """(f, fr, Ql) with fr up to a linewidth off the grid's centre."""
        fr = rng.uniform(4e9, 8e9)
        ql = 10 ** rng.uniform(4.0, 5.7)
        f = circlefit.default_frequencies(fr * (1.0 + rng.uniform(-1, 1) / ql), ql)
        return f, fr, ql

    def test_refine_jacobian(self):
        # centred_jac, the reference of the covariance tests, against the
        # model it differentiates, written out here as fit_resonance never
        # evaluates it
        rng = np.random.default_rng(17)
        for _ in range(6):
            f, fr, ql = self.draw(rng)
            fc = 0.5 * (f[0] + f[-1])
            p = np.array([fr, ql, ql * 10 ** rng.uniform(0.0, 1.3),
                          rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5),
                          rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 100e-9)])
            steps = np.array([1e-4 * fr / ql, 1e-4 * ql, 1e-4 * p[2], 1e-5,
                              1e-5 * p[4], 1e-5, 1e-5 / (2 * np.pi * np.ptp(f))])

            def stacked(q):
                fr, ql, qc, phi, a, alpha_c, tau = q
                env = a * np.exp(1j * (alpha_c - 2 * np.pi * (f - fc) * tau))
                z = env * (1.0 - circlefit._dip(f, fr, ql, qc, phi))
                return np.concatenate([z.real, z.imag])

            self.assert_columns_match(centred_jac(f, fc, p),
                                      self.central(stacked, p, steps))

    def test_projected_jacobian(self):
        # at the noiseless truth the residual is zero, and with it the
        # term Kaufman's Jacobian leaves out
        rng = np.random.default_rng(18)
        for _ in range(6):
            f, fr, ql = self.draw(rng)
            df, w = f - f[0], 2j * np.pi * (f - 0.5 * (f[0] + f[-1]))
            theta = np.array([fr - f[0], ql, rng.uniform(0.0, 100e-9)])
            z = circlefit.notch_model(f, fr, ql, ql * 10 ** rng.uniform(0.0, 1.3),
                                      rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5),
                                      rng.uniform(-np.pi, np.pi), theta[2])
            steps = np.array([1e-4 * fr / ql, 1e-4 * ql,
                              1e-5 / (2 * np.pi * np.ptp(f))])

            def stacked(q):
                r = circlefit._linear_step(f, df, w, z, q)[4]
                return np.concatenate([r.real, r.imag])

            self.assert_columns_match(
                circlefit._projected_jac(f, w, theta,
                                         *circlefit._linear_step(f, df, w, z, theta)[:4]),
                self.central(stacked, theta, steps))


class TestDelayEstimate:
    # the wing-slope start is refined by the projected solve over (fr, Ql, tau)
    def test_recovers_50ns(self):
        s = make_sweep(tau=50e-9)
        tau = circlefit.fit_resonance(s).tau
        assert tau == pytest.approx(50e-9, rel=1e-3)

    def test_zero_delay(self):
        s = make_sweep(tau=0.0)
        tau = circlefit.fit_resonance(s).tau
        assert abs(tau) < 1e-12

    def test_error_over_seeds(self):
        # noise 1e-4 Monte Carlo: typical error within 2%, tail bounded
        errs = []
        for seed in range(100):
            s = make_sweep(tau=50e-9, noise=1e-4, seed=seed)
            tau = circlefit.fit_resonance(s).tau
            errs.append(abs(tau - 50e-9) / 50e-9)
        assert np.median(errs) < 0.02
        assert max(errs) < 0.06

    def test_wrap_failure_raises(self):
        # wing phase stepping by ~pi per point cannot be unwrapped
        from cpwloss.dataio import ComplexSweep
        f = np.linspace(4e9, 4.001e9, 64)
        z = np.exp(1j * np.pi * 0.999 * np.arange(64))
        sweep = ComplexSweep(frequency_hz=f, s21=z)
        with pytest.raises(FitError) as err:
            circlefit.fit_resonance(sweep)
        assert "unwrap" in str(err.value)


class TestFitResonance:
    def test_trivial_qi(self):
        s = make_sweep(fr=6e9, ql=5e4, qc=1e5, phi=0.0)
        fit = circlefit.fit_resonance(s)
        assert fit.Qi == pytest.approx(1e5, rel=1e-6)

    def test_seven_parameter_recovery(self):
        truth = dict(fr=6e9, ql=5e4, qc=1e5, phi=0.3, a=0.8, alpha=1.0, tau=30e-9)
        s = make_sweep(**truth)
        fit = circlefit.fit_resonance(s)
        assert fit.fr == pytest.approx(truth["fr"], rel=1e-4)
        assert fit.Ql == pytest.approx(truth["ql"], rel=1e-4)
        assert fit.Qc_mag == pytest.approx(truth["qc"], rel=1e-4)
        assert fit.phi == pytest.approx(truth["phi"], abs=1e-4)
        assert fit.a == pytest.approx(truth["a"], rel=1e-4)
        assert fit.alpha == pytest.approx(truth["alpha"], abs=1e-4)
        assert fit.tau == pytest.approx(truth["tau"], rel=1e-4)

    def test_qi_identity(self):
        s = make_sweep(phi=0.2, tau=20e-9)
        fit = circlefit.fit_resonance(s)
        lhs = 1.0 / fit.Qi
        rhs = 1.0 / fit.Ql - np.cos(fit.phi) / fit.Qc_mag
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ql = 10 ** rng.uniform(4.2, 5.5)
            qc = ql / rng.uniform(0.1, 0.8)
            phi = rng.uniform(-0.45, 0.45)
            s = make_sweep(fr=5e9, ql=ql, qc=qc, phi=phi,
                           tau=rng.uniform(0, 80e-9), noise=5e-4,
                           seed=int(rng.integers(1 << 30)))
            fit = circlefit.fit_resonance(s)
            assert abs(fit.phi) < np.pi / 2
            assert s.frequency_hz[0] <= fit.fr <= s.frequency_hz[-1]
            assert fit.Qi > 0 and fit.Ql > 0 and fit.Qc_mag > 0

    def test_coarse_sweep_with_delay(self):
        # 101 points over 60 linewidths: the 40 ns delay turns the phase
        # by 0.075 rad between adjacent points, which is not noise
        freqs = circlefit.default_frequencies(5e9, 1e4, span_linewidths=60.0,
                                              npoints=101)
        s = make_sweep(fr=5e9, ql=1e4, qc=1e5, phi=0.1, a=1.0, alpha=0.3,
                       tau=40e-9, frequencies=freqs)
        fit = circlefit.fit_resonance(s)
        qi_true = 1.0 / (1.0 / 1e4 - np.cos(0.1) / 1e5)
        assert fit.Qi == pytest.approx(qi_true, rel=1e-9)

    def test_residual_tracks_noise(self):
        for noise in (1e-5, 1e-4, 1e-3, 1e-2):
            s = make_sweep(ql=8e4, qc=1.2e5, noise=noise, seed=3)
            fit = circlefit.fit_resonance(s)
            assert fit.rms_residual <= 3.0 * noise

    def test_sigma_reported(self):
        s = make_sweep(noise=1e-3, seed=21)
        fit = circlefit.fit_resonance(s)
        for key in ("fr", "Ql", "Qc_mag", "phi", "a", "alpha", "tau", "Qi"):
            assert fit.sigma[key] > 0

    def test_sigma_matches_jacobian_covariance(self):
        # independent covariance in notch_model's own parameters (alpha is
        # the phase at f = 0): s^2 (J^T J)^-1 from a central-difference
        # Jacobian at the fitted point, with s^2 = sum(r^2) / (2n - 7)
        s = make_sweep(fr=5e9, ql=5e4, qc=1e5, phi=0.2, a=0.9, alpha=0.5,
                       tau=40e-9, noise=1e-3, seed=5)
        fit = circlefit.fit_resonance(s)
        f = s.frequency_hz
        names = ("fr", "Ql", "Qc_mag", "phi", "a", "alpha", "tau")
        p = np.array([getattr(fit, name) for name in names])
        # steps small against each parameter's scale in the model; tau's
        # moves the phase by 1e-5 rad at fr
        steps = np.array([1e-4 * fit.fr / fit.Ql, 1e-4 * fit.Ql,
                          1e-4 * fit.Qc_mag, 1e-5, 1e-5 * fit.a, 1e-5,
                          1e-5 / (2 * np.pi * fit.fr)])

        def stacked(q):
            z = circlefit.notch_model(f, *q)
            return np.concatenate([z.real, z.imag])

        cols = []
        for i, h in enumerate(steps):
            dp = np.zeros(7)
            dp[i] = h
            cols.append((stacked(p + dp) - stacked(p - dp)) / 2.0)
        jac = np.column_stack(cols)  # per unit step, so O(1) columns
        r = stacked(p) - np.concatenate([s.s21.real, s.s21.imag])
        s2 = r @ r / (2 * f.size - 7)
        cov = s2 * np.linalg.inv(jac.T @ jac) * np.outer(steps, steps)

        def qi(q):
            return 1.0 / (1.0 / q[1] - np.cos(q[3]) / q[2])

        grad = np.zeros(7)
        for i in (1, 2, 3):
            dp = np.zeros(7)
            dp[i] = steps[i]
            grad[i] = (qi(p + dp) - qi(p - dp)) / (2.0 * steps[i])
        expected = {name: np.sqrt(cov[i, i]) for i, name in enumerate(names)}
        expected["Qi"] = np.sqrt(grad @ cov @ grad)
        assert set(fit.sigma) == set(expected)
        for name, value in expected.items():
            assert fit.sigma[name] == pytest.approx(value, rel=0.02), name

    def test_qi_uncertainty_covers_truth(self):
        # 1-sigma interval should contain the truth roughly 2/3 of the time
        hits = 0
        total = 60
        for seed in range(total):
            s = make_sweep(ql=5e4, qc=1e5, phi=0.1, tau=10e-9,
                           noise=1e-3, seed=seed)
            fit = circlefit.fit_resonance(s)
            qi_true = 1.0 / (1.0 / 5e4 - np.cos(0.1) / 1e5)
            if abs(fit.Qi - qi_true) <= 2.0 * fit.sigma["Qi"]:
                hits += 1
        assert hits >= int(0.80 * total)

    def test_ulp_changes_of_a_noisy_sweep_move_no_value(self):
        # one-ulp changes of S21 move the optimum by round-off; a solve
        # that stops short of it moves Qi and |Qc| by ~1e-9
        sweep = make_sweep(fr=5e9, ql=2e4, qc=4e4, phi=0.1, tau=30e-9,
                           noise=1e-3, seed=3)
        base = circlefit.fit_resonance(sweep)
        linewidth = base.fr / base.Ql
        rng = np.random.default_rng(21)
        for _ in range(10):
            s21 = ulp_change(sweep.s21.real, rng) + 1j * ulp_change(sweep.s21.imag, rng)
            fit = circlefit.fit_resonance(replace(sweep, s21=s21))
            assert fit.Qi == pytest.approx(base.Qi, rel=1e-10, abs=0.0)
            assert fit.Qc_mag == pytest.approx(base.Qc_mag, rel=1e-10, abs=0.0)
            assert abs(fit.fr - base.fr) <= 1e-10 * linewidth

    def test_acceptance_draw_noise_1e2_failures(self):
        """The 200 acceptance draws at noise 1e-2 all fit: each resolves its Qi."""
        failures = []
        for sweep in noisy_draws(200, noise=1e-2):
            try:
                circlefit.fit_resonance(sweep)
            except FitError as exc:
                failures.append(str(exc))
        assert failures == []

    def test_low_snr_draws_fit_within_their_errors(self):
        # the acceptance draws at noise 1e-2 whose dip a circle diameter
        # under 5x the noise floor once rejected: each resolves Qi
        # (sigma_Qi/Qi 0.051-0.116) and lands within 3 sigma of the truth
        gated = {4, 17, 24, 26, 43, 48, 61, 86, 131, 159, 171}
        rng = np.random.default_rng(1)
        params = [draw_notch_params(rng) for _ in range(172)]
        for k, (p, sweep) in enumerate(zip(params, noisy_draws(172, noise=1e-2))):
            if k not in gated:
                continue
            fit = circlefit.fit_resonance(sweep)
            qi = 1.0 / (1.0 / p["Ql"] - np.cos(p["phi"]) / p["Qc_mag"])
            assert 0.05 < fit.sigma["Qi"] / fit.Qi <= circlefit.RESOLVABILITY_LIMIT, k
            assert abs(fit.Qi - qi) < 3.0 * fit.sigma["Qi"], k

    def test_unresolved_qi_finds_no_dip(self):
        # a 0.5-wide dip under noise 0.5 per quadrature: the solve converges
        # and fits the noise, but Qi is not resolved
        s = make_sweep(fr=6e9, ql=5e4, qc=1e5, noise=0.5, seed=0)
        with pytest.raises(FitError, match=r"^no dip found: sigma_Qi/Qi = ") as err:
            circlefit.fit_resonance(s)
        ratio = float(str(err.value).split("= ")[1].split()[0])
        assert ratio > circlefit.RESOLVABILITY_LIMIT

    def test_noise_only_traces_find_no_dip(self):
        # 100 traces of noise 1e-3 per quadrature around a constant: no
        # dip, and no fit (one of them, s = 12, passed the diameter gate
        # with Qi = 4.8e4 and sigma_Qi/Qi = 0.51)
        f = np.linspace(4e9, 4.01e9, 200)
        fits = []
        for s in range(5, 105):
            z = 0.9 + 1e-3 * (np.random.default_rng(s).standard_normal(200)
                              + 1j * np.random.default_rng(s + 1000).standard_normal(200))
            try:
                fits.append((s, circlefit.fit_resonance(
                    dataio.ComplexSweep(frequency_hz=f, s21=z)).Qi))
            except FitError:
                pass
        assert fits == []

    def test_refinement_is_well_conditioned(self, monkeypatch):
        # one solve over (fr, Ql, tau) per fit; cond(J^T J) of the
        # column-scaled seven-parameter Jacobian, which no choice of
        # parameter units changes, is ~14 at the optimum, and ~1e9 without
        # the alpha_c centring
        starts = []
        solve = circlefit.solve

        def recording_solve(fun, jac, x0, *args, **kwargs):
            starts.append(x0)
            return solve(fun, jac, x0, *args, **kwargs)

        monkeypatch.setattr(circlefit, "solve", recording_solve)
        for k, sweep in enumerate(noisy_draws(20)):
            fit = circlefit.fit_resonance(sweep)
            assert len(starts) == k + 1 and starts[-1].size == 3, k
            f = sweep.frequency_hz
            fc = 0.5 * (f[0] + f[-1])
            jac = centred_jac(f, fc, centred_parameters(fit, fc))
            s = np.linalg.svd(jac / np.linalg.norm(jac, axis=0), compute_uv=False)
            assert (s[0] / s[-1]) ** 2 < 1e3, k

    def test_covariance_matches_seven_column_svd(self, monkeypatch):
        # the covariance from the projected solve's SVD and the Schur
        # complement against s^2 (J^T J)^+ of the column-scaled seven-
        # parameter Jacobian at the fitted point, s^2 = |r|^2/(2n - 7),
        # each entry within 1e-9 of sigma_i*sigma_j (4.3e-11 at most here)
        covs = []
        covariance = circlefit._covariance

        def recording_covariance(*args):
            covs.append(covariance(*args))
            return covs[-1]

        monkeypatch.setattr(circlefit, "_covariance", recording_covariance)
        for k, sweep in enumerate(noisy_draws(10)):
            fit = circlefit.fit_resonance(sweep)
            f = sweep.frequency_hz
            fc = 0.5 * (f[0] + f[-1])
            jac = centred_jac(f, fc, centred_parameters(fit, fc))
            scale = np.linalg.norm(jac, axis=0)
            _, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
            vt = vt / scale
            r = sweep.s21 - circlefit.notch_model(f, fit.fr, fit.Ql, fit.Qc_mag, fit.phi,
                                                  fit.a, fit.alpha, fit.tau)
            s2 = np.vdot(r, r).real / (2 * f.size - 7)
            # alpha_c, the phase at f = fc, to alpha = alpha_c + 2*pi*fc*tau
            t = np.eye(7)
            t[5, 6] = 2 * np.pi * fc
            expected = t @ (vt.T / s ** 2) @ vt @ t.T * s2
            sigma = np.sqrt(np.diag(expected))
            assert len(covs) == k + 1
            assert np.all(np.abs(covs[-1] - expected) <= 1e-9 * np.outer(sigma, sigma)), k

    def test_linear_step_runs_once_per_evaluation(self, monkeypatch):
        # the residuals, the Jacobian and the final c0, c1 of one point
        # share one linear step
        counts = {"steps": 0, "nfev": 0}
        linear_step, solve = circlefit._linear_step, circlefit.solve

        def counting_step(*args):
            counts["steps"] += 1
            return linear_step(*args)

        def counting_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            counts["nfev"] += res.nfev
            return res

        monkeypatch.setattr(circlefit, "_linear_step", counting_step)
        monkeypatch.setattr(circlefit, "solve", counting_solve)
        for k, sweep in enumerate(noisy_draws(10)):
            before = dict(counts)
            circlefit.fit_resonance(sweep)
            assert counts["nfev"] > before["nfev"], k
            assert counts["steps"] - before["steps"] == counts["nfev"] - before["nfev"], k

    def test_noisy_draws_evaluation_count(self, monkeypatch):
        # 298 evaluations over these 40 fits with solve's per-component
        # relative xtol test; the scaled-norm test can only stop sooner
        nfev = []
        solve = circlefit.solve

        def recording_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(circlefit, "solve", recording_solve)
        for sweep in noisy_draws(40):
            circlefit.fit_resonance(sweep)
        assert len(nfev) == 40
        assert sum(nfev) <= 298, sum(nfev)

    @pytest.mark.parametrize("alpha", [np.pi - 1e-9, np.pi, -np.pi + 1e-9],
                             ids=["below_pi", "pi", "above_minus_pi"])
    def test_environment_phase_near_pi_wraps(self, alpha):
        # with tau = 0, alpha is arg c0 itself, on either side of the branch
        # cut; a = |c0| and Qc_mag = Ql*|c0|/|c1| are positive whatever the side
        s = make_sweep(fr=5e9, ql=5e4, qc=1e5, phi=0.1, a=0.9, alpha=alpha)
        fit = circlefit.fit_resonance(s)
        assert fit.a > 0 and fit.Qc_mag > 0
        assert -np.pi <= fit.alpha < np.pi
        assert (fit.alpha - alpha + np.pi) % (2 * np.pi) - np.pi == pytest.approx(0.0, abs=1e-9)
        assert fit.a == pytest.approx(0.9, rel=1e-9)
        assert fit.Qc_mag == pytest.approx(1e5, rel=1e-9)

    def test_linear_step_recovers_truth(self):
        truth = dict(fr=6e9, ql=5e4, qc=1e5, phi=0.3, a=0.8, alpha=1.0, tau=30e-9)
        s = make_sweep(**truth)
        f = s.frequency_hz
        fc = 0.5 * (f[0] + f[-1])
        c0, c1 = circlefit._linear_step(f, f - f[0], 2j * np.pi * (f - fc), s.s21,
                                        (6e9 - f[0], 5e4, 30e-9))[:2]
        qc, phi, a, alpha_c = circlefit._linear_parameters(5e4, c0, c1)
        alpha = alpha_c + 2 * np.pi * fc * 30e-9
        assert a == pytest.approx(truth["a"], rel=1e-12, abs=0.0)
        assert qc == pytest.approx(truth["qc"], rel=1e-12, abs=0.0)
        assert phi == pytest.approx(truth["phi"], rel=0.0, abs=1e-12)
        assert (alpha - truth["alpha"] + np.pi) % (2 * np.pi) - np.pi == \
            pytest.approx(0.0, abs=1e-12)

    def test_hopeless_sweep_stops_early(self, monkeypatch):
        # draw 199 of the stress set at noise 5e-2 (1,001 points over 30
        # linewidths): a dip barely above the noise, where a solve that
        # stalls runs to its evaluation limit; the projected solve takes 18
        nfev = []
        solve = circlefit.solve

        def recording_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(circlefit, "solve", recording_solve)
        rng = np.random.default_rng(7)
        p = [draw_notch_params(rng) for _ in range(200)][199]
        sweep = circlefit.synthesize_notch(
            **p, frequencies=circlefit.default_frequencies(p["fr"], p["Ql"], 30.0, 1001),
            noise_sigma=5e-2, seed=1199)
        try:
            circlefit.fit_resonance(sweep)
        except FitError:
            pass
        assert 0 < sum(nfev) <= 200, nfev

    @pytest.mark.parametrize("noise", [0.0, 1e-3], ids=["noiseless", "noise_1e-3"])
    @pytest.mark.parametrize("apart", [1.0, 3.0], ids=["1_linewidth", "3_linewidths"])
    def test_second_dip_fails_the_adequacy_gate(self, apart, noise):
        # a second resonator `apart` linewidths above the first; without
        # the gate the fit returns Qi 34-58 % low with a small sigma
        fr, ql, qc, phi = 5e9, 5e4, 1e5, 0.1
        s = make_sweep(fr=fr, ql=ql, qc=qc, phi=phi, noise=noise, seed=3)
        second = 1.0 - circlefit._dip(s.frequency_hz, fr * (1.0 + apart / ql), ql, qc, phi)
        with pytest.raises(FitError, match=r"^the notch model does not fit: .* times "
                                           r"the noise floor .*second dip"):
            circlefit.fit_resonance(replace(s, s21=s.s21 * second))

    def test_flat_trace_raises(self):
        f = np.linspace(4e9, 4.01e9, 200)
        z = np.full(200, 0.9 + 0.05j)
        from cpwloss.dataio import ComplexSweep
        sweep = ComplexSweep(frequency_hz=f, s21=z)
        with pytest.raises(FitError):
            circlefit.fit_resonance(sweep)

    def test_noise_only_trace_raises(self):
        from cpwloss.dataio import ComplexSweep
        rng = np.random.default_rng(5)
        f = np.linspace(4e9, 4.01e9, 200)
        z = 0.9 + 1e-3 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        with pytest.raises(FitError):
            circlefit.fit_resonance(ComplexSweep(frequency_hz=f, s21=z))

    def test_narrow_span_warns(self):
        freqs = circlefit.default_frequencies(6e9, 5e4, span_linewidths=2.0)
        s = make_sweep(frequencies=freqs)
        with pytest.warns(UserWarning):
            circlefit.fit_resonance(s)

    def test_report_record(self, tmp_path):
        fit = circlefit.fit_resonance(make_sweep())
        path = tmp_path / "r.json"
        dataio.write_report(path, "demo", {"fit": fit})
        d = dataio.read_report(path)["body"]["fit"]
        assert d["fr"] == fit.fr
        assert d["sigma"]["Ql"] == fit.sigma["Ql"]
        assert d["n_points"] == 1001


class TestSynthesizeNotch:
    def test_metadata_passthrough(self):
        s = make_sweep(power_dbm=-70.0, attenuation_db=60.0, resonator_id="R3")
        assert s.power_dbm == -70.0
        assert s.resonator_id == "R3"

    def test_seeded_noise_reproducible(self):
        s1 = make_sweep(noise=1e-3, seed=9)
        s2 = make_sweep(noise=1e-3, seed=9)
        np.testing.assert_array_equal(s1.s21, s2.s21)

    def test_invalid_parameters(self):
        with pytest.raises(DataError):
            make_sweep(ql=-1.0)
        with pytest.raises(DataError):
            make_sweep(qc=0.0)
        with pytest.raises(DataError, match=r"^Ql must be positive, got -1\.0$"):
            make_sweep(ql=np.float64(-1.0))
        # 1/Ql - cos(phi)/|Qc| = 5e-6 - cos(0.05) * 1e-5 < 0, no resonator_id
        with pytest.raises(DataError, match=r"^resonator: internal loss 1/Qi = "
                                            r"1/Ql - cos\(phi\)/Qc_mag must be "
                                            r"positive, got -4\.99e-06$"):
            make_sweep(ql=2e5, qc=1e5, phi=0.05)

    def test_default_grid_spans_ten_linewidths(self):
        s = make_sweep(fr=6e9, ql=6e4)
        span = float(np.ptp(s.frequency_hz))
        assert span == pytest.approx(10 * 6e9 / 6e4, rel=1e-9)
        assert s.frequency_hz.size == 1001
