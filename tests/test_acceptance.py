"""Acceptance suite: one test per shipped guarantee, run with -v for the
one-line pass/fail summary of each.

Every tolerance here is pinned; loosening one to make a failure go away
is never the fix.
"""

import json
import math
import time

import numpy as np
import pytest

from cpwloss import cli, filmchar, lossbudget, stats, synth, tlsloss
from cpwloss.circlefit import default_frequencies, fit_resonance, synthesize_notch
from cpwloss.dataio import RtSweep


def draw_notch_params(rng):
    """One random notch-resonator parameter set over the full design range."""
    while True:
        ql = 10 ** rng.uniform(4.0, np.log10(5e5))
        qc = 10 ** rng.uniform(np.log10(2e4), 6.0)
        phi = rng.uniform(-0.5, 0.5)
        # keep the internal loss physical (positive Qi) with some margin
        if qc > 1.05 * ql * math.cos(phi):
            break
    return {
        "fr": rng.uniform(4e9, 8e9),
        "Ql": ql,
        "Qc_mag": qc,
        "phi": phi,
        "a": rng.uniform(0.5, 1.5),
        "alpha": rng.uniform(-2.0, 2.0),
        "tau": rng.uniform(0.0, 100e-9),
    }


def rel_err(est, true, floor):
    return abs(est - true) / max(abs(true), floor)


def test_01_circle_fit_round_trip():
    """200 random notch sweeps: noiseless 1e-4, noisy median Qi < 1%, < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    param_sets = [draw_notch_params(rng) for _ in range(200)]

    floors = {"fr": 1.0, "Ql": 1e-3, "Qc_mag": 1e-3, "phi": 1e-9,
              "a": 1e-9, "alpha": 1e-9, "tau": 1e-15}
    worst = 0.0
    for p in param_sets:
        sweep = synthesize_notch(**p, frequencies=default_frequencies(
            p["fr"], p["Ql"]))
        fit = fit_resonance(sweep)
        for name in ("fr", "Ql", "Qc_mag", "phi", "a", "alpha", "tau"):
            worst = max(worst, rel_err(getattr(fit, name), p[name], floors[name]))
    assert worst <= 1e-4, f"noiseless worst-case relative error {worst:.3g}"

    qi_errors = []
    for k, p in enumerate(param_sets):
        sweep = synthesize_notch(**p, frequencies=default_frequencies(
            p["fr"], p["Ql"]), noise_sigma=1e-3, seed=1000 + k)
        fit = fit_resonance(sweep)
        qi_true = 1.0 / (1.0 / p["Ql"] - math.cos(p["phi"]) / p["Qc_mag"])
        qi_errors.append(abs(fit.Qi / qi_true - 1.0))
    med = float(np.median(qi_errors))
    assert med < 0.01, f"median Qi error {med:.3%} at noise 1e-3"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"round trip took {elapsed:.1f} s"


def test_02_tls_fit_round_trip():
    """Saturation-model recovery: noiseless 1e-6; noisy median < 10%;
    the low-power identity is bit-exact on every fit."""
    truth = {"delta_tls": 2.4e-6, "n_c": 17.0, "beta": 0.42, "delta_hp": 2.9e-7}

    def series(noise=0.0, rng=None):
        n = np.geomspace(1e-2, 1e5, 20)
        d = tlsloss.eval_tls_model(n, **truth)
        if noise:
            d = d * (1.0 + noise * rng.standard_normal(n.size))
        return [tlsloss.LossPoint(n_photon=float(a), delta=float(b))
                for a, b in zip(n, d)]

    fit = tlsloss.fit_tls(series())
    for name, want in truth.items():
        assert rel_err(getattr(fit, name), want, 0.0) <= 1e-6, name
    assert fit.delta_lp - fit.delta_hp == fit.delta_tls

    errors = []
    for seed in range(100):
        noisy = tlsloss.fit_tls(series(noise=0.03,
                                       rng=np.random.default_rng(seed)))
        errors.append(abs(noisy.delta_tls / truth["delta_tls"] - 1.0))
        assert noisy.delta_lp - noisy.delta_hp == noisy.delta_tls
    med = float(np.median(errors))
    assert med < 0.10, f"median delta_tls error {med:.3%} at 3% noise"


def test_03_loss_budget():
    """Bundled participation table, forward budget, and full-rank inversion."""
    table = lossbudget.load_builtin_table()
    expected_rows = [
        (0.0, 2.83e-4, 4.95e-5, 5.93e-4, 0.907),
        (50.0, 2.67e-4, 2.08e-5, 5.45e-4, 0.905),
        (100.0, 2.51e-4, 1.77e-5, 5.04e-4, 0.903),
    ]
    assert len(table.rows) == len(expected_rows)
    for row, want in zip(table.rows, expected_rows):
        assert (row.trench_nm, row.p_sa, row.p_ma, row.p_ms, row.p_si) == want

    losses = lossbudget.InterfaceLosses(delta_sa=1e-3, delta_ma=1e-3,
                                        delta_ms=1e-3, delta_si=1e-7)
    delta = lossbudget.forward_loss(lossbudget.interpolate(table, 0.0), losses)
    assert rel_err(delta, 1.0162e-6, 0.0) <= 1e-4

    rows = [
        lossbudget.ParticipationRow(0.0, 3.0e-4, 5.0e-5, 6.0e-4, 0.900),
        lossbudget.ParticipationRow(50.0, 2.5e-4, 2.0e-5, 5.0e-4, 0.905),
        lossbudget.ParticipationRow(100.0, 2.0e-4, 8.0e-5, 4.0e-4, 0.910),
        lossbudget.ParticipationRow(150.0, 4.0e-4, 1.0e-5, 7.0e-4, 0.895),
    ]
    truth = lossbudget.InterfaceLosses(delta_sa=2.1e-3, delta_ma=7.3e-4,
                                       delta_ms=1.4e-3, delta_si=3.0e-7)
    deltas = [lossbudget.forward_loss(r, truth) for r in rows]
    result = lossbudget.decompose(rows, deltas)
    assert result.rank == 4
    for name in lossbudget.LOSS_NAMES:
        assert rel_err(result.losses[name], getattr(truth, name), 0.0) <= 1e-8, name


def test_04_photon_number():
    """Mean photon number: reference value within 1%, exact scalings."""
    class Fit:
        def __init__(self, fr, Ql, Qc_mag):
            self.fr, self.Ql, self.Qc_mag = fr, Ql, Qc_mag

    # -80 dBm through 60 dB of line attenuation = 1e-17 W at the chip
    n = tlsloss.photon_number(Fit(6e9, 5e4, 1e5), -80.0, 60.0)
    assert rel_err(n, 3.34, 0.0) <= 0.01

    n_up = tlsloss.photon_number(Fit(6e9, 5e4, 1e5), -70.0, 60.0)
    assert rel_err(n_up / n, 10.0, 0.0) <= 1e-12

    n_2ql = tlsloss.photon_number(Fit(6e9, 1e5, 1e5), -80.0, 60.0)
    assert rel_err(n_2ql / n, 4.0, 0.0) <= 1e-12


def test_05_xrd():
    """Pseudo-Voigt recovery, texture classification, grain-size ratio."""
    x = np.arange(35.0, 39.0, 0.01)
    for eta in (0.0, 0.3, 0.7, 1.0):
        scan, _ = synth.synthesize_xrd([(36.9, 0.4, 500.0, eta)],
                                       two_theta_lo=35.0, two_theta_hi=39.0)
        fit, = filmchar.fit_peaks(scan, windows=((35.5, 38.5),))
        assert rel_err(fit.center, 36.9, 0.0) <= 1e-6
        assert rel_err(fit.fwhm, 0.4, 0.0) <= 1e-6
        assert rel_err(fit.amplitude, 500.0, 0.0) <= 1e-6
        assert abs(fit.eta - eta) <= 1e-6

    def classify(peaks):
        scan, _ = synth.synthesize_xrd(peaks)
        windows = [(c - 1.5, c + 1.5) for c, _, _, _ in peaks]
        return filmchar.classify_orientation(filmchar.fit_peaks(scan, windows))

    assert classify([(36.9, 0.4, 500.0, 0.3)]).orientation == "TiN111"
    assert classify([(42.8, 0.8, 400.0, 0.3)]).orientation == "TiN200"
    assert classify([(36.9, 0.4, 500.0, 0.3),
                     (42.8, 0.8, 400.0, 0.3)]).orientation == "Mixed"

    def stub(center, fwhm):
        return filmchar.PeakFit(center=center, fwhm=fwhm, amplitude=100.0,
                                eta=0.5, baseline_intercept=0.0,
                                baseline_slope=0.0, sigma={},
                                window=(center - 1, center + 1), rms_residual=0.0)

    ratio = filmchar.scherrer_ratio(stub(36.9, 0.4), stub(42.8, 1.6))
    assert abs(ratio - 3.926) <= 1e-3


def test_06_rrr_tc():
    """RRR of the trivial two-level curve is exactly 4; logistic transitions
    place tc within 0.01 K over the whole studied range."""
    t = np.array([2.0, 3.0, 4.0, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9, 5.0,
                  5.25, 5.5, 5.75, 6.0, 10.0, 50.0, 100.0, 150.0, 200.0,
                  250.0, 300.0])
    r = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0,
                  25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0, 25.0,
                  62.5, 100.0])
    res = filmchar.extract_tc_rrr(RtSweep(temperature_k=t, resistance_ohm=r))
    assert res.r_300k == 100.0
    assert res.r_normal == 25.0
    assert res.rrr == 4.0

    for tc in np.arange(4.2, 5.2001, 0.1):
        sweep, _ = synth.synthesize_rt(tc=float(tc), width=0.2,
                                       r_normal=25.0, rrr=4.0)
        got = filmchar.extract_tc_rrr(sweep)
        assert abs(got.tc - tc) < 0.01, f"tc {tc:.1f}: got {got.tc:.4f}"


def quartiles_oracle(values):
    """Linear interpolation at p*(n-1), written without numpy on purpose."""
    v = sorted(values)
    n = len(v)

    def at(p):
        pos = p * (n - 1)
        i = int(math.floor(pos))
        frac = pos - i
        return v[i] if i + 1 >= n else v[i] * (1 - frac) + v[i + 1] * frac

    return at(0.25), at(0.5), at(0.75)


FIXED_VECTORS = [
    [5.0],
    [1.0, 2.0],
    [3.0, 1.0],
    [1.0, 2.0, 3.0],
    [1.0, 2.0, 3.0, 4.0],
    [4.0, 1.0, 3.0, 2.0],
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 2.0, 3.0, 4.0, 100.0],
    [-5.0, -1.0, 0.0, 2.0, 7.0],
    [2.5, 2.5, 2.5, 2.5, 9.0],
    list(range(1, 19)),
    [float(k ** 2) for k in range(18)],
    [10.0] * 8 + [19.0],
    [9.67e-7, 1.1e-6, 8.2e-7, 1.3e-6],
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    [-3.0, -2.0, -1.0],
    [1e6, 2e6],
    [7.0, 7.0, 7.0],
    [0.0, 0.0, 1.0, 100.0],
    [12.0, 3.0, 7.0, 9.0, 1.0, 14.0, 6.0, 2.0, 8.0, 5.0,
     11.0, 4.0, 13.0, 10.0, 0.0, 15.0, 16.0, 17.0],
]


def test_07_statistics():
    """Box summaries against a hand oracle, the fence partition property,
    and the reference median comparison."""
    sizes = {len(v) for v in FIXED_VECTORS}
    assert {1, 2, 4, 5, 18} <= sizes
    for vec in FIXED_VECTORS:
        box = stats.box_summary(vec)
        q1, med, q3 = quartiles_oracle(vec)
        assert box.q1 == pytest.approx(q1, rel=1e-12, abs=1e-300)
        assert box.median == pytest.approx(med, rel=1e-12, abs=1e-300)
        assert box.q3 == pytest.approx(q3, rel=1e-12, abs=1e-300)
        iqr = q3 - q1
        assert box.lower_fence == pytest.approx(q1 - 1.5 * iqr, rel=1e-12, abs=1e-300)
        assert box.upper_fence == pytest.approx(q3 + 1.5 * iqr, rel=1e-12, abs=1e-300)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        vec = rng.standard_normal(n) * 10.0 ** int(rng.integers(-6, 3))
        box = stats.box_summary(vec)
        inside = vec[(vec >= box.lower_fence) & (vec <= box.upper_fence)]
        recombined = np.sort(np.concatenate([inside, box.outliers]))
        assert recombined.size == vec.size
        assert np.array_equal(recombined, np.sort(vec))

    cmp = stats.compare_medians(stats.box_summary([9.67e-7]),
                                stats.box_summary([11.04e-7]))
    assert abs(cmp.ratio - 0.876) <= 1e-3
    assert cmp.lower == "a"


def test_08_end_to_end(tmp_path):
    """Synthetic data through the command line reproduces its own truth,
    and the full feedline pipeline is deterministic and fast."""
    t0 = time.perf_counter()

    # power-series round trip at the TLS tolerances
    series_dir = tmp_path / "series"
    assert cli.main(["synth", "power_series", "--out", str(series_dir)]) == 0
    files = sorted(str(p) for p in series_dir.glob("power_*.dat"))
    assert cli.main(["power", *files, "--out", str(series_dir)]) == 0
    with open(series_dir / "truth.json") as fh:
        truth = json.load(fh)
    with open(series_dir / "tls_report.json") as fh:
        fit = json.load(fh)["body"]["tls_fit"]
    for name in ("delta_tls", "n_c", "beta", "delta_hp"):
        assert rel_err(fit[name], truth[name], 0.0) <= 1e-6, name
    assert fit["delta_tls"] == fit["delta_lp"] - fit["delta_hp"]

    # scan -> fit -> power -> report on a nine-resonator feedline
    def run_pipeline(root):
        root.mkdir(exist_ok=True)
        assert cli.main(["synth", "feedline", "noise=0.0005",
                         "--out", str(root), "--seed", "42"]) == 0
        assert cli.main(["scan", str(root / "feedline.dat"),
                         "--out", str(root)]) == 0
        assert cli.main(["fit", str(root / "feedline.dat"),
                         "--windows", str(root / "scan_report.json"),
                         "--out", str(root)]) == 0
        for k, process in enumerate(["B/HP/HT/BOE", "B/LP/LT/BOE",
                                     "C/HP/HT/none"]):
            sub = root / f"res{k}"
            assert cli.main(["synth", "power_series", "noise=0.0005",
                             f"process={process}", f"resonator_id=R{k}",
                             "--out", str(sub), "--seed", str(100 + k)]) == 0
            powers = sorted(str(p) for p in sub.glob("power_*.dat"))
            assert cli.main(["power", *powers, "--out", str(sub)]) == 0
        assert cli.main(["report", str(root), "--out", str(root)]) == 0

    root = tmp_path / "pipeline"
    run_pipeline(root)
    reports = sorted(root.rglob("*_report.json"))
    assert len(reports) >= 6
    first = {p: p.read_bytes() for p in reports}

    run_pipeline(root)  # identical inputs and seeds: identical bytes
    for path, blob in first.items():
        assert path.read_bytes() == blob, f"{path.name} changed between runs"

    with open(root / "fit_report.json") as fh:
        body = json.load(fh)["body"]
    assert body["n_fits"] == 9 and body["n_failures"] == 0
    with open(root / "group_report.json") as fh:
        groups = json.load(fh)["body"]["groups"]
    assert len(groups["by_key"]) == 3

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f} s"


def test_09_qi_error_bars_calibrated():
    """The reported sigma_Qi matches the scatter: over the first 100 draws
    at noise 1e-3 every fit succeeds and the pull (fit - truth)/sigma_Qi
    has a std within [0.85, 1.15]."""
    rng = np.random.default_rng(1)
    param_sets = [draw_notch_params(rng) for _ in range(100)]
    pulls = []
    for k, p in enumerate(param_sets):
        sweep = synthesize_notch(**p, frequencies=default_frequencies(
            p["fr"], p["Ql"]), noise_sigma=1e-3, seed=1000 + k)
        fit = fit_resonance(sweep)
        qi_true = 1.0 / (1.0 / p["Ql"] - math.cos(p["phi"]) / p["Qc_mag"])
        pulls.append((fit.Qi - qi_true) / fit.sigma["Qi"])
    std = float(np.std(pulls))
    assert 0.85 <= std <= 1.15, f"Qi pull std {std:.3f} at noise 1e-3"
