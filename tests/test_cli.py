"""Command-line pipeline: synth, scan, fit, power, budget, film commands."""

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwloss import cli, dataio, synth
from cpwloss.dataio import ComplexSweep
from cpwloss.errors import CpwLossError, DataError


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSynth:
    def test_notch_files(self, tmp_path):
        assert run("synth", "notch", "--out", tmp_path) == 0
        assert (tmp_path / "notch.dat").exists()
        truth = read_json(tmp_path / "truth.json")
        assert truth["kind"] == "notch"
        sweep = dataio.parse_sweep_file(tmp_path / "notch.dat")
        assert sweep.frequency_hz.size == 1001

    def test_deterministic_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("synth", "notch", "noise=0.0005", "--out", d,
                       "--seed", 5) == 0
        assert file_bytes(d1 / "notch.dat") == file_bytes(d2 / "notch.dat")
        assert file_bytes(d1 / "truth.json") == file_bytes(d2 / "truth.json")

    def test_seed_changes_noise(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", "notch", "noise=0.0005", "--out", d1, "--seed", 5) == 0
        assert run("synth", "notch", "noise=0.0005", "--out", d2, "--seed", 6) == 0
        assert file_bytes(d1 / "notch.dat") != file_bytes(d2 / "notch.dat")

    def test_unknown_param_rejected(self, tmp_path, capsys):
        assert run("synth", "notch", "bogus=1", "--out", tmp_path) == 1
        assert "unknown synth parameter" in capsys.readouterr().err

    def test_steep_rt_step_warns_nothing(self, tmp_path, capsys):
        # exp(-z) overflows far below a 1 mK step; that is r = 0, not news
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("synth", "rt", "width=0.001", "--out", tmp_path) == 0
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == ""

    def test_all_kinds_write_truth(self, tmp_path):
        for kind, data_file in [("rt", "rt.dat"), ("xrd", "xrd.dat")]:
            d = tmp_path / kind
            assert run("synth", kind, "--out", d) == 0
            assert (d / data_file).exists()
            assert (d / "truth.json").exists()


@pytest.fixture(scope="module")
def feedline_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("feedline")
    assert run("synth", "feedline", "noise=0.0005", "--out", d, "--seed", 42) == 0
    return d


@pytest.fixture(scope="module")
def scanned_dir(feedline_dir):
    assert run("scan", feedline_dir / "feedline.dat", "--out", feedline_dir) == 0
    return feedline_dir


def old_scan_windows(f, depth, prominence_db):
    """The point-by-point run walk that scan_windows replaced."""
    above = depth >= prominence_db
    windows = []
    i = 0
    while i < f.size:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < f.size and above[j + 1]:
            j += 1
        k = i + int(np.argmax(depth[i:j + 1]))
        half = depth[k] / 2.0
        left, right = k, k
        while left > 0 and depth[left - 1] >= half:
            left -= 1
        while right < f.size - 1 and depth[right + 1] >= half:
            right += 1
        est_lw = max(float(f[right] - f[left]), 2.0 * float(f[1] - f[0]))
        windows.append({
            "f_center_hz": float(f[k]),
            "f_lo_hz": max(float(f[0]), float(f[k] - 10.0 * est_lw)),
            "f_hi_hz": min(float(f[-1]), float(f[k] + 10.0 * est_lw)),
            "est_linewidth_hz": est_lw,
            "max_depth_db": float(depth[k]),
            "proximity_flag": False,
        })
        i = j + 1
    for a, b in zip(windows, windows[1:]):
        if b["f_center_hz"] - a["f_center_hz"] < cli.PROXIMITY_LIMIT_HZ:
            a["proximity_flag"] = b["proximity_flag"] = True
    return windows


def dipped_sweep(depths_db, n=400):
    """A flat 0 dB trace on a 1 MHz grid with the given {index: depth} dips."""
    mag_db = np.zeros(n)
    for k, d in depths_db.items():
        mag_db[k] = -d
    return ComplexSweep(frequency_hz=4e9 + 1e6 * np.arange(n),
                        s21=10.0 ** (mag_db / 20.0) * np.exp(0.3j))


def scan(sweep):
    """(windows, mag_db, baseline) of scan_windows on sweep at 3 dB, the
    baseline interpolated through its knots."""
    mag_db = cli.magnitude_db(sweep.s21)
    windows, knots = cli.scan_windows(sweep.frequency_hz, mag_db, 3.0)
    return windows, mag_db, np.interp(sweep.frequency_hz, *knots)


def block_starts(n, size):
    """First index of each of block_median_baseline's blocks."""
    return np.r_[np.arange(0, n - size, size), n - size]


class TestScan:
    def test_finds_all_resonators(self, scanned_dir):
        doc = read_json(scanned_dir / "scan_report.json")
        truth = read_json(scanned_dir / "truth.json")
        windows = doc["body"]["windows"]
        assert doc["body"]["n_windows"] == 9
        frs = sorted(r["fr"] for r in truth["resonators"])
        for w, fr in zip(windows, frs):
            assert w["f_lo_hz"] < fr < w["f_hi_hz"]
            assert abs(w["f_center_hz"] - fr) < 5 * w["est_linewidth_hz"]
            assert w["proximity_flag"] is False

    def test_trace_companion_written(self, scanned_dir):
        # the baseline's 50 knots, not a row per point of the trace
        assert read_json(scanned_dir / "scan_report.json")["plot_data"] == {
            "baseline": "scan_report_baseline.dat"}
        _, (knot_f, _), _ = dataio.read_columns(scanned_dir / "scan_report_baseline.dat",
                                                ("frequency_hz", "baseline_db"))
        assert knot_f.size == 50

    @pytest.mark.parametrize("trace,old_sha256", [
        ("walk", "0a08fbc11719f96f6f2cd6145e0dcb75b213a7c5ffca87bfcd53c0a9e434e9cd"),
        ("wideband", "79f3cc04c99fe0b1fb35c8b84113220fc1e28bfa9b1908f12ee1186e1eeabe67"),
    ], ids=["walk", "wideband"])
    def test_companion_rebuilds_the_old_trace_columns(self, scanned_dir, tmp_path, trace,
                                                      old_sha256):
        # scan_report_trace.dat, which scan wrote before its knots, held
        # f, |S21| in dB and the full-precision block-median baseline at
        # every point; old_sha256 is the digest of the file it wrote
        if trace == "walk":
            path, out = scanned_dir / "feedline.dat", scanned_dir
        else:
            comb = [{"fr": 4e9 + 200e6 * k, "Ql": 2e4, "Qc_mag": 4e4, "phi": 0.05}
                    for k in range(40)]
            sweep, _ = synth.synthesize_feedline(comb, npoints=345_307,
                                                 noise_sigma=5e-4, seed=0)
            path, out = tmp_path / "feedline.dat", tmp_path
            dataio.write_sweep_file(path, sweep)
            del sweep
            assert run("scan", path, "--out", out) == 0

        # f and |S21| in dB as README rebuilds them, beside the old
        # medians: the digest pins both columns to the old text
        sweep = dataio.parse_sweep_file(path)
        f, mag_db = sweep.frequency_hz, cli.magnitude_db(sweep.s21)
        size = max(51, 2 * (f.size // 100) + 1)
        starts = block_starts(f.size, size)
        medians = [np.sort(mag_db[s:s + size])[size // 2] for s in starts]
        names = ("frequency_hz", "s21_mag_db", "baseline_db")
        old = tmp_path / "old_trace.dat"
        dataio.write_rows(old, {"plot": "trace"}, names,
                          (f, mag_db, np.interp(f, f[starts + size // 2], medians)))
        assert hashlib.sha256(file_bytes(old)).hexdigest() == old_sha256

        # the baseline through the companion's knots, within 2 units of
        # the 12th significant digit of the old column's largest magnitude
        _, (knot_f, knot_db), _ = dataio.read_columns(
            out / "scan_report_baseline.dat", ("frequency_hz", "baseline_db"))
        assert knot_f.size == starts.size == 50
        old_db = dataio.read_columns(old, names)[1][2]
        unit = 10.0 ** (np.floor(np.log10(np.max(np.abs(old_db)))) - 11)
        assert np.max(np.abs(np.interp(f, knot_f, knot_db) - old_db)) <= 2 * unit

    def test_flat_trace_fails_loud(self, tmp_path, capsys):
        f = np.linspace(4e9, 5e9, 2001)
        sweep = ComplexSweep(frequency_hz=f, s21=np.full(f.size, 0.9 + 0.1j))
        path = tmp_path / "flat.dat"
        dataio.write_sweep_file(path, sweep)
        assert run("scan", path, "--out", tmp_path) == 1
        assert "no dips" in capsys.readouterr().err

    @pytest.mark.parametrize("depths", [
        {0: 10.0},
        {399: 10.0},
        {200: 6.0},
        {200: 8.0, 201: 1.0, 202: 9.0},
        {0: 4.0, 1: 7.0, 2: 5.0, 3: 3.5, 4: 2.0, 250: 12.0, 251: 12.0, 398: 3.0, 399: 20.0},
        {100: 3.2, 101: 2.9, 102: 3.1, 140: 4.0, 141: 4.0, 142: 4.0},
    ], ids=["first_point", "last_point", "one_point_run", "runs_one_apart",
            "edges_and_ties", "near_threshold"])
    def test_windows_match_point_walk(self, depths, monkeypatch):
        # a flat 0 dB baseline: the block median never lets a run touch an end
        monkeypatch.setattr(cli, "block_median_baseline",
                            lambda f, x, size: (f[:1], np.zeros(1)))
        sweep = dipped_sweep(depths)
        windows, mag_db, baseline = scan(sweep)
        assert windows == old_scan_windows(sweep.frequency_hz, baseline - mag_db, 3.0)

    def test_windows_match_point_walk_on_random_dips(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            idx = rng.choice(400, size=rng.integers(1, 60), replace=False)
            sweep = dipped_sweep(dict(zip(idx.tolist(), rng.uniform(0, 8, idx.size))))
            windows, mag_db, baseline = scan(sweep)
            assert windows == old_scan_windows(sweep.frequency_hz, baseline - mag_db, 3.0)

    @pytest.mark.parametrize("n,size", [(400, 51), (409, 51), (1000, 51), (1020, 51),
                                        (345_307, 6907)])
    def test_block_median_baseline_at_and_between_centres(self, n, size):
        # medians of blocks of size points from the first one, the last
        # block the last size points, each at its centre point; on a
        # non-uniform grid the baseline through them is linear in f, not
        # in the index, between centres
        rng = np.random.default_rng(41)
        f = np.cumsum(rng.uniform(0.5, 1.5, n))
        x = rng.standard_normal(n)
        knot_f, knot_db = cli.block_median_baseline(f, x, size)
        starts = block_starts(n, size)
        centres = starts + size // 2
        medians = np.array([np.sort(x[s:s + size])[size // 2] for s in starts])
        assert knot_f.tobytes() == f[centres].tobytes()
        assert knot_db.tobytes() == medians.tobytes()
        got = np.interp(f, knot_f, knot_db)
        for a, b, ma, mb in zip(centres, centres[1:], medians, medians[1:]):
            t = (f[a:b + 1] - f[a]) / (f[b] - f[a])
            np.testing.assert_allclose(got[a:b + 1], ma + t * (mb - ma), rtol=0, atol=1e-12)
        assert np.all(got[:centres[0]] == medians[0])
        assert np.all(got[centres[-1]:] == medians[-1])

    @pytest.mark.parametrize("n", [1, 2, 50, 51])
    def test_block_median_baseline_short_trace_is_flat(self, n):
        # a trace of at most size points is one block: one flat median
        x = np.random.default_rng(43).standard_normal(n)
        knot_f, knot_db = cli.block_median_baseline(np.arange(n, dtype=float), x, 51)
        assert (knot_f.tolist(), knot_db.tolist()) == ([n // 2], [np.sort(x)[n // 2]])

    def test_block_median_baseline_peak_memory(self):
        # only one block and the 50 knots are alive: 0.023x the trace at
        # wideband's 345,307 points and scan's block of 6907
        n = 345_307
        x = np.random.default_rng(31).standard_normal(n)
        f = 4e9 + 27_222.0 * np.arange(n)
        tracemalloc.start()
        try:
            cli.block_median_baseline(f, x, 6907)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 6907 * x.itemsize

    def test_scan_peak_memory(self, tmp_path):
        # parse plus scan: f, s21 and |S21| in dB peak at 1.40x the rows x 3
        # block on 150,001 points, where the block, a copy of f and |S21|
        # took 1.73x, and the sweep's own copies of f and s21 beside a
        # padded trace 2.23x
        sweep, _ = synth.synthesize_feedline(npoints=150_001, noise_sigma=5e-4, seed=3)
        path = tmp_path / "feedline.dat"
        dataio.write_sweep_file(path, sweep)
        del sweep
        tracemalloc.start()
        try:
            assert run("scan", path, "--out", tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 150_001 * 3 * 8

    @pytest.mark.parametrize("index", [0, 399])
    def test_dip_at_trace_end(self, index):
        # the real block median: a one-point dip at either end of the
        # trace must not set its own baseline
        sweep = dipped_sweep({index: 10.0})
        windows, _, _ = scan(sweep)
        assert len(windows) == 1
        assert windows[0]["f_center_hz"] == sweep.frequency_hz[index]
        assert windows[0]["max_depth_db"] == pytest.approx(10.0)

    @pytest.mark.parametrize("n", [5151, 5152, 5153, 5200])
    def test_dip_at_the_end_of_a_trace_of_any_length(self, n):
        # 5,151 to 5,153 points are 50 of scan's 103-point blocks and 1
        # to 3 points more: the last point must not get a block of its own
        mag_db = np.zeros(n)
        mag_db[-1] = -10.0
        f = 4e9 + 1e5 * np.arange(n)
        windows, _ = cli.scan_windows(f, mag_db, 3.0)
        assert [w["f_center_hz"] for w in windows] == [f[-1]]
        assert windows[0]["max_depth_db"] == 10.0

    def test_close_dips_flagged(self, tmp_path):
        d = tmp_path / "close"
        assert run("synth", "feedline", "n_res=2", "spacing=30e6",
                   "noise=0.0002", "--out", d, "--seed", 3) == 0
        assert run("scan", d / "feedline.dat", "--out", d) == 0
        windows = read_json(d / "scan_report.json")["body"]["windows"]
        assert len(windows) == 2
        assert all(w["proximity_flag"] for w in windows)


class TestFit:
    def test_windows_pipeline(self, scanned_dir, tmp_path):
        out = tmp_path / "fits"
        assert run("fit", scanned_dir / "feedline.dat",
                   "--windows", scanned_dir / "scan_report.json",
                   "--out", out) == 0
        doc = read_json(out / "fit_report.json")
        body = doc["body"]
        assert body["n_fits"] == 9
        assert body["n_failures"] == 0
        truth = read_json(scanned_dir / "truth.json")
        by_fr = sorted(truth["resonators"], key=lambda r: r["fr"])
        for entry, res in zip(body["fits"], by_fr):
            assert entry["fr"] == pytest.approx(res["fr"], rel=1e-6)
            assert entry["Ql"] == pytest.approx(res["Ql"], rel=0.02)
            assert entry["Qc_mag"] == pytest.approx(res["Qc_mag"], rel=0.02)

    def test_rerun_byte_identical(self, scanned_dir, tmp_path):
        out = tmp_path / "fits"
        args = ("fit", scanned_dir / "feedline.dat",
                "--windows", scanned_dir / "scan_report.json", "--out", out)
        assert run(*args) == 0
        first = file_bytes(out / "fit_report.json")
        assert run(*args) == 0
        assert file_bytes(out / "fit_report.json") == first

    def test_windows_free_the_feedline(self, scanned_dir, tmp_path, monkeypatch):
        # the windows are copies, so the parsed feedline is freed before
        # the first window fit: 0.04x its 24 bytes a row are still traced
        # then on the walk's 72,001 points, where views of it kept 1.03x
        from cpwloss import circlefit
        traced = []
        fit = circlefit.fit_resonance

        def first_fit(sweep):
            if not traced:
                traced.append(tracemalloc.get_traced_memory()[0])
            return fit(sweep)

        monkeypatch.setattr(circlefit, "fit_resonance", first_fit)
        n = dataio.parse_sweep_file(scanned_dir / "feedline.dat").frequency_hz.size
        tracemalloc.start()
        try:
            assert run("fit", scanned_dir / "feedline.dat",
                       "--windows", scanned_dir / "scan_report.json",
                       "--out", tmp_path) == 0
        finally:
            tracemalloc.stop()
        assert traced[0] < 0.25 * n * 3 * 8

    def test_single_file(self, tmp_path):
        assert run("synth", "notch", "--out", tmp_path) == 0
        assert run("fit", tmp_path / "notch.dat", "--out", tmp_path) == 0
        body = read_json(tmp_path / "fit_report.json")["body"]
        truth = read_json(tmp_path / "truth.json")
        assert body["n_fits"] == 1
        assert body["fits"][0]["fr"] == pytest.approx(truth["fr"], rel=1e-9)
        assert body["fits"][0]["Ql"] == pytest.approx(truth["ql"], rel=1e-6)

    @pytest.mark.parametrize("lo,hi", [
        (4.0e9, 4.1e9), (4.05e9, 4.1e9), (4.05e9 + 0.5e6, 4.1e9 - 0.5e6),
        (3e9, 4.04e9), (4.36e9, 5e9), (3e9, 5e9), (4.399e9, 4.399e9),
        (4.1e9, 4.05e9), (4.0e9, 4.031e9), (4.0e9, 4.0309e9), (5e9, 6e9),
    ])
    def test_slice_matches_mask(self, lo, hi):
        sweep = dipped_sweep({200: 6.0})
        f = sweep.frequency_hz
        mask = (f >= lo) & (f <= hi)
        if mask.sum() < 32:
            with pytest.raises(DataError) as err:
                cli.slice_sweep(sweep, lo, hi, "w0")
            assert str(err.value) == (f"window w0 [{lo:.6g}, {hi:.6g}] Hz holds only "
                                      f"{int(mask.sum())} points, need >= 32")
            return
        sub = cli.slice_sweep(sweep, lo, hi, "w0")
        np.testing.assert_array_equal(sub.frequency_hz, f[mask])
        np.testing.assert_array_equal(sub.s21, sweep.s21[mask])
        assert sub.source == "<sweep>[w0]"

    def test_failure_sets_exit_code(self, tmp_path, capsys):
        f = np.linspace(4e9, 4.001e9, 200)
        sweep = ComplexSweep(frequency_hz=f, s21=np.full(f.size, 0.8 + 0.0j))
        path = tmp_path / "flat.dat"
        dataio.write_sweep_file(path, sweep)
        assert run("fit", path, "--out", tmp_path) == 1
        body = read_json(tmp_path / "fit_report.json")["body"]
        assert body["n_failures"] == 1
        assert body["n_fits"] == 0
        assert capsys.readouterr().err.strip() != ""

    @pytest.mark.parametrize("kind,param", [
        ("notch", "noise=1e300"), ("notch", "a=1e160"),
        ("power_series", "noise=1e300"), ("power_series", "a=1e160"),
    ], ids=["noise=1e300", "a=1e160", "power-noise=1e300", "power-a=1e160"])
    def test_non_finite_start_is_a_fit_failure(self, tmp_path, capsys, kind, param):
        # |r|^2 overflows at the start: the fit fails by name, the SVD of a
        # non-finite Jacobian is never attempted, and no numpy warning about
        # the overflow reaches stderr (pytest turns one into an error)
        assert run("synth", kind, param, "--out", tmp_path) == 0
        capsys.readouterr()
        if kind == "notch":
            assert run("fit", tmp_path / "notch.dat", "--out", tmp_path) == 1
        else:
            assert run("power", *sorted(tmp_path.glob("power_*.dat")),
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        if kind == "notch":
            assert "notch.dat: the residuals or the Jacobian are not finite" in err
        else:
            assert all(f"power_{k:02d}.dat: the residuals or the Jacobian are not finite"
                       in err for k in range(12))


@pytest.fixture(scope="module")
def power_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("power")
    assert run("synth", "power_series", "noise=0.0005", "process=B/HP/HT/BOE",
               "--out", d, "--seed", 11) == 0
    return d


class TestPower:
    def test_power_series_fit(self, power_dir, tmp_path):
        out = tmp_path / "tls"
        files = sorted(power_dir.glob("power_*.dat"))
        assert len(files) == 12
        assert run("power", *files, "--out", out) == 0
        body = read_json(out / "tls_report.json")["body"]
        truth = read_json(power_dir / "truth.json")
        fit = body["tls_fit"]
        assert fit["delta_tls"] == pytest.approx(truth["delta_tls"], rel=0.05)
        assert fit["n_c"] == pytest.approx(truth["n_c"], rel=0.25)
        assert fit["beta"] == pytest.approx(truth["beta"], rel=0.05)
        assert fit["delta_hp"] == pytest.approx(truth["delta_hp"], rel=0.05)
        assert fit["delta_tls"] == fit["delta_lp"] - fit["delta_hp"]
        assert body["process"] == "B/HP/HT/BOE"
        assert body["attenuation_db"] == 60.0
        assert len(body["points"]) == 12
        assert (out / "tls_report_loss_vs_n.dat").exists()
        assert (out / "tls_report_model_curve.dat").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_attenuation_fails_at_its_line(self, power_dir, tmp_path, capsys, value):
        # without the check every fit ran and the photon numbers came out
        # nan (or 0.0 for inf)
        files = []
        for src in sorted(power_dir.glob("power_*.dat")):
            text = src.read_text()
            assert "\n#attenuation_db=60\n" in text
            files.append(tmp_path / src.name)
            files[-1].write_text(text.replace("\n#attenuation_db=60\n",
                                              f"\n#attenuation_db={value}\n"))
        assert run("power", *files, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"power_00.dat:2: header 'attenuation_db={value}' is not a finite number" in err

    def test_missing_attenuation_fails(self, tmp_path, capsys):
        sweeps, _ = synth.synthesize_power_series(seed=2)
        d = tmp_path / "noatten"
        d.mkdir()
        files = []
        for k, s in enumerate(sweeps):
            path = d / f"p{k:02d}.dat"
            dataio.write_sweep_file(path, replace(s, attenuation_db=None))
            files.append(path)
        assert run("power", *files, "--out", d) == 1
        assert "error" in capsys.readouterr().err
        # an explicit value on the command line rescues the series
        assert run("power", *files, "--attenuation-db", 60, "--out", d) == 0

    def test_power_overflow_is_one_error_line(self, tmp_path, capsys):
        sweep = synth.synthesize_power_series(seed=2)[0][0]
        path = tmp_path / "p00.dat"
        dataio.write_sweep_file(path, replace(sweep, power_dbm=5000.0))
        assert run("power", path, "--out", tmp_path) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cpwloss power: error: ")
        assert "applied power 5000 dBm after 60 dB of attenuation" in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_infinite_photon_number_is_a_diagnostic(self, tmp_path):
        # 3000 dBm is a finite 1e291 W at the chip but an infinite photon
        # number: like any bad point, that sweep is skipped with a
        # diagnostic and a nonzero exit, and the rest are fitted
        sweeps, _ = synth.synthesize_power_series(seed=2)
        paths = []
        for k, sweep in enumerate(sweeps):
            paths.append(tmp_path / f"p{k:02d}.dat")
            dataio.write_sweep_file(paths[-1], replace(sweep, power_dbm=3000.0)
                                    if k == 11 else sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("power", *paths, "--out", tmp_path) == 1
        body = read_json(tmp_path / "tls_report.json")["body"]
        assert len(body["points"]) == 11
        assert all(np.isfinite(p["n_photon"]) for p in body["points"])
        diagnostic, = body["diagnostics"]
        assert diagnostic.endswith("p11.dat: photon number must be finite, got inf")


class TestBudget:
    def write_losses(self, tmp_path, **overrides):
        values = {"delta_sa": 1e-3, "delta_ma": 1e-3,
                  "delta_ms": 1e-3, "delta_si": 1e-7}
        values.update(overrides)
        path = tmp_path / "losses.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        return path

    def test_forward_reference(self, tmp_path):
        losses = self.write_losses(tmp_path)
        assert run("budget", "--losses", losses, "--trench-nm", 0,
                   "--out", tmp_path) == 0
        body = read_json(tmp_path / "budget_report.json")["body"]
        assert body["mode"] == "forward"
        assert body["delta_tls"]["value"] == pytest.approx(1.0162e-6, rel=1e-4)

    def test_forward_needs_trench(self, tmp_path, capsys):
        losses = self.write_losses(tmp_path)
        assert run("budget", "--losses", losses, "--out", tmp_path) == 1
        assert "trench" in capsys.readouterr().err

    def test_bad_loss_keys(self, tmp_path, capsys):
        path = tmp_path / "losses.cfg"
        path.write_text("delta_sa=1e-3\ndelta_ma=1e-3\n")
        assert run("budget", "--losses", path, "--trench-nm", 0,
                   "--out", tmp_path) == 1
        assert "expected keys" in capsys.readouterr().err

    def test_needs_exactly_one_mode(self, tmp_path, capsys):
        assert run("budget", "--out", tmp_path) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_decompose_flags_degeneracy(self, tmp_path):
        # interpolated geometries cannot separate four loss tangents
        from cpwloss import lossbudget
        table = lossbudget.load_builtin_table()
        truth = lossbudget.InterfaceLosses(delta_sa=2e-3, delta_ma=8e-4,
                                           delta_ms=1.5e-3, delta_si=2e-7)
        lines = ["trench_nm delta"]
        for t in (0.0, 25.0, 50.0, 75.0, 100.0):
            row = lossbudget.interpolate(table, t)
            lines.append(f"{t} {lossbudget.forward_loss(row, truth):.12e}")
        path = tmp_path / "measured.dat"
        path.write_text("\n".join(lines) + "\n")
        assert run("budget", "--decompose", path, "--out", tmp_path) == 0
        body = read_json(tmp_path / "budget_report.json")["body"]
        assert body["mode"] == "decompose"
        assert body["result"]["rank"] == 3
        assert len(body["result"]["unresolved"]) > 0
        assert len(body["result"]["resolved_combinations"]) == 3

    def test_table_error_prints_plain_number(self, tmp_path, capsys):
        table = tmp_path / "ptable.dat"
        table.write_text("trench_nm p_sa p_ma p_ms p_si\n"
                         "0 2 4.95e-5 5.93e-4 0.907\n"
                         "100 2.51e-4 1.77e-5 5.04e-4 0.903\n")
        measured = tmp_path / "measured.dat"
        measured.write_text("trench_nm delta\n0 1e-6\n25 1e-6\n50 1e-6\n100 1e-6\n")
        assert run("budget", "--decompose", measured, "--table", table,
                   "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "participation p_sa=2.0 must lie in [0, 1]" in err
        assert "np.float64" not in err


class TestFilmCommands:
    def test_xrd_single_phase(self, tmp_path):
        assert run("synth", "xrd", "noise=2", "--out", tmp_path, "--seed", 9) == 0
        assert run("xrd", tmp_path / "xrd.dat", "--out", tmp_path) == 0
        body = read_json(tmp_path / "xrd_report.json")["body"]
        assert body["orientation"]["orientation"] == "TiN111"
        assert body["peaks"][0]["center"] == pytest.approx(36.9, abs=0.02)
        assert len(body["diagnostics"]) == 1  # empty (200) window reported

    def test_xrd_mixed_with_grain_ratio(self, tmp_path):
        assert run("synth", "xrd", "peaks=36.9:0.4:500:0.3,42.8:1.6:300:0.5",
                   "--out", tmp_path) == 0
        assert run("xrd", tmp_path / "xrd.dat", "--out", tmp_path) == 0
        body = read_json(tmp_path / "xrd_report.json")["body"]
        assert body["orientation"]["orientation"] == "Mixed"
        assert body["grain_ratio_111_over_200"] == pytest.approx(3.926, abs=2e-3)

    def test_rrr_command(self, tmp_path):
        assert run("synth", "rt", "--out", tmp_path) == 0
        assert run("rrr", tmp_path / "rt.dat", "--out", tmp_path) == 0
        body = read_json(tmp_path / "rrr_report.json")["body"]
        assert body["tc_rrr"]["tc"] == pytest.approx(4.7, abs=0.01)
        assert body["tc_rrr"]["rrr"] == pytest.approx(4.0, rel=0.01)

    def test_sheet_command(self, tmp_path):
        sites = ("c", "n", "ne", "e", "se", "s", "sw", "w", "nw")
        maps = [dataio.SheetMap(wafer_id=f"W{k}", sites=sites,
                                r_square_ohm_sq=np.full(9, 11.75))
                for k in range(2)]
        path = tmp_path / "sheet.dat"
        dataio.write_sheet_file(path, maps)
        assert run("sheet", path, "--thickness-nm", 60, "--out", tmp_path) == 0
        body = read_json(tmp_path / "sheet_report.json")["body"]
        assert body["sheet_stats"]["batch_mean_ohm_sq"] == pytest.approx(11.75)
        assert body["resistivity_uohm_cm"]["value"] == pytest.approx(70.5, rel=1e-9)


class TestReport:
    def build_tree(self, root, runs):
        for name, process in runs:
            d = root / name
            assert run("synth", "power_series", "noise=0.0005",
                       f"process={process}" if process else "process=",
                       "--out", d, "--seed", 13) == 0
            files = sorted(d.glob("power_*.dat"))
            assert run("power", *files, "--out", d) == 0

    def test_grouping(self, tmp_path, capsys):
        self.build_tree(tmp_path, [("r1", "B/HP/HT/BOE"), ("r2", "B/HP/HT/BOE"),
                                   ("r3", "A/LP/HT/none"), ("r4", "")])
        assert run("report", tmp_path, "--out", tmp_path) == 0
        body = read_json(tmp_path / "group_report.json")["body"]
        assert body["metric"] == "delta_lp"
        assert body["n_reports"] == 3
        assert len(body["skipped"]) == 1
        keys = set(body["groups"]["by_key"])
        assert keys == {"B/HP/HT/BOE", "A/LP/HT/none"}
        group = body["groups"]["by_key"]["B/HP/HT/BOE"]
        assert group["n"] == 2

    def test_malformed_reports_skipped(self, tmp_path):
        def tls_report(name, tls_fit):
            body = {"process": "B/HP/HT/BOE", "tls_fit": tls_fit}
            (tmp_path / name).write_text(json.dumps(
                {"report_kind": "tls_fit", "body": body}))

        tls_report("good.json", {"delta_lp": 4e-6})
        tls_report("no_fit.json", None)
        tls_report("text.json", {"delta_lp": "big"})
        # a JSON integer past a float's range: np.isfinite raises on it
        tls_report("huge.json", {"delta_lp": 10 ** 400})
        (tmp_path / "list.json").write_text("[1, 2]")
        out = tmp_path / "out"
        assert run("report", tmp_path, "--out", out) == 0
        body = read_json(out / "group_report.json")["body"]
        assert body["n_reports"] == 1
        assert body["groups"]["by_key"]["B/HP/HT/BOE"]["median"] == 4e-6
        assert [(os.path.basename(s["path"]), s["reason"]) for s in body["skipped"]] \
            == [("huge.json", "no finite delta_lp"), ("no_fit.json", "no finite delta_lp"),
                ("text.json", "no finite delta_lp")]

    def test_bad_process_key_skipped(self, tmp_path):
        for name, process in (("good.json", "B/HP/HT/BOE"), ("bad.json", "Z/HP/HT/none")):
            body = {"process": process, "tls_fit": {"delta_lp": 4e-6}}
            (tmp_path / name).write_text(json.dumps(
                {"report_kind": "tls_fit", "body": body}))
        out = tmp_path / "out"
        assert run("report", tmp_path, "--out", out) == 0
        body = read_json(out / "group_report.json")["body"]
        assert body["n_reports"] == 1
        assert set(body["groups"]["by_key"]) == {"B/HP/HT/BOE"}
        [skip] = body["skipped"]
        assert skip["path"] == str(tmp_path / "bad.json")
        assert skip["reason"].startswith("unknown deposition 'Z'")

    def test_empty_tree_fails(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        assert run("report", tmp_path, "--out", tmp_path) == 1
        assert "no TLS fit reports" in capsys.readouterr().err


class TestConfigMerge:
    def test_config_seed_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", "notch", "noise=0.0005", "--config", cfg,
                   "--out", d1) == 0
        assert run("synth", "notch", "noise=0.0005", "--seed", 7,
                   "--out", d2) == 0
        assert file_bytes(d1 / "notch.dat") == file_bytes(d2 / "notch.dat")

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", "notch", "noise=0.0005", "--config", cfg,
                   "--seed", 9, "--out", d1) == 0
        assert run("synth", "notch", "noise=0.0005", "--seed", 9,
                   "--out", d2) == 0
        assert file_bytes(d1 / "notch.dat") == file_bytes(d2 / "notch.dat")

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested"
        assert run("synth", "notch", "--out", nested) == 0
        assert (nested / "notch.dat").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        assert run("synth", "notch", "--out", tmp_path) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("atenuation_db=60\n")
        capsys.readouterr()
        assert run("fit", tmp_path / "notch.dat", "--config", cfg,
                   "--out", tmp_path) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cpwloss fit: error: ")
        assert "atenuation_db" in lines[0] and "attenuation_db" in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "fit_report.json").exists()


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run("fit", tmp_path / "nope.dat", "--out", tmp_path) == 1

    def test_error_goes_to_stderr(self, tmp_path, capsys):
        assert run("budget", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("cpwloss budget: error:")

    def test_missing_windows_report_named(self, tmp_path, capsys):
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        missing = tmp_path / "missing" / "scan_reprot.json"
        assert run("fit", tmp_path / "notch.dat", "--windows", missing,
                   "--out", tmp_path) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cpwloss fit: error: ")
        assert "No such file" in lines[0] and str(missing) in lines[0]


def notch_rows(n=40):
    """Data rows of a 40-point notch sweep on a 10 kHz grid."""
    f = 5e9 + 1e4 * np.arange(n)
    z = 1 - 0.5 / (1 + 2j * (f - f[n // 2]) / 4e4)
    return [f"{a:.12g} {b.real:.12g} {b.imag:.12g}" for a, b in zip(f, z)]


def sweep_bytes(rows):
    return ("#power_dbm=-80\nfrequency_hz s21_real s21_imag\n"
            + "\n".join(rows) + "\n").encode()


def insert_byte(data, lineno, byte):
    """data with byte put after the first space of line lineno."""
    lines = data.split(b"\n")
    lines[lineno - 1] = lines[lineno - 1].replace(b" ", b" " + byte, 1)
    return b"\n".join(lines)


class TestInvalidUtf8:
    """A byte that is not UTF-8 ends in one error line that names its line."""

    @pytest.mark.parametrize("content,argv,line,byte", [
        (b"#format=complex\nfrequency_hz s21_real s21_imag\n1 2 \xff\n",
         ("scan",), 3, "ff"),
        (insert_byte(sweep_bytes(notch_rows()), 33, b"\xff"), ("scan",), 33, "ff"),
        (b"#operator=J\xfcrgen\n" + sweep_bytes(notch_rows()), ("scan",), 1, "fc"),
        (b"wafer_id site r_square_ohm_sq\nW\x80 c 11.7\n", ("sheet",), 2, "80"),
        (b"seed=1\nout=\xe9\n", ("synth", "notch", "--config"), 2, "e9"),
        (b'{\n  "body": "\xc3("\n}\n', ("fit", "notch.dat", "--windows"), 2, "c3"),
    ], ids=["header_end", "data_row", "header_value", "sheet", "config", "report"])
    def test_named(self, tmp_path, monkeypatch, capsys, content, argv, line, byte):
        monkeypatch.chdir(tmp_path)
        assert run("synth", "notch") == 0
        (tmp_path / "bad.dat").write_bytes(content)
        capsys.readouterr()
        assert run(*argv, "bad.dat", "--out", "o") == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"cpwloss {argv[0]}: error: bad.dat:{line}: invalid UTF-8 byte 0x{byte}"]
        assert captured.out == ""


# Valid input files of each parsed kind: (command, header lines, data rows).
VALID_FILES = {
    "sweep": (("scan",), ["#power_dbm=-80", "frequency_hz s21_real s21_imag"],
              notch_rows()),
    "rt": (("rrr",), ["temperature_k resistance_ohm"],
           [f"{t:.12g} {0.0 if t < 5 else 20.0 + 0.3 * t:.12g}"
            for t in np.geomspace(2, 300, 50)]),
    "xrd": (("xrd",), ["two_theta_deg counts"],
            [f"{tt:.12g} {100 + 900 * np.exp(-(tt - 36.8) ** 2 / 0.1):.12g}"
             for tt in np.linspace(30, 80, 501)]),
    "sheet": (("sheet", "--thickness-nm", "60"),
              ["#batch_id=W03", "wafer_id site r_square_ohm_sq"],
              [f"{w} {s} {11.0 + 0.1 * s:.12g}" for w in ("w1", "w2") for s in range(1, 10)]),
}
PARSERS = {"sweep": dataio.parse_sweep_file, "rt": dataio.parse_rt_file,
           "xrd": dataio.parse_xrd_file, "sheet": dataio.parse_sheet_file}


@st.composite
def mutated_files(draw):
    """(kind, bytes): a valid file of one kind with one random defect."""
    kind = draw(st.sampled_from(sorted(VALID_FILES)))
    _, header, rows = VALID_FILES[kind]
    rows = [row.split() for row in rows]
    k = draw(st.integers(0, len(rows) - 1))
    mutation = draw(st.sampled_from(["truncate", "drop_cell", "add_cell", "bad_cell",
                                     "swap_rows", "bad_utf8"]))
    if mutation == "drop_cell":
        del rows[k][draw(st.integers(0, len(rows[k]) - 1))]
    elif mutation == "add_cell":
        rows[k].insert(draw(st.integers(0, len(rows[k]))), "1.5")
    elif mutation == "bad_cell":
        rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(
            st.sampled_from(["nan", "-inf", "inf", "banana", "1e", "0x1p3", "--1"]))
    elif mutation == "swap_rows":
        j = draw(st.integers(0, len(rows) - 2))
        j += j >= k
        rows[k], rows[j] = rows[j], rows[k]
    data = ("\n".join(header + [" ".join(row) for row in rows]) + "\n").encode()
    if mutation == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif mutation == "bad_utf8":
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return kind, data


@settings(max_examples=200, deadline=None)
@given(mutated_files())
def test_mutated_file_error_contract(tmp_path_factory, case):
    # a parse returns a value or raises CpwLossError; the command that
    # reads the file then ends in rc 0, or in rc 1 and one error line,
    # which is the parse error when there is one
    kind, data = case
    argv, _, _ = VALID_FILES[kind]
    path = tmp_path_factory.getbasetemp() / f"mutated_{kind}.dat"
    path.write_bytes(data)
    try:
        PARSERS[kind](path)
        parse_error = None
    except CpwLossError as exc:
        parse_error = exc
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([argv[0], str(path), *argv[1:],
                       "--out", str(tmp_path_factory.getbasetemp() / "mutated_out")])
    lines = err.getvalue().splitlines()
    if parse_error is not None:
        assert (rc, lines) == (1, [f"cpwloss {argv[0]}: error: {parse_error}"])
    elif rc != 0:
        assert rc == 1 and len(lines) == 1
        assert lines[0].startswith(f"cpwloss {argv[0]}: error: ")


def write_maps(path):
    """One wafer's nine-site sheet map, 11.75 ohm/sq at every site."""
    sites = ("c", "n", "ne", "e", "se", "s", "sw", "w", "nw")
    dataio.write_sheet_file(path, [dataio.SheetMap(
        wafer_id="W0", sites=sites, r_square_ohm_sq=np.full(9, 11.75))])


class TestBadNumbers:
    """A bad number in an argument ends in one error line, not a traceback."""

    def assert_one_error(self, capsys, command, text="cannot parse"):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"cpwloss {command}: error: ")
        assert text in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_synth_param(self, tmp_path, capsys):
        assert run("synth", "notch", "fr=abc", "--out", tmp_path) == 1
        self.assert_one_error(capsys, "synth")

    def test_fit_windows(self, tmp_path, capsys):
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("fit", tmp_path / "notch.dat", "--windows", "a:b",
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "fit")

    def test_budget_losses(self, tmp_path, capsys):
        path = tmp_path / "losses.cfg"
        path.write_text("delta_sa=abc\ndelta_ma=1e-3\ndelta_ms=1e-3\ndelta_si=1e-7\n")
        assert run("budget", "--losses", path, "--trench-nm", 0,
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "budget")

    def test_xrd_windows(self, tmp_path, capsys):
        assert run("synth", "xrd", "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("xrd", tmp_path / "xrd.dat", "--windows", "1:x",
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "xrd")

    @pytest.mark.parametrize("value,text", [
        ("nan", " must be finite, got 'nan'"),
        ("abc", ": cannot parse 'abc' as a number"),
    ], ids=["nan", "abc"])
    @pytest.mark.parametrize("argv", [
        ("scan", "notch.dat", "--prominence-db"),
        ("power", "notch.dat", "--attenuation-db"),
        ("budget", "--losses", "losses.cfg", "--trench-nm"),
        ("sheet", "maps.dat", "--thickness-nm"),
    ], ids=["scan", "power", "budget", "sheet"])
    def test_float_flag(self, tmp_path, monkeypatch, capsys, argv, value, text):
        monkeypatch.chdir(tmp_path)
        assert run("synth", "notch") == 0
        (tmp_path / "losses.cfg").write_text(
            "delta_sa=1e-3\ndelta_ma=1e-3\ndelta_ms=1e-3\ndelta_si=1e-7\n")
        write_maps("maps.dat")
        capsys.readouterr()
        assert run(*argv, value) == 1
        self.assert_one_error(capsys, argv[0], argv[-1] + text)

    def test_config_float_non_finite(self, tmp_path, capsys):
        write_maps(tmp_path / "maps.dat")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("thickness_nm=nan\n")
        assert run("sheet", tmp_path / "maps.dat", "--config", cfg,
                   "--out", tmp_path) == 1
        self.assert_one_error(
            capsys, "sheet", "config key thickness_nm must be finite, got 'nan'")
        assert not (tmp_path / "sheet_report.json").exists()

    @pytest.mark.parametrize("kind,param", [
        ("notch", "noise=inf"), ("notch", "fr=nan"), ("feedline", "noise=nan"),
        ("rt", "noise=inf"), ("xrd", "noise=-inf"), ("power_series", "noise=nan"),
    ])
    def test_synth_non_finite(self, tmp_path, capsys, kind, param):
        key, value = param.split("=")
        assert run("synth", kind, param, "--out", tmp_path) == 1
        self.assert_one_error(
            capsys, "synth", f"synth parameter '{key}' must be finite, got '{value}'")
        assert not (tmp_path / "truth.json").exists()

    @pytest.mark.parametrize("spans,bad", [("nan:nan", "nan"), ("0:inf", "inf")])
    def test_fit_windows_non_finite(self, tmp_path, capsys, spans, bad):
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("fit", tmp_path / "notch.dat", "--windows", spans,
                   "--out", tmp_path) == 1
        self.assert_one_error(
            capsys, "fit", f"window '{spans}' must be finite, got '{bad}'")

    @pytest.mark.parametrize("key,raw,text", [
        ("f_lo_hz", '"abc"', """: cannot parse '"abc"' as a number"""),
        ("f_lo_hz", "null", ": cannot parse 'null' as a number"),
        ("f_hi_hz", "[1]", ": cannot parse '[1]' as a number"),
        ("f_lo_hz", "true", ": cannot parse 'true' as a number"),
        ("f_hi_hz", "1e400", " must be finite, got 'Infinity'"),
    ], ids=["string", "null", "list", "bool", "overflow"])
    def test_fit_windows_report_bound(self, tmp_path, capsys, key, raw, text):
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        # raw JSON text: json.dumps cannot write 1e400
        second = {"f_lo_hz": "4.9e9", "f_hi_hz": "5.1e9", key: raw}
        report = tmp_path / "windows.json"
        report.write_text('{"body": {"windows": [{"f_lo_hz": 4.9e9, "f_hi_hz": 5.1e9}, '
                          '{"f_lo_hz": %(f_lo_hz)s, "f_hi_hz": %(f_hi_hz)s}]}}' % second)
        assert run("fit", tmp_path / "notch.dat", "--windows", report,
                   "--out", tmp_path) == 1
        self.assert_one_error(
            capsys, "fit", f"{report}: window w1 {key}{text}")
        assert not (tmp_path / "fit_report.json").exists()

    def test_fit_windows_report_without_windows(self, tmp_path, capsys):
        # scan fails "no dips found" rather than write such a report
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        report = tmp_path / "windows.json"
        report.write_text('{"body": {"windows": []}}')
        assert run("fit", tmp_path / "notch.dat", "--windows", report,
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "fit", f"{report}: scan report holds no windows")
        assert not (tmp_path / "fit_report.json").exists()

    @pytest.mark.parametrize("seed,text", [
        ("abc", "--seed: cannot parse 'abc' as int"),
        ("-1", "--seed must be >= 0, got -1"),
    ], ids=["abc", "negative"])
    def test_seed(self, tmp_path, capsys, seed, text):
        assert run("synth", "notch", "noise=0.001", "--seed", seed,
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "synth", text)
        assert not (tmp_path / "truth.json").exists()

    def test_config_seed_negative(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-3\n")
        assert run("synth", "notch", "noise=0.001", "--config", cfg,
                   "--out", tmp_path) == 1
        self.assert_one_error(capsys, "synth", "config key seed must be >= 0, got -3")

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_prominence_not_positive(self, tmp_path, capsys, source, value):
        assert run("synth", "notch", "--out", tmp_path) == 0
        capsys.readouterr()
        if source == "flag":
            option = ("--prominence-db", value)
        else:
            (tmp_path / "run.cfg").write_text(f"prominence_db={value}\n")
            option = ("--config", tmp_path / "run.cfg")
        assert run("scan", tmp_path / "notch.dat", *option, "--out", tmp_path) == 1
        self.assert_one_error(capsys, "scan", f"prominence_db must be > 0 dB, got {value}")
        assert not (tmp_path / "scan_report.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("argv,key", [
        (("fit", "notch.dat"), "windows"),
        (("xrd", "xrd.dat"), "windows"),
        (("budget", "--losses", "losses.cfg", "--trench-nm", "50"), "table"),
    ], ids=["fit_windows", "xrd_windows", "budget_table"])
    def test_empty_value(self, tmp_path, monkeypatch, capsys, argv, key, source):
        # an empty value is an error, not the option left out
        monkeypatch.chdir(tmp_path)
        assert run("synth", "notch") == 0
        assert run("synth", "xrd") == 0
        (tmp_path / "losses.cfg").write_text("\n".join(LOSS_LINES) + "\n")
        if source == "flag":
            option, what = ("--" + key, ""), "--" + key
        else:
            (tmp_path / "run.cfg").write_text(f"{key}=\n")
            option, what = ("--config", "run.cfg"), f"config key {key}"
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run(*argv, *option) == 1
        self.assert_one_error(capsys, argv[0], f"{what}: empty value")
        assert sorted(os.listdir(tmp_path)) == before

    def test_empty_config_path(self, tmp_path, capsys):
        # --config "" names no file: the read fails, it is not skipped
        assert run("synth", "notch", "--config", "", "--out", tmp_path) == 1
        self.assert_one_error(capsys, "synth", "No such file or directory: ''")
        assert not (tmp_path / "truth.json").exists()

    def test_synth_xrd_peak_non_finite(self, tmp_path, capsys):
        assert run("synth", "xrd", "peaks=36.9:inf:500:0.3", "--out", tmp_path) == 1
        self.assert_one_error(
            capsys, "synth", "peak '36.9:inf:500:0.3' must be finite, got 'inf'")

    @pytest.mark.parametrize("kind,param,text", [
        ("notch", "npoints=-5", "synth parameter 'npoints' must be an integer >= 1, got '-5'"),
        ("xrd", "step=0", "step must be > 0 degrees, got 0"),
        ("power_series", "n_powers=-1",
         "synth parameter 'n_powers' must be an integer >= 1, got '-1'"),
        ("rt", "noise=-1", "noise_sigma must be >= 0"),
        ("notch", "ql=0", "Ql must be positive, got 0.0"),
        ("power_series", "qc=0", "fr and qc_mag must be positive"),
        ("feedline", "f_start=0", "resonator 0: fr must be positive, got 0.0"),
        ("feedline", "a=0", "a must be positive, got 0.0"),
        ("notch", "qc=7e4", "resonator R0: internal loss 1/Qi = 1/Ql - "
         "cos(phi)/Qc_mag must be positive, got -1.77e-06"),
        ("feedline", "n_res=18", "resonator R17: internal loss 1/Qi = 1/Ql - "
         "cos(phi)/Qc_mag must be positive, got -1.85e-07"),
        ("power_series", "power_step_db=1e4",
         "applied power 9905 dBm after 60 dB of attenuation is more watts "
         "than a float holds"),
        ("power_series", "power_start_dbm=3000",
         "chip power 1e+291 W puts more photons in the resonator than a float holds"),
        # counts that no array can hold: numpy refuses each at once
        ("notch", "npoints=1e300",
         "synth parameter 'npoints': too many points for one array"),
        ("feedline", "npoints=1e300",
         "synth parameter 'npoints': too many points for one array"),
        ("xrd", "step=1e-300",
         "synth parameters 'lo', 'hi' and 'step': too many points for one array"),
        ("power_series", "n_powers=1e300",
         "synth parameter 'n_powers': too many points for one array"),
        ("power_series", "npoints=1e300",
         "synth parameter 'npoints': too many points for one array"),
    ], ids=["notch_npoints", "xrd_step", "power_series_n_powers", "rt_noise",
            "notch_ql", "power_series_qc", "feedline_f_start", "feedline_a",
            "notch_internal_q", "feedline_internal_q",
            "power_series_step_overflow", "power_series_photons_overflow",
            "notch_npoints_huge", "feedline_npoints_huge", "xrd_step_tiny",
            "power_series_n_powers_huge", "power_series_npoints_huge"])
    def test_synth_out_of_range(self, tmp_path, capsys, kind, param, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("synth", kind, param, "--out", tmp_path) == 1
        assert not caught, [str(w.message) for w in caught]
        self.assert_one_error(capsys, "synth", text)
        assert not (tmp_path / "truth.json").exists()


# Spellings that no number option, loss value or synth parameter reads.
BAD_SPELLINGS = ["", "abc", "nan", "-inf", "1e", "--1", "0x1p3", "1.2.3", "1,5", "5 GHz"]
# Pairs without an '='.
NO_EQUALS = ["abc", "noise", "seed 7", "1.5"]


@st.composite
def bad_pairs(draw, rejects, unknown_keys):
    """One key=value item that is refused: an unknown key, no '=', or a
    known key whose value is a bad spelling or a small integer that
    rejects[key] (an inclusive range, or None) holds."""
    form = draw(st.sampled_from(["value", "unknown", "no_equals"]))
    if form == "unknown":
        return f"{draw(st.sampled_from(unknown_keys))}=1"
    if form == "no_equals":
        return draw(st.sampled_from(NO_EQUALS))
    key = draw(st.sampled_from(sorted(rejects)))
    values = st.sampled_from(BAD_SPELLINGS)
    if rejects[key] is not None:
        values |= st.integers(*rejects[key]).map(str)
    spelled = draw(st.sampled_from([key, key.replace("_", "-"), f" {key} "]))
    return f"{spelled}={draw(values)}"


def assert_one_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    assert (rc, len(lines)) == (1, 1), lines
    assert lines[0].startswith(f"cpwloss {argv[0]}: error: ")


@pytest.fixture(scope="module")
def notch_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("notch")
    assert run("synth", "notch", "--out", d) == 0
    return d


@settings(max_examples=100, deadline=None)
@given(bad=bad_pairs({"seed": (-100, -1), "prominence_db": (-100, 0),
                      "attenuation_db": None, "trench_nm": None, "thickness_nm": None},
                     ["out_dir", "atenuation_db", "Seed", "jobs", "kind"]),
       filler=st.lists(st.sampled_from(["", "# comment", "windows=1:2", "table=t.dat"]),
                       max_size=3),
       at=st.integers(0, 3))
def test_config_pair_error_contract(notch_dir, bad, filler, at):
    cfg = notch_dir / "fuzz.cfg"
    cfg.write_text("\n".join(filler[:at] + [bad] + filler[at:]) + "\n")
    assert_one_error_line(["scan", notch_dir / "notch.dat", "--config", cfg,
                           "--out", notch_dir / "fuzz_out"])


LOSS_LINES = ["delta_sa=1e-3", "delta_ma=1e-3", "delta_ms=1e-3", "delta_si=1e-7"]


@settings(max_examples=100, deadline=None)
@given(bad=bad_pairs({"delta_sa": (-100, -1), "delta_ma": (-100, -1),
                      "delta_ms": (-100, -1), "delta_si": (-100, -1)},
                     ["delta_xx", "Delta_sa", "delta", "trench_nm"]),
       drop=st.booleans(), at=st.integers(0, 4))
def test_losses_pair_error_contract(notch_dir, bad, drop, at):
    # the bad line takes the place of its key's valid line, so no later
    # line overrides it; drop deletes the first valid line as well
    key = bad.partition("=")[0].strip().replace("-", "_")
    lines = [line for line in LOSS_LINES[drop:] if not line.startswith(key + "=")]
    lines.insert(at, bad)
    path = notch_dir / "fuzz_losses.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert_one_error_line(["budget", "--losses", path, "--trench-nm", 50,
                           "--out", notch_dir / "fuzz_out"])


# Numeric synth parameters, each with the small integers that it rejects.
SYNTH_REJECTS = {
    "notch": {"fr": (-100, 0), "ql": (-100, 0), "qc": (-100, 0), "a": (-100, 0),
              "noise": (-100, -1), "npoints": (-100, 31), "phi": None, "tau": None},
    "rt": {"tc": (-100, 2), "width": (-100, 0), "r_normal": (-100, 0),
           "rrr": (-100, 0), "t_min": (-100, 0), "noise": (-100, -1)},
    "xrd": {"step": (-100, 0), "noise": (-100, -1), "lo": (-100, 9), "b0": None},
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(SYNTH_REJECTS)))
def test_synth_pair_error_contract(tmp_path_factory, data, kind):
    bad = data.draw(bad_pairs(SYNTH_REJECTS[kind], ["bogus", "FR", "noise_sigma", "seed"]))
    assert_one_error_line(["synth", kind, bad,
                           "--out", tmp_path_factory.getbasetemp() / "fuzz_synth"])


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_commands(heading):
    """The cpwloss commands of the first fenced block after heading in
    README.md, each split into its arguments, '#' comments dropped."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split(heading, 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("cpwloss ")]


def rerun_byte_identical(commands, root):
    """Run commands in root, each as a shell runs it (a pattern with no
    match stays as it is), and every run exits 0; remove what they wrote
    and run them again, which writes the same files byte for byte.
    Returns the first pass's {path under root: bytes}."""
    def files():
        return {os.path.relpath(os.path.join(d, name), root): file_bytes(os.path.join(d, name))
                for d, _, names in os.walk(root) for name in names}

    def outputs():
        for argv in commands:
            argv = [m for a in argv
                    for m in ((sorted(glob.glob(a)) or [a]) if "*" in a else [a])]
            assert cli.main(argv) == 0, argv
        return {name: data for name, data in files().items() if name not in inputs}

    inputs = set(files())
    first = outputs()
    for name in first:
        os.remove(os.path.join(root, name))
    second = outputs()
    assert sorted(second) == sorted(first)
    assert [name for name in first if second[name] != first[name]] == []
    return first


def test_readme_walk_runs(tmp_path, monkeypatch):
    # the walk twice: every file under demo/ is written again byte for byte
    monkeypatch.chdir(tmp_path)
    walk = readme_commands("A full walk")
    assert [argv[0] for argv in walk] == ["synth", "scan", "fit", "synth", "power",
                                          "report"]
    first = rerun_byte_identical(walk, tmp_path)
    assert {os.path.join("demo", name) for name in (
        "scan_report.json", "scan_report_baseline.dat", "fit_report.json",
        "group_report.json", os.path.join("r0", "tls_report.json"))} <= set(first)


def test_readme_other_commands_rerun_byte_identical(tmp_path, monkeypatch):
    # README's other commands on the input files they name; a second run
    # writes every output again byte for byte
    monkeypatch.chdir(tmp_path)
    commands = readme_commands("Other commands")
    assert [argv[0] for argv in commands] == ["budget", "budget", "xrd", "rrr", "sheet"]
    assert run("synth", "xrd") == 0
    os.replace("xrd.dat", "scan.dat")
    assert run("synth", "rt") == 0
    os.remove("truth.json")
    (tmp_path / "losses.cfg").write_text("\n".join(LOSS_LINES) + "\n")
    (tmp_path / "measured.dat").write_text(
        "trench_nm delta\n0 2.1e-06\n25 1.9e-06\n50 1.7e-06\n75 1.6e-06\n100 1.5e-06\n")
    write_maps("maps.dat")
    first = rerun_byte_identical(commands, tmp_path)
    assert {name for name in first if name.endswith("_report.json")} == {
        "budget_report.json", "xrd_report.json", "rrr_report.json", "sheet_report.json"}


def test_bench_history_holds_every_cited_record():
    # one member per line, so each cited BENCH_<sha>.json greps to its own line
    with open(os.path.join(ROOT, "BENCH_history.json"), encoding="utf-8") as fh:
        text = fh.read()
    history = json.loads(text)
    lines = text.splitlines()
    assert (lines[0], lines[-1]) == ("{", "}")
    keys = []
    for line in lines[1:-1]:
        member = json.loads("{" + line.removesuffix(",") + "}")
        assert len(member) == 1, line[:80]
        keys += member
    assert keys == list(history)
    cited = set()
    for name in ("CHANGES.md", "ROADMAP.md", "README.md"):
        with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
            cited.update(re.findall(r"BENCH_[0-9a-f]{7}\.json", fh.read()))
    assert cited and cited <= set(history), sorted(cited - set(history))


def fresh_python(code, *args, cwd=None):
    """stdout of `python -c code args` in a new interpreter that imports
    this checkout's cpwloss."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return done.stdout


def test_cli_import_loads_no_scipy():
    """`import cpwloss.cli` loads no scipy module and, of cpwloss, only what
    every command uses; each command imports the modules it runs."""
    code = ("import cpwloss.cli, sys; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'cpwloss')))")
    assert fresh_python(code).split() == ["cpwloss", "cpwloss.cli", "cpwloss.dataio",
                                          "cpwloss.errors"]


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory, feedline_dir):
    """A directory with an input for every command."""
    from cpwloss import lossbudget
    d = tmp_path_factory.mktemp("commands")
    (d / "feedline.dat").write_bytes(file_bytes(feedline_dir / "feedline.dat"))
    assert run("scan", d / "feedline.dat", "--out", d) == 0
    assert run("synth", "power_series", "--out", d) == 0
    assert run("synth", "xrd", "--out", d) == 0
    assert run("synth", "rt", "--out", d) == 0
    (d / "losses.cfg").write_text("\n".join(LOSS_LINES) + "\n")
    # five trench depths span only three directions of the four tangents
    table = lossbudget.load_builtin_table()
    truth = lossbudget.InterfaceLosses(delta_sa=2e-3, delta_ma=8e-4,
                                       delta_ms=1.5e-3, delta_si=2e-7)
    (d / "measured.dat").write_text("trench_nm delta\n" + "".join(
        f"{t} {lossbudget.forward_loss(lossbudget.interpolate(table, t), truth)!r}\n"
        for t in (0.0, 25.0, 50.0, 75.0, 100.0)))
    # four independent geometries resolve every tangent, through nnls
    rows = [(0.0, 3.0e-4, 5.0e-5, 6.0e-4, 0.900), (50.0, 2.5e-4, 2.0e-5, 5.0e-4, 0.905),
            (100.0, 2.0e-4, 8.0e-5, 4.0e-4, 0.910), (150.0, 4.0e-4, 1.0e-5, 7.0e-4, 0.895)]
    (d / "table4.dat").write_text("trench_nm p_sa p_ma p_ms p_si\n" + "".join(
        " ".join(map(repr, row)) + "\n" for row in rows))
    (d / "measured4.dat").write_text("trench_nm delta\n" + "".join(
        f"{row[0]!r} {lossbudget.forward_loss(lossbudget.ParticipationRow(*row), truth)!r}\n"
        for row in rows))
    write_maps(d / "maps.dat")
    for k, (process, delta_lp) in enumerate([("B/HP/HT/BOE", 4e-6), ("B/HP/HT/BOE", 5e-6),
                                             ("A/LP/RT/BOE", 9e-6)]):
        (d / "tls" / f"r{k}").mkdir(parents=True)
        (d / "tls" / f"r{k}" / "tls_report.json").write_text(json.dumps(
            {"report_kind": "tls_fit",
             "body": {"process": process, "tls_fit": {"delta_lp": delta_lp}}}))
    return d


@pytest.mark.parametrize("argv", [
    ("synth", "notch"), ("synth", "feedline", "npoints=2001"),
    ("synth", "power_series"), ("synth", "rt"), ("synth", "xrd"),
    ("scan", "feedline.dat"), ("report", "tls"),
    ("budget", "--losses", "losses.cfg", "--trench-nm", 50),
    ("budget", "--decompose", "measured.dat"),
    ("rrr", "rt.dat"), ("sheet", "maps.dat", "--thickness-nm", 60),
    ("fit", "feedline.dat", "--windows", "scan_report.json"),
    ("power", *(f"power_{k:02d}.dat" for k in range(12))), ("xrd", "xrd.dat"),
    ("budget", "--decompose", "measured4.dat", "--table", "table4.dat"),
], ids=["synth_notch", "synth_feedline", "synth_power_series", "synth_rt",
        "synth_xrd", "scan", "report", "budget", "budget_decompose_rank3",
        "rrr", "sheet", "fit_windows", "power", "xrd", "budget_decompose_rank4"])
def test_command_loads_no_scipy(command_inputs, tmp_path, argv):
    """No command imports scipy: the fits run on fitcov.solve and the
    loss decomposition on lossbudget.nnls."""
    code = ("import sys; from cpwloss import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = fresh_python(code, *argv, "--out", tmp_path, cwd=command_inputs)
    assert out.splitlines()[-1].split() == ["0"]


@pytest.mark.parametrize("argv", [
    ("fit", "feedline.dat", "--windows", "scan_report.json"),
    ("power", *(f"power_{k:02d}.dat" for k in range(12))), ("xrd", "xrd.dat"),
    ("rrr", "rt.dat"), ("report", "tls"), ("synth", "rt"),
], ids=["fit_windows", "power", "xrd", "rrr", "report", "synth_rt"])
def test_command_loads_no_numpy_ma(command_inputs, tmp_path, argv):
    """These commands leave numpy.ma unloaded: their medians come from
    stats.median and their quartiles from stats._quantile, as np.median
    and np.quantile import numpy.ma, and synth rt's grid is sorted
    without np.unique, which imports it too."""
    code = ("import sys; from cpwloss import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    out = fresh_python(code, *argv, "--out", tmp_path, cwd=command_inputs)
    assert out.splitlines()[-1].split() == ["0", "False"]
