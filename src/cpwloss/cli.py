"""Command line frontend: ingestion, fits, statistics, reports.

Subcommands mirror the analysis chain for a resonator cooldown:

    scan    locate notch dips on a wideband feedline trace
    fit     fit resonances (whole files or scan windows)
    power   fit a TLS saturation curve to a power series
    budget  forward loss budget or interface-loss decomposition
    xrd     pseudo-Voigt peak fits and texture classification
    rrr     Tc / RRR extraction from an R(T) curve
    sheet   sheet-resistance uniformity statistics
    report  group TLS fit reports by fabrication process
    synth   synthetic data with a truth sidecar, for round trips

Every command is a pure function of (inputs, config, seed): rerunning
with the same arguments rewrites byte-identical outputs. Options can
come from a plain key=value config file via --config; explicit flags
win over the file. Any error exits nonzero naming the offending file
and operation.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio
from .errors import CpwLossError, DataError, FitError

# Seed used by synth and anything stochastic when none is given.
DEFAULT_SEED = 12345

PROXIMITY_LIMIT_HZ = 50e6  # nominal resonator spacing is 200 MHz


def split_pair(text, error):
    """(key, value) of 'key=value', both stripped, '-' in the key read as '_'.

    Only the first '=' splits; without one, DataError(error) is raised.
    """
    key, sep, value = text.partition("=")
    if not sep:
        raise DataError(error)
    return key.strip().replace("-", "_"), value.strip()


def parse_config_file(path):
    """Plain key=value option file; '#' starts a comment."""
    values = {}
    with dataio.open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = dataio.utf8_text(path, lineno, raw).split("#", 1)[0].strip()
            if line:
                key, value = split_pair(
                    line, f"{path}:{lineno}: expected key=value, got '{line}'")
                values[key] = value
    return values


# Options that a flag or the --config file sets: key -> (type, default).
_CONFIG_TYPES = {
    "out": (str, "."), "seed": (int, DEFAULT_SEED),
    "attenuation_db": (float, None), "trench_nm": (float, None),
    "windows": (str, None), "prominence_db": (float, 3.0),
    "thickness_nm": (float, None),
    "table": (str, None), "losses": (str, None), "decompose": (str, None),
}


def build_config(args):
    """Set every _CONFIG_TYPES key on the argparse namespace args, in place:
    the flag if given, else the --config file's value, else the default.
    """
    file_values = parse_config_file(args.config) if args.config is not None else {}
    unknown = sorted(set(file_values) - set(_CONFIG_TYPES))
    if unknown:
        raise DataError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
                        f"valid keys: {', '.join(_CONFIG_TYPES)}")
    for key, (cast, default) in _CONFIG_TYPES.items():
        flag = getattr(args, key, None)
        if flag is not None:
            text, what = flag, "--" + key.replace("_", "-")
        elif key in file_values:
            text, what = file_values[key], f"config key {key}"
        else:
            setattr(args, key, default)
            continue
        if not text:
            raise DataError(f"{what}: empty value")
        try:
            value = parse_number(text, what) if cast is float else cast(text)
        except ValueError:
            raise DataError(f"{what}: cannot parse '{text}' as {cast.__name__}") from None
        if key == "seed" and value < 0:
            raise DataError(f"{what} must be >= 0, got {text}")
        setattr(args, key, value)
    return args


def parse_number(text, what):
    """float(text), or a DataError that names what was being read.

    inf and nan are rejected too: no caller has a use for them.
    """
    try:
        number = float(text)
    except ValueError:
        raise DataError(f"{what}: cannot parse '{text}' as a number") from None
    if not np.isfinite(number):
        raise DataError(f"{what} must be finite, got '{text}'")
    return number


def parse_spans(text, unit):
    """[(lo, hi), ...] from a 'lo:hi,lo:hi' string."""
    spans = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise DataError(f"window '{part}' must be lo:hi in {unit}")
        spans.append((parse_number(lo, f"window '{part}'"),
                      parse_number(hi, f"window '{part}'")))
    return spans


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------- scan

def block_median_baseline(f, mag_db, size):
    """Medians of mag_db over blocks of size points, linear in f between
    the block centres and flat beyond the outer ones.

    Blocks start at 0, size, 2 * size, ... and the last is the last size
    points, so no dip at the end fills most of a short block. A block of
    k = min(size, n) points from s gives its rank k // 2 at f[s + k // 2].
    """
    k = min(size, f.size)
    starts = [min(s, f.size - k) for s in range(0, f.size, size)]
    medians = [np.partition(mag_db[s:s + k], k // 2)[k // 2] for s in starts]
    return np.interp(f, f[[s + k // 2 for s in starts]], medians)


def magnitude_db(s21):
    """20 log10 |s21| in one new array, floored at 20 log10(1e-300)."""
    mag_db = np.abs(s21)
    np.maximum(mag_db, 1e-300, out=mag_db)
    np.log10(mag_db, out=mag_db)
    mag_db *= 20.0
    return mag_db


def scan_windows(f, mag_db, prominence_db=3.0):
    """Locate notch dips on a wideband trace via a block-median baseline.

    f is the frequency and mag_db the magnitude_db of S21 at each point.
    The baseline is block_median_baseline over max(51, 2 * (n // 100) + 1)
    points: on 345,307 points it takes 2.5 ms and peaks at 1.00x mag_db.
    Returns (windows, baseline_db). Each window is a dict with the dip
    center, a fitting window of +-10 estimated linewidths, and a
    proximity flag for dips closer than 50 MHz to a neighbor.
    """
    if not prominence_db > 0:
        raise DataError(f"prominence_db must be > 0 dB, got {prominence_db:g}")
    baseline = block_median_baseline(f, mag_db, max(51, 2 * (f.size // 100) + 1))
    depth = baseline - mag_db

    # (i, j) pairs: each run of dip points is depth[i:j] >= prominence_db
    runs = np.flatnonzero(np.diff(np.r_[False, depth >= prominence_db, False]))
    windows = []
    for i, j in runs.reshape(-1, 2).tolist():
        k = i + int(np.argmax(depth[i:j]))
        half = depth[k] / 2.0
        left, right = k, k
        while left > 0 and depth[left - 1] >= half:
            left -= 1
        while right < f.size - 1 and depth[right + 1] >= half:
            right += 1
        df = f[1] - f[0] if f.size > 1 else 1.0
        est_lw = max(float(f[right] - f[left]), 2.0 * float(df))
        windows.append({
            "f_center_hz": float(f[k]),
            "f_lo_hz": max(float(f[0]), float(f[k] - 10.0 * est_lw)),
            "f_hi_hz": min(float(f[-1]), float(f[k] + 10.0 * est_lw)),
            "est_linewidth_hz": est_lw,
            "max_depth_db": float(depth[k]),
            "proximity_flag": False,
        })

    if not windows:
        raise FitError(f"no dips found deeper than {prominence_db} dB "
                       f"below the baseline")
    for a, b in zip(windows, windows[1:]):
        if b["f_center_hz"] - a["f_center_hz"] < PROXIMITY_LIMIT_HZ:
            a["proximity_flag"] = True
            b["proximity_flag"] = True
    return windows, baseline


def cmd_scan(cfg):
    sweep = dataio.parse_sweep_file(cfg.inputs[0])
    # a parsed sweep's columns are views of one rows x 3 block: copy f and
    # free the block before the baseline, so scan peaks as |S21| is taken
    source = dataio.provenance(sweep)
    f = np.array(sweep.frequency_hz)
    mag_db = magnitude_db(sweep.s21)
    del sweep
    windows, baseline = scan_windows(f, mag_db, cfg.prominence_db)
    body = {
        "n_windows": len(windows),
        "prominence_db": cfg.prominence_db,
        "windows": windows,
    }
    plot_data = {"trace": (("frequency_hz", "s21_mag_db", "baseline_db"),
                           (f, mag_db, baseline))}
    dataio.write_report(_out_path(cfg, "scan_report.json"), "scan", body,
                        inputs=[source], plot_data=plot_data)
    print(f"scan: {len(windows)} windows -> {_out_path(cfg, 'scan_report.json')}")
    return 0


# ----------------------------------------------------------------- fit

def parse_windows_arg(windows_arg):
    """Windows from an explicit 'lo:hi,lo:hi' string or a scan report path.

    Only an argument whose every comma-separated part holds a ':' is a
    span list; anything else is read as a report, so a mistyped path
    fails naming the missing file.
    """
    if all(":" in part for part in windows_arg.split(",")):
        return parse_spans(windows_arg, "Hz")
    doc = dataio.read_report(windows_arg)
    try:
        spans = [(w["f_lo_hz"], w["f_hi_hz"]) for w in doc["body"]["windows"]]
    except (KeyError, TypeError):
        raise DataError(f"{windows_arg}: not a scan report with windows") from None
    # each bound's JSON text, which parses as a number only for a JSON number
    return [(parse_number(json.dumps(lo), f"{windows_arg}: window w{k} f_lo_hz"),
             parse_number(json.dumps(hi), f"{windows_arg}: window w{k} f_hi_hz"))
            for k, (lo, hi) in enumerate(spans)]


def slice_sweep(sweep, f_lo, f_hi, label):
    # frequencies strictly increase, so the points in [f_lo, f_hi] are one slice
    lo = int(np.searchsorted(sweep.frequency_hz, f_lo, "left"))
    hi = max(lo, int(np.searchsorted(sweep.frequency_hz, f_hi, "right")))
    if hi - lo < 32:
        raise DataError(f"window {label} [{f_lo:.6g}, {f_hi:.6g}] Hz holds only "
                        f"{hi - lo} points, need >= 32")
    return replace(sweep,
                   frequency_hz=sweep.frequency_hz[lo:hi],
                   s21=sweep.s21[lo:hi],
                   source=f"{sweep.source or '<sweep>'}[{label}]")


def cmd_fit(cfg):
    from .circlefit import fit_resonance, notch_model
    items = []  # (sort_key, label, sweep or the DataError that slicing raised)
    if cfg.windows:
        if len(cfg.inputs) != 1:
            raise DataError("--windows applies to exactly one wideband file")
        windows = parse_windows_arg(cfg.windows)
        sweep = dataio.parse_sweep_file(cfg.inputs[0])
        for k, (lo, hi) in enumerate(windows):
            label = f"w{k}"
            try:
                sub = slice_sweep(sweep, lo, hi, label)
                items.append(((sub.resonator_id, lo), label, sub))
            except DataError as exc:
                items.append(((sweep.resonator_id, lo), label, exc))
    else:
        for path in cfg.inputs:
            sub = dataio.parse_sweep_file(path)
            items.append(((sub.resonator_id, float(sub.frequency_hz[0])),
                          str(path), sub))
    items.sort(key=lambda it: it[0])

    fits, failures, plot_data, inputs = [], [], {}, []
    for idx, (_, label, sweep) in enumerate(items):
        if isinstance(sweep, Exception):
            failures.append({"item": label, "error": str(sweep)})
            continue
        inputs.append(sweep)
        try:
            outcome = fit_resonance(sweep)
        except CpwLossError as exc:
            failures.append({"item": label, "error": str(exc)})
            continue
        fits.append(dict(vars(outcome), item=label,
                         resonator_id=sweep.resonator_id, source=sweep.source))
        model = notch_model(sweep.frequency_hz, outcome.fr, outcome.Ql,
                            outcome.Qc_mag, outcome.phi, outcome.a,
                            outcome.alpha, outcome.tau)
        stem = os.path.splitext(os.path.basename(label))[0]
        safe = "".join(c if c.isalnum() else "_" for c in stem)
        plot_data[f"data_{idx}_{safe}"] = (
            ("frequency_hz", "s21_real", "s21_imag", "model_real", "model_imag"),
            (sweep.frequency_hz, sweep.s21.real, sweep.s21.imag,
             model.real, model.imag))
    body = {"n_fits": len(fits), "n_failures": len(failures),
            "fits": fits, "failures": failures}
    dataio.write_report(_out_path(cfg, "fit_report.json"), "resonance_fit",
                        body, inputs=inputs, plot_data=plot_data)
    print(f"fit: {len(fits)} ok, {len(failures)} failed "
          f"-> {_out_path(cfg, 'fit_report.json')}")
    if failures:
        for failure in failures:
            print(f"fit: {failure['item']}: {failure['error']}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- power

def cmd_power(cfg):
    from . import tlsloss
    sweeps = [dataio.parse_sweep_file(path) for path in cfg.inputs]
    points, diagnostics = tlsloss.assemble_series(sweeps, cfg.attenuation_db)
    fit = tlsloss.fit_tls(points)
    n = np.array([p.n_photon for p in points])
    delta = np.array([p.delta for p in points])
    sigma = np.array([p.sigma_delta if p.sigma_delta else np.nan for p in points])
    n_grid = np.geomspace(n.min(), n.max(), 200)
    curve = tlsloss.eval_tls_model(n_grid, fit.delta_tls, fit.n_c,
                                   fit.beta, fit.delta_hp)
    process = next((s.process for s in sweeps if s.process is not None), None)
    body = {
        "resonator_id": sweeps[0].resonator_id,
        "process": str(process) if process else None,
        "attenuation_db": cfg.attenuation_db if cfg.attenuation_db is not None
                          else sweeps[0].attenuation_db,
        "tls_fit": fit,
        "points": points,
        "diagnostics": diagnostics,
    }
    plot_data = {
        "loss_vs_n": (("n_photon", "delta", "sigma_delta"), (n, delta, sigma)),
        "model_curve": (("n_photon", "delta_model"), (n_grid, curve)),
    }
    dataio.write_report(_out_path(cfg, "tls_report.json"), "tls_fit", body,
                        inputs=sweeps, plot_data=plot_data)
    print(f"power: delta_tls={fit.delta_tls:.4g} n_c={fit.n_c:.4g} "
          f"beta={fit.beta:.3f} -> {_out_path(cfg, 'tls_report.json')}")
    if diagnostics:
        for diag in diagnostics:
            print(f"power: {diag}", file=sys.stderr)
        return 1
    return 0


# -------------------------------------------------------------- budget

def cmd_budget(cfg):
    from . import lossbudget
    if (cfg.losses is None) == (cfg.decompose is None):
        raise DataError("budget needs exactly one of --losses FILE (forward) "
                        "or --decompose FILE")
    table = lossbudget.load_table(cfg.table) if cfg.table \
        else lossbudget.load_builtin_table()

    if cfg.losses is not None:
        if cfg.trench_nm is None:
            raise DataError("forward budget needs --trench-nm")
        values = parse_config_file(cfg.losses)
        expected = set(lossbudget.LOSS_NAMES)
        given = set(values)
        if given != expected:
            raise DataError(f"{cfg.losses}: expected keys "
                            f"{sorted(expected)}, got {sorted(given)}")
        losses = lossbudget.InterfaceLosses(**{
            k: parse_number(v, f"{cfg.losses}: {k}") for k, v in values.items()})
        row = lossbudget.interpolate(table, cfg.trench_nm)
        delta = lossbudget.forward_loss(row, losses)
        body = {
            "mode": "forward",
            "trench_nm": cfg.trench_nm,
            "participation": row,
            "losses": losses,
            "delta_tls": dataio.qty(delta),
        }
        dataio.write_report(_out_path(cfg, "budget_report.json"), "loss_budget", body)
        print(f"budget: forward delta_tls={delta:.6g} "
              f"-> {_out_path(cfg, 'budget_report.json')}")
        return 0

    _, parsed, _ = dataio.read_columns(cfg.decompose, ("trench_nm", "delta"),
                                       ("trench_nm", "delta", "sigma"))
    trench, deltas = parsed[0], parsed[1]
    sigmas = parsed[2] if len(parsed) == 3 else None
    prows = [lossbudget.interpolate(table, t) for t in trench]
    result = lossbudget.decompose(prows, deltas, sigmas)
    body = {
        "mode": "decompose",
        "rows": prows,
        "deltas": deltas,
        "result": result,
    }
    dataio.write_report(_out_path(cfg, "budget_report.json"), "loss_budget", body)
    flagged = f", unresolved: {', '.join(result.unresolved)}" if result.unresolved else ""
    print(f"budget: decomposed rank {result.rank}{flagged} "
          f"-> {_out_path(cfg, 'budget_report.json')}")
    return 0


# ----------------------------------------------------------------- xrd

def cmd_xrd(cfg):
    from . import filmchar
    if cfg.windows:
        windows = parse_spans(cfg.windows, "degrees")
    else:
        windows = list(filmchar.DEFAULT_XRD_WINDOWS)
    scan = dataio.parse_xrd_file(cfg.inputs[0])
    peaks, diagnostics, plot_data = [], [], {}
    for k, window in enumerate(windows):
        try:
            peak = filmchar.fit_peaks(scan, [window])[0]
        except FitError as exc:
            diagnostics.append(str(exc))
            continue
        peaks.append(peak)
        lo, hi = window
        mask = (scan.two_theta_deg >= lo) & (scan.two_theta_deg <= hi)
        x = scan.two_theta_deg[mask]
        model = filmchar.pseudo_voigt(x, peak.center, peak.fwhm, peak.amplitude,
                                      peak.eta, peak.baseline_intercept,
                                      peak.baseline_slope)
        plot_data[f"window_{k}"] = (("two_theta_deg", "counts", "model"),
                                    (x, scan.counts[mask], model))
    orientation = filmchar.classify_orientation(peaks)
    body = {
        "windows": [[float(w[0]), float(w[1])] for w in windows],
        "peaks": peaks,
        "orientation": orientation,
        "diagnostics": diagnostics,
    }
    p111 = filmchar.strongest_in_band(peaks, filmchar.BAND_111)
    p200 = filmchar.strongest_in_band(peaks, filmchar.BAND_200)
    if p111 and p200:
        body["grain_ratio_111_over_200"] = filmchar.scherrer_ratio(p111, p200)
    dataio.write_report(_out_path(cfg, "xrd_report.json"), "xrd", body,
                        inputs=[scan], plot_data=plot_data)
    print(f"xrd: {len(peaks)} peaks, orientation {orientation.orientation} "
          f"-> {_out_path(cfg, 'xrd_report.json')}")
    return 0


# ----------------------------------------------------------------- rrr

def cmd_rrr(cfg):
    from . import filmchar
    sweep = dataio.parse_rt_file(cfg.inputs[0])
    result = filmchar.extract_tc_rrr(sweep)
    body = {"tc_rrr": result}
    plot_data = {"rt": (("temperature_k", "resistance_ohm"),
                        (sweep.temperature_k, sweep.resistance_ohm))}
    dataio.write_report(_out_path(cfg, "rrr_report.json"), "tc_rrr", body,
                        inputs=[sweep], plot_data=plot_data)
    tc_text = "none" if result.tc is None else f"{result.tc:.3f} K"
    print(f"rrr: tc={tc_text} rrr={result.rrr:.3f} "
          f"-> {_out_path(cfg, 'rrr_report.json')}")
    return 0


# --------------------------------------------------------------- sheet

def cmd_sheet(cfg):
    from . import filmchar
    maps = dataio.parse_sheet_file(cfg.inputs[0])
    result = filmchar.sheet_stats(maps)
    body = {"sheet_stats": result, "n_wafers": len(maps)}
    if cfg.thickness_nm is not None:
        body["resistivity_uohm_cm"] = dataio.qty(
            filmchar.resistivity(result.batch_mean_ohm_sq, cfg.thickness_nm),
            unit="uohm_cm")
        body["thickness_nm"] = cfg.thickness_nm
    dataio.write_report(_out_path(cfg, "sheet_report.json"), "sheet", body,
                        inputs=maps)
    print(f"sheet: {len(maps)} wafers, mean {result.batch_mean_ohm_sq:.3f} ohm/sq "
          f"-> {_out_path(cfg, 'sheet_report.json')}")
    return 0


# -------------------------------------------------------------- report

def cmd_report(cfg):
    from . import stats
    root = cfg.inputs[0]
    if not os.path.isdir(root):
        raise DataError(f"{root}: report expects a directory of analysis reports")
    pairs, skipped = [], []
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            try:
                doc = dataio.read_report(path)
            except CpwLossError:
                continue
            if not isinstance(doc, dict) or doc.get("report_kind") != "tls_fit":
                continue
            body = doc.get("body")
            process_text = body.get("process") if isinstance(body, dict) else None
            if not isinstance(process_text, str) or not process_text:
                skipped.append({"path": path, "reason": "no process key"})
                continue
            fit = body.get("tls_fit")
            delta_lp = fit.get("delta_lp") if isinstance(fit, dict) else None
            # compared exactly, so an int beyond a float's range is not
            # finite here; np.isfinite raises TypeError on it
            if type(delta_lp) not in (int, float) or not abs(delta_lp) <= sys.float_info.max:
                skipped.append({"path": path, "reason": "no finite delta_lp"})
                continue
            try:
                key = dataio.parse_process(process_text)
            except DataError as exc:
                skipped.append({"path": path, "reason": str(exc)})
                continue
            pairs.append((key, delta_lp))
    if not pairs:
        raise DataError(f"{root}: no TLS fit reports with process keys found "
                        f"({len(skipped)} skipped)")
    grouped = stats.group_by_process(pairs)
    body = {
        "metric": "delta_lp",
        "n_reports": len(pairs),
        "groups": grouped,
        "skipped": skipped,
    }
    dataio.write_report(_out_path(cfg, "group_report.json"), "process_groups", body)
    print(f"report: {len(pairs)} fits in {len(grouped.by_key)} process groups "
          f"-> {_out_path(cfg, 'group_report.json')}")
    return 0


# --------------------------------------------------------------- synth

def _params_float(pairs, defaults):
    """Merge 'key=value' pairs over defaults, typed like each default.

    A pair without '=', an unknown key, a non-finite number and an int
    parameter that is not an integer >= 1 raise DataError.
    """
    out = dict(defaults)
    for item in pairs:
        key, value = split_pair(item, f"synth parameter '{item}' must be key=value")
        if key not in defaults:
            raise DataError(f"unknown synth parameter '{key}'; valid: "
                            f"{', '.join(sorted(defaults))}")
        what = f"synth parameter '{key}'"
        if isinstance(defaults[key], str):
            out[key] = value
        elif isinstance(defaults[key], int):
            number = parse_number(value, what)
            if not (number.is_integer() and number >= 1):
                raise DataError(f"{what} must be an integer >= 1, got '{value}'")
            out[key] = int(number)
        else:
            out[key] = parse_number(value, what)
    return out


def _sized(what, build, *args, **kwargs):
    """build(*args, **kwargs), numpy's refusal of an impossible array size
    raised as a DataError naming the synth parameter(s) what."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise DataError(f"synth {what}: too many points for one array ({exc})") from None


def _write_truth(cfg, truth):
    path = _out_path(cfg, "truth.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_synth(cfg):
    from . import synth
    from .circlefit import default_frequencies, synthesize_notch
    kind = cfg.kind
    seed = cfg.seed
    written = []
    if kind == "notch":
        p = _params_float(cfg.params, {
            "fr": 5.0e9, "ql": 8.0e4, "qc": 1.6e5, "phi": 0.05,
            "a": 0.9, "alpha": 0.4, "tau": 30e-9,
            "noise": 0.0, "npoints": 1001, "span_linewidths": 10.0,
        })
        freqs = _sized("parameter 'npoints'", default_frequencies, p["fr"], p["ql"],
                       p["span_linewidths"], p["npoints"])
        sweep = synthesize_notch(p["fr"], p["ql"], p["qc"], p["phi"],
                                 a=p["a"], alpha=p["alpha"], tau=p["tau"],
                                 frequencies=freqs, noise_sigma=p["noise"],
                                 seed=None if p["noise"] == 0 else seed,
                                 resonator_id="R0")
        path = _out_path(cfg, "notch.dat")
        dataio.write_sweep_file(path, sweep)
        truth = dict(p, kind="notch", seed=seed)
        written = [path, _write_truth(cfg, truth)]
    elif kind == "power_series":
        p = _params_float(cfg.params, {
            "fr": 5.2e9, "qc": 2.0e5, "phi": 0.02,
            "delta_tls": 4.0e-6, "n_c": 10.0, "beta": 0.35, "delta_hp": 4.0e-7,
            "attenuation_db": 60.0, "a": 1.0, "alpha": 0.0, "tau": 30e-9,
            "noise": 0.0, "npoints": 1001, "n_powers": 12,
            "power_start_dbm": -95.0, "power_step_db": 5.0,
            "resonator_id": "R0", "process": "",
        })
        powers = (_sized("parameter 'n_powers'", np.arange, p["n_powers"])
                  * p["power_step_db"] + p["power_start_dbm"])
        sweeps, truth = _sized(
            "parameter 'npoints'", synth.synthesize_power_series,
            fr=p["fr"], qc_mag=p["qc"], phi=p["phi"],
            delta_tls=p["delta_tls"], n_c=p["n_c"], beta=p["beta"],
            delta_hp=p["delta_hp"], powers_dbm=powers,
            attenuation_db=p["attenuation_db"], a=p["a"], alpha=p["alpha"],
            tau=p["tau"], noise_sigma=p["noise"], seed=seed,
            resonator_id=p["resonator_id"], npoints=p["npoints"])
        for k, sweep in enumerate(sweeps):
            if p["process"]:
                sweep = replace(sweep, process=dataio.parse_process(p["process"]))
            path = _out_path(cfg, f"power_{k:02d}.dat")
            dataio.write_sweep_file(path, sweep)
            written.append(path)
        written.append(_write_truth(cfg, truth))
    elif kind == "feedline":
        p = _params_float(cfg.params, {
            "n_res": 9, "f_start": 4.0e9, "spacing": 200e6,
            "a": 1.0, "alpha": 0.3, "tau": 40e-9,
            "noise": 0.0, "npoints": 72001,
        })
        resonators = synth.default_feedline_resonators(
            p["n_res"], p["f_start"], p["spacing"])
        sweep, truth = _sized(
            "parameter 'npoints'", synth.synthesize_feedline, resonators,
            npoints=p["npoints"], a=p["a"], alpha=p["alpha"],
            tau=p["tau"], noise_sigma=p["noise"], seed=seed)
        path = _out_path(cfg, "feedline.dat")
        dataio.write_sweep_file(path, sweep)
        written = [path, _write_truth(cfg, truth)]
    elif kind == "rt":
        p = _params_float(cfg.params, {
            "tc": 4.7, "width": 0.2, "r_normal": 25.0, "rrr": 4.0,
            "t_min": 2.0, "noise": 0.0,
        })
        sweep, truth = synth.synthesize_rt(
            tc=p["tc"], width=p["width"], r_normal=p["r_normal"],
            rrr=p["rrr"], t_min=p["t_min"], noise_sigma=p["noise"], seed=seed)
        path = _out_path(cfg, "rt.dat")
        dataio.write_rt_file(path, sweep)
        written = [path, _write_truth(cfg, truth)]
    elif kind == "xrd":
        p = _params_float(cfg.params, {
            "peaks": "36.9:0.4:500:0.3", "b0": 50.0, "b1": 0.0,
            "lo": 30.0, "hi": 50.0, "step": 0.01, "noise": 0.0,
        })
        peaks = []
        for part in p["peaks"].split(","):
            fields = part.split(":")
            if len(fields) != 4:
                raise DataError(f"peak '{part}' must be center:fwhm:amplitude:eta")
            peaks.append(tuple(parse_number(v, f"peak '{part}'") for v in fields))
        scan, truth = _sized(
            "parameters 'lo', 'hi' and 'step'", synth.synthesize_xrd, peaks,
            baseline=(p["b0"], p["b1"]), two_theta_lo=p["lo"],
            two_theta_hi=p["hi"], step=p["step"], noise_sigma=p["noise"],
            seed=seed)
        path = _out_path(cfg, "xrd.dat")
        dataio.write_xrd_file(path, scan)
        written = [path, _write_truth(cfg, truth)]
    else:
        raise DataError(f"unknown synth kind '{kind}'")
    print(f"synth {kind}: wrote {len(written)} files under {cfg.out}")
    return 0


# ---------------------------------------------------------------- main

HANDLERS = {
    "scan": cmd_scan, "fit": cmd_fit, "power": cmd_power,
    "budget": cmd_budget, "xrd": cmd_xrd, "rrr": cmd_rrr,
    "sheet": cmd_sheet, "report": cmd_report, "synth": cmd_synth,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpwloss",
        description="Resonator loss analysis: notch resonance fits, TLS power sweeps, "
                    "loss budgets, and film characterization.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", dest="out", default=None,
                        help="output directory (default: current directory)")
    common.add_argument("--config",
                        help="key=value option file; flags override it")
    common.add_argument("--seed", default=None,
                        help=f"random seed (default {DEFAULT_SEED})")

    p = sub.add_parser("scan", parents=[common],
                       help="find resonance dips on a wideband trace")
    p.add_argument("inputs", nargs=1, metavar="SWEEP")
    p.add_argument("--prominence-db", dest="prominence_db", default=None,
                   help="dip depth threshold (default 3 dB)")

    p = sub.add_parser("fit", parents=[common], help="fit notch resonances")
    p.add_argument("inputs", nargs="+", metavar="SWEEP")
    p.add_argument("--windows", default=None,
                   help="scan report path or lo:hi,lo:hi windows in Hz")

    p = sub.add_parser("power", parents=[common],
                       help="TLS saturation fit over a power series")
    p.add_argument("inputs", nargs="+", metavar="SWEEP")
    p.add_argument("--attenuation-db", dest="attenuation_db", default=None,
                   help="input line attenuation in dB")

    p = sub.add_parser("budget", parents=[common],
                       help="interface loss budget (forward or decompose)")
    p.add_argument("--trench-nm", dest="trench_nm", default=None)
    p.add_argument("--losses", default=None,
                   help="key=value file with delta_sa/ma/ms/si (forward mode)")
    p.add_argument("--decompose", default=None,
                   help="columnar file trench_nm delta [sigma] (inverse mode)")
    p.add_argument("--table", default=None,
                   help="participation table file (default: bundled)")

    p = sub.add_parser("xrd", parents=[common],
                       help="pseudo-Voigt peak fits on a diffraction scan")
    p.add_argument("inputs", nargs=1, metavar="SCAN")
    p.add_argument("--windows", default=None,
                   help="lo:hi,lo:hi windows in degrees 2theta")

    p = sub.add_parser("rrr", parents=[common],
                       help="Tc and residual resistance ratio from R(T)")
    p.add_argument("inputs", nargs=1, metavar="RT")

    p = sub.add_parser("sheet", parents=[common],
                       help="sheet resistance uniformity statistics")
    p.add_argument("inputs", nargs=1, metavar="SHEET")
    p.add_argument("--thickness-nm", dest="thickness_nm", default=None,
                   help="film thickness for resistivity")

    p = sub.add_parser("report", parents=[common],
                       help="group TLS fit reports by fabrication process")
    p.add_argument("inputs", nargs=1, metavar="DIR")

    p = sub.add_parser("synth", parents=[common],
                       help="generate synthetic data with a truth sidecar")
    p.add_argument("kind", choices=["notch", "power_series", "xrd", "rt",
                                    "feedline"])
    p.add_argument("params", nargs="*", metavar="KEY=VALUE",
                   help="generator parameters, e.g. tc=4.7 "
                        "(place them directly after the kind, before flags)")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return HANDLERS[args.command](cfg)
    except (CpwLossError, OSError) as exc:
        print(f"cpwloss {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
