"""Benchmark of cpwloss: the README walk, a 40-resonator feedline, and batch fits.

    python3 perfbench/run.py [--workload walk|wideband|batch|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it needs only the standard library
to start and runs the package from src/ as `python -m cpwloss.cli` with
PYTHONPATH=src. Every workload is a closed loop with one client: one CLI
process or one fit call at a time, no threads. Workload files go to
.bench_work/ and are removed at the end.

It prints a readable report of every metric with its unit, sample
count and the output checks, and as its last line one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured untraced. With --trace 1 it
runs one untraced and one traced pass and the metrics are the per-layer
ones, from spans recorded around the calls into each cpwloss module
(tracing.py). README.md in this directory describes the workloads.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PYTHON = sys.executable
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
REWRITE_DIFFERS = "outputs differ from the first pass"
# The end-to-end metrics of the JSON result. op_tail_s is only in the
# readout: on batch it lands between the stalled fits and the slow
# converging ones, and which fits stall depends on the seed's noise.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))


class Run:
    """Operations, checks and spans of one benchmark run."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = os.path.join(WORK, workload)
        self.ops = []        # (pass index, label, seconds, failure text or None)
        self.wrong = []      # checks failed by outputs of operations that succeeded
        self.notes = []      # run-level check results, as text
        self.rss_mb = []
        self.setup = []
        self.walls = []
        self.traced = []     # span files of traced processes
        self.detail = {}     # workload-specific end-to-end metrics: name -> (value, unit, n)

    def op(self, pass_index, label, seconds, failure=None, wrong=False):
        self.ops.append((pass_index, label, seconds, failure))
        if failure and wrong:
            self.wrong.append(f"{label}: {failure}")

    @property
    def failed(self):
        return sum(1 for op in self.ops if op[3])

    def spans_path(self):
        path = os.path.join(self.work, "spans", f"{len(self.traced):04d}.json")
        self.traced.append(path)
        return path


# ------------------------------------------------------------- children

def run_child(argv, cwd, log_path):
    """Run one process to completion; returns (exit code, seconds, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def last_error(log_path):
    with open(log_path, errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    errors = [line for line in lines if "error" in line.lower()]
    return (errors or lines or ["no output"])[-1][:300]


def setup_child(run, traced):
    """Make the workload's inputs in a fresh process (inputs.py); returns seconds."""
    argv = [PYTHON, os.path.join(BENCH, "inputs.py"), run.workload, run.work, str(run.seed)]
    if traced:
        argv.append(run.spans_path())
    log = os.path.join(run.work, "logs", "setup.log")
    rc, seconds, _ = run_child(argv, run.work, log)
    if rc != 0:
        raise SystemExit(f"perfbench: {run.workload} setup failed: {last_error(log)}")
    return seconds


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def expand(words, work):
    """Words with shell-style * patterns expanded, sorted, under `work`."""
    out = []
    for word in words:
        out.extend(sorted(glob.glob(word, root_dir=work)) if "*" in word else [word])
    return out


def output_files(patterns, work):
    """The files behind `patterns`, with the plot-data companions of each report."""
    files = []
    for rel in expand(patterns, work):
        path = os.path.join(work, rel)
        files.append(path)
        if path.endswith("_report.json"):
            for name in read_json(path).get("plot_data", {}).values():
                files.append(os.path.join(os.path.dirname(path), name))
    return files


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def rel_err(got, want):
    return abs(got / want - 1.0)


class CliOp:
    """One CLI command of a file-based workload, run in the work directory.

    args is the command line after `cpwloss`, with * patterns expanded as
    a shell would; None runs the bare `import cpwloss.cli`. outputs names
    the files it writes, which a later pass must rewrite byte for byte.
    check(work, expected) returns a failure text or None.
    """

    def __init__(self, label, args, outputs=(), check=None):
        self.label = label
        self.args = args
        self.outputs = outputs
        self.check = check

    def execute(self, run, pass_index, traced, expected, digests):
        if self.args is None:
            argv, cli_args = [PYTHON, "-c", "import cpwloss.cli"], []
        else:
            cli_args = expand(self.args, run.work)
            argv = [PYTHON, "-m", "cpwloss.cli", *cli_args]
        if traced:
            argv = [PYTHON, os.path.join(BENCH, "traced_cli.py"), run.spans_path(), *cli_args]
        log = os.path.join(run.work, "logs", f"p{pass_index}_{self.label.replace(' ', '_')}.log")
        rc, seconds, rss = run_child(argv, run.work, log)
        run.rss_mb.append(rss)
        if rc != 0:
            run.op(pass_index, self.label, seconds, f"exit {rc}: {last_error(log)}")
            return
        failure = None
        try:
            failure = self.check(run.work, expected) if self.check else None
            if failure is None:
                key = digest(output_files(self.outputs, run.work))
                if digests.setdefault(self.label, key) != key:
                    failure = REWRITE_DIFFERS
        except (OSError, KeyError, TypeError, ValueError) as exc:
            failure = f"check could not read the outputs: {exc!r}"
        run.op(pass_index, self.label, seconds, failure, wrong=failure is not None)


def run_cli_pass(run, ops, pass_index, traced, expected, digests):
    t0 = time.perf_counter()
    for op in ops:
        op.execute(run, pass_index, traced, expected, digests)
    return time.perf_counter() - t0


# ----------------------------------------------------------------- walk

def walk_ops(seed):
    """The README demo walk and its "Other commands", in order.

    Seed 0 runs the README's own seeds: --seed 42 for the feedline and
    synth's default 12345 for the power series. fit runs without --jobs:
    its thread pool is GIL-bound (--jobs 2 took 0.41 s against 0.35 s for
    --jobs 1 on the demo) and may be deleted, and a walk that passed
    --jobs 2 would count that deletion as a failed operation.
    """
    def j(*parts):
        return os.path.join(*parts)

    def demo_truth(w):
        return read_json(j(w, "demo", "truth.json"))

    def check_scan(w, _):
        n = read_json(j(w, "demo", "scan_report.json"))["body"]["n_windows"]
        return None if n == 9 else f"found {n} dips, want 9"

    def check_fit(w, _):
        body = read_json(j(w, "demo", "fit_report.json"))["body"]
        return check_fits(body, demo_truth(w)["resonators"], qi_tol=None)

    def check_power(w, _):
        got = read_json(j(w, "demo", "r0", "tls_report.json"))["body"]["tls_fit"]["delta_tls"]
        want = read_json(j(w, "demo", "r0", "truth.json"))["delta_tls"]
        return None if rel_err(got, want) <= 0.05 else f"delta_tls {got:.4g}, truth {want:.4g}"

    def check_report(w, _):
        n = read_json(j(w, "demo", "group_report.json"))["body"]["n_reports"]
        return None if n == 1 else f"grouped {n} TLS reports, want 1"

    def check_forward(w, expected):
        got = read_json(j(w, "budget_report.json"))["body"]["delta_tls"]["value"]
        want = expected["forward_delta_tls"]
        return None if rel_err(got, want) <= 1e-9 else f"delta_tls {got!r}, want {want!r}"

    def check_decompose(w, expected):
        result = read_json(j(w, "budget_report.json"))["body"]["result"]
        worst = max(rel_err(p, d) for p, d in zip(result["predicted"],
                                                  expected["decompose_deltas"]))
        if result["rank"] != 3:
            return f"rank {result['rank']}, want 3 for the bundled table"
        return None if worst <= 1e-6 else f"predicted losses off by {worst:.3g}"

    def check_xrd(w, _):
        body = read_json(j(w, "xrd_report.json"))["body"]
        centers = [p["center"] for p in body["peaks"]]
        if body["orientation"]["orientation"] != "TiN111" or len(centers) != 1:
            return f"orientation {body['orientation']['orientation']}, peaks {centers}"
        return None if abs(centers[0] - 36.9) <= 0.02 else f"peak at {centers[0]}"

    def check_rrr(w, _):
        got = read_json(j(w, "rrr_report.json"))["body"]["tc_rrr"]
        if got["tc"] is None or abs(got["tc"] - 4.7) > 0.01 or rel_err(got["rrr"], 4.0) > 0.01:
            return f"tc {got['tc']}, rrr {got['rrr']}; synth made 4.7 K and 4.0"
        return None

    def check_sheet(w, expected):
        body = read_json(j(w, "sheet_report.json"))["body"]
        mean = body["sheet_stats"]["batch_mean_ohm_sq"]
        rho = body["resistivity_uohm_cm"]["value"]
        if rel_err(mean, expected["sheet_mean_ohm_sq"]) > 1e-9 or \
                rel_err(rho, expected["resistivity_uohm_cm"]) > 1e-9:
            return f"mean {mean!r}, resistivity {rho!r}"
        return None

    return [
        CliOp("import", None),
        CliOp("synth feedline", ["synth", "feedline", "noise=0.0005", "--out", "demo",
                                 "--seed", str(42 + seed)],
              ["demo/feedline.dat", "demo/truth.json"]),
        CliOp("scan", ["scan", "demo/feedline.dat", "--out", "demo"],
              ["demo/scan_report.json"], check_scan),
        CliOp("fit", ["fit", "demo/feedline.dat", "--windows", "demo/scan_report.json",
                      "--out", "demo"],
              ["demo/fit_report.json"], check_fit),
        CliOp("synth power_series", ["synth", "power_series", "noise=0.0005",
                                     "process=B/HP/HT/BOE", "--out", "demo/r0",
                                     "--seed", str(12345 + seed)],
              ["demo/r0/power_*.dat", "demo/r0/truth.json"]),
        CliOp("power", ["power", "demo/r0/power_*.dat", "--out", "demo/r0"],
              ["demo/r0/tls_report.json"], check_power),
        CliOp("report", ["report", "demo", "--out", "demo"],
              ["demo/group_report.json"], check_report),
        CliOp("budget forward", ["budget", "--losses", "losses.cfg", "--trench-nm", "50"],
              ["budget_report.json"], check_forward),
        CliOp("budget decompose", ["budget", "--decompose", "measured.dat"],
              ["budget_report.json"], check_decompose),
        CliOp("synth xrd", ["synth", "xrd"], ["xrd.dat"]),
        CliOp("xrd", ["xrd", "xrd.dat"], ["xrd_report.json"], check_xrd),
        CliOp("synth rt", ["synth", "rt"], ["rt.dat"]),
        CliOp("rrr", ["rrr", "rt.dat"], ["rrr_report.json"], check_rrr),
        CliOp("sheet", ["sheet", "maps.dat", "--thickness-nm", "60"],
              ["sheet_report.json"], check_sheet),
    ]


def check_fits(body, truth, qi_tol):
    """Each fit within one linewidth of a true fr and, with qi_tol, near its Qi."""
    if body["n_failures"] or body["n_fits"] != len(truth):
        return f"{body['n_fits']} fits, {body['n_failures']} failed; want {len(truth)} fits"
    for fit in body["fits"]:
        r = min(truth, key=lambda r: abs(r["fr"] - fit["fr"]))
        if abs(fit["fr"] - r["fr"]) > r["fr"] / r["Ql"]:
            return f"{fit['item']}: fr {fit['fr']:.9g} is over a linewidth from {r['fr']:.9g}"
        if qi_tol is not None and rel_err(fit["Qi"], r["Qi"]) > qi_tol:
            return f"{fit['item']}: Qi {fit['Qi']:.5g}, truth {r['Qi']:.5g}"
    return None


def wideband_ops():
    def check_scan(w, _):
        n = read_json(os.path.join(w, "out", "scan_report.json"))["body"]["n_windows"]
        return None if n == 40 else f"found {n} dips, want 40"

    def check_fit(w, expected):
        body = read_json(os.path.join(w, "out", "fit_report.json"))["body"]
        return check_fits(body, expected["resonators"], qi_tol=0.05)

    return [
        CliOp("scan", ["scan", "feedline.dat", "--out", "out"],
              ["out/scan_report.json"], check_scan),
        CliOp("fit", ["fit", "feedline.dat", "--windows", "out/scan_report.json",
                      "--out", "out"],
              ["out/fit_report.json"], check_fit),
    ]


def run_cli_workload(run, seconds):
    ops = walk_ops(run.seed) if run.workload == "walk" else wideband_ops()
    digests = {}
    if run.trace:
        setup_child(run, traced=False)
        expected = read_json(os.path.join(run.work, "expected.json"))
        untraced = run_cli_pass(run, ops, 0, False, expected, digests)
        setup_child(run, traced=True)
        traced = run_cli_pass(run, ops, 1, True, expected, digests)
        run.walls = [untraced]
        run.notes.append(rewrite_note(run))
        return traced - untraced
    run.setup = [setup_child(run, traced=False) for _ in range(SETUP_REPEATS)]
    expected = read_json(os.path.join(run.work, "expected.json"))
    passes(run, seconds, lambda k: run_cli_pass(run, ops, k, False, expected, digests))
    if run.workload == "walk":
        starts = [s for _, label, s, _ in run.ops if label == "import"]
        run.detail["startup_s"] = (statistics.median(starts), "s", len(starts))
    else:
        for label in ("scan", "fit"):
            times = [s for _, name, s, _ in run.ops if name == label]
            run.detail[f"{label}_s"] = (statistics.median(times), "s", len(times))
    if len(run.walls) > 1:
        run.notes.append(rewrite_note(run))
    return None


def rewrite_note(run):
    same = not any(wrong.endswith(REWRITE_DIFFERS) for wrong in run.wrong)
    return f"later passes rewrote the outputs of every command that exited 0 " \
           f"byte for byte: {same}"


def passes(run, seconds, one_pass):
    """Run whole passes, at least one, until the next would end after `seconds`."""
    t0 = time.perf_counter()
    while not run.walls or \
            time.perf_counter() - t0 + statistics.median(run.walls) <= seconds:
        run.walls.append(one_pass(len(run.walls)))


# ---------------------------------------------------------------- batch

def run_batch(run, seconds):
    """fit_resonance over the acceptance draw and fit_tls over noisy series.

    One process, no files; the import and the input generation stay
    outside the timed passes.
    """
    sys.path.insert(0, SRC)
    import inputs

    calls = inputs.batch_corpus(run.seed)
    fit_seconds = []
    errors = {}

    def one_pass(k):
        t0 = time.perf_counter()
        seconds_in_fits, errors_of_pass = batch_pass(run, k, calls)
        wall = time.perf_counter() - t0
        fit_seconds.append(seconds_in_fits)
        errors.update(errors_of_pass)
        return wall

    overhead = None
    if run.trace:
        import tracing
        untraced = one_pass(0)
        setup_child(run, traced=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = one_pass(1)
        tracer.write(run.spans_path())
        run.walls = [untraced]
        overhead = traced - untraced
    else:
        run.setup = [setup_child(run, traced=False) for _ in range(SETUP_REPEATS)]
        passes(run, seconds, one_pass)

    n_fits = sum(1 for op in run.ops if op[1].startswith("fit_resonance"))
    run.detail["fits_per_s"] = (n_fits / sum(fit_seconds), "1/s", n_fits)
    for name, agg, gate in (("qi_err_p50", statistics.median, 0.01),
                            ("fit_err_max", max, 1e-4),
                            ("tls_err_p50", statistics.median, 0.10)):
        values = errors[name]
        value = agg(values) if values else math.nan
        run.detail[name] = (value, "ratio", len(values))
        ok = value <= gate
        run.notes.append(f"{name} {value:.3g} <= {gate:g}, the acceptance gate: {ok}")
        if not ok:
            run.wrong.append(f"{name} {value:.3g} is above the acceptance gate {gate:g}")
    run.rss_mb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return overhead


def batch_pass(run, pass_index, calls):
    """One pass over the batch; returns (seconds in fit_resonance, errors).

    Functions are looked up on their modules at each call, so the
    wrappers of a traced pass see every call.
    """
    import inputs
    from cpwloss import circlefit, tlsloss

    errors = {"qi_err_p50": [], "fit_err_max": [], "tls_err_p50": []}
    fit_seconds = 0.0
    for call in calls:
        kind, label = call[0], f"{call[0]} {call[1]}"
        if kind == "fit_resonance":
            _, _, p, data, noisy = call
            func = circlefit.fit_resonance
        else:
            _, _, data = call
            func = tlsloss.fit_tls
        t0 = time.perf_counter()
        try:
            fit = func(data)
        except Exception as exc:  # a failed fit is counted, it never ends the run
            failure, fit = f"{type(exc).__name__}: {exc}", None
        seconds = time.perf_counter() - t0
        if kind == "fit_resonance":
            fit_seconds += seconds
        if fit is None:
            run.op(pass_index, label, seconds, failure)
            continue
        failure = None
        if kind == "fit_tls":
            errors["tls_err_p50"].append(rel_err(fit.delta_tls, inputs.TLS_TRUTH["delta_tls"]))
            if fit.delta_lp - fit.delta_hp != fit.delta_tls:
                failure = "delta_lp - delta_hp differs from delta_tls"
        elif noisy:
            errors["qi_err_p50"].append(rel_err(fit.Qi, inputs.true_qi(p)))
        else:
            worst = max(abs(getattr(fit, n) - p[n]) / max(abs(p[n]), floor)
                        for n, floor in inputs.FIT_ERR_FLOORS.items())
            errors["fit_err_max"].append(worst)
            if worst > 1e-4:
                failure = f"noiseless relative error {worst:.3g} is above 1e-4"
        run.op(pass_index, label, seconds, failure, wrong=failure is not None)
    return fit_seconds, errors


# -------------------------------------------------------------- metrics

def tail(values):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples no percentile from the median
    up qualifies; then the maximum, as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        index = math.ceil(p / 100.0 * n) - 1
        if n - index - 1 >= TAIL_BEYOND:
            return xs[index], p, n
    return xs[-1], 100, n


def end_to_end(run):
    """{name: (value, unit, note)} of every end-to-end metric of the run."""
    times = [op[2] for op in run.ops]
    value, p, n = tail(times)
    out = {
        "setup_s": (statistics.median(run.setup), "s", f"median of {len(run.setup)}"),
        "wall_s": (statistics.median(run.walls), "s", f"median of {len(run.walls)} passes"),
        "op_p50_s": (statistics.median(times), "s", f"n={len(times)}"),
        "op_tail_s": (value, "s", f"p{p}, n={n}"),
        "peak_rss_mb": (max(run.rss_mb), "MB", f"max over {len(run.rss_mb)} processes"),
        "fail_frac": (run.failed / len(run.ops), "ratio", f"{run.failed} of {len(run.ops)}"),
    }
    for name, (value, unit, count) in run.detail.items():
        out[name] = (value, unit, f"n={count}")
    return out


def per_layer(run, overhead, start_s):
    """{name: (value, unit, note)} of every per-layer metric, from the span files."""
    import tracing

    totals, calls, counts, absent = {}, {}, {}, set()
    for path in run.traced:
        data = read_json(path)
        for name, (total, own) in tracing.summarize(data["spans"]).items():
            entry = totals.setdefault(name, [0.0, 0.0])
            entry[0] += total
            entry[1] += own
        for span in data["spans"]:
            calls[span[0]] = calls.get(span[0], 0) + 1
        for key, n in data["counts"].items():
            counts[key] = counts.get(key, 0) + n
        absent.update(data["absent"])
    out = {"python.start_s": (start_s, "s", "median of 5 `python -c pass`"),
           "trace.overhead_s": (overhead, "s", "traced minus untraced wall_s")}
    for name in tracing.span_names():
        note = "absent at this commit" if name in absent else ""
        total, own = totals.get(name, (0.0, 0.0))
        out[f"{name}_s"] = (total, "s", note)
        out[f"{name}.self_s"] = (own, "s", note)
        out[f"{name}.calls"] = (calls.get(name, 0), "count", note)
    for func in tracing.LSQ_CALLERS:
        out[f"lsq.{func}.nfev"] = (counts.get(f"lsq.{func}.nfev", 0), "count", "")
    for key, unit in (("dataio.parse_sweep_file.rows", "count"),
                      ("dataio.write_report.bytes", "bytes"),
                      ("dataio.write_sweep_file.bytes", "bytes"),
                      ("circlefit.fit_resonance.failed", "count")):
        out[key] = (counts.get(key, 0), unit, "")
    return out


def python_start_s():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([PYTHON, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata_block(start_s):
    lines = 0
    for path in glob.glob(os.path.join(SRC, "cpwloss", "**", "*.py"), recursive=True):
        with open(path) as fh:
            lines += sum(1 for line in fh if line.strip())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "src_lines": lines, "python.start_s": round(start_s, 6)}


# ----------------------------------------------------------------- main

def run_workload(workload, seed, seconds, trace, start_s):
    run = Run(workload, seed, trace)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(os.path.join(run.work, "logs"))
    os.makedirs(os.path.join(run.work, "spans"))
    try:
        if workload == "batch":
            overhead = run_batch(run, seconds)
        else:
            overhead = run_cli_workload(run, seconds)
        metrics = per_layer(run, overhead, start_s) if trace else end_to_end(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    return run, metrics


def print_report(run, metrics, meta):
    print(f"== {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"passes {len(run.walls) + (1 if run.trace else 0)}  operations {len(run.ops)}")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
    print(f"failed operations: {run.failed} of {len(run.ops)}")
    grouped = {}
    for pass_index, label, _, failure in run.ops:
        if failure:
            key = f"{label.split(' ')[0]}: {failure[:160]}"
            grouped.setdefault(key, []).append(f"{pass_index}:{label}")
    for key, where in grouped.items():
        print(f"  {len(where)} x {key}")
    print("checks:")
    for note in run.notes:
        print(f"  {note}")
    print(f"  outputs correct where the operation succeeded: {not run.wrong}")
    for wrong in run.wrong:
        print(f"    {wrong}")
    print("detail " + json.dumps({k: {"value": v, "unit": u, "samples": note}
                                  for k, (v, u, note) in metrics.items()}))
    sys.stdout.flush()


def result_line(run, metrics, names):
    return json.dumps({
        "correct": not run.wrong,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["walk", "wideband", "batch", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "cpwloss", "__init__.py")):
        print(f"perfbench: no cpwloss package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    start_s = python_start_s()
    meta = metadata_block(start_s)
    workloads = ["walk", "wideband", "batch"] if args.workload == "all" else [args.workload]
    for workload in workloads:
        run, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace), start_s)
        print_report(run, metrics, meta)
        names = list(metrics) if args.trace else [name for name, _ in END_TO_END]
        print(result_line(run, metrics, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
