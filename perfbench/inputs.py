"""Inputs of the benchmark workloads, made from the workload seed.

Run as a script, it makes one workload's inputs in a fresh process, the
way a user's script would, and that run is the workload's set-up time:

    PYTHONPATH=src python3 perfbench/inputs.py walk|wideband|batch OUT_DIR SEED [SPANS_JSON]

For walk and wideband it writes the input files and expected.json, the
values the checks compare against. For batch it builds the fit calls in
memory only: the batch workload runs in one process with no files and
calls batch_corpus() itself. With SPANS_JSON it also records spans
around the cpwloss calls it makes (see tracing.py).

Seed 0 reproduces the fixed seeds of the README and the acceptance
tests; every other seed shifts them, so each seed gives its own inputs.
"""

import json
import math
import os
import sys

import numpy as np

# Noiseless fits are scored with these floors, as in the acceptance test.
FIT_ERR_FLOORS = {"fr": 1.0, "Ql": 1e-3, "Qc_mag": 1e-3, "phi": 1e-9,
                  "a": 1e-9, "alpha": 1e-9, "tau": 1e-15}
TLS_TRUTH = {"delta_tls": 2.4e-6, "n_c": 17.0, "beta": 0.42, "delta_hp": 2.9e-7}
SEED_STRIDE = 100000
BATCH_DRAWS = 40
BATCH_TLS_SERIES = 20
WIDEBAND_RESONATORS = 40
# The README feedline puts 72001 points on 1.96 GHz; wideband keeps that step.
DEMO_STEP_HZ = 1.96e9 / 72000


def draw_notch_params(rng):
    """One random notch-resonator parameter set over the full design range.

    The acceptance test's draw, kept here so the benchmark does not
    import from tests/.
    """
    while True:
        ql = 10 ** rng.uniform(4.0, np.log10(5e5))
        qc = 10 ** rng.uniform(np.log10(2e4), 6.0)
        phi = rng.uniform(-0.5, 0.5)
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


def true_qi(p):
    return 1.0 / (1.0 / p["Ql"] - math.cos(p["phi"]) / p["Qc_mag"])


def batch_corpus(seed):
    """The fit calls of the batch workload, in the order they run.

    The resonator parameters are the acceptance draw (rng 1), the same
    for every seed, so each seed meets the same mix of well- and
    ill-conditioned resonators; the seed draws the noise. Noiseless,
    noisy and TLS fits alternate, so every kind of call is sampled over
    the whole pass. Returns a list of ("fit_resonance", label, params,
    sweep, noisy) and ("fit_tls", label, points) items.
    """
    from cpwloss import circlefit, tlsloss

    rng = np.random.default_rng(1)
    params = [draw_notch_params(rng) for _ in range(BATCH_DRAWS)]
    n = np.geomspace(1e-2, 1e5, 20)
    clean = tlsloss.eval_tls_model(n, **TLS_TRUTH)
    calls = []
    for k, p in enumerate(params):
        freqs = circlefit.default_frequencies(p["fr"], p["Ql"])
        for noisy in (False, True):
            sweep = circlefit.synthesize_notch(
                **p, frequencies=freqs, noise_sigma=1e-3 if noisy else 0.0,
                seed=1000 + k + SEED_STRIDE * seed if noisy else None)
            label = f"{'noisy' if noisy else 'noiseless'} {k}"
            calls.append(("fit_resonance", label, p, sweep, noisy))
        j, rest = divmod(k, BATCH_DRAWS // BATCH_TLS_SERIES)
        if rest == 0:
            noise_rng = np.random.default_rng(j + SEED_STRIDE * seed)
            d = clean * (1.0 + 0.03 * noise_rng.standard_normal(n.size))
            points = [tlsloss.LossPoint(n_photon=float(a), delta=float(b))
                      for a, b in zip(n, d)]
            calls.append(("fit_tls", f"series {j}", points))
    return calls


def wideband_resonators(seed):
    """40 notch resonators 200 MHz apart from 4 GHz, drawn from the seed.

    Ql/|Qc| stays in [0.4, 0.9]: below 1, so every internal Q is
    positive, and above 0.4, so every dip is deeper than the 3 dB that
    scan looks for. synth.default_feedline_resonators cannot be used:
    its Ql/|Qc| = 0.5 + 0.03k reaches 1 at k = 17.
    """
    rng = np.random.default_rng(seed)
    resonators = []
    for k in range(WIDEBAND_RESONATORS):
        ql = 10 ** rng.uniform(np.log10(1.5e4), np.log10(4e4))
        ratio = rng.uniform(0.4, 0.9)
        resonators.append({
            "fr": 4.0e9 + k * 200e6,
            "Ql": ql,
            "Qc_mag": ql / ratio,
            "phi": rng.uniform(-0.1, 0.1),
            "resonator_id": f"R{k}",
        })
    return resonators


def write_wideband(out_dir, seed):
    from cpwloss import dataio, synth

    resonators = wideband_resonators(seed)
    for r in resonators:
        r["Qi"] = true_qi(r)
        if not r["Qi"] > 0:
            raise SystemExit(f"inputs: resonator {r['resonator_id']} has Qi {r['Qi']}")
    frs = [r["fr"] for r in resonators]
    margin = 0.1 * (max(frs) - min(frs) + 200e6)  # synthesize_feedline's default
    npoints = int(round((max(frs) - min(frs) + 2 * margin) / DEMO_STEP_HZ)) + 1
    sweep, truth = synth.synthesize_feedline(
        resonators, npoints=npoints, noise_sigma=0.0005, seed=4321 + seed)
    dataio.write_sweep_file(os.path.join(out_dir, "feedline.dat"), sweep)
    truth["npoints"] = npoints
    return truth


def write_walk(out_dir, seed):
    """Files the README's other commands read, which synth does not make."""
    from cpwloss import dataio, filmchar, lossbudget

    rng = np.random.default_rng(seed)

    def draw_losses():
        return lossbudget.InterfaceLosses(
            delta_sa=10 ** rng.uniform(-3.3, -2.7), delta_ma=10 ** rng.uniform(-3.3, -2.7),
            delta_ms=10 ** rng.uniform(-3.3, -2.7), delta_si=10 ** rng.uniform(-7.3, -6.7))

    table = lossbudget.load_builtin_table()
    forward = draw_losses()
    with open(os.path.join(out_dir, "losses.cfg"), "w") as fh:
        for name in lossbudget.LOSS_NAMES:
            fh.write(f"{name}={getattr(forward, name)!r}\n")

    measured = draw_losses()
    trenches = [0.0, 25.0, 50.0, 75.0, 100.0]
    deltas = [lossbudget.forward_loss(lossbudget.interpolate(table, t), measured)
              for t in trenches]
    with open(os.path.join(out_dir, "measured.dat"), "w") as fh:
        fh.write("trench_nm delta\n")
        for t, d in zip(trenches, deltas):
            fh.write(f"{t} {d!r}\n")

    sites = ("c", "n", "ne", "e", "se", "s", "sw", "w", "nw")
    maps = [dataio.SheetMap(wafer_id=f"W{k}", sites=sites,
                            r_square_ohm_sq=np.round(rng.uniform(10.0, 14.0, 9), 4))
            for k in range(3)]
    dataio.write_sheet_file(os.path.join(out_dir, "maps.dat"), maps)
    mean = float(np.mean(np.concatenate([m.r_square_ohm_sq for m in maps])))
    return {
        "forward_delta_tls": lossbudget.forward_loss(
            lossbudget.interpolate(table, 50.0), forward),
        "decompose_deltas": deltas,
        "sheet_mean_ohm_sq": mean,
        "resistivity_uohm_cm": filmchar.resistivity(mean, 60.0),
    }


def main(argv):
    workload, out_dir, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if len(argv) > 3:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if workload == "batch":
            batch_corpus(seed)
            return
        writer = {"walk": write_walk, "wideband": write_wideband}[workload]
        expected = writer(out_dir, seed)
    finally:
        if tracer is not None:
            tracer.write(argv[3])
    with open(os.path.join(out_dir, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
