"""synth's photon-number bisection, its numpy replacement for scipy's
expit with scipy as the reference, and the feedline generator."""

import tracemalloc

import numpy as np
import pytest
import scipy.special

from cpwloss import dataio, synth
from cpwloss.circlefit import notch_model
from cpwloss.errors import FitError
from cpwloss.tlsloss import HBAR, chip_power_watt, eval_tls_model


def photon_number_inputs(rng):
    """Keyword arguments of one random solve_photon_number call."""
    return {
        "p_chip_w": chip_power_watt(rng.uniform(-130.0, 10.0), rng.uniform(0.0, 80.0)),
        "fr": 10 ** rng.uniform(9.0, 10.0),
        "qc_mag": 10 ** rng.uniform(3.0, 7.0),
        "phi": rng.uniform(-0.5, 0.5),
        "delta_tls": 10 ** rng.uniform(-7.0, -4.0),
        "n_c": 10 ** rng.uniform(-1.0, 4.0),
        "beta": rng.uniform(0.1, 1.0),
        "delta_hp": 10 ** rng.uniform(-8.0, -5.0),
    }


def test_photon_number_is_a_fixed_point():
    # the bisection ends on two adjacent floats across which
    # g(n) = n - coef * Ql(delta(n))^2 changes sign, so n is within one
    # ulp of a root and its residual within one ulp of n
    rng = np.random.default_rng(31)
    for _ in range(1000):
        kw = photon_number_inputs(rng)
        n = synth.solve_photon_number(**kw)
        coef = (2.0 / (HBAR * (2.0 * np.pi * kw["fr"]) ** 2)) * kw["p_chip_w"] / kw["qc_mag"]

        def g(x):
            delta = eval_tls_model(x, kw["delta_tls"], kw["n_c"], kw["beta"], kw["delta_hp"])
            return x - coef * synth.loaded_q(delta, kw["qc_mag"], kw["phi"]) ** 2

        below, above = np.nextafter(n, -np.inf), np.nextafter(n, np.inf)
        assert g(below) < 0.0 <= g(n) or g(n) < 0.0 <= g(above), kw
        assert abs(g(n)) <= np.spacing(n), kw


def test_unbracketed_photon_number_is_a_fit_error():
    # a NaN loss gives g no sign at either end of [0, n_hi]
    kw = photon_number_inputs(np.random.default_rng(31))
    with pytest.raises(FitError, match="photon number not bracketed"):
        synth.solve_photon_number(**dict(kw, delta_tls=float("nan")))


def test_logistic_within_one_ulp_of_expit():
    z = np.concatenate([np.linspace(-800.0, 800.0, 20001),
                        np.random.default_rng(5).normal(0.0, 20.0, 20000)])
    ours, theirs = synth.logistic(z), scipy.special.expit(z)
    assert np.all(ours >= np.nextafter(theirs, -np.inf))
    assert np.all(ours <= np.nextafter(theirs, np.inf))


def wideband_comb(seed, n_res=40):
    """A comb drawn like the benchmark's wideband feedline: dips 200 MHz
    apart from 4 GHz, Ql log-uniform in 1.5e4-4e4, Ql/|Qc| in 0.4-0.9
    and |phi| <= 0.1."""
    rng = np.random.default_rng(seed)
    comb = []
    for k in range(n_res):
        ql = 10 ** rng.uniform(np.log10(1.5e4), np.log10(4e4))
        comb.append({"fr": 4.0e9 + k * 200e6, "Ql": ql,
                     "Qc_mag": ql / rng.uniform(0.4, 0.9),
                     "phi": rng.uniform(-0.1, 0.1), "resonator_id": f"R{k}"})
    return comb


@pytest.mark.parametrize("seed, comb, npoints", [
    pytest.param(0, None, 20001, id="0"),
    pytest.param(42, None, 20001, id="42"),
    pytest.param(3, wideband_comb(3), 100001, id="wideband_comb"),
    # three whole product blocks and a short fourth one
    pytest.param(7, wideband_comb(7), 3 * synth._FEEDLINE_BLOCK + 7, id="blocks_and_a_part"),
])
def test_feedline_bytes_match_one_environment_per_resonator(seed, comb, npoints):
    # the trace as it was built before the bare dips: each factor a full
    # notch_model with a unit environment, z on the left of every product.
    # 20001 points (320 kB) is above numpy's 256 KiB temporary-elision
    # threshold, where `z * (1.0 - _dip(...))` can reuse the temporary with
    # its operands swapped; complex products are not bitwise commutative
    resonators = comb or synth.default_feedline_resonators()
    sweep, _ = synth.synthesize_feedline(resonators, npoints=npoints,
                                         noise_sigma=5e-4, seed=seed)
    f = sweep.frequency_hz
    a, alpha, tau = 1.0, 0.3, 40e-9
    z = np.ones_like(f, dtype=complex)
    for r in resonators:
        dip = notch_model(f, r["fr"], r["Ql"], r["Qc_mag"], r["phi"],
                          a=1.0, alpha=0.0, tau=0.0)
        z = z * dip
    z = z * a * np.exp(1j * (alpha - 2.0 * np.pi * f * tau))
    rng = np.random.default_rng(seed)
    z = z + 5e-4 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    assert sweep.s21.tobytes() == z.tobytes()


# bytes of one feedline trace of 150,001 points: f and s21, 24 B per point
FEEDLINE_BYTES = 150_001 * 24


def test_feedline_peak_memory():
    # the trace, its noise buffer and one block's temporaries: 1.38x the
    # trace, where a whole-trace environment, a complex noise draw and
    # the sweep's frozen copies of f and s21 took 2.37x. A first call
    # imports numpy.random, whose modules tracemalloc would count
    synth.synthesize_feedline(npoints=101, noise_sigma=5e-4, seed=3)
    tracemalloc.start()
    try:
        synth.synthesize_feedline(npoints=150_001, noise_sigma=5e-4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * FEEDLINE_BYTES


def test_feedline_write_peak_memory(tmp_path):
    # the sweep itself plus one chunk of rows and its text: 1.11x the
    # trace at 2,048 rows per chunk, against 1.42x at 8,192
    tracemalloc.start()
    try:
        sweep, _ = synth.synthesize_feedline(npoints=150_001, noise_sigma=5e-4, seed=3)
        tracemalloc.reset_peak()
        dataio.write_sweep_file(tmp_path / "feedline.dat", sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * FEEDLINE_BYTES


@pytest.mark.parametrize("tc, t_min", [(4.7, 2.0), (2.5, 0.3), (15.3, 1.1)])
def test_rt_grid_is_numpy_unique(tc, t_min):
    # the two segments share tc + 3 K, which the grid holds once
    expected = np.unique(np.concatenate([np.linspace(t_min, tc + 3.0, 561),
                                         np.linspace(tc + 3.0, 300.0, 240)]))
    t = synth.synthesize_rt(tc=tc, t_min=t_min)[0].temperature_k
    assert t.size == 800
    assert t.tobytes() == expected.tobytes()
