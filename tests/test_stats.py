"""Box summaries, grouping, and median comparison."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpwloss import stats
from cpwloss.dataio import ProcessKey
from cpwloss.errors import DataError


def quartiles_reference(values):
    """Independent quartile oracle: linear interpolation at p*(n-1).

    Deliberately avoids numpy so the test does not share code with the
    implementation.
    """
    s = sorted(values)
    n = len(s)

    def q(p):
        pos = p * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return s[lo] * (1 - frac) + s[hi] * frac

    return q(0.25), q(0.5), q(0.75)


def box_reference(values):
    q1, med, q3 = quartiles_reference(values)
    iqr = q3 - q1
    lof, hif = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in values if lof <= v <= hif]
    outliers = sorted(v for v in values if v < lof or v > hif)
    return {
        "median": med, "q1": q1, "q3": q3, "iqr": iqr,
        "lower_fence": lof, "upper_fence": hif,
        "whisker_low": min(inside), "whisker_high": max(inside),
        "outliers": outliers,
    }


FIXED_VECTORS = [
    [5.0],
    [1.0, 2.0],
    [3.0, 1.0],
    [1.0, 2.0, 3.0, 4.0],
    [1.0, 2.0, 3.0, 4.0, 100.0],
    [2.0, 2.0, 2.0, 2.0],
    [-5.0, 0.0, 5.0],
    [1.0, 1.0, 1.0, 50.0],
    [0.1, 0.2, 0.3, 0.4, 0.5],
    [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 19.0],
    list(range(1, 19)),
    [9.67e-7, 1.1e-6, 8.2e-7, 1.3e-6, 7.7e-7],
    [-1.0, -2.0, -3.0, -4.0, -50.0],
    [1e6, 2e6, 1.5e6, 1.2e6],
    [0.5, 0.5, 0.5, 0.5, 0.5, 10.0, -10.0],
    [42.0, 41.0],
    [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0],
    [100.0, 1.0, 2.0, 3.0, 2.5, 2.2, 1.8],
    [7.0, 7.0, 7.0, 7.0, 6.9],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
]


@pytest.mark.parametrize("values", FIXED_VECTORS)
def test_box_summary_matches_reference(values):
    ref = box_reference(values)
    b = stats.box_summary(values)
    assert b.n == len(values)
    for name in ("median", "q1", "q3", "iqr", "lower_fence", "upper_fence",
                 "whisker_low", "whisker_high"):
        assert getattr(b, name) == pytest.approx(ref[name], rel=1e-12, abs=1e-300), name
    assert sorted(b.outliers) == pytest.approx(ref["outliers"])


def test_box_summary_hand_values():
    # n=4: positions 0.75 / 1.5 / 2.25
    b = stats.box_summary([1.0, 2.0, 3.0, 4.0])
    assert b.q1 == pytest.approx(1.75)
    assert b.median == pytest.approx(2.5)
    assert b.q3 == pytest.approx(3.25)
    # single point: everything collapses
    b = stats.box_summary([5.0])
    assert (b.q1, b.median, b.q3) == (5.0, 5.0, 5.0)
    assert b.iqr == 0.0 and b.outliers == ()
    # a clear outlier
    b = stats.box_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert b.outliers == (100.0,)
    assert b.whisker_high == 4.0


def test_box_summary_rejects_bad_input():
    with pytest.raises(DataError):
        stats.box_summary([])
    with pytest.raises(DataError):
        stats.box_summary([1.0, np.nan])
    with pytest.raises(DataError):
        stats.box_summary([1.0, np.inf])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_box_summary_partitions_input(values):
    b = stats.box_summary(values)
    inside = [v for v in values if b.lower_fence <= v <= b.upper_fence]
    assert sorted(inside + list(b.outliers)) == sorted(values)
    assert b.q1 <= b.median <= b.q3
    assert b.lower_fence <= b.whisker_low <= b.whisker_high <= b.upper_fence


FLOAT_AFFINE = st.tuples(
    st.lists(st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
             min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-100.0, max_value=100.0))

# Integers in +-1e6, a power-of-two scale and an integer shift map exactly
# in binary floating point, and so do the quartiles (weights at p*(n-1) are
# multiples of 1/4) and the fences built from them.
EXACT_AFFINE = st.tuples(
    st.lists(st.integers(min_value=-10**6, max_value=10**6).map(float),
             min_size=2, max_size=30),
    st.integers(min_value=-3, max_value=3).map(lambda k: 2.0 ** k),
    st.integers(min_value=-100, max_value=100).map(float))


# Nine values put the quartiles on data points 2 and 6 (q1 = 0, q3 = 4,
# fences -6 and 10); each fence has a value one unit inside and one unit
# outside it. Exact maps of these catch a fence that is not equivariant.
FENCE_VECTOR = [-7.0, -5.0, 0.0, 0.0, 2.0, 4.0, 4.0, 9.0, 11.0]
FENCE_VECTOR_LOW = [v - 1000.0 for v in FENCE_VECTOR]


@settings(max_examples=100, deadline=None)
@given(FLOAT_AFFINE, EXACT_AFFINE)
@example((FENCE_VECTOR, 1.0, 0.0), (FENCE_VECTOR, 1.0, 100.0))
@example((FENCE_VECTOR, 1.0, 0.0), (FENCE_VECTOR, 0.25, -64.0))
@example((FENCE_VECTOR, 1.0, 0.0), (FENCE_VECTOR_LOW, 8.0, 100.0))
@example((FENCE_VECTOR, 1.0, 0.0), (FENCE_VECTOR_LOW, 0.125, 0.0))
def test_box_summary_affine_equivariance(inexact, exact):
    values, scale, shift = inexact
    b0 = stats.box_summary(values)
    b1 = stats.box_summary([scale * v + shift for v in values])
    assert b1.median == pytest.approx(scale * b0.median + shift, rel=1e-9, abs=1e-6)
    assert b1.iqr == pytest.approx(scale * b0.iqr, rel=1e-9, abs=1e-6)

    # Outlier membership is a sharp comparison, and rounding can move a
    # value across a fence (1e-140 + 1.0 == 1.0), so the count is checked
    # where the affine map is exact and any mismatch is a real miscount.
    values, scale, shift = exact
    b0 = stats.box_summary(values)
    b1 = stats.box_summary([scale * v + shift for v in values])
    assert len(b1.outliers) == len(b0.outliers)
    assert b1.outliers == tuple(scale * v + shift for v in b0.outliers)


def test_compare_medians_reported_ratio():
    # the two batch medians quoted for the best wet-etched vs baseline films
    a = stats.box_summary([9.67e-7] * 3)
    b = stats.box_summary([11.04e-7] * 3)
    cmp = stats.compare_medians(a, b)
    assert cmp.ratio == pytest.approx(0.8759, abs=1e-3)
    assert cmp.lower == "a"


def test_compare_medians_degenerate():
    a = stats.box_summary([1.0])
    z = stats.box_summary([0.0])
    with pytest.raises(DataError):
        stats.compare_medians(a, z)
    eq = stats.compare_medians(a, stats.box_summary([1.0]))
    assert eq.lower == "equal" and eq.ratio == 1.0


def test_group_by_process():
    k1 = ProcessKey("A", "HP", "HT")
    k2 = ProcessKey("B", "HP", "HT", "BOE")
    pairs = [(k1, 1.0), (k1, 2.0), (k1, 3.0), (k2, 10.0), (k2, 20.0)]
    g = stats.group_by_process(pairs)
    assert set(g.by_key) == {k1, k2}
    assert g.by_key[k1].median == 2.0
    assert g.by_key[k2].median == 15.0
    # marginals pool across the other factors
    assert g.by_depo["A"].n == 3
    assert g.by_depo["B"].n == 2
    assert g.by_etch["HP"].n == 5
    assert g.by_strip["HT"].n == 5


def test_group_by_process_empty():
    g = stats.group_by_process([])
    assert g.by_key == {} and g.by_etch == {} and g.by_strip == {} and g.by_depo == {}


@pytest.mark.parametrize("values", [
    [3.0], [2.0, -1.0], [5.0, 1.0, 4.0], [0.1, 0.7, 0.3, 0.2],
    [1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 1.0, 1.0, 2.0], [1e300, 1.7e308, -1e300, 1.7e308],
    [0.1, 0.2, float("nan"), 0.3],
], ids=["one", "two", "odd", "even", "even_ties", "odd_ties", "even_huge", "nan"])
def test_median_is_numpy_median(values):
    expected = np.median(values)
    got = stats.median(values)
    assert type(got) is float
    assert got == expected or (np.isnan(got) and np.isnan(expected))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40))
def test_median_is_numpy_median_on_any_sample(values):
    assert stats.median(values) == np.median(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40))
def test_box_quartiles_are_numpy_quantiles_on_any_sample(values):
    box = stats.box_summary(values)
    expected = np.quantile(values, [0.25, 0.5, 0.75])
    assert (box.q1, box.median, box.q3) == tuple(expected)
