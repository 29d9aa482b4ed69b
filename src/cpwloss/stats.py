"""Robust summary statistics for grouped resonator results.

Box summaries use the linear-interpolation quartile convention
(quantile position p*(n-1)) and Tukey fences at 1.5*IQR. Whiskers are
drawn to the most extreme data point still inside the fences, so every
input value lands either inside the whisker span or in the outlier
list, never both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def median(values):
    """np.median of a non-empty float sequence to the bit, without the
    numpy.ma import (11-17 ms of a command's start) that np.median makes."""
    a = np.asarray(values, dtype=float).ravel()
    k = a.size // 2
    part = np.partition(a, [k - 1 + a.size % 2, k, -1])
    mid = part[k] if a.size % 2 else (part[k - 1] + part[k]) / 2
    return np.nan if np.isnan(part[-1]) else float(mid)


def _quantile(ordered, q):
    """np.quantile(a, q) to the bit, read off the sorted sample: linear
    interpolation at position q*(n-1), without the numpy.ma import that
    np.quantile makes."""
    pos = (ordered.size - 1) * q
    i = int(pos)
    lo, hi = ordered[i], ordered[min(i + 1, ordered.size - 1)]
    t = pos - i
    return hi - (hi - lo) * (1.0 - t) if t >= 0.5 else lo + (hi - lo) * t


@dataclass(frozen=True)
class BoxSummary:
    n: int
    median: float
    q1: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float
    whisker_low: float
    whisker_high: float
    outliers: tuple = ()


def box_summary(values):
    """Five-number box summary with 1.5*IQR outlier fences.

    values: sequence of finite floats, n >= 1. Quartiles interpolate
    linearly at position p*(n-1) in the sorted sample (so a single
    value is its own median and both quartiles).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("box_summary needs a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DataError("box_summary: values must be finite")

    ordered = np.sort(arr)
    q1, med, q3 = (_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    # quartiles are interpolated between data points, so they always sit
    # inside the fences and `inside` cannot be empty
    outliers = ordered[(ordered < lo_fence) | (ordered > hi_fence)]
    return BoxSummary(
        n=int(arr.size),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(iqr),
        lower_fence=float(lo_fence),
        upper_fence=float(hi_fence),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=tuple(float(x) for x in outliers),
    )


@dataclass(frozen=True)
class GroupedStats:
    """Box summaries per full process key plus one-factor marginals."""

    by_key: dict
    by_etch: dict
    by_strip: dict
    by_depo: dict


def group_by_process(results):
    """Group (ProcessKey, value) pairs and summarize each group.

    results: iterable of (key, value) where key has .depo/.etch/.strip
    attributes (a dataio.ProcessKey) and value is a finite float, e.g. a
    fitted TLS loss tangent. Returns BoxSummary maps for the full key
    and for the etch-only, strip-only and depo-only marginals. Empty
    input gives empty maps.
    """
    full, etch, strip, depo = {}, {}, {}, {}
    for key, value in results:
        full.setdefault(key, []).append(value)
        etch.setdefault(key.etch, []).append(value)
        strip.setdefault(key.strip, []).append(value)
        depo.setdefault(key.depo, []).append(value)
    summarize = lambda d: {k: box_summary(v) for k, v in d.items()}
    return GroupedStats(
        by_key=summarize(full),
        by_etch=summarize(etch),
        by_strip=summarize(strip),
        by_depo=summarize(depo),
    )


@dataclass(frozen=True)
class MedianComparison:
    ratio: float  # median(a) / median(b)
    lower: str  # "a", "b" or "equal"
    median_a: float
    median_b: float


def compare_medians(a, b):
    """Compare two BoxSummary medians: ratio a/b and which sits lower.

    A zero median in b makes the ratio undefined and raises.
    """
    med_a, med_b = a.median, b.median
    if med_b == 0.0:
        raise DataError("compare_medians: median of b is zero, ratio undefined")
    if med_a < med_b:
        lower = "a"
    elif med_b < med_a:
        lower = "b"
    else:
        lower = "equal"
    return MedianComparison(ratio=med_a / med_b, lower=lower,
                            median_a=med_a, median_b=med_b)
