"""Means and 95% confidence intervals.

The paper reports every measurement with a 95% confidence interval
(Student's t over 10 trials); :func:`mean_confidence_interval` reproduces
that computation.
"""

import math


def t_critical(confidence, df):
    """Two-sided Student-t critical value: P(|T| <= t) == ``confidence``.

    Inverts the finite series for P(|T| <= t) in theta = atan(t / sqrt(df))
    (Abramowitz & Stegun 26.7.3 for odd ``df``, 26.7.4 for even) by
    bisection on theta over (0, pi/2).  ``df`` is a positive integer.
    """
    ratios = [k / (k + 1) for k in range(1 + df % 2, df - 2, 2)]

    def coverage(theta):
        cos2 = math.cos(theta) ** 2
        term = total = 1.0
        for ratio in ratios:
            term *= ratio * cos2
            total += term
        if df % 2 == 0:
            return math.sin(theta) * total
        tail = math.sin(theta) * math.cos(theta) * total if df > 1 else 0.0
        return 2.0 / math.pi * (theta + tail)

    lo, hi = 0.0, math.pi / 2.0
    mid = hi / 2.0
    while lo < mid < hi:
        if coverage(mid) < confidence:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
    return math.sqrt(df) * math.tan(mid)


def mean_confidence_interval(values, confidence=0.95):
    """Return ``(mean, half_width)`` of the two-sided CI for ``values``.

    With fewer than two samples the half-width is 0 (no spread estimate).
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    return mean, t_critical(confidence, n - 1) * sem


class Aggregate:
    """Mean ± CI over a set of trial values for one metric."""

    __slots__ = ("values", "mean", "ci")

    def __init__(self, values, confidence=0.95):
        self.values = list(values)
        self.mean, self.ci = mean_confidence_interval(self.values, confidence)

    def overlaps(self, other):
        """Statistically indistinguishable (overlapping CIs)?

        The paper uses this reading ("statistically identical ...
        overlapping confidence intervals").
        """
        lo_a, hi_a = self.mean - self.ci, self.mean + self.ci
        lo_b, hi_b = other.mean - other.ci, other.mean + other.ci
        return lo_a <= hi_b and lo_b <= hi_a

    def __repr__(self):
        return "{:.4g} ± {:.3g}".format(self.mean, self.ci)
