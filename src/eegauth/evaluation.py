"""Confusion metrics, Cohen's kappa, cohort summaries, and location tests.

The statistics here back the per-cohort report: per-user sensitivity,
specificity, accuracy, and kappa, plus a normality-gated comparison of each
metric column against chance (Shapiro-Wilk deciding between the one-sample
t test and the one-sample Wilcoxon signed-rank test).

The tests need the normal distribution and Student's t tail, which are
computed here with the standard library (math.erfc, statistics.NormalDist
and a continued fraction) to within 1e-12 relative of scipy's special
functions.  Each upper tail is computed directly, never as 1 - CDF, so that
a tiny p-value keeps its relative accuracy instead of reading 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

METRIC_COLUMNS = ("tpr", "fpr", "tnr", "fnr", "accuracy", "kappa")


@dataclass(frozen=True)
class ConfusionCounts:
    """Grant/deny counts for genuine and impostor attempts."""

    genuine_granted: int
    genuine_denied: int
    impostor_granted: int
    impostor_denied: int

    def __post_init__(self):
        for name in ("genuine_granted", "genuine_denied",
                     "impostor_granted", "impostor_denied"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")

    @classmethod
    def from_predictions(cls, truth, predicted) -> "ConfusionCounts":
        """Count per-row outcomes; in both arrays 1.0 marks genuine."""
        genuine = np.asarray(truth) == 1.0
        granted = np.asarray(predicted) == 1.0
        return cls(int((genuine & granted).sum()), int((genuine & ~granted).sum()),
                   int((~genuine & granted).sum()), int((~genuine & ~granted).sum()))

    @property
    def total(self) -> int:
        return (self.genuine_granted + self.genuine_denied
                + self.impostor_granted + self.impostor_denied)


@dataclass(frozen=True)
class MetricsReport:
    tpr: float
    fpr: float
    tnr: float
    fnr: float
    accuracy: float
    kappa: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_COLUMNS}


@dataclass(frozen=True)
class CohortReport:
    rows: tuple[MetricsReport, ...]
    mean: MetricsReport
    sd: MetricsReport


@dataclass(frozen=True)
class StatTestResult:
    test: str
    statistic: float
    p_value: float
    n: int
    null_value: Optional[float] = None
    normality: Optional["StatTestResult"] = None


def metrics(c: ConfusionCounts) -> MetricsReport:
    """Confusion-derived rates plus Cohen's kappa (marginal-product chance)."""
    n_genuine = c.genuine_granted + c.genuine_denied
    n_impostor = c.impostor_granted + c.impostor_denied
    if n_genuine == 0 or n_impostor == 0:
        raise ValidationError("both genuine and impostor totals must be positive")
    total = c.total
    tpr = c.genuine_granted / n_genuine
    fnr = c.genuine_denied / n_genuine
    fpr = c.impostor_granted / n_impostor
    tnr = c.impostor_denied / n_impostor
    accuracy = (c.genuine_granted + c.impostor_denied) / total
    granted = c.genuine_granted + c.impostor_granted
    denied = c.genuine_denied + c.impostor_denied
    p_chance = (n_genuine * granted + n_impostor * denied) / (total * total)
    if p_chance == 1.0:
        kappa = 1.0 if accuracy == 1.0 else 0.0
    else:
        kappa = (accuracy - p_chance) / (1.0 - p_chance)
    return MetricsReport(tpr, fpr, tnr, fnr, accuracy, kappa)


def cohort_report(counts) -> CohortReport:
    """Per-user metrics, in input order, plus column means and sample SDs (ddof=1)."""
    reports = tuple(metrics(c) for c in counts)
    if not reports:
        raise ValidationError("cohort report needs at least one row")
    columns = {name: np.array([getattr(r, name) for r in reports])
               for name in METRIC_COLUMNS}
    mean = MetricsReport(**{k: float(v.mean()) for k, v in columns.items()})
    ddof = 1 if len(reports) > 1 else 0
    sd = MetricsReport(**{k: float(v.std(ddof=ddof)) for k, v in columns.items()})
    return CohortReport(reports, mean, sd)


# --- Shapiro-Wilk (Royston 1995 approximation) ---------------------------------

_SW_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)            # mu of g(W), n <= 11
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)          # log sigma, n <= 11
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)         # mu of log(1-W), n >= 12
_SW_C6 = (-0.4803, -0.082676, 0.0030302)                   # log sigma, n >= 12


def _poly(coeffs, x):
    out = 0.0
    for c in coeffs:
        out = out * x + c
    return out


def _finite_sample(values, null_value: float = 0.0) -> np.ndarray:
    """values as a float array.  A NaN or infinite value or null value
    raises: the tests would otherwise rank, sum or compare it silently (a
    NaN difference passes `d != 0` but never `d > 0`)."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("values must all be finite")
    if not math.isfinite(null_value):
        raise ValidationError(f"null_value must be finite, got {null_value}")
    return x


def _normal_sf(z: float) -> float:
    """P(Z >= z) for a standard normal Z, computed as an upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_scores(n: int) -> np.ndarray:
    """Royston's m: the standard normal quantiles of (i - 3/8) / (n + 1/4),
    i = 1..n."""
    # imported here, as only evaluate-cohort needs it
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])


def shapiro_wilk(values) -> StatTestResult:
    """W statistic and upper-tail p-value for normality, 3 <= n <= 5000."""
    x = np.sort(_finite_sample(values))
    n = x.size
    if n < 3 or n > 5000:
        raise ValidationError(f"shapiro_wilk supports 3 <= n <= 5000, got {n}")
    if x[0] == x[-1]:
        raise ValidationError("all values equal")

    m = _normal_scores(n)
    mm = float(m @ m)
    c = m / math.sqrt(mm)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    if n <= 5:
        a_n = c[-1] + _poly(_SW_C1[:-1], u) * u
        phi = (mm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
        # n == 3 leaves only the (exactly zero) median weight in the middle
        a[1:-1] = m[1:-1] / math.sqrt(phi) if phi > 0 else 0.0
        a[-1], a[0] = a_n, -a_n
    else:
        a_n = c[-1] + _poly(_SW_C1[:-1], u) * u
        a_n1 = c[-2] + _poly(_SW_C2[:-1], u) * u
        phi = ((mm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2)
               / (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2))
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
        a[-2], a[1] = a_n1, -a_n1

    xc = x - x.mean()
    w = float((a @ x) ** 2 / (xc @ xc))
    w = min(w, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return StatTestResult("shapiro_wilk", w, p, n)
    if n <= 11:
        gamma = 0.459 * n - 2.273
        g = -math.log(gamma - math.log1p(-w))
        mu = _poly(_SW_C3[::-1], n)
        sigma = math.exp(_poly(_SW_C4[::-1], n))
        z = (g - mu) / sigma
    else:
        ln_n = math.log(n)
        g = math.log1p(-w)
        mu = _poly(_SW_C5[::-1], ln_n)
        sigma = math.exp(_poly(_SW_C6[::-1], ln_n))
        z = (g - mu) / sigma
    return StatTestResult("shapiro_wilk", w, _normal_sf(z), n)


# --- one-sample location tests --------------------------------------------------

def t_one_sample(values, null_value: float) -> StatTestResult:
    """Two-sided one-sample t test of the mean against null_value."""
    x = _finite_sample(values, null_value)
    n = x.size
    if n < 2:
        raise ValidationError("t test needs n >= 2")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ValidationError("sample standard deviation is zero")
    t = float((x.mean() - null_value) / (sd / math.sqrt(n)))
    return StatTestResult("t_one_sample", t, _t_two_sided_p(n - 1, t), n,
                          null_value=null_value)


def _t_two_sided_p(df: int, t: float) -> float:
    """P(|T| >= |t|) for Student's T with `df` degrees of freedom.

    That is I_x(df/2, 1/2), x = df / (df + t^2), from its continued
    fraction.  Where x is too close to 1 for the fraction to converge fast,
    it is 1 - I_{1-x}(1/2, df/2); the tail is above 0.08 there, so the
    subtraction keeps its relative accuracy.
    """
    s = abs(t) / math.sqrt(df)
    if not 0.0 < s < math.inf:  # t = 0 has tail 1, an infinite t 0, a NaN t NaN
        return 1.0 if s == 0.0 else 0.0 if s == math.inf else math.nan
    # with r = min(s, 1/s), x and 1 - x are r^2 / (1 + r^2) and 1 / (1 + r^2)
    # in one order or the other, and neither overflows
    r = min(s, 1.0 / s)
    small = (r * r / (1.0 + r * r), 2.0 * math.log(r) - math.log1p(r * r))
    large = (1.0 / (1.0 + r * r), -math.log1p(r * r))
    (x, log_x), (y, log_y) = (large, small) if s <= 1.0 else (small, large)
    a = df / 2.0
    # x^a (1-x)^(1/2) / B(a, 1/2), with 1 / B(a, 1/2) = Gamma(a + 1/2) /
    # (Gamma(a) sqrt(pi)) from its recurrence in df, exact to a few ulps
    front = math.exp(a * log_x + 0.5 * log_y) * math.prod(
        (v + 1) / v for v in range(2 - df % 2, df, 2)) / (math.pi if df % 2 else 2.0)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_fraction(0.5, a, y) / 0.5


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction F of I_x(a, b) = x^a (1-x)^b F / (a B(a, b)),
    by the modified Lentz method; it converges fast for x < (a+1) / (a+b+2)."""
    f, c, d = 1.0, 1.0, 0.0
    for k in range(1, 100_000):
        m = k // 2
        if k % 2:
            step = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            step = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        c, d = 1.0 + step / c, 1.0 / (1.0 + step * d)
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of values, each tie group sharing the mean of its ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each group's last member
    return (last - (counts - 1) / 2.0)[group]


_EXACT_LIMIT = 25


def _wilcoxon_exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p via the signed-rank distribution (ties mid-ranked).

    Doubling makes mid-ranks integral, so the null distribution of 2*W+ is a
    subset-sum count over the doubled ranks.
    """
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts = counts + shifted
    counts /= counts.sum()
    w2 = int(round(2.0 * w_plus))
    lower = counts[:w2 + 1].sum()
    upper = counts[w2:].sum()
    return float(min(1.0, 2.0 * min(lower, upper)))


def wilcoxon_one_sample(values, null_value: float) -> StatTestResult:
    """One-sample Wilcoxon signed-rank test; W is the positive-rank sum.

    Zero differences are dropped and ties share mid-ranks.  The p-value is
    exact for up to 25 nonzero differences and uses the tie-corrected normal
    approximation above that.
    """
    x = _finite_sample(values, null_value)
    d = x - null_value
    d = d[d != 0.0]
    m = d.size
    if m == 0:
        raise ValidationError("all differences from the null value are zero")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if m <= _EXACT_LIMIT:
        p = _wilcoxon_exact_p(ranks, w_plus)
    else:
        mean = m * (m + 1) / 4.0
        var = m * (m + 1) * (2 * m + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
        if var <= 0:
            raise ValidationError("tie structure leaves no variance")
        z = (w_plus - mean) / math.sqrt(var)
        p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return StatTestResult("wilcoxon_one_sample", w_plus, p, m, null_value=null_value)


def compare_to_chance(values, null_value: float = 0.5,
                      alpha: float = 0.05) -> StatTestResult:
    """Normality-gated location test against chance level.

    Runs Shapiro-Wilk first; samples that look normal (p > alpha) get the
    t test, the rest get the Wilcoxon signed-rank test.  The returned result
    names the branch taken and carries the normality result.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    x = _finite_sample(values, null_value)
    if x.size < 3:
        raise ValidationError("compare_to_chance needs n >= 3")
    normality = shapiro_wilk(x)
    if normality.p_value > alpha:
        result = t_one_sample(x, null_value)
    else:
        result = wilcoxon_one_sample(x, null_value)
    return StatTestResult(result.test, result.statistic, result.p_value,
                          result.n, null_value=result.null_value,
                          normality=normality)
