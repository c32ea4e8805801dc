import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.special import ndtri

from eegauth.errors import ValidationError
from eegauth.evaluation import (
    _midranks,
    _normal_scores,
    ConfusionCounts,
    cohort_report,
    compare_to_chance,
    metrics,
    shapiro_wilk,
    t_one_sample,
    wilcoxon_one_sample,
)

# Published benchmark: per-user confusion counts of a 15-subject biometric
# study (genuine_granted, genuine_denied, impostor_granted, impostor_denied),
# with the accuracy/kappa values its table prints.
BENCHMARK_ROWS = [
    ("SS01", 500, 0, 0, 500, 1.000, 0.000, 1.000, 0.000, 100, 1.000),
    ("SS02", 436, 64, 16, 484, 0.872, 0.032, 0.968, 0.128, 92, 0.840),
    ("SS03", 493, 7, 25, 475, 0.986, 0.050, 0.950, 0.014, 97, 0.936),
    ("SS04", 420, 80, 49, 451, 0.840, 0.098, 0.902, 0.160, 87, 0.742),
    ("SS05", 474, 26, 7, 493, 0.948, 0.014, 0.986, 0.052, 97, 0.934),
    ("SS06", 450, 50, 8, 492, 0.900, 0.016, 0.984, 0.100, 94, 0.884),
    ("SS07", 475, 25, 9, 491, 0.950, 0.018, 0.982, 0.050, 97, 0.932),
    ("SS08", 476, 24, 14, 486, 0.952, 0.028, 0.972, 0.048, 96, 0.924),
    ("SS09", 469, 31, 8, 492, 0.938, 0.016, 0.984, 0.062, 96, 0.922),
    ("SS10", 482, 18, 7, 493, 0.964, 0.014, 0.986, 0.036, 98, 0.950),
    ("SS11", 466, 34, 9, 491, 0.932, 0.018, 0.982, 0.068, 96, 0.914),
    ("SS12", 472, 28, 6, 494, 0.944, 0.012, 0.988, 0.056, 97, 0.932),
    ("SS13", 465, 35, 8, 492, 0.930, 0.016, 0.984, 0.070, 96, 0.914),
    ("SS14", 478, 22, 0, 500, 0.956, 0.000, 1.000, 0.044, 98, 0.956),
    ("SS15", 451, 49, 8, 492, 0.902, 0.016, 0.984, 0.098, 94, 0.886),
]

BENCHMARK_COUNTS = [ConfusionCounts(r[1], r[2], r[3], r[4]) for r in BENCHMARK_ROWS]
BENCHMARK_ACCURACY = [(r[1] + r[4]) / 1000 for r in BENCHMARK_ROWS]
BENCHMARK_FPR = [r[3] / 500 for r in BENCHMARK_ROWS]
BENCHMARK_FNR = [r[2] / 500 for r in BENCHMARK_ROWS]

# Reference-implementation oracle for the normality test: (n, seed, shape) ->
# (W, p) computed once with scipy.stats.shapiro 1.15.3 and frozen here.
SHAPIRO_ORACLE = [
    (10, "normal", 0.8655592317502504, 0.08870316784701382),
    (15, "uniform", 0.8958471999175557, 0.0822600281517408),
    (30, "lognormal", 0.8413104454546738, 0.00041001493061810503),
    (100, "normal", 0.9913376202454287, 0.7714345119528727),
    (500, "mixture", 0.9519743516592668, 1.1303752751133614e-11),
]

# One-sample t of the benchmark FPR column against 0.5, frozen from
# scipy.stats.ttest_1samp 1.15.3.
T_FPR_ORACLE = -77.02737270835063


def oracle_sample(n, kind):
    rng = np.random.default_rng(90000 + n)
    if kind == "normal":
        return rng.normal(3.0, 2.0, n)
    if kind == "uniform":
        return rng.uniform(-1.0, 4.0, n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 0.6, n)
    return np.concatenate([rng.normal(0, 1, n // 2), rng.normal(4, 1, n - n // 2)])


class TestMetrics:
    @pytest.mark.parametrize("row", BENCHMARK_ROWS, ids=[r[0] for r in BENCHMARK_ROWS])
    def test_benchmark_rows_reproduced(self, row):
        _, tp, fn, fp, tn, tpr, fpr, tnr, fnr, acc_pct, kappa = row
        report = metrics(ConfusionCounts(tp, fn, fp, tn))
        assert report.tpr == pytest.approx(tpr, abs=5e-4)
        assert report.fpr == pytest.approx(fpr, abs=5e-4)
        assert report.tnr == pytest.approx(tnr, abs=5e-4)
        assert report.fnr == pytest.approx(fnr, abs=5e-4)
        assert round(report.accuracy * 100) == acc_pct
        assert report.kappa == pytest.approx(kappa, abs=5e-4)

    def test_rate_identities(self):
        report = metrics(ConfusionCounts(436, 64, 16, 484))
        assert report.tpr + report.fnr == pytest.approx(1.0, abs=1e-15)
        assert report.tnr + report.fpr == pytest.approx(1.0, abs=1e-15)

    def test_balanced_kappa_identity_property(self):
        # balanced true classes make kappa exactly 2*accuracy - 1
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 500))
            tp = int(rng.integers(0, n + 1))
            fp = int(rng.integers(0, n + 1))
            report = metrics(ConfusionCounts(tp, n - tp, fp, n - fp))
            assert report.kappa == pytest.approx(2 * report.accuracy - 1, abs=1e-12)

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError, match="totals must be positive"):
            metrics(ConfusionCounts(0, 0, 5, 5))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionCounts(-1, 0, 0, 0)

    def test_counts_from_predictions(self):
        truth = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        predicted = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        assert ConfusionCounts.from_predictions(truth, predicted) == \
            ConfusionCounts(2, 1, 1, 3)


class TestCohortReport:
    def test_benchmark_summary(self):
        report = cohort_report(BENCHMARK_COUNTS)
        assert report.mean.tpr == pytest.approx(0.934, abs=1e-3)
        assert report.mean.tnr == pytest.approx(0.977, abs=1e-3)
        # count-derived accuracies: mean 0.95553 (the printed integer-percent
        # column averages to 0.95667 instead; its per-row rounding is not
        # reproducible from the counts without losing the other metrics)
        assert report.mean.accuracy == pytest.approx(14333 / 15000, abs=1e-12)
        assert report.sd.accuracy == pytest.approx(0.0295, abs=1e-3)
        assert report.sd.tpr == pytest.approx(0.0416, abs=1e-3)
        assert report.sd.tnr == pytest.approx(0.0240, abs=1e-3)

    def test_single_perfect_row(self):
        report = cohort_report([ConfusionCounts(500, 0, 0, 500)])
        assert report.mean.accuracy == 1.0
        assert report.sd.accuracy == 0.0

    def test_two_row_hand_computed(self):
        rows = [ConfusionCounts(450, 50, 50, 450), ConfusionCounts(500, 0, 0, 500)]
        report = cohort_report(rows)
        assert report.mean.accuracy == pytest.approx(0.95, abs=1e-12)
        assert report.sd.accuracy == pytest.approx(0.0707, abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cohort_report([])


class TestShapiroWilk:
    def test_near_perfect_normal_quantiles(self):
        n = 15
        q = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        result = shapiro_wilk(q)
        assert result.statistic >= 0.98

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        base = shapiro_wilk(x)
        moved = shapiro_wilk(3.7 * x + 11.0)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)

    @pytest.mark.parametrize("n,kind,w_ref,p_ref", SHAPIRO_ORACLE,
                             ids=[f"n{c[0]}" for c in SHAPIRO_ORACLE])
    def test_reference_implementation_oracle(self, n, kind, w_ref, p_ref):
        result = shapiro_wilk(oracle_sample(n, kind))
        assert result.statistic == pytest.approx(w_ref, abs=1e-3)
        assert result.p_value == pytest.approx(p_ref, abs=1e-2)

    def test_benchmark_accuracy_column(self):
        result = shapiro_wilk(BENCHMARK_ACCURACY)
        assert result.statistic == pytest.approx(0.835, abs=0.01)
        assert result.p_value == pytest.approx(0.011, abs=0.005)

    def test_benchmark_fnr_column_normal(self):
        # the benchmark's prose quotes W=0.944, p=0.437 for its "FPR" while its
        # own table reproduces those numbers from the FNR column; we assert
        # what the data yields
        result = shapiro_wilk(BENCHMARK_FNR)
        assert result.statistic == pytest.approx(0.944, abs=0.01)
        assert result.p_value == pytest.approx(0.437, abs=0.05)

    @pytest.mark.parametrize("n", [3, 11, 12, 50, 5000])
    def test_normal_scores_equal_scipys_quantiles(self, n):
        expected = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        np.testing.assert_allclose(_normal_scores(n), expected, rtol=1e-12, atol=0)

    def test_far_tail_p_value_is_not_zero(self):
        # p is an upper normal tail near 1e-50 here; taken as 1 - CDF it read 0
        from scipy import stats as sstats
        x = np.random.default_rng(0).lognormal(0.0, 1.5, 1000)
        result = shapiro_wilk(x)
        assert 0.0 < result.p_value < 1e-40
        assert result.p_value == pytest.approx(sstats.shapiro(x).pvalue, rel=1e-6, abs=0)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValidationError, match="all values equal"):
            shapiro_wilk([2.0] * 10)

    def test_size_limits(self):
        with pytest.raises(ValidationError, match="shapiro_wilk supports 3 <= n <= 5000, got 2"):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValidationError, match="shapiro_wilk supports 3 <= n <= 5000, got 5001"):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))


class TestTOneSample:
    def test_symmetric_sample_gives_zero(self):
        result = t_one_sample([0.4, 0.6, 0.3, 0.7], 0.5)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hand_computed(self):
        result = t_one_sample([0.0, 1.0], 0.0)
        assert result.statistic == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_fpr_oracle(self):
        result = t_one_sample(BENCHMARK_FPR, 0.5)
        assert result.statistic == pytest.approx(T_FPR_ORACLE, rel=1e-10)
        assert result.p_value < 1e-15

    def test_reflection_negates_statistic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.7, 0.1, 20)
        plus = t_one_sample(x, 0.5)
        minus = t_one_sample(1.0 - x, 0.5)
        assert minus.statistic == pytest.approx(-plus.statistic, rel=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValidationError, match="sample standard deviation is zero"):
            t_one_sample([0.5, 0.5, 0.5], 0.2)

    # a target p down to 1e-300, where the tail taken as 1 - CDF reads 0
    @given(df=st.integers(1, 500), log10_p=st.floats(-300.0, -0.001))
    def test_p_value_equals_scipys_tail(self, df, log10_p):
        from scipy.special import stdtr, stdtrit
        t = -float(stdtrit(df, 10.0 ** log10_p / 2.0))
        assume(math.isfinite(t))  # stdtrit gives up in the far tail of a few df
        x = np.linspace(0.0, 1.0, df + 1)
        null_value = x.mean() - t * x.std(ddof=1) / math.sqrt(df + 1)
        result = t_one_sample(x, null_value)
        reference = 2.0 * stdtr(df, -abs(result.statistic))
        assume(reference > 0.0)  # stdtr reads 0 once t^2 overflows, at |t| > 1.3e154
        assert result.p_value == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [1e160, 1e300])
    def test_cauchy_tail_beyond_t_squared_overflow(self, t):
        # with df 1 the tail is (2 / pi) atan(1 / |t|)
        result = t_one_sample([0.0, 1.0], 0.5 - t / 2.0)
        assert result.statistic == pytest.approx(t, rel=1e-12, abs=0)
        assert result.p_value == pytest.approx(2.0 / math.pi * math.atan(1.0 / t),
                                               rel=1e-12, abs=0)


class TestWilcoxon:
    def test_benchmark_accuracy_max_rank_sum(self):
        result = wilcoxon_one_sample(BENCHMARK_ACCURACY, 0.5)
        assert result.statistic == 120.0
        assert result.p_value < 0.001

    def test_benchmark_fnr_zero_rank_sum(self):
        result = wilcoxon_one_sample(BENCHMARK_FNR, 0.5)
        assert result.statistic == 0.0
        assert result.p_value < 0.001

    def test_tied_pair_mid_ranks(self):
        result = wilcoxon_one_sample([-1.0, 1.0], 0.0)
        assert result.statistic == 1.5

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            x = rng.normal(0.0, 1.0, m)
            x = x[x != 0.0]
            if x.size == 0:
                continue
            w = wilcoxon_one_sample(x, 0.0).statistic
            assert 0.0 <= w <= x.size * (x.size + 1) / 2
        assert wilcoxon_one_sample([1, 2, 3], 0.0).statistic == 6.0
        assert wilcoxon_one_sample([-1, -2, -3], 0.0).statistic == 0.0

    def test_zeros_dropped(self):
        result = wilcoxon_one_sample([0.5, 0.5, 1.5, -0.5], 0.5)
        assert result.n == 2
        assert result.statistic == 1.5  # |d| ties mid-ranked across signs

    def test_exact_matches_reference(self):
        from scipy import stats as sstats
        rng = np.random.default_rng(7)
        for n in (6, 12, 20, 25):
            x = rng.normal(0.3, 1.0, n)
            mine = wilcoxon_one_sample(x, 0.0)
            ref = sstats.wilcoxon(x, alternative="two-sided", method="exact")
            assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_normal_approximation_matches_reference(self):
        from scipy import stats as sstats
        rng = np.random.default_rng(8)
        x = rng.normal(0.2, 1.0, 60)
        mine = wilcoxon_one_sample(x, 0.0)
        ref = sstats.wilcoxon(x, alternative="two-sided", method="approx",
                              correction=False)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    @pytest.mark.parametrize("m", [60, 200])
    def test_normal_approximation_far_tail_matches_reference(self, m):
        # p is 1.6e-11 at m = 60 and 1.4e-34 at m = 200; as 1 - CDF it was
        # off by 4.5e-6 of itself and 0
        from scipy import stats as sstats
        x = np.linspace(0.51, 0.99, m)
        mine = wilcoxon_one_sample(x, 0.5)
        ref = sstats.wilcoxon(x - 0.5, alternative="two-sided", method="approx",
                              correction=False)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)

    def test_all_zero_differences_rejected(self):
        with pytest.raises(ValidationError, match="all differences from the null value are zero"):
            wilcoxon_one_sample([0.5, 0.5], 0.5)

    # few distinct values, so that most samples hold ties
    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.5]),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=60))
    def test_midranks_equal_scipys_average_ranks(self, values):
        from scipy.stats import rankdata
        x = np.array(values)
        ranks = _midranks(x)
        assert np.array_equal(ranks, rankdata(x, method="average"))
        assert np.array_equal(2 * ranks, np.rint(2 * ranks))  # exact half-integers


class TestCompareToChance:
    def test_normal_sample_takes_t_branch(self):
        q = ndtri((np.arange(1, 16) - 0.375) / 15.25) * 0.05 + 0.7
        result = compare_to_chance(q, null_value=0.5)
        assert result.test == "t_one_sample"
        assert result.normality.p_value > 0.05

    def test_skewed_sample_takes_wilcoxon_branch(self):
        x = [0.01, 0.012, 0.009, 0.011, 0.01, 0.013, 0.008, 0.9, 0.95, 0.85]
        result = compare_to_chance(x, null_value=0.5)
        assert result.test == "wilcoxon_one_sample"
        assert result.normality.p_value <= 0.05

    def test_benchmark_accuracy_takes_wilcoxon_branch(self):
        result = compare_to_chance(BENCHMARK_ACCURACY, null_value=0.5)
        assert result.test == "wilcoxon_one_sample"
        assert result.statistic == 120.0
        assert result.normality.statistic == pytest.approx(0.835, abs=0.01)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValidationError, match="compare_to_chance needs n >= 3"):
            compare_to_chance([0.5, 0.6])

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # alpha=1.5 would send this normal-looking sample (Shapiro-Wilk p
        # 0.86) to the Wilcoxon branch
        with pytest.raises(ValidationError, match="alpha must lie strictly between 0 and 1"):
            compare_to_chance([0.52, 0.48, 0.55, 0.5, 0.47, 0.53], 0.5, alpha=alpha)

    def test_alpha_inside_unit_interval_accepted(self):
        result = compare_to_chance([0.52, 0.48, 0.55, 0.5, 0.47, 0.53], 0.5, alpha=0.05)
        assert result.test == "t_one_sample"
        assert result.normality.p_value > 0.05


NON_FINITE = [float("nan"), float("inf"), -float("inf")]
LOCATION_TESTS = [t_one_sample, wilcoxon_one_sample, compare_to_chance]


class TestNonFiniteRejected:
    # a NaN difference passes `d != 0` but never `d > 0`: the Wilcoxon test
    # ranked it as a negative one, and compare_to_chance took that branch
    # on Shapiro-Wilk's NaN p-value
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("test", [shapiro_wilk, *LOCATION_TESTS])
    def test_non_finite_value(self, test, bad):
        values = [0.5, 0.6, bad, 0.7, 0.8, 0.9]
        args = (values,) if test is shapiro_wilk else (values, 0.5)
        with pytest.raises(ValidationError, match="values must all be finite"):
            test(*args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("test", LOCATION_TESTS)
    def test_non_finite_null_value(self, test, bad):
        with pytest.raises(ValidationError, match="null_value must be finite"):
            test([0.5, 0.6, 0.7, 0.8, 0.9], bad)
