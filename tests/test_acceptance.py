"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints an `ACCEPTANCE <name>: PASS` line (visible with `pytest -s`);
a failure surfaces through the assertion itself.  The synthetic end-to-end
experiments run the full pipeline at a reduced per-user budget, so this module
takes several minutes.
"""

import json
import time

import numpy as np
import pytest

from eegauth import classifiers, service
from eegauth.autoselect import SearchBudget, select_model
from eegauth.errors import NoModelError
from eegauth.evaluation import (
    ConfusionCounts,
    cohort_report,
    metrics,
    shapiro_wilk,
    wilcoxon_one_sample,
)
from eegauth.features import BANDS, FEATURE_NAMES, segment_features
from eegauth.seeds import derive_seed
from eegauth.signal import CHANNELS, Recording, bandpass_filter, random_segment_starts
from eegauth.synth import CohortSpec, make_cohort

from conftest import (
    cohort_feature_table,
    recordings_feature_table,
    subject_rows,
    table_subjects,
    user_dataset,
)
from scipy_reference import band_power, psd
from test_evaluation import (
    BENCHMARK_ACCURACY,
    BENCHMARK_COUNTS,
    BENCHMARK_FNR,
    BENCHMARK_FPR,
    BENCHMARK_ROWS,
    SHAPIRO_ORACLE,
    oracle_sample,
)


def announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


# --- expensive shared fixtures ------------------------------------------------

@pytest.fixture(scope="module")
def reference_table():
    """Default 15-subject cohort, 500 segments each, filtered pipeline."""
    return cohort_feature_table(CohortSpec(seed=42), 500)


@pytest.fixture(scope="module")
def control_table():
    """Zero-separability, zero-jitter control cohort (statistical clones)."""
    spec = CohortSpec(seed=43, separability=0.0, intra_jitter=0.0)
    return cohort_feature_table(spec, 500)


def run_user(table, subject, budget, folds=10):
    seed = derive_seed(97, "acceptance", subject)
    ds = user_dataset(table, subject, seed=seed)
    model, trace = select_model(ds, budget, k_folds=folds, seed=seed)
    return ConfusionCounts.from_predictions(ds.y, trace.predictions), model


# --- criteria -------------------------------------------------------------------


def test_metrics_oracle():
    """Published per-user confusion rows reproduce every printed metric."""
    for row in BENCHMARK_ROWS:
        _, tp, fn, fp, tn, tpr, fpr, tnr, fnr, acc_pct, kappa = row
        report = metrics(ConfusionCounts(tp, fn, fp, tn))
        assert abs(report.tpr - tpr) <= 5e-4
        assert abs(report.fpr - fpr) <= 5e-4
        assert abs(report.tnr - tnr) <= 5e-4
        assert abs(report.fnr - fnr) <= 5e-4
        assert round(report.accuracy * 100) == acc_pct
        assert abs(report.kappa - kappa) <= 5e-4
    announce("metrics-oracle")


def test_cohort_summary_oracle():
    """Cohort aggregation matches the published summary statistics.

    The published table prints per-user accuracy rounded to whole percent;
    the mean of that printed column is 0.9567 while the exact count-derived
    mean is 0.955533 (which is what the publication's own "95.6%" and
    SD = 2.9% round from).  The report works on counts, so it is held to the
    exact value, and the printed-column average is verified separately.
    """
    report = cohort_report(BENCHMARK_COUNTS)
    assert abs(report.mean.tpr - 0.934) <= 1e-3
    assert abs(report.mean.tnr - 0.977) <= 1e-3
    assert abs(report.mean.accuracy - 14333 / 15000) <= 1e-9
    assert abs(report.mean.accuracy - 0.9567) <= 5e-3
    assert round(report.mean.accuracy * 1000) / 10 == 95.6
    assert abs(report.sd.accuracy - 0.029) <= 1e-3
    printed_mean = np.mean([row[9] for row in BENCHMARK_ROWS]) / 100.0
    assert abs(printed_mean - 0.9567) <= 1e-3
    announce("cohort-summary-oracle")


def test_kappa_identity_property():
    """kappa == 2*accuracy - 1 for balanced confusion tables (10k draws)."""
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 1000))
        tp = int(rng.integers(0, n + 1))
        fp = int(rng.integers(0, n + 1))
        report = metrics(ConfusionCounts(tp, n - tp, fp, n - fp))
        assert abs(report.kappa - (2.0 * report.accuracy - 1.0)) <= 1e-12
    announce("kappa-identity-property")


def test_wilcoxon_oracle():
    """Benchmark accuracy column gives W=120 exactly; FNR column gives W=0."""
    assert wilcoxon_one_sample(BENCHMARK_ACCURACY, 0.5).statistic == 120.0
    assert wilcoxon_one_sample(BENCHMARK_FNR, 0.5).statistic == 0.0
    announce("wilcoxon-oracle")


def test_shapiro_wilk_oracles():
    """W=0.835 on the benchmark accuracy column plus frozen reference samples."""
    result = shapiro_wilk(BENCHMARK_ACCURACY)
    assert abs(result.statistic - 0.835) <= 0.01
    for n, kind, w_ref, p_ref in SHAPIRO_ORACLE:
        mine = shapiro_wilk(oracle_sample(n, kind))
        assert abs(mine.statistic - w_ref) <= 1e-3
        assert abs(mine.p_value - p_ref) <= 1e-2
    # informational only: the publication's prose swaps its FPR/FNR columns,
    # so the normality pair (0.944, 0.437) it quotes for FPR belongs to FNR
    fnr = shapiro_wilk(BENCHMARK_FNR)
    fpr = shapiro_wilk(BENCHMARK_FPR)
    print(f"\n  [info] FNR column: W={fnr.statistic:.3f} p={fnr.p_value:.3f} "
          f"(prose attributes these to FPR)")
    print(f"  [info] FPR column: W={fpr.statistic:.3f} p={fpr.p_value:.3f}")
    announce("shapiro-wilk-oracle")


def test_feature_correctness(reference_table):
    """Tone localization, alpha union identity, and generator recovery."""
    fs = 250.0
    tone = np.sin(2 * np.pi * 10.0 * np.arange(1000) / fs)
    seg = Recording("t", fs, CHANNELS, np.tile(tone, (3, 1)))
    values = dict(zip(FEATURE_NAMES, segment_features(seg, [0])[0]))
    assert abs(values["Fz_halpha"] - 0.5) <= 0.05 * 0.5

    rng = np.random.default_rng(5)
    for _ in range(25):
        freqs, density = psd(rng.normal(size=1000), fs)
        alpha = band_power(freqs, density, BANDS[4])
        halves = band_power(freqs, density, BANDS[2]) + \
            band_power(freqs, density, BANDS[3])
        assert abs(alpha - halves) <= 1e-9 * max(alpha, 1e-30)

    spec = CohortSpec(seed=42)
    for signature, recording in make_cohort(spec):
        starts = random_segment_starts(
            recording, 100, derive_seed(spec.seed, "segments", signature.subject_id))
        mean = segment_features(recording, starts).mean(axis=0)
        targets = signature.realized.ravel()
        assert np.all(np.abs(mean - targets) / targets < 0.15)
    announce("feature-correctness")


def test_budget_compliance(reference_table):
    """Search never exceeds its budget plus one evaluation's duration."""
    ds = user_dataset(reference_table, "S01", seed=31)
    assert ds.X.shape == (1000, 15)
    for budget_s in (1.0, 5.0, 30.0):
        started = time.perf_counter()
        try:
            model, trace = select_model(ds, SearchBudget(budget_s, None),
                                        k_folds=10, seed=7)
        except NoModelError:
            elapsed = time.perf_counter() - started
            assert elapsed <= budget_s + 2.0  # nothing finished: one aborted eval
            continue
        elapsed = time.perf_counter() - started
        durations = np.diff(np.concatenate(
            [[0.0], [e.elapsed_s for e in trace.entries]]))
        assert elapsed <= budget_s + max(durations.max(), 0.5) + 0.5
        best = trace.best()
        assert (best.algorithm, best.params) == (model.algorithm, model.params)
        assert best.cv_accuracy == max(e.cv_accuracy for e in trace.entries)
    announce("budget-compliance")


def twin_feature_table(n_segments):
    """3 byte-identical twin pairs (S01 and S01t, ...) of the default cohort,
    n_segments each: every user has one impostor they cannot be told from,
    so no search reaches a perfect incumbent."""
    spec = CohortSpec(n_subjects=3, seed=42)
    twins = [bandpass_filter(Recording(subject, recording.sample_rate_hz,
                                       recording.channels, recording.samples))
             for _signature, recording in make_cohort(spec)
             for subject in (recording.subject_id, recording.subject_id + "t")]
    return recordings_feature_table(twins, n_segments, seed=7)


@pytest.fixture(scope="module")
def twin_table():
    return twin_feature_table(100)


def test_budget_compliance_unsaturated(twin_table):
    """An uncapped search on twins runs many evaluations up to its deadline,
    and ends within its budget plus one evaluation's duration."""
    ds = user_dataset(twin_table, "S01", seed=31)
    for budget_s in (1.0, 3.0):
        started = time.perf_counter()
        model, trace = select_model(ds, SearchBudget(budget_s, None), k_folds=10, seed=7)
        elapsed = time.perf_counter() - started
        assert len(trace.entries) > 1
        # only the deadline ends an uncapped search whose incumbent errs
        assert trace.best().errors > 0
        assert elapsed >= budget_s
        durations = np.diff(np.concatenate(
            [[0.0], [e.elapsed_s for e in trace.entries]]))
        assert elapsed <= budget_s + max(durations.max(), 0.5) + 0.5
        assert (trace.best().algorithm, trace.best().params) == (model.algorithm, model.params)
        print(f"\n  {budget_s:.0f} s budget: {len(trace.entries)} evaluations, "
              f"{elapsed:.2f} s, best cv_accuracy {trace.best().cv_accuracy:.4f}")
    announce("budget-compliance-unsaturated")


def test_end_to_end_synthetic_experiment(reference_table, control_table):
    """Separable cohort authenticates well; clone cohort stays at chance."""
    rows = []
    for subject in table_subjects(reference_table):
        counts, _ = run_user(reference_table, subject, SearchBudget(10.0, None))
        rows.append(counts)
    separable = cohort_report(rows)
    assert separable.mean.accuracy >= 0.90
    assert separable.mean.fpr <= 0.10

    control_rows = []
    for subject in table_subjects(control_table):
        counts, _ = run_user(control_table, subject, SearchBudget(5.0, 10))
        control_rows.append(counts)
    control = cohort_report(control_rows)
    assert 0.45 <= control.mean.accuracy <= 0.55

    print(f"\n  separable: accuracy {separable.mean.accuracy:.4f} "
          f"fpr {separable.mean.fpr:.4f}; control: {control.mean.accuracy:.4f}")
    announce("end-to-end-synthetic")


def test_enrollment_latency(reference_table, tmp_path):
    """A full-budget enrollment round-trips in under 75 s."""
    store = service.FeatureStore(tmp_path / "store")
    for subject in table_subjects(reference_table):
        if subject == "S01":
            continue
        store.put_user(subject, subject_rows(reference_table, subject))
    request = service.EnrollRequest("S01", subject_rows(reference_table, "S01"), "latency")
    started = time.perf_counter()
    response, _ = service.enroll(request, store, SearchBudget(60.0, None),
                                 k_folds=10, enroll_count=500)
    elapsed = time.perf_counter() - started
    assert elapsed < 75.0
    assert response.model.cv_accuracy >= 0.9
    print(f"\n  enrollment took {elapsed:.1f}s "
          f"({response.evaluations} evaluations)")
    announce("enrollment-latency")


def test_enrollment_latency_unsaturated(tmp_path):
    """A 60 s enrollment whose search only its deadline ends (the twins cap
    accuracy near 0.90) still round-trips in under 75 s."""
    table = twin_feature_table(500)
    store = service.FeatureStore(tmp_path / "store")
    for subject in table_subjects(table):
        if subject != "S01":
            store.put_user(subject, subject_rows(table, subject))
    request = service.EnrollRequest("S01", subject_rows(table, "S01"), "latency")
    started = time.perf_counter()
    response, trace = service.enroll(request, store, SearchBudget(60.0, None),
                                     k_folds=10, enroll_count=500)
    elapsed = time.perf_counter() - started
    assert elapsed < 75.0
    assert response.evaluations > 1
    # only the deadline ends an uncapped search whose incumbent errs
    assert trace.best().errors > 0
    print(f"\n  enrollment took {elapsed:.1f}s ({response.evaluations} evaluations, "
          f"best errors {trace.best().errors}, "
          f"cv_accuracy {response.model.cv_accuracy:.4f})")
    announce("enrollment-latency-unsaturated")


def test_protocol_and_persistence(reference_table, tmp_path):
    """Serialization, transfer, pool hygiene, and the deny-on-tie rule."""
    ds = user_dataset(reference_table, "S02", seed=77)
    model, _ = select_model(ds, SearchBudget(30.0, 8), k_folds=10, seed=77)

    payload = classifiers.serialize(model)
    clone = classifiers.deserialize(payload)
    rng = np.random.default_rng(9)
    queries = rng.exponential(8.0, size=(1000, 15))
    assert np.array_equal(classifiers.predict_scores(model, queries),
                          classifiers.predict_scores(clone, queries))
    assert np.array_equal(classifiers.predict_labels(model, queries),
                          classifiers.predict_labels(clone, queries))
    assert classifiers.serialize(clone) == payload

    # transfer through the wire format used by the HTTP service
    wire = classifiers.model_from_dict(json.loads(payload))
    assert np.array_equal(classifiers.predict_scores(model, queries),
                          classifiers.predict_scores(wire, queries))

    # every enrollment's impostor pool excludes the enrolling user
    store = service.FeatureStore(tmp_path / "store")
    for subject in ("S03", "S04", "S05"):
        store.put_user(subject, subject_rows(reference_table, subject)[:500])
    for subject in ("S03", "S04"):
        pool = store.get_pool(excluding=subject)
        assert len(pool) and (pool.subjects != subject).all()

    # an exact 0.5 genuine fraction denies: build the session from vectors the
    # model is known to label each way, 25 of each
    own = subject_rows(reference_table, "S02")
    other = subject_rows(reference_table, "S06")
    granted = own[classifiers.predict_labels(model, own)][:25]
    denied = other[~classifiers.predict_labels(model, other)][:25]
    assert len(granted) == 25 and len(denied) == 25
    decision = service.authenticate(model, np.vstack([granted, denied]),
                                    threshold=0.5)
    assert decision.genuine_fraction == 0.5
    assert decision.outcome == service.DENY
    announce("protocol-and-persistence")
