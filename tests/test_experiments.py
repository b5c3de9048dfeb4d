import gc
import json
import os
import weakref

import numpy as np
import pytest

from facespectra import classify, experiments
from facespectra.classify import (
    AU_SET,
    EXPRESSIONS,
    flda_predict,
    flda_train,
    identity_disjoint_folds,
    svm_train_binary,
)
from facespectra.experiments import (
    ClassifierConfig,
    ConfusionMatrix,
    au_report_section,
    build_report,
    compare_methods,
    eigen_sweep,
    evaluate_aus,
    evaluate_expressions,
    expression_report_section,
    format_au_result,
    format_confusion,
    format_expression_result,
    format_sweep_result,
    report_schema,
    save_report,
    sweep_report_section,
    validate_report,
)
from facespectra.features import FeatureTable, truncation_columns
from facespectra.patches import PatchConfig

FLDA = ClassifierConfig(kind="flda")


def grouped_dataset(rng, n_subjects=12, per_subject=6, n_classes=6, d=20,
                    spread=0.5, sep=6.0):
    """Cluster-separable features with subject grouping."""
    classes = [f"K{i}" for i in range(n_classes)]
    centers = rng.normal(size=(n_classes, d)) * sep
    X, labels, subjects = [], [], []
    for s in range(n_subjects):
        subj_shift = rng.normal(size=d) * 0.3
        for i in range(per_subject):
            c = i % n_classes
            X.append(centers[c] + subj_shift + rng.normal(size=d) * spread)
            labels.append(classes[c])
            subjects.append(f"S{s}")
    return np.vstack(X), labels, subjects


def test_separable_two_class_is_perfect():
    rng = np.random.default_rng(0)
    X, labels, subjects = grouped_dataset(rng, n_classes=2, per_subject=4)
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=4, seed=0)
    assert res.mean_accuracy == 1.0
    assert res.confusion.counts.trace() == len(labels)


def test_confusion_rows_sum_to_100():
    rng = np.random.default_rng(1)
    X, labels, subjects = grouped_dataset(rng, spread=4.0, sep=2.0)
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=4, seed=1)
    sums = res.confusion.percent.sum(axis=1)
    assert np.abs(sums - 100.0).max() <= 0.01


def test_chance_level_with_shuffled_labels():
    # >= 1000 samples, 10 identity-disjoint folds, labels shuffled
    rng = np.random.default_rng(2)
    n_subjects, per_subject = 90, 12
    X = rng.normal(size=(n_subjects * per_subject, 50))
    subjects = [f"S{i}" for i in range(n_subjects) for _ in range(per_subject)]
    labels = [EXPRESSIONS[i % 6] for i in range(len(subjects))]
    labels = list(rng.permutation(labels))
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=10, seed=2)
    assert 0.10 <= res.mean_accuracy <= 0.24


def test_shuffle_within_subjects_preserves_multisets():
    from collections import Counter

    from experiment_oracles import shuffle_within_subjects

    subjects = ["A"] * 6 + ["B"] * 6
    labels = ["AN", "AN", "DI", "DI", "HA", "HA"] * 2
    out = shuffle_within_subjects(labels, subjects, seed=3)
    assert Counter(out[:6]) == Counter(labels[:6])
    assert Counter(out[6:]) == Counter(labels[6:])
    assert out == shuffle_within_subjects(labels, subjects, seed=3)
    assert out != labels or shuffle_within_subjects(labels, subjects, 4) != labels


def test_fold_failure_reports_fold_index():
    # one fold sees a single training class -> FLDA raises with fold context
    X = np.random.default_rng(3).normal(size=(8, 4))
    subjects = ["A", "A", "B", "B", "C", "C", "D", "D"]
    labels = ["P", "P", "P", "P", "P", "P", "Q", "Q"]
    with pytest.raises(RuntimeError, match="fold"):
        evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=2, seed=0)


@pytest.mark.parametrize("field, settings", [
    ("kind", {"kind": "knn"}),
    ("kernel", {"kernel": "poly"}),
    ("C", {"C": -1.0}),
    ("C", {"C": np.inf}),
    ("gamma", {"gamma": np.inf}),
    ("gamma", {"gamma": 0.0}),
    ("reg", {"kind": "flda", "reg": -1.0}),
    ("reg", {"kind": "flda", "reg": np.nan}),
], ids=["kind", "kernel", "C-negative", "C-inf", "gamma-inf", "gamma-zero", "reg-negative",
        "reg-nan"])
def test_bad_classifier_config_raises_before_any_kernel(monkeypatch, field, settings):
    """A setting outside its range is a ValueError naming the field, raised
    when the config is built: no kernel is built and no fold is trained."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = classify.kernel_matrix
    monkeypatch.setattr(classify, "kernel_matrix", counted)
    X, labels, subjects = grouped_dataset(np.random.default_rng(2), n_subjects=10)
    with pytest.raises(ValueError, match=f"^{field} "):
        evaluate_expressions(X, labels, subjects, ClassifierConfig(**settings), folds=5)
    assert calls == []


def _one_sample_class_problem():
    """40 samples of 10 subjects, labels alternating HA/SA, with samples 0
    and 5 relabelled SU: a fold that tests one of them trains SU on one
    sample."""
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 6))
    subjects = [f"S{i // 4}" for i in range(40)]
    labels = ["HA" if i % 2 else "SA" for i in range(40)]
    labels[0] = labels[5] = "SU"
    X[np.asarray(labels) == "HA", 0] += 3.0
    return X, labels, subjects


def test_flda_one_sample_class_fold_skipped_with_reason():
    X, labels, subjects = _one_sample_class_problem()
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=5, seed=0)
    splits = identity_disjoint_folds(subjects, 5, seed=0)
    short = [f for f, (train, _) in enumerate(splits)
             if sum(labels[i] == "SU" for i in train) == 1]
    assert short and res.skipped == [
        {"fold": f, "reason": "flda needs 2 training samples per class, class 'SU' has 1"}
        for f in short]
    assert res.folds == 5 and len(res.fold_accuracies) == 5 - len(short)
    tested = sum(len(test) for f, (_, test) in enumerate(splits) if f not in short)
    assert res.confusion.counts.sum() == tested
    assert res.mean_accuracy == pytest.approx(np.mean(res.fold_accuracies))
    section = expression_report_section(res)
    assert section["skipped"] == res.skipped
    validate_report(build_report("expressions", {}, section))
    assert "skipped folds" in format_expression_result(res)
    # SVM trains every fold of the same problem; the two cannot be paired
    svm = evaluate_expressions(X, labels, subjects, folds=5, seed=0)
    assert svm.skipped == [] and len(svm.fold_accuracies) == 5
    with pytest.raises(ValueError, match="skipped different folds"):
        compare_methods({"flda": res, "svm": svm})
    assert compare_methods({"a": res, "b": res})["paired_differences"] == [0.0] * (5 - len(short))


def _fail_on_problem(monkeypatch, n, exc):
    """Make problem ``n`` (counted from 0 over the calls) of the batched
    SMO solver ``classify.svm_solve_batch`` come out as ``exc``."""
    original = classify.svm_solve_batch
    seen = []

    def failing(*args, **kwargs):
        results = original(*args, **kwargs)
        if len(seen) <= n < len(seen) + len(results):
            results[n - len(seen)] = exc
        seen.extend(results)
        return results

    monkeypatch.setattr(classify, "svm_solve_batch", failing)


def test_svm_nonconverged_fold_skipped_with_reason(monkeypatch):
    """A ConvergenceError in one fold's SMO solve skips that fold with the
    solver's message behind the failing pair; the other folds are
    evaluated as before."""
    X, labels, subjects = grouped_dataset(np.random.default_rng(4), spread=4.0, sep=2.0)
    full = evaluate_expressions(X, labels, subjects, folds=4, seed=0)
    message = "SMO did not converge in 3 iterations (max KKT violation 1.000e+00)"
    # 6 classes: 15 one-vs-one problems per fold, fold by fold in one
    # batch, so problem 15 is fold 1's first pair
    _fail_on_problem(monkeypatch, 15, classify.ConvergenceError(message))
    res = evaluate_expressions(X, labels, subjects, folds=4, seed=0)
    assert res.skipped == [{"fold": 1, "reason": f"K0 vs K1: {message}"}]
    assert res.fold_accuracies == full.fold_accuracies[:1] + full.fold_accuracies[2:]
    validate_report(build_report("expressions", {}, expression_report_section(res)))


def _three_au_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 40))
    subjects = [f"S{i // 3}" for i in range(30)]
    aus = [tuple(a for a in (1, 2, 4) if rng.random() < 0.5) for _ in range(30)]
    return X, aus, subjects


def test_au_svm_nonconverged_fold_skipped_with_reason(monkeypatch):
    X, aus, subjects = _three_au_problem()
    assert evaluate_aus(X, aus, subjects, folds=5, seed=0, aus=(1, 2, 4)).skipped == []
    # one problem per (fold, AU), fold by fold in one batch: problem 4 is
    # AU 2 in fold 1; a two-class fold's reason is the solver's message alone
    _fail_on_problem(monkeypatch, 4, classify.ConvergenceError("no convergence"))
    res = evaluate_aus(X, aus, subjects, folds=5, seed=0, aus=(1, 2, 4))
    assert res.skipped == [{"au": 2, "fold": 1, "reason": "no convergence"}]
    validate_report(build_report("aus", {}, au_report_section(res)))


def test_other_au_training_errors_name_the_fold_and_au(monkeypatch):
    X, aus, subjects = _three_au_problem()
    _fail_on_problem(monkeypatch, 4, ValueError("boom"))
    with pytest.raises(RuntimeError, match="training failed in fold 1 for AU 2: boom"):
        evaluate_aus(X, aus, subjects, folds=5, seed=0, aus=(1, 2, 4))


# ---------------------------------------------------------------------------
# AU evaluation

def make_au_features(rng, n_subjects=14, per_subject=6):
    """One feature column wired to each AU's presence."""
    subjects = [f"S{s}" for s in range(n_subjects) for _ in range(per_subject)]
    n = len(subjects)
    aus = []
    X = np.zeros((n, len(AU_SET) + 3))
    for i in range(n):
        active = tuple(a for j, a in enumerate(AU_SET) if (i + j) % 3 == 0)
        aus.append(active)
        for j, a in enumerate(AU_SET):
            X[i, j] = (5.0 if a in active else -5.0) + rng.normal() * 0.3
    X[:, len(AU_SET):] = rng.normal(size=(n, 3))
    return X, aus, subjects


def test_au_wired_features_high_f1():
    rng = np.random.default_rng(4)
    X, aus, subjects = make_au_features(rng)
    res = evaluate_aus(X, aus, subjects, classifier=FLDA, folds=4, seed=0)
    assert res.weighted_f1 >= 0.9
    for row in res.rows:
        assert row["f1"] >= 0.9


def test_au_always_present_trivial_f1():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(24, 5))
    subjects = [f"S{i // 2}" for i in range(24)]
    aus = [(1,)] * 24
    res = evaluate_aus(X, aus, subjects, classifier=FLDA, folds=3, seed=0, aus=(1,))
    assert res.rows[0]["f1"] == 1.0
    assert res.rows[0]["positives"] == 24
    # the constant-positive path trains no classifier, nothing is skipped
    assert res.skipped == []


NO_POSITIVE = "no positive training sample"


def test_au_zero_positives_skipped_and_recorded():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(24, 5))
    subjects = [f"S{i // 2}" for i in range(24)]
    aus = [()] * 24
    res = evaluate_aus(X, aus, subjects, classifier=FLDA, folds=3, seed=0, aus=(4,))
    assert res.skipped == [{"au": 4, "fold": f, "reason": NO_POSITIVE} for f in range(3)]
    assert res.rows[0]["positives"] == 0
    assert res.rows[0]["f1"] == 0.0


def test_au_flda_single_sample_class_fold_skipped_with_reason():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    subjects = [f"S{i // 4}" for i in range(40)]
    # AU1 on sample 0 only, AU4 on all but sample 0, AU2 a learnable split
    aus = [((1,) if i == 0 else (4,)) + ((2,) if X[i, 0] > 0 else ()) for i in range(40)]
    res = evaluate_aus(X, aus, subjects, classifier=FLDA, folds=5, seed=0)
    assert [r["au"] for r in res.rows] == list(AU_SET)
    by_au = {}
    for s in res.skipped:
        by_au.setdefault(s["au"], []).append(s)
    # the fold testing sample 0 has no positive to train on, recorded as before
    assert len(by_au[1]) == 5
    assert sum(s["reason"] == NO_POSITIVE for s in by_au[1]) == 1
    one_pos = [s for s in by_au[1] if s["reason"] != NO_POSITIVE]
    assert len(one_pos) == 4
    assert all("1 positive and 31 negative" in s["reason"] for s in one_pos)
    # with sample 0 tested, AU4's training fold is all positive: constant predictor
    assert len(by_au[4]) == 4
    assert all("31 positive and 1 negative" in s["reason"] for s in by_au[4])
    assert 2 not in by_au
    assert next(r for r in res.rows if r["au"] == 2)["f1"] >= 0.8


def reference_evaluate_aus(X, au_sets, subjects, classifier, folds, seed):
    """AU evaluation written out per (AU, fold): every pair standardizes its
    fold and trains from scratch."""
    splits = identity_disjoint_folds(subjects, folds, seed)
    rows, skipped = [], []
    for au in AU_SET:
        ybin = np.array([1.0 if au in s else -1.0 for s in au_sets])
        tp = fp = fn = 0
        for f, (train, test) in enumerate(splits):
            pos = int((ybin[train] > 0).sum())
            neg = len(train) - pos
            if not pos:
                skipped.append({"au": au, "fold": f, "reason": NO_POSITIVE})
                continue
            if classifier.kind == "flda" and 1 in (pos, neg):
                skipped.append({"au": au, "fold": f,
                                "reason": f"flda needs 2 training samples per class, "
                                          f"got {pos} positive and {neg} negative"})
                continue
            mu = X[train].mean(axis=0)
            sigma = X[train].std(axis=0)
            sigma = np.where(sigma < 1e-12, 1.0, sigma)
            Xtr, Xte = (X[train] - mu) / sigma, (X[test] - mu) / sigma
            if not neg:
                pred = np.ones(len(test))
            elif classifier.kind == "svm":
                machine = svm_train_binary(Xtr, ybin[train], kernel=classifier.kernel,
                                           C=classifier.C, gamma=classifier.gamma)
                gamma = classify.kernel_gamma(classifier.kernel, classifier.gamma, X.shape[1])
                test_kernel = classify.kernel_matrix(Xte, Xtr, classifier.kernel, gamma)
                pred = np.where(machine.decision(test_kernel) > 0, 1.0, -1.0)
            else:
                model = flda_train(Xtr, np.where(ybin[train] > 0, "pos", "neg"),
                                   reg=classifier.reg)
                pred = np.where(np.asarray(flda_predict(model, Xte)) == "pos", 1.0, -1.0)
            truth = ybin[test]
            tp += int(((pred > 0) & (truth > 0)).sum())
            fp += int(((pred > 0) & (truth < 0)).sum())
            fn += int(((pred < 0) & (truth > 0)).sum())
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        rows.append({"au": au, "positives": int((ybin > 0).sum()),
                     "precision": round(precision, 6), "recall": round(recall, 6),
                     "f1": round(f1, 6)})
    weights = np.array([r["positives"] for r in rows], dtype=np.float64)
    f1s = np.array([r["f1"] for r in rows], dtype=np.float64)
    return rows, skipped, float((weights * f1s).sum() / weights.sum())


@pytest.mark.parametrize("classifier", [FLDA, ClassifierConfig(kind="svm"),
                                        ClassifierConfig(kind="svm", kernel="linear")],
                         ids=["flda", "svm-rbf", "svm-linear"])
@pytest.mark.parametrize("d", [6, 50])
def test_au_evaluation_matches_per_pair_loop(classifier, d):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, d))
    subjects = [f"S{i // 4}" for i in range(40)]
    # AU1 on sample 0 only (0 or 1 training positives), AU4 on every sample,
    # AU5 on subject S0 only (0 training positives in its fold), AU6 on all
    # but sample 0 (one training negative), AU2 a learnable split
    aus = [((1,) if i == 0 else (6,)) + (4,) + ((5,) if i < 4 else ())
           + ((2,) if X[i, 0] > 0 else ()) for i in range(40)]
    res = evaluate_aus(X, aus, subjects, classifier=classifier, folds=5, seed=0)
    rows, skipped, weighted = reference_evaluate_aus(X, aus, subjects, classifier, 5, 0)
    assert res.rows == rows
    assert res.skipped == skipped
    assert res.weighted_f1 == weighted
    reasons = {(s["au"], s["reason"] != NO_POSITIVE) for s in skipped}
    assert {(1, False), (5, False)} <= reasons
    assert ((1, True) in reasons) == ((6, True) in reasons) == (classifier.kind == "flda")
    assert not any(s["au"] in (2, 4) for s in skipped)


def test_au_weighted_average_uses_positive_counts():
    rows_total = 0
    rng = np.random.default_rng(7)
    X, aus, subjects = make_au_features(rng)
    res = evaluate_aus(X, aus, subjects, classifier=FLDA, folds=4, seed=0)
    weights = np.array([r["positives"] for r in res.rows], dtype=float)
    f1s = np.array([r["f1"] for r in res.rows])
    assert res.weighted_f1 == pytest.approx(float((weights * f1s).sum() / weights.sum()))


# ---------------------------------------------------------------------------
# sweep

def sweep_table(rng, k_full=10, n_landmarks=4, n_subjects=12, per_subject=6):
    """GLF-shaped table whose class signal lives in coefficient rows >= 2,
    so tiny k values are uninformative."""
    classes = EXPRESSIONS
    subjects = [f"S{s}" for s in range(n_subjects) for _ in range(per_subject)]
    n = len(subjects)
    labels = [classes[i % 6] for i in range(n)]
    width = 3 * k_full
    X = rng.normal(size=(n, n_landmarks * width)) * 0.2
    for i, lab in enumerate(labels):
        c = classes.index(lab)
        for l in range(n_landmarks):
            col = l * width + 3 * (2 + c % (k_full - 2))
            X[i, col:col + 3] += 4.0
    return FeatureTable(
        X=X, subjects=subjects, expressions=labels,
        intensities=[1] * n, aus=[()] * n,
        missing=np.zeros((n, n_landmarks), dtype=bool),
        landmark_labels=[f"L{i}" for i in range(n_landmarks)],
        method="glf", mode="coords", k=k_full,
        config=PatchConfig(5, 20, 3, 8).to_dict(), config_hash=1,
    )


def test_sweep_reuses_folds_and_orders_ks():
    rng = np.random.default_rng(8)
    table = sweep_table(rng)
    res = eigen_sweep(table, [1, 5, 10], classifier=FLDA, folds=4, seed=0)
    assert res.k_values == [1, 5, 10]
    folds_counts = {k: r.folds for k, r in res.per_k.items()}
    assert set(folds_counts.values()) == {4}
    # row 0/1 carry no signal: k=1 is chance-ish, k=10 separates
    assert res.per_k[10].mean_accuracy > res.per_k[1].mean_accuracy
    assert res.per_k[10].mean_accuracy >= 0.9


SWEEP_CLASSIFIERS = [FLDA, ClassifierConfig(kind="svm"),
                     ClassifierConfig(kind="svm", kernel="linear")]


@pytest.mark.parametrize("classifier", SWEEP_CLASSIFIERS, ids=["flda", "svm", "svm-linear"])
def test_sweep_equals_evaluation_of_each_sliced_table(classifier):
    """The sweep standardizes each fold once on the whole table and reads
    each k's columns from it; every k's report section equals that of an
    evaluation of the table sliced to k."""
    table = sweep_table(np.random.default_rng(12))
    res = eigen_sweep(table, [1, 3, 7, 10], classifier=classifier, folds=4, seed=3)
    section = sweep_report_section(res)
    for k, got in res.per_k.items():
        X = table.X[:, truncation_columns(len(table.landmark_labels), table.method,
                                          table.mode, table.k, k)]
        want = evaluate_expressions(X, table.expressions, table.subjects,
                                    classifier=classifier, folds=4, seed=3)
        assert section["per_k"][str(k)] == expression_report_section(want)
        assert got.fold_accuracies == want.fold_accuracies
        assert got.confusion.counts.tobytes() == want.confusion.counts.tobytes()
        assert got.confusion.percent.tobytes() == want.confusion.percent.tobytes()


def test_sweep_standardizes_each_fold_once(monkeypatch):
    calls = []
    original = experiments.standardize_fit

    def counted(X):
        calls.append(X.shape)
        return original(X)

    monkeypatch.setattr(experiments, "standardize_fit", counted)
    table = sweep_table(np.random.default_rng(12))
    for classifier in SWEEP_CLASSIFIERS[:2]:
        calls.clear()
        eigen_sweep(table, [1, 3, 7, 10], classifier=classifier, folds=4, seed=3)
        assert len(calls) == 4
        assert {shape[1] for shape in calls} == {table.X.shape[1]}


def test_svm_sweep_packs_consecutive_folds_under_the_gram_budget(monkeypatch):
    """Under SVM a sweep trains consecutive folds, in fold order, in one
    ``svm_train_folds`` call while their train Grams (k count x n_train^2
    doubles) fit ``GRAM_BUDGET`` bytes together, and a fold whose Grams
    alone exceed it trains alone.  Each call's Grams equal each of its
    folds' ``kernel_matrix`` of each k, no Gram passed to an earlier call
    is alive when the next call starts, and the results do not depend on
    the packing."""
    table = sweep_table(np.random.default_rng(12))
    k_values, folds, seed = [1, 3, 7, 10], 5, 3
    splits = identity_disjoint_folds(table.subjects, folds, seed)
    assert [len(train) for train, _ in splits] == [54, 54, 60, 60, 60]
    grams_of = [len(k_values) * len(train) ** 2 * 8 for train, _ in splits]
    assert grams_of == [93_312, 93_312, 115_200, 115_200, 115_200]
    original = classify.svm_train_folds
    reports = []
    for budget, packs in ((1 << 20, [[0, 1, 2, 3, 4]]),
                          (250_000, [[0, 1], [2, 3], [4]]),
                          (200_000, [[0, 1], [2], [3], [4]]),
                          (100_000, [[0], [1], [2], [3], [4]])):
        calls, earlier = [], []              # earlier: weak references to passed Grams

        def checked(pairs, **kwargs):
            gc.collect()
            assert not [ref for ref in earlier if ref() is not None]
            grams = list({id(gram): gram for _, gram in pairs}.values())
            assert len(grams) % len(k_values) == 0
            first = sum(len(call) for call in calls)
            calls.append(list(range(first, first + len(grams) // len(k_values))))
            for f, fold_grams in zip(calls[-1], np.split(np.arange(len(grams)), len(calls[-1]))):
                Xtr, _ = experiments._fold_rows(table.X, None, *splits[f])
                for k, g in zip(k_values, fold_grams):
                    tr = Xtr if k == table.k else Xtr[:, truncation_columns(
                        len(table.landmark_labels), table.method, table.mode, table.k, k)]
                    assert np.array_equal(grams[g], classify.kernel_matrix(tr, tr, "rbf",
                                                                           1 / tr.shape[1]))
            earlier.extend(weakref.ref(gram) for gram in grams)
            return original(pairs, **kwargs)

        monkeypatch.setattr(classify, "svm_train_folds", checked)
        monkeypatch.setattr(experiments, "GRAM_BUDGET", budget)
        reports.append(sweep_report_section(eigen_sweep(
            table, k_values, classifier=ClassifierConfig(kind="svm"), folds=folds, seed=seed)))
        assert calls == packs, budget
        assert all(sum(grams_of[f] for f in pack) <= budget for pack in packs if len(pack) > 1)
    assert all(report == reports[0] for report in reports)


def test_sweep_saturation_beyond_signal():
    rng = np.random.default_rng(9)
    table = sweep_table(rng)
    res = eigen_sweep(table, [8, 10], classifier=FLDA, folds=4, seed=0)
    assert abs(res.per_k[10].mean_accuracy - res.per_k[8].mean_accuracy) <= 0.05


def test_sweep_rejects_k_above_table():
    rng = np.random.default_rng(10)
    table = sweep_table(rng)
    with pytest.raises(ValueError, match="exceeds"):
        eigen_sweep(table, [11], classifier=FLDA)


def test_sweep_rejects_k_below_one():
    table = sweep_table(np.random.default_rng(10))
    for k in (0, -2):
        with pytest.raises(ValueError, match=">= 1"):
            eigen_sweep(table, [k, 5], classifier=FLDA)


def test_sweep_rejects_repeated_or_no_k():
    """A repeated k would train twice and leave one ``per_k`` entry for two
    grid points; an empty grid evaluates nothing."""
    table = sweep_table(np.random.default_rng(10))
    for k_values, match in (([5, 5, 3], r"repeated: \[5\]"), ([], r"got \[\]")):
        with pytest.raises(ValueError, match=match):
            eigen_sweep(table, k_values, classifier=FLDA)


# ---------------------------------------------------------------------------
# missing patches

def test_missing_blocks_filled_with_training_fold_means():
    """A missing landmark block takes the mean of the training rows where
    the landmark is present, in training and test rows, before the fold
    is standardized; a landmark missing from every training row keeps its
    values."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 6)) + 5.0         # 3 landmarks of 2 columns
    missing = np.zeros((10, 3), dtype=bool)
    missing[[1, 4, 8], 0] = True               # rows 1, 4 train, 8 test
    missing[:8, 2] = True                      # all training rows
    X[missing.repeat(2, axis=1)] = 0.0
    train, test = np.arange(8), np.arange(8, 10)
    Xtr, Xte = experiments._fold_rows(X, missing, train, test)
    present = X[[0, 2, 3, 5, 6, 7], :2].mean(axis=0)
    want = X.copy()
    want[[1, 4, 8], :2] = present
    mu, sigma = classify.standardize_fit(want[train])
    assert np.array_equal(Xtr, (want[train] - mu) / sigma)
    assert np.array_equal(Xte, (want[test] - mu) / sigma)
    assert np.abs(Xtr[[1, 4], :2]).max() < 1e-12
    assert np.array_equal(experiments._fold_rows(X, None, train, test)[1][:, 2:],
                          Xte[:, 2:])


def _with_missing_blocks(X, n_landmarks, rng, fill):
    """X with about 10% of its landmark blocks flagged missing and set to
    ``fill``, and the flags."""
    missing = rng.random((X.shape[0], n_landmarks)) < 0.1
    X = X.copy()
    X[missing.repeat(X.shape[1] // n_landmarks, axis=1)] = fill
    return X, missing


@pytest.mark.parametrize("classifier", SWEEP_CLASSIFIERS, ids=["flda", "svm", "svm-linear"])
def test_values_stored_in_missing_blocks_do_not_matter(classifier):
    """Zero-filled and garbage-filled missing blocks give the same results
    once the flags are passed: for expressions, AUs and the sweep."""
    X, labels, subjects = grouped_dataset(np.random.default_rng(3), d=20)
    runs = []
    for fill in (0.0, 1e3):
        Xm, missing = _with_missing_blocks(X, 5, np.random.default_rng(4), fill)
        runs.append((Xm, missing))
    (X0, missing), (X1, _) = runs
    assert missing.any() and not np.array_equal(X0, X1)
    got = [evaluate_expressions(Xm, labels, subjects, classifier, folds=4, seed=0,
                                missing=missing) for Xm in (X0, X1)]
    assert expression_report_section(got[0]) == expression_report_section(got[1])
    # without the flags the stored values are features, and they matter
    plain = [evaluate_expressions(Xm, labels, subjects, classifier, folds=4, seed=0)
             for Xm in (X0, X1)]
    assert expression_report_section(plain[0]) != expression_report_section(plain[1])
    aus = [tuple(a for a in (1, 2) if (i + a) % 3) for i in range(len(labels))]
    got = [evaluate_aus(Xm, aus, subjects, classifier, folds=4, seed=0, aus=(1, 2),
                        missing=missing) for Xm in (X0, X1)]
    assert au_report_section(got[0]) == au_report_section(got[1])
    table = sweep_table(np.random.default_rng(5))
    sections = []
    for fill in (0.0, 1e3):
        Xm, flags = _with_missing_blocks(table.X, 4, np.random.default_rng(6), fill)
        table.X, table.missing = Xm, flags
        sections.append(sweep_report_section(
            eigen_sweep(table, [2, 10], classifier=classifier, folds=4, seed=0)))
    assert sections[0] == sections[1]


def test_missing_flags_must_split_the_columns():
    X, labels, subjects = grouped_dataset(np.random.default_rng(3), d=20)
    for flags in (np.zeros((len(labels), 3), bool), np.zeros((5, 4), bool),
                  np.zeros(len(labels), bool)):
        with pytest.raises(ValueError, match="landmark blocks"):
            evaluate_expressions(X, labels, subjects, FLDA, folds=4, missing=flags)


# ---------------------------------------------------------------------------
# comparison + reports

def test_compare_methods_paired_differences():
    rng = np.random.default_rng(11)
    X, labels, subjects = grouped_dataset(rng)
    res_a = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=4, seed=0)
    noisy = X + rng.normal(size=X.shape) * 8.0
    res_b = evaluate_expressions(noisy, labels, subjects, classifier=FLDA, folds=4, seed=0)
    cmp = compare_methods({"glf": res_a, "shapedna": res_b})
    assert cmp["methods"] == ["glf", "shapedna"]
    assert len(cmp["paired_differences"]) == 4
    diffs = np.array(res_a.fold_accuracies) - np.array(res_b.fold_accuracies)
    assert np.allclose(cmp["paired_differences"], diffs)
    assert cmp["ordering"].startswith("glf") or cmp["ordering"].startswith("shapedna")


def test_reports_validate_and_save(tmp_path):
    rng = np.random.default_rng(12)
    X, labels, subjects = grouped_dataset(rng)
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=4, seed=0)
    report = build_report("expressions", {"seed": 0}, expression_report_section(res))
    validate_report(report)
    # nothing skipped: the optional key stays out, as in older reports
    assert "skipped" not in report["results"]
    p = tmp_path / "r.json"
    save_report(p, report)
    back = json.loads(p.read_text())
    assert back["task"] == "expressions"
    assert back["environment"]["package_version"]

    X2, aus, subjects2 = make_au_features(rng)
    res_au = evaluate_aus(X2, aus, subjects2, classifier=FLDA, folds=4, seed=0)
    validate_report(build_report("aus", {}, au_report_section(res_au)))

    table = sweep_table(rng)
    res_sw = eigen_sweep(table, [1, 10], classifier=FLDA, folds=4, seed=0)
    validate_report(build_report("sweep", {}, sweep_report_section(res_sw)))


def _small_expression_section():
    X, labels, subjects = grouped_dataset(np.random.default_rng(16), n_subjects=4)
    return expression_report_section(
        evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=2, seed=0))


def test_environment_records_cpu_count_and_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report = build_report("expressions", {}, _small_expression_section())
    env = report["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                   "MKL_NUM_THREADS": None}


def test_environment_records_usable_cpus():
    """The CPUs the process may run on: at least one and at most the
    host's.  The schema takes an integer of at least 1, None, or no entry
    (reports written before it was recorded)."""
    report = build_report("expressions", {}, _small_expression_section())
    env = report["environment"]
    assert 1 <= env["usable_cpus"] <= env["cpu_count"]
    validate_report(report)
    report["environment"]["usable_cpus"] = None
    validate_report(report)
    del report["environment"]["usable_cpus"]
    validate_report(report)
    import jsonschema

    report["environment"]["usable_cpus"] = 0
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)


def test_report_without_cpu_and_thread_fields_validates():
    """Reports written before the environment recorded CPU count and BLAS
    threads still validate."""
    report = build_report("expressions", {}, _small_expression_section())
    for key in ("cpu_count", "blas_threads"):
        del report["environment"][key]
    validate_report(report)


def test_invalid_report_rejected():
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        validate_report({"schema_version": 1, "task": "nope", "config": {},
                         "environment": {}, "results": {}})


def test_report_schema_passes_its_metaschema():
    from jsonschema.validators import validator_for

    schema = report_schema()
    validator_for(schema).check_schema(schema)


def test_validate_report_raises_what_jsonschema_validate_raises():
    import jsonschema

    good = build_report("expressions", {}, _small_expression_section())
    bad_reports = [
        {"schema_version": 1, "task": "nope", "config": {}, "environment": {},
         "results": {}},
        {**good, "schema_version": 2},
        {**good, "environment": {**good["environment"], "cpu_count": 0}},
        {k: v for k, v in good.items() if k != "results"},
    ]
    for bad in bad_reports:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, report_schema())
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_report(bad)
        assert (got.value.message, list(got.value.path), list(got.value.schema_path)) == (
            want.value.message, list(want.value.path), list(want.value.schema_path))


def test_report_validation_checks_the_schema_at_most_once(monkeypatch):
    """The validator is built once per process: validating reports never
    re-checks the schema against its metaschema, and never skips a report."""
    import jsonschema
    from jsonschema.validators import validator_for

    checks = []
    cls = validator_for(report_schema())
    monkeypatch.setattr(cls, "check_schema",
                        classmethod(lambda c, schema, **kw: checks.append(schema)))
    report = build_report("expressions", {}, _small_expression_section())
    for _ in range(3):
        validate_report(report)
    assert len(checks) <= 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report({**report, "task": "nope"})


def test_confusion_cells_of_100_percent_stay_apart():
    labels = list(EXPRESSIONS)
    eye = np.eye(len(labels))
    text = format_confusion(ConfusionMatrix(labels, eye.astype(int), 100.0 * eye))
    for line in text.splitlines()[1:]:
        assert len(line.split()) == len(labels) + 1


def test_ascii_tables_render():
    rng = np.random.default_rng(13)
    X, labels, subjects = grouped_dataset(rng)
    res = evaluate_expressions(X, labels, subjects, classifier=FLDA, folds=4, seed=0)
    text = format_expression_result(res)
    assert "mean accuracy" in text and "K0" in text
    X2, aus, subjects2 = make_au_features(rng)
    res_au = evaluate_aus(X2, aus, subjects2, classifier=FLDA, folds=4, seed=0)
    au_text = format_au_result(res_au)
    assert "weighted average F1" in au_text
    assert str(AU_SET[0]) in au_text
    table = sweep_table(rng)
    res_sw = eigen_sweep(table, [1, 10], classifier=FLDA, folds=4, seed=0)
    assert "accuracy" in format_sweep_result(res_sw)
