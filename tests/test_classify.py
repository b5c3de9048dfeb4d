import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from facespectra.classify import (
    BinarySVM,
    ConvergenceError,
    SVMModel,
    flda_predict,
    flda_span,
    flda_train,
    identity_disjoint_folds,
    STD_CHUNK,
    kernel_matrix,
    standardize_fit,
    svm_predict,
    svm_solve_batch,
    svm_train_binary,
    svm_train_folds,
)
from flda_oracles import reference_flda
from smo_oracles import brute_force_dual_optimum, reference_smo, svm_dual_objective


def test_svm_matches_bruteforce_qp_oracle():
    rng = np.random.default_rng(42)
    for trial in range(4):
        n = rng.integers(5, 9)
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if abs(y.sum()) == n:
            y[0] = -y[0]
        for kernel in ("linear", "rbf"):
            K = kernel_matrix(X, X, kernel, 0.5 if kernel == "rbf" else None)
            C = 1.0 if trial % 2 else 5.0
            machine = svm_train_binary(X, y, kernel=kernel, C=C,
                                       gamma=0.5 if kernel == "rbf" else None,
                                       tol=1e-6)
            got = svm_dual_objective(machine, K)
            oracle = brute_force_dual_optimum(K, y, C)
            assert got == pytest.approx(oracle, abs=1e-3)


def test_svm_two_point_line():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    machine = svm_train_binary(X, y, kernel="linear", C=10.0, tol=1e-6)
    # decision function f(x) = x
    xs = np.array([[-2.0], [0.0], [0.5], [3.0]])
    decision = machine.decision(kernel_matrix(xs, X, "linear", None))
    assert np.abs(decision - xs.ravel()).max() < 1e-3
    assert machine.bias == pytest.approx(0.0, abs=1e-3)


def test_svm_conflicting_duplicates_saturate_at_C():
    X = np.array([[1.0], [1.0]])
    y = np.array([1.0, -1.0])
    C = 2.5
    machine = svm_train_binary(X, y, kernel="linear", C=C, tol=1e-6)
    assert np.allclose(np.abs(machine.dual_coef), C, atol=1e-9)
    obj = svm_dual_objective(machine, kernel_matrix(X, X, "linear", None))
    assert np.isfinite(obj)


def test_svm_objective_monotone_nondecreasing():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=30) > 0, 1.0, -1.0)
    if abs(y.sum()) == 30:
        y[0] = -y[0]
    _, hist = reference_smo(X, y, kernel="rbf", C=1.0)
    assert len(hist) > 1
    assert (np.diff(hist) >= -1e-9).all()


def test_svm_requires_both_labels():
    with pytest.raises(ValueError, match="both"):
        svm_train_binary(np.zeros((3, 1)), np.ones(3))


def test_svm_solve_batch_refuses_problems_that_would_empty_an_index_set():
    """A problem without both labels, or a C at most 1e-12 (the tolerance
    on alpha) times the largest problem's rows, could leave an up or low
    set empty, so the batch is refused up front with the problem or C
    named."""
    X = np.arange(10.0)[:, None]
    K = kernel_matrix(X, X, "linear", None)
    good = np.where(np.arange(10) < 5, 1.0, -1.0)
    one_label = np.where(np.arange(10) < 5, 1.0, 0.0)
    for problems, match in ((((0, good), (0, one_label)), "problem 1 needs both"),
                            (((0, np.zeros(10)), (0, good)), "problem 0 needs both")):
        with pytest.raises(ValueError, match=match):
            svm_solve_batch([K], problems)
    for C in (1e-13, 1e-11):
        with pytest.raises(ValueError, match="C must exceed 1e-12 times .* 10 rows"):
            svm_solve_batch([K], [(0, good)], C=C)
    (machine,) = svm_solve_batch([K], [(0, good)], C=2e-11)
    assert isinstance(machine, BinarySVM)


def test_svm_iteration_cap_raises():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 4))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    if abs(y.sum()) == 40:
        y[0] = -y[0]
    with pytest.raises(ConvergenceError, match="violation"):
        svm_train_binary(X, y, kernel="rbf", C=100.0, tol=1e-12, max_iter=3)


@st.composite
def smo_problems(draw):
    """Small binary problems; on a coarse grid the kernel has many equal
    entries, so the working-set selection meets ties."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    # duplicate points with conflicting labels
    for k in range(draw(st.integers(0, n // 2))):
        X[n - 1 - k], y[n - 1 - k] = X[k], -y[k]
    return X, y


def _smo_outcome(solver, X, y, **kw):
    try:
        return solver(X, y, **kw)
    except ConvergenceError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(smo_problems(), st.sampled_from(["rbf", "linear"]), st.sampled_from([0.05, 1.0, 100.0]),
       st.sampled_from([None, 0.5]), st.sampled_from([1e-3, 1e-6]), st.sampled_from([2, 5000]))
def test_svm_matches_reference_smo_exactly(problem, kernel, C, gamma, tol, max_iter):
    X, y = problem
    kw = dict(kernel=kernel, C=C, gamma=gamma, tol=tol, max_iter=max_iter)
    got = _smo_outcome(svm_train_binary, X, y, **kw)
    want = _smo_outcome(lambda *a, **k: reference_smo(*a, **k)[0], X, y, **kw)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.dual_coef, want.dual_coef)
    assert np.array_equal(got.support, want.support)
    assert (got.bias, got.n_iter, got.final_violation) == (
        want.bias, want.n_iter, want.final_violation)


def test_svm_iteration_cap_message_matches_reference():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 4))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    kw = dict(kernel="rbf", C=100.0, tol=1e-12, max_iter=3)
    with pytest.raises(ConvergenceError) as got:
        svm_train_binary(X, y, **kw)
    with pytest.raises(ConvergenceError) as want:
        reference_smo(X, y, **kw)
    assert str(got.value) == str(want.value)


def test_svm_rejects_out_of_range_C_and_gamma():
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, -1.0])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="C must be positive"):
            svm_train_binary(X, y, C=bad)
        with pytest.raises(ValueError, match="gamma must be positive"):
            svm_train_binary(X, y, gamma=bad)
        with pytest.raises(ValueError, match="C must be positive"):
            svm_train_folds([], C=bad)


def test_svm_multiclass_unanimous_and_deterministic():
    rng = np.random.default_rng(3)
    centers = {"A": (0, 0), "B": (8, 0), "C": (0, 8)}
    X, labels = [], []
    for lab, c in centers.items():
        X.append(rng.normal(size=(20, 2)) * 0.4 + c)
        labels += [lab] * 20
    X = np.vstack(X)
    (model,) = svm_train_folds([(labels, kernel_matrix(X, X, "linear", None))], C=1.0)
    test = np.array([[0.1, -0.1], [8.2, 0.3], [-0.4, 8.1]])
    pred = svm_predict(model, kernel_matrix(test, X, "linear", None))
    assert pred == ["A", "B", "C"]
    gram = kernel_matrix(X[:10], X, "linear", None)
    assert svm_predict(model, gram) == svm_predict(model, gram)


def _machine(b, row):
    # linear machine with decision(x) = w . x + b, w being training row ``row``
    return BinarySVM(support=np.array([row]), dual_coef=np.array([1.0]), bias=b,
                     n_iter=0, final_violation=0.0)


def test_svm_vote_tie_breaks_by_score_then_class_order():
    # the training rows are [0.5, 0] and [-0.5, 0]
    x0 = kernel_matrix(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0], [-0.5, 0.0]]),
                       "linear", None)
    model = SVMModel(classes=["A", "B", "C"])
    # cyclic preferences: (A,B)->A, (B,C)->B, (A,C)->C; votes tie 1:1:1
    model.machines[("A", "B")] = _machine(0.0, 0)    # d=+0.5 -> A
    model.machines[("B", "C")] = _machine(0.0, 0)    # d=+0.5 -> B
    model.machines[("A", "C")] = _machine(0.0, 1)    # d=-0.5 -> C
    # summed scores all zero -> falls through to class order
    assert svm_predict(model, x0) == ["A"]
    # bias the (A,C) machine: C picks up score, wins the tie
    model.machines[("A", "C")] = _machine(-0.4, 1)
    assert svm_predict(model, x0) == ["C"]
    assert svm_predict(model, x0) == svm_predict(model, x0)


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_svm_fold_gram_matches_per_pair_training(kernel):
    """``svm_train_folds`` reads the passed Gram matrix per pair and
    ``svm_predict`` reads each machine's support columns of the passed
    test-by-train kernel; each pair must behave as a machine trained on
    its own rows from scratch.  A slice can differ from the pair's own
    kernel in the last bit, which may change the SMO path, so both solve
    to a tight tolerance."""
    rng = np.random.default_rng(14)
    classes = ["A", "B", "C", "D"]
    X = np.vstack([rng.normal(size=(15, 6)) + 1.5 * rng.normal(size=6) for _ in classes])
    labels = np.repeat(classes, 15)
    test = rng.normal(size=(40, 6)) * 1.5
    gamma = 1.0 / X.shape[1] if kernel == "rbf" else None
    K = kernel_matrix(X, X, kernel, gamma)
    (model,) = svm_train_folds([(labels, K)], C=2.0, tol=1e-9)
    votes = np.zeros((len(test), len(classes)))
    scores = np.zeros((len(test), len(classes)))
    for (a, b), machine in model.machines.items():
        rows = np.flatnonzero((labels == a) | (labels == b))
        yy = np.where(labels[rows] == a, 1.0, -1.0)
        alone = svm_train_binary(X[rows], yy, kernel=kernel, C=2.0, tol=1e-9)
        assert set(machine.support) <= set(rows)
        assert svm_dual_objective(machine, K) == pytest.approx(
            svm_dual_objective(alone, kernel_matrix(X[rows], X[rows], kernel, gamma)),
            abs=1e-9)
        d = alone.decision(kernel_matrix(test, X[rows], kernel, gamma))
        ia, ib = classes.index(a), classes.index(b)
        votes[:, ia] += d > 0
        votes[:, ib] += d <= 0
        scores[:, ia] += d
        scores[:, ib] -= d
    # most votes, then the highest summed decision value
    best = np.where(votes == votes.max(axis=1, keepdims=True), scores, -np.inf).argmax(axis=1)
    assert svm_predict(model, kernel_matrix(test, X, kernel, gamma)) == [
        classes[i] for i in best]


@settings(max_examples=200, deadline=None)
@given(smo_problems(), st.sampled_from(["rbf", "linear"]), st.sampled_from([0.05, 1.0, 100.0]),
       st.sampled_from([1e-3, 1e-6]), st.sampled_from([2, 5000]))
def test_svm_mirrored_labels_negate_the_solution(problem, kernel, C, tol, max_iter):
    """Training on -y walks the same SMO path with the roles of the up
    and low sets swapped: the same support and iteration count, exactly
    negated dual coefficients and bias.  A two-class ``svm_train_folds`` fold whose
    first class in sort order is the negative one (AU labels "neg" <
    "pos") relies on this."""
    X, y = problem
    kw = dict(kernel=kernel, C=C, tol=tol, max_iter=max_iter)
    got = _smo_outcome(svm_train_binary, X, -y, **kw)
    want = _smo_outcome(svm_train_binary, X, y, **kw)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.support, want.support)
    assert np.array_equal(got.dual_coef, -want.dual_coef)
    assert (got.bias, got.n_iter, got.final_violation) == (
        -want.bias, want.n_iter, want.final_violation)


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_svm_predict_reads_only_support_columns(kernel):
    """Two well-separated clusters: the machine's support is a strict
    subset of the training rows, ``svm_predict`` reads only those columns
    of the passed kernel, and its labels follow the machine's own
    decision on the test rows."""
    rng = np.random.default_rng(21)
    X = np.vstack([rng.normal(size=(25, 3)) - 3.0, rng.normal(size=(25, 3)) + 3.0])
    labels = ["neg"] * 25 + ["pos"] * 25
    test = rng.normal(size=(30, 3)) * 3.0
    gamma = 0.2 if kernel == "rbf" else None
    (model,) = svm_train_folds([(labels, kernel_matrix(X, X, kernel, gamma))], C=1.0)
    machine = model.machines[("neg", "pos")]
    assert 0 < machine.support.size < len(X)
    gram = kernel_matrix(test, X, kernel, gamma)
    want = ["neg" if d > 0 else "pos" for d in machine.decision(gram)]
    gram[:, np.setdiff1d(np.arange(len(X)), machine.support)] = np.nan
    assert svm_predict(model, gram) == want
    assert "neg" in want and "pos" in want


def test_svm_train_rejects_gram_of_wrong_shape():
    (got,) = svm_train_folds([(["a", "b", "b"], np.eye(4))])
    assert isinstance(got, ValueError) and str(got) == "gram has shape (4, 4), expected (3, 3)"


@st.composite
def smo_batches(draw):
    """One batch of binary problems over 1-3 Gram matrices of different
    sizes: each Gram serves 1-3 problems, each on random rows (the other
    rows masked out), on every row, on the rows of one pair of the Gram's
    3 classes (so pairs interleave and overlap, as one-vs-one pairs do),
    or on the rows of the problem before it on the same Gram (so the two
    share one block).  One Gram has an entry moved by one ulp, so that it
    is not exactly symmetric."""
    kernel = draw(st.sampled_from(["rbf", "linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grams, data, problems = [], [], []
    for g in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 14))
        d = draw(st.integers(1, 3))
        X = (rng.integers(-2, 3, size=(n, d)).astype(float) if draw(st.booleans())
             else rng.normal(size=(n, d)))
        for k in range(draw(st.integers(0, n // 3))):
            X[n - 1 - k] = X[k]                     # duplicate points
        K = kernel_matrix(X, X, kernel, 1.0 / d if kernel == "rbf" else None)
        grams.append(K)
        data.append(X)
        classes = rng.integers(0, 3, size=n)
        for p in range(draw(st.integers(1, 3))):
            rows = draw(st.sampled_from(["random", "every", "class pair", "previous"]))
            if rows == "class pair":
                a, b = rng.choice(3, size=2, replace=False)
                y = np.where(classes == a, 1.0, np.where(classes == b, -1.0, 0.0))
            else:
                y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
                if rows == "previous" and p:
                    y[problems[-1][1] == 0] = 0.0
                elif rows != "every":
                    y[rng.random(n) < 0.3] = 0.0    # rows left out
            kept = np.flatnonzero(y)
            a, b = rng.choice(kept if kept.size > 1 else n, size=2, replace=False)
            y[a], y[b] = 1.0, -1.0                  # both labels, on the drawn rows
            problems.append((g, y))
    K = grams[draw(st.integers(0, len(grams) - 1))]
    if K.shape[0] > 1:
        a, b = rng.choice(K.shape[0], size=2, replace=False)
        K[a, b] = np.nextafter(K[a, b], np.inf)
    return kernel, grams, data, problems


def _batch_matches_reference(kernel, grams, data, problems, C, tol, max_iter):
    """Solve the batch and compare each problem with ``reference_smo`` on
    its own rows and its slice of the Gram; returns the outcome kinds."""
    got = svm_solve_batch(grams, problems, C=C, tol=tol, max_iter=max_iter)
    kinds = set()
    for (g, y), machine in zip(problems, got):
        rows = np.flatnonzero(y)
        want = _smo_outcome(lambda *a, **k: reference_smo(*a, **k)[0], data[g][rows], y[rows],
                            kernel=kernel, C=C, tol=tol, max_iter=max_iter,
                            gram=grams[g][np.ix_(rows, rows)])
        if isinstance(want, str):
            assert isinstance(machine, ConvergenceError) and str(machine) == want
            kinds.add("capped")
            continue
        assert np.array_equal(machine.support, rows[want.support])
        assert np.array_equal(machine.dual_coef, want.dual_coef)
        assert (machine.bias, machine.n_iter, machine.final_violation) == (
            want.bias, want.n_iter, want.final_violation)
        kinds.add("solved")
    return kinds


@settings(max_examples=40, deadline=None)
@given(smo_batches(), st.sampled_from([0.05, 1.0, 100.0]), st.sampled_from([1e-3, 1e-6]),
       st.sampled_from([3, 12, 5000]))
def test_svm_batch_matches_reference_smo_per_problem(batch, C, tol, max_iter):
    """Every problem of one lockstep batch walks the path of the plain SMO
    loop solved alone on its own rows, also when it shares its Gram with
    other problems, when that Gram is not exactly symmetric, and when it
    stops at the iteration cap while others run on."""
    _batch_matches_reference(*batch, C, tol, max_iter)


def test_svm_batch_mixes_solved_and_capped_problems():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    K = kernel_matrix(X, X, "rbf", 0.5)
    problems = [(0, np.where(rng.random(30) > 0.5, 1.0, -1.0) * (rng.random(30) < f))
                for f in (0.15, 0.3, 1.0, 1.0)]
    for _, y in problems:
        y[:2] = 1.0, -1.0
    # the problems take 22, 188, 248 and 559 steps
    kinds = _batch_matches_reference("rbf", [K], [X], problems, C=10.0, tol=1e-6,
                                     max_iter=200)
    assert kinds == {"solved", "capped"}


def test_svm_train_folds_matches_each_fold_alone():
    """Folds trained in one batch get the machines, or the error, that
    each gets alone; a fold with one class gets a ValueError, and a fold
    whose pair hits the cap names that pair."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(24, 4))
    K = kernel_matrix(X, X, "rbf", 0.25)
    labels = np.array(list("abc") * 8)
    folds = [(labels, K), (labels[:12], K[:12, :12]), (["a"] * 24, K),
             (labels[labels != "c"], K[np.ix_(labels != "c", labels != "c")])]
    for max_iter in (5, 60):
        got = svm_train_folds(folds, C=10.0, tol=1e-6, max_iter=max_iter)
        assert isinstance(got[2], ValueError) and str(got[2]) == "need at least 2 classes"
        for fold, model in zip(folds[:2] + folds[3:], got[:2] + got[3:]):
            (alone,) = svm_train_folds([fold], C=10.0, tol=1e-6, max_iter=max_iter)
            if isinstance(alone, ConvergenceError):
                assert isinstance(model, ConvergenceError) and str(model) == str(alone)
                continue
            assert model.machines.keys() == alone.machines.keys()
            for pair, machine in model.machines.items():
                other = alone.machines[pair]
                assert np.array_equal(machine.support, other.support)
                assert np.array_equal(machine.dual_coef, other.dual_coef)
                assert machine.bias == other.bias
    capped = svm_train_folds(folds[:1], C=10.0, tol=1e-6, max_iter=2)[0]
    assert str(capped).startswith("a vs b: SMO did not converge in 2 iterations")
    two_class = svm_train_folds(folds[3:], C=10.0, tol=1e-6, max_iter=2)[0]
    assert str(two_class).startswith("SMO did not converge in 2 iterations")


def test_svm_train_machines_hold_no_copy_of_training_rows():
    """A machine keeps the indices of its support rows, not the rows, and
    only what its decision reads."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(36, 50))
    labels = np.repeat(["a", "b", "c"], 12)
    (model,) = svm_train_folds([(labels, kernel_matrix(X, X, "rbf", 0.02))])
    assert [f.name for f in fields(BinarySVM)] == [
        "support", "dual_coef", "bias", "n_iter", "final_violation"]
    for machine in model.machines.values():
        held = [v for v in vars(machine).values() if isinstance(v, np.ndarray)]
        assert held and all(v.ndim == 1 for v in held)


# ---------------------------------------------------------------------------
# FLDA

def gaussian_classes(rng, means, n_per=40, spread=1.0):
    X, y = [], []
    for i, mu in enumerate(means):
        X.append(rng.normal(size=(n_per, len(mu))) * spread + mu)
        y += [f"C{i}"] * n_per
    return np.vstack(X), y


def test_flda_two_cluster_direction():
    # exactly whitened clusters so the within-class spread is identity-like
    rng = np.random.default_rng(5)
    X, y = [], []
    for i, mu in enumerate([(0.0, 0.0), (4.0, 4.0)]):
        Z = rng.normal(size=(200, 2))
        Z -= Z.mean(axis=0)
        Z = Z @ np.linalg.inv(np.linalg.cholesky(Z.T @ Z / 200)).T
        X.append(Z + mu)
        y += [f"C{i}"] * 200
    X = np.vstack(X)
    model = flda_train(X, y)
    w = model.projection[:, 0]
    w = w / np.linalg.norm(w)
    target = np.array([1.0, 1.0]) / math.sqrt(2)
    angle = math.acos(min(1.0, abs(float(w @ target))))
    assert angle < 1e-2


def test_flda_collinear_means_rank_one():
    rng = np.random.default_rng(6)
    X, y = gaussian_classes(rng, [(0, 0), (3, 0), (6, 0)], n_per=60)
    model = flda_train(X, y)
    assert model.eigenvalues[0] > 100 * abs(model.eigenvalues[1])


def test_flda_matches_generalized_eigen_oracle():
    rng = np.random.default_rng(7)
    for _ in range(3):
        X, y = gaussian_classes(
            rng, [rng.normal(size=10) * 3 for _ in range(3)], n_per=25)
        model = flda_train(X, y, reg=1e-3)
        # independent oracle: QZ generalized eigenproblem on explicit scatters
        y_arr = np.asarray(y)
        classes = sorted(set(y))
        mu = X.mean(axis=0)
        Sw = np.zeros((10, 10))
        Sb = np.zeros((10, 10))
        for c in classes:
            Xc = X[y_arr == c]
            mc = Xc.mean(axis=0)
            Sw += (Xc - mc).T @ (Xc - mc)
            Sb += len(Xc) * np.outer(mc - mu, mc - mu)
        eps = 1e-3 * np.trace(Sw) / 10
        w, v = scipy.linalg.eig(Sb, Sw + eps * np.eye(10))
        order = np.argsort(w.real)[::-1][:2]
        V = v[:, order].real
        # compare spanned subspaces via principal angles
        Qa = np.linalg.qr(model.projection)[0]
        Qb = np.linalg.qr(V)[0]
        sv = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
        assert np.arccos(np.clip(sv.min(), -1, 1)) < 1e-6


def test_flda_class_means_map_to_their_classes():
    rng = np.random.default_rng(8)
    X, y = gaussian_classes(rng, [(0, 0, 0), (5, 0, 0), (0, 5, 0)], n_per=30)
    model = flda_train(X, y)
    y_arr = np.asarray(y)
    means = np.stack([X[y_arr == c].mean(axis=0) for c in model.classes])
    assert flda_predict(model, means) == model.classes


def test_flda_midpoint_tie_breaks_by_class_order():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 0.0], [4.1, 0.0]])
    y = ["A", "A", "B", "B"]
    model = flda_train(X, y)
    mid = (X[:2].mean(axis=0) + X[2:].mean(axis=0)) / 2.0
    assert flda_predict(model, mid[None, :]) == ["A"]


def test_flda_heldout_accuracy_on_separable_data():
    rng = np.random.default_rng(9)
    X, y = gaussian_classes(rng, [(0, 0), (6, 0), (0, 6), (6, 6)], n_per=50,
                            spread=0.8)
    idx = rng.permutation(len(y))
    train, test = idx[:120], idx[120:]
    y_arr = np.asarray(y)
    model = flda_train(X[train], y_arr[train])
    pred = flda_predict(model, X[test])
    assert (np.asarray(pred) == y_arr[test]).mean() >= 0.95


def test_flda_affine_invariance_of_predictions():
    rng = np.random.default_rng(10)
    X, y = gaussian_classes(rng, [(0, 0, 0), (3, 1, 0), (0, 4, 2)], n_per=30)
    T = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    shift = rng.normal(size=3) * 5
    test = rng.normal(size=(20, 3)) * 3
    base = flda_predict(flda_train(X, y), test)
    scaled = flda_predict(flda_train(3.0 * X + shift, y), 3.0 * test + shift)
    assert base == scaled


def test_flda_high_dimensional_span_reduction():
    # d >> n exercises the span-reduced path; labels remain learnable
    rng = np.random.default_rng(11)
    n, d = 60, 500
    X = rng.normal(size=(n, d)) * 0.3
    y = ["P" if i % 2 else "Q" for i in range(n)]
    X[np.asarray(y) == "P", :3] += 4.0
    model = flda_train(X, y)
    assert model.projection.shape == (d, 1)
    pred = flda_predict(model, X)
    assert (np.asarray(pred) == np.asarray(y)).mean() > 0.95


def test_flda_needs_two_classes_and_two_samples():
    with pytest.raises(ValueError, match="2 classes"):
        flda_train(np.zeros((4, 2)), ["A"] * 4)
    with pytest.raises(ValueError, match="fewer than 2"):
        flda_train(np.zeros((3, 2)), ["A", "A", "B"])


def test_flda_rejects_out_of_range_reg():
    X = np.array([[0.0], [0.1], [4.0], [4.1]])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="reg must be positive"):
            flda_train(X, ["A", "A", "B", "B"], reg=bad)


@pytest.mark.parametrize("d", [500, 8])
def test_flda_given_span_equals_computed_span(d):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, d))
    y = ["P" if i % 3 else "Q" for i in range(40)]
    span = flda_span(X)
    _, Z, t = span
    assert np.abs(Z.T @ Z - np.diag(t)).max() <= 1e-12 * t.max()
    a = flda_train(X, y, reg=1e-3)
    b = flda_train(X, y, reg=1e-3, span=span)
    for field in ("projection", "class_means", "eigenvalues"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.classes == b.classes


def test_flda_classes_are_sorted_strings_of_the_labels():
    """Labels are compared as their strings: the classes are Python
    ``str`` in string order, and a fit on int labels is bit for bit the fit
    on their strings."""
    rng = np.random.default_rng(16)
    X = rng.normal(size=(12, 5))
    labels = [2, 10, 1] * 4
    X[np.asarray(labels) == 10] += 2.0
    a = flda_train(X, labels)
    b = flda_train(X, np.array([str(l) for l in labels]))
    assert a.classes == b.classes == ["1", "10", "2"]
    assert all(type(c) is str for c in a.classes)
    for field in ("projection", "class_means", "eigenvalues"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _flda_problem(rng, n_classes, n, d, rank):
    """``n`` rows in ``n_classes`` classes: a rank-``rank`` matrix plus a
    shift per class, so X has rank at most ``rank + n_classes``."""
    y = np.array([f"C{i % n_classes}" for i in range(n)])
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    for i in range(n_classes):
        X[y == f"C{i}"] += rng.normal(size=d) * 0.8
    return X, y


def _largest_principal_angle(A, B):
    Qa, Qb = np.linalg.qr(A)[0], np.linalg.qr(B)[0]
    return math.asin(min(1.0, np.linalg.norm(Qb - Qa @ (Qa.T @ Qb), 2)))


@pytest.mark.parametrize("n_classes", [2, 6])
@pytest.mark.parametrize("n, d, rank", [(60, 12, 12), (40, 300, 40), (60, 30, 18),
                                        (40, 300, 25)],
                         ids=["d<n", "d>n", "d<n-rank-deficient", "d>n-rank-deficient"])
def test_flda_matches_reference_fit(n_classes, n, d, rank):
    """The (C, C) solve after the span's SVD finds the discriminants of the
    r x r Cholesky solve.  Every X here has rank at least C - 1, so both
    keep C - 1 directions."""
    rng = np.random.default_rng(n_classes * 1000 + d + rank)
    for _ in range(3):
        X, y = _flda_problem(rng, n_classes, n, d, rank)
        test = rng.normal(size=(50, d)) * X.std(axis=0)
        got, want = flda_train(X, y), reference_flda(X, y)
        assert got.projection.shape == want.projection.shape == (d, n_classes - 1)
        assert _largest_principal_angle(got.projection, want.projection) < 1e-9
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=1e-9, atol=0)
        assert flda_predict(got, test) == flda_predict(want, test)
        assert flda_predict(got, X) == flda_predict(want, X)


def test_flda_leaves_out_directions_without_class_spread():
    # three classes with collinear means: one discriminant, and no
    # rounding-noise second direction that would move the class means
    X = np.array([[0, 0], [0, 1], [2, 0], [2, 1], [4, 0], [4, 1.0]])
    model = flda_train(X, list("AABBCC"))
    assert model.projection.shape == (2, 1)
    assert np.allclose(np.abs(model.projection[:, 0]), [1.0, 0.0])
    assert flda_predict(model, X + [0.0, 7.0]) == list("AABBCC")


# ---------------------------------------------------------------------------
# identity-disjoint folds

def test_folds_hundred_subject_protocol():
    subjects = [f"S{i:03d}" for i in range(100) for _ in range(12)]
    folds = identity_disjoint_folds(subjects, 10, seed=0)
    assert len(folds) == 10
    for train, test in folds:
        assert len(test) == 120
        assert len(train) == 1080
    covered = np.concatenate([t for _, t in folds])
    assert sorted(covered.tolist()) == list(range(1200))


def test_folds_subject_disjointness():
    rng = np.random.default_rng(12)
    subjects = [f"P{i}" for i in range(17) for _ in range(rng.integers(1, 6))]
    folds = identity_disjoint_folds(subjects, 5, seed=3)
    arr = np.asarray(subjects)
    for train, test in folds:
        assert set(arr[train]) & set(arr[test]) == set()


def test_folds_single_fold_rejected():
    with pytest.raises(ValueError, match="2 folds"):
        identity_disjoint_folds(["A", "B"], 1, seed=0)
    with pytest.raises(ValueError, match="subjects"):
        identity_disjoint_folds(["A", "B"], 3, seed=0)


def test_folds_deterministic_in_seed():
    subjects = [f"S{i}" for i in range(20) for _ in range(3)]
    a = identity_disjoint_folds(subjects, 4, seed=5)
    b = identity_disjoint_folds(subjects, 4, seed=5)
    c = identity_disjoint_folds(subjects, 4, seed=6)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    assert any(not np.array_equal(sa, sc)
               for (_, sa), (_, sc) in zip(a, c))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300),
       st.one_of(st.integers(1, 3 * STD_CHUNK + 5),
                 st.sampled_from([STD_CHUNK - 1, STD_CHUNK, STD_CHUNK + 1, 2 * STD_CHUNK - 1,
                                  2 * STD_CHUNK, 2 * STD_CHUNK + 1, 4 * STD_CHUNK + 3])),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1.0, 1e4]), st.booleans())
def test_standardize_fit_std_bits_equal_whole_array_std(n, d, seed, scale, constant):
    """The column-chunked std of ``standardize_fit`` has the bytes of
    ``X.std(axis=0)`` on the whole array, at widths that are and are not
    multiples of the chunk, with constant columns given unit scale."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * scale + rng.normal(size=d) * 100.0
    if constant:
        X[:, rng.random(d) < 0.2] = 3.0
    mu, sigma = standardize_fit(X)
    want = X.std(axis=0)
    assert np.array_equal(mu, X.mean(axis=0))
    assert sigma.tobytes() == np.where(want < 1e-12, 1.0, want).tobytes()
