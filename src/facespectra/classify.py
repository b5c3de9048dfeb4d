"""Linear classifiers and identity-disjoint cross-validation folds.

The SVM is a from-scratch SMO dual solver (max-violating-pair working
set) so the whole pipeline stays dependency-free and the solver can be
checked against a brute-force QP oracle.  It solves many binary problems
in one lockstep loop, so the one-vs-one pairs of several folds train in
one call; the multiclass SVM takes its kernels from the caller, and a
trained machine decides on a kernel the caller built.  FLDA works in the
span of the training data, which keeps it tractable when the feature
dimension far exceeds the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .spectral import fix_signs

EXPRESSIONS = ("AN", "DI", "FE", "HA", "SA", "SU")
AU_SET = (1, 2, 4, 5, 6, 7, 9, 10, 12, 15, 16, 17, 20, 23, 24, 25, 26)


class ConvergenceError(RuntimeError):
    """The SMO solver hit its iteration cap before reaching tolerance."""


STD_CHUNK = 256   # columns per np.std call in standardize_fit


def standardize_fit(X: np.ndarray):
    """Per-dimension mean/std from a training fold; zero-variance
    dimensions get unit scale so they stay inert.

    The std is taken over chunks of ``STD_CHUNK`` to ``2 * STD_CHUNK - 1``
    columns (one chunk when there are fewer), so that its temporary is a
    chunk, not the whole fold.  Each column's reduction runs down its rows
    in the same order as on the whole array, so the bits do not change; a
    chunk of one column would sum pairwise, so there is none."""
    mu = X.mean(axis=0)
    d = X.shape[1]
    chunks = max(1, d // STD_CHUNK)
    edges = [d * c // chunks for c in range(chunks + 1)]
    sigma = np.empty(d)
    for lo, hi in zip(edges, edges[1:]):
        sigma[lo:hi] = X[:, lo:hi].std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    return mu, sigma


def standardize_apply(X: np.ndarray, mu, sigma) -> np.ndarray:
    """Standardize the float array X in place (the same values as
    ``(X - mu) / sigma``) and return it."""
    X -= mu
    X /= sigma
    return X


# ---------------------------------------------------------------------------
# Folds

def identity_disjoint_folds(subjects, n_folds: int, seed: int):
    """Partition subjects (not samples) into ``n_folds`` groups and return
    per-fold (train_idx, test_idx) sample index arrays.

    Deterministic given (subject id list, seed); no subject ever spans
    train and test of the same fold.
    """
    subjects = [str(s) for s in subjects]
    unique = sorted(set(subjects))
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    if n_folds > len(unique):
        raise ValueError(f"{n_folds} folds requested but only {len(unique)} subjects")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(unique))
    groups = np.array_split(order, n_folds)
    subj_index = {s: i for i, s in enumerate(unique)}
    sample_group = np.empty(len(subjects), dtype=np.int64)
    group_of_subject = np.empty(len(unique), dtype=np.int64)
    for g, members in enumerate(groups):
        group_of_subject[members] = g
    for i, s in enumerate(subjects):
        sample_group[i] = group_of_subject[subj_index[s]]
    folds = []
    for g in range(n_folds):
        test = np.nonzero(sample_group == g)[0]
        train = np.nonzero(sample_group != g)[0]
        folds.append((train, test))
    return folds


# ---------------------------------------------------------------------------
# FLDA

@dataclass
class FLDAModel:
    projection: np.ndarray       # (d, C-1)
    classes: list
    class_means: np.ndarray      # (C, C-1), in discriminant space
    eigenvalues: np.ndarray      # (C-1,) generalized Rayleigh quotients


def flda_span(X: np.ndarray):
    """Span reduction of a training matrix, shared by every labelling of
    its rows: ``(Q, Z, t)`` with ``Q`` an orthonormal basis (d, r) of the
    centered rows' span, ``Z = Xc @ Q`` and ``t`` the squared singular
    values, so that ``Z.T @ Z = diag(t)``."""
    X = np.asarray(X, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    rank = int((s > s[0] * 1e-12).sum()) if s.size else 0
    if rank == 0:
        raise np.linalg.LinAlgError("training data has zero variance")
    Q = vt[:rank].T                          # (d, r)
    return Q, Xc @ Q, s[:rank] ** 2          # Z: (n, r)


def flda_train(X: np.ndarray, labels, reg: float = 1e-3, span=None) -> FLDAModel:
    """Fisher discriminant: top C-1 generalized eigenvectors of the
    regularized within-class / between-class scatter problem.

    The within-class scatter is regularized with eps*I,
    eps = reg * trace(S_w) / d, since d typically far exceeds the sample
    count and raw S_w is singular.  The problem is solved in the span of
    the centered data, which is exactly equivalent.  ``span`` is
    :func:`flda_span` of ``X``, computed here when not given.

    In the span the total scatter is diag(t); with U the (C, r) matrix of
    rows sqrt(n_c) (m_c - m), S_b = U'U and S_w + eps*I = D - U'U for
    D = diag(t + eps).  Maximizing w'S_b w / w'(S_w + eps*I) w is then
    maximizing c = w'U'Uw / w'Dw, solved by w = D^-1 U'a for the top
    eigenvectors a of the (C, C) matrix U D^-1 U'.  Directions with no
    between-class spread (c at rounding level) carry no discriminant and
    are left out.
    """
    if not 0 < reg < np.inf:
        raise ValueError(f"reg must be positive and finite, got {reg!r}")
    X = np.asarray(X, dtype=np.float64)
    classes, index, counts = np.unique(np.asarray(labels).astype(str, copy=False),
                                       return_inverse=True, return_counts=True)
    classes = classes.tolist()
    if len(classes) < 2:
        raise ValueError("FLDA needs at least 2 classes")
    if counts.min() < 2:
        raise ValueError(f"class {classes[counts.argmin()]!r} has fewer than 2 samples")
    d = X.shape[1]
    Q, Z, t = flda_span(X) if span is None else span

    masks = [index == c for c in range(len(classes))]
    means_z = np.stack([Z[m].mean(axis=0) for m in masks])
    U = np.sqrt(counts)[:, None] * (means_z - Z.mean(axis=0))     # (C, r)
    within = Z - means_z[index]
    # trace(S_w) is invariant under the span reduction; eps uses the
    # ambient feature dimension d
    eps = reg * np.einsum("ij,ij->", within, within) / d
    if eps <= 0:
        eps = reg
    UD = U / (t + eps)                       # U D^-1
    M = UD @ U.T
    c, a = np.linalg.eigh(0.5 * (M + M.T))
    order = np.argsort(c)[::-1][:len(classes) - 1]
    order = order[c[order] > 1e-12 * c[order[0]]]
    W = UD.T @ a[:, order]                   # (r, C-1)
    W = fix_signs(W / np.linalg.norm(W, axis=0, keepdims=True))  # deterministic sign
    W_full = Q @ W
    return FLDAModel(
        projection=W_full,
        classes=classes,
        class_means=np.stack([X[m].mean(axis=0) for m in masks]) @ W_full,
        # w'S_b w / w'(S_w + eps*I) w for unit w: c / (1 - c), without
        # the cancellation in 1 - c when c is near 1
        eigenvalues=((U @ W) ** 2).sum(axis=0) / (((within @ W) ** 2).sum(axis=0) + eps),
    )


def flda_predict(model: FLDAModel, X: np.ndarray):
    """Nearest class mean in discriminant space; ties break by class order."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = X @ model.projection
    d = np.linalg.norm(Z[:, None, :] - model.class_means[None, :, :], axis=2)
    idx = np.argmin(d, axis=1)
    return [model.classes[i] for i in idx]


# ---------------------------------------------------------------------------
# SVM (SMO dual solver)

def kernel_matrix(X: np.ndarray, Z: np.ndarray, kernel: str, gamma: float | None):
    """Gram matrix of the rows of X against the rows of Z; ``gamma`` is the
    RBF width, which the caller always supplies (None for linear)."""
    X = np.asarray(X, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if kernel == "linear":
        return X @ Z.T
    if kernel == "rbf":
        xx = np.einsum("ij,ij->i", X, X)
        zz = np.einsum("ij,ij->i", Z, Z)
        d2 = xx[:, None] + zz[None, :] - 2.0 * (X @ Z.T)
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-gamma * d2)
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_gamma(kernel: str, gamma: float | None, d: int) -> float | None:
    """The RBF width for ``d`` feature columns: ``gamma``, or 1/d when it
    is None."""
    if gamma is not None and not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if gamma is None and kernel == "rbf":
        return 1.0 / d
    return gamma


@dataclass
class BinarySVM:
    support: np.ndarray           # (S,) row indices in the machine's Gram matrix
    dual_coef: np.ndarray         # (S,)  alpha_i * y_i
    bias: float
    n_iter: int
    final_violation: float

    def decision(self, gram: np.ndarray) -> np.ndarray:
        """Decision values of the rows of ``gram``, the kernel of those
        rows against the rows the machine trained on."""
        return gram[:, self.support] @ self.dual_coef + self.bias


def svm_solve_batch(grams, problems, C: float = 1.0, tol: float = 1e-3,
                    max_iter: int = 100_000) -> list:
    """Solve many soft-margin duals with SMO in one lockstep loop.

    ``problems`` holds ``(g, y)`` pairs: ``grams[g]`` is the problem's
    Gram matrix and ``y`` holds +-1 on the rows the problem trains on and
    0 on the rows it leaves out, so the one-vs-one problems of a fold all
    read that fold's Gram matrix.  Returns, per problem, a
    :class:`BinarySVM` whose ``support`` indexes the rows of its Gram
    matrix, or a :class:`ConvergenceError` if the KKT violation is still
    above ``tol`` after ``max_iter`` pair updates.

    Each step selects the maximal-violating pair; ties break to the
    lowest index.  The loop keeps m = -y*G, G the gradient of
    0.5 a'Qa - sum(a) with Q = yy'K.  Since y is +-1, a step of t along
    y_i e_i - y_j e_j moves m by -t (K[:, i] - K[:, j]), and only alpha_i
    and alpha_j can change their membership of the up/low index sets.

    A problem steps over its own rows only, kept in their order in its
    Gram.  Its columns come from one block of the column bank: the
    columns of its Gram restricted to its rows, one block per distinct
    (Gram, row set), so that the problems on every row of a Gram share
    the whole Gram as their block.  The state of the problems still
    running is held as (A, n) arrays, n the most rows of any problem, and
    one step advances all of them.  A problem without both labels, or C
    at most 1e-12 n (the tolerance on alpha times n), could empty an index
    set, and raises ValueError.  A problem retires when its violation is
    at most ``tol`` or when its step is not positive; its support is then
    mapped back to its Gram's rows, and the state is compacted to the rows
    still running.  Every problem does the arithmetic of a lone solve on
    its rows in the same order, eta reading K[i, j] as row i of column j,
    so its path does not depend on the batch.
    """
    if not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C!r}")
    if not problems:
        return []
    labels = [np.asarray(y, dtype=np.float64) for _, y in problems]
    rows_of = [np.flatnonzero(y) for y in labels]
    n = max(r.size for r in rows_of)
    if min(C, 1.0) <= 1e-12 * n:
        raise ValueError(f"C must exceed 1e-12 times the largest problem's {n} rows, got {C!r}")
    P = len(problems)
    # bank row start[p] + i is column rows_of[p][i] of the problem's Gram
    # on the rows rows_of[p], zero-padded to n
    start = np.empty((P, 1), dtype=np.int64)
    offsets, blocks, total = {}, [], 0
    for p, ((g, _), r) in enumerate(zip(problems, rows_of)):
        key = (g, r.tobytes())
        if key not in offsets:
            offsets[key] = total
            blocks.append((grams[g], r, total))
            total += r.size
        start[p] = offsets[key]
    bank = np.zeros((total, n))
    for K, r, at in blocks:
        bank[at:at + r.size, :r.size] = K.T if r.size == len(K) else K[np.ix_(r, r)].T
    y = np.zeros((P, n))
    for p, (r, labels_p) in enumerate(zip(rows_of, labels)):
        y[p, :r.size] = labels_p[r]
    both = (y > 0).any(axis=1) & (y < 0).any(axis=1)
    if not both.all():
        raise ValueError(f"problem {int(np.argmin(both))} needs both +1 and -1 labels")
    eps = 1e-12 * max(1.0, C)
    top = C - eps
    alpha = np.zeros((P, n))
    # sets[:, 0] is the up set and sets[:, 1] the low set
    sets = np.stack((((y > 0) & (alpha < top)) | ((y < 0) & (alpha > eps)),
                     ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < top))), axis=1)
    m = y.copy()                              # -y*G at alpha = 0, where G = -1
    # a pair (i, j) steps along y_i e_i - y_j e_j: the signs of i and j in
    # the step, and the signs that turn argmin over low into argmax
    step_sign = np.array([1.0, -1.0])
    select_sign = step_sign[:, None]

    def retire(rows, n_iter):
        # the machines of the state rows that have finished, from one gather
        # of their free m values and support: the bias is the mean of m over
        # the free alphas (one pairwise sum per problem, as np.mean takes
        # it), or else the midpoint of max m over up and min m over low
        a, m_r = alpha[rows], m[rows]
        free, support = (a > eps) & (a < top), a > eps
        free_m, n_free = m_r[free], free.sum(axis=1).tolist()
        sv, coef = np.nonzero(support)[1], (a * y[rows])[support]
        n_sv = support.sum(axis=1).tolist()
        f0 = s0 = 0
        for r, (row, p) in enumerate(zip(rows.tolist(), active[rows].tolist())):
            f1, s1 = f0 + n_free[r], s0 + n_sv[r]
            if f1 > f0:
                bias = float(free_m[f0:f1].sum() / (f1 - f0))
            else:
                bias = float((m_r[r][sets[row, 0]].max() + m_r[r][sets[row, 1]].min()) / 2.0)
            results[p] = BinarySVM(support=rows_of[p][sv[s0:s1]], dual_coef=coef[s0:s1],
                                   bias=bias, n_iter=n_iter,
                                   final_violation=float(max(violation[row], 0.0)))
            f0, s0 = f1, s1

    def flat_views():
        # flat views of the state, and the flat offset of each row in m and sets
        row = np.arange(active.size)[:, None]
        return (m.reshape(-1), alpha.reshape(-1), y.reshape(-1), sets.reshape(-1),
                row * n, row * (2 * n))

    results = [None] * P
    active = np.arange(P)                     # problem of each state row
    violation = np.full(P, np.inf)
    flat_m, flat_alpha, flat_y, flat_sets, cell0, set0 = flat_views()
    for it in range(1, max_iter + 1):
        # ij[:, 0] = i, the argmax of m over up; ij[:, 1] = j, its argmin over low
        ij = np.where(sets, m[:, None, :] * select_sign, -np.inf).argmax(axis=2)
        cells = cell0 + ij
        m_ij = flat_m[cells]
        violation = m_ij[:, 0] - m_ij[:, 1]
        column = bank.take(start + ij, axis=0)     # (A, 2, n): K[:, i] and K[:, j]
        flat_column = column.reshape(-1)
        set_cells = set0 + ij                     # i and j in the up half; + n: low half
        k_ii = flat_column[set_cells[:, 0]]
        k_ij, k_jj = flat_column[set_cells + n].T  # K[i, j] is row i of column j
        # eta <= 1e-12 becomes 1e-12; np.maximum keeps a nan, as that test does
        eta = np.maximum(k_ii + k_jj - 2.0 * k_ij, 1e-12)
        t = violation / eta
        a_ij, y_ij = flat_alpha[cells], flat_y[cells]
        sign = y_ij * step_sign                   # (y_i, -y_j)
        # box limits along the step, taken in the order min(t, t_max_i,
        # t_max_j) takes them
        t_max = np.where(sign > 0, C - a_ij, a_ij)
        t = np.where(t_max[:, 0] < t, t_max[:, 0], t)
        t = np.where(t_max[:, 1] < t, t_max[:, 1], t)
        done = (violation <= tol) | (t <= 0)
        finished = np.flatnonzero(done)
        if finished.size:
            retire(finished, it)
            if finished.size == active.size:
                active = finished[:0]
                break
        # alpha_i + y_i t and alpha_j - y_j t; the finished rows step too,
        # and are dropped below
        a_ij = a_ij + sign * t[:, None]
        flat_alpha[cells] = a_ij
        m -= t[:, None] * (column[:, 0] - column[:, 1])
        inside, below, pos = a_ij > eps, a_ij < top, y_ij > 0
        flat_sets[set_cells] = np.where(pos, below, inside)
        flat_sets[set_cells + n] = np.where(pos, inside, below)
        if finished.size:
            keep = np.flatnonzero(~done)
            active, alpha, m, y, sets, start, violation = (
                a[keep] for a in (active, alpha, m, y, sets, start, violation))
            flat_m, flat_alpha, flat_y, flat_sets, cell0, set0 = flat_views()
    for r, p in enumerate(active):
        results[p] = ConvergenceError(
            f"SMO did not converge in {max_iter} iterations "
            f"(max KKT violation {violation[r]:.3e})")
    return results


def svm_train_binary(X: np.ndarray, y: np.ndarray, kernel: str = "rbf",
                     C: float = 1.0, gamma: float | None = None, tol: float = 1e-3,
                     max_iter: int = 100_000) -> BinarySVM:
    """One machine on the rows of X: the one-problem call of
    :func:`svm_solve_batch` on X's kernel, so ``support`` indexes the rows
    of X.  Raises :class:`ConvergenceError` if the solve does not
    converge in ``max_iter`` pair updates."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise ValueError("labels must contain both +1 and -1")
    K = kernel_matrix(X, X, kernel, kernel_gamma(kernel, gamma, X.shape[1]))
    (machine,) = svm_solve_batch([K], [(0, y)], C=C, tol=tol, max_iter=max_iter)
    if isinstance(machine, Exception):
        raise machine
    return machine


@dataclass
class SVMModel:
    classes: list
    machines: dict = field(default_factory=dict)   # (a, b) -> BinarySVM


def svm_train_folds(folds, C: float = 1.0, tol: float = 1e-3, max_iter: int = 100_000) -> list:
    """One-vs-one multiclass training of several folds in one
    :func:`svm_solve_batch` call.

    ``folds`` holds ``(labels, gram)`` pairs, ``gram`` the kernel of the
    fold's training rows against themselves; pairs on the same rows of
    one Gram matrix object share one block of its columns in the solver
    (two-class labellings of every row share the whole Gram).  Returns, per
    fold, an :class:`SVMModel` whose machines' ``support`` indexes the
    fold's rows, or the error of the fold: a ``ValueError`` for fewer
    than two classes or a Gram matrix of the wrong shape, else the error
    of its first failing pair in class-pair order.  With more than two
    classes a :class:`ConvergenceError` names that pair.
    """
    grams, gram_index = [], {}
    problems, owners, outcome = [], [], []
    for f, (labels, gram) in enumerate(folds):
        y = np.asarray([str(l) for l in labels])
        classes = sorted(set(y.tolist()))
        if len(classes) < 2:
            outcome.append(ValueError("need at least 2 classes"))
            continue
        if gram.shape != (len(y),) * 2:
            outcome.append(ValueError(f"gram has shape {gram.shape}, expected {(len(y),) * 2}"))
            continue
        g = gram_index.setdefault(id(gram), len(grams))
        if g == len(grams):
            grams.append(gram)
        outcome.append(SVMModel(classes=classes))
        for a, b in combinations(classes, 2):
            problems.append((g, np.where(y == a, 1.0, np.where(y == b, -1.0, 0.0))))
            owners.append((f, (a, b)))
    solved = svm_solve_batch(grams, problems, C=C, tol=tol, max_iter=max_iter)
    for (f, (a, b)), machine in zip(owners, solved):
        model = outcome[f]
        if isinstance(model, Exception):
            continue                                # an earlier pair failed
        if isinstance(machine, Exception):
            if isinstance(machine, ConvergenceError) and len(model.classes) > 2:
                machine = ConvergenceError(f"{a} vs {b}: {machine}")
            outcome[f] = machine
        else:
            model.machines[(a, b)] = machine
    return outcome


def svm_predict(model: SVMModel, gram: np.ndarray):
    """Majority vote over the one-vs-one machines; ties break by summed
    decision values, then by class order.  ``gram`` is the kernel of the
    test rows against every training row, and each machine's
    :meth:`BinarySVM.decision` reads the columns of its support."""
    n = gram.shape[0]
    classes = model.classes
    votes = np.zeros((n, len(classes)), dtype=np.int64)
    scores = np.zeros((n, len(classes)), dtype=np.float64)
    index = {c: i for i, c in enumerate(classes)}
    for (a, b), machine in model.machines.items():
        d = machine.decision(gram)
        ia, ib = index[a], index[b]
        pos = d > 0
        votes[pos, ia] += 1
        votes[~pos, ib] += 1
        scores[:, ia] += d
        scores[:, ib] -= d
    # the most votes, then the highest summed decision; argmax takes the
    # first maximum, so exact score ties go by class order
    best = np.where(votes == votes.max(axis=1, keepdims=True), scores, -np.inf).argmax(axis=1)
    return [classes[i] for i in best]
