"""Linear classifiers and identity-disjoint cross-validation folds.

The SVM is a from-scratch SMO dual solver (max-violating-pair working
set) so the whole pipeline stays dependency-free and the solver can be
checked against a brute-force QP oracle; the multiclass SVM takes its
kernels from the caller.  FLDA works in the span of the training data,
which keeps it tractable when the feature dimension far exceeds the
sample count.
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


def standardize_fit(X: np.ndarray):
    """Per-dimension mean/std from a training fold; zero-variance
    dimensions get unit scale so they stay inert."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    return mu, sigma


def standardize_apply(X: np.ndarray, mu, sigma) -> np.ndarray:
    return (X - mu) / sigma


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
    priors: np.ndarray           # (C,)
    eigenvalues: np.ndarray      # (C-1,) generalized Rayleigh quotients


def _class_stats(X, y, classes):
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    counts = np.array([(y == c).sum() for c in classes], dtype=np.int64)
    return means, counts


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
    y = np.asarray([str(l) for l in labels])
    classes = sorted(set(y.tolist()))
    if len(classes) < 2:
        raise ValueError("FLDA needs at least 2 classes")
    for c in classes:
        if (y == c).sum() < 2:
            raise ValueError(f"class {c!r} has fewer than 2 samples")
    d = X.shape[1]
    Q, Z, t = flda_span(X) if span is None else span

    means_z, counts = _class_stats(Z, y, classes)
    U = np.sqrt(counts)[:, None] * (means_z - Z.mean(axis=0))     # (C, r)
    within = Z - means_z[np.searchsorted(classes, y)]
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
    means_x, _ = _class_stats(X, y, classes)
    return FLDAModel(
        projection=W_full,
        classes=classes,
        class_means=means_x @ W_full,
        priors=counts / counts.sum(),
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
    if gamma is None and kernel == "rbf":
        return 1.0 / d
    return gamma


@dataclass
class BinarySVM:
    support_vectors: np.ndarray   # (S, d)
    support: np.ndarray           # (S,) their row indices in the training X
    dual_coef: np.ndarray         # (S,)  alpha_i * y_i
    bias: float
    kernel: str
    gamma: float | None
    C: float
    n_iter: int
    final_violation: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        K = kernel_matrix(np.atleast_2d(X), self.support_vectors, self.kernel, self.gamma)
        return K @ self.dual_coef + self.bias


def svm_train_binary(X: np.ndarray, y: np.ndarray, kernel: str = "rbf",
                     C: float = 1.0, gamma: float | None = None, tol: float = 1e-3,
                     max_iter: int = 100_000, gram: np.ndarray | None = None) -> BinarySVM:
    """Solve the soft-margin dual with SMO, selecting the maximal-violating
    pair each step.  Deterministic: ties in the working-set selection
    break to the lowest index.  Raises :class:`ConvergenceError` if the
    KKT violation is still above ``tol`` after ``max_iter`` pair updates.

    ``gram`` is ``kernel_matrix(X, X, kernel, kernel_gamma(...))`` when
    the caller already has it (a slice of a larger Gram matrix serves).

    The loop keeps m = -y*G, G the gradient of 0.5 a'Qa - sum(a) with
    Q = yy'K.  Since y is +-1, a step of t along y_i e_i - y_j e_j moves m
    by -t (K[:, i] - K[:, j]), and only alpha_i and alpha_j can change
    their membership of the up/low index sets.
    """
    if not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C!r}")
    if gamma is not None and not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise ValueError("labels must contain both +1 and -1")
    gamma = kernel_gamma(kernel, gamma, X.shape[1])
    if gram is None:
        K = kernel_matrix(X, X, kernel, gamma)
    elif gram.shape != (X.shape[0],) * 2:
        raise ValueError(f"gram has shape {gram.shape}, expected {(X.shape[0],) * 2}")
    else:
        K = gram
    columns = np.ascontiguousarray(K.T)  # columns[i] is K[:, i]
    eps = 1e-12 * max(1.0, C)
    top = C - eps
    alpha = np.zeros(X.shape[0])
    up = ((y > 0) & (alpha < top)) | ((y < 0) & (alpha > eps))
    low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < top))
    alpha = alpha.tolist()
    labels = y.tolist()
    m = y.copy()                          # -y*G at alpha = 0, where G = -1

    violation = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        if not up.any() or not low.any():
            violation = 0.0
            break
        i = int(np.where(up, m, -np.inf).argmax())
        j = int(np.where(low, m, np.inf).argmin())
        violation = m.item(i) - m.item(j)
        if violation <= tol:
            break
        eta = K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j)
        if eta <= 1e-12:
            eta = 1e-12
        t = violation / eta
        # box limits along the direction (y_i e_i - y_j e_j)
        t_max_i = (C - alpha[i]) if labels[i] > 0 else alpha[i]
        t_max_j = alpha[j] if labels[j] > 0 else (C - alpha[j])
        t = min(t, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        m -= t * (columns[i] - columns[j])
        for k in (i, j):
            inside, below = alpha[k] > eps, alpha[k] < top
            up[k], low[k] = (below, inside) if labels[k] > 0 else (inside, below)
    else:
        raise ConvergenceError(
            f"SMO did not converge in {max_iter} iterations "
            f"(max KKT violation {violation:.3e})"
        )

    alpha = np.array(alpha)
    free = (alpha > eps) & (alpha < top)
    if free.any():
        bias = float(np.mean(m[free]))
    else:
        hi = m[up].max() if up.any() else 0.0
        lo = m[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    support = np.flatnonzero(alpha > eps)
    return BinarySVM(
        support_vectors=X[support],
        support=support,
        dual_coef=(alpha * y)[support],
        bias=bias,
        kernel=kernel,
        gamma=gamma,
        C=C,
        n_iter=it,
        final_violation=float(max(violation, 0.0)),
    )


@dataclass
class SVMModel:
    classes: list
    machines: dict = field(default_factory=dict)   # (a, b) -> BinarySVM


def svm_train(X: np.ndarray, labels, gram: np.ndarray, kernel: str = "rbf",
              C: float = 1.0, gamma: float | None = None, tol: float = 1e-3,
              max_iter: int = 100_000) -> SVMModel:
    """One-vs-one multiclass training over all class pairs.  ``gram`` is
    the kernel of X against itself; each pair trains on its slice, and
    each machine's ``support`` indexes the rows of X."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray([str(l) for l in labels])
    classes = sorted(set(y.tolist()))
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    if gram.shape != (X.shape[0],) * 2:
        raise ValueError(f"gram has shape {gram.shape}, expected {(X.shape[0],) * 2}")
    model = SVMModel(classes=classes)
    for a, b in combinations(classes, 2):
        rows = np.flatnonzero((y == a) | (y == b))
        yy = np.where(y[rows] == a, 1.0, -1.0)
        machine = svm_train_binary(X[rows], yy, kernel=kernel, C=C, gamma=gamma, tol=tol,
                                   max_iter=max_iter, gram=gram[np.ix_(rows, rows)])
        machine.support = rows[machine.support]
        model.machines[(a, b)] = machine
    return model


def svm_predict(model: SVMModel, gram: np.ndarray):
    """Majority vote over the one-vs-one machines; ties break by summed
    decision values, then by class order.  ``gram`` is the kernel of the
    test rows against every training row, and each machine reads the
    columns of its support."""
    n = gram.shape[0]
    classes = model.classes
    votes = np.zeros((n, len(classes)), dtype=np.int64)
    scores = np.zeros((n, len(classes)), dtype=np.float64)
    index = {c: i for i, c in enumerate(classes)}
    for (a, b), machine in model.machines.items():
        d = gram[:, machine.support] @ machine.dual_coef + machine.bias
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
