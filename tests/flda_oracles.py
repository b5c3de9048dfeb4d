"""Test oracle for FLDA: the fit that forms the within- and
between-class scatter in the span of the training rows and solves the
r x r generalized eigenproblem through a Cholesky factor.
``classify.flda_train`` solves the same problem as a (C, C) one and must
agree with it."""

import numpy as np

from facespectra.classify import FLDAModel
from facespectra.spectral import fix_signs


def _class_stats(X, y, classes):
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    counts = np.array([(y == c).sum() for c in classes], dtype=np.int64)
    return means, counts


def reference_flda_span(X: np.ndarray):
    """Span reduction of a training matrix, shared by every labelling of
    its rows: ``(Q, Z)`` with ``Q`` an orthonormal basis (d, r) of the
    centered rows' span and ``Z = Xc @ Q``.  When d <= n there is nothing
    to reduce: ``Q`` is None and ``Z`` is the centered data."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    if d <= n:
        return None, Xc
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    rank = int((s > s[0] * 1e-12).sum()) if s.size else 0
    if rank == 0:
        raise np.linalg.LinAlgError("training data has zero variance")
    Q = vt[:rank].T                          # (d, r)
    return Q, Xc @ Q                         # Z: (n, r)


def reference_flda(X: np.ndarray, labels, reg: float = 1e-3, span=None) -> FLDAModel:
    """Fisher discriminant: top C-1 generalized eigenvectors of the
    regularized within-class / between-class scatter problem.

    The within-class scatter is regularized with eps*I,
    eps = reg * trace(S_w) / d, since d typically far exceeds the sample
    count and raw S_w is singular.  When d > n the problem is solved in
    the span of the centered data, which is exactly equivalent.  ``span``
    is :func:`reference_flda_span` of ``X``, computed here when not given.
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
    Q, Z = reference_flda_span(X) if span is None else span

    means_z, counts = _class_stats(Z, y, classes)
    grand = Z.mean(axis=0)
    r = Z.shape[1]
    Sw = np.zeros((r, r))
    Sb = np.zeros((r, r))
    for i, c in enumerate(classes):
        Zc = Z[y == c] - means_z[i]
        Sw += Zc.T @ Zc
        diff = (means_z[i] - grand)[:, None]
        Sb += counts[i] * (diff @ diff.T)
    # trace(S_w) is invariant under the span reduction; eps uses the
    # ambient feature dimension d
    eps = reg * np.trace(Sw) / d
    if eps <= 0:
        eps = reg
    Sw_reg = Sw + eps * np.eye(r)
    try:
        R = np.linalg.cholesky(Sw_reg)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"within-class scatter singular after regularization: {exc}"
        ) from exc
    Rinv_Sb = np.linalg.solve(R, Sb)
    M = np.linalg.solve(R, Rinv_Sb.T).T      # R^-1 Sb R^-T
    M = 0.5 * (M + M.T)
    w, v = np.linalg.eigh(M)
    take = min(len(classes) - 1, r)
    order = np.argsort(w)[::-1][:take]
    U = v[:, order]
    W = np.linalg.solve(R.T, U)              # (r, C-1)
    W /= np.linalg.norm(W, axis=0, keepdims=True)
    W = fix_signs(W)  # deterministic sign
    W_full = W if Q is None else Q @ W
    means_x, _ = _class_stats(X, y, classes)
    class_means = means_x @ W_full
    return FLDAModel(
        projection=W_full,
        classes=classes,
        class_means=class_means,
        eigenvalues=w[order],
    )
