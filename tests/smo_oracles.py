"""Test oracles for the SMO solver: the brute-force dual optimum, the dual
objective of a trained machine, and the straightforward SMO loop that
every problem of ``classify.svm_solve_batch`` must reproduce exactly."""

import itertools

import numpy as np

from facespectra.classify import BinarySVM, ConvergenceError, kernel_matrix


def brute_force_dual_optimum(K, y, C):
    """Global optimum of max sum(a) - 0.5 a'Qa st. 0<=a<=C, y'a=0 by
    enumerating every {lower, upper, free} assignment and solving the
    stationarity system on the free set."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = np.outer(y, y) * K
    best = -np.inf
    for assign in itertools.product((0, 1, 2), repeat=n):
        assign = np.array(assign)
        alpha = np.zeros(n)
        alpha[assign == 1] = C
        free = np.nonzero(assign == 2)[0]
        if free.size:
            nf = free.size
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = Q[np.ix_(free, free)]
            A[:nf, nf] = y[free]
            A[nf, :nf] = y[free]
            rhs = np.concatenate([
                1.0 - Q[np.ix_(free, assign == 1)].sum(axis=1) * C,
                [-(y[assign == 1] * C).sum()],
            ])
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            alpha[free] = sol[:nf]
            if (alpha[free] < -1e-9).any() or (alpha[free] > C + 1e-9).any():
                continue
        if abs(y @ alpha) > 1e-8 * max(1.0, C):
            continue
        obj = alpha.sum() - 0.5 * alpha @ Q @ alpha
        best = max(best, obj)
    return best


def svm_dual_objective(machine: BinarySVM, K: np.ndarray) -> float:
    """Dual objective sum(a) - 0.5 a'Qa of a trained machine, recomputed
    from its support set; ``K`` is the Gram matrix its ``support`` indexes."""
    coef = machine.dual_coef
    Ksv = K[np.ix_(machine.support, machine.support)]
    alpha_sum = np.abs(coef).sum()
    return float(alpha_sum - 0.5 * coef @ Ksv @ coef)


def reference_smo(X, y, kernel="rbf", C=1.0, gamma=None, tol=1e-3, max_iter=100_000,
                  gram=None):
    """SMO with the maximal-violating pair, written out in full each
    iteration: gradient G of 0.5 a'Qa - sum(a) over Q = yy'K, and the
    up/low sets recomputed from all of alpha.  ``gram`` is K when given
    (K[i, j] is read as given, so it need not be symmetric).  Returns the
    machine and the dual objective after every pair update."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]
    if gamma is None and kernel == "rbf":
        gamma = 1.0 / X.shape[1]
    K = kernel_matrix(X, X, kernel, gamma) if gram is None else gram
    Q = (y[:, None] * y[None, :]) * K
    alpha = np.zeros(n)
    G = -np.ones(n)
    eps = 1e-12 * max(1.0, C)
    history = []

    violation = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        minus_yG = -y * G
        up = ((y > 0) & (alpha < C - eps)) | ((y < 0) & (alpha > eps))
        low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < C - eps))
        if not up.any() or not low.any():
            violation = 0.0
            break
        i = int(np.argmax(np.where(up, minus_yG, -np.inf)))
        j = int(np.argmin(np.where(low, minus_yG, np.inf)))
        violation = minus_yG[i] - minus_yG[j]
        if violation <= tol:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            eta = 1e-12
        t = violation / eta
        t_max_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        t = min(t, t_max_i, t_max_j)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        G += t * (y[i] * Q[:, i] - y[j] * Q[:, j])
        history.append(float(alpha.sum() - 0.5 * alpha @ Q @ alpha))
    else:
        raise ConvergenceError(
            f"SMO did not converge in {max_iter} iterations "
            f"(max KKT violation {violation:.3e})"
        )

    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        bias = float(np.mean(-(y * G)[free]))
    else:
        minus_yG = -y * G
        up = ((y > 0) & (alpha < C - eps)) | ((y < 0) & (alpha > eps))
        low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < C - eps))
        hi = minus_yG[up].max() if up.any() else 0.0
        lo = minus_yG[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    sv = alpha > eps
    machine = BinarySVM(
        support=np.flatnonzero(sv),
        dual_coef=(alpha * y)[sv],
        bias=bias,
        n_iter=it,
        final_violation=float(max(violation, 0.0)),
    )
    return machine, np.array(history)
