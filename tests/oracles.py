"""Independent reference implementations used to check the library.

Everything here is deliberately brute force: exhaustive enumeration, Monte
Carlo simulation, finite differences, the incremental per-cutoff
expected-utility curve that the batched one replaced, and a general-purpose
quasi-Newton minimizer for calibrator fits. Nothing imports the code paths
it verifies.
"""

import numpy as np
from scipy.optimize import minimize


def brute_force_pb(probs):
    """Poisson-binomial pmf by enumerating all 2^n outcomes."""
    probs = np.asarray(list(probs), dtype=float)
    n = len(probs)
    if n == 0:
        return np.array([1.0])
    outcomes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # all bit patterns
    weights = np.prod(np.where(outcomes == 1, probs, 1.0 - probs), axis=1)
    return np.bincount(outcomes.sum(axis=1), weights=weights, minlength=n + 1)


def _draw_relevance(topk, rest, n_draws, rng):
    topk = np.asarray(topk, dtype=float)
    rest = np.asarray(rest, dtype=float)
    rel_top = rng.random((n_draws, len(topk))) < topk if len(topk) else np.zeros((n_draws, 0), bool)
    rel_rest = rng.random((n_draws, len(rest))) < rest if len(rest) else np.zeros((n_draws, 0), bool)
    return rel_top, rel_rest


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def mc_precision(topk, rest, n_draws, rng):
    rel_top, _ = _draw_relevance(topk, rest, n_draws, rng)
    return _mean_se(rel_top.sum(axis=1) / len(topk))


def mc_recall(topk, rest, n_draws, rng):
    rel_top, rel_rest = _draw_relevance(topk, rest, n_draws, rng)
    hits = rel_top.sum(axis=1)
    total = hits + rel_rest.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(total > 0, hits / total, 0.0)
    return _mean_se(vals)


def mc_f1(topk, rest, n_draws, rng):
    rel_top, rel_rest = _draw_relevance(topk, rest, n_draws, rng)
    hits = rel_top.sum(axis=1)
    total = hits + rel_rest.sum(axis=1)
    vals = 2.0 * hits / (len(topk) + total)
    return _mean_se(vals)


def mc_ndcg(topk, rest, n_draws, rng):
    """NDCG of the ranked top-k per draw; 0 when nothing anywhere is relevant."""
    k = len(topk)
    rel_top, rel_rest = _draw_relevance(topk, rest, n_draws, rng)
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = rel_top @ gains
    total = rel_top.sum(axis=1) + rel_rest.sum(axis=1)
    idcg_by_count = np.concatenate([[np.inf], np.cumsum(gains)])  # index min(count, k)
    idcg = idcg_by_count[np.minimum(total, k)]
    vals = np.where(total > 0, dcg / idcg, 0.0)
    return _mean_se(vals)


def mc_all_utilities(topk, rest, n_draws, rng):
    """One shared set of relevance draws, all four utilities: {name: (mean, se)}."""
    k = len(topk)
    rel_top, rel_rest = _draw_relevance(topk, rest, n_draws, rng)
    hits = rel_top.sum(axis=1)
    total = hits + rel_rest.sum(axis=1)
    out = {"precision": _mean_se(hits / k)}
    with np.errstate(divide="ignore", invalid="ignore"):
        out["recall"] = _mean_se(np.where(total > 0, hits / total, 0.0))
    out["f1"] = _mean_se(2.0 * hits / (k + total))
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    idcg_by_count = np.concatenate([[np.inf], np.cumsum(gains)])
    ndcg = np.where(total > 0, (rel_top @ gains) / idcg_by_count[np.minimum(total, k)], 0.0)
    out["ndcg"] = _mean_se(ndcg)
    return out


def _pb_fold(pmf, p):
    out = np.zeros(len(pmf) + 1)
    out[:-1] = pmf * (1.0 - p)
    out[1:] += pmf * p
    return out


def _pb(probs):
    pmf = np.array([1.0])
    for p in probs:
        pmf = _pb_fold(pmf, float(p))
    return pmf


def reference_utility_curve(ranked, rest, kind):
    """Expected-utility curve by the incremental per-user algorithm.

    Entry k-1 is the top-k value. For recall and f1 the top-k and rest count
    pmfs are updated one Bernoulli fold per cutoff and combined over the
    (top count, rest count) grid; for ndcg every cutoff rebuilds, for each
    item i, the pmf of the other relevant items from scratch.
    """
    ranked = np.asarray(ranked, dtype=float)
    rest = np.asarray(rest, dtype=float)
    k_max = len(ranked)
    if kind == "precision":
        return np.cumsum(ranked) / np.arange(1, k_max + 1)
    rest_pmfs = [None] * (k_max + 1)
    rest_pmfs[k_max] = _pb(rest)
    for k in range(k_max - 1, 0, -1):
        rest_pmfs[k] = _pb_fold(rest_pmfs[k + 1], float(ranked[k]))

    curve = np.empty(k_max)
    pmf_top = np.array([1.0])
    for k in range(1, k_max + 1):
        pmf_top = _pb_fold(pmf_top, float(ranked[k - 1]))
        a = np.arange(len(pmf_top), dtype=float)[:, None]
        b = np.arange(len(rest_pmfs[k]), dtype=float)[None, :]
        if kind == "recall":
            with np.errstate(divide="ignore", invalid="ignore"):
                grid = np.where(a + b > 0, a / (a + b), 0.0)
        elif kind == "f1":
            grid = 2.0 * a / (k + a + b)
        if kind in ("recall", "f1"):
            curve[k - 1] = pmf_top @ grid @ rest_pmfs[k]
            continue
        gains = 1.0 / np.log2(np.arange(2, k + 2))
        inv_idcg = 1.0 / np.cumsum(gains)
        total = 0.0
        for i in range(k):
            if ranked[i] == 0.0:
                continue
            pmf_m = np.convolve(_pb(np.delete(ranked[:k], i)), rest_pmfs[k])
            ranks = np.minimum(np.arange(len(pmf_m)) + 1, k)
            total += ranked[i] * gains[i] * float(pmf_m @ inv_idcg[ranks - 1])
        curve[k - 1] = total
    return curve


def finite_difference_grad(f, x, h=1e-5, coords=None):
    """Central finite differences of a scalar function at selected coordinates."""
    x = np.asarray(x, dtype=float)
    idx = range(x.size) if coords is None else coords
    grad = {}
    for i in idx:
        plus = x.copy().ravel()
        minus = x.copy().ravel()
        plus[i] += h
        minus[i] -= h
        grad[i] = (f(plus.reshape(x.shape)) - f(minus.reshape(x.shape))) / (2.0 * h)
    return grad


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def reference_fit(kind, objective, gradient, start):
    """Minimize a calibrator objective over (a, b, c) with scipy; returns (params, value).

    ``objective`` and ``gradient`` take the 3-vector (a, b, c). Platt moves
    (a, b) by L-BFGS-B with a >= 0 and holds c at 0; gaussian and gamma move
    all three by BFGS. Both run to tight gradient tolerances.
    """
    n = 2 if kind == "platt" else 3

    def full(x):
        return np.concatenate([x, np.zeros(3 - n)])

    def fun(x):
        return objective(full(x))

    def jac(x):
        return np.asarray(gradient(full(x)))[:n]

    x0 = np.asarray(start, dtype=float)[:n]
    if kind == "platt":
        res = minimize(fun, x0, jac=jac, method="L-BFGS-B", bounds=[(0.0, None), (None, None)],
                       options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 20_000})
    else:
        res = minimize(fun, x0, jac=jac, method="BFGS", options={"gtol": 1e-11, "maxiter": 20_000})
    return full(res.x), float(res.fun)
