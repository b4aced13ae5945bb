"""Independent reference implementations used to check the library.

Everything here is deliberately brute force: exhaustive enumeration, Monte
Carlo simulation, finite differences, a full sort of every score, the
definitional one-user expected utilities and their Poisson-binomial
dynamic program, the incremental per-cutoff expected-utility curve that
the batched one replaced, the dict form of the rank-discrepancy weights,
the per-example ``np.add.at`` training steps that the bincount scatter
replaced, the batched training steps with fresh per-batch arrays that the
per-epoch buffers replaced, the per-user distillation steps that the waves
of users replaced, the line-by-line interaction loader that the byte-array parse
replaced, a line-by-line parse of the text splits that the splits
sidecar must equal, the synthetic generator's full sort of each user's scores and
its line-at-a-time CSV writer, the scalar one-list ranking metrics that
``metrics.evaluate`` batches, a general-purpose quasi-Newton minimizer
for calibrator fits and the weighted log-likelihood those fits minimize, the
per-bin loops of the reliability table and the histogram calibrator that one
equal-mass split replaced, and a Monte Carlo ranking AUC of a trained model. Nothing imports the code paths it verifies; the reference epochs
draw their negatives with the library's sampler, and the reference
distillation pass its items with the library's weights and draw, so that
they use the same random stream. The batched ones stack their own tables and scatter with
their own full-table ``np.bincount``, so they check the library's scatters
too.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from calibrec.calibration import Calibrator, apply
from calibrec.dataset import DataFormatError, Dataset, IdMaps, sample_negatives
from calibrec.distill import bd_loss, bd_score_grads, draw_distill_items, top_t_weights
from calibrec.ranker import (
    MfParams,
    TrainConfig,
    score_pairs,
    sigmoid,
)


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
    """One shared set of relevance draws, both of perk's utilities: {name: (mean, se)}."""
    k = len(topk)
    rel_top, rel_rest = _draw_relevance(topk, rest, n_draws, rng)
    hits = rel_top.sum(axis=1)
    total = hits + rel_rest.sum(axis=1)
    out = {"f1": _mean_se(2.0 * hits / (k + total))}
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    idcg_by_count = np.concatenate([[np.inf], np.cumsum(gains)])
    ndcg = np.where(total > 0, (rel_top @ gains) / idcg_by_count[np.minimum(total, k)], 0.0)
    out["ndcg"] = _mean_se(ndcg)
    return out


def _checked_probs(probs, name):
    arr = np.asarray(probs, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} contains NaN")
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


# The definitional one-user forms of the expected utilities: each builds the
# count distributions with its own dynamic program and sums over them.


def _pb_step(pmf: np.ndarray, p: float) -> np.ndarray:
    """Fold one Bernoulli(p) into a count distribution."""
    out = np.zeros(len(pmf) + 1)
    out[:-1] = pmf * (1.0 - p)
    out[1:] += pmf * p
    return out


def pb_pmf(probs) -> np.ndarray:
    """Distribution of the number of successes among independent Bernoullis.

    Dynamic program over the items, O(n^2) total; exact up to float
    rounding. Returns a vector of length n+1 over counts 0..n.
    """
    arr = _checked_probs(probs, "probs")
    pmf = np.array([1.0])
    for p in arr:
        pmf = _pb_step(pmf, float(p))
    return pmf


def expected_precision(probs_topk) -> float:
    """Mean of the top-k probabilities (linearity of expectation)."""
    arr = _checked_probs(probs_topk, "probs_topk")
    if len(arr) == 0:
        raise ValueError("top-k probabilities must be non-empty")
    return float(arr.mean())


def _recall_from_pmfs(pmf_top: np.ndarray, pmf_rest: np.ndarray) -> float:
    a = np.arange(len(pmf_top), dtype=float)
    b = np.arange(len(pmf_rest), dtype=float)
    denom = a[:, None] + b[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = np.where(denom > 0, a[:, None] / denom, 0.0)
    return float(pmf_top @ grid @ pmf_rest)


def expected_recall(probs_topk, probs_rest) -> float:
    """E[A / (A + B)] with A ~ PB(top-k), B ~ PB(rest) independent; 0/0 -> 0."""
    top = _checked_probs(probs_topk, "probs_topk")
    rest = _checked_probs(probs_rest, "probs_rest")
    return _recall_from_pmfs(pb_pmf(top), pb_pmf(rest))


def _f1_from_pmfs(pmf_top: np.ndarray, pmf_rest: np.ndarray, k: int) -> float:
    a = np.arange(len(pmf_top), dtype=float)
    b = np.arange(len(pmf_rest), dtype=float)
    grid = 2.0 * a[:, None] / (k + a[:, None] + b[None, :])
    return float(pmf_top @ grid @ pmf_rest)


def expected_f1(probs_topk, probs_rest) -> float:
    """E[2A / (k + A + B)]: harmonic precision/recall mean in expectation."""
    top = _checked_probs(probs_topk, "probs_topk")
    rest = _checked_probs(probs_rest, "probs_rest")
    if len(top) == 0:
        raise ValueError("top-k probabilities must be non-empty")
    return _f1_from_pmfs(pb_pmf(top), pb_pmf(rest), len(top))


def _ndcg_from_rest_pmf(probs_topk: np.ndarray, pmf_rest: np.ndarray) -> float:
    k = len(probs_topk)
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    inv_idcg = 1.0 / np.cumsum(gains)  # inv_idcg[r-1] = 1 / IDCG(r)
    total = 0.0
    for i in range(k):
        p_i = probs_topk[i]
        if p_i == 0.0:
            continue
        others = np.delete(probs_topk, i)
        # conditioning on item i being relevant removes it from the count;
        # rebuilt from scratch rather than deconvolved for stability
        pmf_others = pb_pmf(others)
        pmf_m = np.convolve(pmf_others, pmf_rest)
        ranks = np.minimum(np.arange(len(pmf_m)) + 1, k)
        total += p_i * gains[i] * float(pmf_m @ inv_idcg[ranks - 1])
    return total


def expected_ndcg(probs_topk, probs_rest) -> float:
    """Exact E[DCG/IDCG] under independent relevance, in ranking order.

    For each position i, conditions on item i being relevant: the remaining
    relevant count is A_{-i} + B, and the ideal normalizer uses
    min(1 + A_{-i} + B, k) positions. Lists where nothing is relevant
    contribute 0 (the 0/0 convention).
    """
    top = _checked_probs(probs_topk, "probs_topk")
    rest = _checked_probs(probs_rest, "probs_rest")
    if len(top) == 0:
        raise ValueError("top-k probabilities must be non-empty")
    return _ndcg_from_rest_pmf(top, pb_pmf(rest))


def reference_utility_curve(ranked, rest, kind):
    """Expected f1 or ndcg curve by the incremental per-user algorithm.

    Entry k-1 is the top-k value. For f1 the top-k and rest count
    pmfs are updated one Bernoulli fold per cutoff and combined over the
    (top count, rest count) grid; for ndcg every cutoff rebuilds, for each
    item i, the pmf of the other relevant items from scratch.
    """
    ranked = np.asarray(ranked, dtype=float)
    rest = np.asarray(rest, dtype=float)
    k_max = len(ranked)
    rest_pmfs = [None] * (k_max + 1)
    rest_pmfs[k_max] = pb_pmf(rest)
    for k in range(k_max - 1, 0, -1):
        rest_pmfs[k] = _pb_step(rest_pmfs[k + 1], float(ranked[k]))

    curve = np.empty(k_max)
    pmf_top = np.array([1.0])
    for k in range(1, k_max + 1):
        pmf_top = _pb_step(pmf_top, float(ranked[k - 1]))
        a = np.arange(len(pmf_top), dtype=float)[:, None]
        b = np.arange(len(rest_pmfs[k]), dtype=float)[None, :]
        if kind == "f1":
            curve[k - 1] = pmf_top @ (2.0 * a / (k + a + b)) @ rest_pmfs[k]
            continue
        gains = 1.0 / np.log2(np.arange(2, k + 2))
        inv_idcg = 1.0 / np.cumsum(gains)
        total = 0.0
        for i in range(k):
            if ranked[i] == 0.0:
                continue
            pmf_m = np.convolve(pb_pmf(np.delete(ranked[:k], i)), rest_pmfs[k])
            ranks = np.minimum(np.arange(len(pmf_m)) + 1, k)
            total += ranked[i] * gains[i] * float(pmf_m @ inv_idcg[ranks - 1])
        curve[k - 1] = total
    return curve


def precision_at(recommended, relevant: set, k: int) -> float:
    """|top-k hits| / k (divides by k even when the list is shorter)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / k


def recall_at(recommended, relevant: set, k: int) -> float:
    if not relevant:
        raise ValueError("empty relevant set")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / len(relevant)


def f1_at(recommended, relevant: set, k: int) -> float:
    """2 * hits / (k + |relevant|); 0 when nothing was hit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("empty relevant set")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return 2.0 * hits / (k + len(relevant))


def ndcg_at(recommended, relevant: set, k: int) -> float:
    """Binary-gain DCG over the top k, normalized by the ideal ordering."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("empty relevant set")
    dcg = sum(
        1.0 / np.log2(pos + 2)
        for pos, item in enumerate(recommended[:k])
        if item in relevant
    )
    idcg = sum(1.0 / np.log2(j + 2) for j in range(min(len(relevant), k)))
    return float(dcg / idcg)


def rank_discrepancy_weights(rank_this, rank_other, eta, truncate_rank):
    """Sampling weight per item: tanh(eta * max(0, r_this - r_other)), by dict.

    ``rank_this`` and ``rank_other`` map each candidate item to its 1-based
    rank under the learner and the counterpart. Ranks are clamped at
    ``truncate_rank`` first, so the weight is positive exactly when the
    counterpart ranks the item strictly better after truncation. The
    definitional form of ``distill.top_t_weights``, over full rank rows.
    """
    if rank_this.keys() != rank_other.keys():
        raise ValueError("rank rows cover different candidate sets")
    items = list(rank_this)
    r_this = np.minimum([rank_this[i] for i in items], truncate_rank)
    r_other = np.minimum([rank_other[i] for i in items], truncate_rank)
    return dict(zip(items, np.tanh(eta * np.maximum(r_this - r_other, 0)).tolist()))


def full_sort_ranking(params, user, exclude=()):
    """Every item outside ``exclude``, best first, for one user of an MF model.

    Scores the whole catalog as item_emb @ user_emb[user] + item_bias and
    lexsorts it by (-score, item index): ties go to the smaller index.
    """
    scores = params.item_emb @ params.user_emb[user] + params.item_bias
    items = np.setdiff1d(np.arange(len(scores)), np.asarray(list(exclude), dtype=np.int64))
    return items[np.lexsort((items, -scores[items]))].tolist()


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


def nll(cal, samples):
    """Mean inverse-propensity-weighted negative log-likelihood of samples under a calibrator.

    A sample with label y and propensity theta weighs -ln p by y/theta and
    -ln(1 - p) by 1 - y/theta, with p = ``apply(cal, s)`` clamped to
    [1e-12, 1 - 1e-12]: the objective ``calibration.fit`` minimizes, read
    through the fitted map rather than the fit's feature matrix.
    """
    s, y, theta = (np.asarray(a, dtype=float) for a in (samples.s, samples.y, samples.theta))
    w_pos = y / theta
    p = np.clip(np.atleast_1d(apply(cal, s)), 1e-12, 1.0 - 1e-12)
    return float(np.mean(w_pos * -np.log(p) + (1.0 - w_pos) * -np.log1p(-p)))


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


def reference_fit_histogram(s, w_pos, num_bins) -> Calibrator:
    """The histogram fit as a loop over bin counts: the first n mod num_bins bins take one more."""
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    w_sorted = w_pos[order]
    n = len(s_sorted)
    counts = [n // num_bins + (1 if b < n % num_bins else 0) for b in range(num_bins)]
    groups: list[list[float]] = []  # [upper_edge, positive_weight, count]
    start = 0
    for count in counts:
        if count == 0:
            continue
        stop = start + count
        edge = float(s_sorted[stop - 1])
        pos_weight = float(w_sorted[start:stop].sum())
        if groups and edge <= groups[-1][0]:
            # tied scores across the boundary: fold into the previous bin so
            # upper edges stay strictly increasing
            groups[-1][1] += pos_weight
            groups[-1][2] += count
        else:
            groups.append([edge, pos_weight, count])
        start = stop
    bins = [(edge, float(np.clip(w / cnt, 0.0, 1.0))) for edge, w, cnt in groups]
    return Calibrator(kind="histogram", bins=bins)


def reference_reliability_table(pairs, num_bins: int = 15, scheme: str = "equal_width"):
    """Reliability rows of packed (p, y) pairs, built one bin at a time.

    Returns a list of (bin_lower, bin_upper, count, mean_p, frac_pos) rows,
    one per bin, empty bins included with count 0. Raises ValueError for
    fewer than one bin, which would leave nothing to weigh.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        raise ValueError("empty pairs")
    arr = arr.reshape(-1, 2)
    p, y = arr[:, 0], arr[:, 1]
    if np.any((p < 0) | (p > 1)) or np.any(np.isnan(p)):
        raise ValueError("probabilities must lie in [0, 1]")
    n = len(p)

    rows = []
    if scheme == "equal_width":
        idx = np.minimum((p * num_bins).astype(int), num_bins - 1)
        for b in range(num_bins):
            mask = idx == b
            count = int(mask.sum())
            lower, upper = b / num_bins, (b + 1) / num_bins
            if count:
                rows.append((lower, upper, count, float(p[mask].mean()), float(y[mask].mean())))
            else:
                rows.append((lower, upper, 0, 0.0, 0.0))
    elif scheme == "equal_mass":
        order = np.argsort(p, kind="stable")
        counts = [n // num_bins + (1 if b < n % num_bins else 0) for b in range(num_bins)]
        start = 0
        prev_upper = 0.0
        for count in counts:
            if count == 0:
                rows.append((prev_upper, prev_upper, 0, 0.0, 0.0))
                continue
            sel = order[start : start + count]
            lower, upper = float(p[sel[0]]), float(p[sel[-1]])
            rows.append((lower, upper, count, float(p[sel].mean()), float(y[sel].mean())))
            prev_upper = upper
            start += count
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    return rows


def auc(params: MfParams, dataset: Dataset, split: str, rng, pairs_per_user: int = 50) -> float:
    """Monte Carlo pairwise ranking accuracy on a held-out split.

    Per user with split items, samples ``pairs_per_user`` (positive,
    negative) pairs, the negative drawn uniformly outside train and the
    split; a pair scores 1 if the positive ranks higher, 0.5 on a tie.
    Returns the per-user mean averaged over users. Users whose train and
    split rows cover every item are skipped.
    """
    held = dataset.split(split)
    sizes = held.sizes()
    users = np.flatnonzero((sizes > 0) & (dataset.train.sizes() + sizes < dataset.num_items))
    if not users.size:
        raise ValueError(f"split {split!r} is empty for every user")
    picks = rng.integers(0, np.repeat(sizes[users], pairs_per_user))
    positives = held.indices[np.repeat(held.indptr[users], pairs_per_user) + picks]
    positives = positives.reshape(len(users), pairs_per_user)
    negatives = sample_negatives(dataset, users, pairs_per_user, rng, exclude=("train", split))
    s_pos, s_neg = (
        score_pairs(params, np.repeat(users, pairs_per_user), picked).reshape(picked.shape)
        for picked in (positives, negatives)
    )
    per_user = np.mean((s_pos > s_neg) + 0.5 * (s_pos == s_neg), axis=1)
    return float(np.mean(per_user))


def copy_params(params: MfParams) -> MfParams:
    """A copy of ``params`` that shares no array with it."""
    return MfParams(params.user_emb.copy(), params.item_emb.copy(), params.item_bias.copy())


def reference_bpr_epoch(params, dataset, cfg, rng):
    """``ranker.bpr_epoch`` as one ``np.add.at`` per table and example group."""
    out = copy_params(params)
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    negatives = sample_negatives(dataset, users[order], 1, rng)[:, 0]
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        bu, bi = users[batch], items[batch]
        bj = negatives[start : start + cfg.batch_size]

        P = out.user_emb[bu]
        Qp = out.item_emb[bi]
        Qn = out.item_emb[bj]
        x = np.sum(P * (Qp - Qn), axis=1) + out.item_bias[bi] - out.item_bias[bj]
        total_loss += np.logaddexp(0.0, -x).sum()

        g = expit(x) - 1.0  # dL/dx
        coef = cfg.lr / len(batch)
        dP = g[:, None] * (Qp - Qn) + 2.0 * cfg.reg * P
        dQp = g[:, None] * P + 2.0 * cfg.reg * Qp
        dQn = -g[:, None] * P + 2.0 * cfg.reg * Qn
        np.add.at(out.user_emb, bu, -coef * dP)
        np.add.at(out.item_emb, bi, -coef * dQp)
        np.add.at(out.item_emb, bj, -coef * dQn)
        np.add.at(out.item_bias, bi, -coef * g)
        np.add.at(out.item_bias, bj, coef * g)
    return out, total_loss / len(order)


def reference_pointwise_epoch(params, dataset, cfg, rng):
    """``ranker.pointwise_epoch`` with one gathered user row per example."""
    out = copy_params(params)
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    npp = cfg.negatives_per_positive
    negatives = sample_negatives(dataset, users[order], npp, rng).ravel()
    total_loss = 0.0
    total_examples = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        bu, bi = users[batch], items[batch]
        neg = negatives[start * npp : (start + len(batch)) * npp]

        ex_u = np.concatenate([bu, np.repeat(bu, npp)])
        ex_i = np.concatenate([bi, neg])
        ex_y = np.concatenate([np.ones(len(batch)), np.zeros(len(neg))])

        P = out.user_emb[ex_u]
        Q = out.item_emb[ex_i]
        s = np.sum(P * Q, axis=1) + out.item_bias[ex_i]
        # -ln sigmoid(s) for positives, -ln(1 - sigmoid(s)) for negatives
        total_loss += np.where(ex_y == 1.0, np.logaddexp(0.0, -s), np.logaddexp(0.0, s)).sum()
        total_examples += len(ex_u)

        g = expit(s) - ex_y  # dL/ds
        coef = cfg.lr / len(ex_u)
        dP = g[:, None] * Q + 2.0 * cfg.reg * P
        dQ = g[:, None] * P + 2.0 * cfg.reg * Q
        np.add.at(out.user_emb, ex_u, -coef * dP)
        np.add.at(out.item_emb, ex_i, -coef * dQ)
        np.add.at(out.item_bias, ex_i, -coef * g)
    return out, total_loss / total_examples


def reference_distill_pass(model, own_top, other_top, target_source, lam, base_cfg, bd_cfg, rng):
    """``distill._distill_pass`` as one SGD step per user, in user order.

    Each step reads the rows that every earlier user's step left. The
    weights, the draw and the targets are the library's, so the pass uses
    the same random stream; ``model`` is updated in place.
    """
    if lam == 0:
        return 0.0, 0, 0
    weights = top_t_weights(own_top, other_top, bd_cfg.eta, bd_cfg.truncate_rank)
    drawn = draw_distill_items(other_top, weights, bd_cfg.sample_size, rng)
    counts = np.count_nonzero(drawn >= 0, axis=1)
    empty_users = int(np.count_nonzero(counts == 0))
    users = np.repeat(np.arange(len(drawn)), counts)
    items = drawn[drawn >= 0]
    targets = sigmoid(score_pairs(target_source, users, items))
    learner = np.empty_like(targets)
    ends = np.cumsum(counts)
    for user in np.flatnonzero(counts):
        span = slice(ends[user] - counts[user], ends[user])
        idx = items[span]
        p_u = model.user_emb[user].copy()
        q_rows = model.item_emb[idx]
        q = sigmoid(q_rows @ p_u + model.item_bias[idx])
        learner[span] = q
        g = lam * bd_score_grads(q, targets[span])
        model.user_emb[user] -= base_cfg.lr * (g @ q_rows)
        model.item_emb[idx] -= base_cfg.lr * np.outer(g, p_u)
        model.item_bias[idx] -= base_cfg.lr * g
    return bd_loss(learner, targets), len(items), empty_users


def _stacked_tables(params: MfParams) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the user rows over the item rows, as one table, and of the
    item biases."""
    return np.vstack([params.user_emb, params.item_emb]), params.item_bias.copy()


def bincount_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``target[rows[j]] += values[j]`` for a 1-D or (N, D) ``target``: one
    ``np.bincount`` over the whole target sums each row's values in input
    order, and the sums are added once."""
    width = 1 if target.ndim == 1 else target.shape[1]
    cells = (np.asarray(rows)[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(cells, weights=np.ravel(values), minlength=target.size)
    target += sums.reshape(target.shape)


def reference_batched_bpr_epoch(
    params: MfParams, dataset: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[MfParams, float]:
    """``ranker.bpr_epoch`` as it was before its per-epoch buffers: fresh
    arrays and concatenations in every batch, the same operations in the
    same order."""
    table, bias = _stacked_tables(params)
    U = params.num_users
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    negatives = sample_negatives(dataset, users[order], 1, rng)[:, 0]
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        B = len(batch)
        bu, bi = users[batch], items[batch]
        bj = negatives[start : start + B]
        # the positives and then the negatives
        bij = np.concatenate([bi, bj])
        # the batch's user rows, then its item rows, gathered and scattered once
        rows = np.concatenate([bu, bij + U])

        G = table[rows]
        P, Q = G[:B], G[B:]
        diff = Q[:B] - Q[B:]
        x = np.sum(P * diff, axis=1) + bias[bi] - bias[bj]
        total_loss += np.logaddexp(0.0, -x).sum()

        g = sigmoid(x) - 1.0  # dL/dx
        coef = cfg.lr / B
        gP = g[:, None] * P
        dP = g[:, None] * diff
        dQ = np.concatenate([gP, -gP])
        dP += 2.0 * cfg.reg * P
        dQ += 2.0 * cfg.reg * Q
        bincount_add(table, rows, -coef * np.concatenate([dP, dQ]))
        bincount_add(bias, bij, np.concatenate([-coef * g, coef * g]))
    return MfParams(table[:U], table[U:], bias), total_loss / len(order)


def reference_batched_pointwise_epoch(
    params: MfParams, dataset: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[MfParams, float]:
    """``ranker.pointwise_epoch`` as it was before its per-epoch buffers:
    fresh arrays and concatenations in every batch, two ``logaddexp`` under
    ``np.where``, and a label array per batch. Scores come from
    ``score_pairs``, so training must score pairs as serving does, and a
    user's negatives' gradients are summed by one einsum contraction."""
    table, bias = _stacked_tables(params)
    U = params.num_users
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    npp = cfg.negatives_per_positive
    negatives = sample_negatives(dataset, users[order], npp, rng).ravel()
    total_loss = 0.0
    total_examples = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        B = len(batch)
        bu, bi = users[batch], items[batch]
        neg = negatives[start * npp : (start + B) * npp]

        # examples: the B positives, then each batch row's npp negatives in turn
        ex_i = np.concatenate([bi, neg])
        ex_y = np.concatenate([np.ones(B), np.zeros(len(neg))])
        rows = np.concatenate([bu, ex_i + U])

        G = table[rows]
        P, Q = G[:B], G[B:]
        P_ex = np.concatenate([P, np.repeat(P, npp, axis=0)])
        ex_u = np.concatenate([bu, np.repeat(bu, npp)])
        s = score_pairs(MfParams(table[:U], table[U:], bias), ex_u, ex_i)
        # -ln sigmoid(s) for positives, -ln(1 - sigmoid(s)) for negatives
        total_loss += np.where(ex_y == 1.0, np.logaddexp(0.0, -s), np.logaddexp(0.0, s)).sum()
        total_examples += len(ex_i)

        g = sigmoid(s) - ex_y  # dL/ds
        coef = cfg.lr / len(ex_i)
        g_neg, Q_neg = g[B:].reshape(B, npp), Q[B:].reshape(B, npp, -1)
        dP = g[:B, None] * Q[:B] + np.einsum("bk,bkd->bd", g_neg, Q_neg)
        dQ = g[:, None] * P_ex
        dP += 2.0 * cfg.reg * (npp + 1) * P
        dQ += 2.0 * cfg.reg * Q
        bincount_add(table, rows, -coef * np.concatenate([dP, dQ]))
        bincount_add(bias, ex_i, -coef * g)
    return MfParams(table[:U], table[U:], bias), total_loss / total_examples


def first_seen_index(ids, external_id):
    """Index of an external id in a dict of them, the next free one if unseen."""
    return ids.setdefault(external_id, len(ids))


def reference_load_interactions(path, delimiter=","):
    """``dataset.load_interactions`` one text line at a time: pairs as a list
    of tuples, ids numbered on first sight. The utf-8-sig codec drops one
    leading byte order mark."""
    maps = IdMaps()
    interactions = []
    seen = set()
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = [f.strip() for f in stripped.split(delimiter)]
            if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
                raise DataFormatError(
                    f"line {line_no}: expected 'user{delimiter}item[{delimiter}timestamp]', got {stripped!r}",
                    line_no=line_no,
                )
            pair = (
                first_seen_index(maps.user_to_index, fields[0]),
                first_seen_index(maps.item_to_index, fields[1]),
            )
            if pair not in seen:
                seen.add(pair)
                interactions.append(pair)
    if not interactions:
        raise DataFormatError("input contains no interactions")
    return interactions, maps


def reference_read_split(path, delimiter, num_users):
    """A text split of ``user<delim>item`` lines, one line at a time, as CSR
    ``(indptr, indices)`` int64 arrays with each row's items sorted."""
    rows = [[] for _ in range(num_users)]
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            user, item = line.rstrip("\n").split(delimiter)
            rows[int(user)].append(int(item))
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.array([item for row in rows for item in sorted(row)], dtype=np.int64)
    return indptr, indices


def reference_low_rank_interactions(num_users, num_items, rank=2, per_user=20, noise=0.25, seed=0):
    """``synthetic.low_rank_interactions`` by a full stable sort of each user's scores."""
    rng = np.random.default_rng(seed)
    user_factors = rng.normal(size=(num_users, rank))
    item_factors = rng.normal(size=(num_items, rank))
    pairs = []
    for u in range(num_users):
        scores = item_factors @ user_factors[u] + noise * rng.normal(size=num_items)
        top = np.argsort(-scores, kind="stable")[:per_user]
        pairs.extend((u, int(i)) for i in sorted(top))
    return pairs


def reference_write_interactions_csv(
    path, pairs, delimiter=",", user_prefix="u", item_prefix="i", with_timestamps=False
):
    """``synthetic.write_interactions_csv`` one line per ``write``."""
    with open(path, "w", encoding="utf-8") as fh:
        for ts, (u, i) in enumerate(pairs):
            row = [f"{user_prefix}{u}", f"{item_prefix}{i}"]
            if with_timestamps:
                row.append(str(1_000_000 + ts))
            fh.write(delimiter.join(row) + "\n")
    return path
