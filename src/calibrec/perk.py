"""Per-user recommendation-list sizing by calibrated expected utility.

Relevance of each candidate item is modeled as an independent Bernoulli
draw with its calibrated probability. Under that model the expected value
of precision, recall, F1, and NDCG at any cutoff k has a closed form built
on the Poisson-binomial distribution (the law of a sum of independent,
differently-weighted coins). The chosen cutoff k* is the smallest argmax of
the expected-utility curve over k = 1..k_max.

All expectations here are exact under the independence model; nothing in
the product path is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import Calibrator, apply
from .dataset import Dataset
from .ranker import MfParams, score_items, top_k

UTILITY_KINDS = ("precision", "recall", "f1", "ndcg")


@dataclass
class PerkConfig:
    k_max: int = 50
    utility: str = "f1"
    rest_pool: int = 500  # candidates beyond k_max feeding the remaining-relevant count

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.rest_pool < 0:
            raise ValueError("rest_pool must be nonnegative")
        if self.utility not in UTILITY_KINDS:
            raise ValueError(f"utility must be one of {UTILITY_KINDS}")


@dataclass
class PersonalizedCut:
    """A user's chosen cutoff with the full expected-utility curve.

    ``k_max_effective`` is the curve length actually computed; it is smaller
    than the configured k_max only when the candidate pool ran out.
    """

    user: int
    k_star: int
    curve: np.ndarray
    items: list[int]
    k_max_effective: int


def _validate_probs(probs, name: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} contains NaN")
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


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
    arr = _validate_probs(probs, "probs")
    pmf = np.array([1.0])
    for p in arr:
        pmf = _pb_step(pmf, float(p))
    return pmf


def expected_precision(probs_topk) -> float:
    """Mean of the top-k probabilities (linearity of expectation)."""
    arr = _validate_probs(probs_topk, "probs_topk")
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
    top = _validate_probs(probs_topk, "probs_topk")
    rest = _validate_probs(probs_rest, "probs_rest")
    return _recall_from_pmfs(pb_pmf(top), pb_pmf(rest))


def _f1_from_pmfs(pmf_top: np.ndarray, pmf_rest: np.ndarray, k: int) -> float:
    a = np.arange(len(pmf_top), dtype=float)
    b = np.arange(len(pmf_rest), dtype=float)
    grid = 2.0 * a[:, None] / (k + a[:, None] + b[None, :])
    return float(pmf_top @ grid @ pmf_rest)


def expected_f1(probs_topk, probs_rest) -> float:
    """E[2A / (k + A + B)]: harmonic precision/recall mean in expectation."""
    top = _validate_probs(probs_topk, "probs_topk")
    rest = _validate_probs(probs_rest, "probs_rest")
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
    top = _validate_probs(probs_topk, "probs_topk")
    rest = _validate_probs(probs_rest, "probs_rest")
    if len(top) == 0:
        raise ValueError("top-k probabilities must be non-empty")
    return _ndcg_from_rest_pmf(top, pb_pmf(rest))


def utility_curve(ranked_probs, rest_probs, kind: str) -> np.ndarray:
    """Expected utility of every prefix: entry k-1 is the top-k value.

    For recall/f1/ndcg the "rest" of cutoff k is ranked_probs[k:] followed
    by rest_probs; precision ignores the rest entirely. Prefix and rest
    count distributions are updated incrementally (one Bernoulli fold per
    cutoff) instead of rebuilt, which keeps the whole curve at the cost of
    a few standalone evaluations.
    """
    ranked = _validate_probs(ranked_probs, "ranked_probs")
    rest = _validate_probs(rest_probs, "rest_probs")
    k_max = len(ranked)
    if k_max < 1:
        raise ValueError("ranked_probs must be non-empty")
    if kind not in UTILITY_KINDS:
        raise ValueError(f"unknown utility kind {kind!r}")

    if kind == "precision":
        return np.cumsum(ranked) / np.arange(1, k_max + 1)

    # rest pmf per cutoff, built downward: rest(k) = rest(k+1) + item k
    rest_pmfs: list[np.ndarray | None] = [None] * (k_max + 1)
    rest_pmfs[k_max] = pb_pmf(rest)
    for k in range(k_max - 1, 0, -1):
        rest_pmfs[k] = _pb_step(rest_pmfs[k + 1], float(ranked[k]))

    curve = np.empty(k_max)
    pmf_top = np.array([1.0])
    for k in range(1, k_max + 1):
        pmf_top = _pb_step(pmf_top, float(ranked[k - 1]))
        if kind == "recall":
            curve[k - 1] = _recall_from_pmfs(pmf_top, rest_pmfs[k])
        elif kind == "f1":
            curve[k - 1] = _f1_from_pmfs(pmf_top, rest_pmfs[k], k)
        else:  # ndcg
            curve[k - 1] = _ndcg_from_rest_pmf(ranked[:k], rest_pmfs[k])
    return curve


def select_k(curve) -> int:
    """Smallest 1-based index attaining the curve's maximum."""
    arr = np.asarray(curve, dtype=float)
    if arr.size == 0:
        raise ValueError("empty utility curve")
    return int(np.argmax(arr)) + 1


def perk_recommend(
    params: MfParams,
    calibrator: Calibrator,
    dataset: Dataset,
    user: int,
    cfg: PerkConfig,
    exclude_extra=(),
) -> PersonalizedCut:
    """Rank, calibrate, and cut one user's list at its best expected utility.

    Non-train items are ranked by score (``top_k``); the top
    (k_max + rest_pool) candidates are mapped through the calibrator
    (including any recorded score shift); the curve is evaluated for
    k = 1..k_max and the list cut at its smallest argmax. ``exclude_extra`` removes further items from the
    candidate pool (e.g. validation items when evaluating against test).
    """
    excluded = np.concatenate(
        [dataset.train.row(user), np.fromiter(exclude_extra, dtype=np.int64)]
    )
    pool = top_k(params, [user], cfg.k_max + cfg.rest_pool, [excluded])[0]
    pool = pool[pool >= 0]
    if not pool.size:
        raise ValueError(f"user {user} has no candidate items")
    probs = np.atleast_1d(apply(calibrator, score_items(params, user, pool)))
    k_eff = min(cfg.k_max, len(pool))
    curve = utility_curve(probs[:k_eff], probs[k_eff:], cfg.utility)
    k_star = select_k(curve)
    return PersonalizedCut(
        user=user,
        k_star=k_star,
        curve=curve,
        items=pool[:k_star].tolist(),
        k_max_effective=k_eff,
    )
