"""Per-user recommendation-list sizing by calibrated expected utility.

Relevance of each candidate item is modeled as an independent Bernoulli
draw with its calibrated probability. Under that model the expected value
of precision, recall, F1, and NDCG at any cutoff k has a closed form built
on the Poisson-binomial distribution (the law of a sum of independent,
differently-weighted coins). The chosen cutoff k* is the smallest argmax of
the expected-utility curve over k = 1..k_max.

All expectations here are exact under the independence model; nothing is
sampled. ``perk_recommend_users`` and ``utility_curves`` evaluate whole
curves for a block of users at once; docs/perk.md derives the curve
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calibration import Calibrator, apply
from .dataset import Csr
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


# Users per block: a block shares its pool, score and curve temporaries.
_BLOCK_USERS = 128


def _fold(pmf: np.ndarray, p: np.ndarray) -> None:
    """Fold Bernoulli(p[u]) into column u of count pmfs indexed by count along
    axis 0, in place; mass pushed past the last row is dropped."""
    shifted = pmf[:-1] * p
    pmf *= 1.0 - p
    pmf[1:] += shifted


def _pb_rows(probs: np.ndarray) -> np.ndarray:
    """Poisson-binomial count pmfs, row by row: (users, n) probabilities to
    (users, n+1), a transposed view of the (n+1, users) array that is folded."""
    pmf = np.zeros((probs.shape[1] + 1, len(probs)))
    pmf[0] = 1.0
    for j, p in enumerate(np.ascontiguousarray(probs.T)):
        _fold(pmf[: j + 2], p)
    return pmf.T


def _block_curves(ranked: np.ndarray, rest: np.ndarray, kind: str) -> np.ndarray:
    """Recall, f1 or ndcg curves of one block of users; see ``utility_curves``."""
    users, k_max = ranked.shape
    probs = np.ascontiguousarray(ranked.T)  # probs[i]: item i's probability per user
    pmf_rest = _pb_rows(rest).T  # (R+1, users), as folded
    gains = 1.0 / np.log2(np.arange(2, k_max + 2)) if kind == "ndcg" else np.ones(k_max)
    # backward: h[k-1, n] = H_k(n) = E[W(n - 1 + R_k, k)] for n = 1..k
    h = np.zeros((k_max, k_max + 1, users))
    if kind == "ndcg":
        inv_idcg = 1.0 / np.cumsum(gains)  # inv_idcg[r-1] = 1 / IDCG(r)
        # q[r] = P(R_k = r) for r < k_max: IDCG saturates at k <= k_max
        q = np.zeros((k_max, users))
        q[: len(pmf_rest)] = pmf_rest[:k_max]
        for k in range(k_max, 0, -1):
            # excess[n + r] = 1/IDCG(min(n + r, k)) - 1/IDCG(k), left 0 at
            # n + r = 0, where the forward weight is 0
            excess = np.zeros(2 * k_max)
            excess[1:k] = inv_idcg[: k - 1] - inv_idcg[k - 1]
            h[k - 1] = inv_idcg[k - 1] + sliding_window_view(excess, k_max)[: k_max + 1] @ q
            _fold(q, probs[k - 1])
    else:
        # phi[t-1] = E[1 / (t + R_k)] for t = 1..2 k_max. A step back mixes
        # phi[t-1] and phi[t], a fold run in reverse; it leaves one more top
        # entry stale, never one that h reads.
        t = np.arange(1, 2 * k_max + 1)[:, None]
        phi = (1.0 / (t + np.arange(len(pmf_rest)))) @ pmf_rest
        for k in range(k_max, 0, -1):
            if kind == "f1":
                h[k - 1, : k + 1] = 2.0 * phi[k - 1 : 2 * k]  # W = 2/(k + n + R_k)
            else:
                h[k - 1, 1 : k + 1] = phi[:k]  # W = 1/(n + R_k)
            _fold(phi[::-1], probs[k - 1])
    # forward: a[n] = A_k(n) = E[S_k 1{N_k = n}] and pmf[n] = P(N_k = n)
    a, pmf = np.zeros((2, k_max + 1, users))
    pmf[0] = 1.0
    for k in range(k_max):
        _fold(a, probs[k])
        a[1:] += (gains[k] * probs[k]) * pmf[:-1]
        _fold(pmf, probs[k])
        h[k] *= a  # a is A_{k+1} now, and h[k] holds cutoff k + 1
    return h.sum(axis=1).T


def utility_curves(ranked_probs, rest_probs, kind: str) -> np.ndarray:
    """Expected utility of every prefix, for a batch of users.

    ``ranked_probs`` is (users, k_max) in ranking order and ``rest_probs``
    (users, R) holds the candidates beyond the top k_max; entry [u, k-1] of
    the result is user u's expected top-k utility. Ragged pools are padded
    with probability 0, which leaves every curve unchanged.

    Precision is the running mean. Recall, f1 and ndcg share one exact
    identity. With S_k = sum_{i<k} g_i X_i, N_k the relevant count in the
    top k and R_k the relevant count over the rest of the pool, which is
    independent of both,

        curve[k-1] = sum_n A_k(n) * H_k(n),
        A_k(n) = E[S_k * 1{N_k = n}],   H_k(n) = E[W(n - 1 + R_k, k)]

    with W = 2/(k+1+m), g = 1 for f1; W = 1/(1+m), g = 1 for recall; and
    W = 1/IDCG(min(m+1, k)), g_i = 1/log2(i+2) for ndcg. A_k comes from a
    forward fold over k and H_k from a backward one. Users are evaluated a
    block at a time. The exact values lie in [0, 1]; float rounding above 1
    is clipped.
    """
    ranked = _validate_probs(ranked_probs, "ranked_probs")
    rest = _validate_probs(rest_probs, "rest_probs")
    if ranked.ndim != 2 or rest.ndim != 2 or len(rest) != len(ranked):
        raise ValueError("ranked_probs and rest_probs must be 2-D with one row per user")
    users, k_max = ranked.shape
    if k_max < 1:
        raise ValueError("ranked_probs must be non-empty")
    if kind not in UTILITY_KINDS:
        raise ValueError(f"unknown utility kind {kind!r}")

    if kind == "precision":
        return np.cumsum(ranked, axis=1) / np.arange(1, k_max + 1)
    out = np.empty((users, k_max))
    for start in range(0, users, _BLOCK_USERS):
        block = slice(start, start + _BLOCK_USERS)
        out[block] = _block_curves(ranked[block], rest[block], kind)
    return np.minimum(out, 1.0, out=out)


def select_k(curve) -> int:
    """Smallest 1-based index attaining the curve's maximum."""
    arr = np.asarray(curve, dtype=float)
    if arr.size == 0:
        raise ValueError("empty utility curve")
    return int(np.argmax(arr)) + 1


def perk_recommend_users(
    params: MfParams,
    calibrator: Calibrator,
    excluded: Csr,
    users,
    cfg: PerkConfig,
) -> list[PersonalizedCut]:
    """Rank, calibrate, and cut each user's list at its best expected utility.

    Users go ``_BLOCK_USERS`` at a time. Per block, one ``top_k`` call ranks
    the items outside each user's ``excluded`` row (train, say, or train and
    validation) and keeps the top (k_max + rest_pool) as the candidate
    pools; one ``apply`` maps all pool scores through the calibrator
    (including any recorded score shift); ``utility_curves`` evaluates
    k = 1..k_max, and each list is cut at its curve's smallest argmax.
    Raises ValueError if a user has no candidates.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    cuts = []
    for start in range(0, len(users), _BLOCK_USERS):
        block = users[start : start + _BLOCK_USERS]
        pools = top_k(params, block, cfg.k_max + cfg.rest_pool, excluded)
        candidates = pools >= 0  # pools are -1-padded at the end of each row
        sizes = candidates.sum(axis=1)
        if np.any(sizes == 0):
            raise ValueError(f"user {block[np.argmin(sizes)]} has no candidate items")
        scores = np.concatenate(
            [score_items(params, u, pool[:n]) for u, pool, n in zip(block.tolist(), pools, sizes)]
        )
        # padding keeps probability 0, which leaves every curve unchanged
        probs = np.zeros(pools.shape)
        probs[candidates] = apply(calibrator, scores)
        k_max = min(cfg.k_max, pools.shape[1])
        curves = utility_curves(probs[:, :k_max], probs[:, k_max:], cfg.utility)
        for user, pool, size, curve in zip(block.tolist(), pools, sizes.tolist(), curves):
            curve = curve[: min(k_max, size)]
            k_star = select_k(curve)
            cuts.append(
                PersonalizedCut(
                    user=user,
                    k_star=k_star,
                    curve=curve,
                    items=pool[:k_star].tolist(),
                    k_max_effective=len(curve),
                )
            )
    return cuts
