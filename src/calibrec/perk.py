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


# Users per block: a block shares its pool, score and curve temporaries. A
# curve block is cut further so each (users, k_max, k_max) array holds at
# most _BLOCK_ENTRIES entries (0.5 MB).
_BLOCK_USERS = 128
_BLOCK_ENTRIES = 1 << 16


def _fold(pmf: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Fold one Bernoulli(p) per row into same-width count pmfs; the last column must be 0."""
    out = pmf * (1.0 - p)
    out[..., 1:] += pmf[..., :-1] * p
    return out


def _pb_rows(probs: np.ndarray) -> np.ndarray:
    """Poisson-binomial count pmfs, row by row: (users, n) probabilities to (users, n+1)."""
    users, n = probs.shape
    pmf = np.zeros((users, n + 1))
    pmf[:, 0] = 1.0
    for j in range(n):
        pmf[:, : j + 2] = _fold(pmf[:, : j + 2], probs[:, j : j + 1])
    return pmf


def _cutoff_weights(kind: str, k_max: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-item gains g[i] and the table w[m, k-1] = W(m, k) for m < n_max.

    Given item i at rank i < k is relevant and m other pool items are,
    item i contributes g[i] * W(m, k) to the top-k utility.
    """
    m = np.arange(n_max)[:, None]
    k = np.arange(1, k_max + 1)[None, :]
    if kind == "ndcg":
        gains = 1.0 / np.log2(np.arange(2, k_max + 2))
        inv_idcg = 1.0 / np.cumsum(gains)  # inv_idcg[r-1] = 1 / IDCG(r)
        return gains, inv_idcg[np.minimum(m + 1, k) - 1]
    ones = np.ones(k_max)
    if kind == "f1":
        return ones, 2.0 / (k + 1 + m)
    return ones, np.broadcast_to(1.0 / (1.0 + m), (n_max, k_max))  # recall


def _loo_curves(ranked: np.ndarray, pmf_rest: np.ndarray, kind: str) -> np.ndarray:
    """Recall, f1 or ndcg curves of one block of users; see ``utility_curves``."""
    users, k_max = ranked.shape
    width = pmf_rest.shape[1]
    gains, w = _cutoff_weights(kind, k_max, k_max + width - 1)

    # pmfs of the top-k_max count before and after each item i
    prefix = np.zeros((users, k_max, k_max))
    suffix = np.zeros((users, k_max, k_max))
    prefix[:, 0, 0] = suffix[:, -1, 0] = 1.0
    for i in range(1, k_max):
        prefix[:, i] = _fold(prefix[:, i - 1], ranked[:, i - 1 : i])
        j = k_max - 1 - i
        suffix[:, j] = _fold(suffix[:, j + 1], ranked[:, j + 1 : j + 2])

    # loo[u, i, a]: pmf of the top-k_max count without item i, prefix * suffix
    loo = np.zeros((users, k_max, k_max))
    for j in range(k_max):  # prefix[:, i, j] is 0 for j > i
        loo[:, j:, j:] += prefix[:, j:, j : j + 1] * suffix[:, j:, : k_max - j]
    del prefix, suffix
    # cum[u, k-1, a] = sum_{i<k} p_i g_i loo[u, i, a]
    loo *= (ranked * gains)[:, :, None]
    cum = np.cumsum(loo, axis=1, out=loo)

    # h[u, a, k-1] = E_B[W(a + B, k)], B the relevant count beyond the top k_max
    h = np.empty((users, k_max, k_max))
    for a in range(k_max):
        h[:, a] = pmf_rest @ w[a : a + width]
    return np.einsum("uka,uak->uk", cum, h)


def utility_curves(ranked_probs, rest_probs, kind: str) -> np.ndarray:
    """Expected utility of every prefix, for a batch of users.

    ``ranked_probs`` is (users, k_max) in ranking order and ``rest_probs``
    (users, R) holds the candidates beyond the top k_max; entry [u, k-1] of
    the result is user u's expected top-k utility. Ragged pools are padded
    with probability 0, which leaves every curve unchanged.

    Precision is the running mean. Recall, f1 and ndcg share one exact
    identity: writing N_-i for the relevant count over the whole pool minus
    item i, which does not depend on k,

        curve[k-1] = sum_{i<k} p_i * g_i * E[W(N_-i, k)]

    with W = 2/(k+1+m), g = 1 for f1; W = 1/(1+m), g = 1 for recall; and
    W = 1/IDCG(min(m+1, k)), g_i = 1/log2(i+2) for ndcg. N_-i splits into
    the top-k_max count without item i, whose pmf is the convolution of a
    prefix and a suffix pmf, and the independent rest count B, folded once
    into a (k_max, k_max) table. Users are evaluated a block at a time. The
    exact values lie in [0, 1]; float rounding above 1 is clipped.
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
    pmf_rest = _pb_rows(rest)
    out = np.empty((users, k_max))
    rows = max(1, min(_BLOCK_USERS, _BLOCK_ENTRIES // (k_max * k_max)))
    for start in range(0, users, rows):
        block = slice(start, start + rows)
        out[block] = _loo_curves(ranked[block], pmf_rest[block], kind)
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
