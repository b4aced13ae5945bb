"""Per-user recommendation-list sizing by calibrated expected utility.

Relevance of each candidate item is modeled as an independent Bernoulli
draw with its calibrated probability. Under that model the expected F1 and
NDCG at any cutoff k have a closed form built on the Poisson-binomial
distribution (the law of a sum of independent, differently-weighted coins).
The chosen cutoff k* is the smallest argmax of the expected-utility curve
over k = 1..k_max. docs/perk.md, "Why only F1 and NDCG", shows why
precision and recall, whose curves cannot peak inside 1..k_max, are not
offered.

All expectations here are exact under the independence model, but for
f1's rest term, which Gauss–Legendre quadrature integrates to a tested 1e-12
relative tolerance; nothing is sampled. ``perk_recommend_users`` and
``utility_curves`` evaluate whole curves for a block of users at once;
docs/perk.md, "One identity for F1 and NDCG", derives the curve identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calibration import Calibrator, apply
from .dataset import Csr
from .ranker import MfParams, top_k

# the utilities whose expected curve can peak inside 1..k_max
UTILITIES = ("f1", "ndcg")


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
        if self.utility not in UTILITIES:
            raise ValueError(f"utility must be one of {UTILITIES}")


class PerkLists(NamedTuple):
    """Personalized lists, one row per user: ``items`` (U, k_max) best first
    and -1 past each ``k_star``; ``curves`` (U, k_max) NaN past each
    ``k_max_effective``, the curve length computed, below k_max only where
    the candidate pool ran out. ``rest_nodes`` is the largest quadrature
    node count any block's f1 rest term used, 0 for ndcg."""

    users: np.ndarray
    items: np.ndarray
    k_star: np.ndarray
    curves: np.ndarray
    k_max_effective: np.ndarray
    rest_nodes: int = 0


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


def _pb_rows(probs: np.ndarray, counts: int) -> np.ndarray:
    """Poisson-binomial count pmfs, row by row: (users, n) probabilities to
    (users, counts), a transposed view of the (counts, users) array that is
    folded. Mass at counts of ``counts`` and above is dropped."""
    pmf = np.zeros((counts, len(probs)))
    pmf[0] = 1.0
    for j, p in enumerate(np.ascontiguousarray(probs.T)):
        _fold(pmf[: j + 2], p)
    return pmf.T


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-node Gauss–Legendre rule on [0, 1] as (nodes x, 1 - x, weights).

    Newton's method on the three-term Legendre recurrence, started from
    cosine estimates of the roots, places the nodes to rounding; numpy's
    ``leggauss`` is off by about 1e-12 relative at 128 nodes.
    """

    def legendre(z):  # P_n(z) and P_n'(z)
        p_prev, p = np.ones(n), z
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * z * p - (j - 1) * p_prev) / j
        return p, n * (z * p - p_prev) / (z * z - 1.0)

    z = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(z)
        step = p / dp
        z = z - step
        if np.max(np.abs(step)) < 1e-12:  # convergence is quadratic
            break
    dp = legendre(z)[1]
    rule = ((1.0 + z) / 2, (1.0 - z) / 2, 1.0 / ((1.0 - z * z) * dp * dp))
    for arr in rule:  # cached, so shared by every later call
        arr.flags.writeable = False
    return rule


def _rest_nodes(rest: np.ndarray, k_max: int) -> int:
    """Quadrature nodes ``_rest_phi`` uses for one block's (users, R) rest pools.

    The integrand x^(t-1) G(x) is a polynomial of degree at most 2 k_max - 1
    + R, which n_exact = k_max + ceil(R / 2) nodes integrate exactly. Short of
    that, it decays like exp(-(t - 1 + sum p) (1 - x)) away from x = 1, where
    the nodes crowd like 1/n^2, so the rule takes n = 3.5 sqrt(sum p + 2 k_max),
    rounded up to a multiple of 8, with sum p the block's largest rest-pool
    sum; tests/test_perk.py holds it within 1e-12 relative of the exact fold,
    which 2.6 sqrt(...) misses.
    """
    n_exact = k_max + (rest.shape[1] + 1) // 2
    spread = float(rest.sum(axis=1).max(initial=0.0)) + 2 * k_max
    return min(n_exact, 8 * math.ceil(3.5 * math.sqrt(spread) / 8))


def _rest_phi(rest: np.ndarray, k_max: int) -> np.ndarray:
    """phi[t-1, u] = E[1 / (t + R_u)] for t = 1..2 k_max, R_u user u's
    relevant count over its rest pool, from

        E[1 / (t + R)] = integral over [0, 1] of x^(t-1) G(x) dx,
        G(x) = prod_i (1 - p_i (1 - x)), R's generating function,

    by Gauss–Legendre quadrature on ``_rest_nodes`` nodes. G is built one
    item at a time; every factor lies in [0, 1], so underflow drops only
    negligible terms."""
    x, one_minus_x, w = _gauss_legendre(_rest_nodes(rest, k_max))
    g = np.ones((len(x), len(rest)))
    factor = np.empty_like(g)
    for p in np.ascontiguousarray(rest.T):
        np.multiply(one_minus_x[:, None], p, out=factor)
        np.subtract(1.0, factor, out=factor)
        g *= factor
    return (w * x ** np.arange(2 * k_max)[:, None]) @ g


def _block_curves(ranked: np.ndarray, rest: np.ndarray, kind: str) -> np.ndarray:
    """F1 or ndcg curves of one block of users; see ``utility_curves``."""
    users, k_max = ranked.shape
    probs = np.ascontiguousarray(ranked.T)  # probs[i]: item i's probability per user
    gains = 1.0 / np.log2(np.arange(2, k_max + 2)) if kind == "ndcg" else np.ones(k_max)
    # backward: h[k-1, n] = H_k(n) = E[W(n - 1 + R_k, k)] for n = 1..k
    h = np.zeros((k_max, k_max + 1, users))
    if kind == "ndcg":
        inv_idcg = 1.0 / np.cumsum(gains)  # inv_idcg[r-1] = 1 / IDCG(r)
        # q[r] = P(R_k = r) for r < k_max: IDCG saturates at k <= k_max
        q = _pb_rows(rest, k_max).T
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
        phi = _rest_phi(rest, k_max)
        for k in range(k_max, 0, -1):
            h[k - 1, : k + 1] = 2.0 * phi[k - 1 : 2 * k]  # W = 2/(k + n + R_k)
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

    ``kind`` is one of ``UTILITIES``; f1 and ndcg share one exact
    identity. With S_k = sum_{i<k} g_i X_i, N_k the relevant count in the
    top k and R_k the relevant count over the rest of the pool, which is
    independent of both,

        curve[k-1] = sum_n A_k(n) * H_k(n),
        A_k(n) = E[S_k * 1{N_k = n}],   H_k(n) = E[W(n - 1 + R_k, k)]

    with W = 2/(k+1+m), g = 1 for f1 and W = 1/IDCG(min(m+1, k)),
    g_i = 1/log2(i+2) for ndcg. A_k comes from a
    forward fold over k and H_k from a backward one; f1's H_K, built from
    the rest pool, is integrated by quadrature (``_rest_phi``) to a tested
    1e-12 relative tolerance. Users are evaluated a block at a time. The
    exact values lie in [0, 1]; float rounding above 1 is clipped.
    """
    ranked = _validate_probs(ranked_probs, "ranked_probs")
    rest = _validate_probs(rest_probs, "rest_probs")
    if ranked.ndim != 2 or rest.ndim != 2 or len(rest) != len(ranked):
        raise ValueError("ranked_probs and rest_probs must be 2-D with one row per user")
    users, k_max = ranked.shape
    if k_max < 1:
        raise ValueError("ranked_probs must be non-empty")
    if kind not in UTILITIES:
        raise ValueError(f"unknown utility kind {kind!r}, not one of {UTILITIES}")

    out = np.empty((users, k_max))
    for start in range(0, users, _BLOCK_USERS):
        block = slice(start, start + _BLOCK_USERS)
        out[block] = _block_curves(ranked[block], rest[block], kind)
    return np.minimum(out, 1.0, out=out)


def select_k(curves):
    """Smallest 1-based index attaining a curve's maximum, along the last
    axis: an int for one curve, an array of them for a stack of curves."""
    arr = np.asarray(curves, dtype=float)
    if arr.size == 0:
        raise ValueError("empty utility curve")
    k = np.argmax(arr, axis=-1) + 1
    return int(k) if arr.ndim <= 1 else k


def perk_recommend_users(
    params: MfParams,
    calibrator: Calibrator,
    excluded: Csr,
    users,
    cfg: PerkConfig,
) -> PerkLists:
    """Rank, calibrate, and cut each user's list at its best expected utility.

    Users go ``_BLOCK_USERS`` at a time. Per block, one ``top_k`` call ranks
    the items outside each user's ``excluded`` row (train, say, or train and
    validation) and keeps the top (k_max + rest_pool) as the candidate
    pools; one ``apply`` maps the scores ``top_k`` ranked them by through
    the calibrator (including any recorded score shift);
    ``utility_curves`` evaluates k = 1..k_max, and one argmax over the
    curves, masked past each pool, cuts every list at its curve's smallest
    argmax (``select_k``). Rows follow ``users``; ``rest_nodes`` records the
    largest quadrature node count an f1 block used.
    Raises ValueError if a user has no candidates.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    k_max = min(cfg.k_max, params.num_items)
    out = PerkLists(
        users=users,
        items=np.full((len(users), k_max), -1, dtype=np.int64),
        k_star=np.empty(len(users), dtype=np.int64),
        curves=np.full((len(users), k_max), np.nan),
        k_max_effective=np.empty(len(users), dtype=np.int64),
    )
    rest_nodes = 0
    for start in range(0, len(users), _BLOCK_USERS):
        rows = slice(start, start + _BLOCK_USERS)
        block = users[rows]
        pools, scores = top_k(params, block, cfg.k_max + cfg.rest_pool, excluded)
        candidates = pools >= 0  # pools are -1-padded at the end of each row
        if not candidates[:, 0].all():
            raise ValueError(f"user {block[np.argmin(candidates[:, 0])]} has no candidate items")
        # padding keeps probability 0, which leaves every curve unchanged
        probs = np.zeros(pools.shape)
        probs[candidates] = apply(calibrator, scores[candidates])
        ranked, rest = probs[:, :k_max], probs[:, k_max:]
        curves = utility_curves(ranked, rest, cfg.utility)
        if cfg.utility == "f1":
            rest_nodes = max(rest_nodes, _rest_nodes(rest, k_max))
        computed = candidates[:, :k_max]
        k_star = select_k(np.where(computed, curves, -np.inf))
        out.items[rows] = np.where(np.arange(k_max) < k_star[:, None], pools[:, :k_max], -1)
        out.k_star[rows] = k_star
        out.curves[rows] = np.where(computed, curves, np.nan)
        out.k_max_effective[rows] = computed.sum(axis=1)
    return out._replace(rest_nodes=rest_nodes)
