"""Bidirectional teacher-student co-training.

Both models train on the same pointwise base loss; on top of it, each one
distills from the other through soft targets sigmoid(score) on a small set
of items sampled per user. Items are sampled where the counterpart ranks an
item much better than the learner ("rank discrepancy"), which is where the
counterpart has something to teach.

The discrepancy weight is zero unless the counterpart ranks the item inside
its top T - 1, so each pass works on the two models' (users, T) top-T rows
only, never on full per-user rankings (see ``docs/distill.md``, "Why the top-T
rows are enough").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .ranker import (
    TOP_K_BLOCK,
    MfParams,
    TrainConfig,
    pointwise_epoch,
    row_order,
    sigmoid,
    top_k,
)

# probabilities entering distillation logs are clamped to this band
PROB_CLAMP = 1e-7


@dataclass
class BdConfig:
    lambda_ts: float = 0.5  # weight of the teacher's distillation-from-student term
    lambda_st: float = 0.5  # weight of the student's distillation-from-teacher term
    sample_size: int = 10
    eta: float = 0.1
    truncate_rank: int = 100
    epochs: int = 10

    def __post_init__(self):
        if not (0 <= self.lambda_ts < np.inf and 0 <= self.lambda_st < np.inf):  # NaN fails too
            raise ValueError("lambda_ts and lambda_st must be nonnegative and finite")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if self.truncate_rank < 1:
            raise ValueError("truncate_rank must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def top_t_rows(
    params: MfParams, dataset: Dataset, truncate_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every user's best ``truncate_rank`` non-train items and their scores, by ``top_k``."""
    return top_k(params, np.arange(dataset.num_users), truncate_rank, dataset.train)


def top_t_weights(
    own_top: np.ndarray, other_top: np.ndarray, eta: float, truncate_rank: int
) -> np.ndarray:
    """Rank-discrepancy weight of every item in the counterpart's top-T rows.

    ``own_top`` and ``other_top`` are the learner's and the counterpart's
    ``top_t_rows`` items over the same candidates. Entry (u, j) weighs
    ``other_top[u, j]``, which the counterpart ranks j + 1; the learner
    ranks it by its position in ``own_top[u]``, or ``truncate_rank`` when it
    is absent there. Padding weighs 0. An item outside the counterpart's
    top T - 1 weighs 0 over full rank rows too, so no other item needs a
    weight (see ``docs/distill.md``, "Why the top-T rows are enough").
    """
    num_users, width = other_top.shape
    # one dense rank table per block of users: cell (row, item) holds the
    # learner's rank of the item, truncate_rank where it is absent; padding
    # (-1) writes and reads the last cell of a row, which no item uses
    span = int(max(own_top.max(initial=-1), other_top.max(initial=-1))) + 2
    rank_type = np.min_scalar_type(max(truncate_rank, own_top.shape[1]))
    own_ranks = np.arange(1, own_top.shape[1] + 1)
    r_this = np.empty(other_top.shape, dtype=rank_type)
    for start in range(0, num_users, TOP_K_BLOCK):
        own, other = own_top[start : start + TOP_K_BLOCK], other_top[start : start + TOP_K_BLOCK]
        row_starts = np.arange(len(own))[:, None] * span
        table = np.full(len(own) * span, truncate_rank, dtype=rank_type)
        table[own + row_starts] = own_ranks
        r_this[start : start + len(own)] = table[other + row_starts]
    # tanh(eta * max(0, min(r_this, T) - min(r_other, T))), r_other = j + 1
    gap = np.minimum(r_this, truncate_rank) - np.minimum(np.arange(1, width + 1), truncate_rank)
    weights = np.tanh(eta * np.maximum(gap, 0))
    weights[other_top < 0] = 0.0
    return weights


def draw_distill_items(
    items: np.ndarray, weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each row's draw of up to ``n`` distinct entries, each draw proportional to weight.

    ``items`` and ``weights`` are (rows, width) arrays. Entries of weight 0,
    padding included, are never drawn. A row with at most ``n`` positive
    weights gets all of those entries, in item order. Any other row gets the
    ``n`` entries with the largest keys log(u) / w, largest first, with u
    uniform from one ``rng.random((rows, width))``: the law of ``n``
    sequential draws without replacement, each proportional to weight
    (Efraimidis and Spirakis, 2006). Returns the drawn entries' positions
    in their rows, (rows, min(n, width)), -1 padded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    positive = weights > 0
    keys = np.full(weights.shape, -np.inf)
    # 1 - u lies in (0, 1], so every positive weight gets a finite key
    np.divide(np.log1p(-rng.random(weights.shape)), weights, out=keys, where=positive)
    few = np.count_nonzero(positive, axis=1) <= n
    keys[few] = np.where(positive[few], -items[few], -np.inf)
    # weight-0 entries, at -inf, all become -1, so their order is free
    order = row_order(-keys)[:, :n]
    order[np.take_along_axis(keys, order, axis=1) == -np.inf] = -1
    return order


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bd_loss(learner_probs: np.ndarray, target_probs: np.ndarray) -> float:
    """Mean binary cross-entropy of learner probabilities against targets.

    The two arrays pair up entry by entry. Targets are constants (no
    gradient reaches the target model). Returns 0 when both are empty.
    """
    q = np.asarray(learner_probs, dtype=float)
    if not q.size:
        return 0.0
    q, t = _clamp(q), _clamp(np.asarray(target_probs, dtype=float))
    return float(np.mean(-(t * np.log(q) + (1.0 - t) * np.log1p(-q))))


def bd_score_grads(learner_probs: np.ndarray, target_probs: np.ndarray) -> np.ndarray:
    """d(bd_loss)/d(learner score) per item: (q - t) / n.

    n counts the items of the last axis, so each row of a 2-D pair is its
    own user's set.
    """
    q = np.asarray(learner_probs, dtype=float)
    t = _clamp(np.asarray(target_probs, dtype=float))
    return (q - t) / q.shape[-1]


@dataclass
class ModelEpochStats:
    base_loss: float
    distill_loss: float
    sampled_total: int
    empty_users: int

    def as_row(self, epoch: int, model: str) -> dict:
        return {
            "epoch": epoch,
            "model": model,
            "base_loss": self.base_loss,
            "distill_loss": self.distill_loss,
            "sampled_total": self.sampled_total,
        }


class CotrainReport(NamedTuple):
    teacher: ModelEpochStats
    student: ModelEpochStats


def _distill_pass(
    model: MfParams,
    own_top: np.ndarray,
    other_top: np.ndarray,
    other_scores: np.ndarray,
    lam: float,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[float, int, int]:
    """Per-user SGD steps on lam * bd_loss; returns (mean item BCE, items, empty users).

    A drawn item's target is sigmoid of its counterpart score in
    ``other_scores``. A user is empty when no item weighs above 0, so it
    draws nothing. At lam = 0 nothing is drawn from ``rng``. The result is
    that of users stepping in order, each from the parameters the previous
    step left: users that share no drawn item step together, in waves (see
    ``docs/distill.md``, "The update").
    """
    if lam == 0:
        return 0.0, 0, 0
    weights = top_t_weights(own_top, other_top, bd_cfg.eta, bd_cfg.truncate_rank)
    picked = draw_distill_items(other_top, weights, bd_cfg.sample_size, rng)
    taken = picked >= 0
    counts = np.count_nonzero(taken, axis=1)
    empty_users = int(np.count_nonzero(counts == 0))
    # drawn entries fill a prefix of each row; only that prefix is read
    drawn = np.take_along_axis(other_top, picked, axis=1)
    targets = sigmoid(np.take_along_axis(other_scores, picked, axis=1))
    learner = np.zeros(drawn.shape)
    lr = base_cfg.lr
    for group in _step_groups(drawn, counts):
        count = counts[group[0]]
        idx = drawn[group, :count]
        p = model.user_emb[group]
        q_rows = model.item_emb[idx]
        # stacked matrix-vector products, each bit for bit the one user's
        q = sigmoid(np.matmul(q_rows, p[:, :, None])[:, :, 0] + model.item_bias[idx])
        learner[group, :count] = q
        g = lam * bd_score_grads(q, targets[group, :count])
        model.user_emb[group] -= lr * np.matmul(g[:, None, :], q_rows)[:, 0, :]
        model.item_emb[idx] -= lr * (g[:, :, None] * p[:, None, :])
        model.item_bias[idx] -= lr * g
    return bd_loss(learner[taken], targets[taken]), int(counts.sum()), empty_users


def _step_groups(drawn: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """The users of each (wave, item count) group, waves in order.

    A user's wave is one after the latest wave of an earlier user that drew
    one of its items, so no two users of a wave share an item, and every
    item's users step in user order. Empty users are in no group.
    """
    latest = [-1] * (int(drawn.max(initial=-1)) + 1)
    waves = [-1] * len(drawn)
    for user, (row, count) in enumerate(zip(drawn.tolist(), counts.tolist())):
        if count:
            row = row[:count]
            wave = max([latest[item] for item in row]) + 1
            for item in row:
                latest[item] = wave
            waves[user] = wave
    key = np.array(waves) * (drawn.shape[1] + 1) + counts
    order = np.argsort(key, kind="stable")
    order = order[key[order] >= 0]
    if not order.size:
        return []
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def cotrain_epoch(
    teacher: MfParams,
    student: MfParams,
    dataset: Dataset,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[MfParams, MfParams, CotrainReport]:
    """One epoch of bidirectional co-training: per model, teacher first, a
    base ``pointwise_epoch`` and then a distillation pass toward the other.

    Top-T rows and scores (a target is the sigmoid of the counterpart's)
    come from the models as passed in (the previous epoch's parameters), so
    the two updates do not feed into each other; the inputs are not
    modified. The generator is split into three child streams by ``rng.spawn(3)``:
    teacher base epoch, student base epoch, and distillation sampling
    (teacher's pass first, then the student's). With both lambdas zero the
    result is therefore bit-identical to two independent ``pointwise_epoch``
    runs seeded with the first two children.
    """
    *base_rngs, distill_rng = rng.spawn(3)
    models = (teacher, student)
    tops = [top_t_rows(model, dataset, bd_cfg.truncate_rank) for model in models]
    trained, stats = [], []
    for model, base_rng, lam, (own_top, _), (other_top, other_scores) in zip(
        models, base_rngs, (bd_cfg.lambda_ts, bd_cfg.lambda_st), tops, tops[::-1]
    ):
        model, base_loss = pointwise_epoch(model, dataset, base_cfg, base_rng)
        passed = _distill_pass(
            model, own_top, other_top, other_scores, lam, base_cfg, bd_cfg, distill_rng
        )
        trained.append(model)
        stats.append(ModelEpochStats(base_loss, *passed))
    return trained[0], trained[1], CotrainReport(*stats)
