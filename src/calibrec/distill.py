"""Bidirectional teacher-student co-training.

Both models train on the same pointwise base loss; on top of it, each one
distills from the other through soft targets sigmoid(score) on a small set
of items sampled per user. Items are sampled where the counterpart ranks an
item much better than the learner ("rank discrepancy"), which is where the
counterpart has something to teach.

The discrepancy weight is zero unless the counterpart ranks the item inside
its top T - 1, so each pass works on the two models' (users, T) top-T rows
only, never on full per-user rankings (see ``docs/distill.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .ranker import MfParams, TrainConfig, pointwise_epoch, score_items, score_pairs, sigmoid, top_k

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
        if self.lambda_ts < 0 or self.lambda_st < 0:
            raise ValueError("distillation weights must be nonnegative")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.truncate_rank < 1:
            raise ValueError("truncate_rank must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def _discrepancy(r_this, r_other, eta: float, truncate_rank: int) -> np.ndarray:
    """tanh(eta * max(0, min(r_this, T) - min(r_other, T))), elementwise."""
    gap = np.minimum(r_this, truncate_rank) - np.minimum(r_other, truncate_rank)
    return np.tanh(eta * np.maximum(gap, 0))


def top_t_rows(params: MfParams, dataset: Dataset, truncate_rank: int) -> np.ndarray:
    """Every user's best ``truncate_rank`` non-train items: ``top_k`` rows, -1 padded."""
    return top_k(params, np.arange(dataset.num_users), truncate_rank, dataset.train)


def top_t_weights(
    own_top: np.ndarray, other_top: np.ndarray, eta: float, truncate_rank: int
) -> np.ndarray:
    """Rank-discrepancy weight of every item in the counterpart's top-T rows.

    ``own_top`` and ``other_top`` are the learner's and the counterpart's
    ``top_t_rows`` over the same candidates. Entry (u, j) weighs
    ``other_top[u, j]``, which the counterpart ranks j + 1; the learner
    ranks it by its position in ``own_top[u]``, or ``truncate_rank`` when it
    is absent there. Padding weighs 0. An item outside the counterpart's
    top T - 1 weighs 0 over full rank rows too, so no other item needs a
    weight (see ``docs/distill.md``).
    """
    num_users, width = other_top.shape
    # (user, item) keys u * span + item + 1; padding (-1) keys to u * span,
    # which no item's key equals
    span = int(max(own_top.max(initial=-1), other_top.max(initial=-1))) + 2
    offset = np.arange(num_users, dtype=np.int64)[:, None] * span + 1
    own_keys = (own_top + offset).ravel()
    order = np.argsort(own_keys, kind="stable")
    sorted_keys = own_keys[order]
    probe = (other_top + offset).ravel()
    at = np.minimum(np.searchsorted(sorted_keys, probe), sorted_keys.size - 1)
    r_this = np.where(sorted_keys[at] == probe, order[at] % width + 1, truncate_rank)
    r_this = r_this.reshape(other_top.shape)
    r_other = np.arange(1, width + 1)
    weights = _discrepancy(r_this, r_other, eta, truncate_rank)
    weights[other_top < 0] = 0.0
    return weights


def draw_distill_items(
    items: np.ndarray, weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each row's draw of up to ``n`` distinct items, each draw proportional to weight.

    ``items`` and ``weights`` are (rows, width) arrays. Entries of weight 0,
    padding included, are never drawn. A row with at most ``n`` positive
    weights gets all of those items, in item order. Any other row gets the
    ``n`` items with the largest keys log(u) / w, largest first, with u
    uniform from one ``rng.random((rows, width))``: the law of ``n``
    sequential draws without replacement, each proportional to weight
    (Efraimidis and Spirakis, 2006). Returns (rows, min(n, width)) items,
    -1 padded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    positive = weights > 0
    keys = np.full(weights.shape, -np.inf)
    # 1 - u lies in (0, 1], so every positive weight gets a finite key
    np.divide(np.log1p(-rng.random(weights.shape)), weights, out=keys, where=positive)
    few = np.count_nonzero(positive, axis=1) <= n
    keys[few] = np.where(positive[few], -items[few], -np.inf)
    order = np.argsort(-keys, axis=1, kind="stable")[:, :n]
    drawn = np.take_along_axis(items, order, axis=1)
    drawn[np.take_along_axis(keys, order, axis=1) == -np.inf] = -1
    return drawn


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _bce(learner_probs: np.ndarray, target_probs: np.ndarray) -> np.ndarray:
    q, t = _clamp(learner_probs), _clamp(target_probs)
    return -(t * np.log(q) + (1.0 - t) * np.log1p(-q))


def bd_loss(learner_probs: np.ndarray, target_probs: np.ndarray) -> float:
    """Mean binary cross-entropy of learner probabilities against targets.

    The two arrays pair up entry by entry. Targets are constants (no
    gradient reaches the target model). Returns 0 when both are empty.
    """
    q = np.asarray(learner_probs, dtype=float)
    if not q.size:
        return 0.0
    return float(np.mean(_bce(q, np.asarray(target_probs, dtype=float))))


def bd_score_grads(learner_probs: np.ndarray, target_probs: np.ndarray) -> np.ndarray:
    """d(bd_loss)/d(learner score) per item: (q - t) / n."""
    q = np.asarray(learner_probs, dtype=float)
    t = _clamp(np.asarray(target_probs, dtype=float))
    return (q - t) / len(q)


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


@dataclass
class CotrainReport:
    teacher: ModelEpochStats
    student: ModelEpochStats


def _distill_pass(
    model: MfParams,
    own_top: np.ndarray,
    other_top: np.ndarray,
    target_source: MfParams,
    lam: float,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[float, int, int]:
    """Per-user SGD steps on lam * bd_loss; returns (mean item BCE, items, empty users).

    A user is empty when no item weighs above 0, so it draws nothing.
    """
    weights = top_t_weights(own_top, other_top, bd_cfg.eta, bd_cfg.truncate_rank)
    drawn = draw_distill_items(other_top, weights, bd_cfg.sample_size, rng)
    counts = np.count_nonzero(drawn >= 0, axis=1)
    empty_users = int(np.count_nonzero(counts == 0))
    # drawn items fill a prefix of each row, so this is user order
    users = np.repeat(np.arange(len(drawn)), counts)
    items = drawn[drawn >= 0]
    targets = sigmoid(score_pairs(target_source, users, items))
    learner = np.empty_like(targets)
    ends = np.cumsum(counts)
    for user in np.flatnonzero(counts):
        span = slice(ends[user] - counts[user], ends[user])
        idx = items[span]
        q = sigmoid(score_items(model, user, idx))
        learner[span] = q
        g = lam * bd_score_grads(q, targets[span])
        p_u = model.user_emb[user].copy()
        model.user_emb[user] -= base_cfg.lr * (g @ model.item_emb[idx])
        model.item_emb[idx] -= base_cfg.lr * np.outer(g, p_u)
        model.item_bias[idx] -= base_cfg.lr * g
    return bd_loss(learner, targets), len(items), empty_users


def cotrain_epoch(
    teacher: MfParams,
    student: MfParams,
    dataset: Dataset,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[MfParams, MfParams, CotrainReport]:
    """One epoch of bidirectional co-training.

    Top-T rows and distillation targets come from the models as passed in
    (the previous epoch's parameters), so within the epoch the two updates
    do not feed into each other; the inputs are not modified. The supplied
    generator is split into three child streams via ``rng.spawn(3)``:
    teacher base epoch, student base epoch, and distillation sampling
    (teacher's pass first, then the student's). With both lambdas zero the
    result is therefore bit-identical to two independent ``pointwise_epoch``
    runs seeded with the first two children.
    """
    teacher_rng, student_rng, distill_rng = rng.spawn(3)

    teacher_top = top_t_rows(teacher, dataset, bd_cfg.truncate_rank)
    student_top = top_t_rows(student, dataset, bd_cfg.truncate_rank)

    new_teacher, teacher_base = pointwise_epoch(teacher, dataset, base_cfg, teacher_rng)
    new_student, student_base = pointwise_epoch(student, dataset, base_cfg, student_rng)

    if bd_cfg.lambda_ts > 0:
        t_bce, t_items, t_empty = _distill_pass(
            new_teacher, teacher_top, student_top, student,
            bd_cfg.lambda_ts, base_cfg, bd_cfg, distill_rng,
        )
    else:
        t_bce, t_items, t_empty = 0.0, 0, 0
    if bd_cfg.lambda_st > 0:
        s_bce, s_items, s_empty = _distill_pass(
            new_student, student_top, teacher_top, teacher,
            bd_cfg.lambda_st, base_cfg, bd_cfg, distill_rng,
        )
    else:
        s_bce, s_items, s_empty = 0.0, 0, 0

    report = CotrainReport(
        teacher=ModelEpochStats(teacher_base, t_bce, t_items, t_empty),
        student=ModelEpochStats(student_base, s_bce, s_items, s_empty),
    )
    return new_teacher, new_student, report
