"""Bidirectional teacher-student co-training.

Both models train on the same pointwise base loss; on top of it, each one
distills from the other through soft targets sigmoid(score) on a small set
of items sampled per user. Items are sampled where the counterpart ranks an
item much better than the learner ("rank discrepancy"), which is where the
counterpart has something to teach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import Dataset
from .ranker import MfParams, TrainConfig, pointwise_epoch, rank_items, score_items

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


@dataclass
class RankTable:
    """Per-user 1-based ranks over non-train candidate items."""

    ranks: dict[int, dict[int, int]]

    def row(self, user: int) -> dict[int, int]:
        return self.ranks.get(user, {})


def build_rank_table(params: MfParams, dataset: Dataset) -> RankTable:
    """Rank every user's non-train items by score (deterministic tie-break)."""
    ranks: dict[int, dict[int, int]] = {}
    for user in range(dataset.num_users):
        ranked = rank_items(params, user, exclude=dataset.train.row(user))
        ranks[user] = {item: pos + 1 for pos, item in enumerate(ranked)}
    return RankTable(ranks)


def rank_discrepancy_weights(
    rank_this: dict[int, int],
    rank_other: dict[int, int],
    eta: float,
    truncate_rank: int,
) -> dict[int, float]:
    """Sampling weight per item: tanh(eta * max(0, r_this - r_other)).

    Ranks are clamped at ``truncate_rank`` first. The weight is positive
    exactly when the other model ranks the item strictly better (after
    truncation), and saturates as the discrepancy grows.
    """
    if rank_this.keys() != rank_other.keys():
        raise ValueError("rank rows cover different candidate sets")
    weights = {}
    for item, r_t in rank_this.items():
        r_t = min(r_t, truncate_rank)
        r_o = min(rank_other[item], truncate_rank)
        weights[item] = float(np.tanh(eta * max(0, r_t - r_o)))
    return weights


def sample_distill_items(
    weights: dict[int, float], n: int, rng: np.random.Generator
) -> list[int]:
    """Draw up to ``n`` distinct items, each draw proportional to weight.

    Items with zero weight are never drawn; if fewer than ``n`` items have
    positive weight, all of them are returned (in item order).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    items = np.array(sorted(i for i, w in weights.items() if w > 0), dtype=np.int64)
    if n == 0 or len(items) == 0:
        return []
    if len(items) <= n:
        return [int(i) for i in items]
    w = np.array([weights[int(i)] for i in items], dtype=float)
    chosen = []
    for _ in range(n):
        p = w / w.sum()
        k = int(rng.choice(len(items), p=p))
        chosen.append(int(items[k]))
        w[k] = 0.0
    return chosen


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bd_loss(
    learner_probs: dict[int, float],
    target_probs: dict[int, float],
    items: list[int],
) -> float:
    """Mean binary cross-entropy of learner probabilities against targets.

    Targets are constants (no gradient reaches the target model). Returns 0
    for an empty item list; the co-training report flags those users.
    """
    if not items:
        return 0.0
    q = _clamp(np.array([learner_probs[i] for i in items], dtype=float))
    t = _clamp(np.array([target_probs[i] for i in items], dtype=float))
    return float(np.mean(-(t * np.log(q) + (1.0 - t) * np.log1p(-q))))


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
    own_table: RankTable,
    other_table: RankTable,
    target_source: MfParams,
    dataset: Dataset,
    lam: float,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[float, int, int]:
    """Per-user SGD steps on lam * bd_loss; returns (mean item BCE, items, empty users)."""
    total_bce = 0.0
    total_items = 0
    empty_users = 0
    for user in range(dataset.num_users):
        own_row = own_table.row(user)
        if not own_row:
            continue
        weights = rank_discrepancy_weights(
            own_row, other_table.row(user), bd_cfg.eta, bd_cfg.truncate_rank
        )
        items = sample_distill_items(weights, bd_cfg.sample_size, rng)
        if not items:
            empty_users += 1
            continue
        q = expit(score_items(model, user, items))
        t = expit(score_items(target_source, user, items))
        qc, tc = _clamp(q), _clamp(t)
        total_bce += float(np.sum(-(tc * np.log(qc) + (1.0 - tc) * np.log1p(-qc))))
        total_items += len(items)

        g = lam * bd_score_grads(q, t)
        idx = np.array(items, dtype=np.int64)
        p_u = model.user_emb[user].copy()
        model.user_emb[user] -= base_cfg.lr * (g @ model.item_emb[idx])
        model.item_emb[idx] -= base_cfg.lr * np.outer(g, p_u)
        model.item_bias[idx] -= base_cfg.lr * g
    mean_bce = total_bce / total_items if total_items else 0.0
    return mean_bce, total_items, empty_users


def cotrain_epoch(
    teacher: MfParams,
    student: MfParams,
    dataset: Dataset,
    base_cfg: TrainConfig,
    bd_cfg: BdConfig,
    rng: np.random.Generator,
) -> tuple[MfParams, MfParams, CotrainReport]:
    """One epoch of bidirectional co-training.

    Rank tables and distillation targets come from the models as passed in
    (the previous epoch's parameters), so within the epoch the two updates
    do not feed into each other. The supplied generator is split into three
    child streams via ``rng.spawn(3)``: teacher base epoch, student base
    epoch, and distillation sampling (teacher's pass first, then the
    student's). With both lambdas zero the result is therefore bit-identical
    to two independent ``pointwise_epoch`` runs seeded with the first two
    children.
    """
    if base_cfg.loss_kind != "pointwise":
        raise ValueError("co-training composes with the pointwise base loss")
    teacher_rng, student_rng, distill_rng = rng.spawn(3)

    teacher_table = build_rank_table(teacher, dataset)
    student_table = build_rank_table(student, dataset)
    teacher_snapshot = teacher.copy()
    student_snapshot = student.copy()

    new_teacher, teacher_base = pointwise_epoch(teacher, dataset, base_cfg, teacher_rng)
    new_student, student_base = pointwise_epoch(student, dataset, base_cfg, student_rng)

    if bd_cfg.lambda_ts > 0:
        t_bce, t_items, t_empty = _distill_pass(
            new_teacher, teacher_table, student_table, student_snapshot,
            dataset, bd_cfg.lambda_ts, base_cfg, bd_cfg, distill_rng,
        )
    else:
        t_bce, t_items, t_empty = 0.0, 0, 0
    if bd_cfg.lambda_st > 0:
        s_bce, s_items, s_empty = _distill_pass(
            new_student, student_table, teacher_table, teacher_snapshot,
            dataset, bd_cfg.lambda_st, base_cfg, bd_cfg, distill_rng,
        )
    else:
        s_bce, s_items, s_empty = 0.0, 0, 0

    report = CotrainReport(
        teacher=ModelEpochStats(teacher_base, t_bce, t_items, t_empty),
        student=ModelEpochStats(student_base, s_bce, s_items, s_empty),
    )
    return new_teacher, new_student, report
