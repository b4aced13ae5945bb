"""Realized ranking metrics at fixed and personalized cutoffs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import Csr, Dataset
from .perk import PersonalizedCut

METRIC_NAMES = ("precision", "recall", "f1", "ndcg")


@dataclass
class EvalRow:
    """Macro-averaged metrics at one cutoff (a fixed k or the per-user k*)."""

    label: str
    k: int | None
    means: dict[str, float]
    per_user: dict[str, dict[int, float]]
    mean_k_star: float | None = None

    def to_dict(self) -> dict:
        """The report row: label, k, mean k* when personalized, then the means."""
        out: dict = {"label": self.label, "k": self.k}
        if self.mean_k_star is not None:
            out["mean_k_star"] = self.mean_k_star
        out.update(self.means)
        return out


@dataclass
class EvalResult:
    users_evaluated: int
    users_skipped: int
    rows: list[EvalRow] = field(default_factory=list)


def _hit_prefixes(
    lists: list, users: np.ndarray, held: Csr, width: int, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix hit counts and prefix DCG of each ranked list, as (U, width + 1).

    Column c holds the value over the first c positions. Lists are padded
    with -1 to ``width``; padding and items outside the catalog are masked
    before the membership test, whose key ``user * num_items + item`` would
    otherwise land in a neighbouring user's row. DCG adds the hit gains in
    list order, as the scalar ``ndcg_at`` in ``tests/oracles.py`` does, so
    every prefix is bit-identical to it.
    """
    ranked = np.full((len(lists), width), -1, dtype=np.int64)
    for row, items in enumerate(lists):
        head = items[:width]
        ranked[row, : len(head)] = head
    valid = (ranked >= 0) & (ranked < held.num_cols)
    hit = np.zeros(ranked.shape, dtype=bool)
    hit[valid] = held.contains(np.broadcast_to(users[:, None], ranked.shape)[valid], ranked[valid])
    hits = np.zeros((len(lists), width + 1), dtype=np.int64)
    np.cumsum(hit, axis=1, out=hits[:, 1:])
    dcg = np.zeros((len(lists), width + 1))
    np.cumsum(np.where(hit, gains[:width], 0.0), axis=1, out=dcg[:, 1:])
    return hits, dcg


def _metrics_at(
    metrics: Sequence[str],
    hits: np.ndarray,
    dcg: np.ndarray,
    k: np.ndarray,
    n_rel: np.ndarray,
    ideal: np.ndarray,
) -> dict[str, np.ndarray]:
    """Each user's metrics at its cutoff ``k``, the scalar forms' arithmetic."""
    rows = np.arange(len(k))
    col = np.minimum(k, hits.shape[1] - 1)
    h = hits[rows, col]
    out = {}
    for m in metrics:
        if m == "precision":
            out[m] = h / k
        elif m == "recall":
            out[m] = h / n_rel
        elif m == "f1":
            out[m] = 2.0 * h / (k + n_rel)
        else:
            out[m] = dcg[rows, col] / ideal[np.minimum(n_rel, k)]
    return out


def evaluate(
    recommendations,
    dataset: Dataset,
    split: str = "test",
    metrics: Sequence[str] = METRIC_NAMES,
    ks: Sequence[int] = (1, 5, 10, 20),
) -> EvalResult:
    """Macro-averaged metrics against a split's per-user relevant sets.

    ``recommendations`` is either a mapping user -> ranked item list
    (evaluated at every k in ``ks``) or an iterable of PersonalizedCut
    (evaluated at each user's own k_star, one "perk" row); a user named by
    two cuts is a ValueError. Users whose relevant set is empty are skipped
    and counted, not averaged as zeros. Every cutoff must be >= 1.

    All users are scored at once from one hit matrix and its prefix sums.
    Per-user values and means are bit-identical to averaging the scalar
    ``*_at`` forms in ``tests/oracles.py`` over users in input order.
    """
    for m in metrics:
        if m not in METRIC_NAMES:
            raise ValueError(f"unknown metric {m!r}")
    held = dataset.split(split)
    sizes = held.sizes()

    if isinstance(recommendations, Mapping):
        lists = {int(u): list(items) for u, items in recommendations.items()}
        cuts = None
    else:
        cuts = list(recommendations)
        if not all(isinstance(c, PersonalizedCut) for c in cuts):
            raise ValueError("expected a user->items mapping or PersonalizedCut objects")
        lists = {c.user: list(c.items) for c in cuts}
        if len(lists) < len(cuts):
            seen = set()
            for c in cuts:
                if c.user in seen:
                    raise ValueError(f"user {c.user} has more than one PersonalizedCut")
                seen.add(c.user)

    evaluable = {
        u: items for u, items in lists.items() if 0 <= u < len(sizes) and sizes[u]
    }
    skipped = len(lists) - len(evaluable)
    if not evaluable:
        raise ValueError("no users with a non-empty relevant set")

    keys = list(evaluable)
    users = np.array(keys, dtype=np.int64)
    n_rel = sizes[users]
    if cuts is None:
        cutoffs = [np.full(len(users), k, dtype=np.int64) for k in ks]
    else:
        k_star_by_user = {c.user: c.k_star for c in cuts}
        cutoffs = [np.array([k_star_by_user[u] for u in keys], dtype=np.int64)]
    k_max = max((int(k.max()) for k in cutoffs), default=1)
    if any(k.min() < 1 for k in cutoffs):
        raise ValueError("k must be >= 1")
    width = min(k_max, max(len(items) for items in evaluable.values()))
    # position gains, each from the scalar expression ndcg_at uses; only the
    # list positions and the ideal prefixes up to min(|relevant|, k) are read
    n_gains = max(width, min(k_max, int(n_rel.max())))
    gains = np.array([1.0 / np.log2(pos + 2) for pos in range(n_gains)])
    ideal = np.concatenate([[0.0], np.cumsum(gains)])
    hits, dcg = _hit_prefixes(list(evaluable.values()), users, held, width, gains)

    rows: list[EvalRow] = []
    for k in cutoffs:
        values = _metrics_at(metrics, hits, dcg, k, n_rel, ideal)
        means = {m: float(np.mean(values[m])) for m in metrics}
        per_user = {m: dict(zip(keys, values[m].tolist())) for m in metrics}
        if cuts is None:
            rows.append(EvalRow(label=f"k={k[0]}", k=int(k[0]), means=means, per_user=per_user))
        else:
            rows.append(
                EvalRow(
                    label="perk", k=None, means=means, per_user=per_user,
                    mean_k_star=float(np.mean(k)),
                )
            )

    return EvalResult(users_evaluated=len(evaluable), users_skipped=skipped, rows=rows)
