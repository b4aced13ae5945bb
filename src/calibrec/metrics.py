"""Realized ranking metrics at fixed and personalized cutoffs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .perk import PersonalizedCut

METRIC_NAMES = ("precision", "recall", "f1", "ndcg")


def precision_at(recommended: Sequence[int], relevant: set, k: int) -> float:
    """|top-k hits| / k (divides by k even when the list is shorter)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / k


def recall_at(recommended: Sequence[int], relevant: set, k: int) -> float:
    if not relevant:
        raise ValueError("empty relevant set")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / len(relevant)


def f1_at(recommended: Sequence[int], relevant: set, k: int) -> float:
    """2 * hits / (k + |relevant|); 0 when nothing was hit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("empty relevant set")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return 2.0 * hits / (k + len(relevant))


def ndcg_at(recommended: Sequence[int], relevant: set, k: int) -> float:
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


_METRIC_FNS = {
    "precision": precision_at,
    "recall": recall_at,
    "f1": f1_at,
    "ndcg": ndcg_at,
}


@dataclass
class EvalRow:
    """Macro-averaged metrics at one cutoff (a fixed k or the per-user k*)."""

    label: str
    k: int | None
    means: dict[str, float]
    per_user: dict[str, dict[int, float]]
    mean_k_star: float | None = None

    def to_dict(self, include_per_user: bool = False) -> dict:
        out: dict = {"label": self.label, "k": self.k}
        if self.mean_k_star is not None:
            out["mean_k_star"] = self.mean_k_star
        out.update(self.means)
        if include_per_user:
            out["per_user"] = {
                m: {str(u): v for u, v in vals.items()} for m, vals in self.per_user.items()
            }
        return out


@dataclass
class EvalResult:
    users_evaluated: int
    users_skipped: int
    rows: list[EvalRow] = field(default_factory=list)

    def to_dict(self, include_per_user: bool = False) -> dict:
        return {
            "users_evaluated": self.users_evaluated,
            "users_skipped": self.users_skipped,
            "rows": [row.to_dict(include_per_user) for row in self.rows],
        }


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
    (evaluated at each user's own k_star, one "perk" row). Users whose
    relevant set is empty are skipped and counted, not averaged as zeros.
    """
    for m in metrics:
        if m not in _METRIC_FNS:
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

    evaluable = {
        u: items for u, items in lists.items() if 0 <= u < len(sizes) and sizes[u]
    }
    skipped = len(lists) - len(evaluable)
    if not evaluable:
        raise ValueError("no users with a non-empty relevant set")

    rows: list[EvalRow] = []
    if cuts is None:
        for k in ks:
            per_user = {m: {} for m in metrics}
            for u, items in evaluable.items():
                rel = set(held.row(u).tolist())
                for m in metrics:
                    per_user[m][u] = _METRIC_FNS[m](items, rel, k)
            means = {m: float(np.mean(list(per_user[m].values()))) for m in metrics}
            rows.append(EvalRow(label=f"k={k}", k=int(k), means=means, per_user=per_user))
    else:
        k_star_by_user = {c.user: c.k_star for c in cuts}
        per_user = {m: {} for m in metrics}
        for u, items in evaluable.items():
            rel = set(held.row(u).tolist())
            for m in metrics:
                per_user[m][u] = _METRIC_FNS[m](items, rel, k_star_by_user[u])
        means = {m: float(np.mean(list(per_user[m].values()))) for m in metrics}
        mean_k_star = float(np.mean([k_star_by_user[u] for u in evaluable]))
        rows.append(
            EvalRow(label="perk", k=None, means=means, per_user=per_user, mean_k_star=mean_k_star)
        )

    return EvalResult(users_evaluated=len(evaluable), users_skipped=skipped, rows=rows)
