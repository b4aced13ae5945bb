"""Realized ranking metrics at fixed and personalized cutoffs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Csr, Dataset

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
    ranked: np.ndarray, users: np.ndarray, held: Csr, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix hit counts and prefix DCG of each ranked row, as (U, width + 1).

    Column c holds the value over the first c positions. Padding (-1) and
    items outside the catalog are masked before the membership test, whose
    key ``user * num_items + item`` would otherwise land in a neighbouring
    user's row. DCG adds the hit gains in list order, as the scalar
    ``ndcg_at`` in ``tests/oracles.py`` does, so every prefix is
    bit-identical to it.
    """
    valid = (ranked >= 0) & (ranked < held.num_cols)
    hit = np.zeros(ranked.shape, dtype=bool)
    hit[valid] = held.contains(np.broadcast_to(users[:, None], ranked.shape)[valid], ranked[valid])
    hits = np.zeros((len(ranked), ranked.shape[1] + 1), dtype=np.int64)
    np.cumsum(hit, axis=1, out=hits[:, 1:])
    dcg = np.zeros(hits.shape)
    np.cumsum(np.where(hit, gains[: ranked.shape[1]], 0.0), axis=1, out=dcg[:, 1:])
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
    users,
    items,
    dataset: Dataset,
    split: str = "test",
    metrics: Sequence[str] = METRIC_NAMES,
    ks: Sequence[int] = (1, 5, 10, 20),
    k_star=None,
) -> EvalResult:
    """Macro-averaged metrics against a split's per-user relevant sets.

    ``items`` (U, w) holds user ``users[r]``'s ranked list in row r, best
    first and padded with -1, as ``ranker.top_k`` returns it. The lists are
    evaluated at every k in ``ks``, or, given ``k_star`` (U,), at each
    user's own k_star, one "perk" row. A user named by two rows is a
    ValueError. Users outside the dataset or whose relevant set is empty
    are skipped and counted, not averaged as zeros. Every cutoff must be
    >= 1.

    All users are scored at once from one hit matrix and its prefix sums.
    Per-user values and means are bit-identical to averaging the scalar
    ``*_at`` forms in ``tests/oracles.py`` over users in row order.
    """
    for m in metrics:
        if m not in METRIC_NAMES:
            raise ValueError(f"unknown metric {m!r}")
    users = np.asarray(users, dtype=np.int64).ravel()
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 2 or len(items) != len(users):
        raise ValueError(f"items must be 2-D with one row per user, not of shape {items.shape}")
    if k_star is not None:
        k_star = np.asarray(k_star, dtype=np.int64)
        if k_star.shape != users.shape:
            raise ValueError(f"k_star must hold one cutoff per user, not {k_star.shape}")
    named, counts = np.unique(users, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"user {named[np.argmax(counts > 1)]} has more than one list")
    held = dataset.split(split)
    sizes = held.sizes()

    evaluable = (users >= 0) & (users < len(sizes))
    evaluable[evaluable] = sizes[users[evaluable]] > 0
    if not evaluable.any():
        raise ValueError("no users with a non-empty relevant set")
    keys = users[evaluable].tolist()
    n_rel = sizes[users[evaluable]]
    if k_star is None:
        cutoffs = [np.full(len(keys), k, dtype=np.int64) for k in ks]
    else:
        cutoffs = [k_star[evaluable]]
    k_max = max((int(k.max()) for k in cutoffs), default=1)
    if any(k.min() < 1 for k in cutoffs):
        raise ValueError("k must be >= 1")
    ranked = items[evaluable, :k_max]
    # position gains, each from the scalar expression ndcg_at uses; only the
    # list positions and the ideal prefixes up to min(|relevant|, k) are read
    n_gains = max(ranked.shape[1], min(k_max, int(n_rel.max())))
    gains = np.array([1.0 / np.log2(pos + 2) for pos in range(n_gains)])
    ideal = np.concatenate([[0.0], np.cumsum(gains)])
    hits, dcg = _hit_prefixes(ranked, users[evaluable], held, gains)

    rows: list[EvalRow] = []
    for k in cutoffs:
        values = _metrics_at(metrics, hits, dcg, k, n_rel, ideal)
        means = {m: float(np.mean(values[m])) for m in metrics}
        per_user = {m: dict(zip(keys, values[m].tolist())) for m in metrics}
        if k_star is None:
            row = EvalRow(f"k={k[0]}", int(k[0]), means, per_user)
        else:
            row = EvalRow("perk", None, means, per_user, mean_k_star=float(np.mean(k)))
        rows.append(row)

    return EvalResult(
        users_evaluated=len(keys), users_skipped=len(users) - len(keys), rows=rows
    )
