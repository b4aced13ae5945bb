"""Seeded synthetic interaction data for tests, demos, and smoke runs."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, Interaction, split_per_user

# lines joined into one string per write by write_interactions_csv
WRITE_LINES = 1 << 14


def _top_in_index_order(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, ties at the cut toward the smaller index, ascending.

    The same set as the first ``k`` of a stable descending sort, found with
    one partition: the scores strictly above the ``k``-th best are kept, and
    the places left go to the tied ones at that score in index order.
    """
    n = len(scores)
    if k >= n:
        return np.arange(n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(scores, n - k)[n - k]
    keep = scores > kth
    tied = np.flatnonzero(scores == kth)
    keep[tied[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def low_rank_interactions(
    num_users: int,
    num_items: int,
    rank: int = 2,
    per_user: int = 20,
    noise: float = 0.25,
    seed: int = 0,
) -> list[Interaction]:
    """Interactions from a noisy low-rank preference matrix.

    Each user interacts with their ``per_user`` top items under
    score = <u_f, v_f> + noise * N(0,1), giving structure a factorization
    model can recover. Ties at the cut go to the smaller item index. Pairs
    come in user order and, within a user, in item order. Scores are drawn
    one user at a time, so no users x items matrix is formed.
    """
    if per_user < 0:
        raise ValueError("per_user must be nonnegative")
    if num_items < 1:
        raise ValueError("need at least one item")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    user_factors = rng.normal(size=(num_users, rank))
    item_factors = rng.normal(size=(num_items, rank))
    pairs: list[Interaction] = []
    for u in range(num_users):
        scores = item_factors @ user_factors[u] + noise * rng.normal(size=num_items)
        pairs.extend([(u, i) for i in _top_in_index_order(scores, per_user).tolist()])
    return pairs


def low_rank_dataset(
    num_users: int,
    num_items: int,
    rank: int = 2,
    per_user: int = 20,
    noise: float = 0.25,
    ratios=(0.8, 0.1, 0.1),
    seed: int = 0,
) -> Dataset:
    pairs = low_rank_interactions(num_users, num_items, rank, per_user, noise, seed)
    return split_per_user(pairs, ratios=ratios, seed=seed)


def write_interactions_csv(
    path,
    pairs,
    delimiter: str = ",",
    user_prefix: str = "u",
    item_prefix: str = "i",
    with_timestamps: bool = False,
):
    """Write a sequence of pairs as external-id interaction lines (``u<u>,i<i>[,ts]``).

    The n-th line's timestamp is 1000000 + n. ``WRITE_LINES`` lines are
    joined per write, so only one chunk of text is held at a time; a single
    string for the whole file would hold every line in memory at once.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(pairs), WRITE_LINES):
            chunk = enumerate(pairs[start : start + WRITE_LINES], 1_000_000 + start)
            if with_timestamps:
                lines = [
                    f"{user_prefix}{u}{delimiter}{item_prefix}{i}{delimiter}{ts}\n"
                    for ts, (u, i) in chunk
                ]
            else:
                lines = [f"{user_prefix}{u}{delimiter}{item_prefix}{i}\n" for _, (u, i) in chunk]
            fh.write("".join(lines))
    return path
