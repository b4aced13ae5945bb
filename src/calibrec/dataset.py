"""Interaction ingestion, id mapping, and deterministic per-user splits.

Implicit-feedback data: an interaction is a (user, item) pair, presence
meaning a positive label. Unobserved pairs are unlabeled, not negatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

Interaction = tuple[int, int]


class DataFormatError(ValueError):
    """Malformed interaction file. Carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


@dataclass
class IdMaps:
    """Mapping from external string ids to dense indices, assigned on first sight."""

    user_to_index: dict[str, int] = field(default_factory=dict)
    item_to_index: dict[str, int] = field(default_factory=dict)

    @property
    def num_users(self) -> int:
        return len(self.user_to_index)

    @property
    def num_items(self) -> int:
        return len(self.item_to_index)

    def user_index(self, external_id: str) -> int:
        """Index for an external user id, assigning a fresh one if unseen."""
        idx = self.user_to_index.get(external_id)
        if idx is None:
            idx = len(self.user_to_index)
            self.user_to_index[external_id] = idx
        return idx

    def item_index(self, external_id: str) -> int:
        idx = self.item_to_index.get(external_id)
        if idx is None:
            idx = len(self.item_to_index)
            self.item_to_index[external_id] = idx
        return idx


SPLITS = ("train", "validation", "test")

# slots that sample_negatives draws and checks together: bounds its temporary
# arrays at a few MB however many negatives are asked for
SAMPLE_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class Csr:
    """Per-user item rows in compressed sparse row form.

    Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending and
    free of duplicates; every item index is below ``num_cols``. Instances
    are immutable.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_cols: int

    @classmethod
    def from_pairs(cls, rows, cols, num_rows: int, num_cols: int) -> "Csr":
        """Rows built from (row, col) pairs in any order; duplicates collapse."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (
            rows.min() < 0 or rows.max() >= num_rows or cols.min() < 0 or cols.max() >= num_cols
        ):
            raise ValueError(f"pair outside a {num_rows} x {num_cols} matrix")
        keys = np.sort(rows * num_cols + cols)
        # keys are nonnegative, so the first one always differs from -1
        keys = keys[np.diff(keys, prepend=-1) != 0]
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // num_cols, minlength=num_rows), out=indptr[1:])
        return cls(indptr, keys % num_cols, num_cols)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def __len__(self) -> int:
        return int(self.indptr[-1])

    def sizes(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.indptr)

    def row(self, r: int) -> np.ndarray:
        return self.indices[self.indptr[r] : self.indptr[r + 1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All entries as (rows, cols) arrays, ordered by row then col."""
        return np.repeat(np.arange(self.num_rows), self.sizes()), self.indices

    def gather(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``rows`` (any order, repeats allowed) as (position
        in ``rows``, col) arrays, row by row."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # entry j of row r sits at starts[r] + j in indices and at
        # (cumsum - counts)[r] + j in the output
        pos = np.arange(counts.sum())
        pos += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return np.repeat(np.arange(len(rows)), counts), self.indices[pos]

    @cached_property
    def _keys(self) -> np.ndarray:
        rows, cols = self.pairs()
        return rows * self.num_cols + cols

    def contains(self, rows, cols) -> np.ndarray:
        """Elementwise membership of (rows[j], cols[j]), by binary search."""
        query = np.asarray(rows, dtype=np.int64) * self.num_cols
        query += np.asarray(cols, dtype=np.int64)
        keys = self._keys
        if not keys.size:
            return np.zeros(query.shape, dtype=bool)
        pos = np.searchsorted(keys, query)
        np.minimum(pos, keys.size - 1, out=pos)
        return keys[pos] == query

    def select(self, mask: np.ndarray) -> "Csr":
        """The entries where ``mask`` (one flag per entry) is set."""
        rows, _ = self.pairs()
        indptr = np.zeros(len(self.indptr), dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=self.num_rows), out=indptr[1:])
        return Csr(indptr, self.indices[mask], self.num_cols)


@dataclass(eq=False)
class Dataset:
    """Index-mapped interactions partitioned into train/validation/test.

    Each split is a ``Csr`` with one row per user; the three splits are
    disjoint. Instances are treated as immutable after construction.
    """

    num_users: int
    num_items: int
    train: Csr
    validation: Csr
    test: Csr
    item_popularity: np.ndarray

    def split(self, name: str) -> Csr:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def excluded(self, names: Sequence[str]) -> Csr:
        """Each user's items in the ``names`` splits, as one ``Csr``.

        One split is returned itself, not copied. Several are merged by
        ``Csr.from_pairs``, so an item that two splits share counts once.
        """
        if len(names) == 1:
            return self.split(names[0])
        rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for name in names:
            r, c = self.split(name).pairs()
            rows.append(r)
            cols.append(c)
        return Csr.from_pairs(
            np.concatenate(rows), np.concatenate(cols), self.num_users, self.num_items
        )

    @property
    def train_by_user(self) -> dict[int, np.ndarray]:
        """Train rows of the users that have any, keyed by user."""
        sizes = self.train.sizes()
        return {int(u): self.train.row(u) for u in np.flatnonzero(sizes)}


def load_interactions(path, delimiter: str = ",") -> tuple[list[Interaction], IdMaps]:
    """Read a delimiter-separated interaction log.

    Each non-empty line is ``user_id<delim>item_id[<delim>timestamp]``.
    External ids are mapped to dense 0-based indices in first-appearance
    order. Duplicate (user, item) lines collapse to a single interaction;
    timestamps are ignored.

    Raises DataFormatError on malformed lines (with the line number) and on
    input containing no interactions. I/O failures propagate as OSError.
    """
    maps = IdMaps()
    interactions: list[Interaction] = []
    seen: set[Interaction] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = [f.strip() for f in stripped.split(delimiter)]
            if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
                raise DataFormatError(
                    f"line {line_no}: expected 'user{delimiter}item[{delimiter}timestamp]', got {stripped!r}",
                    line_no=line_no,
                )
            pair = (maps.user_index(fields[0]), maps.item_index(fields[1]))
            if pair not in seen:
                seen.add(pair)
                interactions.append(pair)
    if not interactions:
        raise DataFormatError("input contains no interactions")
    return interactions, maps


def split_per_user(
    raw: Sequence[Interaction],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int | Sequence[int] = 0,
    num_users: int | None = None,
    num_items: int | None = None,
) -> Dataset:
    """Partition interactions into per-user train/validation/test holdouts.

    Per user, items are shuffled by a generator seeded with ``seed`` and cut
    by ``ratios``: validation and test get floor(n * ratio) items each and
    train the remainder, so train is never empty. Users with fewer than 3
    interactions put everything in train. The same (raw, ratios, seed)
    always yields the same Dataset.
    """
    if not raw:
        raise ValueError("empty interaction list")
    r_train, r_val, r_test = ratios
    if min(ratios) <= 0:
        raise ValueError(f"ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")

    pairs = np.fromiter(
        itertools.chain.from_iterable(raw), dtype=np.int64, count=2 * len(raw)
    ).reshape(-1, 2)
    negative = np.flatnonzero((pairs < 0).any(axis=1))
    if negative.size:
        u, i = pairs[negative[0]]
        raise ValueError(f"negative index in interaction ({u}, {i})")
    n_users = num_users if num_users is not None else int(pairs[:, 0].max()) + 1
    n_items = num_items if num_items is not None else int(pairs[:, 1].max()) + 1
    full = Csr.from_pairs(pairs[:, 0], pairs[:, 1], n_users, n_items)

    # each user's sorted items are shuffled by one rng.permutation call, in
    # user order; position j of the shuffled row lands in the split that
    # covers j, and the entry it came from is labelled with that split
    rng = np.random.default_rng(seed)
    sizes = full.sizes()
    source = np.arange(len(full))
    for user in np.flatnonzero(sizes):
        start, stop = full.indptr[user], full.indptr[user + 1]
        source[start:stop] = start + rng.permutation(stop - start)
    # epsilon guards against 10 * 0.1 == 0.999... style float drift
    n_val = np.where(sizes < 3, 0, (sizes * r_val + 1e-9).astype(np.int64))
    n_test = np.where(sizes < 3, 0, (sizes * r_test + 1e-9).astype(np.int64))
    n_train = sizes - n_val - n_test
    rows, _ = full.pairs()
    position = np.arange(len(full)) - full.indptr[rows]
    label = np.empty(len(full), dtype=np.int8)
    label[source] = (position >= n_train[rows]).astype(np.int8) + (
        position >= (n_train + n_val)[rows]
    )

    train = full.select(label == 0)
    return Dataset(
        num_users=n_users,
        num_items=n_items,
        train=train,
        validation=full.select(label == 1),
        test=full.select(label == 2),
        item_popularity=np.bincount(train.indices, minlength=n_items),
    )


def sample_negatives(
    dataset: Dataset,
    users,
    n: int,
    rng: np.random.Generator,
    exclude: Sequence[str] = ("train",),
) -> np.ndarray:
    """``n`` items per user, each uniform over the items outside the user's
    rows in the ``exclude`` splits; returns a (len(users), n) int64 array.

    Vectorized rejection sampling over blocks of ``SAMPLE_BLOCK`` slots:
    every slot draws from the whole catalog and redraws while its item is
    blocked, membership being one binary search in ``dataset.excluded``.
    Raises ValueError when a user's blocked rows cover every item.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    blocked = dataset.excluded(exclude)
    covered = users[blocked.sizes()[users] >= dataset.num_items]
    if covered.size:
        raise ValueError(
            f"user {covered.min()}: {'+'.join(exclude)} covers all {dataset.num_items} items"
        )

    items = np.empty(len(users) * n, dtype=np.int64)
    for start in range(0, items.size, SAMPLE_BLOCK):
        slot_users = users[np.arange(start, min(start + SAMPLE_BLOCK, items.size)) // n]
        block = rng.integers(dataset.num_items, size=slot_users.size)
        redo = np.flatnonzero(blocked.contains(slot_users, block))
        while redo.size:
            block[redo] = rng.integers(dataset.num_items, size=redo.size)
            redo = redo[blocked.contains(slot_users[redo], block[redo])]
        items[start : start + block.size] = block
    return items.reshape(len(users), n)

