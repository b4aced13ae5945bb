"""Interaction ingestion, id mapping, and deterministic per-user splits.

Implicit-feedback data: an interaction is a (user, item) pair, presence
meaning a positive label. Unobserved pairs are unlabeled, not negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


SPLITS = ("train", "validation", "test")

# slots that sample_negatives draws and checks together: bounds its temporary
# arrays at a few MB however many negatives are asked for
SAMPLE_BLOCK = 1 << 14
# Csr.contains reads a bitmap when the matrix has at most this many cells
# per entry, so the bitmap is no larger than the int64 entry keys
BITMAP_BITS_PER_ENTRY = 64


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

    @cached_property
    def _bits(self) -> np.ndarray:
        """Membership as a packed bitmap: bit ``q & 7`` of byte ``q >> 3``
        is set for each entry key ``q = row * num_cols + col``."""
        bits = np.zeros(-(-self.num_rows * self.num_cols // 8), dtype=np.uint8)
        if not len(self):
            return bits
        # the keys are built in place and not cached: the bitmap replaces them
        keys, cols = self.pairs()
        keys *= self.num_cols
        keys += cols
        masks = np.left_shift(np.uint8(1), keys.astype(np.uint8) & 7)
        keys >>= 3
        # keys are sorted, so the keys of one byte form a run
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        runs = np.flatnonzero(head)
        bits[keys[runs]] = np.bitwise_or.reduceat(masks, runs)
        return bits

    def contains(self, rows, cols) -> np.ndarray:
        """Elementwise membership of (rows[j], cols[j]).

        Every row must lie in [0, num_rows) and every col in [0, num_cols):
        an index outside them names another cell or wraps around. A matrix
        of at most ``BITMAP_BITS_PER_ENTRY`` cells per entry is looked up
        in the packed ``_bits``, which is then no larger than the int64
        entry keys; a sparser one keeps a binary search over those keys.
        """
        query = np.asarray(rows, dtype=np.int64) * self.num_cols
        query += np.asarray(cols, dtype=np.int64)
        if self.num_rows * self.num_cols <= BITMAP_BITS_PER_ENTRY * len(self):
            found = self._bits[query >> 3] >> (query & 7).astype(np.uint8)
            return (found & 1).view(bool)
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
    # merged exclusions by split names, built on first use
    _excluded: dict = field(default_factory=dict, init=False, repr=False)

    def split(self, name: str) -> Csr:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def excluded(self, names: Sequence[str]) -> Csr:
        """Each user's items in the ``names`` splits, as one ``Csr``.

        One split is returned itself, not copied. Several are merged by
        ``Csr.from_pairs``, so an item that two splits share counts once,
        and the merge is kept: later calls with the same names return it,
        with any membership bitmap it has built.
        """
        names = tuple(names)
        if len(names) == 1:
            return self.split(names[0])
        if names not in self._excluded:
            empty = np.empty(0, dtype=np.int64)
            rows, cols = zip((empty, empty), *(self.split(name).pairs() for name in names))
            self._excluded[names] = Csr.from_pairs(
                np.concatenate(rows), np.concatenate(cols), self.num_users, self.num_items
            )
        return self._excluded[names]

    @property
    def train_by_user(self) -> dict[int, np.ndarray]:
        """Train rows of the users that have any, keyed by user."""
        sizes = self.train.sizes()
        return {int(u): self.train.row(u) for u in np.flatnonzero(sizes)}


# bytes compared at a time by _positions: its mask and int64 match positions
# grow with the chunk, not with the file
SCAN_CHUNK = 1 << 20


def _positions(buf, op, value, index) -> np.ndarray:
    """Sorted positions of the bytes ``b`` of ``buf`` where ``op(b, value)``
    holds, as ``index`` integers, searched one ``SCAN_CHUNK`` at a time."""
    parts = []
    # an empty buffer still gives one, empty, part
    for start in range(0, buf.size, SCAN_CHUNK) or [0]:
        at = op(buf[start : start + SCAN_CHUNK], value).nonzero()[0].astype(index)
        at += start
        parts.append(at)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# bytes below 0x80 that str.strip removes: \t \n \v \f \r, \x1c-\x1f and space
_ASCII_SPACE = np.array([b < 0x80 and chr(b).isspace() for b in range(256)])


class _Whitespace:
    """The whitespace of a UTF-8 byte array, as ``str.strip`` sees it.

    ASCII bytes are looked up in ``_ASCII_SPACE``. Multi-byte characters
    are judged by decoding each distinct one that occurs, once; ``wide``
    lists the bytes of those that are whitespace (usually none).
    """

    def __init__(self, buf: np.ndarray, low: np.ndarray):
        self.buf = buf
        self.low = low  # positions of the bytes <= 0x20, all ASCII whitespace among them
        lead = _positions(buf, np.greater_equal, 0xC0, low.dtype)
        width = 2 + (buf[lead] >= 0xE0) + (buf[lead] >= 0xF0)
        packed = np.zeros((lead.size, 4), dtype=np.uint8)
        for k in range(4):
            packed[:, k] = np.where(k < width, buf[np.minimum(lead + k, buf.size - 1)], 0)
        chars, inverse = np.unique(packed.view(np.uint32).ravel(), return_inverse=True)
        # continuation bytes are never 0, so the zero padding strips off exactly
        is_space = [c.decode("utf-8").isspace() for c in chars.view("S4").tolist()]
        spaced = np.flatnonzero(np.array(is_space, dtype=bool)[inverse.ravel()])
        self.wide = np.sort(np.concatenate([lead[spaced[width[spaced] > k]] + k for k in range(4)]))

    def at(self, pos: np.ndarray) -> np.ndarray:
        """Whether each byte position in ``pos`` holds whitespace."""
        space = _ASCII_SPACE[self.buf[pos]]
        if self.wide.size:
            space |= np.isin(pos, self.wide)
        return space

    @cached_property
    def _runs(self):
        """Sorted whitespace positions, and the index in them of each run's
        first and last position; built only when some range needs stripping."""
        pos = self.low[_ASCII_SPACE[self.buf[self.low]]]
        if self.wide.size:
            pos = np.union1d(pos, self.wide)
        heads = np.flatnonzero(np.diff(pos, prepend=-2) != 1)
        return pos, heads, np.append(heads[1:], pos.size) - 1

    def _run_bounds(self, at):
        """First byte of the whitespace run holding each position in ``at``,
        and the byte after the run."""
        pos, heads, tails = self._runs
        run = np.searchsorted(heads, np.searchsorted(pos, at), side="right") - 1
        return pos[heads[run]], pos[tails[run]] + 1

    def _spaced(self, ranges, pos):
        """Indices where the mask ``ranges`` is set and the byte at ``pos``
        is whitespace. Masks keep the per-range temporaries at one byte each;
        only the hits, usually few, become int64 indices."""
        space = np.zeros_like(ranges)
        space[ranges] = self.at(pos[ranges])
        return np.flatnonzero(space)

    def strip(self, lo, hi):
        """Narrow the ranges [lo, hi) past their leading and trailing
        whitespace, in place; a range holding nothing else ends with lo == hi."""
        hit = self._spaced(lo < hi, lo)
        if hit.size:
            lo[hit] = np.minimum(self._run_bounds(lo[hit])[1], hi[hit])
        # past that, a non-empty range starts on a non-whitespace byte
        hit = self._spaced(lo < hi, hi - 1)
        if hit.size:
            hi[hit] = self._run_bounds(hi[hit] - 1)[0]


def _delimiters(buf, sep: bytes, lo, hi) -> np.ndarray:
    """Sorted starts of the delimiters ``str.split(sep)`` would cut at, among
    them every cut of the stripped lines [lo, hi); the caller counts a line's
    cuts by range. UTF-8 is self-synchronizing, so the encoded delimiter
    matches only at character boundaries.
    """
    at = _positions(buf, np.equal, sep[0], lo.dtype)
    for k in range(1, len(sep)):
        at = at[at + k < buf.size]
        at = at[buf[at + k] == sep[k]]
    # a delimiter that overlaps itself ("::" in ":::") can match at places
    # closer than its length; str.split keeps, within a stripped line, each
    # match that starts at or past the end of the last one it kept, and only
    # those close matches need that scan
    close = np.flatnonzero(np.diff(at) < len(sep))
    if close.size:
        near = np.union1d(close, close + 1)
        line = np.searchsorted(lo, at[near], side="right") - 1
        inside = ((line >= 0) & (at[near] + len(sep) <= hi[line])).tolist()
        keep = np.ones(at.size, dtype=bool)
        end = -1
        for j, ok in zip(near.tolist(), inside):
            if ok and at[j] < end:
                keep[j] = False
            elif ok:
                end = at[j] + len(sep)
        at = at[keep]
    return at


def _first_seen(data: bytes, buf, lo, hi) -> tuple[np.ndarray, list[str]]:
    """Codes numbering the tokens ``data[lo:hi]`` by first appearance, and
    the distinct tokens decoded, in code order.

    Tokens of different lengths never match, so each length is numbered on
    its own: its tokens are copied into one fixed-width array (one uint64
    each when 8 bytes or shorter), sorted and numbered by run. Together
    the copies hold each token's bytes once.
    """
    index = lo.dtype
    size = hi - lo
    by_size = np.argsort(size.astype(np.min_scalar_type(size.max())), kind="stable").astype(index)
    size = size[by_size]
    heads = np.flatnonzero(size[1:] != size[:-1]) + 1
    widths = size[np.concatenate(([0], heads))]
    del size
    group = np.empty(by_size.size, dtype=index)
    firsts = []
    distinct = 0
    for width, rows in zip(widths.tolist(), np.split(by_size, heads)):
        tokens = sliding_window_view(buf, width)[lo[rows]]
        if width <= 8:
            packed = np.zeros((rows.size, 8), dtype=np.uint8)
            packed[:, :width] = tokens
            keys = packed.view(np.uint64).ravel()
        else:
            keys = tokens.view(f"S{width}").ravel()
        del tokens
        # any sort keeps equal keys in one run; its smallest position is the first row
        order = np.argsort(keys)
        ordered = keys[order]
        del keys
        head = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        del ordered
        run = np.cumsum(head, dtype=index)
        run += distinct - 1
        group[rows[order]] = run
        heads = np.flatnonzero(head)
        firsts.append(rows[np.minimum.reduceat(order, heads)])
        distinct += heads.size
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    code = np.empty(distinct, dtype=index)
    code[order] = np.arange(distinct, dtype=index)
    firsts = firsts[order]
    names = [data[a:b].decode("utf-8") for a, b in zip(lo[firsts].tolist(), hi[firsts].tolist())]
    return code[group], names


def load_interactions(path, delimiter: str = ",") -> tuple[np.ndarray, IdMaps]:
    """Read a delimiter-separated interaction log.

    The file is UTF-8 with ``\\n``, ``\\r\\n`` or ``\\r`` line endings. Each
    non-blank line is ``user_id<delim>item_id[<delim>timestamp]``; whitespace
    (as ``str.strip`` sees it) around lines and fields is ignored. External
    ids are mapped to dense 0-based indices in first-appearance order.
    Duplicate (user, item) lines collapse to a single interaction;
    timestamps are ignored. Returns the interactions as an ``(n, 2)`` int64
    array in first-appearance order.

    The whole file is parsed as one byte array: line ends, whitespace and
    delimiters are located by vectorized comparisons, and the id tokens are
    numbered by one sort per token length (see docs/data-layer.md, "Ingest").

    Raises DataFormatError on malformed lines (the first one in file order,
    with its line number) and on input containing no interactions,
    ValueError on an empty delimiter and UnicodeDecodeError on invalid
    UTF-8. I/O failures propagate as OSError.
    """
    if not delimiter:
        raise ValueError("empty separator")
    with open(path, "rb") as handle:
        data = handle.read()
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size and buf.max() >= 0x80:
        data.decode("utf-8")  # raises UnicodeDecodeError on invalid input
    user_lo, user_hi, item_lo, item_hi = _id_fields(data, buf, delimiter)
    users, user_names = _first_seen(data, buf, user_lo, user_hi)
    del user_lo, user_hi
    items, item_names = _first_seen(data, buf, item_lo, item_hi)
    del item_lo, item_hi, data, buf
    # one row per distinct pair, at its first appearance
    _, first = np.unique(users.astype(np.int64) * len(item_names) + items, return_index=True)
    first.sort()
    maps = IdMaps(
        user_to_index=dict(zip(user_names, range(len(user_names)))),
        item_to_index=dict(zip(item_names, range(len(item_names)))),
    )
    return np.stack((users[first], items[first]), axis=1, dtype=np.int64), maps


def _id_fields(data: bytes, buf, delimiter: str):
    """Byte ranges of the stripped user and item field of every non-blank line,
    as (user_lo, user_hi, item_lo, item_hi) arrays; raises DataFormatError
    for the first malformed line and for input without a non-blank line.

    Positions, cut indices and counts stay in one ``index`` dtype, int32 for
    any file under 2 GiB, and each line-level array is dropped once used.
    """
    index = np.int32 if buf.size < 2**31 else np.int64
    low = _positions(buf, np.less_equal, 0x20, index)
    space = _Whitespace(buf, low)
    # a line ends at every CR and at every LF not preceded by CR; the LF of a
    # CRLF opens the next line as leading whitespace, which strip removes
    hi = low[buf[low] == ord("\n")]
    returns = low[buf[low] == ord("\r")]
    if returns.size:
        hi = np.union1d(returns, hi[~np.isin(hi - 1, returns)])
    del returns
    hi = np.append(hi, index(buf.size))
    lo = np.empty_like(hi)
    lo[0] = 0
    lo[1:] = hi[:-1] + 1
    space.strip(lo, hi)
    # from here on [lo, hi) are the non-blank lines, stripped; ``lines`` holds
    # their 0-based numbers for the error message
    lines = np.flatnonzero(lo < hi).astype(index)
    if not lines.size:
        raise DataFormatError("input contains no interactions")
    if lines.size < lo.size:
        lo, hi = lo[lines], hi[lines]

    sep = delimiter.encode("utf-8")
    cuts = _delimiters(buf, sep, lo, hi)
    # a line's cuts c satisfy lo <= c and c + len(sep) <= hi
    first_cut = np.searchsorted(cuts, lo).astype(index)
    counts = np.searchsorted(cuts, hi - len(sep) + 1).astype(index)
    counts -= first_cut
    # only the lines before the first with a wrong field count are checked
    # for empty ids, so the error names the first bad line in file order
    wrong = np.flatnonzero((counts < 1) | (counts > 2))
    bad = wrong[0] if wrong.size else None
    checked = slice(bad)
    two = counts[checked] == 2
    del counts
    user_end = cuts[first_cut[checked]]
    first_cut = first_cut[checked] + two
    item_end = np.where(two, cuts[first_cut], hi[checked])
    del cuts, first_cut, two
    item_lo = user_end + len(sep)
    user_lo = lo[checked].copy()
    space.strip(user_lo, user_end)
    space.strip(item_lo, item_end)
    empty = np.flatnonzero((user_lo == user_end) | (item_lo == item_end))
    if empty.size:
        bad = empty[0]
    if bad is not None:
        # the stripped line is what str.strip leaves of the whole line
        stripped = data[lo[bad] : hi[bad]].decode("utf-8")
        raise DataFormatError(
            f"line {lines[bad] + 1}: expected 'user{delimiter}item[{delimiter}timestamp]', "
            f"got {stripped!r}",
            line_no=int(lines[bad]) + 1,
        )
    return user_lo, user_end, item_lo, item_end


def split_per_user(
    raw,
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

    ``raw`` is any ``(n, 2)`` integer array-like of (user, item) pairs: the
    array ``load_interactions`` returns, or a list of tuples.
    """
    pairs = np.asarray(raw, dtype=np.int64)
    if not pairs.size:
        raise ValueError("empty interaction list")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"expected (n, 2) interaction pairs, got shape {pairs.shape}")
    if len(ratios) != 3:
        raise ValueError(f"ratios needs three fractions (train, validation, test), got {ratios}")
    r_train, r_val, r_test = ratios
    if min(ratios) <= 0:
        raise ValueError(f"ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")

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
    blocked, membership being one ``Csr.contains`` on ``dataset.excluded``.
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

