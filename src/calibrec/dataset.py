"""Interaction ingestion, id mapping, and deterministic per-user splits.

Implicit-feedback data: an interaction is a (user, item) pair, presence
meaning a positive label. Unobserved pairs are unlabeled, not negatives.
"""

from __future__ import annotations

import codecs
from array import array
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
        # the keys are built in place and not cached: the bitmap replaces them
        keys, cols = self.pairs()
        keys *= self.num_cols
        keys += cols
        masks = np.left_shift(np.uint8(1), keys.astype(np.uint8) & 7)
        keys >>= 3
        np.bitwise_or.at(bits, keys, masks)
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
    def item_popularity(self) -> np.ndarray:
        """Each item's count of train interactions."""
        return np.bincount(self.train.indices, minlength=self.num_items)

    @property
    def train_by_user(self) -> dict[int, np.ndarray]:
        """Train rows of the users that have any, keyed by user."""
        sizes = self.train.sizes()
        return {int(u): self.train.row(u) for u in np.flatnonzero(sizes)}


# bytes compared at a time by _positions: its mask and int64 match positions
# grow with the chunk, not with the file
SCAN_CHUNK = 1 << 20


def _positions(buf, hit, index) -> np.ndarray:
    """Sorted positions of the bytes of ``buf`` that the mask ``hit(bytes)``
    sets, as ``index`` integers, searched one ``SCAN_CHUNK`` at a time."""
    parts = []
    # an empty buffer still gives one, empty, part
    for start in range(0, buf.size, SCAN_CHUNK) or [0]:
        at = hit(buf[start : start + SCAN_CHUNK]).nonzero()[0].astype(index)
        at += start
        parts.append(at)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _strippable(chunk: np.ndarray) -> np.ndarray:
    """Mask of the bytes of ``chunk`` that keep a line off the numpy cut
    unless a delimiter holds them: every byte up to space, which covers the
    ASCII whitespace ``str.strip`` removes, and every byte of 0x80 or more,
    so that only ASCII lines are cut by numpy."""
    # read as signed, every byte from 0x80 on is negative
    return chunk.view(np.int8) <= 0x20


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

    The file is UTF-8, after at most one byte order mark, with ``\\n``,
    ``\\r\\n`` or ``\\r`` line endings. Each non-blank line is
    ``user_id<delim>item_id[<delim>timestamp]``; whitespace (as
    ``str.strip`` sees it) around lines and fields is ignored. External
    ids are mapped to dense 0-based indices in first-appearance order.
    Duplicate (user, item) lines collapse to a single interaction;
    timestamps are ignored. Returns the interactions as an ``(n, 2)`` int64
    array in first-appearance order.

    The ASCII lines that ``str.strip`` and ``str.split`` provably leave as
    they are (one or two delimiters, no whitespace outside them, no empty
    field) are cut by vectorized comparisons over the file's bytes; every
    other line, so every line with a non-ASCII byte outside its delimiters,
    is decoded and read by those two calls. The id tokens are numbered by
    one sort per token length (see docs/data-layer.md, "Ingest").

    Raises DataFormatError on malformed lines (the first one in file order,
    with its line number) and on input containing no interactions,
    ValueError on an empty delimiter and UnicodeDecodeError on invalid
    UTF-8. I/O failures propagate as OSError.
    """
    if not delimiter:
        raise ValueError("empty separator")
    with open(path, "rb") as handle:
        # one leading byte order mark is dropped, as the utf-8-sig codec does
        if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            handle.seek(0)
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

    numpy cuts the plain lines: one or two delimiters, every field
    non-empty, and no ``_strippable`` byte outside the delimiters. There the
    line is ASCII without whitespace, so ``str.strip`` changes neither the
    line nor a field; the non-empty fields keep the delimiters from
    overlapping, so ``str.split`` cuts at exactly those.
    Every other line is read by ``_text_fields``, in file order.

    Positions, cut indices and counts stay in one ``index`` dtype, int32 for
    any file under 2 GiB, and each line-level array is dropped once used.
    """
    index = np.int32 if buf.size < 2**31 else np.int64
    # the strippable bytes are the line ends and the strays, each of which
    # makes its line not plain unless a delimiter holds it
    spaces = _positions(buf, _strippable, index)
    kind = buf[spaces]
    newline = (kind == ord("\n")) | (kind == ord("\r"))
    ends = spaces[newline]
    stray = spaces[~newline]
    del spaces, kind, newline
    # a line ends at every CR and at every LF not preceded by CR; the LF of a
    # CRLF belongs to no line
    crlf = (buf[ends] == ord("\n")) & (buf[ends - 1] == ord("\r")) & (ends > 0)
    hi = np.append(ends[~crlf], index(buf.size))
    lo = np.empty_like(hi)
    lo[0] = 0
    lo[1:] = hi[:-1] + 1
    lo[np.searchsorted(lo, ends[crlf])] += 1
    del ends, crlf

    sep = delimiter.encode("utf-8")
    cuts = _positions(buf, lambda b: b == sep[0], index)
    for k in range(1, len(sep)):
        cuts = cuts[cuts + k < buf.size]
        cuts = cuts[buf[cuts + k] == sep[k]]
    # a line's cuts c satisfy lo <= c and c + len(sep) <= hi
    first_cut = np.searchsorted(cuts, lo).astype(index)
    counts = np.searchsorted(cuts, hi - len(sep) + 1).astype(index)
    counts -= first_cut
    own = int(_strippable(np.frombuffer(sep, dtype=np.uint8)).sum())
    plain = np.bincount(np.searchsorted(hi, stray), minlength=hi.size) == counts * own
    del stray
    two = counts == 2
    plain &= two | (counts == 1)
    del counts
    # a cut at the end of the buffer serves the lines past the last one
    cuts = np.append(cuts, index(buf.size))
    user_hi = cuts[first_cut]
    first_cut += two
    item_hi = cuts[first_cut]
    del cuts, first_cut
    # a timestamp field, when there is one, must not be empty either
    plain &= ~two | (item_hi + len(sep) < hi)
    np.copyto(item_hi, hi, where=~two)
    del two
    item_lo = user_hi + len(sep)
    plain &= (lo < user_hi) & (item_lo < item_hi)

    lines, at = _text_fields(data, np.flatnonzero(~plain), lo, hi, delimiter)
    del hi
    starts = lo[lines]
    fields = (lo, user_hi, item_lo, item_hi)
    for field, offset in zip(fields, at.T):
        field[lines] = starts + offset
    plain[lines] = True
    if not plain.any():
        raise DataFormatError("input contains no interactions")
    return tuple(field[plain] for field in fields)


def _text_fields(data: bytes, lines, lo, hi, delimiter: str):
    """The lines numbered ``lines`` (from 0; line n is ``data[lo[n]:hi[n]]``)
    read by ``str.strip`` and ``str.split``, in order. Returns the numbers of
    the non-blank ones and, one row each, the byte offsets from the line's
    start of its stripped (user, user end, item, item end) fields; raises
    DataFormatError for the first malformed one.

    The offsets gather in one ``array``, and no numpy scalar is read or
    written per line.
    """
    blank = []
    at = array("q")
    for n, (a, b) in enumerate(zip(lo[lines].tolist(), hi[lines].tolist())):
        text = data[a:b].decode("utf-8")
        stripped = text.strip()
        if not stripped:
            blank.append(n)
            continue
        fields = stripped.split(delimiter)
        if len(fields) not in (2, 3) or not fields[0].strip() or not fields[1].strip():
            line = int(lines[n]) + 1
            raise DataFormatError(
                f"line {line}: expected 'user{delimiter}item[{delimiter}timestamp]', "
                f"got {stripped!r}",
                line_no=line,
            )
        # offsets in characters; the stripped line starts with the user id
        user = len(text) - len(text.lstrip())
        item = user + len(fields[0]) + len(delimiter) + len(fields[1]) - len(fields[1].lstrip())
        offsets = (user, user + len(fields[0].rstrip()), item, item + len(fields[1].strip()))
        if not text.isascii():
            offsets = [len(text[:k].encode("utf-8")) for k in offsets]
        at.extend(offsets)
    keep = np.ones(lines.size, dtype=bool)
    keep[blank] = False
    return lines[keep], np.array(at, dtype=np.int64).reshape(-1, 4)


def check_ratios(ratios):
    """``ratios`` if they are three positive fractions summing to 1; raises ValueError otherwise."""
    if len(ratios) != 3:
        raise ValueError(f"ratios needs three fractions (train, validation, test), got {ratios}")
    if min(ratios) <= 0:
        raise ValueError(f"ratios must be positive, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    return ratios


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
    _, r_val, r_test = check_ratios(ratios)

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

    return Dataset(
        num_users=n_users,
        num_items=n_items,
        train=full.select(label == 0),
        validation=full.select(label == 1),
        test=full.select(label == 2),
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

