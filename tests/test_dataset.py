import codecs
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from calibrec import dataset as dataset_module
from calibrec.dataset import (
    SPLITS,
    Csr,
    DataFormatError,
    load_interactions,
    sample_negatives,
    split_per_user,
)
from calibrec.synthetic import low_rank_interactions, write_interactions_csv

from conftest import make_dataset
from oracles import first_seen_index, reference_load_interactions


def write(tmp_path, text, name="inter.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadInteractions:
    def test_basic_counts(self, tmp_path):
        path = write(tmp_path, "a,x\na,y\nb,x\n")
        pairs, maps = load_interactions(path)
        assert len(pairs) == 3
        assert maps.num_users == 2
        assert maps.num_items == 2

    def test_duplicates_collapse(self, tmp_path):
        path = write(tmp_path, "a,x\na,x\n")
        pairs, _ = load_interactions(path)
        assert pairs.tolist() == [[0, 0]]

    def test_arbitrary_external_ids(self, tmp_path):
        path = write(tmp_path, "u17,itemZ\nu17,item9\nuX,itemZ\n")
        pairs, maps = load_interactions(path)
        assert len(pairs) == 3
        assert maps.user_to_index == {"u17": 0, "uX": 1}
        assert maps.item_to_index == {"itemZ": 0, "item9": 1}

    def test_id_round_trip(self, tmp_path):
        path = write(tmp_path, "alice,pie\nbob,cake\nalice,cake\n")
        pairs, maps = load_interactions(path)
        # the maps are the dicts ingest writes; inverted, they name every pair
        users = {i: uid for uid, i in maps.user_to_index.items()}
        items = {i: iid for iid, i in maps.item_to_index.items()}
        named = [(users[u], items[i]) for u, i in pairs]
        assert named == [("alice", "pie"), ("bob", "cake"), ("alice", "cake")]
        assert (maps.num_users, maps.num_items) == (2, 2)

    def test_timestamp_column_ignored(self, tmp_path):
        path = write(tmp_path, "a,x,123\nb,y,456\n")
        pairs, _ = load_interactions(path)
        assert len(pairs) == 2

    def test_existing_maps_extended(self, tmp_path):
        # numbered on first sight, the loaded maps extend as the line-by-line
        # loader extends its own: unseen ids get the next free index
        _, maps = load_interactions(write(tmp_path, "a,x\n"))
        pairs = [
            (first_seen_index(maps.user_to_index, u), first_seen_index(maps.item_to_index, i))
            for u, i in (("b", "x"), ("a", "y"))
        ]
        assert pairs == [(1, 0), (0, 1)]
        assert maps.user_to_index == {"a": 0, "b": 1}
        assert maps.item_to_index == {"x": 0, "y": 1}

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "a,x\nnonsense\nb,y\n")
        with pytest.raises(DataFormatError) as exc:
            load_interactions(path)
        assert exc.value.line_no == 2
        assert "line 2" in str(exc.value)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        text = "u0,i0\nu0,i1\nu1,i0\nu0,i2\nu1,i1\nu1,i2\n"
        plain = write(tmp_path, text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert loaded(load_interactions, marked, ",") == loaded(load_interactions, plain, ",")
        _, maps = load_interactions(marked)
        assert maps.user_to_index == {"u0": 0, "u1": 1}

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"a,x\nnonsense\nb,y\n")
        with pytest.raises(DataFormatError) as exc:
            load_interactions(path)
        assert exc.value.line_no == 2

    def test_empty_input(self, tmp_path):
        path = write(tmp_path, "\n\n")
        with pytest.raises(DataFormatError):
            load_interactions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_interactions(tmp_path / "nope.csv")

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "a\tx\nb\ty\n")
        pairs, _ = load_interactions(path, delimiter="\t")
        assert len(pairs) == 2


# whitespace that str.strip removes: ASCII, \x1c-\x1f, NEL, NBSP, ogham,
# thin, line separator, medium math, ideographic; NEL and U+2028 end no line
# in a text file
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
          "\x85", "\u00a0", "\u1680", "\u2009", "\u2028", "\u205f", "\u3000"]
# the last four share their first two UTF-8 bytes with a whitespace character
IDS = ["u1", "u22", "7", "abcdefghij", "ünï", "用户", "x:", ":y", "a b", "\x00z", "z\x00",
       "\u00a0\u00a0k", "\u00e9t\u00e9", "\u00b7", "\u1681", "it\u2019s", "\u3001\u30e6"]


def random_log(rng, delimiter):
    """An interaction log mixing what the loader must read like ``str.strip`` and
    ``str.split`` do, with a malformed line in about a third of the files."""
    # in most files the padding leaves a whitespace delimiter out
    spaces = SPACES if rng.random() < 0.25 else [c for c in SPACES if c not in delimiter]

    def padded(token):
        side = lambda: "".join(rng.choice(spaces, size=rng.integers(0, 3)).tolist())
        return side() + token + side()

    lines = []
    for _ in range(rng.integers(0, 25)):
        roll = rng.random()
        if roll < 0.1:
            lines.append("".join(rng.choice(spaces, size=rng.integers(0, 3)).tolist()))
            continue
        fields = [padded(str(rng.choice(IDS))), padded(str(rng.choice(IDS)))]
        if rng.random() < 0.4:
            fields.append(padded(str(rng.integers(0, 10**6)) if rng.random() < 0.8 else ""))
        if roll > 0.97:  # malformed: one field, four fields, or an empty id
            kind = rng.integers(4)
            if kind == 0:
                fields = fields[:1]
            elif kind == 1:
                fields = fields[:2] + ["1", "2"]
            else:
                fields[kind - 2] = "".join(rng.choice(spaces, size=rng.integers(0, 2)).tolist())
        lines.append(delimiter.join(fields))
    endings = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and rng.random() < 0.3:
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def loaded(loader, path, delimiter):
    """Pairs and both id maps in order, or the DataFormatError's line and message."""
    try:
        pairs, maps = loader(path, delimiter=delimiter)
    except DataFormatError as exc:
        return ("error", exc.line_no, str(exc))
    return ([tuple(p) for p in np.asarray(pairs).tolist()],
            list(maps.user_to_index.items()), list(maps.item_to_index.items()))


DELIMITERS = [",", "\t", "::", " :: ", " ", "\u3000"]
DELIMITER_IDS = ["comma", "tab", "colons", "spaced-colons", "space", "ideographic-space"]


class TestLoaderMatchesReference:
    """The loader against the line-by-line reference on seeded files."""

    @pytest.mark.parametrize("delimiter", DELIMITERS, ids=DELIMITER_IDS)
    def test_random_logs(self, tmp_path, delimiter):
        rng = np.random.default_rng(20261018)
        path = tmp_path / "log.txt"
        outcomes = set()
        for _ in range(300):
            path.write_bytes(random_log(rng, delimiter).encode("utf-8"))
            got = loaded(load_interactions, path, delimiter)
            assert got == loaded(reference_load_interactions, path, delimiter)
            outcomes.add(got[0] if got[0] == "error" else "ok")
        assert outcomes == {"ok", "error"}

    @pytest.mark.parametrize("delimiter", DELIMITERS, ids=DELIMITER_IDS)
    def test_random_logs_scanned_in_small_chunks(self, tmp_path, monkeypatch, delimiter):
        # 5-byte chunks cut through delimiters, line ends and multi-byte
        # characters, and parts of one chunk can be empty
        monkeypatch.setattr(dataset_module, "SCAN_CHUNK", 5)
        rng = np.random.default_rng(20261019)
        path = tmp_path / "log.txt"
        for _ in range(60):
            path.write_bytes(random_log(rng, delimiter).encode("utf-8"))
            got = loaded(load_interactions, path, delimiter)
            assert got == loaded(reference_load_interactions, path, delimiter)

    @pytest.mark.parametrize(
        "text, delimiter",
        [
            ("a,x\n\n  \nb\n", ","),  # a 1-field line after blank ones
            ("a,x\nb,y", ","),  # every line plain, no final newline
            ("a,x", ","),
            # characters that share the first two bytes of a whitespace one
            ("\u3001\u30e6,\u2019\u2013\n\u1681,\u00b7\u2030\n\u3001,\u2009\u2019\n", ","),
            ("\u30e6\u3000\u2019\n", "\u3000"),
            ("a,x\r\nb,y,1,2\r\nc\r\n", ","),  # 4 fields before a 1-field line
            ("a,x\r \t,y\rb,\n", ","),  # empty user, then empty item
            ("a\tx\n\u3000\t\u00a0y\n", "\t"),  # leading whitespace swallows the tab
            ("a:::x\nb::::y\n", "::"),  # overlapping delimiter matches
            ("a::x::\nb\u3000::\u3000y", "::"),  # empty timestamp, no final newline
            ("\u3000\n\x85\n \x1c\n", ","),  # whitespace only
            ("", ","),
            ("a :: b :: ", " :: "),  # the strip eats the last delimiter's space
            ("a\tb\t\t", "\t"),  # trailing delimiters strip away
            ("\ta\tb", "\t"),  # and so does a leading one
            ("a,b,", ","),  # an empty timestamp
            ("a b,c", ","),  # a space inside an id
            ("\u00fcn\u00ef,\u7528\u6237\r\n", ","),  # non-ASCII ids, CRLF
            ("\ufeffa,x\r\nb,y", ","),  # a byte order mark is dropped
            ("\ufeff\ufeffa,x\n\ufeff,y\n", ","),  # only the first one, which is no whitespace
            ("\ufeff", ","),  # nothing after the mark
            ("\ufeffa\n", ","),  # a malformed first line
            # even lines plain, odd ones padded: users and items are first seen
            # on alternate paths, and the last five lines repeat the first five
            # on the other path
            pytest.param("\n".join(f"u{n % 7},i{n % 5}" if n % 2 == 0
                                   else f" u{n % 7} ,\u00a0i{n % 5}\t" for n in range(40)),
                         ",", id="plain-and-padded"),
        ],
    )
    def test_edge_cases(self, tmp_path, text, delimiter):
        path = tmp_path / "log.txt"
        path.write_bytes(text.encode("utf-8"))
        assert loaded(load_interactions, path, delimiter) == loaded(
            reference_load_interactions, path, delimiter
        )

    def test_strippable_bytes_are_space_controls_and_non_ascii(self):
        # the numpy cut reads only ASCII lines without whitespace outside
        # their delimiters: every byte up to space and every byte of 0x80 or
        # more sends its line to the str path
        mask = dataset_module._strippable(np.arange(256, dtype=np.uint8))
        assert np.flatnonzero(mask).tolist() == [*range(0x21), *range(0x80, 0x100)]
        # the ASCII rule rests on this: no ASCII whitespace lies above space
        assert all(c <= 0x20 for c in range(0x80) if chr(c).isspace())


class TestLoaderMemory:
    def test_traced_peak_is_a_few_file_sizes(self, tmp_path):
        # 20k lines with timestamps, 346 kB. With int64 line arrays the
        # parse peaked at 6.5 times the file; with int32 positions and line
        # temporaries dropped once used, 3.9 times (numpy 2.4)
        path = tmp_path / "log.csv"
        pairs = low_rank_interactions(250, 400, rank=4, per_user=80, seed=3)
        write_interactions_csv(path, pairs, with_timestamps=True)
        # a first call, so that no one-time import or cache counts
        load_interactions(path)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            loaded_pairs, _ = load_interactions(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(loaded_pairs) == len(pairs) == 20_000
        assert peak <= 5 * path.stat().st_size


class TestSplitPerUser:
    def test_ten_items_801010(self):
        raw = [(0, i) for i in range(10)]
        ds = split_per_user(raw, ratios=(0.8, 0.1, 0.1), seed=3)
        assert len(ds.train.row(0)) == 8
        assert len(ds.validation.row(0)) == 1
        assert len(ds.test.row(0)) == 1

    def test_small_user_all_train(self):
        raw = [(0, 0), (0, 1), (1, 5)]
        ds = split_per_user(raw, ratios=(0.6, 0.2, 0.2), seed=1)
        assert ds.train.row(0).tolist() == [0, 1]
        assert len(ds.validation.row(0)) == len(ds.test.row(0)) == 0

    def test_same_seed_identical(self):
        raw = [(u, i) for u in range(5) for i in range(12)]
        a = split_per_user(raw, seed=9)
        b = split_per_user(raw, seed=9)
        for name in ("train", "validation", "test"):
            assert np.array_equal(a.split(name).indptr, b.split(name).indptr)
            assert np.array_equal(a.split(name).indices, b.split(name).indices)

    def test_splits_partition_dedup_raw(self):
        rng = np.random.default_rng(0)
        raw = [(int(u), int(i)) for u, i in rng.integers(0, 15, size=(300, 2))]
        ds = split_per_user(raw, seed=5)
        train, validation, test = (
            set(zip(*map(np.ndarray.tolist, ds.split(name).pairs())))
            for name in ("train", "validation", "test")
        )
        assert train | validation | test == set(raw)
        assert not (train & validation)
        assert not (train & test)
        assert not (validation & test)

    def test_popularity_matches_train(self):
        raw = [(u, i) for u in range(6) for i in range(10)]
        ds = split_per_user(raw, seed=2)
        counts = np.zeros(ds.num_items, dtype=int)
        for u in range(ds.num_users):
            for i in ds.train.row(u):
                counts[i] += 1
        assert np.array_equal(counts, ds.item_popularity)

    def test_train_never_empty(self):
        raw = [(0, i) for i in range(3)]
        ds = split_per_user(raw, ratios=(0.1, 0.45, 0.45), seed=0)
        assert len(ds.train_by_user[0]) >= 1

    def test_bad_ratios(self):
        raw = [(0, 0), (0, 1)]
        with pytest.raises(ValueError):
            split_per_user(raw, ratios=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            split_per_user(raw, ratios=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="sum to 1"):
            split_per_user(raw, ratios=(float("nan"), 0.5, 0.5))

    def test_empty_raw(self):
        with pytest.raises(ValueError):
            split_per_user([])

    def test_array_input_matches_list(self):
        raw = [(u, i) for u in range(4) for i in range(u, 9)]
        a = split_per_user(raw, seed=4)
        b = split_per_user(np.array(raw, dtype=np.int32), seed=4)
        for name in SPLITS:
            assert np.array_equal(a.split(name).indptr, b.split(name).indptr)
            assert np.array_equal(a.split(name).indices, b.split(name).indices)

    def test_not_pairs(self):
        with pytest.raises(ValueError, match="shape"):
            split_per_user(np.arange(6))


class TestSampleNegative:
    def test_forced_outcome(self):
        ds = make_dataset({0: {0, 1}}, num_items=3)
        rng = np.random.default_rng(0)
        assert sample_negatives(ds, [0], 20, rng).tolist() == [[2] * 20]

    def test_exhausted(self):
        ds = make_dataset({0: {0, 1}}, num_items=2)
        with pytest.raises(ValueError):
            sample_negatives(ds, [0], 1, np.random.default_rng(0))

    def test_uniform_within_3_sigma(self):
        # 8 candidate items, 10k draws: every count within 3 sigma of binomial
        ds = make_dataset({0: {0, 1}}, num_items=10)
        rng = np.random.default_rng(123)
        draws = 10_000
        counts = np.bincount(sample_negatives(ds, [0], draws, rng)[0], minlength=10)
        assert counts[0] == counts[1] == 0
        p = 1.0 / 8.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts[2:] - draws * p) <= 3 * sigma)

    def test_user_without_train_set(self):
        ds = make_dataset({0: {0}}, num_users=2, num_items=4)
        rng = np.random.default_rng(1)
        assert sample_negatives(ds, [1], 1, rng)[0, 0] in range(4)


class TestCsr:
    def test_from_pairs_sorts_and_dedups(self):
        csr = Csr.from_pairs([2, 0, 2, 2, 0], [5, 3, 1, 5, 0], num_rows=4, num_cols=6)
        assert csr.indptr.tolist() == [0, 2, 2, 4, 4]
        assert csr.row(0).tolist() == [0, 3]
        assert csr.row(2).tolist() == [1, 5]
        assert len(csr) == 4
        assert csr.sizes().tolist() == [2, 0, 2, 0]

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            Csr.from_pairs([0], [6], num_rows=1, num_cols=6)

    def test_gather(self):
        csr = Csr.from_pairs([0, 0, 2, 2, 2], [1, 4, 0, 3, 4], num_rows=3, num_cols=5)
        which, cols = csr.gather([2, 1, 0, 2])
        assert which.tolist() == [0, 0, 0, 2, 2, 3, 3, 3]
        assert cols.tolist() == [0, 3, 4, 1, 4, 0, 3, 4]
        which, cols = csr.gather([])
        assert which.size == cols.size == 0

    def test_contains(self):
        csr = Csr.from_pairs([0, 0, 2], [1, 4, 0], num_rows=3, num_cols=5)
        got = csr.contains([0, 0, 1, 2, 2], [1, 2, 1, 0, 4])
        assert got.tolist() == [True, False, False, True, False]
        empty = Csr.from_pairs([], [], num_rows=2, num_cols=5)
        assert empty.contains([0, 1], [0, 4]).tolist() == [False, False]


def every_cell(csr):
    """Each cell's membership by brute force over the entries."""
    want = np.zeros((csr.num_rows, csr.num_cols), dtype=bool)
    rows, cols = csr.pairs()
    want[rows, cols] = True
    return want


class TestContainsPaths:
    """``Csr.contains`` gives the same answers from its bitmap and from its
    binary search; ``BITMAP_BITS_PER_ENTRY`` is patched to force each."""

    @staticmethod
    def random_csr(num_rows, num_cols, density, seed):
        rng = np.random.default_rng(seed)
        hit = rng.random((num_rows, num_cols)) < density
        rows, cols = np.nonzero(hit)
        return Csr.from_pairs(rows, cols, num_rows, num_cols)

    @staticmethod
    def answers(csr, monkeypatch, bits_per_entry):
        monkeypatch.setattr(dataset_module, "BITMAP_BITS_PER_ENTRY", bits_per_entry)
        # a fresh instance, so neither cached table is shared between the paths
        fresh = Csr(csr.indptr, csr.indices, csr.num_cols)
        rows, cols = np.indices((csr.num_rows, csr.num_cols))
        return fresh, fresh.contains(rows.ravel(), cols.ravel()).reshape(rows.shape)

    @pytest.mark.parametrize(
        "shape, density, bitmap",
        [((13, 29), 0.3, True), ((40, 70), 0.005, False), ((6, 11), 0.0, False)],
        ids=["dense", "sparse", "empty"],
    )
    def test_paths_agree(self, shape, density, bitmap, monkeypatch):
        csr = self.random_csr(*shape, density, seed=3)
        assert (shape[0] * shape[1] <= 64 * len(csr)) == bitmap
        used, default = self.answers(csr, monkeypatch, 64)
        assert ("_bits" in used.__dict__) == bitmap
        assert ("_keys" in used.__dict__) != bitmap
        want = every_cell(csr)
        assert np.array_equal(default, want)
        for forced in (10**9, 0):  # every matrix on the bitmap, then none
            _, got = self.answers(csr, monkeypatch, forced)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape, bitmap", [((8, 8), True), ((5, 13), False)])
    def test_rule_at_sixty_four_cells_per_entry(self, shape, bitmap):
        # one entry: 64 cells take the bitmap, 65 the binary search
        csr = Csr.from_pairs([1], [2], *shape)
        assert csr.contains([1, 0], [2, 2]).tolist() == [True, False]
        assert ("_bits" in csr.__dict__) == bitmap
        assert ("_keys" in csr.__dict__) != bitmap

    @pytest.mark.parametrize("shape", [(3, 5), (7, 9), (1, 1)])
    def test_last_cell_past_a_whole_byte(self, shape, monkeypatch):
        # rows * cols is not a multiple of 8, so the last byte is partial
        num_rows, num_cols = shape
        csr = Csr.from_pairs([num_rows - 1, 0], [num_cols - 1, 0], num_rows, num_cols)
        for forced in (10**9, 0):
            _, got = self.answers(csr, monkeypatch, forced)
            assert got[-1, -1] and got[0, 0]
            assert got.sum() == len(csr)
        assert len(Csr(csr.indptr, csr.indices, num_cols)._bits) == -(-num_rows * num_cols // 8)

    def test_bitmap_bytes(self):
        csr = Csr.from_pairs([0, 0, 0, 1], [0, 3, 7, 1], num_rows=2, num_cols=9)
        # keys 0, 3, 7 share byte 0; key 10 is bit 2 of byte 1
        assert csr._bits.tolist() == [0b10001001, 0b100, 0]


class TestExcluded:
    def test_one_split_is_the_split_itself(self, small_dataset):
        assert small_dataset.excluded(("validation",)) is small_dataset.validation

    def test_union_of_splits(self, small_dataset):
        ds = small_dataset
        union = ds.excluded(SPLITS)
        assert (union.num_rows, union.num_cols) == (ds.num_users, ds.num_items)
        for u in range(ds.num_users):
            want = np.union1d(np.union1d(ds.train.row(u), ds.validation.row(u)), ds.test.row(u))
            assert union.row(u).tolist() == want.tolist()

    def test_overlapping_splits_count_once(self):
        # a hand-edited bundle may list an item in two splits
        ds = make_dataset({0: {0, 1}}, validation={0: {1, 2}}, num_users=2, num_items=4)
        union = ds.excluded(("train", "validation"))
        assert union.sizes().tolist() == [3, 0]
        assert union.row(0).tolist() == [0, 1, 2]
        assert ds.excluded(()).sizes().tolist() == [0, 0]

    def test_unknown_split(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.excluded(("train", "holdout"))

    def test_merge_is_kept(self, small_dataset):
        merged = small_dataset.excluded(("train", "validation"))
        assert small_dataset.excluded(["train", "validation"]) is merged
        assert small_dataset.excluded(SPLITS) is not merged


class TestSampleNegatives:
    def test_never_returns_blocked_item(self, small_dataset, monkeypatch):
        monkeypatch.setattr(dataset_module, "SAMPLE_BLOCK", 97)  # many uneven blocks
        ds = small_dataset
        users = np.repeat(np.arange(ds.num_users), 3)
        rng = np.random.default_rng(5)
        negatives = sample_negatives(ds, users, 40, rng)
        assert negatives.shape == (len(users), 40)
        flat_users = np.repeat(users, 40)
        assert not ds.train.contains(flat_users, negatives.ravel()).any()
        negatives = sample_negatives(ds, users, 40, rng, exclude=SPLITS)
        for name in SPLITS:
            assert not ds.split(name).contains(flat_users, negatives.ravel()).any()

    def test_uniform_over_complement(self, monkeypatch):
        # user 0 blocks 3 of 12 items, user 1 blocks 9: chi-square count test
        # of each user's draws against the uniform law on its complement,
        # drawn in blocks that straddle the two users
        monkeypatch.setattr(dataset_module, "SAMPLE_BLOCK", 1000)
        ds = make_dataset({0: {0, 1, 5}, 1: set(range(9))}, num_items=12)
        draws = 9_000
        negatives = sample_negatives(ds, [0, 1], draws, np.random.default_rng(321))
        for user, row in enumerate(negatives):
            allowed = np.setdiff1d(np.arange(12), ds.train.row(user))
            counts = np.bincount(row, minlength=12)
            assert counts[ds.train.row(user)].sum() == 0
            expected = draws / len(allowed)
            stat = float(np.sum((counts[allowed] - expected) ** 2 / expected))
            assert stat < chi2.ppf(0.999, df=len(allowed) - 1)
            p = 1.0 / len(allowed)
            sigma = np.sqrt(draws * p * (1 - p))
            assert np.all(np.abs(counts[allowed] - expected) <= 4 * sigma)

    def test_raises_when_train_covers_catalog(self):
        ds = make_dataset({0: {0}, 1: {0, 1, 2}}, num_items=3)
        with pytest.raises(ValueError):
            sample_negatives(ds, [0, 1], 1, np.random.default_rng(0))
        # the user with free items alone is fine
        assert sample_negatives(ds, [0], 5, np.random.default_rng(0)).min() >= 1

    def test_raises_when_splits_together_cover_catalog(self):
        ds = make_dataset({0: {0, 1}}, validation={0: {2}}, num_items=3)
        assert sample_negatives(ds, [0], 4, np.random.default_rng(0)).tolist() == [[2, 2, 2, 2]]
        with pytest.raises(ValueError):
            sample_negatives(ds, [0], 1, np.random.default_rng(0), exclude=SPLITS)

    def test_overlapping_splits_leave_free_items(self):
        # row sizes add up to the catalog, but the union leaves item 3 free
        ds = make_dataset({0: {0, 1}}, validation={0: {1, 2}}, num_items=4)
        got = sample_negatives(ds, [0], 5, np.random.default_rng(0), exclude=SPLITS)
        assert got.tolist() == [[3] * 5]

    def test_same_seed_same_draws(self, small_dataset):
        users = np.arange(small_dataset.num_users)
        a = sample_negatives(small_dataset, users, 7, np.random.default_rng(9))
        b = sample_negatives(small_dataset, users, 7, np.random.default_rng(9))
        assert np.array_equal(a, b)
