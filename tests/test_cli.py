import codecs
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calibrec import calibration, cli, distill, metrics, ranker
from calibrec.atomic import read_sidecar, write_with_sidecar
from calibrec.calibration import (
    CalibrationSamples,
    Calibrator,
    apply,
    ece,
    load_calibrator,
    save_calibrator,
)
from calibrec.cli import (
    SPLITS_HEADER,
    SPLITS_SIDECAR,
    config_reference,
    load_bundle,
    load_recommendations,
    main,
)
from calibrec.dataset import SPLITS, Csr, Dataset
from calibrec.perk import UTILITIES, select_k, utility_curves
from calibrec.ranker import (
    MfParams,
    TrainConfig,
    bpr_epoch,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    save_checkpoint,
)
from calibrec.seeding import stream_seed
from calibrec.synthetic import low_rank_interactions, write_interactions_csv

from conftest import read_jsonl, read_reliability_csv, retype_array
from oracles import reference_read_split


def run(*argv):
    return main([str(a) for a in argv])


# every file ingest writes to a bundle
BUNDLE_FILES = (
    "user_map.json", "item_map.json", *(f"{name}.txt" for name in SPLITS),
    SPLITS_HEADER, SPLITS_SIDECAR,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared bundle + trained checkpoint for the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "interactions.csv"
    write_interactions_csv(csv, low_rank_interactions(40, 60, rank=2, per_user=12, seed=5))
    assert run("ingest", "--input", csv, "--out", root / "bundle") == 0
    assert (
        run(
            "train", "--data", root / "bundle", "--out", root / "ckpt",
            "--set", "train.epochs=6", "--set", "train.dim=8", "--set", "train.lr=0.15",
        )
        == 0
    )
    assert (
        run("calibrate", "--data", root / "bundle", "--ckpt", root / "ckpt",
            "--out", root / "calib")
        == 0
    )
    return root


class TestIngest:
    def test_writes_bundle_files(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(10, 15, per_user=10, seed=1))
        assert run("ingest", "--input", csv, "--out", tmp_path / "bundle") == 0
        names = sorted(p.name for p in (tmp_path / "bundle").iterdir())
        assert names == sorted(BUNDLE_FILES)
        assert "ingested" in capsys.readouterr().out

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("ingest", "--input", tmp_path / "absent.csv", "--out", tmp_path / "b") == 1

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,x\njunk-line\n")
        assert run("ingest", "--input", csv, "--out", tmp_path / "b") == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_utf8_is_validation_error(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"a,x\nb,\xff\n")
        assert run("ingest", "--input", csv, "--out", tmp_path / "b") == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_empty_delimiter_is_validation_error(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text("a,x\n")
        assert run("ingest", "--input", csv, "--out", tmp_path / "b",
                   "--set", "data.delimiter=") == 2

    def test_multi_character_delimiter(self, tmp_path):
        # MovieLens-style "::" logs round-trip: the text splits use the delimiter
        csv = tmp_path / "in.dat"
        csv.write_text("1::10::978300760\n1::20::978300761\n2::10::978300762\n")
        assert run("ingest", "--input", csv, "--out", tmp_path / "b",
                   "--set", "data.delimiter=::") == 0
        assert (tmp_path / "b" / "train.txt").read_text() == "0::0\n0::1\n1::0\n"
        assert json.loads((tmp_path / "b" / "user_map.json").read_text()) == {"1": 0, "2": 1}
        assert len(load_bundle(tmp_path / "b").train) == 3

    def test_padded_crlf_copy_gives_the_same_bundle(self, tmp_path):
        # 20k rows as written, which numpy cuts, and the same rows padded with
        # " , ", ended by CRLF and led by a whitespace-only line, which
        # str.strip and str.split read line by line
        csv = tmp_path / "in.csv"
        pairs = low_rank_interactions(250, 400, rank=4, per_user=80, seed=3)
        write_interactions_csv(csv, pairs, with_timestamps=True)
        text = csv.read_text(encoding="utf-8")
        padded = tmp_path / "padded.csv"
        padded.write_bytes((" \t\n" + text.replace(",", " , ")).replace("\n", "\r\n").encode())
        for source, out in ((csv, "b"), (padded, "padded")):
            assert run("ingest", "--input", source, "--out", tmp_path / out) == 0
        assert len(text.splitlines()) == 20_000
        for name in BUNDLE_FILES:
            want, got = (tmp_path / out / name for out in ("b", "padded"))
            assert want.read_bytes() == got.read_bytes(), name

    def test_byte_order_mark_copy_gives_the_same_bundle(self, tmp_path):
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(30, 40, per_user=10, seed=3))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + csv.read_bytes())
        for source, out in ((csv, "b"), (marked, "marked")):
            assert run("ingest", "--input", source, "--out", tmp_path / out) == 0
        for name in BUNDLE_FILES:
            want, got = (tmp_path / out / name for out in ("b", "marked"))
            assert want.read_bytes() == got.read_bytes(), name

    def test_ratios_need_three_fractions(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(10, 15, per_user=10, seed=1))
        assert run("ingest", "--input", csv, "--out", tmp_path / "b",
                   "--set", "data.ratios=0.5,0.5") == 2
        assert "three fractions (train, validation, test)" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_failed_ingest_keeps_the_earlier_bundle(self, workspace, tmp_path, monkeypatch):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        before = {name: (bundle / name).read_bytes() for name in BUNDLE_FILES}
        write_with_sidecar = cli.write_with_sidecar

        def fail_after_last_file(*args):
            write_with_sidecar(*args)  # splits.bin, then splits.json, finished
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_with_sidecar", fail_after_last_file)
        csv = tmp_path / "other.csv"
        write_interactions_csv(csv, low_rank_interactions(30, 50, per_user=10, seed=9))
        assert run("ingest", "--input", csv, "--out", bundle) == 1
        assert sorted(p.name for p in bundle.iterdir()) == sorted(BUNDLE_FILES)
        assert {name: (bundle / name).read_bytes() for name in BUNDLE_FILES} == before
        assert load_bundle(bundle).num_users == 40

    def test_bundle_round_trip(self, workspace):
        dataset = load_bundle(workspace / "bundle")
        assert dataset.num_users == 40
        assert len(dataset.train) > 0
        total = len(dataset.train) + len(dataset.validation) + len(dataset.test)
        assert total == 40 * 12
        counts = np.zeros(dataset.num_items, dtype=int)
        for u in range(dataset.num_users):
            for i in dataset.train.row(u):
                counts[i] += 1
        assert np.array_equal(counts, dataset.item_popularity)


# SHA-256 of each bundle file ingest writes for reference_input(). The five
# text files' digests were taken before the splits moved to CSR arrays, so
# their format must not change; the splits sidecar and its header are pinned
# so that they stay byte-deterministic (the header as of splits-v2).
REFERENCE_BUNDLES = {
    (): {
        "item_map.json": "46fa2b15a1ed6d646620cd1ff85cf08414d917186133b780755038c38fbbb6a8",
        "user_map.json": "cd6dc134d2b63156c4cc9d513ecc8e4a5355ec38cec5135145917b09c912e594",
        "train.txt": "4e28c3a409b1d395068992a58368bedfe15c8d1a276eacbd69883f6a15dae9af",
        "validation.txt": "9c2d2b3507260b49df08b80a2c88f3ccf1dc98363ba2cbaa30cfaa76001f95a6",
        "test.txt": "58e423b4bc0771abefb2d12b86cbdbae1f8ca297b00b2176e80e6a17b78d4d5e",
        "splits.json": "ff8425819c34127d3652ab93cd16ad23a6d05ca8535e30f6167c83081fe07357",
        "splits.bin": "2ac2a9c6c66a39e3eee524836bfceddd61109fa8b815ee6468c39436cceed601",
    },
    ("--set", "seed=7", "--set", "data.ratios=0.6,0.2,0.2"): {
        "item_map.json": "46fa2b15a1ed6d646620cd1ff85cf08414d917186133b780755038c38fbbb6a8",
        "user_map.json": "cd6dc134d2b63156c4cc9d513ecc8e4a5355ec38cec5135145917b09c912e594",
        "train.txt": "4bd79e93274324715b41bd2585bb0baf807bae2015d40d43d371c24888b8d4b4",
        "validation.txt": "6229bc944ab29a9f9727ba0d884974232ffef9dd23ba78e6b80f2ae41ba3067f",
        "test.txt": "58f7df951011433e17dd499e13cfd3b1c43ae8b74664e2d9fe3123355d4c758a",
        "splits.json": "d8ac09b44536b2f2e015bdc1b81844fa27d71740e75dfc6d3eabdbb3420c59b6",
        "splits.bin": "3b4901497464a26776c8157ef8713bb2d81e3a7d671e730a832ad9877bb61d8b",
    },
}


def reference_input(path):
    """Low-rank rows plus duplicates, users with 2 and 3 rows, and a late new item."""
    pairs = low_rank_interactions(30, 40, rank=2, per_user=12, noise=0.3, seed=3)
    pairs += [(3, 5), (3, 5), (30, 1), (30, 2), (31, 0), (31, 7), (31, 39), (2, 40)]
    write_interactions_csv(path, pairs, with_timestamps=True)


class TestBundleFormat:
    @pytest.mark.parametrize("settings", list(REFERENCE_BUNDLES), ids=["default", "seed7"])
    def test_ingest_bytes_match_reference(self, tmp_path, settings):
        reference_input(tmp_path / "in.csv")
        assert run("ingest", "--input", tmp_path / "in.csv", "--out", tmp_path / "b",
                   *settings) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            for name in BUNDLE_FILES
        }
        assert digests == REFERENCE_BUNDLES[settings]

    def test_malformed_split_file_is_validation_error(self, workspace, tmp_path):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        for name in BUNDLE_FILES:
            (bundle / name).write_bytes((workspace / "bundle" / name).read_bytes())
        with open(bundle / "test.txt", "a") as fh:
            fh.write("3,4,5\n")
        assert run("recommend", "--data", bundle, "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "r.jsonl", "--k", "3") == 2
        (bundle / "test.txt").write_text("3,4000\n")
        assert run("recommend", "--data", bundle, "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "r.jsonl", "--k", "3") == 2

    @pytest.mark.parametrize("train", [
        "0,0 1,1\n2,2\n",  # two pairs on one line
        "0,1,2\n3\n",  # delimiters and newlines in the right counts, on the wrong lines
        "0 1,\n", "0,1\n\n", "0,1", ",1\n", "0,\n", " 0,1\n", "0,1 \n", "0\t,1\n",
        "+0,1\n", "0,1\x00\n", "0,1\u00a0\n", "0;1\n",
    ])
    def test_split_lines_other_than_written_are_rejected(self, workspace, tmp_path, capsys,
                                                         train):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        (bundle / "train.txt").write_text(train, encoding="utf-8")
        assert_asks_for_ingest(bundle, tmp_path, capsys, "train.txt differs")
        (bundle / "train.txt").write_bytes((workspace / "bundle" / "train.txt").read_bytes())
        assert len(load_bundle(bundle).train) == len(load_bundle(workspace / "bundle").train)


def copy_bundle(src, dst):
    dst.mkdir()
    for name in BUNDLE_FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def assert_asks_for_ingest(bundle, tmp_path, capsys, problem):
    """A stage on ``bundle`` exits 2, names ``problem`` and asks for ingest, writing nothing."""
    assert run("train", "--data", bundle, "--out", tmp_path / "ck",
               "--set", "train.epochs=0") == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and problem in err and "run ingest again" in err
    assert not (tmp_path / "ck.json").exists()


def rewrite_sidecar(bundle, edit):
    """Rewrite splits.bin and its layout after ``edit(arrays)``, keeping the header's other keys."""
    header = json.loads((bundle / "splits.json").read_text())
    arrays = read_sidecar(bundle / "splits.json", header, list(header["arrays"]), "splits")
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    edit(arrays)
    kept = {key: value for key, value in header.items() if key not in ("sidecar", "arrays")}
    write_with_sidecar(bundle / "splits.json", bundle / "splits.bin", kept, arrays)


def write_splits_v1_header(bundle):
    """The header an earlier ingest wrote: a delimiter and no user or item counts."""
    header = json.loads((bundle / "splits.json").read_text())
    v1 = {"format": "splits-v1", "delimiter": ",", "sha256": header["sha256"],
          "sidecar": header["sidecar"], "arrays": header["arrays"]}
    (bundle / "splits.json").write_text(json.dumps(v1, indent=2) + "\n")


def swap(arr, i, j):
    arr[[i, j]] = arr[[j, i]]


# a header edit that breaks the sidecar layout, given one array the header lists
BAD_LAYOUTS = {
    "offset-not-int": lambda header, name: header["arrays"][name].update(offset="a"),
    "bytes-not-int": lambda header, name: header["arrays"][name].update(bytes="8"),
    "sidecar-empty": lambda header, name: header.update(sidecar=""),
    "sidecar-in-subdirectory": lambda header, name: header.update(sidecar="x/y"),
    "sidecar-parent": lambda header, name: header.update(sidecar=".."),
    "sidecar-dot": lambda header, name: header.update(sidecar="."),
    # the header's own name: the writers name the sidecar <stem>.bin
    "sidecar-is-header": lambda header, name: header.update(
        sidecar=header["sidecar"].removesuffix(".bin") + ".json"),
}


def break_layout(header_path, case, name):
    """Rewrite the JSON header at ``header_path`` with the ``BAD_LAYOUTS`` edit ``case``."""
    header = json.loads(header_path.read_text())
    BAD_LAYOUTS[case](header, name)
    header_path.write_text(json.dumps(header))


class TestSplitsSidecar:
    def ingest(self, tmp_path, pairs, *settings):
        csv = tmp_path / "in.csv"
        delimiter = dict(s.split("=", 1) for s in settings[1::2]).get("data.delimiter", ",")
        csv.write_text("".join(f"{u}{delimiter}{i}\n" for u, i in pairs))
        assert run("ingest", "--input", csv, "--out", tmp_path / "b", *settings) == 0
        return tmp_path / "b"

    @pytest.mark.parametrize("case", ["default", "seed7", "double-colon", "empty-splits"])
    def test_sidecar_load_equals_text_parse(self, tmp_path, case):
        delimiter = "::" if case == "double-colon" else ","
        if case in ("default", "seed7"):
            reference_input(tmp_path / "in.csv")
            settings = list(REFERENCE_BUNDLES)[case == "seed7"]
            assert run("ingest", "--input", tmp_path / "in.csv", "--out", tmp_path / "b",
                       *settings) == 0
            bundle = tmp_path / "b"
        elif case == "double-colon":
            bundle = self.ingest(tmp_path, low_rank_interactions(12, 20, per_user=10, seed=4),
                                 "--set", "data.delimiter=::")
        else:
            # 6 rows per user put nothing in validation or test
            bundle = self.ingest(tmp_path, low_rank_interactions(10, 15, per_user=6, seed=1))
        dataset = load_bundle(bundle)
        num_users = len(json.loads((bundle / "user_map.json").read_text()))
        num_items = len(json.loads((bundle / "item_map.json").read_text()))
        assert (dataset.num_users, dataset.num_items) == (num_users, num_items)
        if case == "empty-splits":
            assert len(dataset.validation) == len(dataset.test) == 0
        else:
            assert len(dataset.validation) and len(dataset.test)
        if case in ("default", "seed7"):
            # reference_input's users with two or three rows have empty validation rows
            assert np.any(dataset.validation.sizes() == 0)
        for name in SPLITS:
            indptr, indices = reference_read_split(bundle / f"{name}.txt", delimiter, num_users)
            split = dataset.split(name)
            assert split.indptr.dtype == split.indices.dtype == np.int64
            assert np.array_equal(split.indptr, indptr)
            assert np.array_equal(split.indices, indices)
            assert split.num_cols == num_items
        expected = np.bincount(dataset.train.indices, minlength=num_items)
        assert np.array_equal(dataset.item_popularity, expected)

    # an old or edited bundle -> what the error names
    STALE = {
        "no-header-or-sidecar": (
            lambda b: [(b / name).unlink() for name in ("splits.json", "splits.bin")],
            "splits.json is missing"),
        "no-header": (lambda b: (b / "splits.json").unlink(), "splits.json is missing"),
        "splits-v1": (write_splits_v1_header, "not a splits-v2 header"),
        "edited-split": (lambda b: (b / "test.txt").write_text("3,4000\n"), "test.txt differs"),
        "no-sidecar": (lambda b: (b / "splits.bin").unlink(), "splits.bin is missing"),
        **{f"no-{name}-split": ((lambda b, name=name: (b / f"{name}.txt").unlink()),
                                f"{name}.txt is missing") for name in SPLITS},
        "header-not-json": (lambda b: (b / "splits.json").write_text("{"),
                            "splits.json: not a JSON file"),
        **{case: ((lambda b, case=case: break_layout(b / "splits.json", case, "train.indptr")),
                  "splits.json: splits header key missing or malformed") for case in BAD_LAYOUTS},
    }

    @pytest.mark.parametrize("stale", list(STALE))
    def test_stale_bundle_asks_for_ingest(self, workspace, tmp_path, capsys, stale):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        edit, problem = self.STALE[stale]
        edit(bundle)
        with pytest.raises(cli.DataFormatError, match=problem):
            load_bundle(bundle)
        assert_asks_for_ingest(bundle, tmp_path, capsys, problem)

    def test_delimiter_is_read_by_ingest_only(self, tmp_path):
        bundle = self.ingest(tmp_path, low_rank_interactions(12, 20, per_user=10, seed=4),
                             "--set", "data.delimiter=::")
        for name, delimiter in (("a", ","), ("b", ";"), ("c", "::")):
            assert run("train", "--data", bundle, "--out", tmp_path / name,
                       "--set", "train.epochs=1", "--set", "train.dim=2",
                       "--set", f"data.delimiter={delimiter}") == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()

    # edit of the sidecar's arrays -> the problem load_bundle reports
    CORRUPTIONS = {
        "indptr-length": (
            lambda a: a.__setitem__("train.indptr", a["train.indptr"][:-1]), "indptr holds 40 "),
        "indptr-start": (
            lambda a: a["validation.indptr"].__setitem__(0, 1), "nondecreasing from 0"),
        "indptr-end": (
            lambda a: a["train.indptr"].__setitem__(-1, a["train.indptr"][-1] - 1),
            "nondecreasing from 0"),
        "indptr-decreasing": (lambda a: swap(a["train.indptr"], 1, 2), "nondecreasing from 0"),
        "index-too-large": (lambda a: a["test.indices"].__setitem__(0, 55), r"outside \[0, 55\)"),
        "index-negative": (lambda a: a["train.indices"].__setitem__(-1, -1), "outside"),
        "row-repeat": (
            lambda a: a["train.indices"].__setitem__(1, a["train.indices"][0]),
            "not strictly increasing"),
        "row-unsorted": (lambda a: swap(a["train.indices"], 0, 1), "not strictly increasing"),
        "dtype": (
            lambda a: a.__setitem__("test.indices", a["test.indices"].astype("<i4")),
            "not 1-D '<i8'"),
        "shape": (
            lambda a: a.__setitem__("train.indices", a["train.indices"][:-1].reshape(-1, 1)),
            "not 1-D '<i8'"),
    }

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_arrays_exit_2(self, workspace, tmp_path, capsys, corruption):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        edit, problem = self.CORRUPTIONS[corruption]
        rewrite_sidecar(bundle, edit)
        with pytest.raises(cli.DataFormatError, match=f"splits.bin: .*{problem}"):
            load_bundle(bundle)
        assert run("train", "--data", bundle, "--out", tmp_path / "ck",
                   "--set", "train.epochs=0") == 2
        assert "splits.bin" in capsys.readouterr().err
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.parametrize("damage", ["missing", "longer", "shorter"])
    def test_sidecar_file_of_wrong_length_exits_2(self, workspace, tmp_path, capsys, damage):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        sidecar = bundle / "splits.bin"
        if damage == "missing":
            sidecar.unlink()
        else:
            data = sidecar.read_bytes()
            sidecar.write_bytes(data + b"\0" if damage == "longer" else data[:-8])
        assert run("train", "--data", bundle, "--out", tmp_path / "ck",
                   "--set", "train.epochs=0") == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and "splits.bin" in err

    @pytest.mark.parametrize("text", ["{", "[]", '{"delimiter": ","}'])
    def test_malformed_header_exits_2(self, workspace, tmp_path, capsys, text):
        bundle = copy_bundle(workspace / "bundle", tmp_path / "bundle")
        (bundle / "splits.json").write_text(text)
        assert run("train", "--data", bundle, "--out", tmp_path / "ck",
                   "--set", "train.epochs=0") == 2
        assert "splits.json" in capsys.readouterr().err


class TestConfig:
    def test_unknown_key_in_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("train.warp_speed=9\n")
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(5, 8, per_user=5, seed=2))
        assert run("ingest", "--input", csv, "--out", tmp_path / "b", "--config", cfgfile) == 2

    def test_unknown_key_in_set(self, tmp_path):
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(5, 8, per_user=5, seed=2))
        assert run("ingest", "--input", csv, "--out", tmp_path / "b", "--set", "nope=1") == 2

    def test_config_file_applies(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\ndata.ratios=0.6,0.2,0.2\nseed=9\n")
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(6, 10, per_user=10, seed=3))
        assert run("ingest", "--input", csv, "--out", tmp_path / "b", "--config", cfgfile) == 0
        dataset = load_bundle(tmp_path / "b")
        assert len(dataset.validation) == 6 * 2  # 20% of 10 per user

    @pytest.mark.parametrize("source", ["set", "config"])
    @pytest.mark.parametrize("delimiter", ["\t", " ", "\u3000"],
                             ids=["tab", "space", "ideographic-space"])
    def test_quoted_whitespace_delimiter(self, tmp_path, delimiter, source):
        # the config file holds U+3000 as is, --set its JSON escape
        quoted = "data.delimiter=" + json.dumps(delimiter, ensure_ascii=source == "set")
        if source == "set":
            settings, cfg = ("--set", quoted), cli.load_config(overrides=[quoted])
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(quoted + "\n", encoding="utf-8")
            settings, cfg = ("--config", cfgfile), cli.load_config(cfgfile)
        assert cfg["data.delimiter"] == delimiter
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        write_interactions_csv(plain, low_rank_interactions(12, 20, per_user=10, seed=4))
        spaced.write_text(plain.read_text().replace(",", delimiter), encoding="utf-8")
        assert run("ingest", "--input", plain, "--out", tmp_path / "a") == 0
        assert run("ingest", "--input", spaced, "--out", tmp_path / "b", *settings) == 0
        for name in ("splits.bin", "user_map.json", "item_map.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        train = (tmp_path / "a" / "train.txt").read_text()
        assert (tmp_path / "b" / "train.txt").read_text(encoding="utf-8") == train.replace(
            ",", delimiter)

    @pytest.mark.parametrize("text", ['""', '"\\q"', '"a"b"'])
    def test_bad_quoted_delimiter_rejected(self, tmp_path, capsys, text):
        assert run("ingest", "--input", tmp_path / "missing.csv", "--out", tmp_path / "b",
                   "--set", f"data.delimiter={text}") == 2
        assert "bad value for data.delimiter" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_config_file_led_by_byte_order_mark(self, tmp_path):
        text = "seed=9\ndata.ratios=0.6,0.2,0.2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(codecs.BOM_UTF8)
        cfg = cli.load_config(marked)
        assert cfg == cli.load_config(plain)
        assert (cfg["seed"], cfg["data.ratios"]) == (9, (0.6, 0.2, 0.2))

    def test_reference_file(self, tmp_path):
        out = tmp_path / "docs" / "reference.txt"
        assert run("--write-config-reference", out) == 0
        text = out.read_text()
        assert text == config_reference()
        for key in ("seed", "train.lr", "perk.k_max", "eval.ks"):
            assert key in text

    def test_reference_onto_a_directory_is_io_error(self, tmp_path, capsys):
        assert run("--write-config-reference", tmp_path) == 1
        assert "i/o error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("setting, problem", [
        ("eval.ks=", "expected at least one entry"),
        ("eval.ks=5,5", "an entry repeats"),
        ("eval.ks=0,5", "cutoff 0 is below 1"),
        ("eval.metrics=", "expected at least one entry"),
        ("eval.metrics=recall,recall", "an entry repeats"),
        ("eval.metrics=recall,hits", "expected one of"),
    ])
    def test_bad_eval_lists_rejected(self, tmp_path, capsys, setting, problem):
        # the bundle does not exist, so reaching it would be an i/o error (exit 1)
        assert run("eval", "--data", tmp_path / "missing", "--recs", tmp_path / "r.jsonl",
                   "--out", tmp_path / "report.json", "--set", setting) == 2
        err = capsys.readouterr().err
        assert f"bad value for {setting.partition('=')[0]}" in err and problem in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stage", ["ingest", "train"])
    def test_negative_seed_rejected_before_input(self, tmp_path, capsys, stage):
        # the input does not exist, so reaching it would be an i/o error (exit 1)
        source = ("--input", tmp_path / "missing.csv") if stage == "ingest" else (
            "--data", tmp_path / "missing")
        assert run(stage, *source, "--out", tmp_path / "out", "--set", "seed=-1") == 2
        err = capsys.readouterr().err
        assert "bad value for seed" in err and "seed -1 is below 0" in err
        assert not list(tmp_path.iterdir())

    def test_settings_dataclasses_have_one_key_per_field(self):
        for cls, section in cli.CONFIG_SECTIONS.items():
            built = cli.load_config()[section]
            assert built == cls()
            for name, value in vars(built).items():
                assert cli.CONFIG_SPEC[f"{section}.{name}"][1] == value

    def test_committed_reference_is_current(self):
        committed = Path(__file__).resolve().parents[1] / "docs" / "config-reference.txt"
        assert committed.read_text(encoding="utf-8") == config_reference()

    def test_help_everywhere(self):
        assert run("--help") == 0
        for sub in ("ingest", "train", "calibrate", "distill", "recommend", "eval"):
            assert run(sub, "--help") == 0

    def test_no_command_prints_help(self):
        assert run() == 2


# SHA-256 of train's outputs on the workspace bundle (40 users and 55 items, so
# a 95-row embedding table) at 6 epochs of dim 8, per loss and batch size.
# Batches of 3 scatter 9 (BPR) or 18 (pointwise, 4 negatives each) rows; the
# digests were taken before the touched-row scatter wrote back the gathered
# rows. Batches of 12 BPR triples or 6 pointwise positives scatter 36 rows;
# taken when a full-table bincount served them. Batches of 16 scatter 48 or
# 96 rows; taken when a full-table bincount served every batch of at least
# half the table's rows. The checkpoints' digests were re-pinned when they
# began to store float64; each log kept its digest, and each .bin rounded to
# float32 gives the bytes of the float32 checkpoint pinned before.
REFERENCE_TRAINING = {
    ("bpr", 3): {
        "ckpt.bin": "3c8bc74ed6724718718767cba44f54dd87b94d67a002fd4b4f6c07f76357638a",
        "ckpt.json": "7a0830bf4bd903b8501635f0b626e4d686cc41bca0c57ee766610329a772f8aa",
        "ckpt_log.jsonl": "407299fe5876ffd3ba9fb621cd05e475810fedbeb4f7a7f19cbc9fb52c73d519",
    },
    ("pointwise", 3): {
        "ckpt.bin": "93405571b5067427041496e01c525bbd8cef468ca90969ec8c3a410ccca26a3c",
        "ckpt.json": "23eec28a79e5f76215cf43b4cc8ef96c1194f287ff6df19f4f044b6a0185ff73",
        "ckpt_log.jsonl": "c036fdb388665b427479d0624ab36454ad2c72c3f332dae8ebc9d5585b663f46",
    },
    ("bpr", 12): {
        "ckpt.bin": "38b9366d8a60466e001b950d005bcbd8cf70d63d7e9ff6e646db2c2f24ef7dd2",
        "ckpt.json": "7a0830bf4bd903b8501635f0b626e4d686cc41bca0c57ee766610329a772f8aa",
        "ckpt_log.jsonl": "933ae24bc3bcaff6a9ed6265555474e14bdd565c197b35f2e5a7c918a286e180",
    },
    ("pointwise", 6): {
        "ckpt.bin": "d4676e4c5c2c05853dc2d7743b00db4da924ef8cd196d480d7cef4a2284a7f4e",
        "ckpt.json": "23eec28a79e5f76215cf43b4cc8ef96c1194f287ff6df19f4f044b6a0185ff73",
        "ckpt_log.jsonl": "7ca86098ac0e70651ebf09c25f8829e3facb83e6ab292517b5490c473a31c061",
    },
    ("bpr", 16): {
        "ckpt.bin": "0ebcf1d522e50c76db0e9465f320c2a89b7e45d22d70b270ca9a64d7d6039992",
        "ckpt.json": "7a0830bf4bd903b8501635f0b626e4d686cc41bca0c57ee766610329a772f8aa",
        "ckpt_log.jsonl": "ccc8df42ae7a101bf2a06194c177c48994511dd7fee184289d34d6f5702638d1",
    },
    ("pointwise", 16): {
        "ckpt.bin": "e2326be9aa17b08e9204f9b320d239303a861d2ebc3660e7ddcaf595cd1910f9",
        "ckpt.json": "23eec28a79e5f76215cf43b4cc8ef96c1194f287ff6df19f4f044b6a0185ff73",
        "ckpt_log.jsonl": "72b94fc1fce3e5c62bade20b11329c0e147e34c0166480fc91a62970e3fe40ea",
    },
}


class TestTrain:
    @staticmethod
    def written_back_digests(workspace, out, monkeypatch, loss, batch_size):
        """SHA-256 of train's outputs, after asserting that every batch of
        the 6 epochs wrote its embedding rows back through ``_scatter_rows``."""
        scatters = []
        scatter_rows = ranker._scatter_rows
        monkeypatch.setattr(
            ranker, "_scatter_rows", lambda *args: scatters.append(1) or scatter_rows(*args)
        )
        assert run("train", "--data", workspace / "bundle", "--out", out / "ckpt",
                   "--set", "train.epochs=6", "--set", "train.dim=8", "--set", "train.lr=0.15",
                   "--set", f"train.batch_size={batch_size}", "--set", f"train.loss={loss}") == 0
        train_pairs = len(load_bundle(workspace / "bundle").train)
        assert len(scatters) == 6 * -(-train_pairs // batch_size)
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("ckpt.bin", "ckpt.json", "ckpt_log.jsonl")
        }

    @pytest.mark.parametrize("loss", ["bpr", "pointwise"])
    def test_touched_branch_bytes_match_reference(self, workspace, tmp_path, monkeypatch, loss):
        digests = self.written_back_digests(workspace, tmp_path, monkeypatch, loss, 3)
        assert digests == REFERENCE_TRAINING[loss, 3]

    @pytest.mark.parametrize(
        "loss, batch_size", [("bpr", 12), ("pointwise", 6)], ids=["bpr", "pointwise"]
    )
    def test_write_back_at_2_to_4_rows_per_scattered_row_matches_reference(
        self, workspace, tmp_path, monkeypatch, loss, batch_size
    ):
        digests = self.written_back_digests(workspace, tmp_path, monkeypatch, loss, batch_size)
        assert digests == REFERENCE_TRAINING[loss, batch_size]

    @pytest.mark.parametrize("loss", ["bpr", "pointwise"])
    def test_write_back_at_under_2_rows_per_scattered_row_matches_reference(
        self, workspace, tmp_path, monkeypatch, loss
    ):
        digests = self.written_back_digests(workspace, tmp_path, monkeypatch, loss, 16)
        assert digests == REFERENCE_TRAINING[loss, 16]

    def test_zero_epochs_equals_initialization(self, workspace, tmp_path):
        assert (
            run("train", "--data", workspace / "bundle", "--out", tmp_path / "init",
                "--set", "train.epochs=0", "--set", "train.dim=8")
            == 0
        )
        params, header = load_checkpoint(tmp_path / "init")
        dataset = load_bundle(workspace / "bundle")
        fresh = init_params(dataset.num_users, dataset.num_items, 8,
                            seed=stream_seed(0, "train", 0))
        for name in ("user_emb", "item_emb", "item_bias"):
            np.testing.assert_array_equal(getattr(params, name), getattr(fresh, name))
        assert header["epochs_trained"] == 0

    def test_negative_epochs_rejected(self, workspace, tmp_path, capsys):
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "neg",
                   "--set", "train.epochs=-2") == 2
        assert "train.epochs: epoch count -2 is below 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_diverging_run_fails_without_writing(self, workspace, tmp_path, capsys):
        # at this lr the loss overflows and epoch 5's is NaN; numpy's overflow
        # warnings must still reach the caller
        with pytest.warns(RuntimeWarning) as caught:
            code = run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck",
                       "--set", "train.lr=1e9", "--set", "train.dim=8")
        assert code == 2
        assert any("overflow" in str(w.message) for w in caught)
        err = capsys.readouterr().err
        assert "training diverged: epoch 5 loss is nan" in err and "train.lr (now 1e+09)" in err
        # neither a checkpoint nor a log, and no .partial file
        assert not list(tmp_path.iterdir())

    def test_failed_checkpoint_save_discards_log(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        # the loss stays finite, the epoch leaves an item bias that is not
        bpr_epoch = ranker.bpr_epoch

        def spoiling_epoch(*args):
            params, loss = bpr_epoch(*args)
            params.item_bias[0] = np.inf
            return params, loss

        monkeypatch.setattr(ranker, "bpr_epoch", spoiling_epoch)
        code = run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck",
                   "--set", "train.epochs=1")
        assert code == 2
        assert "checkpoint item_bias holds values that are not finite" in capsys.readouterr().err
        # neither ck_log.jsonl nor ck.json/ck.bin, and no .partial file
        assert not list(tmp_path.iterdir())

    def test_same_seed_bitwise_identical(self, workspace, tmp_path):
        for name in ("a", "b"):
            assert (
                run("train", "--data", workspace / "bundle", "--out", tmp_path / name,
                    "--set", "train.epochs=2", "--set", "train.dim=4")
                == 0
            )
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_default_settings_are_train_config_defaults(self, workspace, tmp_path):
        # no --set for train.lr, train.reg, train.batch_size or
        # train.negatives_per_positive: TrainConfig() trains the same bytes
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "cli",
                   "--set", "train.epochs=2", "--set", "train.dim=4") == 0
        dataset = load_bundle(workspace / "bundle")
        params = init_params(dataset.num_users, dataset.num_items, 4,
                             seed=stream_seed(0, "train", 0))
        for epoch in range(2):
            rng = np.random.default_rng(stream_seed(0, "train", 1 + epoch))
            params, _ = bpr_epoch(params, dataset, TrainConfig(), rng)
        _, sidecar = save_checkpoint(params, tmp_path / "library")
        assert (tmp_path / "cli.bin").read_bytes() == sidecar.read_bytes()

    @pytest.mark.parametrize("into", ["same-out", "other-out"])
    @pytest.mark.parametrize("loss", ["bpr", "pointwise"])
    def test_resume_equals_uninterrupted_run(self, workspace, tmp_path, capsys, loss, into):
        # 2 epochs resumed to 4 write the bytes of 4 epochs run at once; every
        # checkpoint is named m, since the header records its sidecar's name
        args = ("--data", workspace / "bundle", "--set", "train.dim=8",
                "--set", "train.lr=0.15", "--set", f"train.loss={loss}")
        assert run("train", *args, "--out", tmp_path / "full" / "m",
                   "--set", "train.epochs=4") == 0
        part = tmp_path / ("resumed" if into == "same-out" else "part") / "m"
        assert run("train", *args, "--out", part, "--set", "train.epochs=2") == 0
        earlier = sorted((p.name, p.read_bytes()) for p in part.parent.iterdir())
        assert run("train", *args, "--out", tmp_path / "resumed" / "m", "--resume", part,
                   "--set", "train.epochs=4") == 0
        assert "warning" not in capsys.readouterr().err
        for name in ("m.json", "m.bin", "m_log.jsonl"):
            assert (tmp_path / "resumed" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name
        if into == "other-out":  # the earlier run's files keep their bytes
            assert sorted((p.name, p.read_bytes()) for p in part.parent.iterdir()) == earlier

    def test_resume_without_earlier_log_warns(self, workspace, tmp_path, capsys):
        args = ("--data", workspace / "bundle", "--set", "train.dim=4")
        assert run("train", *args, "--out", tmp_path / "part", "--set", "train.epochs=2") == 0
        (tmp_path / "part_log.jsonl").unlink()
        capsys.readouterr()
        assert run("train", *args, "--out", tmp_path / "more", "--resume", tmp_path / "part",
                   "--set", "train.epochs=3") == 0
        err = capsys.readouterr().err
        assert f"warning: no earlier log {tmp_path / 'part_log.jsonl'}" in err
        assert "starts at epoch 2" in err
        assert [row["epoch"] for row in read_jsonl(tmp_path / "more_log.jsonl")] == [2]


    @pytest.mark.parametrize("settings, named", [
        (("train.loss=bpr", "train.dim=16"), ("train.loss is bpr", "with pointwise")),
        (("train.loss=bpr", "train.dim=8"), ("train.loss is bpr", "with pointwise")),
        (("train.loss=pointwise", "train.dim=16"), ("train.dim is 16", "with 8")),
        (("seed=7", "train.loss=pointwise", "train.dim=8"), ("seed is 7", "with 0")),
    ], ids=["both", "loss", "dim", "seed"])
    def test_resume_rejects_other_seed_loss_or_dim(self, workspace, tmp_path, capsys, settings,
                                                   named):
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck",
                   "--set", "train.loss=pointwise", "--set", "train.dim=8",
                   "--set", "train.epochs=2") == 0
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "more",
                   "--resume", tmp_path / "ck", "--log", tmp_path / "ck_log.jsonl",
                   "--set", "train.epochs=4", *(f"--set={s}" for s in settings)) == 2
        out, err = capsys.readouterr()
        assert all(text in err for text in named) and str(tmp_path / "ck") in err
        assert "epoch" not in out
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


class TestCheckpointMatchesBundle:
    @pytest.mark.parametrize("shape", [(41, 60), (40, 59)], ids=["users", "items"])
    def test_mismatch_is_validation_error(self, workspace, tmp_path, capsys, shape):
        save_checkpoint(init_params(*shape, 8, seed=0), tmp_path / "other")
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", tmp_path / "other",
                   "--out", tmp_path / "calib") == 2
        assert "checkpoint" in capsys.readouterr().err
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", tmp_path / "other",
                   "--out", tmp_path / "r.jsonl", "--k", "3") == 2
        assert not (tmp_path / "r.jsonl").exists()


class TestBadCheckpointHeader:
    @pytest.mark.parametrize("drop", ["arrays", "sidecar"])
    def test_missing_key_is_validation_error(self, workspace, tmp_path, capsys, drop):
        header_path, _ = save_checkpoint(init_params(40, 60, 8, seed=0), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        del header[drop]
        header_path.write_text(json.dumps(header))
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", tmp_path / "ck",
                   "--out", tmp_path / "r.jsonl", "--k", "3") == 2
        assert drop in capsys.readouterr().err


# case -> (a header key, its value; None: the key is missing)
BAD_COUNTS = {"text": "3", "float": 2.5, "negative": -5, "bool": True, "missing": None}
HEADER_VALUES = {
    **{f"epochs-{name}": ("epochs_trained", value) for name, value in BAD_COUNTS.items()},
    **{f"seed-{name}": ("seed", value) for name, value in BAD_COUNTS.items()},
    "loss-other": ("loss_kind", "sgd"), "loss-int": ("loss_kind", 1),
    "loss-list": ("loss_kind", []), "loss-missing": ("loss_kind", None),
}
# case -> the dtype item_emb is stored as
DTYPES = {"dtype-complex": "<c8", "dtype-int": "<i4", "dtype-big-endian": ">f8",
          "dtype-single": "<f4", "dtype-bytes": "|S4"}


class TestBadCheckpointArrays:
    """Every stage that reads a checkpoint rejects one whose values are not
    finite, whose array shapes disagree, whose header is not JSON or of
    another format, lists a malformed sidecar layout, an array dtype other
    than ``'<f8'``, a ``seed`` or an ``epochs_trained`` that is not an
    int >= 0 or a ``loss_kind`` that names no epoch function, naming the
    file (exit 2)."""

    @staticmethod
    def write(path, case):
        """A checkpoint of the bundle's 40 users x 60 items with the fault ``case`` names."""
        if case == "dims":
            params = MfParams(np.zeros((40, 4)), np.zeros((60, 2)), np.zeros(60))
        elif case == "bias":
            params = MfParams(np.zeros((40, 4)), np.zeros((60, 4)), np.zeros(59))
        else:
            params = init_params(40, 60, 4, seed=0)
        header_path, sidecar = save_checkpoint(params, path)
        if case == "nan":  # user_emb[0, 0]
            nan = np.array([np.nan], dtype="<f8").tobytes()
            sidecar.write_bytes(nan + sidecar.read_bytes()[8:])
        elif case == "flat":  # item_emb's bytes listed as one row
            header = json.loads(header_path.read_text())
            header["arrays"]["item_emb"]["shape"] = [240]
            header_path.write_text(json.dumps(header))
        elif case == "not-json":
            header_path.write_text("{" + header_path.read_text())
        elif case in BAD_LAYOUTS:
            break_layout(header_path, case, "user_emb")
        elif case in ("foreign", "unformatted"):
            header = json.loads(header_path.read_text())
            if case == "foreign":
                header["format"] = "mf-checkpoint-v9"
            else:
                del header["format"]
            header_path.write_text(json.dumps(header))
        elif case in HEADER_VALUES:
            header = json.loads(header_path.read_text())
            key, value = HEADER_VALUES[case]
            if value is None:
                del header[key]
            else:
                header[key] = value
            header_path.write_text(json.dumps(header))
        elif case in DTYPES:
            retype_array(header_path, "item_emb", DTYPES[case])

    @pytest.mark.parametrize("case, problem", [
        ("nan", "user_emb holds values that are not finite"),
        ("dims", "shapes disagree"), ("bias", "shapes disagree"), ("flat", "shapes disagree"),
        ("foreign", "format 'mf-checkpoint-v9' is not mf-checkpoint-v2"),
        ("unformatted", "format None is not mf-checkpoint-v2"),
        ("not-json", "not a JSON file"),
        *((case, "checkpoint header key missing or malformed") for case in BAD_LAYOUTS),
        *((case, f"header {key} {value!r} is not an int >= 0"
           if key != "loss_kind" else f"header loss_kind {value!r} is not one of")
          for case, (key, value) in HEADER_VALUES.items()),
        *((case, f"item_emb dtype '{dtype}' is not '<f8'") for case, dtype in DTYPES.items()),
    ], ids=["nan", "dims", "bias", "flat", "foreign", "unformatted", "not-json", *BAD_LAYOUTS,
            *HEADER_VALUES, *DTYPES])
    def test_every_reading_stage_exits_2(self, workspace, tmp_path, capsys, case, problem):
        self.write(tmp_path / "bad", case)
        data = ("--data", workspace / "bundle")
        for argv in (
            ("recommend", *data, "--ckpt", tmp_path / "bad", "--out", tmp_path / "r.jsonl",
             "--k", "5"),
            ("calibrate", *data, "--ckpt", tmp_path / "bad", "--out", tmp_path / "calib"),
            ("train", *data, "--resume", tmp_path / "bad", "--out", tmp_path / "more",
             "--set", "train.epochs=1"),
        ):
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert problem in err and str(tmp_path / "bad.json") in err, argv[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin", "bad.json"]


def rejected_values(default) -> list[str]:
    """Setting texts that the check of a key with this default must reject.

    The default's type stands for the key's: an integer rejects -1, a float
    -1, NaN and both infinities, a string the empty string and a boolean
    "maybe". A list rejects the empty list and each rejected value of its
    first entry in front of the rest of the default.
    """
    if isinstance(default, tuple):
        rest = ",".join(map(str, default[1:]))
        return [""] + [f"{bad},{rest}" for bad in rejected_values(default[0]) if bad]
    if isinstance(default, bool):
        return ["maybe"]
    if isinstance(default, int):
        return ["-1"]
    if isinstance(default, float):
        return ["-1", "nan", "inf", "-inf"]
    return [""]


# (key, text) for every CONFIG_SPEC key and each value its check rejects
REJECTED_SETTINGS = [
    (key, text) for key, (_, default, _) in cli.CONFIG_SPEC.items()
    for text in rejected_values(default)
]


def stage_argvs(tmp_path) -> dict:
    """Each subcommand's arguments, naming inputs that do not exist: reading one
    is an i/o error (exit 1)."""
    data, ckpt = ("--data", tmp_path / "missing"), ("--ckpt", tmp_path / "ckpt")
    out = ("--out", tmp_path / "out")
    return {
        "ingest": ("ingest", "--input", tmp_path / "missing.csv", *out),
        "train": ("train", *data, *out),
        "calibrate": ("calibrate", *data, *ckpt, *out),
        "distill": ("distill", *data, *out),
        "recommend": ("recommend", *data, *ckpt, *out, "--k", 5),
        "eval": ("eval", *data, "--recs", tmp_path / "recs.jsonl", *out),
    }


class TestSettingsRejectedBeforeReading:
    @pytest.mark.parametrize("key, text", REJECTED_SETTINGS)
    def test_every_stage_rejects_before_reading(self, tmp_path, capsys, key, text):
        for stage, argv in stage_argvs(tmp_path).items():
            assert run(*argv, "--set", f"{key}={text}") == 2, stage
            err = capsys.readouterr().err
            # the message names the key, or a dataclass section and its field
            assert "validation error" in err and key.rpartition(".")[2] in err, (stage, err)
            assert not list(tmp_path.iterdir()), stage

    @pytest.mark.parametrize("key, text", REJECTED_SETTINGS)
    def test_one_check_per_key(self, key, text):
        # a dataclass field's parser only converts, and the dataclass rejects
        # the value; any other key's parser rejects it
        parse = cli.CONFIG_SPEC[key][0]
        section, _, field = key.partition(".")
        owner = {name: cls for cls, name in cli.CONFIG_SECTIONS.items()}.get(section)
        if owner is None or field not in {f.name for f in dataclasses.fields(owner)}:
            with pytest.raises(ValueError):
                parse(text)
        else:
            value = parse(text)
            with pytest.raises(ValueError, match=field):
                owner(**{field: value})

    # stage arguments -> settings they reject, and the message of each
    CASES = {
        "train.lr": ("train", "train.lr=-1", "lr must be nonnegative"),
        "train.reg": ("train", "train.reg=-1", "reg must be nonnegative"),
        "train.batch_size": ("train", "train.batch_size=0", "batch_size must be >= 1"),
        "train.negatives_per_positive": (
            "distill", "train.negatives_per_positive=0", "negatives_per_positive must be >= 1"
        ),
        "train.dim": ("train", "train.dim=0", "train.dim: dimension 0 is below 1"),
        "train.epochs": ("train", "train.epochs=-1", "train.epochs: epoch count -1 is below 0"),
        "bd.teacher_dim": ("distill", "bd.teacher_dim=0", "teacher_dim: dimension 0 is below 1"),
        "bd.student_dim": ("distill", "bd.student_dim=0", "student_dim: dimension 0 is below 1"),
        "bd.lambda_ts": ("distill", "bd.lambda_ts=-1", "lambda_ts and lambda_st must be"),
        "bd.lambda_st": ("distill", "bd.lambda_st=-1", "lambda_ts and lambda_st must be"),
        "bd.sample_size": ("distill", "bd.sample_size=0", "sample_size must be >= 1"),
        "bd.eta": ("distill", "bd.eta=0", "eta must be positive"),
        "bd.truncate_rank": ("distill", "bd.truncate_rank=0", "truncate_rank must be >= 1"),
        "bd.epochs": ("distill", "bd.epochs=-1", "epochs must be >= 0"),
        "perk.k_max": ("perk", "perk.k_max=0", "k_max must be >= 1"),
        "perk.rest_pool": ("perk", "perk.rest_pool=-1", "rest_pool must be nonnegative"),
        # neither curve can peak inside 1..k_max, so neither can size a list
        **{f"perk.utility/{name}": ("perk", f"perk.utility={name}",
                                    "utility must be one of ('f1', 'ndcg')")
           for name in ("precision", "recall")},
        "data.ratios": ("ingest", "data.ratios=0.5,0.5,0.5", "ratios must sum to 1"),
        "data.ratios/nan": ("ingest", "data.ratios=nan,0.5,0.5", "ratios must sum to 1"),
        "calib.tau": ("calibrate", "calib.tau=-1", "tau must be nonnegative"),
        "calib.tau/nan": ("calibrate", "calib.tau=nan", "tau must be nonnegative"),
        "calib.theta_min": ("calibrate", "calib.theta_min=5", "theta_min must be in (0, 1]"),
        "calib.tau/unbiased": ("unbiased", "calib.tau=-1", "tau must be nonnegative"),
        "calib.theta_min/unbiased": (
            "unbiased", "calib.theta_min=5", "theta_min must be in (0, 1]"
        ),
    }

    @pytest.mark.parametrize("key", list(CASES))
    def test_exit_2_without_reading_the_bundle(self, tmp_path, capsys, key):
        stage, setting, message = self.CASES[key]
        # the bundle (or ingest's input) does not exist, so reaching it would
        # be an i/o error (exit 1)
        data, out = ("--data", tmp_path / "missing"), ("--out", tmp_path / "out")
        calibrate = ("calibrate", *data, "--ckpt", tmp_path / "ckpt", *out)
        argv = {
            "ingest": ("ingest", "--input", tmp_path / "missing.csv", *out),
            "calibrate": calibrate,
            "unbiased": (*calibrate, "--set", "calib.unbiased=true"),
            "train": ("train", *data, *out),
            "distill": ("distill", *data, *out),
            "perk": ("recommend", *data, "--ckpt", tmp_path / "ckpt", *out, "--perk",
                     "--calibrator", tmp_path / "calibrator.json"),
        }[stage]
        assert run(*argv, "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def dispatchers():
    """Per choice-valued key: the names its owning module lists, and a call of that
    module's dispatch on one name, which raises for a name the module does not know."""
    s = np.linspace(-3.0, 3.0, 60)
    samples = CalibrationSamples(s, (np.arange(60) % 3 == 0) | (s > 1.5), np.ones(60))
    # user 0 holds items in all three splits, so every split has one to score
    dataset = Dataset(1, 4, *(Csr(np.array([0, 1]), np.array([i]), 4) for i in range(3)))
    lists = ([0], [[0, 1, 2, 3]])
    return {
        "calib.kind": (calibration.CALIBRATOR_KINDS, lambda name: calibration.fit(name, samples)),
        "calib.scheme": (calibration.BINNING_SCHEMES, lambda name: calibration.reliability_table(
            [0.2, 0.8], [0, 1], num_bins=2, scheme=name)),
        "train.loss": (tuple(ranker.loss_epochs()), lambda name: ranker.loss_epochs()[name](
            init_params(1, 4, 2, seed=0), dataset, TrainConfig(), np.random.default_rng(0))),
        "eval.split": (SPLITS, lambda name: metrics.evaluate(*lists, dataset, split=name)),
        "perk.utility": (UTILITIES, lambda name: utility_curves(
            [[0.6, 0.3]], [[0.1]], name)),
        "eval.metrics": (metrics.METRIC_NAMES, lambda name: metrics.evaluate(
            *lists, dataset, metrics=(name,))),
    }


def is_choice_key(key) -> bool:
    """Whether a key of string (or string list) default rejects a name no module uses."""
    default = cli.CONFIG_SPEC[key][1]
    if not isinstance(default[0] if isinstance(default, tuple) else default, str):
        return False
    try:
        cli.load_config(overrides=[f"{key}=no_such_name"])
    except ValueError:
        return True
    return False


CHOICE_KEYS = [key for key in cli.CONFIG_SPEC if is_choice_key(key)]


class TestChoiceKeys:
    def test_choice_keys_found(self):
        assert sorted(CHOICE_KEYS) == sorted(dispatchers())

    @pytest.mark.parametrize("key", CHOICE_KEYS)
    def test_config_accepts_exactly_the_owning_modules_names(self, key):
        table = dispatchers()
        names, dispatch = table[key]
        others = {name for listed, _ in table.values() for name in listed} - set(names)
        others |= {"", "no_such_name", *(name.upper() for name in names)}
        for name in names:
            cli.load_config(overrides=[f"{key}={name}"])
            dispatch(name)
        for name in others:
            with pytest.raises(ValueError, match=re.escape(key.rpartition(".")[2])):
                cli.load_config(overrides=[f"{key}={name}"])
            with pytest.raises((ValueError, KeyError)):
                dispatch(name)
        default = cli.CONFIG_SPEC[key][1]
        assert set(default if isinstance(default, tuple) else [default]) <= set(names)


class TestAtomicLogs:
    def test_crash_mid_training_leaves_no_log(self, workspace, tmp_path, monkeypatch):
        calls = []

        def failing_epoch(params, dataset, cfg, rng):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return params, 0.5

        monkeypatch.setattr(ranker, "bpr_epoch", failing_epoch)
        with pytest.raises(RuntimeError):
            run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck",
                "--set", "train.epochs=3", "--set", "train.dim=2")
        assert list(tmp_path.iterdir()) == []

    def test_crash_on_resume_keeps_earlier_rows(self, workspace, tmp_path, monkeypatch):
        args = ("--set", "train.dim=2")
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck",
                   "--set", "train.epochs=2", *args) == 0
        before = (tmp_path / "ck_log.jsonl").read_bytes()

        def failing_epoch(params, dataset, cfg, rng):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(ranker, "bpr_epoch", failing_epoch)
        with pytest.raises(RuntimeError):
            run("train", "--data", workspace / "bundle", "--out", tmp_path / "ck2",
                "--resume", tmp_path / "ck", "--log", tmp_path / "ck_log.jsonl",
                "--set", "train.epochs=4", *args)
        assert (tmp_path / "ck_log.jsonl").read_bytes() == before
        assert not (tmp_path / "ck_log.jsonl.partial").exists()

    def test_failed_per_user_csv_keeps_earlier_file(self, workspace, tmp_path, monkeypatch):
        fixed = tmp_path / "fixed.jsonl"
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", fixed, "--k", "5") == 0
        csv = tmp_path / "per_user.csv"
        csv.write_text("earlier\n")
        evaluate = cli.metrics.evaluate

        class Unwritable(float):
            def __format__(self, spec):
                raise RuntimeError("interrupted")

        def evaluate_with_bad_last_value(*args, **kwargs):
            # the CSV's last line fails after every earlier line is written
            result = evaluate(*args, **kwargs)
            values = list(result.rows[-1].per_user.values())[-1]
            last = max(values)
            values[last] = Unwritable(values[last])
            return result

        monkeypatch.setattr(cli.metrics, "evaluate", evaluate_with_bad_last_value)
        with pytest.raises(RuntimeError):
            run("eval", "--data", workspace / "bundle", "--recs", fixed,
                "--out", tmp_path / "report.json", "--per-user-csv", csv)
        assert csv.read_text() == "earlier\n"
        assert not (tmp_path / "per_user.csv.partial").exists()


# SHA-256 of calibrate's three outputs on the workspace bundle and checkpoint, per
# setting; taken before fit returned a Fit, and every case must stay byte-identical.
# Re-pinned when checkpoints began to store float64: the fits read unrounded scores.
REFERENCE_CALIBRATIONS = {
    "platt": ((), {
        "calibrator.json": "3d25b5b633e5cab8955efecdb03fa424c8a7a2d2f561f15e5186ee819486b65b",
        "reliability.csv": "dd47baae58e915e93bb1411248c2a3bc8ea9b2555c0e24a5abb8efcd2b42d443",
        "calibration_report.json": "6ac2ca78c900be5878d5f2bb2cc0f1e4fc6880eb105cb50c7df25d4cc681d980",
    }),
    "gaussian": (("calib.kind=gaussian",), {
        "calibrator.json": "5bddee2b15b1d2256cdc3521c5fa786487ee99e874339f9c8052d29deb33b9ad",
        "reliability.csv": "57557d55ffc3802cd7e692683c489faa76d4ae6109b58419fcc6ecbdfdd609b4",
        "calibration_report.json": "1e479709b31bf69911d6b3b9b2e97e8d6bf6d01986ee2fdc938e75a68754bbac",
    }),
    "gamma": (("calib.kind=gamma",), {
        "calibrator.json": "2ce022cad2b25bdd5473f6b3296f763be9668810a34b55f7820fa03f85505163",
        "reliability.csv": "d0d316fd023258e5e67f89cb2d6f2641fa308747cf9763cf1afca535774321b4",
        "calibration_report.json": "9446969dd129ba8e954a1a7a5351251cd2ea2b9fca8260d7f936d13a0d090293",
    }),
    "histogram": (("calib.kind=histogram",), {
        "calibrator.json": "1cbb75c7c2996455cb32a118d2eca8073d7de27cea2a235362b6d3ccf15e2a15",
        "reliability.csv": "f7ff0425586e9b9bf76ed2bf818fa1f3b210130cb6f3d5c5f179d80710b0775b",
        "calibration_report.json": "cc2c64a3bc59789109c25bb9c0f3a45814895b4c3a0d01a0b8b7319031c26c8e",
    }),
    "capped": (("calib.max_iters=2",), {
        "calibrator.json": "14dccca5a10f7ec352a54d3c6f34bafc0247fc23bcdec90d68d8d899fc1885d2",
        "reliability.csv": "00d3b1ff01049d0d6ed97865b77e3883028d2ac7602e1f0b10b52a566f6e3c87",
        "calibration_report.json": "23335e508c69918ce6f13e4751fcdf28e5d5778f27623ebf00cf59f37dc07fdf",
    }),
    # the line search requires a loss lower at float precision, so at tol 0
    # the fit stalls: after 6 steps on the float64 checkpoint, one past the 5
    # at which the default tol converges, so its calibrator differs from
    # platt's above in the last digits
    "stalled": (("calib.tol=0",), {
        "calibrator.json": "7fcbda12e992330e70efc4be22180b2dff557b661d7adc566cb8fa2167b5f381",
        "reliability.csv": "e3025c189f7b7a88b67e25fe8d93be1b84609e53cd959439433afc01ba33365c",
        "calibration_report.json": "a3a5bc1a50c999d728b95e08cc18fe989ab21d687d1333f5fa99962bdf8cdcf4",
    }),
    "unbiased-gaussian": (("calib.kind=gaussian", "calib.unbiased=true"), {
        "calibrator.json": "57f351050e3bc4a5655fbbccb24f2ff643bc90f56b1897cca435319076d15e83",
        "reliability.csv": "951973d78181f1259bb1128cd08c7236a01983edf14695b787e664fa4fe09d96",
        "calibration_report.json": "fee5bd7a2bff74ddfe4d26dce759b82e10a6e5c153da4e9fc999762ce764d872",
    }),
}


class TestCalibrate:
    @pytest.mark.parametrize("case", list(REFERENCE_CALIBRATIONS))
    def test_output_bytes_match_reference(self, workspace, tmp_path, case):
        settings, expected = REFERENCE_CALIBRATIONS[case]
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "calib", *(f"--set={s}" for s in settings)) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "calib" / name).read_bytes()).hexdigest()
            for name in expected
        }
        assert digests == expected

    def test_report_counts_iterations(self, workspace, tmp_path, capsys):
        report = json.loads((workspace / "calib" / "calibration_report.json").read_text())
        assert report["iterations"] >= 1
        assert isinstance(report["hit_iter_cap"], bool)
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "capped", "--set", "calib.max_iters=2") == 0
        capped = json.loads((tmp_path / "capped" / "calibration_report.json").read_text())
        assert capped["iterations"] == 2 and capped["hit_iter_cap"] is True
        assert "iteration cap (2/2)" in capsys.readouterr().err
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "hist", "--set", "calib.kind=histogram",
                   "--set", "calib.max_iters=1") == 0
        hist = json.loads((tmp_path / "hist" / "calibration_report.json").read_text())
        assert hist["iterations"] == 0 and hist["hit_iter_cap"] is False
        assert "warning" not in capsys.readouterr().err

    # a setting calibrate rejects -> its message
    BAD_SETTINGS = {
        **{kind: ((f"calib.kind={kind}", "calib.num_bins=0"), "num_bins: bin count 0 is below 1")
           for kind in ("platt", "gaussian", "gamma", "histogram")},
        "max-iters": (("calib.max_iters=-5",), "max_iters: iteration cap -5 is below 0"),
        **{f"negatives={n}": ((f"calib.negatives_per_positive={n}",),
                              f"negatives_per_positive: negative count {n} is below 1")
           for n in (0, -1)},
        "tol": (("calib.tol=-1",), "calib.tol: tolerance -1.0 is below 0.0"),
    }

    @pytest.mark.parametrize("case", list(BAD_SETTINGS))
    def test_zero_bins_rejected_before_reading_inputs(self, tmp_path, capsys, case):
        # the bundle does not exist, so reaching it would be an i/o error (exit 1)
        settings, message = self.BAD_SETTINGS[case]
        assert run("calibrate", "--data", tmp_path / "missing", "--ckpt", tmp_path / "ckpt",
                   "--out", tmp_path / "calib", *(f"--set={s}" for s in settings)) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_equal_mass_scheme(self, workspace, tmp_path):
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "calib", "--set", "calib.scheme=equal_mass") == 0
        report = json.loads((tmp_path / "calib" / "calibration_report.json").read_text())
        rows = read_reliability_csv(tmp_path / "calib" / "reliability.csv")
        counts = [count for _, _, count, _, _ in rows]
        assert report["scheme"] == "equal_mass"
        assert len(rows) == report["num_bins"] == cli.CONFIG_SPEC["calib.num_bins"][1]
        assert max(counts) - min(counts) <= 1 and sum(counts) == report["num_eval_samples"]
        assert report["ece_calibrated"] == ece(rows)

    def test_failed_reliability_write_leaves_no_output(self, workspace, tmp_path, monkeypatch):
        def failing_write(rows, path):
            with cli.atomic_open(path) as fh:
                fh.write("bin_lower")
                raise OSError("disk full")

        monkeypatch.setattr(cli, "write_reliability_csv", failing_write)
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "calib") == 1
        # calibrator.json was finished before the table failed; the set drops it
        assert not list((tmp_path / "calib").iterdir())

    def test_zero_bins_rejected(self, workspace, tmp_path, capsys):
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "calib", "--set", "calib.num_bins=0") == 2
        assert "calib.num_bins: bin count 0 is below 1" in capsys.readouterr().err
        assert not (tmp_path / "calib").exists()

    def test_report_states_convergence(self, workspace, tmp_path):
        report = json.loads((workspace / "calib" / "calibration_report.json").read_text())
        assert report["grad_norm"] >= 0.0
        assert report["converged"] is (report["grad_norm"] < 1e-8)
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "loose", "--set", "calib.tol=1e3") == 0
        loose = json.loads((tmp_path / "loose" / "calibration_report.json").read_text())
        assert loose["iterations"] == 0 and loose["converged"] is True
        assert 0.0 <= loose["grad_norm"] < 1e3
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "capped", "--set", "calib.max_iters=1",
                   "--set", "calib.tol=1e-12") == 0
        capped = json.loads((tmp_path / "capped" / "calibration_report.json").read_text())
        assert capped["hit_iter_cap"] is True and capped["converged"] is False
        assert capped["grad_norm"] >= 1e-12
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "hist", "--set", "calib.kind=histogram") == 0
        hist = json.loads((tmp_path / "hist" / "calibration_report.json").read_text())
        assert hist["grad_norm"] is None and hist["converged"] is True

    def test_fit_converging_on_its_last_allowed_step_is_not_capped(self, workspace, tmp_path,
                                                                   capsys):
        report = json.loads((workspace / "calib" / "calibration_report.json").read_text())
        assert report["converged"] is True
        steps = report["iterations"]
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "exact", "--set", f"calib.max_iters={steps}") == 0
        exact = json.loads((tmp_path / "exact" / "calibration_report.json").read_text())
        assert exact["iterations"] == steps
        assert exact["converged"] is True and exact["hit_iter_cap"] is False
        assert "warning" not in capsys.readouterr().err

    def test_stalled_fit_warns(self, workspace, tmp_path, capsys):
        # with tol 0 no gradient is small enough, so the fit ends on a stalled line search
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "stall", "--set", "calib.tol=0") == 0
        stalled = json.loads((tmp_path / "stall" / "calibration_report.json").read_text())
        assert stalled["converged"] is False and stalled["hit_iter_cap"] is False
        assert 0 < stalled["iterations"] < 1000
        err = capsys.readouterr().err
        assert "platt fit stalled in its line search" in err
        assert f"after {stalled['iterations']}/1000 iterations" in err

    def test_outputs_and_round_trip(self, workspace):
        cal = load_calibrator(workspace / "calib" / "calibrator.json")
        assert cal.kind == "platt"
        assert 0.0 <= apply(cal, 0.3) <= 1.0
        report = json.loads((workspace / "calib" / "calibration_report.json").read_text())
        assert report["ece_calibrated"] < report["ece_raw"]
        rows = read_reliability_csv(workspace / "calib" / "reliability.csv")
        assert len(rows) == report["num_bins"]

    def test_train_validation_merge_built_once(self, workspace, tmp_path, monkeypatch):
        # both sample sets draw negatives outside train + validation; one merge serves them
        merges = []
        from_pairs = Csr.from_pairs

        def counted(rows, cols, num_rows, num_cols):
            merges.append((num_rows, num_cols))
            return from_pairs(rows, cols, num_rows, num_cols)

        monkeypatch.setattr(Csr, "from_pairs", staticmethod(counted))
        assert run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "calib") == 0
        assert len(merges) == 1
        for name in ("calibrator.json", "reliability.csv", "calibration_report.json"):
            assert (tmp_path / "calib" / name).read_bytes() == (
                workspace / "calib" / name
            ).read_bytes()

    def test_empty_validation_is_validation_error(self, tmp_path):
        csv = tmp_path / "in.csv"
        # two interactions per user: everything lands in train
        write_interactions_csv(csv, [(u, i) for u in range(6) for i in (u % 5, (u + 2) % 5)])
        assert run("ingest", "--input", csv, "--out", tmp_path / "b") == 0
        assert run("train", "--data", tmp_path / "b", "--out", tmp_path / "ck",
                   "--set", "train.epochs=1", "--set", "train.dim=2") == 0
        assert run("calibrate", "--data", tmp_path / "b", "--ckpt", tmp_path / "ck",
                   "--out", tmp_path / "calib") == 2

    def test_unbiased_flag_runs(self, workspace, tmp_path):
        assert (
            run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                "--out", tmp_path / "calib2", "--set", "calib.unbiased=true",
                "--set", "calib.kind=gaussian")
            == 0
        )
        report = json.loads((tmp_path / "calib2" / "calibration_report.json").read_text())
        assert report["unbiased"] is True

    def test_gamma_records_shift(self, workspace, tmp_path):
        assert (
            run("calibrate", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                "--out", tmp_path / "calib3", "--set", "calib.kind=gamma")
            == 0
        )
        cal = load_calibrator(tmp_path / "calib3" / "calibrator.json")
        assert cal.kind == "gamma" and cal.score_shift > 0.0


# SHA-256 of distill's outputs and stdout on the workspace bundle at 2 epochs,
# teacher dim 8 and student dim 4, with both weights at their default 0.5 and
# with the teacher's at 0; taken while the teacher's and the student's steps
# were still written out one by one. The checkpoints' digests were re-pinned
# when they began to store float64; the log, summary and stdout kept theirs.
REFERENCE_DISTILL = {
    (): {
        "cotrain_log.jsonl": "861c981a19ecfe110e57b92e71fc4ae54a23d693676bdfdc2014473ee4efc6b8",
        "distill_summary.json": "ebd6fb58343b828297c0b15914c68f6c2cce7f9ec4595bc10c11de1c755d49ce",
        "student.bin": "ee6aa69fd17454eb00407db084036489b80d6417f43f049d877bc74c617a7e1b",
        "student.json": "59ec06a7171f0938f04d998780e29ae9ce22ba05a5923f0e1d21f2c5fe336aa8",
        "teacher.bin": "f8fccdb0f6d3ca41377d0478509862b707b34398d43dc0ffeb7eb3113ee1fb72",
        "teacher.json": "80551c6b7750f10dfa55cfd8464037fd037d330c8c412dcd5ad8f14cf474ac98",
        "stdout": "e701f65d8b5d4a2ef62d7e8c13fa95386bf5afa6cae8b445bdf4af96adc95119",
    },
    ("bd.lambda_ts=0",): {
        "cotrain_log.jsonl": "6112b3e071cef7e622db1e54902c70002bffe3451c980b923ab81dee3ca4cc0a",
        "distill_summary.json": "23a8891980c2cf9c7ef874bb042c204972d8e8859891db222aea117344740928",
        "student.bin": "48074a03719ca57a8f9e4c75ca901c101832afd45ec9c39efd1017174aca04b8",
        "student.json": "59ec06a7171f0938f04d998780e29ae9ce22ba05a5923f0e1d21f2c5fe336aa8",
        "teacher.bin": "b0d5e574a829a191e9fcbd914386f26c62b4a2e3aab4feec4803131d15679a6f",
        "teacher.json": "80551c6b7750f10dfa55cfd8464037fd037d330c8c412dcd5ad8f14cf474ac98",
        "stdout": "e89f56fa23ef0e7deea7667855801afad28203f525bdc09714e27de53436963d",
    },
}


class TestDistill:
    @pytest.mark.parametrize("setting, message", [("bd.epochs=-1", "epochs must be >= 0")])
    def test_negative_counts_rejected(self, workspace, tmp_path, capsys, setting, message):
        assert run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd",
                   "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bd").exists()

    def test_diverging_run_fails_without_checkpoints(self, workspace, tmp_path, capsys):
        with pytest.warns(RuntimeWarning) as caught:
            code = run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd",
                       "--set", "train.lr=1e9", "--set", "train.batch_size=1",
                       "--set", "bd.teacher_dim=8", "--set", "bd.student_dim=4")
        assert code == 2
        assert any("overflow" in str(w.message) for w in caught)
        err = capsys.readouterr().err
        assert "training diverged: epoch 0 teacher base loss is nan" in err
        assert "train.lr (now 1e+09)" in err
        assert not list((tmp_path / "bd").iterdir())

    @pytest.mark.parametrize("dim, lam", [(8, "ts"), (4, "st")], ids=["teacher", "student"])
    def test_failed_checkpoint_save_discards_log(self, workspace, tmp_path, capsys, monkeypatch,
                                                 dim, lam):
        # the losses stay finite; the role's base epoch leaves an item bias
        # that is not, and its own distillation pass is off. The teacher saves
        # first, so a failing student save follows a written teacher.
        pointwise = distill.pointwise_epoch

        def spoiling_epoch(params, *args):
            params, loss = pointwise(params, *args)
            if params.dim == dim:
                params.item_bias[0] = np.inf
            return params, loss

        monkeypatch.setattr(distill, "pointwise_epoch", spoiling_epoch)
        code = run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd",
                   "--set", "bd.epochs=1", "--set", "bd.teacher_dim=8",
                   "--set", "bd.student_dim=4", "--set", f"bd.lambda_{lam}=0")
        assert code == 2
        assert "checkpoint item_bias holds values that are not finite" in capsys.readouterr().err
        # neither checkpoint nor the log, and no .partial file
        assert not list((tmp_path / "bd").iterdir())

    def test_log_rows_and_summary(self, workspace, tmp_path):
        assert (
            run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd",
                "--set", "bd.epochs=2", "--set", "bd.teacher_dim=8",
                "--set", "bd.student_dim=4")
            == 0
        )
        rows = read_jsonl(tmp_path / "bd" / "cotrain_log.jsonl")
        assert [(r["epoch"], r["model"]) for r in rows] == [
            (0, "teacher"), (0, "student"), (1, "teacher"), (1, "student"),
        ]
        assert all(
            set(r) == {"epoch", "model", "base_loss", "distill_loss", "sampled_total"}
            for r in rows
        )
        summary = json.loads((tmp_path / "bd" / "distill_summary.json").read_text())
        assert 0.0 <= summary["student_recall_at_10"] <= 1.0
        assert set(summary["empty_users"]) == {"teacher", "student"}
        assert all(0 <= n <= 40 for n in summary["empty_users"].values())
        # at T = 1 every clamped rank is 1, so no item weighs above 0 for any
        # user; with lambda_ts 0 the teacher makes no pass
        assert run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd1",
                   "--set", "bd.epochs=1", "--set", "bd.truncate_rank=1",
                   "--set", "bd.lambda_ts=0",
                   "--set", "bd.teacher_dim=8", "--set", "bd.student_dim=4") == 0
        summary = json.loads((tmp_path / "bd1" / "distill_summary.json").read_text())
        assert summary["empty_users"] == {"teacher": 0, "student": 40}
        assert summary["final"]["student"]["sampled_total"] == 0

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_empty_validation_split_keeps_the_run(self, tmp_path, capsys, epochs):
        # 6 rows per user put nothing in validation: recall@10 has no users
        csv = tmp_path / "in.csv"
        write_interactions_csv(csv, low_rank_interactions(30, 12, per_user=6))
        assert run("ingest", "--input", csv, "--out", tmp_path / "bundle") == 0
        assert len(load_bundle(tmp_path / "bundle").validation) == 0
        assert run("distill", "--data", tmp_path / "bundle", "--out", tmp_path / "bd",
                   "--set", f"bd.epochs={epochs}", "--set", "bd.teacher_dim=8",
                   "--set", "bd.student_dim=4") == 0
        assert "validation split has no items" in capsys.readouterr().out
        summary = json.loads((tmp_path / "bd" / "distill_summary.json").read_text())
        assert summary["student_recall_at_10"] is None
        assert len(read_jsonl(tmp_path / "bd" / "cotrain_log.jsonl")) == 2 * epochs
        for name in ("teacher", "student"):
            assert load_checkpoint(tmp_path / "bd" / name)[1]["epochs_trained"] == epochs

    @pytest.mark.parametrize("settings", [(), ("bd.lambda_ts=0",)], ids=["default", "lambda_ts_0"])
    def test_outputs_match_reference(self, workspace, tmp_path, capsys, settings):
        sets = [arg for setting in settings for arg in ("--set", setting)]
        assert run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd",
                   "--set", "bd.epochs=2", "--set", "bd.teacher_dim=8",
                   "--set", "bd.student_dim=4", *sets) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "bd").iterdir()
        }
        digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == REFERENCE_DISTILL[settings]

    def test_lambda_zero_matches_two_train_runs(self, workspace, tmp_path):
        assert (
            run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd0",
                "--set", "bd.epochs=2", "--set", "bd.teacher_dim=8",
                "--set", "bd.student_dim=4", "--set", "bd.lambda_ts=0",
                "--set", "bd.lambda_st=0")
            == 0
        )
        # each model trained alone in process, on the streams distill gives it:
        # init stream ("bd", 0, model), epoch e's child `model` of ("bd", 1 + e)
        # with TrainConfig's defaults, which no --set above overrides
        dataset = load_bundle(workspace / "bundle")
        cfg = cli.load_config()
        base_cfg = TrainConfig()
        for model, (name, dim) in enumerate((("teacher", 8), ("student", 4))):
            params = init_params(dataset.num_users, dataset.num_items, dim,
                                 seed=stream_seed(cfg["seed"], "bd", 0, model))
            for epoch in range(2):
                parent = np.random.default_rng(stream_seed(cfg["seed"], "bd", 1 + epoch))
                params, _ = pointwise_epoch(params, dataset, base_cfg, parent.spawn(3)[model])
            _, sidecar = save_checkpoint(params, tmp_path / name)
            assert (tmp_path / "bd0" / f"{name}.bin").read_bytes() == sidecar.read_bytes()


class TestRecommend:
    def test_fixed_lists_have_k_items(self, workspace, tmp_path):
        out = tmp_path / "fixed.jsonl"
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", out, "--k", "5") == 0
        rows = read_jsonl(out)
        assert len(rows) == 40
        assert all(len(r["items"]) == 5 for r in rows)

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("recommend", "--data", workspace / "bundle",
                       "--ckpt", workspace / "ckpt", "--out", out, "--k", "7") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_too_large_without_flag(self, workspace, tmp_path):
        out = tmp_path / "big.jsonl"
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", out, "--k", "100") == 2
        # the failed run leaves neither a partial list file nor its temporary
        assert sorted(p.name for p in tmp_path.iterdir()) == []
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", out, "--k", "100", "--allow-fewer") == 0

    def test_perk_requires_calibrator(self, workspace, tmp_path):
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "p.jsonl", "--perk") == 2

    @pytest.mark.parametrize("flags, named", [
        (("--perk", "--calibrator", "c.json", "--k", "5"), "--k cannot"),
        (("--perk", "--calibrator", "c.json", "--allow-fewer"), "--allow-fewer cannot"),
        (("--perk", "--calibrator", "c.json", "--k", "5", "--allow-fewer"),
         "--k and --allow-fewer cannot"),
        (("--k", "5", "--calibrator", "c.json"), "--calibrator can only"),
        (("--k", "5", "--summary", "s.json"), "--summary can only"),
        (("--calibrator", "c.json", "--summary", "s.json"), "--calibrator and --summary can only"),
    ], ids=["perk-k", "perk-allow-fewer", "perk-both", "fixed-calibrator", "fixed-summary",
            "fixed-both"])
    def test_other_mode_flags_are_refused(self, tmp_path, capsys, flags, named):
        # refused before any input is read: the bundle, checkpoint and
        # calibrator named here do not exist
        assert run("recommend", "--data", tmp_path / "absent", "--ckpt", tmp_path / "absent",
                   "--out", tmp_path / "r.jsonl", *flags) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_k_in_fixed_mode(self, workspace, tmp_path):
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "p.jsonl") == 2

    def test_perk_rows_satisfy_invariants(self, workspace, tmp_path):
        out = tmp_path / "perk.jsonl"
        summary = tmp_path / "summary.json"
        assert (
            run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                "--out", out, "--perk", "--calibrator", workspace / "calib" / "calibrator.json",
                "--summary", summary, "--set", "perk.k_max=12", "--set", "perk.rest_pool=20")
            == 0
        )
        rows = read_jsonl(out)
        dataset = load_bundle(workspace / "bundle")
        users, items, k_star = load_recommendations(out, dataset.num_users, dataset.num_items)
        assert users.tolist() == [row["user"] for row in rows] == list(range(40))
        assert items.shape == (40, max(k_star))
        for row, listed, k in zip(rows, items, k_star.tolist()):
            assert row["k_star"] == k == select_k(row["curve"])
            assert listed[:k].tolist() == row["items"] and (listed[k:] == -1).all()
        agg = json.loads(summary.read_text())
        assert agg["num_users"] == 40
        assert sum(agg["k_star_histogram"].values()) == 40
        assert agg["mean_k_star"] == float(np.mean(k_star))
        # f1's rest term took quadrature nodes; 12 + ceil(20 / 2) integrate it exactly
        assert 0 < agg["rest_nodes"] <= 22

    def test_failed_summary_leaves_no_lists(self, workspace, tmp_path, monkeypatch):
        def failing_write(path, payload):
            with cli.atomic_open(path) as fh:
                fh.write("{")
                raise OSError("disk full")

        # the summary is the one JSON file recommend writes
        monkeypatch.setattr(cli, "write_json", failing_write)
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "perk.jsonl", "--perk",
                   "--calibrator", workspace / "calib" / "calibrator.json",
                   "--summary", tmp_path / "summary.json", "--set", "perk.k_max=5",
                   "--set", "perk.rest_pool=10") == 1
        assert not list(tmp_path.iterdir())


class TestOutputDirectoriesCreated:
    """Every output goes through atomic_open, which creates its missing directories."""

    def test_train_out_and_log(self, workspace, tmp_path):
        data = ("--data", workspace / "bundle", "--set", "train.epochs=1")
        assert run("train", *data, "--out", tmp_path / "runs" / "model") == 0
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            "model.bin", "model.json", "model_log.jsonl"]
        assert run("train", *data, "--out", tmp_path / "more" / "model",
                   "--log", tmp_path / "logs" / "l.jsonl") == 0
        assert sorted(p.name for p in (tmp_path / "more").iterdir()) == ["model.bin", "model.json"]
        assert [row["epoch"] for row in read_jsonl(tmp_path / "logs" / "l.jsonl")] == [0]

    def test_eval_out_and_per_user_csv(self, workspace, tmp_path):
        data = ("--data", workspace / "bundle")
        assert run("recommend", *data, "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "fixed.jsonl", "--k", "5") == 0
        assert run("eval", *data, "--recs", tmp_path / "fixed.jsonl",
                   "--out", tmp_path / "reports" / "r.json",
                   "--per-user-csv", tmp_path / "reports" / "u.csv") == 0
        assert json.loads((tmp_path / "reports" / "r.json").read_text())["rows"]
        assert (tmp_path / "reports" / "u.csv").read_text().startswith("label,user,metric,value\n")

    def test_recommend_perk_summary(self, workspace, tmp_path):
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "perk.jsonl", "--perk",
                   "--calibrator", workspace / "calib" / "calibrator.json",
                   "--summary", tmp_path / "summaries" / "s.json",
                   "--set", "perk.k_max=5", "--set", "perk.rest_pool=10",
                   "--set", "perk.utility=ndcg") == 0
        summary = json.loads((tmp_path / "summaries" / "s.json").read_text())
        assert summary["num_users"] == len(read_jsonl(tmp_path / "perk.jsonl"))
        assert "rest_nodes" not in summary  # ndcg folds its rest pool; nothing is integrated

    def test_every_other_stage_two_levels_down(self, workspace, tmp_path):
        data = ("--data", workspace / "bundle")
        new = tmp_path / "a" / "b"
        for argv in (
            ("ingest", "--input", workspace / "interactions.csv", "--out", new / "bundle"),
            ("calibrate", *data, "--ckpt", workspace / "ckpt", "--out", new / "calib"),
            ("distill", *data, "--out", new / "distill", "--set", "bd.epochs=1"),
            ("recommend", *data, "--ckpt", workspace / "ckpt", "--out", new / "fixed.jsonl",
             "--k", "5"),
        ):
            assert run(*argv) == 0, argv[0]
        assert sorted(p.name for p in new.iterdir()) == [
            "bundle", "calib", "distill", "fixed.jsonl"]


def write_bundle(root, num_items, train, validation, test=None):
    """A bundle written directly: user u and item i have external ids u<u>, i<i>."""
    root.mkdir()
    num_users = len(train)
    (root / "user_map.json").write_text(json.dumps({f"u{u}": u for u in range(num_users)}))
    (root / "item_map.json").write_text(json.dumps({f"i{i}": i for i in range(num_items)}))
    splits = {}
    for name, rows in (("train", train), ("validation", validation), ("test", test or {})):
        pairs = np.array([(u, i) for u in rows for i in rows[u]], dtype=np.int64).reshape(-1, 2)
        splits[name] = Csr.from_pairs(pairs[:, 0], pairs[:, 1], num_users, num_items)
    dataset = Dataset(num_users, num_items, **splits)
    cli._write_splits(root, dataset, ",")


class TestPerkSkipsCoveredUsers:
    def test_train_plus_validation_covering_catalog(self, tmp_path):
        # user 0's train and validation rows cover all four items
        write_bundle(tmp_path / "b", 4, train={0: {0, 1}, 1: {0}, 2: {1, 2}},
                     validation={0: {2, 3}, 1: {1}, 2: {0}}, test={1: {2}, 2: {3}})
        save_checkpoint(init_params(3, 4, 2, seed=0), tmp_path / "ck")
        save_calibrator(Calibrator("platt", a=1.0, b=0.0), tmp_path / "cal.json")
        common = ("recommend", "--data", tmp_path / "b", "--ckpt", tmp_path / "ck", "--perk",
                  "--calibrator", tmp_path / "cal.json", "--set", "perk.k_max=2")
        assert run(*common, "--out", tmp_path / "p.jsonl", "--exclude-validation") == 0
        rows = read_jsonl(tmp_path / "p.jsonl")
        assert [r["user"] for r in rows] == [1, 2]
        assert 1 not in rows[0]["items"] and 0 not in rows[1]["items"]
        assert run(*common, "--out", tmp_path / "all.jsonl") == 0
        assert [r["user"] for r in read_jsonl(tmp_path / "all.jsonl")] == [0, 1, 2]


class TestPerkSummary:
    def test_realized_utility_over_users_with_held_out_items(self, tmp_path):
        # users 0 and 2 have test items, user 1 has none; validation is empty
        write_bundle(tmp_path / "b", 8, train={0: {0}, 1: {1}, 2: {2}},
                     validation={}, test={0: {3, 5}, 2: {4}})
        params = init_params(3, 8, 2, seed=0)
        params.item_bias[:] = np.linspace(1.0, -1.0, 8)
        save_checkpoint(params, tmp_path / "ck")
        save_calibrator(Calibrator("platt", a=1.0, b=0.0), tmp_path / "cal.json")
        common = ("recommend", "--data", tmp_path / "b", "--ckpt", tmp_path / "ck", "--perk",
                  "--calibrator", tmp_path / "cal.json", "--out", tmp_path / "p.jsonl",
                  "--set", "perk.k_max=4", "--set", "perk.utility=f1")
        assert run(*common, "--summary", tmp_path / "test.json") == 0
        rows = {r["user"]: r for r in read_jsonl(tmp_path / "p.jsonl")}
        relevant = {0: {3, 5}, 2: {4}}
        want = np.mean([
            2 * len(set(rows[u]["items"][:k]) & rel) / (k + len(rel))
            for u, rel in relevant.items() for k in [rows[u]["k_star"]]
        ])
        summary = json.loads((tmp_path / "test.json").read_text())
        assert summary["mean_realized_utility_at_k_star"] == pytest.approx(want, abs=1e-15)
        assert run(*common, "--summary", tmp_path / "validation.json",
                   "--set", "eval.split=validation") == 0
        summary = json.loads((tmp_path / "validation.json").read_text())
        assert summary["mean_realized_utility_at_k_star"] is None
        assert summary["num_users"] == 3


# every field a calibrator file must hold besides its kind (and a histogram's bins)
CALIBRATOR_FIELDS = {"a": 1.0, "b": 0.0, "c": 0.0, "score_shift": 0.0}


class TestBadCalibratorFile:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "isotonic", **CALIBRATOR_FIELDS},
            CALIBRATOR_FIELDS,
            {"kind": "platt", **CALIBRATOR_FIELDS, "a": float("nan")},
            {"kind": "gamma", **CALIBRATOR_FIELDS, "score_shift": float("inf")},
            {"kind": "gaussian", **CALIBRATOR_FIELDS, "c": "1.0"},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": []},
            {"kind": "histogram", **CALIBRATOR_FIELDS},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": [[0.5, 0.2], [0.5, 0.4]]},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": [[0.5, 0.2], [0.1, 0.4]]},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": [[0.1, 0.2], [0.5, 1.5]]},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": [[0.1, -0.1]]},
            {"kind": "histogram", **CALIBRATOR_FIELDS, "bins": [[0.1, 0.2, 0.3]]},
            *({"kind": "platt", **{k: v for k, v in CALIBRATOR_FIELDS.items() if k != drop}}
              for drop in CALIBRATOR_FIELDS),
            b'{"kind": "platt",',  # bytes are written as they are
            b"\xff{}",
        ],
        ids=["unknown-kind", "no-kind", "nan-a", "inf-shift", "string-c", "no-bins",
             "missing-bins", "equal-edges", "falling-edges", "value-above-one",
             "value-below-zero", "bin-triple", *(f"no-{name}" for name in CALIBRATOR_FIELDS),
             "cut-json", "not-utf8"],
    )
    def test_recommend_perk_rejects(self, workspace, tmp_path, payload, capsys):
        path = tmp_path / "calibrator.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        with pytest.raises(ValueError):
            load_calibrator(path)
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "p.jsonl", "--perk", "--calibrator", path) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and str(path) in err
        assert not (tmp_path / "p.jsonl").exists()


class TestEval:
    def make_outputs(self, workspace, tmp_path):
        fixed = tmp_path / "fixed.jsonl"
        perk = tmp_path / "perk.jsonl"
        run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
            "--out", fixed, "--k", "20")
        run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
            "--out", perk, "--perk", "--calibrator", workspace / "calib" / "calibrator.json",
            "--set", "perk.k_max=10", "--set", "perk.rest_pool=20")
        return fixed, perk

    def test_comparison_table(self, workspace, tmp_path):
        fixed, perk = self.make_outputs(workspace, tmp_path)
        report_path = tmp_path / "report.json"
        assert run("eval", "--data", workspace / "bundle", "--recs", fixed,
                   "--perk-recs", perk, "--out", report_path,
                   "--per-user-csv", tmp_path / "per_user.csv") == 0
        report = json.loads(report_path.read_text())
        labels = [row["label"] for row in report["rows"]]
        assert labels == ["k=1", "k=5", "k=10", "k=20", "perk"]
        assert "users_skipped" in report
        assert (tmp_path / "per_user.csv").read_text().startswith("label,user,metric,value")

    def test_requires_some_input(self, workspace, tmp_path):
        assert run("eval", "--data", workspace / "bundle", "--out", tmp_path / "r.json") == 2

    def test_mismatched_shapes(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"user": 4000, "items": [0, 1]}) + "\n")
        assert run("eval", "--data", workspace / "bundle", "--recs", bad,
                   "--out", tmp_path / "r.json") == 2
        assert "recommendation user 4000 outside dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [({"user": -2, "items": [0, 1]}, "recommendation user -2 outside dataset"),
         ({"user": 3, "items": [0, 60]}, "recommended item 60 outside dataset")],
        ids=["user-negative", "item-high"],
    )
    def test_ids_outside_dataset_named(self, workspace, tmp_path, capsys, row, problem):
        # two good rows first: the bad row is named by its line, 3
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(
            json.dumps(r) + "\n" for r in ({"user": 0, "items": [1]}, {"user": 1, "items": []}, row)
        ))
        assert run("eval", "--data", workspace / "bundle", "--recs", bad,
                   "--out", tmp_path / "r.json") == 2
        assert f"{bad}:3: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
    def test_item_at_or_past_num_items_named(self, workspace, tmp_path, capsys, past):
        num_items = load_bundle(workspace / "bundle").num_items
        recs = tmp_path / "recs.jsonl"
        recs.write_text("".join(json.dumps(row) + "\n" for row in (
            {"user": 0, "items": [num_items - 1]}, {"user": 1, "items": [0, num_items + past, 0]},
        )))
        assert run("eval", "--data", workspace / "bundle", "--recs", recs,
                   "--out", tmp_path / "r.json") == 2
        assert (f"{recs}:2: recommended item {num_items + past} outside dataset"
                in capsys.readouterr().err)

    def test_first_bad_line_in_file_order(self, workspace, tmp_path, capsys):
        # an item past the catalog on line 2 comes before the malformed row
        # and the repeated user on the lines after it
        recs = tmp_path / "recs.jsonl"
        recs.write_text("".join(json.dumps(row) + "\n" for row in (
            {"user": 0, "items": [1]}, {"user": 1, "items": [99]}, {"user": 0, "items": [2]},
            {"user": 2, "items": [1.5]},
        )))
        assert run("eval", "--data", workspace / "bundle", "--recs", recs,
                   "--out", tmp_path / "r.json") == 2
        assert f"{recs}:2: recommended item 99 outside dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, rows, problem",
        [
            ("--perk-recs", [{"user": 0, "k_star": 1, "items": [1]}], "lacks curve"),
            ("--recs", [{"user": 0, "items": [1]}, {"user": 1}], "lacks items"),
            ("--recs", [{"user": 0, "items": [1, 1.5]}], "items must be a list of integers"),
            ("--recs", [{"user": 0, "items": [1]}, {"user": 1, "items": [2, True]}],
             "items must be a list of integers"),
            ("--perk-recs", [{"user": 0, "k_star": 1, "curve": [False], "items": [1]}],
             "curve must be a list of numbers"),
            ("--recs", [{"user": "0", "items": [1]}], "not an integer"),
            ("--perk-recs", [{"user": 0, "k_star": 3, "curve": [0.1, 0.2], "items": [1, 2]}],
             "k_star 3"),
            ("--perk-recs", [{"user": 0, "k_star": 0, "curve": [0.1], "items": [1]}], "k_star 0"),
            ("--perk-recs", [{"user": 0, "k_star": 1, "curve": ["0.1"], "items": [1]}],
             "curve must be a list of numbers"),
            ("--perk-recs", [{"user": 0, "k_star": 1, "curve": [0.1], "items": [1]},
                             {"user": 1, "k_star": 5, "curve": [0.1] * 5, "items": [1]}],
             "items holds 1 entries where k_star is 5"),
            ("--recs", [{"user": 0, "items": [1]}, {"user": 1, "items": [2, -1]}],
             "recommended item -1 outside dataset"),
            ("--perk-recs", [], "no recommendation rows"),
            # the test bundle's user 0 holds one test item, 5: repeating it
            # would count one hit several times
            ("--recs", [{"user": 1, "items": [2]}, {"user": 0, "items": [5, 5, 5, 5, 5]}],
             "item 5 repeats in the list"),
            ("--perk-recs", [{"user": 0, "k_star": 3, "curve": [0.1] * 3, "items": [5, 2, 5]}],
             "item 5 repeats in the list"),
        ],
        ids=["perk-no-curve", "fixed-no-items", "float-item", "bool-item", "bool-curve",
             "string-user", "k-star-high",
             "k-star-zero", "string-curve", "items-not-k-star", "negative-item",
             "empty-file", "fixed-repeated-item", "perk-repeated-item"],
    )
    def test_malformed_rows_exit_2(self, workspace, tmp_path, capsys, flag, rows, problem):
        recs = tmp_path / "recs.jsonl"
        recs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run("eval", "--data", workspace / "bundle", flag, recs,
                   "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert problem in err
        if rows:  # the file and the line of the bad row
            assert f"{recs}:{len(rows)}:" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "row, problem",
        [({"user": 2**70, "items": [1]}, f"recommendation user {2**70} outside dataset"),
         ({"user": 0, "items": [2**70]}, f"recommended item {2**70} outside dataset")],
        ids=["user", "item"],
    )
    def test_ids_past_64_bits_exit_2(self, workspace, tmp_path, capsys, row, problem):
        recs = tmp_path / "recs.jsonl"
        recs.write_text(json.dumps(row) + "\n")
        assert run("eval", "--data", workspace / "bundle", "--recs", recs,
                   "--out", tmp_path / "r.json") == 2
        assert f"{recs}:1: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, row",
        [
            ("--recs", {"items": [1, 2]}),
            ("--perk-recs", {"k_star": 1, "curve": [0.5, 0.2], "items": [1]}),
        ],
        ids=["fixed", "perk"],
    )
    def test_repeated_user_exit_2(self, workspace, tmp_path, capsys, flag, row):
        # user 0 appears on lines 1 and 3; the second row used to replace the first
        recs = tmp_path / "recs.jsonl"
        recs.write_text("".join(
            json.dumps({**row, "user": user}) + "\n" for user in (0, 1, 0)
        ))
        assert run("eval", "--data", workspace / "bundle", flag, recs,
                   "--out", tmp_path / "r.json") == 2
        assert f"{recs}:3: user 0 repeats the row on line 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_swapped_files_rejected(self, workspace, tmp_path):
        fixed, perk = self.make_outputs(workspace, tmp_path)
        assert run("eval", "--data", workspace / "bundle", "--recs", perk,
                   "--out", tmp_path / "r.json") == 2

    def test_self_consistent_lists_score_perfectly(self, workspace, tmp_path):
        dataset = load_bundle(workspace / "bundle")
        recs = tmp_path / "self.jsonl"
        with open(recs, "w") as fh:
            for user in range(dataset.num_users):
                items = dataset.test.row(user).tolist()
                if items:
                    fh.write(json.dumps({"user": user, "items": items}) + "\n")
        report_path = tmp_path / "self_report.json"
        assert run("eval", "--data", workspace / "bundle", "--recs", recs,
                   "--out", report_path, "--set", "eval.ks=1") == 0
        report = json.loads(report_path.read_text())
        assert report["rows"][0]["precision"] == pytest.approx(1.0)


def test_package_imports_without_scipy():
    # scipy is needed by the test oracles only; a fresh interpreter shows
    # what importing the package itself loads
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = (
        "import sys; import calibrec, calibrec.cli, calibrec.synthetic; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
