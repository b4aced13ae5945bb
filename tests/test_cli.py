import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from calibrec import cli
from calibrec.calibration import (
    Calibrator,
    apply,
    load_calibrator,
    read_reliability_csv,
    save_calibrator,
)
from calibrec.cli import (
    BUNDLE_FILES,
    config_reference,
    load_bundle,
    load_recommendations,
    main,
)
from calibrec.perk import select_k
from calibrec.ranker import (
    TrainConfig,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    save_checkpoint,
)
from calibrec.seeding import stream_seed
from calibrec.synthetic import low_rank_interactions, write_interactions_csv

from conftest import read_jsonl


def run(*argv):
    return main([str(a) for a in argv])


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
    def test_writes_five_files(self, tmp_path, capsys):
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
        # MovieLens-style "::" logs round-trip: the bundle keeps the delimiter
        csv = tmp_path / "in.dat"
        csv.write_text("1::10::978300760\n1::20::978300761\n2::10::978300762\n")
        assert run("ingest", "--input", csv, "--out", tmp_path / "b",
                   "--set", "data.delimiter=::") == 0
        assert (tmp_path / "b" / "train.txt").read_text() == "0::0\n0::1\n1::0\n"
        dataset, maps = load_bundle(tmp_path / "b", delimiter="::")
        assert maps.user_to_index == {"1": 0, "2": 1}
        assert len(dataset.train) == 3
        (tmp_path / "b" / "train.txt").write_text("0::0\n0:::1\n")
        with pytest.raises(cli.DataFormatError, match="expected 'user::item' lines"):
            load_bundle(tmp_path / "b", delimiter="::")

    def test_bundle_round_trip(self, workspace):
        dataset, maps = load_bundle(workspace / "bundle")
        assert dataset.num_users == maps.num_users == 40
        assert len(dataset.train) > 0
        total = len(dataset.train) + len(dataset.validation) + len(dataset.test)
        assert total == 40 * 12
        counts = np.zeros(dataset.num_items, dtype=int)
        for u in range(dataset.num_users):
            for i in dataset.train.row(u):
                counts[i] += 1
        assert np.array_equal(counts, dataset.item_popularity)


# SHA-256 of each bundle file that ingest wrote for reference_input() before
# the splits moved to CSR arrays; the on-disk format must not change
REFERENCE_BUNDLES = {
    (): {
        "item_map.json": "46fa2b15a1ed6d646620cd1ff85cf08414d917186133b780755038c38fbbb6a8",
        "user_map.json": "cd6dc134d2b63156c4cc9d513ecc8e4a5355ec38cec5135145917b09c912e594",
        "train.txt": "4e28c3a409b1d395068992a58368bedfe15c8d1a276eacbd69883f6a15dae9af",
        "validation.txt": "9c2d2b3507260b49df08b80a2c88f3ccf1dc98363ba2cbaa30cfaa76001f95a6",
        "test.txt": "58e423b4bc0771abefb2d12b86cbdbae1f8ca297b00b2176e80e6a17b78d4d5e",
    },
    ("--set", "seed=7", "--set", "data.ratios=0.6,0.2,0.2"): {
        "item_map.json": "46fa2b15a1ed6d646620cd1ff85cf08414d917186133b780755038c38fbbb6a8",
        "user_map.json": "cd6dc134d2b63156c4cc9d513ecc8e4a5355ec38cec5135145917b09c912e594",
        "train.txt": "4bd79e93274324715b41bd2585bb0baf807bae2015d40d43d371c24888b8d4b4",
        "validation.txt": "6229bc944ab29a9f9727ba0d884974232ffef9dd23ba78e6b80f2ae41ba3067f",
        "test.txt": "58f7df951011433e17dd499e13cfd3b1c43ae8b74664e2d9fe3123355d4c758a",
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
    def test_split_lines_other_than_written_are_rejected(self, workspace, tmp_path, train):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        for name in BUNDLE_FILES:
            (bundle / name).write_bytes((workspace / "bundle" / name).read_bytes())
        (bundle / "train.txt").write_text(train, encoding="utf-8")
        with pytest.raises(cli.DataFormatError, match="expected 'user,item' lines"):
            load_bundle(bundle)
        (bundle / "train.txt").write_text("0,0\n2,2\n")
        assert load_bundle(bundle)[0].train.pairs()[1].tolist() == [0, 2]
        (bundle / "train.txt").write_text("")
        assert len(load_bundle(bundle)[0].train) == 0


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
        dataset, _ = load_bundle(tmp_path / "b")
        assert len(dataset.validation) == 6 * 2  # 20% of 10 per user

    def test_reference_file(self, tmp_path):
        out = tmp_path / "reference.txt"
        assert run("--write-config-reference", out) == 0
        text = out.read_text()
        assert text == config_reference()
        for key in ("seed", "train.lr", "perk.k_max", "eval.ks"):
            assert key in text

    def test_committed_reference_is_current(self):
        committed = Path(__file__).resolve().parents[1] / "docs" / "config-reference.txt"
        assert committed.read_text(encoding="utf-8") == config_reference()

    def test_help_everywhere(self):
        assert run("--help") == 0
        for sub in ("ingest", "train", "calibrate", "distill", "recommend", "eval"):
            assert run(sub, "--help") == 0

    def test_no_command_prints_help(self):
        assert run() == 2


class TestTrain:
    def test_zero_epochs_equals_initialization(self, workspace, tmp_path):
        assert (
            run("train", "--data", workspace / "bundle", "--out", tmp_path / "init",
                "--set", "train.epochs=0", "--set", "train.dim=8")
            == 0
        )
        params, header = load_checkpoint(tmp_path / "init")
        fresh = init_params(40, 60, 8, seed=stream_seed(0, "train", 0))
        np.testing.assert_array_equal(
            params.user_emb.astype("<f4"), fresh.user_emb.astype("<f4")
        )
        assert header["epochs_trained"] == 0

    def test_same_seed_bitwise_identical(self, workspace, tmp_path):
        for name in ("a", "b"):
            assert (
                run("train", "--data", workspace / "bundle", "--out", tmp_path / name,
                    "--set", "train.epochs=2", "--set", "train.dim=4")
                == 0
            )
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_resume_continues_loss_trace(self, workspace, tmp_path):
        args = ("--set", "train.dim=8", "--set", "train.lr=0.15")
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "full",
                   "--set", "train.epochs=6", *args) == 0
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "part",
                   "--set", "train.epochs=3", *args) == 0
        assert run("train", "--data", workspace / "bundle", "--out", tmp_path / "res",
                   "--resume", tmp_path / "part", "--log", tmp_path / "part_log.jsonl",
                   "--set", "train.epochs=6", *args) == 0
        full = {r["epoch"]: r["loss"] for r in read_jsonl(tmp_path / "full_log.jsonl")}
        resumed = {r["epoch"]: r["loss"] for r in read_jsonl(tmp_path / "part_log.jsonl")}
        assert sorted(resumed) == sorted(full) == list(range(6))
        for epoch, loss in resumed.items():
            assert loss == pytest.approx(full[epoch], abs=1e-6)


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


class TestAtomicLogs:
    def test_crash_mid_training_leaves_no_log(self, workspace, tmp_path, monkeypatch):
        calls = []

        def failing_epoch(params, dataset, cfg, rng):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return params, 0.5

        monkeypatch.setattr(cli, "bpr_epoch", failing_epoch)
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

        monkeypatch.setattr(cli, "bpr_epoch", failing_epoch)
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


class TestCalibrate:
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


class TestDistill:
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
        dataset, _ = load_bundle(workspace / "bundle")
        cfg = cli.load_config()
        base_cfg = TrainConfig(
            lr=cfg["train.lr"], reg=cfg["train.reg"], batch_size=cfg["train.batch_size"],
            loss_kind="pointwise", negatives_per_positive=cfg["train.negatives_per_positive"],
        )
        for model, (name, dim) in enumerate((("teacher", 8), ("student", 4))):
            params = init_params(dataset.num_users, dataset.num_items, dim,
                                 seed=stream_seed(cfg["seed"], "bd", 0, model))
            for epoch in range(2):
                parent = np.random.default_rng(stream_seed(cfg["seed"], "bd", 1 + epoch))
                params, _ = pointwise_epoch(params, dataset, base_cfg, parent.spawn(3)[model])
            _, sidecar = save_checkpoint(params, tmp_path / name)
            assert (tmp_path / "bd0" / f"{name}.bin").read_bytes() == sidecar.read_bytes()

    def test_save_every(self, workspace, tmp_path, monkeypatch):
        saved = []
        monkeypatch.setattr(
            cli, "save_checkpoint",
            lambda params, base, **kw: saved.append((base.name, kw["epochs_trained"])),
        )
        assert (
            run("distill", "--data", workspace / "bundle", "--out", tmp_path / "bd2",
                "--set", "bd.save_every=1", "--set", "bd.epochs=2",
                "--set", "bd.teacher_dim=4", "--set", "bd.student_dim=2")
            == 0
        )
        # one pair after each epoch, then the final pair
        assert saved == [("teacher", 1), ("student", 1), ("teacher", 2), ("student", 2),
                         ("teacher", 2), ("student", 2)]


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
        cuts = load_recommendations(out)
        assert len(cuts) == 40
        for cut in cuts:
            assert cut.k_star == select_k(cut.curve)
            assert len(cut.items) == cut.k_star
        agg = json.loads(summary.read_text())
        assert agg["num_users"] == 40
        assert sum(agg["k_star_histogram"].values()) == 40
        assert agg["mean_k_star"] == pytest.approx(
            float(np.mean([c.k_star for c in cuts]))
        )


def write_bundle(root, num_items, train, validation, test=None):
    """A bundle written directly: user u and item i have external ids u<u>, i<i>."""
    root.mkdir()
    num_users = len(train)
    (root / "user_map.json").write_text(json.dumps({f"u{u}": u for u in range(num_users)}))
    (root / "item_map.json").write_text(json.dumps({f"i{i}": i for i in range(num_items)}))
    for name, split in (("train", train), ("validation", validation), ("test", test or {})):
        lines = [f"{u},{i}\n" for u in sorted(split) for i in sorted(split[u])]
        (root / f"{name}.txt").write_text("".join(lines))


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
                  "--set", "perk.k_max=4", "--set", "perk.utility=recall")
        assert run(*common, "--summary", tmp_path / "test.json") == 0
        rows = {r["user"]: r for r in read_jsonl(tmp_path / "p.jsonl")}
        relevant = {0: {3, 5}, 2: {4}}
        want = np.mean([
            len(set(rows[u]["items"][: rows[u]["k_star"]]) & rel) / len(rel)
            for u, rel in relevant.items()
        ])
        summary = json.loads((tmp_path / "test.json").read_text())
        assert summary["mean_realized_utility_at_k_star"] == pytest.approx(want, abs=1e-15)
        assert run(*common, "--summary", tmp_path / "validation.json",
                   "--set", "eval.split=validation") == 0
        summary = json.loads((tmp_path / "validation.json").read_text())
        assert summary["mean_realized_utility_at_k_star"] is None
        assert summary["num_users"] == 3


class TestBadCalibratorFile:
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "isotonic", "a": 1.0},
            {"a": 1.0},
            {"kind": "platt", "a": float("nan"), "b": 0.0},
            {"kind": "gamma", "a": 1.0, "score_shift": float("inf")},
            {"kind": "gaussian", "c": "1.0"},
            {"kind": "histogram", "bins": []},
            {"kind": "histogram"},
            {"kind": "histogram", "bins": [[0.5, 0.2], [0.5, 0.4]]},
            {"kind": "histogram", "bins": [[0.5, 0.2], [0.1, 0.4]]},
            {"kind": "histogram", "bins": [[0.1, 0.2], [0.5, 1.5]]},
            {"kind": "histogram", "bins": [[0.1, -0.1]]},
            {"kind": "histogram", "bins": [[0.1, 0.2, 0.3]]},
        ],
        ids=["unknown-kind", "no-kind", "nan-a", "inf-shift", "string-c", "no-bins",
             "missing-bins", "equal-edges", "falling-edges", "value-above-one",
             "value-below-zero", "bin-triple"],
    )
    def test_recommend_perk_rejects(self, workspace, tmp_path, payload, capsys):
        path = tmp_path / "calibrator.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_calibrator(path)
        assert run("recommend", "--data", workspace / "bundle", "--ckpt", workspace / "ckpt",
                   "--out", tmp_path / "p.jsonl", "--perk", "--calibrator", path) == 2
        assert "validation error" in capsys.readouterr().err
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

    def test_mismatched_shapes(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"user": 4000, "items": [0, 1]}) + "\n")
        assert run("eval", "--data", workspace / "bundle", "--recs", bad,
                   "--out", tmp_path / "r.json") == 2

    @pytest.mark.parametrize(
        "flag, rows, problem",
        [
            ("--perk-recs", [{"user": 0, "k_star": 1, "items": [1]}], "lacks curve"),
            ("--recs", [{"user": 0, "items": [1]}, {"user": 1}], "lacks items"),
            ("--recs", [{"user": 0, "items": [1, 1.5]}], "items must be a list of integers"),
            ("--recs", [{"user": "0", "items": [1]}], "not an integer"),
            ("--perk-recs", [{"user": 0, "k_star": 3, "curve": [0.1, 0.2], "items": [1, 2]}],
             "k_star 3"),
            ("--perk-recs", [{"user": 0, "k_star": 0, "curve": [0.1], "items": [1]}], "k_star 0"),
            ("--perk-recs", [{"user": 0, "k_star": 1, "curve": ["0.1"], "items": [1]}],
             "curve must be a list of numbers"),
            ("--perk-recs", [], "no recommendation rows"),
        ],
        ids=["perk-no-curve", "fixed-no-items", "float-item", "string-user", "k-star-high",
             "k-star-zero", "string-curve", "empty-file"],
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
        "flag, row",
        [
            ("--recs", {"items": [1, 2]}),
            ("--perk-recs", {"k_star": 1, "curve": [0.5, 0.2], "items": [1, 2]}),
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
        dataset, _ = load_bundle(workspace / "bundle")
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
