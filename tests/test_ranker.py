import numpy as np
import pytest

from calibrec import ranker
from calibrec.ranker import (
    MfParams,
    TrainConfig,
    auc,
    bpr_epoch,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    rank_items,
    save_checkpoint,
    score,
    score_items,
    top_k,
)
from calibrec.synthetic import low_rank_dataset

from conftest import make_dataset
from oracles import finite_difference_grad, relative_error


def params_from(user_emb, item_emb, item_bias=None):
    user_emb = np.asarray(user_emb, dtype=float)
    item_emb = np.asarray(item_emb, dtype=float)
    bias = np.zeros(len(item_emb)) if item_bias is None else np.asarray(item_bias, dtype=float)
    return MfParams(user_emb, item_emb, bias)


class TestInitParams:
    def test_shapes(self):
        p = init_params(2, 3, 4, seed=0)
        assert p.user_emb.shape == (2, 4)
        assert p.item_emb.shape == (3, 4)
        assert p.item_bias.shape == (3,)
        assert np.all(p.item_bias == 0)

    def test_determinism(self):
        a = init_params(5, 6, 3, seed=42)
        b = init_params(5, 6, 3, seed=42)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_sample_std(self):
        p = init_params(500, 100, 200, seed=7)  # 120k embedding entries
        entries = np.concatenate([p.user_emb.ravel(), p.item_emb.ravel()])
        assert len(entries) >= 100_000
        assert 0.009 <= entries.std() <= 0.011

    def test_degenerate(self):
        with pytest.raises(ValueError):
            init_params(0, 3, 4, seed=0)
        with pytest.raises(ValueError):
            init_params(3, 3, 0, seed=0)


class TestScore:
    def test_bias_only(self):
        p = params_from(np.zeros((1, 2)), np.zeros((1, 2)), [0.7])
        assert score(p, 0, 0) == pytest.approx(0.7)

    def test_orthogonal(self):
        p = params_from([[1.0, 0.0]], [[0.0, 1.0]])
        assert score(p, 0, 0) == 0.0

    def test_hand_arithmetic(self):
        # [1,2] . [3,4] + 0.5 = 11.5
        p = params_from([[1.0, 2.0]], [[3.0, 4.0]], [0.5])
        assert score(p, 0, 0) == pytest.approx(11.5)

    def test_out_of_range(self):
        p = init_params(2, 2, 2, seed=0)
        with pytest.raises(IndexError):
            score(p, 2, 0)
        with pytest.raises(IndexError):
            score(p, 0, -1)

    def test_bilinear_scaling(self):
        p = init_params(3, 4, 5, seed=1)
        base = score(p, 1, 2) - p.item_bias[2]
        p.user_emb[1] *= 2.5
        assert score(p, 1, 2) - p.item_bias[2] == pytest.approx(2.5 * base)


def extract_epoch_gradient(epoch_fn, params, dataset, cfg, seed):
    """Analytic gradient of one single-example epoch, as (old - new) / lr."""
    new, _ = epoch_fn(params, dataset, cfg, np.random.default_rng(seed))
    return {
        "user_emb": (params.user_emb - new.user_emb) / cfg.lr,
        "item_emb": (params.item_emb - new.item_emb) / cfg.lr,
        "item_bias": (params.item_bias - new.item_bias) / cfg.lr,
    }


class TestBprEpoch:
    def test_lr_zero_params_unchanged(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(lr=0.0, reg=0.01, epochs=1, loss_kind="bpr", batch_size=7)
        new, _ = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert np.array_equal(new.user_emb, p.user_emb)
        assert np.array_equal(new.item_emb, p.item_emb)
        assert np.array_equal(new.item_bias, p.item_bias)

    def test_lr_zero_loss_is_ln2_at_zero_params(self, small_dataset):
        # zero parameters make every score difference 0, so each sampled
        # triple contributes exactly -ln sigmoid(0) = ln 2
        U, I = small_dataset.num_users, small_dataset.num_items
        p = params_from(np.zeros((U, 4)), np.zeros((I, 4)))
        cfg = TrainConfig(lr=0.0, reg=0.1, epochs=1, loss_kind="bpr")
        _, loss = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # one train positive (item 0) and one candidate negative (item 1):
        # the epoch is a single SGD step on a single known triple
        ds = make_dataset({0: {0}}, num_items=2)
        reg = 0.03
        cfg = TrainConfig(lr=0.5, reg=reg, epochs=1, loss_kind="bpr", batch_size=1)
        rng = np.random.default_rng(5)
        params = MfParams(
            rng.normal(0, 0.5, (1, 4)), rng.normal(0, 0.5, (2, 4)), rng.normal(0, 0.5, 2)
        )
        grads = extract_epoch_gradient(bpr_epoch, params, ds, cfg, seed=8)

        def objective(theta):
            p = MfParams(
                theta[:4].reshape(1, 4).copy(), theta[4:12].reshape(2, 4).copy(), theta[12:].copy()
            )
            x = score(p, 0, 0) - score(p, 0, 1)
            return np.logaddexp(0.0, -x) + reg * (
                np.sum(p.user_emb[0] ** 2)
                + np.sum(p.item_emb[0] ** 2)
                + np.sum(p.item_emb[1] ** 2)
            )

        theta0 = np.concatenate(
            [params.user_emb.ravel(), params.item_emb.ravel(), params.item_bias]
        )
        analytic = np.concatenate(
            [grads["user_emb"].ravel(), grads["item_emb"].ravel(), grads["item_bias"]]
        )
        fd = finite_difference_grad(objective, theta0, h=1e-5)
        for i, g_fd in fd.items():
            assert relative_error(analytic[i], g_fd) < 1e-5

    def test_loss_decreases_over_epochs(self):
        ds = low_rank_dataset(40, 60, rank=2, per_user=15, noise=0.2, seed=4)
        p = init_params(40, 60, 8, seed=[4, 0])
        cfg = TrainConfig(lr=0.1, reg=1e-4, epochs=1, loss_kind="bpr", batch_size=8)
        p1, first = bpr_epoch(p, ds, cfg, np.random.default_rng([4, 1]))
        cur = p1
        for e in range(2, 21):
            cur, last = bpr_epoch(cur, ds, cfg, np.random.default_rng([4, e]))
        assert last < first

    def test_deterministic(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(lr=0.1, reg=1e-3, epochs=1, loss_kind="bpr", batch_size=5)
        a, la = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(77))
        b, lb = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(77))
        assert la == lb
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_wrong_loss_kind(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(loss_kind="pointwise")
        with pytest.raises(ValueError):
            bpr_epoch(p, small_dataset, cfg, np.random.default_rng(0))


class TestPointwiseEpoch:
    def test_symmetric_start_loss(self, small_dataset):
        U, I = small_dataset.num_users, small_dataset.num_items
        p = params_from(np.zeros((U, 3)), np.zeros((I, 3)))
        cfg = TrainConfig(
            lr=0.0, epochs=1, loss_kind="pointwise", negatives_per_positive=3, batch_size=4
        )
        _, loss = pointwise_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_lr_zero_params_unchanged(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(lr=0.0, reg=0.01, epochs=1, loss_kind="pointwise")
        new, _ = pointwise_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert np.array_equal(new.user_emb, p.user_emb)
        assert np.array_equal(new.item_emb, p.item_emb)

    def test_gradient_matches_finite_differences(self):
        # item 1 is the only train positive, item 0 the forced negative
        ds = make_dataset({0: {1}}, num_users=1, num_items=2)
        reg = 0.05
        cfg = TrainConfig(
            lr=0.25, reg=reg, epochs=1, loss_kind="pointwise",
            negatives_per_positive=1, batch_size=1,
        )
        rng = np.random.default_rng(9)
        params = MfParams(
            rng.normal(0, 0.5, (1, 3)), rng.normal(0, 0.5, (2, 3)), rng.normal(0, 0.5, 2)
        )
        grads = extract_epoch_gradient(pointwise_epoch, params, ds, cfg, seed=2)

        def objective(theta):
            p = MfParams(
                theta[:3].reshape(1, 3).copy(), theta[3:9].reshape(2, 3).copy(), theta[9:].copy()
            )
            pos = np.logaddexp(0.0, -score(p, 0, 1)) + reg * (
                np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[1] ** 2)
            )
            neg = np.logaddexp(0.0, score(p, 0, 0)) + reg * (
                np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[0] ** 2)
            )
            return (pos + neg) / 2.0

        theta0 = np.concatenate(
            [params.user_emb.ravel(), params.item_emb.ravel(), params.item_bias]
        )
        analytic = np.concatenate(
            [grads["user_emb"].ravel(), grads["item_emb"].ravel(), grads["item_bias"]]
        )
        fd = finite_difference_grad(objective, theta0, h=1e-5)
        for i, g_fd in fd.items():
            assert relative_error(analytic[i], g_fd) < 1e-5


class TestRankItems:
    def test_orders_by_score(self):
        p = params_from(np.zeros((1, 1)), np.zeros((3, 1)), [0.1, 0.9, 0.5])
        assert rank_items(p, 0) == [1, 2, 0]

    def test_ties_break_by_index(self):
        p = params_from(np.zeros((1, 1)), np.zeros((4, 1)))
        assert rank_items(p, 0) == [0, 1, 2, 3]

    def test_exclude_all(self):
        p = init_params(1, 3, 2, seed=0)
        assert rank_items(p, 0, exclude={0, 1, 2}) == []

    def test_permutation_and_sortedness(self):
        p = init_params(4, 30, 5, seed=6)
        exclude = {1, 7, 19}
        ranked = rank_items(p, 2, exclude=exclude)
        assert sorted(ranked) == [i for i in range(30) if i not in exclude]
        scores = score_items(p, 2, ranked)
        assert np.all(np.diff(scores) <= 1e-15)


def tie_heavy_params(num_users=7, num_items=40, dim=3, seed=0):
    """Items copied from only 5 distinct (row, bias) pairs, so every score repeats."""
    rng = np.random.default_rng(seed)
    source = rng.integers(0, 5, num_items)
    item_emb = rng.normal(size=(5, dim))[source]
    bias = rng.normal(size=5)[source]
    return params_from(rng.normal(size=(num_users, dim)), item_emb, bias)


class TestTopK:
    @pytest.mark.parametrize(
        "params",
        [params_from(np.zeros((7, 2)), np.zeros((40, 2))), tie_heavy_params()],
        ids=["all-zero", "duplicated-items"],
    )
    @pytest.mark.parametrize("k", [1, 5, 39, 40, 60])
    def test_equals_rank_items_prefix_on_ties(self, params, k, monkeypatch):
        monkeypatch.setattr(ranker, "TOP_K_BLOCK", 3)  # several blocks of users
        rng = np.random.default_rng(k)
        users = np.arange(params.num_users)
        excluded = [rng.choice(40, size=int(rng.integers(0, 12)), replace=False) for _ in users]
        plain = top_k(params, users, k)
        pruned = top_k(params, users, k, excluded)
        for u in users:
            for got, exclude in ((plain[u], ()), (pruned[u], excluded[u])):
                want = rank_items(params, int(u), exclude=exclude)[:k]
                assert got[got >= 0].tolist() == want
                assert np.all(got[len(want):] == -1)

    def test_all_zero_scores_pick_smallest_indices(self):
        p = params_from(np.zeros((2, 1)), np.zeros((6, 1)))
        got = top_k(p, [0, 1], 3, [[0, 2], []])
        assert got.tolist() == [[1, 3, 4], [0, 1, 2]]

    def test_random_scores_match_rank_items(self, monkeypatch):
        monkeypatch.setattr(ranker, "TOP_K_BLOCK", 4)
        p = init_params(10, 50, 6, seed=3)
        p.item_bias[:] = np.random.default_rng(1).normal(size=50)
        got = top_k(p, np.arange(10)[::-1], 12)
        for row, u in zip(got, range(9, -1, -1)):
            assert row.tolist() == rank_items(p, u)[:12]

    def test_short_rows_padded(self):
        p = init_params(2, 4, 2, seed=0)
        got = top_k(p, [0, 1], 3, [[0, 1, 2], [0, 1, 2, 3]])
        assert got[0, 0] == 3 and got[0, 1:].tolist() == [-1, -1]
        assert got[1].tolist() == [-1, -1, -1]

    def test_out_of_range(self):
        p = init_params(2, 4, 2, seed=0)
        with pytest.raises(IndexError):
            top_k(p, [2], 1)
        with pytest.raises(IndexError):
            top_k(p, [0], 1, [[4]])


class TestAuc:
    def test_perfect_separation(self):
        ds = make_dataset({0: {0}}, validation={0: {1, 2}}, num_items=5)
        p = params_from(np.zeros((1, 2)), np.zeros((5, 2)), [0.0, 1.0, 1.0, 0.0, 0.0])
        assert auc(p, ds, "validation", np.random.default_rng(0), 30) == 1.0

    def test_all_ties_half(self):
        ds = make_dataset({0: {0}}, validation={0: {1}}, num_items=5)
        p = params_from(np.zeros((1, 2)), np.zeros((5, 2)))
        assert auc(p, ds, "validation", np.random.default_rng(0), 30) == 0.5

    def test_empty_split(self):
        ds = make_dataset({0: {0}}, num_items=3)
        with pytest.raises(ValueError):
            auc(init_params(1, 3, 2, seed=0), ds, "validation", np.random.default_rng(0))

    def test_trained_beats_chance(self):
        ds = low_rank_dataset(60, 90, rank=2, per_user=20, noise=0.25, seed=5)
        p = init_params(60, 90, 8, seed=[5, 0])
        cfg = TrainConfig(lr=0.15, reg=1e-4, epochs=1, loss_kind="bpr", batch_size=8)
        for e in range(12):
            p, _ = bpr_epoch(p, ds, cfg, np.random.default_rng([5, 1 + e]))
        assert auc(p, ds, "validation", np.random.default_rng([5, 99]), 30) > 0.7


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = init_params(4, 6, 3, seed=12)
        p.item_bias[:] = np.random.default_rng(0).normal(size=6)
        save_checkpoint(p, tmp_path / "ck", seed=12, loss_kind="bpr", epochs_trained=7)
        loaded, header = load_checkpoint(tmp_path / "ck")
        assert header["num_users"] == 4 and header["num_items"] == 6 and header["dim"] == 3
        assert header["loss_kind"] == "bpr" and header["epochs_trained"] == 7
        # float32 storage: exact at float32 resolution
        np.testing.assert_allclose(loaded.user_emb, p.user_emb, atol=1e-6)
        np.testing.assert_allclose(loaded.item_bias, p.item_bias, atol=1e-6)

    def test_byte_lengths_and_layout(self, tmp_path):
        p = init_params(3, 5, 2, seed=1)
        _, sidecar = save_checkpoint(p, tmp_path / "ck")
        _, header = load_checkpoint(tmp_path / "ck")
        sizes = {name: meta["bytes"] for name, meta in header["arrays"].items()}
        assert sizes == {"user_emb": 3 * 2 * 4, "item_emb": 5 * 2 * 4, "item_bias": 5 * 4}
        assert sidecar.stat().st_size == sum(sizes.values())
        # first array in the sidecar is user_emb, row-major little-endian f4
        raw = np.frombuffer(sidecar.read_bytes()[: 3 * 2 * 4], dtype="<f4").reshape(3, 2)
        np.testing.assert_allclose(raw, p.user_emb.astype("<f4"))

    def test_sidecar_length_must_match_header(self, tmp_path):
        p = init_params(3, 5, 2, seed=1)
        _, sidecar = save_checkpoint(p, tmp_path / "ck")
        good = sidecar.read_bytes()
        sidecar.write_bytes(good + b"\x00" * 4)
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ck")
        sidecar.write_bytes(good[:-4])
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ck")

    def test_failed_save_keeps_previous_pair(self, tmp_path):
        old = init_params(3, 5, 2, seed=1)
        save_checkpoint(old, tmp_path / "ck", epochs_trained=1)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        # the sidecar is fully written, then the header's JSON fails part-way
        with pytest.raises(TypeError):
            save_checkpoint(init_params(3, 5, 2, seed=2), tmp_path / "ck", seed=object())
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
        loaded, header = load_checkpoint(tmp_path / "ck")
        assert header["epochs_trained"] == 1
        np.testing.assert_allclose(loaded.user_emb, old.user_emb, atol=1e-6)

    def test_identical_saves_are_bitwise_equal(self, tmp_path):
        p = init_params(3, 4, 2, seed=5)
        save_checkpoint(p, tmp_path / "a", seed=5, loss_kind="bpr")
        save_checkpoint(p, tmp_path / "b", seed=5, loss_kind="bpr")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
