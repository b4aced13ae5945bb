import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from calibrec import ranker
from calibrec.dataset import Csr
from calibrec.ranker import (
    MfParams,
    TrainConfig,
    bpr_epoch,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    save_checkpoint,
    score_items,
    score_pairs,
    sigmoid,
    top_k,
)
from calibrec.synthetic import low_rank_dataset

from conftest import make_dataset, retype_array
from oracles import (
    auc,
    bincount_add,
    finite_difference_grad,
    full_sort_ranking,
    reference_batched_bpr_epoch,
    reference_batched_pointwise_epoch,
    reference_bpr_epoch,
    reference_pointwise_epoch,
    relative_error,
)


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
        assert score_items(p, 0, [0])[0] == pytest.approx(0.7)

    def test_orthogonal(self):
        p = params_from([[1.0, 0.0]], [[0.0, 1.0]])
        assert score_items(p, 0, [0])[0] == 0.0

    def test_hand_arithmetic(self):
        # [1,2] . [3,4] + 0.5 = 11.5 and [1,2] . [1,0] - 1 = 0, in item order
        p = params_from([[1.0, 2.0]], [[3.0, 4.0], [1.0, 0.0]], [0.5, -1.0])
        np.testing.assert_allclose(score_items(p, 0, [0, 1, 0]), [11.5, 0.0, 11.5])

    def test_out_of_range(self):
        p = init_params(2, 2, 2, seed=0)
        with pytest.raises(IndexError):
            score_items(p, 2, [0])
        with pytest.raises(IndexError):
            score_items(p, -1, [0])

    @pytest.mark.parametrize("item", [-1, 2], ids=["negative", "num_items"])
    def test_item_out_of_range(self, item):
        # -1 would otherwise score the last item silently
        p = init_params(2, 2, 2, seed=0)
        with pytest.raises(IndexError, match=r"item index out of range \[0, 2\)"):
            score_items(p, 0, [0, item])

    def test_bilinear_scaling(self):
        p = init_params(3, 4, 5, seed=1)
        base = score_items(p, 1, [2])[0] - p.item_bias[2]
        p.user_emb[1] *= 2.5
        assert score_items(p, 1, [2])[0] - p.item_bias[2] == pytest.approx(2.5 * base)



class TestScorePairs:
    @pytest.mark.parametrize("n", [0, 1, ranker.SCORE_CHUNK, ranker.SCORE_CHUNK + 1])
    def test_matches_score_items(self, n):
        # few users, so each one is paired many times and chunks split users
        p = init_params(7, 30, 4, seed=3)
        p.item_bias[:] = np.random.default_rng(4).normal(size=30)
        rng = np.random.default_rng(n)
        users, items = rng.integers(0, 7, n), rng.integers(0, 30, n)
        got = score_pairs(p, users, items)
        expected = [score_items(p, int(u), [i])[0] for u, i in zip(users, items)]
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_length_mismatch(self):
        p = init_params(2, 3, 2, seed=0)
        with pytest.raises(ValueError):
            score_pairs(p, [0, 1], [0])

    @pytest.mark.parametrize("users, items", [([2], [0]), ([-1], [0]), ([0], [3]), ([0], [-1])])
    def test_out_of_range(self, users, items):
        p = init_params(2, 3, 2, seed=0)
        with pytest.raises(IndexError):
            score_pairs(p, users, items)


class TestSigmoid:
    def test_within_two_ulp_of_expit(self):
        edges = [-1000.0, -800.0, -709.8, -0.0, 0.0, 709.8, 800.0, 1000.0]
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001), edges])
        np.testing.assert_array_max_ulp(sigmoid(x), expit(x), maxulp=2)

    def test_exact_at_the_extremes(self):
        got = sigmoid(np.array([-np.inf, -1000.0, -745.2, 745.2, 1000.0, np.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert sigmoid(-0.0) == 0.5

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 4)])
    def test_keeps_shape(self, shape):
        x = np.full(shape, -1000.0)
        assert np.shape(sigmoid(x)) == shape

    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid(np.array([-1000.0, 1000.0]))
            sigmoid(-1000.0)


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
        cfg = TrainConfig(lr=0.0, reg=0.01, batch_size=7)
        new, _ = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert np.array_equal(new.user_emb, p.user_emb)
        assert np.array_equal(new.item_emb, p.item_emb)
        assert np.array_equal(new.item_bias, p.item_bias)

    def test_lr_zero_loss_is_ln2_at_zero_params(self, small_dataset):
        # zero parameters make every score difference 0, so each sampled
        # triple contributes exactly -ln sigmoid(0) = ln 2
        U, I = small_dataset.num_users, small_dataset.num_items
        p = params_from(np.zeros((U, 4)), np.zeros((I, 4)))
        cfg = TrainConfig(lr=0.0, reg=0.1, batch_size=1)
        _, loss = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # one train positive (item 0) and one candidate negative (item 1):
        # the epoch is a single SGD step on a single known triple
        ds = make_dataset({0: {0}}, num_items=2)
        reg = 0.03
        cfg = TrainConfig(lr=0.5, reg=reg, batch_size=1)
        rng = np.random.default_rng(5)
        params = MfParams(
            rng.normal(0, 0.5, (1, 4)), rng.normal(0, 0.5, (2, 4)), rng.normal(0, 0.5, 2)
        )
        grads = extract_epoch_gradient(bpr_epoch, params, ds, cfg, seed=8)

        def objective(theta):
            p = MfParams(
                theta[:4].reshape(1, 4).copy(), theta[4:12].reshape(2, 4).copy(), theta[12:].copy()
            )
            s_pos, s_neg = score_items(p, 0, [0, 1])
            x = s_pos - s_neg
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
        cfg = TrainConfig(lr=0.1, reg=1e-4, batch_size=8)
        p1, first = bpr_epoch(p, ds, cfg, np.random.default_rng([4, 1]))
        cur = p1
        for e in range(2, 21):
            cur, last = bpr_epoch(cur, ds, cfg, np.random.default_rng([4, e]))
        assert last < first

    def test_deterministic(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(lr=0.1, reg=1e-3, batch_size=5)
        a, la = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(77))
        b, lb = bpr_epoch(p, small_dataset, cfg, np.random.default_rng(77))
        assert la == lb
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)


class TestPointwiseEpoch:
    def test_symmetric_start_loss(self, small_dataset):
        U, I = small_dataset.num_users, small_dataset.num_items
        p = params_from(np.zeros((U, 3)), np.zeros((I, 3)))
        cfg = TrainConfig(lr=0.0, reg=0.0, negatives_per_positive=3, batch_size=4)
        _, loss = pointwise_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_lr_zero_params_unchanged(self, small_dataset):
        p = init_params(small_dataset.num_users, small_dataset.num_items, 4, seed=3)
        cfg = TrainConfig(lr=0.0, reg=0.01, batch_size=1, negatives_per_positive=1)
        new, _ = pointwise_epoch(p, small_dataset, cfg, np.random.default_rng(0))
        assert np.array_equal(new.user_emb, p.user_emb)
        assert np.array_equal(new.item_emb, p.item_emb)

    def test_gradient_matches_finite_differences(self):
        # item 1 is the only train positive, item 0 the forced negative
        ds = make_dataset({0: {1}}, num_users=1, num_items=2)
        reg = 0.05
        cfg = TrainConfig(lr=0.25, reg=reg, negatives_per_positive=1, batch_size=1)
        rng = np.random.default_rng(9)
        params = MfParams(
            rng.normal(0, 0.5, (1, 3)), rng.normal(0, 0.5, (2, 3)), rng.normal(0, 0.5, 2)
        )
        grads = extract_epoch_gradient(pointwise_epoch, params, ds, cfg, seed=2)

        def objective(theta):
            p = MfParams(
                theta[:3].reshape(1, 3).copy(), theta[3:9].reshape(2, 3).copy(), theta[9:].copy()
            )
            s_neg, s_pos = score_items(p, 0, [0, 1])
            pos = np.logaddexp(0.0, -s_pos) + reg * (
                np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[1] ** 2)
            )
            neg = np.logaddexp(0.0, s_neg) + reg * (
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


class TestEmptyTrainSplit:
    @pytest.mark.parametrize("epoch_fn", [bpr_epoch, pointwise_epoch], ids=["bpr", "pointwise"])
    def test_epoch_raises_before_any_draw(self, epoch_fn):
        # 3 users x 4 items whose one pair is a validation pair: the mean
        # loss would divide by zero train pairs
        ds = make_dataset({}, validation={0: {1}}, num_users=3, num_items=4)
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="train split is empty"):
            epoch_fn(init_params(3, 4, 2, seed=0), ds, TrainConfig(), rng)
        assert rng.bit_generator.state == state


def scatter_rows(table, rows, values, slot=None):
    """``ranker._scatter_rows`` called as the epochs call it: the rows
    gathered before the update, ``values`` copied since the call overwrites
    them, a ``slot`` of stale contents unless one is given, and positions
    and flags longer than the rows, the flags stale too."""
    rows = np.asarray(rows, dtype=np.int64)
    if slot is None:
        slot = np.full(len(table), 7, dtype=np.int64)
    ranker._scatter_rows(
        table, rows, table[rows], np.array(values, dtype=float), slot,
        np.arange(len(rows) + 3), np.ones(len(rows) + 3, dtype=bool),
    )


class TestScatterRows:
    """``ranker._scatter_rows`` bit for bit against ``oracles.bincount_add``
    (each row's values summed in input order by one full-table
    ``np.bincount``, then added once) and within rounding of ``np.add.at``."""

    @pytest.mark.parametrize(
        "rows",
        [[5, 0, 2, 7], [3, 0, 3, 1, 3, 5, 0, 3], [2, 2, 2, 2], [1]],
        ids=["distinct", "repeated", "single", "one-row"],
    )
    def test_matches_bincount_add(self, rows):
        # "repeated" scatters row 3 four times, never twice in a row
        rng = np.random.default_rng(22)
        table = rng.normal(size=(2 * len(rows) + 1, 3))
        values = rng.normal(size=(len(rows), 3))
        expected = table.copy()
        bincount_add(expected, rows, values)
        added = table.copy()
        np.add.at(added, rows, values)
        scatter_rows(table, rows, values)
        assert table.tobytes() == expected.tobytes()
        np.testing.assert_allclose(table, added, rtol=1e-15, atol=1e-15)

    def test_repeats_sum_in_input_order(self):
        # 1e16 + 1.0 rounds back to 1e16, so only the input order ends at 0.0;
        # adding the two large values first would leave 1.0
        table = np.zeros((9, 2))
        values = np.repeat([[1e16], [3.0], [1.0], [-1e16]], 2, axis=1)
        scatter_rows(table, [4, 2, 4, 4], values)
        assert table[4].tolist() == [0.0, 0.0]
        assert not np.signbit(table[4]).any()
        assert table[2].tolist() == [3.0, 3.0]
        assert not table[(np.arange(9) != 4) & (np.arange(9) != 2)].any()

    def test_slot_left_by_an_earlier_call(self):
        # the second call finds the first one's positions in slot, some of
        # them naming rows it scatters again
        rng = np.random.default_rng(23)
        table = rng.normal(size=(40, 4))
        expected = table.copy()
        slot = np.empty(40, dtype=np.int64)
        for rows in ([7, 30, 7, 2, 11], [11, 7, 19, 11, 11]):
            values = rng.normal(size=(5, 4))
            bincount_add(expected, rows, values)
            scatter_rows(table, rows, values, slot)
        assert table.tobytes() == expected.tobytes()

    def test_touched_path_keeps_untouched_bits(self):
        # -0.0 and nan survive in rows the batch does not touch
        table = np.arange(60.0).reshape(20, 3) / 7.0
        table[0] = -0.0
        table[5] = np.nan
        before = table.copy()
        scatter_rows(table, [9, 2, 9], np.ones((3, 3)))
        untouched = np.setdiff1d(np.arange(20), [2, 9])
        assert table[untouched].tobytes() == before[untouched].tobytes()
        np.testing.assert_allclose(table[[2, 9]], before[[2, 9]] + [[1.0], [2.0]])

    def test_one_row_table(self):
        table = np.array([[0.5, -1.25]])
        scatter_rows(table, [0, 0], [[1.0, 2.0], [0.25, 0.5]])
        assert table.tolist() == [[1.75, 1.25]]


class TestEpochsMatchReference:
    """The batched steps against the per-example ``np.add.at`` loops they replaced.

    12 users x 20 items with 8 train items each and batches of 16 positives:
    every batch repeats users and items, so a wrong duplicate sum or a wrong
    (npp + 1) factor on the pointwise L2 term moves the result far beyond
    the tolerance, which only allows for a different summation order.
    """

    @staticmethod
    def dataset():
        return low_rank_dataset(12, 20, rank=2, per_user=10, noise=0.2, seed=6)

    @staticmethod
    def assert_close(new, ref):
        for name in ("user_emb", "item_emb", "item_bias"):
            np.testing.assert_allclose(
                getattr(new, name), getattr(ref, name), rtol=1e-12, atol=1e-12
            )

    EPOCHS = pytest.mark.parametrize(
        "epoch_fn, reference",
        [(bpr_epoch, reference_bpr_epoch), (pointwise_epoch, reference_pointwise_epoch)],
        ids=["bpr", "pointwise"],
    )

    def run_three_epochs(self, epoch_fn, reference, reg, batch_size, dim=5):
        """Three epochs against the reference."""
        ds = self.dataset()
        cfg = TrainConfig(lr=0.5, reg=reg, batch_size=batch_size, negatives_per_positive=3)
        new = ref = MfParams(*(
            np.random.default_rng(31).normal(0, 0.3, shape)
            for shape in ((12, dim), (20, dim), (20,))
        ))
        for epoch in range(3):
            new, new_loss = epoch_fn(new, ds, cfg, np.random.default_rng([7, epoch]))
            ref, ref_loss = reference(ref, ds, cfg, np.random.default_rng([7, epoch]))
            assert new_loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
            self.assert_close(new, ref)

    @EPOCHS
    @pytest.mark.parametrize("reg", [0.0, 0.05], ids=["reg0", "reg"])
    def test_three_epochs(self, epoch_fn, reference, reg):
        # batches of 16 scatter at least 32 rows, many of them repeats, into
        # the 32-row table
        self.run_three_epochs(epoch_fn, reference, reg, 16)

    @EPOCHS
    @pytest.mark.parametrize("reg", [0.0, 0.05], ids=["reg0", "reg"])
    def test_three_epochs_touched_rows(self, epoch_fn, reference, reg):
        # 6 rows per BPR batch of 2 and 5 per pointwise batch of 1 (npp 3)
        # against the 32-row table: a few touched rows per batch
        batch_size = 2 if epoch_fn is bpr_epoch else 1
        self.run_three_epochs(epoch_fn, reference, reg, batch_size)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_pointwise_at_the_benchmark_dims(self, dim):
        # the cotrain-s student and teacher dims, where the einsum scores and
        # user-gradient contraction run their vector loops
        self.run_three_epochs(pointwise_epoch, reference_pointwise_epoch, 0.05, 16, dim)

    def test_batches_repeat_users_and_items(self):
        ds = self.dataset()
        users, items = ds.train.pairs()
        order = np.random.default_rng([7, 0]).permutation(len(users))[:16]
        assert len(np.unique(users[order])) < 16
        assert len(np.unique(items[order])) < 16


class TestEpochsMatchBatchedReference:
    """The epochs against the fresh per-batch arrays their per-epoch buffers
    replaced (``oracles.reference_batched_*``), bit for bit, loss included.
    The references scatter with ``oracles.bincount_add``, not the library's
    scatters.

    The data are ``TestEpochsMatchReference``'s: 96 train positives in
    which every batch of 16 repeats users and items. A batch of 36 leaves a
    partial last batch of 24, a batch of 1 touches a few rows of the table,
    and a batch of 200 is one batch whose buffers hold exactly the 96.
    Dimension 19 puts each row's dot product past numpy's eight-wide
    unrolled summation, where reordering would show.
    """

    EPOCHS = pytest.mark.parametrize(
        "epoch_fn, reference",
        [
            (bpr_epoch, reference_batched_bpr_epoch),
            (pointwise_epoch, reference_batched_pointwise_epoch),
        ],
        ids=["bpr", "pointwise"],
    )

    @pytest.mark.parametrize(
        "batch_size, reg, npp",
        [(16, 0.05, 3), (36, 0.05, 3), (1, 0.05, 3), (16, 0.0, 1), (36, 0.0, 4),
         (200, 0.05, 3)],
        ids=["repeats", "partial", "touched", "reg0-npp1", "reg0-npp4-partial", "one-batch"],
    )
    @EPOCHS
    def test_three_epochs_bit_identical(self, epoch_fn, reference, batch_size, reg, npp):
        ds = TestEpochsMatchReference.dataset()
        cfg = TrainConfig(lr=0.5, reg=reg, batch_size=batch_size, negatives_per_positive=npp)
        new = ref = MfParams(*(
            np.random.default_rng(32).normal(0, 0.3, shape)
            for shape in ((12, 19), (20, 19), (20,))
        ))
        for epoch in range(3):
            new, new_loss = epoch_fn(new, ds, cfg, np.random.default_rng([8, epoch]))
            ref, ref_loss = reference(ref, ds, cfg, np.random.default_rng([8, epoch]))
            assert new_loss == ref_loss
            for name in ("user_emb", "item_emb", "item_bias"):
                np.testing.assert_array_equal(getattr(new, name), getattr(ref, name))
                # array_equal takes -0.0 for 0.0; the bytes do not
                assert getattr(new, name).tobytes() == getattr(ref, name).tobytes()

    @EPOCHS
    def test_write_back_of_repeated_rows(self, epoch_fn, reference, monkeypatch):
        # 6 rows per batch of 2 (BPR, or pointwise with npp 1) against the
        # 32-row table: some batches repeat a row, some do not
        repeated = []
        scatter_rows = ranker._scatter_rows
        def spy(table, rows, *rest):
            repeated.append(len(np.unique(rows)) < len(rows))
            scatter_rows(table, rows, *rest)
        monkeypatch.setattr(ranker, "_scatter_rows", spy)
        self.test_three_epochs_bit_identical(epoch_fn, reference, 2, 0.05, 1)
        assert any(repeated) and not all(repeated)


def exclusions(rows, num_items):
    """One ``Csr`` row per entry of ``rows`` (item collections)."""
    rows = [np.asarray(list(r), dtype=np.int64) for r in rows]
    users = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    items = np.concatenate([np.empty(0, dtype=np.int64)] + rows)
    return Csr.from_pairs(users, items, len(rows), num_items)


def ranked(params, u, exclude=None):
    """One user's full-length ``top_k`` row without its -1 padding."""
    row = top_k(params, [u], params.num_items, exclude)[0]
    return row[row >= 0].tolist()


class TestRankItems:
    def test_orders_by_score(self):
        p = params_from(np.zeros((1, 1)), np.zeros((3, 1)), [0.1, 0.9, 0.5])
        assert ranked(p, 0) == [1, 2, 0]

    def test_ties_break_by_index(self):
        p = params_from(np.zeros((1, 1)), np.zeros((4, 1)))
        assert ranked(p, 0) == [0, 1, 2, 3]

    def test_exclude_all(self):
        p = init_params(1, 3, 2, seed=0)
        assert ranked(p, 0, exclusions([{0, 1, 2}], 3)) == []

    def test_permutation_and_sortedness(self):
        p = init_params(4, 30, 5, seed=6)
        exclude = {1, 7, 19}
        got = ranked(p, 2, exclusions([(), (), exclude, ()], 30))
        assert sorted(got) == [i for i in range(30) if i not in exclude]
        scores = score_items(p, 2, got)
        assert np.all(np.diff(scores) <= 1e-15)


def tie_heavy_params(num_users=7, num_items=40, dim=3, seed=0):
    """Items copied from only 5 distinct (row, bias) pairs, so every score repeats.

    Every entry is a multiple of 1/8, so each score is exact and copies tie
    exactly in whatever order a product sums its terms.
    """
    rng = np.random.default_rng(seed)

    def grid(*shape):
        return rng.integers(-8, 9, size=shape) / 8.0

    source = rng.integers(0, 5, num_items)
    item_emb = grid(5, dim)[source]
    bias = grid(5)[source]
    return params_from(grid(num_users, dim), item_emb, bias)


class TestTopK:
    @pytest.mark.parametrize(
        "params",
        [params_from(np.zeros((7, 2)), np.zeros((40, 2))), tie_heavy_params()],
        ids=["all-zero", "duplicated-items"],
    )
    @pytest.mark.parametrize("k", [*range(1, 41), 60])
    def test_equals_rank_items_prefix_on_ties(self, params, k, monkeypatch):
        # against the full-sort oracle, over several blocks of users, at
        # every width; rows left with under k candidates tie at -inf
        monkeypatch.setattr(ranker, "TOP_K_BLOCK", 3)
        rng = np.random.default_rng(k)
        users = np.arange(params.num_users)
        excluded = [rng.choice(40, size=int(rng.integers(0, 41)), replace=False) for _ in users]
        plain = top_k(params, users, k)
        pruned = top_k(params, users, k, exclusions(excluded, 40))
        for u in users:
            for got, exclude in ((plain[u], ()), (pruned[u], excluded[u])):
                want = full_sort_ranking(params, int(u), exclude)[:k]
                assert got[got >= 0].tolist() == want
                assert np.all(got[len(want):] == -1)

    def test_full_width_ties_with_exclusions_and_short_rows(self, monkeypatch):
        # every row at full catalog width, so each one is padded by exactly
        # its exclusions; the rows range from no exclusion to all of them
        monkeypatch.setattr(ranker, "TOP_K_BLOCK", 4)
        params = tie_heavy_params(num_users=10, num_items=30, seed=4)
        rng = np.random.default_rng(5)
        sizes = (0, 1, 29, 30, 15, 3, 0, 28, 7, 12)
        excluded = [rng.choice(30, size=n, replace=False) for n in sizes]
        got = top_k(params, np.arange(10), 30, exclusions(excluded, 30))
        for u, row in enumerate(got):
            want = full_sort_ranking(params, u, excluded[u])
            assert len(want) == 30 - len(excluded[u])
            assert row[: len(want)].tolist() == want
            assert np.all(row[len(want):] == -1)

    def test_block_mixes_partition_rows_and_cut_rows(self):
        # items 20-39 copy items 0-19 on a 1/1024 grid, so copies tie exactly
        # and other items almost never do; exclusions decide whether a row's
        # cut splits a tied pair, and rows left with under k items run short
        rng = np.random.default_rng(6)

        def grid(*shape):
            return rng.integers(-1024, 1025, size=shape) / 1024.0

        params = params_from(grid(24, 3), np.tile(grid(20, 3), (2, 1)), np.tile(grid(20), 2))
        sizes = [int(n) for n in rng.integers(0, 8, 20)] + [36, 37, 39, 40]
        excluded = [rng.choice(40, size=n, replace=False) for n in sizes]
        # the block holds untied rows, rows whose cut splits a tie and short rows
        scores = params.user_emb @ params.item_emb.T + params.item_bias
        for u, items in enumerate(excluded):
            scores[u, items] = -np.inf
        kth = np.sort(scores, axis=1)[:, -5]
        at_or_above = np.count_nonzero(scores >= kth[:, None], axis=1)
        short = kth == -np.inf
        assert short.sum() == 4
        assert 0 < np.count_nonzero(~short & (at_or_above > 5)) < 20
        assert np.any(at_or_above == 5)
        got = top_k(params, np.arange(24), 5, exclusions(excluded, 40))
        for u, row in enumerate(got):
            want = full_sort_ranking(params, u, excluded[u])[:5]
            assert row[: len(want)].tolist() == want
            assert np.all(row[len(want):] == -1)

    def test_all_zero_scores_pick_smallest_indices(self):
        p = params_from(np.zeros((2, 1)), np.zeros((6, 1)))
        got = top_k(p, [0, 1], 3, exclusions([[0, 2], []], 6))
        assert got.tolist() == [[1, 3, 4], [0, 1, 2]]

    def test_random_scores_match_rank_items(self, monkeypatch):
        monkeypatch.setattr(ranker, "TOP_K_BLOCK", 4)
        p = init_params(10, 50, 6, seed=3)
        p.item_bias[:] = np.random.default_rng(1).normal(size=50)
        got = top_k(p, np.arange(10)[::-1], 12)
        for row, u in zip(got, range(9, -1, -1)):
            assert row.tolist() == full_sort_ranking(p, u)[:12]

    def test_short_rows_padded(self):
        p = init_params(2, 4, 2, seed=0)
        got = top_k(p, [0, 1], 3, exclusions([[0, 1, 2], [0, 1, 2, 3]], 4))
        assert got[0, 0] == 3 and got[0, 1:].tolist() == [-1, -1]
        assert got[1].tolist() == [-1, -1, -1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["user_emb", "item_emb", "item_bias"])
    def test_non_finite_parameters_rejected(self, name, value, monkeypatch):
        # a NaN score would break the count at the cut, so nothing may be
        # scored: a call to the block ranker would raise a TypeError
        monkeypatch.setattr(ranker, "_ranked_block", None)
        p = init_params(2, 6, 2, seed=0)
        getattr(p, name).flat[2] = value
        with pytest.raises(ValueError, match=f"{name} holds values that are not finite"):
            top_k(p, [0, 1], 3)

    def test_out_of_range(self):
        p = init_params(2, 4, 2, seed=0)
        with pytest.raises(IndexError):
            top_k(p, [2], 1)
        # exclusions must have one row per model user and one column per item
        with pytest.raises(ValueError):
            top_k(p, [0], 1, exclusions([[4], []], 5))
        with pytest.raises(ValueError):
            top_k(p, [0], 1, exclusions([[1]], 4))


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
        cfg = TrainConfig(lr=0.15, reg=1e-4, batch_size=8)
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

    def test_sidecar_of_another_checkpoint_is_value_error(self, tmp_path):
        # a same-shape sibling's sidecar fits every length check
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        save_checkpoint(init_params(3, 5, 2, seed=2), tmp_path / "other")
        header = json.loads(header_path.read_text())
        header["sidecar"] = "other.bin"
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=r"ck\.json: checkpoint header .*'other\.bin'"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("drop", ["sidecar", "arrays", "item_emb", "offset"])
    def test_header_missing_key_is_value_error(self, tmp_path, drop):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        if drop in header:
            del header[drop]
        elif drop in header["arrays"]:
            del header["arrays"][drop]
        else:
            del header["arrays"]["item_bias"][drop]
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"checkpoint header.*{drop}"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("found", ["mf-checkpoint-v9", None], ids=["foreign", "missing"])
    def test_header_format_must_be_this_one(self, tmp_path, found):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        assert header["format"] == ranker.CHECKPOINT_FORMAT
        if found is None:
            del header["format"]
        else:
            header["format"] = found
        header_path.write_text(json.dumps(header))
        problem = f"checkpoint {header_path}: format {found!r} is not mf-checkpoint-v1"
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_checkpoint(tmp_path / "ck")

    def test_header_that_is_no_object_is_value_error(self, tmp_path):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header_path.write_text("[]")
        with pytest.raises(ValueError, match="format None"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("key, value", [("num_users", 7), ("num_items", 4), ("dim", 99)])
    def test_header_counts_must_match_arrays(self, tmp_path, key, value):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        header[key] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"checkpoint .*ck.json: header {key} {value} "):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("value", ["3", 2.5, -5, True, None],
                             ids=["text", "float", "negative", "bool", "missing"])
    def test_header_epochs_trained_must_be_a_count(self, tmp_path, value):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        if value is None:
            del header["epochs_trained"]
        else:
            header["epochs_trained"] = value
        header_path.write_text(json.dumps(header))
        problem = f"checkpoint {header_path}: header epochs_trained {value!r} is not an int >= 0"
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_checkpoint(tmp_path / "ck")

    # read as floats, each of these would load as other numbers or fail
    # without naming the file
    @pytest.mark.parametrize("dtype", ["<c8", "<i4", "|u1", "|b1", ">f4", "<f2", "<f8", "<M8[s]",
                                       "|S4"])
    @pytest.mark.parametrize("name", ["user_emb", "item_emb", "item_bias"])
    def test_array_dtype_must_be_the_saved_one(self, tmp_path, name, dtype):
        header_path, _ = save_checkpoint(init_params(3, 4, 2, seed=1), tmp_path / "ck")
        retype_array(header_path, name, dtype)
        problem = f"checkpoint {header_path}: {name} dtype '{dtype}' is not '<f4'"
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("key, value", [("dtype", "nope"), ("shape", [7, 2]), ("offset", -4)])
    def test_array_outside_its_span_is_value_error(self, tmp_path, key, value):
        header_path, _ = save_checkpoint(init_params(3, 5, 2, seed=1), tmp_path / "ck")
        header = json.loads(header_path.read_text())
        header["arrays"]["item_emb"][key] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="checkpoint sidecar .*ck.bin.*item_emb"):
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

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e39], ids=["inf", "nan", "f32-overflow"])
    @pytest.mark.parametrize("name", ["user_emb", "item_emb", "item_bias"])
    def test_non_finite_values_rejected(self, tmp_path, name, value):
        old = init_params(3, 5, 2, seed=1)
        save_checkpoint(old, tmp_path / "ck", epochs_trained=1)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        bad = init_params(3, 5, 2, seed=2)
        getattr(bad, name).flat[-1] = value
        with pytest.raises(ValueError, match=f"checkpoint {name} .*not finite in float32"):
            save_checkpoint(bad, tmp_path / "ck", epochs_trained=2)
        # no .partial file, and the earlier pair as it was
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_identical_saves_are_bitwise_equal(self, tmp_path):
        p = init_params(3, 4, 2, seed=5)
        save_checkpoint(p, tmp_path / "a", seed=5, loss_kind="bpr")
        save_checkpoint(p, tmp_path / "b", seed=5, loss_kind="bpr")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
