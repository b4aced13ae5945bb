import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2

from calibrec.dataset import Csr, Dataset
from calibrec.distill import (
    BdConfig,
    _distill_pass,
    _step_groups,
    bd_loss,
    bd_score_grads,
    cotrain_epoch,
    draw_distill_items,
    top_t_rows,
    top_t_weights,
)
from calibrec.ranker import MfParams, TrainConfig, init_params, pointwise_epoch
from calibrec.synthetic import low_rank_dataset

from conftest import make_dataset
from oracles import (
    copy_params,
    finite_difference_grad,
    full_sort_ranking,
    rank_discrepancy_weights,
    reference_distill_pass,
    relative_error,
)


class TestRankDiscrepancyWeights:
    """The dict reference that ``TestTopTWeights`` holds ``top_t_weights`` to."""

    def test_zero_discrepancy(self):
        row = {1: 1, 2: 2, 3: 3}
        weights = rank_discrepancy_weights(row, dict(row), eta=1.0, truncate_rank=10)
        assert all(w == 0.0 for w in weights.values())

    def test_large_discrepancy_saturates(self):
        weights = rank_discrepancy_weights({7: 100}, {7: 1}, eta=1.0, truncate_rank=500)
        assert weights[7] == pytest.approx(np.tanh(99.0))
        assert weights[7] == pytest.approx(1.0, abs=1e-6)

    def test_positive_iff_other_strictly_better(self):
        rng = np.random.default_rng(6)
        items = list(range(40))
        for _ in range(20):
            r_this = {i: r + 1 for i, r in zip(items, rng.permutation(40))}
            r_other = {i: r + 1 for i, r in zip(items, rng.permutation(40))}
            trunc = int(rng.integers(1, 50))
            weights = rank_discrepancy_weights(r_this, r_other, eta=0.3, truncate_rank=trunc)
            for i in items:
                better = min(r_other[i], trunc) < min(r_this[i], trunc)
                assert (weights[i] > 0) == better

    def test_nondecreasing_in_discrepancy(self):
        eta, trunc = 0.2, 1000
        values = [
            rank_discrepancy_weights({0: 1 + d}, {0: 1}, eta, trunc)[0] for d in range(100)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_truncation_clamps(self):
        weights = rank_discrepancy_weights({0: 900}, {0: 150}, eta=1.0, truncate_rank=100)
        assert weights[0] == 0.0

    def test_mismatched_candidates(self):
        with pytest.raises(ValueError):
            rank_discrepancy_weights({0: 1}, {1: 1}, eta=1.0, truncate_rank=5)


def draw_one_row(weights: dict[int, float], n: int, rng) -> list[int]:
    """``draw_distill_items`` on one row of (item, weight) pairs, padding dropped."""
    items = np.array(sorted(weights), dtype=np.int64)
    w = np.array([weights[int(i)] for i in items], dtype=float)
    drawn = draw_distill_items(items[None, :], w[None, :], n, rng)[0]
    return drawn[drawn >= 0].tolist()


class TestSampleDistillItems:
    def test_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert draw_one_row({3: 0.0, 9: 0.7}, 1, rng) == [9]

    def test_all_zero_weights(self):
        assert draw_one_row({1: 0.0, 2: 0.0}, 3, np.random.default_rng(0)) == []

    def test_returns_all_when_fewer_than_n(self):
        out = draw_one_row({5: 0.2, 8: 0.9, 11: 0.0}, 10, np.random.default_rng(0))
        assert out == [5, 8]

    def test_no_repeats(self):
        rng = np.random.default_rng(5)
        weights = {i: float(w) for i, w in enumerate(rng.random(30))}
        for _ in range(50):
            out = draw_one_row(weights, 10, rng)
            assert len(out) == len(set(out)) == 10

    def test_frequency_matches_weights(self):
        rng = np.random.default_rng(11)
        draws = 10_000
        hits = sum(draw_one_row({0: 0.9, 1: 0.1}, 1, rng) == [0] for _ in range(draws))
        sigma = np.sqrt(draws * 0.9 * 0.1)
        assert abs(hits - draws * 0.9) <= 3 * sigma

    @pytest.mark.parametrize("form", ["rows", "one_row"])
    def test_ordered_pair_law(self, form):
        # ordered first two draws against the sequential proportional draws:
        # P(i, j) = w_i / W * w_j / (W - w_i)
        w = np.array([0.45, 0.3, 0.15, 0.1])
        rng = np.random.default_rng(17)
        if form == "rows":
            draws = 40_000
            items = np.tile(np.arange(4), (draws, 1))
            pairs = draw_distill_items(items, np.tile(w, (draws, 1)), 2, rng)
        else:
            draws = 8_000
            weights = dict(enumerate(w.tolist()))
            pairs = np.array([draw_one_row(weights, 2, rng) for _ in range(draws)])
        observed = np.zeros((4, 4))
        np.add.at(observed, (pairs[:, 0], pairs[:, 1]), 1)
        off = ~np.eye(4, dtype=bool)
        expected = draws * np.outer(w, w) / w.sum() / (w.sum() - w)[:, None]
        assert observed[~off].sum() == 0
        stat = np.sum((observed[off] - expected[off]) ** 2 / expected[off])
        assert chi2.sf(stat, df=off.sum() - 1) > 1e-3

    def test_padding_and_zero_weights_never_drawn(self):
        rng = np.random.default_rng(23)
        items = np.where(rng.random((2000, 12)) < 0.2, -1, rng.integers(0, 500, (2000, 12)))
        weights = np.where((items >= 0) & (rng.random((2000, 12)) < 0.6), rng.random((2000, 12)), 0.0)
        for n in (1, 3, 12):
            drawn = draw_distill_items(items, weights, n, rng)
            assert drawn.shape == (2000, n)
            for row_items, row_w, row in zip(items, weights, drawn):
                allowed = row_items[row_w > 0]
                got = row[row >= 0]
                assert set(got) <= set(allowed)
                assert len(got) == min(n, len(allowed))
                assert np.all(row[len(got):] == -1)
                if len(allowed) <= n:
                    assert got.tolist() == sorted(allowed)


class TestBdLoss:
    def test_equal_probs_gives_target_entropy(self):
        probs = np.array([0.3, 0.8, 0.55])
        entropy = np.mean(-(probs * np.log(probs) + (1 - probs) * np.log(1 - probs)))
        assert bd_loss(probs, probs) == pytest.approx(entropy)

    def test_confident_target_half_learner(self):
        assert bd_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(np.log(2.0))

    def test_empty_items(self):
        assert bd_loss(np.empty(0), np.empty(0)) == 0.0

    def test_lower_bounded_by_target_entropy(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(0.05, 0.95, 12)
        entropy = np.mean(-(t * np.log(t) + (1 - t) * np.log(1 - t)))
        for _ in range(20):
            assert bd_loss(rng.uniform(0.01, 0.99, 12), t) >= entropy - 1e-12
        assert bd_loss(t.copy(), t) == pytest.approx(entropy)

    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(0, 2, 8)
        targets = rng.uniform(0.1, 0.9, 8)

        def loss_of_scores(s):
            return bd_loss(expit(s), targets)

        analytic = bd_score_grads(expit(scores), targets)
        fd = finite_difference_grad(loss_of_scores, scores, h=1e-5)
        for i, g_fd in fd.items():
            assert relative_error(analytic[i], g_fd) < 1e-5


@pytest.fixture(scope="module")
def cotrain_setup():
    dataset = low_rank_dataset(30, 50, rank=2, per_user=12, noise=0.25, seed=8)
    base_cfg = TrainConfig(lr=0.1, reg=1e-4, batch_size=8, negatives_per_positive=2)
    teacher = init_params(30, 50, 16, seed=[8, 0, 0])
    student = init_params(30, 50, 4, seed=[8, 0, 1])
    return dataset, base_cfg, teacher, student


def _crowded_dataset(num_users=14, num_items=40, seed=4):
    """Train rows from 0 to all of the items, so some users have fewer than T candidates."""
    rng = np.random.default_rng(seed)
    sizes = [num_items, num_items - 1, num_items - 3, num_items - 9] + list(
        rng.integers(2, 16, num_users - 4)
    )
    users = np.repeat(np.arange(num_users), sizes)
    items = np.concatenate([rng.choice(num_items, k, replace=False) for k in sizes])
    empty = Csr.from_pairs([], [], num_users, num_items)
    train = Csr.from_pairs(users, items, num_users, num_items)
    return Dataset(num_users, num_items, train, empty, empty)


def _params(kind, num_users, num_items, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":  # every score tied
        return MfParams(np.zeros((num_users, 3)), np.zeros((num_items, 3)), np.zeros(num_items))
    p = MfParams(rng.normal(size=(num_users, 3)), rng.normal(size=(num_items, 3)),
                 rng.normal(size=num_items))
    if kind == "coarse":  # many ties at every rank
        p = MfParams(np.round(p.user_emb), np.round(p.item_emb), np.round(p.item_bias))
    return p


class TestTopTWeights:
    @pytest.mark.parametrize("truncate_rank", [1, 2, 8, 31, 40, 60])
    @pytest.mark.parametrize(
        "kinds", [("zero", "zero"), ("zero", "normal"), ("normal", "coarse"), ("coarse", "normal")]
    )
    def test_equal_dict_weights_over_full_rank_rows(self, kinds, truncate_rank):
        dataset = _crowded_dataset()
        own = _params(kinds[0], dataset.num_users, dataset.num_items, seed=1)
        other = _params(kinds[1], dataset.num_users, dataset.num_items, seed=2)
        eta = 0.3
        own_top = top_t_rows(own, dataset, truncate_rank)
        other_top = top_t_rows(other, dataset, truncate_rank)
        weights = top_t_weights(own_top, other_top, eta, truncate_rank)
        assert weights.shape == other_top.shape
        assert np.all(weights[other_top < 0] == 0.0)
        for user in range(dataset.num_users):
            exclude = dataset.train.row(user)
            rank_own = {i: r + 1 for r, i in enumerate(full_sort_ranking(own, user, exclude))}
            rank_other = {i: r + 1 for r, i in enumerate(full_sort_ranking(other, user, exclude))}
            want = rank_discrepancy_weights(rank_own, rank_other, eta, truncate_rank)
            row = other_top[user]
            got = dict(zip(row[row >= 0].tolist(), weights[user][row >= 0].tolist()))
            assert set(got) <= set(want)
            # every item outside the counterpart's top-T weighs 0 in the full form
            assert {i: got.get(i, 0.0) for i in want} == want


def _waves(drawn: np.ndarray) -> list[int]:
    """Each user's wave by its definition, -1 for an empty user."""
    latest, waves = {}, []
    for row in drawn:
        row = row[row >= 0].tolist()
        waves.append(1 + max([latest.get(i, -1) for i in row]) if row else -1)
        latest.update(dict.fromkeys(row, waves[-1]))
    return waves


class TestDistillPass:
    """``_distill_pass`` steps waves of users; it must equal the per-user
    reference bit for bit: parameters, loss, counts and generator state."""

    # case -> (users, items, truncate_rank, sample_size, lambda)
    CASES = {
        # 30 items: every user draws 6 of its top 15, so most users share items
        "crowded": (40, 30, 15, 6, 0.7),
        # rows with fewer positive weights than 10 draw them all: counts differ
        "few-positive": (40, 60, 8, 10, 0.4),
        # T = 1 gives no item a positive weight
        "all-empty": (12, 30, 1, 5, 0.5),
        "lambda-zero": (20, 30, 15, 6, 0.0),
    }

    @staticmethod
    def inputs(case, dim):
        num_users, num_items, truncate_rank, sample_size, lam = TestDistillPass.CASES[case]
        dataset = low_rank_dataset(num_users, num_items, rank=2, per_user=8, seed=3)
        rng = np.random.default_rng([dim, num_items])
        learner = MfParams(rng.normal(size=(num_users, dim)), rng.normal(size=(num_items, dim)),
                           rng.normal(size=num_items))
        counterpart = MfParams(rng.normal(size=(num_users, 4)), rng.normal(size=(num_items, 4)),
                               rng.normal(size=num_items))
        bd_cfg = BdConfig(lambda_ts=lam, lambda_st=lam, sample_size=sample_size, eta=0.4,
                          truncate_rank=truncate_rank)
        tops = [top_t_rows(model, dataset, truncate_rank) for model in (learner, counterpart)]
        return learner, counterpart, *tops, lam, bd_cfg

    @pytest.mark.parametrize("dim", [5, 8, 64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_per_user_reference(self, case, dim):
        learner, counterpart, own_top, other_top, lam, bd_cfg = self.inputs(case, dim)
        base_cfg = TrainConfig(lr=0.3)
        got_model, want_model = copy_params(learner), copy_params(learner)
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = _distill_pass(got_model, own_top, other_top, counterpart, lam, base_cfg, bd_cfg,
                            got_rng)
        want = reference_distill_pass(want_model, own_top, other_top, counterpart, lam, base_cfg,
                                      bd_cfg, want_rng)
        assert got == want
        for name in ("user_emb", "item_emb", "item_bias"):
            assert np.array_equal(getattr(got_model, name), getattr(want_model, name)), name
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

        # the case covers what it names
        num_users = len(own_top)
        if case == "lambda-zero":
            assert got == (0.0, 0, 0)
            assert got_rng.bit_generator.state == np.random.default_rng(11).bit_generator.state
            return
        weights = top_t_weights(own_top, other_top, bd_cfg.eta, bd_cfg.truncate_rank)
        drawn = draw_distill_items(other_top, weights, bd_cfg.sample_size,
                                   np.random.default_rng(11))
        waves = np.array(_waves(drawn))
        counts = np.count_nonzero(drawn >= 0, axis=1)
        if case == "all-empty":
            assert got[1:] == (0, num_users)
        elif case == "crowded":
            # most users share an item with an earlier user, and waves hold several users
            assert np.count_nonzero(waves > 0) > num_users / 2
            assert np.bincount(waves).max() > 1
            assert set(counts.tolist()) == {bd_cfg.sample_size}
        else:
            assert any(len(set(counts[waves == w].tolist())) > 1 for w in set(waves.tolist()))

    @pytest.mark.parametrize("case", ["crowded", "few-positive"])
    def test_groups_step_conflict_free_waves_in_order(self, case):
        _, _, own_top, other_top, _, bd_cfg = self.inputs(case, 5)
        weights = top_t_weights(own_top, other_top, bd_cfg.eta, bd_cfg.truncate_rank)
        drawn = draw_distill_items(other_top, weights, bd_cfg.sample_size,
                                   np.random.default_rng(11))
        counts = np.count_nonzero(drawn >= 0, axis=1)
        groups = _step_groups(drawn, counts)
        waves = _waves(drawn)
        # every user that drew an item is in exactly one group
        members = np.concatenate(groups)
        assert sorted(members.tolist()) == np.flatnonzero(counts).tolist()
        # groups go wave by wave; a group's users share their count and no item
        assert [waves[g[0]] for g in groups] == sorted(waves[g[0]] for g in groups)
        for group in groups:
            assert {waves[u] for u in group.tolist()} == {waves[group[0]]}
            assert len(set(counts[group].tolist())) == 1
            items = drawn[group][drawn[group] >= 0]
            assert len(set(items.tolist())) == len(items)
        # each item's users step in user order
        step = {u: n for n, group in enumerate(groups) for u in group.tolist()}
        for item in set(drawn[drawn >= 0].tolist()):
            users = np.flatnonzero((drawn == item).any(axis=1)).tolist()
            assert [step[u] for u in users] == sorted(step[u] for u in users)
            assert len({step[u] for u in users}) == len(users)


class TestStackedMatmul:
    """The distillation pass scores a group's users by stacked ``np.matmul``
    and assumes each user's products are bit for bit the one-user
    ``Q @ p`` and ``g @ Q``; zero-padded counts would not be."""

    @pytest.mark.parametrize("dim", [5, 8, 64])
    def test_stacked_products_equal_per_user_products(self, dim):
        rng = np.random.default_rng(dim)
        item_emb = rng.normal(size=(400, dim))
        user_emb = rng.normal(size=(32, dim))
        for count in range(1, 11):
            for k in (1, 2, 3, 7, 16, 32):
                users = rng.choice(32, size=k, replace=False)
                idx = rng.choice(400, size=(k, count), replace=False)
                g = rng.normal(size=(k, count))
                q_rows, p = item_emb[idx], user_emb[users]
                scores = np.matmul(q_rows, p[:, :, None])[:, :, 0]
                grads = np.matmul(g[:, None, :], q_rows)[:, 0, :]
                for j in range(k):
                    one_rows, p_u = item_emb[idx[j]], user_emb[users[j]].copy()
                    assert np.array_equal(scores[j], one_rows @ p_u), (count, k, j)
                    assert np.array_equal(grads[j], g[j] @ one_rows), (count, k, j)


class TestCotrainEpoch:
    def test_top_t_rows_equal_rank_items_prefix(self, cotrain_setup):
        dataset, _, teacher, student = cotrain_setup
        for params in (teacher, student):
            for t in (1, 25, 37, 60):
                rows = top_t_rows(params, dataset, t)
                assert rows.shape == (dataset.num_users, min(t, dataset.num_items))
                for user in range(dataset.num_users):
                    want = full_sort_ranking(params, user, dataset.train.row(user))[:t]
                    assert rows[user, : len(want)].tolist() == want
                    assert np.all(rows[user, len(want):] == -1)

    def test_lambda_zero_matches_independent_training(self, cotrain_setup):
        dataset, base_cfg, teacher, student = cotrain_setup
        bd_cfg = BdConfig(lambda_ts=0.0, lambda_st=0.0, sample_size=5, eta=0.5,
                          truncate_rank=25, epochs=1)
        t1, s1, report = cotrain_epoch(
            teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng(71)
        )
        teacher_rng, student_rng, _ = np.random.default_rng(71).spawn(3)
        t2, base_t = pointwise_epoch(teacher, dataset, base_cfg, teacher_rng)
        s2, base_s = pointwise_epoch(student, dataset, base_cfg, student_rng)
        for got, want in ((t1, t2), (s1, s2)):
            assert np.array_equal(got.user_emb, want.user_emb)
            assert np.array_equal(got.item_emb, want.item_emb)
            assert np.array_equal(got.item_bias, want.item_bias)
        assert report.teacher.base_loss == base_t
        assert report.student.base_loss == base_s
        assert report.teacher.sampled_total == report.student.sampled_total == 0

    def test_sample_counts_bounded(self, cotrain_setup):
        dataset, base_cfg, teacher, student = cotrain_setup
        bd_cfg = BdConfig(lambda_ts=0.4, lambda_st=0.4, sample_size=6, eta=0.5,
                          truncate_rank=25, epochs=1)
        _, _, report = cotrain_epoch(
            teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng(3)
        )
        limit = bd_cfg.sample_size * dataset.num_users
        assert 0 < report.teacher.sampled_total <= limit
        assert 0 < report.student.sampled_total <= limit

    def test_student_distill_loss_decreases_against_frozen_teacher(self, cotrain_setup):
        dataset, _, teacher, student = cotrain_setup
        # pre-train the teacher alone so its targets carry a signal
        base_cfg = TrainConfig(lr=0.2, reg=1e-4, batch_size=8, negatives_per_positive=4)
        frozen = copy_params(teacher)
        for e in range(40):
            frozen, _ = pointwise_epoch(
                frozen, dataset, base_cfg, np.random.default_rng([90, e])
            )
        bd_cfg = BdConfig(lambda_ts=0.0, lambda_st=3.0, sample_size=10, eta=0.3,
                          truncate_rank=30, epochs=1)
        cur = copy_params(student)
        losses = []
        for e in range(10):
            _, cur, report = cotrain_epoch(
                copy_params(frozen), cur, dataset, base_cfg, bd_cfg, np.random.default_rng([91, e])
            )
            losses.append(report.student.distill_loss)
        drops = sum(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert drops >= 0.8 * (len(losses) - 1)

    def test_inputs_not_mutated(self, cotrain_setup):
        dataset, base_cfg, teacher, student = cotrain_setup
        t_copy = copy_params(teacher)
        bd_cfg = BdConfig(lambda_ts=0.5, lambda_st=0.5, sample_size=4, eta=0.5,
                          truncate_rank=20, epochs=1)
        cotrain_epoch(teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng(1))
        assert np.array_equal(teacher.user_emb, t_copy.user_emb)
        assert np.array_equal(teacher.item_emb, t_copy.item_emb)

    def test_empty_train_split_raises(self):
        # 3 users x 4 items whose one pair is a validation pair
        ds = make_dataset({}, validation={0: {1}}, num_users=3, num_items=4)
        with pytest.raises(ValueError, match="train split is empty"):
            cotrain_epoch(
                init_params(3, 4, 4, seed=0), init_params(3, 4, 2, seed=1), ds,
                TrainConfig(), BdConfig(), np.random.default_rng(2),
            )


class TestBdConfig:
    @pytest.mark.parametrize("field", ["epochs"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            BdConfig(**{field: -1})

    def test_zero_counts_accepted(self):
        assert BdConfig(epochs=0).epochs == 0
