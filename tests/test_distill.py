import numpy as np
import pytest
from scipy.special import expit

from calibrec.distill import (
    BdConfig,
    bd_loss,
    bd_score_grads,
    build_rank_table,
    cotrain_epoch,
    rank_discrepancy_weights,
    sample_distill_items,
)
from calibrec.ranker import TrainConfig, init_params, pointwise_epoch
from calibrec.synthetic import low_rank_dataset

from oracles import finite_difference_grad, relative_error


class TestRankDiscrepancyWeights:
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


class TestSampleDistillItems:
    def test_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_distill_items({3: 0.0, 9: 0.7}, 1, rng) == [9]

    def test_all_zero_weights(self):
        assert sample_distill_items({1: 0.0, 2: 0.0}, 3, np.random.default_rng(0)) == []

    def test_returns_all_when_fewer_than_n(self):
        out = sample_distill_items({5: 0.2, 8: 0.9, 11: 0.0}, 10, np.random.default_rng(0))
        assert out == [5, 8]

    def test_no_repeats(self):
        rng = np.random.default_rng(5)
        weights = {i: float(w) for i, w in enumerate(rng.random(30))}
        for _ in range(50):
            out = sample_distill_items(weights, 10, rng)
            assert len(out) == len(set(out)) == 10

    def test_frequency_matches_weights(self):
        rng = np.random.default_rng(11)
        draws = 10_000
        hits = sum(sample_distill_items({0: 0.9, 1: 0.1}, 1, rng) == [0] for _ in range(draws))
        sigma = np.sqrt(draws * 0.9 * 0.1)
        assert abs(hits - draws * 0.9) <= 3 * sigma


class TestBdLoss:
    def test_equal_probs_gives_target_entropy(self):
        probs = {0: 0.3, 1: 0.8, 2: 0.55}
        entropy = np.mean(
            [-(t * np.log(t) + (1 - t) * np.log(1 - t)) for t in probs.values()]
        )
        assert bd_loss(probs, dict(probs), list(probs)) == pytest.approx(entropy)

    def test_confident_target_half_learner(self):
        assert bd_loss({4: 0.5}, {4: 1.0}, [4]) == pytest.approx(np.log(2.0))

    def test_empty_items(self):
        assert bd_loss({}, {}, []) == 0.0

    def test_lower_bounded_by_target_entropy(self):
        rng = np.random.default_rng(9)
        items = list(range(12))
        t = {i: float(v) for i, v in zip(items, rng.uniform(0.05, 0.95, 12))}
        entropy = np.mean(
            [-(v * np.log(v) + (1 - v) * np.log(1 - v)) for v in t.values()]
        )
        for _ in range(20):
            q = {i: float(v) for i, v in zip(items, rng.uniform(0.01, 0.99, 12))}
            assert bd_loss(q, t, items) >= entropy - 1e-12
        assert bd_loss(dict(t), t, items) == pytest.approx(entropy)

    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(0, 2, 8)
        targets = rng.uniform(0.1, 0.9, 8)
        items = list(range(8))

        def loss_of_scores(s):
            return bd_loss(
                {i: float(expit(v)) for i, v in zip(items, s)},
                {i: float(t) for i, t in zip(items, targets)},
                items,
            )

        analytic = bd_score_grads(expit(scores), targets)
        fd = finite_difference_grad(loss_of_scores, scores, h=1e-5)
        for i, g_fd in fd.items():
            assert relative_error(analytic[i], g_fd) < 1e-5


@pytest.fixture(scope="module")
def cotrain_setup():
    dataset = low_rank_dataset(30, 50, rank=2, per_user=12, noise=0.25, seed=8)
    base_cfg = TrainConfig(
        lr=0.1, reg=1e-4, epochs=1, batch_size=8, loss_kind="pointwise",
        negatives_per_positive=2,
    )
    teacher = init_params(30, 50, 16, seed=[8, 0, 0])
    student = init_params(30, 50, 4, seed=[8, 0, 1])
    return dataset, base_cfg, teacher, student


class TestCotrainEpoch:
    def test_rank_table_is_bijection(self, cotrain_setup):
        dataset, _, teacher, _ = cotrain_setup
        table = build_rank_table(teacher, dataset)
        for user in range(dataset.num_users):
            row = table.row(user)
            n = dataset.num_items - len(dataset.train.row(user))
            assert sorted(row.values()) == list(range(1, n + 1))

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

    def test_requires_pointwise_base(self, cotrain_setup):
        dataset, _, teacher, student = cotrain_setup
        cfg = TrainConfig(loss_kind="bpr")
        with pytest.raises(ValueError):
            cotrain_epoch(teacher, student, dataset, cfg, BdConfig(), np.random.default_rng(0))

    def test_student_distill_loss_decreases_against_frozen_teacher(self, cotrain_setup):
        dataset, _, teacher, student = cotrain_setup
        # pre-train the teacher alone so its targets carry a signal
        base_cfg = TrainConfig(
            lr=0.2, reg=1e-4, epochs=1, batch_size=8, loss_kind="pointwise",
            negatives_per_positive=4,
        )
        frozen = teacher.copy()
        for e in range(40):
            frozen, _ = pointwise_epoch(
                frozen, dataset, base_cfg, np.random.default_rng([90, e])
            )
        bd_cfg = BdConfig(lambda_ts=0.0, lambda_st=3.0, sample_size=10, eta=0.3,
                          truncate_rank=30, epochs=1)
        cur = student.copy()
        losses = []
        for e in range(10):
            _, cur, report = cotrain_epoch(
                frozen.copy(), cur, dataset, base_cfg, bd_cfg, np.random.default_rng([91, e])
            )
            losses.append(report.student.distill_loss)
        drops = sum(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert drops >= 0.8 * (len(losses) - 1)

    def test_inputs_not_mutated(self, cotrain_setup):
        dataset, base_cfg, teacher, student = cotrain_setup
        t_copy = teacher.copy()
        bd_cfg = BdConfig(lambda_ts=0.5, lambda_st=0.5, sample_size=4, eta=0.5,
                          truncate_rank=20, epochs=1)
        cotrain_epoch(teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng(1))
        assert np.array_equal(teacher.user_emb, t_copy.user_emb)
        assert np.array_equal(teacher.item_emb, t_copy.item_emb)
