from typing import NamedTuple

import numpy as np
import pytest

from calibrec import perk
from calibrec.calibration import Calibrator, apply
from calibrec.perk import UTILITIES, PerkConfig, perk_recommend_users, select_k, utility_curves
from calibrec.dataset import Csr
from calibrec.ranker import init_params, score_items

from conftest import make_dataset
from oracles import (
    brute_force_pb,
    expected_f1,
    expected_ndcg,
    expected_precision,
    expected_recall,
    full_sort_ranking,
    mc_f1,
    mc_ndcg,
    mc_precision,
    mc_recall,
    pb_pmf,
    reference_utility_curve,
)


def one_curve(ranked, rest, kind):
    """``utility_curves`` on a single user's ranked and rest probabilities."""
    return utility_curves(np.reshape(ranked, (1, -1)), np.reshape(rest, (1, -1)), kind)[0]


def top_k_value(topk, rest, kind):
    """The product's expected top-k utility, k = len(topk), with ``rest`` beyond it."""
    return one_curve(topk, rest, kind)[-1]


# TestPbPmf and TestExpected* pin the definitional forms in tests/oracles.py
# to hand-computed values; the product is held to them further down.


class TestPbPmf:
    def test_empty(self):
        np.testing.assert_array_equal(pb_pmf([]), [1.0])

    def test_fair_coins(self):
        np.testing.assert_allclose(pb_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], atol=1e-15)

    def test_two_item_enumeration(self):
        np.testing.assert_allclose(pb_pmf([0.3, 0.7]), [0.21, 0.58, 0.21], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            probs = rng.random(n)
            np.testing.assert_allclose(pb_pmf(probs), brute_force_pb(probs), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            pmf = pb_pmf(rng.random(int(rng.integers(0, 40))))
            assert abs(pmf.sum() - 1.0) < 1e-9
            assert np.all(pmf >= 0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            pb_pmf([0.5, 1.2])
        with pytest.raises(ValueError):
            pb_pmf([np.nan])


class TestExpectedPrecision:
    def test_certain(self):
        assert expected_precision([1.0, 1.0]) == 1.0

    def test_linearity(self):
        assert expected_precision([0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_mean(self):
        assert expected_precision([0.9, 0.4, 0.2]) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(ValueError):
            expected_precision([])


class TestExpectedRecall:
    def test_single_certain(self):
        assert expected_recall([1.0], []) == pytest.approx(1.0)

    def test_nothing_recommended(self):
        assert expected_recall([], [0.7]) == 0.0

    def test_half_half(self):
        # outcomes: (1,0) -> 1, (1,1) -> 0.5, rest -> 0
        assert expected_recall([0.5], [0.5]) == pytest.approx(0.375)


class TestExpectedF1:
    def test_perfect_singleton(self):
        assert expected_f1([1.0], []) == pytest.approx(1.0)

    def test_no_true_positives(self):
        assert expected_f1([0.0], [0.8, 0.2]) == 0.0

    def test_empty_topk(self):
        with pytest.raises(ValueError):
            expected_f1([], [0.5])


class TestExpectedNdcg:
    def test_perfect_singleton(self):
        assert expected_ndcg([1.0], []) == pytest.approx(1.0)

    def test_nothing_relevant_recommended(self):
        assert expected_ndcg([0.0, 0.0], [0.9]) == 0.0

    def test_certain_topk_is_one(self):
        assert expected_ndcg([1.0, 1.0, 1.0], [0.3, 0.6]) == pytest.approx(1.0)


class TestMonteCarloAgreement:
    def test_f1_half_half_instance(self):
        exact = top_k_value([0.5, 0.5], [0.5], "f1")
        mean, se = mc_f1([0.5, 0.5], [0.5], 200_000, np.random.default_rng(301))
        assert abs(exact - mean) <= 3 * se

    def test_ndcg_mixed_instance(self):
        exact = top_k_value([0.8, 0.3], [0.5, 0.5], "ndcg")
        mean, se = mc_ndcg([0.8, 0.3], [0.5, 0.5], 200_000, np.random.default_rng(302))
        assert abs(exact - mean) <= 3 * se

    def test_all_utilities_within_three_se(self):
        rng = np.random.default_rng(31)
        # perk's utilities from the product, the two it does not offer from the oracles
        checks = {
            "precision": (mc_precision, lambda topk, rest: expected_precision(topk)),
            "recall": (mc_recall, expected_recall),
            "f1": (mc_f1, lambda topk, rest: top_k_value(topk, rest, "f1")),
            "ndcg": (mc_ndcg, lambda topk, rest: top_k_value(topk, rest, "ndcg")),
        }
        for trial in range(8):
            k = int(rng.integers(1, 8))
            r = int(rng.integers(0, 12))
            topk = rng.random(k)
            rest = rng.random(r)
            for name, (mc_fn, exact_fn) in checks.items():
                exact = exact_fn(topk, rest)
                mean, se = mc_fn(topk, rest, 60_000, np.random.default_rng([31, trial]))
                assert abs(exact - mean) <= 3 * max(se, 1e-9), (name, trial)

    def test_utilities_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            topk = rng.random(int(rng.integers(1, 10)))
            rest = rng.random(int(rng.integers(0, 15)))
            for kind in UTILITIES:
                assert 0.0 <= top_k_value(topk, rest, kind) <= 1.0


class TestMonotoneCoherence:
    def test_appending_zero_probability_item(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            topk = list(rng.random(int(rng.integers(1, 8))))
            rest = list(rng.random(int(rng.integers(0, 8))))
            extended = topk + [0.0]
            longer = top_k_value(extended, rest, "f1")
            assert longer <= top_k_value(topk, rest, "f1") + 1e-12


class TestUtilitiesThatCannotSizeAList:
    """Why perk offers neither precision nor recall, on the definitional forms."""

    def test_expected_recall_never_falls(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            k_max = int(rng.integers(1, 30))
            probs = rng.random(k_max + int(rng.integers(0, 30)))
            probs[rng.random(len(probs)) < 0.2] = 0.0
            probs[rng.random(len(probs)) < 0.2] = 1.0
            curve = [expected_recall(probs[:k], probs[k:]) for k in range(1, k_max + 1)]
            assert np.all(np.diff(curve) >= -1e-12)
            assert np.isclose(curve[select_k(curve) - 1], curve[-1], rtol=0, atol=1e-12)

    def test_expected_precision_of_a_nonincreasing_vector_peaks_at_one(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            probs = np.sort(rng.random(int(rng.integers(1, 30))))[::-1]
            if rng.random() < 0.5:
                probs = np.round(probs, 1)  # ties
            curve = [expected_precision(probs[:k]) for k in range(1, len(probs) + 1)]
            assert np.all(np.diff(curve) <= 1e-12)
            assert select_k(curve) == 1


class TestUtilityCurve:
    def test_hand_computed_f1_curve(self):
        np.testing.assert_allclose(
            one_curve([1.0, 0.0], [], "f1"), [1.0, 2.0 / 3.0], atol=1e-12
        )

    def test_matches_standalone_operations(self):
        rng = np.random.default_rng(35)
        ranked = rng.random(7)
        rest = rng.random(5)
        standalone = {
            "f1": [
                expected_f1(ranked[:k], np.concatenate([ranked[k:], rest]))
                for k in range(1, 8)
            ],
            "ndcg": [
                expected_ndcg(ranked[:k], np.concatenate([ranked[k:], rest]))
                for k in range(1, 8)
            ],
        }
        for kind, expected in standalone.items():
            np.testing.assert_allclose(
                one_curve(ranked, rest, kind), expected, atol=1e-9
            )

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            one_curve([0.5], [], "hits")


def probability_cases(seed):
    """(ranked, rest) pairs: K from 1 to 50, R from 0 to 300, exact 0s, 1s and ties."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 0), (1, 300), (50, 0), (50, 300), (2, 1), (3, 3), (7, 12), (12, 100),
              (20, 40), (33, 7)]
    cases = []
    for n, (k, r) in enumerate(shapes):
        probs = rng.random(k + r)
        if n % 4 == 1:
            probs[rng.random(k + r) < 0.3] = 0.0
        elif n % 4 == 2:
            probs[rng.random(k + r) < 0.3] = 1.0
        elif n % 4 == 3:
            probs = np.round(probs, 1)  # ties, some at 0 and 1
        cases.append((probs[:k], probs[k:]))
    cases += [
        (np.zeros(4), np.zeros(5)),
        (np.ones(9), np.ones(3)),
        (np.full(6, 0.5), np.full(8, 0.5)),
        (np.sort(rng.random(15))[::-1], np.array([1.0, 0.0, 1.0])),
    ]
    return cases


def padded_block(cases):
    """All cases in one block: ragged rows padded with probability 0."""
    k_max = max(len(ranked) for ranked, _ in cases)
    width = max(len(rest) for _, rest in cases)
    ranked_block = np.zeros((len(cases), k_max))
    rest_block = np.zeros((len(cases), width))
    for row, (ranked, rest) in enumerate(cases):
        ranked_block[row, : len(ranked)] = ranked
        rest_block[row, : len(rest)] = rest
    return ranked_block, rest_block


def assert_matches_reference(got, ranked, rest, kind):
    """``got`` within 1e-12 of the reference curve, with the same k* unless the
    reference's top two values lie within 1e-12 of each other."""
    expected = reference_utility_curve(ranked, rest, kind)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=kind)
    top_two = np.sort(expected)[::-1][:2]
    if len(top_two) == 1 or top_two[0] - top_two[1] > 1e-12:
        assert select_k(got) == select_k(expected), (kind, len(ranked), len(rest))


class TestUtilityCurves:
    @pytest.mark.parametrize("kind", UTILITIES)
    def test_ragged_block_matches_reference(self, kind):
        cases = probability_cases(41)
        curves = utility_curves(*padded_block(cases), kind)
        for (ranked, rest), curve in zip(cases, curves):
            assert_matches_reference(curve[: len(ranked)], ranked, rest, kind)

    @pytest.mark.parametrize("kind", UTILITIES)
    def test_blocking_changes_only_rounding(self, kind, monkeypatch):
        block = padded_block(probability_cases(42))
        whole = utility_curves(*block, kind)
        for block_users in (1, 7):  # 14 users: 14 blocks or 2
            monkeypatch.setattr(perk, "_BLOCK_USERS", block_users)
            # block GEMMs may round differently, nothing more
            np.testing.assert_allclose(utility_curves(*block, kind), whole, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", UTILITIES)
    def test_random_pools_match_reference(self, kind):
        rng = np.random.default_rng({"f1": 47, "ndcg": 48}[kind])
        for _ in range(30):
            k = int(rng.integers(1, 51))
            r = int(rng.integers(0, 301))
            probs = rng.random(k + r)
            probs[rng.random(k + r) < 0.1] = 0.0
            probs[rng.random(k + r) < 0.1] = 1.0
            ranked, rest = probs[:k], probs[k:]
            assert_matches_reference(one_curve(ranked, rest, kind), ranked, rest, kind)

    def test_values_in_unit_interval(self):
        cases = probability_cases(44)
        for kind in UTILITIES:
            curves = utility_curves(*padded_block(cases), kind)
            assert np.all((curves >= 0.0) & (curves <= 1.0)), kind
        # a certain top item makes ndcg@1 exactly 1; unclipped sums round above it
        for ranked, rest in [(np.ones((1, 50)), np.ones((1, 300))),
                             (np.ones((1, 1)), np.full((1, 40), 0.1))]:
            certain = utility_curves(ranked, rest, "ndcg")
            assert np.all((certain >= 0.0) & (certain <= 1.0))
            np.testing.assert_allclose(certain, 1.0, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            utility_curves(np.full((2, 3), 0.5), np.full((3, 1), 0.5), "f1")
        with pytest.raises(ValueError):
            utility_curves(np.full(3, 0.5), np.full(3, 0.5), "f1")
        with pytest.raises(ValueError):
            utility_curves(np.empty((2, 0)), np.empty((2, 0)), "f1")
        with pytest.raises(ValueError):
            utility_curves([[0.5, 1.5]], [[0.5]], "ndcg")
        with pytest.raises(ValueError):
            utility_curves([[0.5]], [[0.5]], "hits")

    @pytest.mark.parametrize("kind", ["precision", "recall"])
    def test_rejects_utilities_that_cannot_size_a_list(self, kind):
        with pytest.raises(ValueError, match="f1.*ndcg"):
            utility_curves([[0.6, 0.3]], [[0.1]], kind)
        with pytest.raises(ValueError, match="f1.*ndcg"):
            PerkConfig(utility=kind)


class TestSelectK:
    def test_tie_breaks_small(self):
        assert select_k([0.2, 0.5, 0.5]) == 2

    def test_increasing_curve(self):
        assert select_k(np.linspace(0, 1, 17)) == 17

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            curve = rng.random(int(rng.integers(1, 30)))
            best = 1 + min(range(len(curve)), key=lambda i: (-curve[i], i))
            assert select_k(curve) == best

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            curve = rng.random(12)
            assert select_k(curve) == select_k(np.exp(3.0 * curve) + 7.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            select_k([])

    def test_stack_of_curves_row_by_row(self):
        rng = np.random.default_rng(38)
        curves = rng.integers(0, 4, size=(40, 9)).astype(float)  # ties in most rows
        curves[3, 5:] = -np.inf  # a row masked past its pool
        k = select_k(curves)
        assert k.tolist() == [select_k(row) for row in curves]
        assert isinstance(select_k(curves[0]), int)


class Cut(NamedTuple):
    """One row of ``perk_recommend_users``' arrays, its padding cut off."""

    user: int
    k_star: int
    items: list
    curve: np.ndarray
    k_max_effective: int


def cuts_of(lists):
    return [
        Cut(int(user), int(k), row[:k].tolist(), curve[:n], int(n))
        for user, k, row, curve, n in zip(
            lists.users, lists.k_star, lists.items, lists.curves, lists.k_max_effective
        )
    ]


def perk_one(params, cal, dataset, user, cfg):
    """One user's cut, its train items excluded."""
    return cuts_of(perk_recommend_users(params, cal, dataset.train, [user], cfg))[0]


class TestPerkRecommend:
    def make_setup(self, num_items=30):
        dataset = make_dataset(
            {0: {0, 1}}, validation={0: {2}}, test={0: {3}}, num_items=num_items
        )
        params = init_params(1, num_items, 4, seed=40)
        params.item_bias[:] = np.linspace(1.0, -1.0, num_items)
        return dataset, params

    def test_constant_one_calibrator_cuts_at_k_max(self):
        dataset, params = self.make_setup()
        # a calibrator mapping every score to 1 makes all 11 candidates
        # relevant, so f1 at k is 2k / (k + 11), rising to k_max
        cal = Calibrator("platt", a=0.0, b=500.0)
        cfg = PerkConfig(k_max=6, utility="f1", rest_pool=5)
        cut = perk_one(params, cal, dataset, 0, cfg)
        k = np.arange(1, 7)
        np.testing.assert_allclose(cut.curve, 2 * k / (k + 11), rtol=0, atol=1e-12)
        assert cut.k_star == cut.k_max_effective == 6
        assert len(cut.items) == 6

    def test_pool_smaller_than_k_max(self):
        dataset, params = self.make_setup(num_items=6)
        cal = Calibrator("platt", a=1.0, b=0.0)
        cfg = PerkConfig(k_max=10, utility="f1", rest_pool=0)
        cut = perk_one(params, cal, dataset, 0, cfg)
        assert cut.k_max_effective == 4  # 6 items minus 2 train
        assert len(cut.curve) == 4

    def test_items_are_rank_prefix(self):
        dataset, params = self.make_setup()
        cal = Calibrator("platt", a=1.5, b=-0.5)
        cfg = PerkConfig(k_max=8, utility="f1", rest_pool=10)
        cut = perk_one(params, cal, dataset, 0, cfg)
        ranked = full_sort_ranking(params, 0, exclude=dataset.train.row(0))
        assert cut.items == ranked[: cut.k_star]
        assert cut.k_star == select_k(cut.curve)

    def test_no_candidates(self):
        dataset = make_dataset({0: {0, 1}}, num_items=2)
        params = init_params(1, 2, 2, seed=1)
        cal = Calibrator("platt", a=1.0, b=0.0)
        with pytest.raises(ValueError):
            perk_one(params, cal, dataset, 0, PerkConfig(k_max=3))

    def test_gamma_without_shift_fails_on_negative_scores(self):
        dataset, params = self.make_setup()
        cal = Calibrator("gamma", a=1.0, b=0.0, c=0.0, score_shift=0.0)
        # pool deep enough to reach the negative-score region
        with pytest.raises(ValueError):
            perk_one(params, cal, dataset, 0, PerkConfig(k_max=5, rest_pool=25))


class TestPerkRecommendUsers:
    def make_setup(self):
        num_items = 25
        rng = np.random.default_rng(45)
        train = {
            u: set(rng.choice(num_items, 3 + u % 4, replace=False).tolist()) for u in range(9)
        }
        train[7] = set(range(21))  # a four-item pool, shorter than k_max
        validation = {u: {(3 * u + 1) % num_items} - train[u] for u in range(9)}
        dataset = make_dataset(train, validation=validation, num_items=num_items)
        params = init_params(9, num_items, 4, seed=46)
        return dataset, params, validation

    @pytest.mark.parametrize("utility", UTILITIES)
    def test_equals_per_user_form(self, utility, monkeypatch):
        dataset, params, _ = self.make_setup()
        cal = Calibrator("platt", a=1.3, b=-0.2)
        cfg = PerkConfig(k_max=6, utility=utility, rest_pool=7)
        users = [4, 0, 7, 8, 1, 2, 3, 6, 5]
        excluded = dataset.excluded(("train", "validation"))
        monkeypatch.setattr(perk, "_BLOCK_USERS", 4)  # blocks of 4, 4 and 1 users
        cuts = cuts_of(perk_recommend_users(params, cal, excluded, users, cfg))
        assert [cut.user for cut in cuts] == users
        for cut, user in zip(cuts, users):
            alone = cuts_of(perk_recommend_users(params, cal, excluded, [user], cfg))[0]
            assert (cut.k_star, cut.items, cut.k_max_effective) == (
                alone.k_star, alone.items, alone.k_max_effective
            )
            assert not set(cut.items) & set(excluded.row(user).tolist())
            np.testing.assert_allclose(cut.curve, alone.curve, rtol=0, atol=1e-12)

    def test_curves_match_reference(self):
        dataset, params, validation = self.make_setup()
        cal = Calibrator("platt", a=1.3, b=-0.2)
        cfg = PerkConfig(k_max=6, utility="ndcg", rest_pool=7)
        cuts = cuts_of(perk_recommend_users(params, cal, dataset.train, range(9), cfg))
        assert cuts[7].k_max_effective == 4
        for user, cut in enumerate(cuts):
            pool = full_sort_ranking(params, user, exclude=dataset.train.row(user))[:13]
            probs = np.atleast_1d(apply(cal, score_items(params, user, pool)))
            k = cut.k_max_effective
            expected = reference_utility_curve(probs[:k], probs[k:], "ndcg")
            np.testing.assert_allclose(cut.curve, expected, rtol=0, atol=1e-12)
            assert cut.items == pool[: cut.k_star]

    def test_empty_pool_and_extra_length(self):
        dataset, params, _ = self.make_setup()
        cal = Calibrator("platt", a=1.0, b=0.0)
        cfg = PerkConfig(k_max=3, rest_pool=2)
        # user 7's train row holds items 0..20; excluding 21..24 as well empties its pool
        rows, cols = dataset.train.pairs()
        excluded = Csr.from_pairs(
            np.concatenate([rows, [7] * 4]), np.concatenate([cols, range(21, 25)]),
            dataset.num_users, dataset.num_items,
        )
        with pytest.raises(ValueError, match="user 7"):
            perk_recommend_users(params, cal, excluded, [0, 7], cfg)
        empty = perk_recommend_users(params, cal, dataset.train, [], cfg)
        assert empty.items.shape == empty.curves.shape == (0, 3)
        assert empty.users.size == empty.k_star.size == empty.k_max_effective.size == 0

    def test_rows_are_padded_past_each_cut(self):
        dataset, params, _ = self.make_setup()
        cal = Calibrator("platt", a=1.3, b=-0.2)
        cfg = PerkConfig(k_max=6, utility="f1", rest_pool=7)
        lists = perk_recommend_users(params, cal, dataset.train, range(9), cfg)
        assert lists.items.shape == lists.curves.shape == (9, 6)
        positions = np.arange(6)
        np.testing.assert_array_equal(lists.items >= 0, positions < lists.k_star[:, None])
        np.testing.assert_array_equal(
            np.isfinite(lists.curves), positions < lists.k_max_effective[:, None]
        )
        assert lists.k_max_effective.tolist() == [6] * 7 + [4, 6]
