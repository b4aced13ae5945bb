import numpy as np
import pytest

from calibrec.metrics import evaluate

from conftest import make_dataset
from oracles import f1_at, ndcg_at, precision_at, recall_at


def padded(lists):
    """A user -> ranked list mapping as evaluate's (users, items) arrays, -1 padded."""
    width = max(map(len, lists.values()), default=0)
    items = np.full((len(lists), width), -1, dtype=np.int64)
    for row, ranked in enumerate(lists.values()):
        items[row, : len(ranked)] = ranked
    return np.array(list(lists), dtype=np.int64), items


class TestPrecisionAt:
    def test_all_hits(self):
        assert precision_at([1, 2, 3], {1, 2}, 2) == 1.0

    def test_no_overlap(self):
        assert precision_at([1, 2], {7}, 2) == 0.0

    def test_one_in_four(self):
        assert precision_at([1, 2, 3, 4], {4}, 4) == 0.25

    def test_divides_by_k_for_short_lists(self):
        assert precision_at([1], {1}, 4) == 0.25

    def test_bad_k(self):
        with pytest.raises(ValueError):
            precision_at([1], {1}, 0)


class TestRecallAt:
    def test_all_retrieved(self):
        assert recall_at([1, 2], {1, 2}, 5) == 1.0

    def test_none(self):
        assert recall_at([3], {1}, 1) == 0.0

    def test_half(self):
        assert recall_at([1, 2, 9, 8], {1, 2, 5, 6}, 4) == 0.5

    def test_empty_relevant(self):
        with pytest.raises(ValueError):
            recall_at([1], set(), 1)

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            items = list(rng.permutation(30))
            relevant = set(rng.choice(30, size=6, replace=False).tolist())
            values = [recall_at(items, relevant, k) for k in range(1, 31)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestF1At:
    def test_perfect_singleton(self):
        assert f1_at([4], {4}, 1) == 1.0

    def test_zero_hits(self):
        assert f1_at([1, 2], {5, 6}, 2) == 0.0

    def test_closed_form(self):
        assert f1_at([1, 9], {1, 5}, 2) == pytest.approx(0.5)  # 2*1/(2+2)

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            items = list(rng.permutation(25))
            relevant = set(rng.choice(25, size=int(rng.integers(1, 8)), replace=False).tolist())
            k = int(rng.integers(1, 20))
            hits = len(set(items[:k]) & relevant)
            if hits == 0:
                assert f1_at(items, relevant, k) == 0.0
                continue
            prec = hits / k
            rec = hits / len(relevant)
            harmonic = 2 * prec * rec / (prec + rec)
            assert f1_at(items, relevant, k) == pytest.approx(harmonic)


class TestNdcgAt:
    def test_relevant_on_top(self):
        assert ndcg_at([5, 6, 1], {5, 6}, 3) == pytest.approx(1.0)

    def test_no_hits(self):
        assert ndcg_at([1, 2], {9}, 2) == 0.0

    def test_single_relevant_at_position_two(self):
        assert ndcg_at([8, 3], {3}, 2) == pytest.approx(1.0 / np.log2(3.0), abs=1e-6)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            items = list(rng.permutation(20))
            relevant = set(rng.choice(20, size=5, replace=False).tolist())
            v = ndcg_at(items, relevant, int(rng.integers(1, 15)))
            assert 0.0 <= v <= 1.0


class TestEvaluate:
    def make_dataset(self):
        return make_dataset(
            {0: {0}, 1: {0}, 2: {0}},
            test={0: {1, 2}, 1: {3}},
            num_items=6,
        )

    def test_single_user_macro_equals_value(self):
        ds = make_dataset({0: {0}}, test={0: {1, 2}}, num_items=5)
        result = evaluate([0], [[1, 4, 2]], ds, split="test", metrics=("recall",), ks=(2,))
        assert result.rows[0].means["recall"] == recall_at([1, 4, 2], {1, 2}, 2)
        assert result.users_evaluated == 1

    def test_skips_users_without_relevant(self):
        ds = self.make_dataset()
        recs = {0: [1, 5], 1: [3, 4], 2: [2, 5]}
        result = evaluate(*padded(recs), ds, split="test", metrics=("precision",), ks=(1,))
        assert result.users_evaluated == 2
        assert result.users_skipped == 1
        assert result.rows[0].means["precision"] == pytest.approx(1.0)

    def test_permutation_invariant_over_users(self):
        ds = self.make_dataset()
        recs = {0: [2, 1], 1: [4, 3]}
        a = evaluate(*padded(recs), ds, split="test")
        b = evaluate(*padded({1: [4, 3], 0: [2, 1]}), ds, split="test")
        for ra, rb in zip(a.rows, b.rows):
            assert ra.means == rb.means

    def test_all_users_skipped(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            evaluate([2], [[1]], ds, split="test")

    def test_users_outside_dataset_are_skipped(self):
        ds = self.make_dataset()
        result = evaluate([-1, 0, 7], [[1], [1], [1]], ds, split="test", ks=(1,))
        assert (result.users_evaluated, result.users_skipped) == (1, 2)

    def test_personalized_cuts_row(self):
        ds = self.make_dataset()
        result = evaluate(
            [0, 1, 2], [[1, 2], [3, -1], [5, -1]], ds, split="test",
            metrics=("precision", "recall"), k_star=[2, 1, 1],
        )
        row = result.rows[0]
        assert row.label == "perk"
        assert result.users_skipped == 1
        assert row.mean_k_star == pytest.approx(1.5)
        assert row.means["precision"] == pytest.approx(1.0)  # both users all-hits
        assert row.means["recall"] == pytest.approx(1.0)

    def test_repeated_cut_user(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError, match="user 0 has more than one"):
            evaluate([0, 1, 0], [[1], [3], [5]], ds, split="test", k_star=[1, 1, 1])

    @pytest.mark.parametrize(
        "items, k_star, problem",
        [([[1], [3]], None, "one row per user"), ([1, 3, 5], None, "one row per user"),
         ([[1], [3], [5]], [1, 1], "one cutoff per user")],
        ids=["rows", "1-d", "k-star"],
    )
    def test_shapes_must_match_users(self, items, k_star, problem):
        ds = self.make_dataset()
        with pytest.raises(ValueError, match=problem):
            evaluate([0, 1, 2], items, ds, split="test", k_star=k_star)

    def test_unknown_metric(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            evaluate([0], [[1]], ds, split="test", metrics=("hitrate",))

    def test_cutoff_below_one(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate([0], [[1]], ds, split="test", metrics=("recall",), ks=(0,))


SCALAR = {"precision": precision_at, "recall": recall_at, "f1": f1_at, "ndcg": ndcg_at}


def scalar_row(lists, cutoff, held):
    """Per-user values and means from the scalar functions, one user at a time."""
    per_user = {m: {} for m in SCALAR}
    for u, items in lists.items():
        rel = set(held.row(u).tolist())
        for m, fn in SCALAR.items():
            per_user[m][u] = fn(items, rel, cutoff[u])
    means = {m: float(np.mean(list(vals.values()))) for m, vals in per_user.items()}
    return means, per_user


class TestEvaluateMatchesScalar:
    """The batched ``evaluate`` is bit-identical to the scalar metric loop."""

    @staticmethod
    def random_lists(seed, num_users=40, num_items=30):
        rng = np.random.default_rng(seed)
        ds = make_dataset(
            {u: {0} for u in range(num_users)},
            test={
                u: set(rng.choice(num_items, size=rng.integers(1, 12), replace=False).tolist())
                for u in range(num_users)
                if u % 7
            },
            num_users=num_users,
            num_items=num_items,
        )
        lists = {}
        for u in rng.permutation(num_users).tolist():
            # short, empty and long lists, repeats, -1 padding and items
            # past the catalog, which must not alias into the next user's row
            items = rng.integers(-1, num_items + 3, size=rng.integers(0, 25)).tolist()
            lists[u] = items
        return ds, lists

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_ks(self, seed):
        ds, lists = self.random_lists(seed)
        held = ds.test
        ks = (1, 3, 10, 40)
        result = evaluate(*padded(lists), ds, split="test", ks=ks)
        evaluable = {u: items for u, items in lists.items() if held.sizes()[u]}
        assert result.users_skipped == len(lists) - len(evaluable)
        for row, k in zip(result.rows, ks):
            means, per_user = scalar_row(evaluable, {u: k for u in evaluable}, held)
            assert row.means == means
            assert row.per_user == per_user
            assert [list(v) for v in row.per_user.values()] == [list(evaluable)] * 4

    def test_huge_k(self):
        # the tables are sized by the lists and relevant sets, not by k
        ds, lists = self.random_lists(3)
        held = ds.test
        ks = (1, 10**9)
        result = evaluate(*padded(lists), ds, split="test", ks=ks)
        evaluable = {u: items for u, items in lists.items() if held.sizes()[u]}
        for row, k in zip(result.rows, ks):
            means, per_user = scalar_row(evaluable, {u: k for u in evaluable}, held)
            assert row.means == means
            assert row.per_user == per_user

    @pytest.mark.parametrize("seed", [0, 1])
    def test_personalized_cuts(self, seed):
        ds, lists = self.random_lists(seed)
        held = ds.test
        rng = np.random.default_rng(seed + 100)
        k_star = {u: int(rng.integers(1, 30)) for u in lists}
        row = evaluate(*padded(lists), ds, split="test", k_star=list(k_star.values())).rows[0]
        evaluable = {u: items for u, items in lists.items() if held.sizes()[u]}
        means, per_user = scalar_row(evaluable, k_star, held)
        assert row.means == means
        assert row.per_user == per_user
        assert row.mean_k_star == float(np.mean([k_star[u] for u in evaluable]))
