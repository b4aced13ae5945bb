import numpy as np
import pytest

from calibrec import synthetic
from calibrec.synthetic import low_rank_interactions, write_interactions_csv

from oracles import reference_low_rank_interactions, reference_write_interactions_csv

# (users, items, rank, per_user, noise): the S and L shapes of bench/workloads.py
# and the smoke-test shape its workloads shrink to
BENCH_SHAPES = [(900, 1400, 8, 90, 0.3), (3000, 3700, 8, 160, 0.3), (60, 120, 4, 20, 0.3)]


class TestLowRankInteractions:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", BENCH_SHAPES, ids=["S", "L", "smoke"])
    def test_benchmark_shapes_match_reference(self, shape, seed):
        users, items, rank, per_user, noise = shape
        args = (users, items, rank, per_user, noise, seed)
        assert low_rank_interactions(*args) == reference_low_rank_interactions(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (5, 7, 2, 7, 0.25, 4),  # per_user == num_items
            (5, 7, 2, 12, 0.25, 4),  # per_user > num_items
            (5, 7, 2, 0, 0.25, 4),  # no items per user
            (1, 30, 3, 6, 0.5, 9),  # one user
            (1, 1, 2, 1, 0.25, 0),  # one user, one item
            (4, 9, 2, 3, 0.0, 2),  # no noise
            (0, 9, 2, 3, 0.25, 2),  # no users
        ],
    )
    def test_edge_shapes_match_reference(self, args):
        assert low_rank_interactions(*args) == reference_low_rank_interactions(*args)

    def test_ties_at_the_cut_fill_by_index(self):
        # rank 0 and no noise score every item 0 (or -0.0): all of them tie
        args = (3, 10, 0, 4, 0.0, 5)
        pairs = low_rank_interactions(*args)
        assert pairs == [(u, i) for u in range(3) for i in range(4)]
        assert pairs == reference_low_rank_interactions(*args)

    @pytest.mark.parametrize("seed", range(20))
    def test_selection_matches_stable_sort_under_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=rng.integers(1, 30)).astype(float)
        for k in range(len(scores) + 2):
            expected = np.sort(np.argsort(-scores, kind="stable")[:k])
            np.testing.assert_array_equal(synthetic._top_in_index_order(scores, k), expected)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"per_user": -2}, "per_user"),
            ({"num_items": 0}, "item"),
            ({"noise": -0.1}, "noise"),
        ],
    )
    def test_rejects_invalid_arguments(self, kwargs, message):
        args = {"num_users": 3, "num_items": 10, "per_user": 2, **kwargs}
        with pytest.raises(ValueError, match=message):
            low_rank_interactions(**args)


class TestWriteInteractionsCsv:
    @pytest.mark.parametrize("count", [0, 1, synthetic.WRITE_LINES + 1])
    @pytest.mark.parametrize("with_timestamps", [False, True])
    @pytest.mark.parametrize(
        "style",
        [{}, {"delimiter": "::", "user_prefix": "user-%s{", "item_prefix": ""}],
        ids=["default", "custom"],
    )
    def test_bytes_match_reference(self, tmp_path, count, with_timestamps, style):
        rng = np.random.default_rng(count)
        pairs = [tuple(p) for p in rng.integers(0, 9000, size=(count, 2)).tolist()]
        kwargs = dict(style, with_timestamps=with_timestamps)
        written = write_interactions_csv(tmp_path / "new.csv", pairs, **kwargs)
        reference_write_interactions_csv(tmp_path / "old.csv", pairs, **kwargs)
        assert written == tmp_path / "new.csv"
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
