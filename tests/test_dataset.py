import pytest
from hypothesis import given
from hypothesis import strategies as st

from posidonia_inspect.dataset import SplitSpec, split, split_sizes


class TestSplit:
    def test_sizes_small(self):
        assert split_sizes(10, SplitSpec()) == (7, 2, 1)

    def test_sizes_train_rounds_up(self):
        assert split_sizes(3, SplitSpec(0.5, 0.5)) == (2, 1, 0)

    # train rounds up, val rounds down, and test takes the rest
    @pytest.mark.parametrize("n, train, val, want", [
        (1, 0.5, 0.5, (1, 0, 0)),
        (2, 0.5, 0.5, (1, 1, 0)),
        (7, 0.5, 0.25, (4, 1, 2)),
        (4, 1 / 3, 1 / 3, (2, 1, 1)),
        (5, 0.9, 0.1, (5, 0, 0)),
        (11, 0.6, 0.4, (7, 4, 0)),
        (9, 0.0, 1.0, (0, 9, 0)),
        (9, 0.0, 0.0, (0, 0, 9)),
        (1000, 0.8, 0.1, (800, 100, 100)),
    ])
    def test_sizes_round_train_up_and_val_down(self, n, train, val, want):
        assert split_sizes(n, SplitSpec(train, val)) == want

    def test_sizes_reject_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            split_sizes(-1, SplitSpec())

    def test_sizes_degenerate(self):
        assert split_sizes(0, SplitSpec()) == (0, 0, 0)
        assert split_sizes(1, SplitSpec()) == (1, 0, 0)
        assert split_sizes(5, SplitSpec(1.0, 0.0)) == (5, 0, 0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.8, 0.3)
        with pytest.raises(ValueError):
            SplitSpec(-0.1, 0.2)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SplitSpec(seed=seed)

    def test_partition(self):
        items = [f"im{i}" for i in range(23)]
        train, val, test = split(items, SplitSpec(seed=5))
        assert sorted(train + val + test) == sorted(items)
        assert len(train) == 17 and len(val) == 4 and len(test) == 2

    @given(st.lists(st.integers(0, 5), max_size=30), st.integers(0, 2**32))
    def test_parts_partition_the_items_in_the_sizes(self, items, seed):
        spec = SplitSpec(seed=seed)
        parts = split(items, spec)
        assert tuple(map(len, parts)) == split_sizes(len(items), spec)
        assert sorted(parts[0] + parts[1] + parts[2]) == sorted(items)

    def test_seed_determinism(self):
        items = list(range(40))
        assert split(items, SplitSpec(seed=9)) == split(items, SplitSpec(seed=9))
        assert split(items, SplitSpec(seed=9)) != split(items, SplitSpec(seed=10))

    def test_shuffles(self):
        items = list(range(100))
        train, _, _ = split(items, SplitSpec(seed=1))
        assert train != items[: len(train)]
