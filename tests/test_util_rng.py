"""Tests for the deterministic RNG wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import SeededRng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_depth_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "ab")


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_fork_streams_are_independent(self):
        root = SeededRng(7)
        child_a = root.fork("a")
        # Drawing from one child must not perturb a sibling created later.
        draws_before = [child_a.randint(0, 10**9) for _ in range(5)]
        root2 = SeededRng(7)
        _ = [root2.fork("unrelated").random() for _ in range(3)]
        child_a2 = root2.fork("a")
        assert draws_before == [child_a2.randint(0, 10**9) for _ in range(5)]

    def test_fork_names_compose(self):
        rng = SeededRng(7).fork("x").fork("y")
        assert rng.name == "root/x/y"

    def test_randint_bounds(self):
        rng = SeededRng(3)
        values = {rng.randint(2, 4) for _ in range(200)}
        assert values == {2, 3, 4}

    def test_bernoulli_extremes(self):
        rng = SeededRng(3)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_bit_probability(self):
        rng = SeededRng(3)
        ones = rng.bits(4000, 0.25).bit_count()
        assert 800 < ones < 1200

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=0, max_value=800),
        probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_bits_consumes_the_bernoulli_stream(self, n, probability, seed):
        packed, twin = SeededRng(seed, "bits"), SeededRng(seed, "bits")
        expected = sum(int(twin.bernoulli(probability)) << i for i in range(n))
        assert packed.bits(n, probability) == expected
        assert packed.state_dict() == twin.state_dict()

    def test_choice_and_sample(self):
        rng = SeededRng(3)
        items = list(range(10))
        assert rng.choice(items) in items
        sample = rng.sample(items, 4)
        assert len(sample) == len(set(sample)) == 4
        assert set(sample) <= set(items)

    def test_shuffle_is_permutation(self):
        rng = SeededRng(3)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_weighted_index_distribution(self):
        rng = SeededRng(3)
        counts = [0, 0, 0]
        for _ in range(3000):
            counts[rng.weighted_index([1.0, 2.0, 1.0])] += 1
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]

    def test_weighted_index_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            SeededRng(3).weighted_index([0.0, 0.0])

    def test_pareto_is_heavy_tailed_and_bounded_below(self):
        rng = SeededRng(3)
        values = [rng.pareto(1.5, 10.0) for _ in range(500)]
        assert min(values) >= 10.0
        assert max(values) > 50.0

    def test_expovariate_positive(self):
        rng = SeededRng(3)
        assert all(rng.expovariate(2.0) > 0 for _ in range(100))
