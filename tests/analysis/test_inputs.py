"""Unit tests for identifier generators (repro.analysis.inputs)."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.chains import longest_monotone_run
from repro.analysis.inputs import (
    huge_ids,
    monotone_ids,
    proper_coloring_inputs,
    random_distinct_ids,
    sawtooth_ids,
    zigzag_ids,
)
from repro.analysis.verify import inputs_properly_color
from repro.model.batch import NUMPY_ENV_FLAG, numpy_accelerated
from repro.model.topology import Cycle


def ring_proper(ids):
    return inputs_properly_color(Cycle(len(ids)), ids)


class TestMonotone:
    def test_values(self):
        assert monotone_ids(5) == [0, 1, 2, 3, 4]

    def test_chain_is_n(self):
        assert longest_monotone_run(monotone_ids(20)) == 20


class TestZigzag:
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 17, 100])
    def test_proper_and_distinct(self, n):
        ids = zigzag_ids(n)
        assert len(set(ids)) == n
        assert ring_proper(ids)

    @pytest.mark.parametrize("n", [4, 10, 64])
    def test_even_chain_length_two(self, n):
        assert longest_monotone_run(zigzag_ids(n)) == 2

    def test_odd_chain_at_most_three(self):
        assert longest_monotone_run(zigzag_ids(11)) <= 3


class TestSawtooth:
    @pytest.mark.parametrize("n,run", [(10, 3), (20, 5), (21, 4), (50, 10)])
    def test_proper_and_distinct(self, n, run):
        ids = sawtooth_ids(n, run)
        assert len(ids) == n
        assert len(set(ids)) == n
        assert ring_proper(ids)

    @pytest.mark.parametrize("run", [2, 4, 8])
    def test_controls_chain_length(self, run):
        ids = sawtooth_ids(64, run)
        assert run <= longest_monotone_run(ids) <= run + 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            sawtooth_ids(10, 1)


class TestRandomDistinct:
    def test_distinct_and_in_space(self):
        ids = random_distinct_ids(50, seed=1)
        assert len(set(ids)) == 50
        assert all(0 <= x < 50 ** 3 for x in ids)

    def test_seeded(self):
        assert random_distinct_ids(10, seed=5) == random_distinct_ids(10, seed=5)
        assert random_distinct_ids(10, seed=5) != random_distinct_ids(10, seed=6)

    def test_custom_space(self):
        ids = random_distinct_ids(4, seed=0, id_space=10)
        assert all(0 <= x < 10 for x in ids)

    def test_space_too_small(self):
        with pytest.raises(ValueError):
            random_distinct_ids(10, id_space=5)


@pytest.fixture(params=["numpy", "scalar"])
def tier(request, monkeypatch):
    """Run a test with numpy's generator loaded, when numpy is
    installed, and without numpy."""
    if request.param == "numpy":
        if not numpy_accelerated():
            pytest.skip("numpy is not installed or disabled")
        pytest.importorskip("numpy.random")
    else:
        monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    return request.param


def set_branch_replay(seed, space, n):
    """``random.sample``'s set branch without ``len``: ``randrange`` with
    repeats rejected."""
    rng = random.Random(seed)
    ids, seen = [], set()
    while len(ids) < n:
        x = rng.randrange(space)
        if x not in seen:
            seen.add(x)
            ids.append(x)
    return ids


class TestRandomDistinctExact:
    """``random_distinct_ids`` is ``random.Random(seed).sample`` draw for
    draw on both tiers, compared against the running interpreter."""

    SEEDS = (0, 1, 2**32 + 7)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 2048, 20000])
    @pytest.mark.parametrize(
        "space", [2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**63 - 1]
    )
    def test_word_boundaries(self, tier, space, n):
        for seed in self.SEEDS:
            want = random.Random(seed).sample(range(space), n)
            assert random_distinct_ids(n, seed=seed, id_space=space) == want

    @pytest.mark.parametrize("n", [1, 9, 2048])
    def test_default_space(self, tier, n):
        for seed in self.SEEDS:
            want = random.Random(seed).sample(range(max(n**3, 8)), n)
            assert random_distinct_ids(n, seed=seed) == want

    @pytest.mark.parametrize(
        "n,space",
        # sample's pool branch serves space <= 21 + 4**ceil(log4(3n))
        # (21 for n <= 5): each pair straddles or sits on that bound.
        [(1, 8), (3, 21), (3, 22), (5, 5), (9, 85), (9, 86),
         (2048, 2048), (2048, 16405), (2048, 16406), (20000, 65557)],
    )
    def test_pool_branch_and_its_bound(self, tier, n, space):
        for seed in self.SEEDS:
            want = random.Random(seed).sample(range(space), n)
            assert random_distinct_ids(n, seed=seed, id_space=space) == want

    @pytest.mark.parametrize("space", [2**63, 2**64 - 1, 2**64, 2**70])
    def test_spaces_sample_cannot_take(self, tier, space):
        with pytest.raises(OverflowError):
            random.Random(0).sample(range(space), 1)
        for seed in self.SEEDS:
            ids = random_distinct_ids(5, seed=seed, id_space=space)
            assert len(set(ids)) == 5 and all(0 <= x < space for x in ids)
            assert ids == set_branch_replay(seed, space, 5)

    def test_draw_does_not_import_numpy(self):
        """A process that has not loaded numpy's generator draws on the
        scalar tier, and loads neither numpy nor the plane engine."""
        code = (
            "import sys\n"
            "from repro.analysis.inputs import random_distinct_ids\n"
            "random_distinct_ids(1024, seed=3)\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'repro.model.batch' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_replay_is_samples_set_branch(self):
        assert set_branch_replay(3, 2**40, 50) == random.Random(3).sample(
            range(2**40), 50
        )


class TestHugeIds:
    def test_bit_width(self):
        ids = huge_ids(8, bits=128, seed=0)
        assert len(set(ids)) == 8
        assert all(x.bit_length() == 128 for x in ids)

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            huge_ids(3, bits=4)


class TestProperColoringInputs:
    @pytest.mark.parametrize("n", [4, 5, 9, 16])
    def test_proper(self, n):
        assert ring_proper(proper_coloring_inputs(n))

    def test_small_value_range(self):
        assert set(proper_coloring_inputs(8)) == {0, 1}
        assert set(proper_coloring_inputs(9)) == {0, 1, 2}

    def test_odd_needs_three_colors(self):
        with pytest.raises(ValueError):
            proper_coloring_inputs(9, k=2)

    @given(n=st.integers(3, 60))
    @settings(max_examples=30, deadline=None)
    def test_property_always_proper(self, n):
        assert ring_proper(proper_coloring_inputs(n))
