"""``_LazyMapping`` hands out the materialized dict's own views.

The plane engine's result mappings are built on first access.  Their
``keys``/``values``/``items``/``get`` must come straight from the
materialized dict, not from the ``Mapping`` mixins that call the
Python-level ``__getitem__`` once per element.
"""

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import _LazyMapping, run_batch
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler


@pytest.fixture
def no_per_item_lookups(monkeypatch):
    def refuse(self, key):
        raise AssertionError("per-element __getitem__")

    monkeypatch.setattr(_LazyMapping, "__getitem__", refuse)


def test_views_and_get_match_the_materialized_dict(no_per_item_lookups):
    plain = {3: "c", 1: "a", 2: "b"}
    lazy = _LazyMapping(lambda: dict(plain))
    assert list(lazy.keys()) == list(plain.keys())
    assert list(lazy.values()) == list(plain.values())
    assert list(lazy.items()) == list(plain.items())
    assert lazy.keys() == plain.keys() and lazy.items() == plain.items()
    assert lazy.get(2) == "b"
    assert lazy.get(9) is None and lazy.get(9, "z") == "z"
    assert max(lazy.values()) == "c"


def test_batched_results_still_equal_the_reference():
    topology = Cycle(96)
    inputs = [random_distinct_ids(topology.n, seed=s) for s in range(4)]
    results = run_batch(
        [FastFiveColoring() for _ in inputs], topology, inputs,
        [BernoulliScheduler(p=0.4, seed=s) for s in range(4)],
    )
    for seed, result in enumerate(results):
        reference = run_execution(
            FastFiveColoring(), topology, inputs[seed],
            BernoulliScheduler(p=0.4, seed=seed), engine="reference",
        )
        assert result == reference
        for field in ("outputs", "activations", "return_times",
                      "final_states"):
            mine, theirs = getattr(result, field), getattr(reference, field)
            assert dict(mine.items()) == theirs
            assert sorted(mine.values(), key=repr) == sorted(
                theirs.values(), key=repr
            )
            assert all(mine.get(p) == theirs.get(p) for p in range(-1, 97))
        assert result.round_complexity == reference.round_complexity
