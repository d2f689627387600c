"""The engines' neighbor-array memo never hashes a topology.

``Topology.__hash__`` sorts all n adjacency tuples, which costs
hundreds of milliseconds on a fresh ``Cycle(10**6)``.  The kernel
factories memoize their degree-2 neighbor arrays on the topology
instance instead, so no engine run may reach the hash.
"""

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import run_batch
from repro.model.execution import run_execution
from repro.model.kernels import _degree2_arrays
from repro.model.topology import Cycle, Path, Topology
from repro.schedulers import BernoulliScheduler


@pytest.fixture
def unhashable_topologies(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self!r} was hashed")

    monkeypatch.setattr(Topology, "__hash__", refuse)


@pytest.mark.parametrize("make_topology", [lambda: Cycle(64), lambda: Path(9)],
                         ids=["cycle", "path"])
@pytest.mark.parametrize("engine", ["fast", "wide", "batch", "auto"])
def test_engine_runs_never_hash_the_topology(unhashable_topologies,
                                             make_topology, engine):
    topology = make_topology()
    result = run_execution(
        FastFiveColoring(), topology, random_distinct_ids(topology.n, seed=1),
        BernoulliScheduler(p=0.5, seed=1), engine=engine,
    )
    assert set(result.return_times) == set(topology.processes())


@pytest.mark.parametrize("make_topology", [lambda: Cycle(64), lambda: Path(9)],
                         ids=["cycle", "path"])
def test_run_batch_never_hashes_the_topology(unhashable_topologies,
                                             make_topology):
    topology = make_topology()
    results = run_batch(
        [FastFiveColoring() for _ in range(3)], topology,
        [random_distinct_ids(topology.n, seed=s) for s in range(3)],
        [BernoulliScheduler(p=0.5, seed=s) for s in range(3)],
    )
    assert results is not None and len(results) == 3


def test_arrays_are_memoized_on_the_instance():
    topology = Cycle(16)
    first = _degree2_arrays(topology)
    assert _degree2_arrays(topology) is first
    assert _degree2_arrays(Cycle(16)) is not first


def test_objects_without_a_dict_get_fresh_arrays():
    class SlottedPath:
        __slots__ = ("n",)

        def __init__(self, n):
            self.n = n

        def neighbors(self, p):
            return tuple(q for q in (p - 1, p + 1) if 0 <= q < self.n)

    path = SlottedPath(5)
    first = _degree2_arrays(path)
    assert first == ([1, 0, 1, 2, 3], [-1, 2, 3, 4, -1])
    assert _degree2_arrays(path) is not first
