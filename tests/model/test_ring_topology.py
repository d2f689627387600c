"""Closed-form ``Cycle`` and ``Path`` against the validated adjacency dict.

``Cycle`` and ``Path`` answer every accessor arithmetically and build
the generic adjacency dict only for equality, hashing, shuffling and
induced subgraphs.  These tests pin every accessor to the values and
orders of the ``Topology(dict)`` the two classes used to build eagerly,
and show that no engine run or verification ever builds the dict.
"""

import copy
import pickle
import random
import time
import tracemalloc

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.analysis.verify import verify_execution
from repro.core.fast_coloring5 import FastFiveColoring
from repro.model.batch import NUMPY_ENV_FLAG, run_batch
from repro.model.execution import run_execution
from repro.model.kernels import _degree2_arrays, _degree2_scan
from repro.model.topology import Cycle, Path, Topology, _ClosedFormTopology
from repro.schedulers import BernoulliScheduler, SynchronousScheduler


def validated_cycle(n):
    return Topology({i: ((i - 1) % n, (i + 1) % n) for i in range(n)},
                    name=f"C_{n}")


def validated_path(n):
    adj = {i: [] for i in range(n)}
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return Topology({p: tuple(v) for p, v in adj.items()}, name=f"P_{n}")


CASES = [
    pytest.param(Cycle, validated_cycle, range(3, 201), id="cycle"),
    pytest.param(Path, validated_path, range(2, 201), id="path"),
]


def assert_same_graph(ring, graph):
    n = graph.n
    assert ring.n == n and ring.name == graph.name
    assert ring.processes() == graph.processes()
    for p in range(n):
        assert ring.neighbors(p) == graph.neighbors(p)
        assert ring.degree(p) == graph.degree(p)
        for q in {p - 2, p - 1, p + 1, p + 2, 0, n - 1, -1, n}:
            assert ring.are_adjacent(p, q) == graph.are_adjacent(p, q)
    for bad in (-1, n):
        for accessor in (ring.neighbors, ring.degree,
                         lambda p: ring.are_adjacent(p, 0)):
            with pytest.raises(KeyError):
                accessor(bad)
    assert ring.max_degree() == graph.max_degree()
    assert list(ring.edges()) == list(graph.edges())


@pytest.mark.parametrize("make,validated,sizes", CASES)
def test_accessors_match_the_validated_dict(make, validated, sizes):
    for n in sizes:
        ring = make(n)
        assert_same_graph(ring, validated(n))
        assert "_neighbors" not in ring.__dict__


@pytest.mark.parametrize("make,validated,sizes", CASES)
def test_equality_and_hash_both_ways(make, validated, sizes):
    for n in sizes:
        ring, graph = make(n), validated(n)
        assert ring == graph and graph == ring
        assert hash(make(n)) == hash(graph)
        assert hash(graph) == hash(make(n))
        assert make(n) == make(n)
        assert ring != validated(n + 1) and validated(n + 1) != ring


def test_cycles_and_paths_differ():
    assert Cycle(5) != Path(5) and Path(5) != Cycle(5)


@pytest.mark.parametrize("make,validated,sizes", CASES)
def test_shuffles_and_induced_subgraphs_match(make, validated, sizes):
    rng = random.Random(7)
    for n in sizes:
        ring, graph = make(n), validated(n)
        shuffled = ring.with_shuffled_neighbors(random.Random(n))
        expected = graph.with_shuffled_neighbors(random.Random(n))
        assert shuffled == expected and shuffled.name == expected.name
        for p in range(n):
            assert shuffled.neighbors(p) == expected.neighbors(p)
        keep = rng.sample(range(n), rng.randint(0, n))
        assert ring.induced_subgraph(keep) == graph.induced_subgraph(keep)


@pytest.mark.parametrize("make,validated,sizes", CASES)
@pytest.mark.parametrize("materialized", [False, True],
                         ids=["closed-form", "materialized"])
def test_pickle_and_deepcopy_round_trip(make, validated, sizes, materialized):
    for n in (sizes[0], sizes[0] + 1, 64):
        ring = make(n)
        if materialized:
            hash(ring)
        for clone in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert type(clone) is make
            assert_same_graph(clone, validated(n))
            assert clone == ring and hash(clone) == hash(ring)


@pytest.mark.parametrize("make,validated,sizes", CASES)
def test_engine_tables_match_the_generic_scan(make, validated, sizes):
    for n in sizes:
        ring = make(n)
        assert ring._degree2_lists() == _degree2_scan(validated(n))
        first = _degree2_arrays(ring)
        assert first == _degree2_scan(ring)
        assert _degree2_arrays(ring) is first


def test_invalid_sizes_still_rejected():
    from repro.errors import TopologyError

    for make, n in ((Cycle, 2), (Path, 1)):
        with pytest.raises(TopologyError):
            make(n)


# ----------------------------------------------------------------------
# Nothing on the engine and verification paths builds the dict
# ----------------------------------------------------------------------

@pytest.fixture
def dictless_rings(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self!r} built its adjacency dict")

    monkeypatch.setattr(_ClosedFormTopology, "_neighbors", property(refuse))


RINGS = [pytest.param(lambda: Cycle(64), id="cycle"),
         pytest.param(lambda: Path(9), id="path")]


def test_the_fixture_refuses_the_dict(dictless_rings):
    with pytest.raises(AssertionError, match="adjacency dict"):
        Cycle(5) == Cycle(5)


@pytest.mark.parametrize("tier", ["numpy", "pure"])
@pytest.mark.parametrize("make_topology", RINGS)
@pytest.mark.parametrize("engine", ["fast", "wide", "batch", "auto"])
def test_engine_runs_and_verification_never_build_the_dict(
    dictless_rings, monkeypatch, make_topology, engine, tier
):
    if tier == "pure":
        monkeypatch.setenv(NUMPY_ENV_FLAG, "1")
    topology = make_topology()
    result = run_execution(
        FastFiveColoring(), topology, random_distinct_ids(topology.n, seed=1),
        BernoulliScheduler(p=0.5, seed=1), engine=engine,
    )
    assert verify_execution(topology, result, palette=range(5)).ok
    assert set(result.return_times) == set(topology.processes())


@pytest.mark.parametrize("make_topology", RINGS)
def test_run_batch_never_builds_the_dict(dictless_rings, make_topology):
    topology = make_topology()
    results = run_batch(
        [FastFiveColoring() for _ in range(3)], topology,
        [random_distinct_ids(topology.n, seed=s) for s in range(3)],
        [SynchronousScheduler() for _ in range(3)],
    )
    assert all(verify_execution(topology, r).ok for r in results)


def test_a_million_node_cycle_is_constant_size():
    tracemalloc.start()
    try:
        ring = Cycle(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert ring.neighbors(0) == (999_999, 1)
    best = min(_build_seconds(10**6) for _ in range(3))
    assert best < 0.010


def _build_seconds(n):
    started = time.perf_counter()
    Cycle(n)
    return time.perf_counter() - started
