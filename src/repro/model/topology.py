"""Network topologies mediating register visibility (paper Section 2.1).

The paper's model is the shared-memory state model *restricted by a
graph*: process ``p`` may read only the registers of its neighbors (and
its own).  The cycle ``C_n`` is the paper's main object; the appendix
extends Algorithm 1 to arbitrary graphs of maximum degree Δ, and the
``C_3`` ≡ 3-process-shared-memory equivalence (Property 2.3) uses the
complete graph.

A :class:`Topology` is immutable after construction and exposes, for
each process id in ``0..n-1``, the ordered tuple of its neighbors.  The
neighbor *order is arbitrary* — the paper explicitly does not assume a
coherent notion of left/right — and algorithms must not rely on it; the
test-suite includes executions with shuffled neighbor orders to enforce
this.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import TopologyError
from repro.types import ProcessId

__all__ = [
    "Topology",
    "Cycle",
    "Path",
    "CompleteGraph",
    "GeneralGraph",
    "Star",
    "Torus",
]


class Topology:
    """An undirected graph on processes ``0..n-1`` with ordered adjacency.

    Parameters
    ----------
    neighbors:
        Mapping from each process id to the sequence of its neighbors.
        Must be symmetric (``q in neighbors[p]`` iff ``p in
        neighbors[q]``), irreflexive, and duplicate-free.
    name:
        Human-readable label used in reprs and experiment reports.

    The constructor validates every node and freezes the adjacency into
    a dict of tuples, O(n + m) time and memory for m edges.
    :class:`Cycle` and :class:`Path` skip it: their adjacency is
    arithmetic, so they store only ``n`` and ``name`` and build this
    dict (through this constructor) only when equality, hashing,
    shuffling or an induced subgraph needs it.
    """

    def __init__(self, neighbors: Dict[ProcessId, Sequence[ProcessId]], name: str = "graph"):
        if not neighbors:
            raise TopologyError("a topology needs at least one process")
        ids = sorted(neighbors)
        if ids != list(range(len(ids))):
            raise TopologyError(f"process ids must be 0..n-1, got {ids[:10]}...")
        frozen = {p: tuple(nbrs) for p, nbrs in neighbors.items()}
        # One set per node makes the symmetry check O(1) per edge.
        adjacent = {p: set(nbrs) for p, nbrs in frozen.items()}
        for p, nbrs in frozen.items():
            if len(adjacent[p]) != len(nbrs):
                raise TopologyError(f"duplicate neighbor in adjacency of {p}")
            for q in nbrs:
                if q == p:
                    raise TopologyError(f"self-loop at process {p}")
                if q not in adjacent:
                    raise TopologyError(f"neighbor {q} of {p} is not a process")
                if p not in adjacent[q]:
                    raise TopologyError(f"asymmetric adjacency between {p} and {q}")
        self._neighbors = frozen
        self._n = len(ids)
        self.name = name

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    def processes(self) -> range:
        """All process ids, ``0..n-1``."""
        return range(self._n)

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """Ordered neighbors of ``p`` (order is arbitrary, fixed)."""
        return self._neighbors[p]

    def degree(self, p: ProcessId) -> int:
        """Degree of process ``p``."""
        return len(self.neighbors(p))

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph."""
        return max(len(v) for v in self._neighbors.values())

    def edges(self) -> Iterator[Tuple[ProcessId, ProcessId]]:
        """Each undirected edge once, as an ordered pair ``(p, q)``, p < q."""
        for p, nbrs in self._neighbors.items():
            for q in nbrs:
                if p < q:
                    yield (p, q)

    def are_adjacent(self, p: ProcessId, q: ProcessId) -> bool:
        """Whether ``p ~ q``."""
        return q in self.neighbors(p)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_shuffled_neighbors(self, rng) -> "Topology":
        """Return a copy whose per-process neighbor order is shuffled.

        Used by tests to check that no algorithm depends on a coherent
        left/right orientation (the paper makes none available).
        """
        shuffled = {}
        for p, nbrs in self._neighbors.items():
            order = list(nbrs)
            rng.shuffle(order)
            shuffled[p] = tuple(order)
        return Topology(shuffled, name=self.name + "+shuffled")

    def induced_subgraph(self, keep: Iterable[ProcessId]) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """Adjacency of the subgraph induced by ``keep`` (original ids).

        This is *not* a :class:`Topology` (ids are not relabeled); it is
        what the correctness condition of the paper quantifies over: the
        graph induced by the terminating processes.
        """
        kept = set(keep)
        return {
            p: tuple(q for q in self._neighbors[p] if q in kept)
            for p in kept
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, name={self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Topology) and self._neighbors == other._neighbors

    def __hash__(self) -> int:
        # Memoized: topologies are immutable after construction, and the
        # full edge list costs O(n log n) to hash at n = 10⁶ (on a Cycle
        # or Path it also builds the adjacency dict).  No kernel cache
        # hashes topologies: the engines memoize their neighbor arrays
        # on the instance (see kernels._degree2_arrays).
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                tuple(sorted((p, nbrs) for p, nbrs in self._neighbors.items()))
            )
            self.__dict__["_hash"] = h
        return h


class _ClosedFormTopology(Topology):
    """A degree-≤2 topology whose adjacency is arithmetic in ``p``.

    Instances store only ``n`` and ``name``: ``neighbors``, ``degree``,
    ``max_degree``, ``are_adjacent`` and ``edges`` are computed, with
    exactly the values and orders of the equivalent validated
    :class:`Topology`.  The generic adjacency dict, read only by
    ``__eq__``, ``__hash__``, ``with_shuffled_neighbors`` and
    ``induced_subgraph``, is built on first use through the validating
    :class:`Topology` constructor, so its per-node checks still run
    whenever it exists.  Subclasses define ``neighbors``, ``max_degree``,
    ``edges`` and ``_degree2_lists`` (the engines' neighbor tables).
    """

    def __init__(self, n: int, name: str):
        self._n = n
        self.name = name

    @cached_property
    def _neighbors(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        adjacency = {p: self.neighbors(p) for p in range(self._n)}
        return Topology(adjacency, name=self.name)._neighbors

    def _index(self, p: ProcessId) -> int:
        """``p`` as an int in ``0..n-1``; ``KeyError`` otherwise."""
        try:
            i = operator.index(p)
        except TypeError:
            raise KeyError(p) from None
        if not 0 <= i < self._n:
            raise KeyError(p)
        return i


class Cycle(_ClosedFormTopology):
    """The cycle ``C_n`` for ``n ≥ 3`` — the paper's primary topology.

    Closed form: process ``p``'s neighbors are ``((p − 1) mod n,
    (p + 1) mod n)``, so building ``C_10^6`` costs O(1) time and memory.
    """

    def __init__(self, n: int):
        if n < 3:
            raise TopologyError(f"a cycle needs n >= 3, got n={n}")
        super().__init__(n, name=f"C_{n}")

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """``((p − 1) mod n, (p + 1) mod n)``."""
        n = self._n
        if p.__class__ is not int or not 0 <= p < n:
            p = self._index(p)
        return ((p - 1) % n, (p + 1) % n)

    def max_degree(self) -> int:
        """Every process has degree 2."""
        return 2

    def edges(self) -> Iterator[Tuple[ProcessId, ProcessId]]:
        """``(0, n − 1)``, then ``(p, p + 1)`` for ``p < n − 1``."""
        n = self._n
        yield (0, n - 1)
        yield from zip(range(n - 1), range(1, n))

    def _degree2_lists(self) -> Tuple[List[int], List[int]]:
        """First and second neighbor of every process: ``range(n)``
        rotated right and left by one, as fresh lists built by C-speed
        slicing that share one set of int objects (the engines memoize
        them; see ``kernels._degree2_arrays``)."""
        ids = list(range(self._n))
        return ids[-1:] + ids[:-1], ids[1:] + ids[:1]


class Path(_ClosedFormTopology):
    """The path ``P_n`` for ``n ≥ 2`` (useful for chain-based lemma tests).

    Closed form: the endpoints have the single neighbors ``1`` and
    ``n − 2``; every inner ``p`` has ``(p − 1, p + 1)``.
    """

    def __init__(self, n: int):
        if n < 2:
            raise TopologyError(f"a path needs n >= 2, got n={n}")
        super().__init__(n, name=f"P_{n}")

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """``(p − 1, p + 1)`` clipped to ``0..n-1``."""
        if p.__class__ is not int or not 0 < p < self._n - 1:
            p = self._index(p)
            if p == 0:
                return (1,)
            if p == self._n - 1:
                return (p - 1,)
        return (p - 1, p + 1)

    def max_degree(self) -> int:
        """2, or 1 for ``P_2``."""
        return 1 if self._n == 2 else 2

    def edges(self) -> Iterator[Tuple[ProcessId, ProcessId]]:
        """``(p, p + 1)`` for ``p < n − 1``."""
        return zip(range(self._n - 1), range(1, self._n))

    def _degree2_lists(self) -> Tuple[List[int], List[int]]:
        """As :meth:`Cycle._degree2_lists`; −1 marks an endpoint's
        absent second neighbor."""
        ids = list(range(self._n))
        return ids[1:2] + ids[:-1], [-1] + ids[2:] + [-1]


class CompleteGraph(Topology):
    """The complete graph ``K_n`` — register visibility is all-to-all.

    On ``K_n`` the paper's model coincides with the standard wait-free
    shared-memory model with immediate snapshots (used for Property 2.3
    with ``n = 3``, where ``C_3 = K_3``).
    """

    def __init__(self, n: int):
        if n < 2:
            raise TopologyError(f"a complete graph needs n >= 2, got n={n}")
        super().__init__(
            {i: tuple(j for j in range(n) if j != i) for i in range(n)},
            name=f"K_{n}",
        )


class Star(Topology):
    """The star ``S_k``: one hub (id 0) with ``k`` leaves — Δ stress test."""

    def __init__(self, leaves: int):
        if leaves < 1:
            raise TopologyError("a star needs at least one leaf")
        adj: Dict[ProcessId, Tuple[ProcessId, ...]] = {0: tuple(range(1, leaves + 1))}
        for i in range(1, leaves + 1):
            adj[i] = (0,)
        super().__init__(adj, name=f"S_{leaves}")


class Torus(Topology):
    """The ``rows × cols`` wrap-around grid (4-regular; Δ=4 workload)."""

    def __init__(self, rows: int, cols: int):
        if rows < 3 or cols < 3:
            raise TopologyError("a torus needs rows >= 3 and cols >= 3")
        n = rows * cols

        def pid(r: int, c: int) -> int:
            return (r % rows) * cols + (c % cols)

        adj = {}
        for r, c in itertools.product(range(rows), range(cols)):
            adj[pid(r, c)] = (
                pid(r - 1, c),
                pid(r + 1, c),
                pid(r, c - 1),
                pid(r, c + 1),
            )
        assert len(adj) == n
        super().__init__(adj, name=f"T_{rows}x{cols}")


class GeneralGraph(Topology):
    """An arbitrary graph given by an edge list over ``0..n-1``."""

    def __init__(self, n: int, edges: Iterable[Tuple[ProcessId, ProcessId]], name: str = "G"):
        adj: Dict[ProcessId, List[ProcessId]] = {i: [] for i in range(n)}
        for (p, q) in edges:
            if not (0 <= p < n and 0 <= q < n):
                raise TopologyError(f"edge ({p},{q}) outside 0..{n-1}")
            if q not in adj[p]:
                adj[p].append(q)
            if p not in adj[q]:
                adj[q].append(p)
        super().__init__({p: tuple(v) for p, v in adj.items()}, name=name)

    @classmethod
    def from_networkx(cls, graph, name: str = "G") -> "GeneralGraph":
        """Build from a ``networkx`` graph with nodes relabeled to 0..n-1."""
        nodes = list(graph.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls(len(nodes), edges, name=name)
