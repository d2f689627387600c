"""Compiled per-algorithm kernels for the fast-path engine.

A *kernel* is the engine's inner loop and one algorithm's ``step``
fused into a single function over parallel arrays of plain ints — no
``NamedTuple`` states, no register payload tuples, no ``StepOutcome``
wrappers, no per-activation attribute lookups.  The "compilation"
happens once, in the kernel factory: neighbor ids are unpacked into
flat arrays, algorithm parameters (ablation flags) are bound into
locals, and the degree-≤2 structure of the cycle/path topologies is
specialized away.

Correctness discipline: a kernel must reproduce the reference engine's
:class:`~repro.model.execution.ExecutionResult` *bit-identically* —
outputs, activation counts, return times, final time, the
``time_exhausted`` flag and the per-process final states.  Every kernel
registered here is pinned by the differential equivalence harness
(``tests/model/test_fastpath_equivalence.py``); a kernel that cannot
guarantee equivalence for a given configuration must decline (return
``None``) so the generic fast path takes over.

Kernels are looked up by *exact* algorithm type — a subclass may
override ``step`` and silently change semantics, so it never matches.
Third-party algorithms can register their own kernels with
:func:`register_kernel`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.model.execution import ExecutionResult
from repro.model.topology import Topology
from repro.obs.metrics import active_registry
from repro.obs.spans import span

__all__ = ["register_kernel", "build_kernel", "KERNELS"]

#: Exact algorithm type → kernel factory.  A factory has signature
#: ``factory(algorithm, topology, inputs) -> Optional[runner]`` where
#: ``runner(schedule, max_time, idle_limit) -> ExecutionResult``; it
#: returns ``None`` when it cannot guarantee equivalence for this
#: configuration (e.g. unsupported topology degree).
KERNELS: Dict[Type, Callable] = {}


def register_kernel(algorithm_type: Type):
    """Class decorator registering ``factory`` for ``algorithm_type``."""

    def decorate(factory: Callable) -> Callable:
        KERNELS[algorithm_type] = factory
        return factory

    return decorate


def build_kernel(algorithm, topology: Topology, inputs: List[Any]):
    """The compiled runner for this configuration, or ``None``.

    Exact-type dispatch: subclasses never match (their overridden
    methods could change semantics under the kernel's feet).
    """
    alg_name = type(algorithm).__name__
    factory = KERNELS.get(type(algorithm))
    if factory is None:
        registry = active_registry()
        if registry is not None:
            registry.inc(
                "engine_kernel_builds_total", 1,
                algorithm=alg_name, outcome="unregistered",
            )
        return None
    with span("engine_kernel_build", algorithm=alg_name):
        kernel = factory(algorithm, topology, inputs)
    registry = active_registry()
    if registry is not None:
        registry.inc(
            "engine_kernel_builds_total", 1,
            algorithm=alg_name,
            outcome="compiled" if kernel is not None else "declined",
        )
    return kernel


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def _degree2_arrays(topology: Topology) -> Optional[Tuple[List[int], List[int]]]:
    """Neighbor ids as two flat arrays (−1 = absent), or ``None``.

    The shipped kernels specialize for the paper's degree-≤2 topologies
    (cycles, paths); anything denser falls back to the generic path.
    :class:`~repro.model.topology.Cycle` and
    :class:`~repro.model.topology.Path` supply the arrays themselves
    (``_degree2_lists``, built from ``range`` at C speed); other graphs
    and duck-typed objects are read node by node through ``neighbors``.
    Topologies are immutable once built, and both the per-run and
    batched kernel factories call this on every build, so the arrays
    are memoized in the instance's ``__dict__`` (``False`` records a
    declined topology) — never keyed on its hash, which sorts all n
    adjacency tuples.  Objects without a ``__dict__`` get no memo.
    The arrays are shared: callers must treat them as read-only.
    """
    memo = getattr(topology, "__dict__", None)
    cached = memo.get("_degree2_arrays") if memo is not None else None
    if cached is not None:
        return None if cached is False else cached
    closed_form = getattr(topology, "_degree2_lists", None)
    if closed_form is not None:
        arrays: Any = closed_form()
    else:
        arrays = _degree2_scan(topology)
    if memo is not None:
        memo["_degree2_arrays"] = arrays
    return None if arrays is False else arrays


def _degree2_scan(topology) -> Any:
    """``_degree2_arrays`` node by node, or ``False`` above degree 2."""
    n = topology.n
    nb1 = [-1] * n
    nb2 = [-1] * n
    for p in range(n):
        nbrs = topology.neighbors(p)
        if len(nbrs) > 2:
            return False
        if len(nbrs) >= 1:
            nb1[p] = nbrs[0]
        if len(nbrs) == 2:
            nb2[p] = nbrs[1]
    return nb1, nb2


# ----------------------------------------------------------------------
# Algorithms 2 and 3: the (x, a, b[, r]) register family
# ----------------------------------------------------------------------

def _make_ab_kernel(algorithm, topology, inputs, *, reduction: bool):
    """Fused loop for Algorithm 2 (``reduction=False``) / Algorithm 3.

    One code path serves both: Algorithm 3 is Algorithm 2 plus the
    identifier-reduction block, which is compiled in (or out) here
    together with its ablation flags.
    """
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring5 import FiveState
    from repro.core.fast_coloring5 import FastState, INFINITE_ROUND

    arrays = _degree2_arrays(topology)
    if arrays is None:
        return None
    nb1, nb2 = arrays
    n = topology.n
    if reduction:
        green_light = algorithm.green_light
        guarded_adoption = algorithm.guarded_adoption

    def run(schedule, max_time, idle_limit) -> ExecutionResult:
        st_x = list(inputs)
        st_a = [0] * n
        st_b = [0] * n
        st_r: List[Any] = [0] * n
        rg_x = [0] * n
        rg_a = [0] * n
        rg_b = [0] * n
        rg_r: List[Any] = [0] * n
        rg_w = [False] * n

        done = [False] * n
        outputs: Dict[int, Any] = {}
        return_times: Dict[int, int] = {}
        activations = [0] * n
        time = 0
        idle_streak = 0
        time_exhausted = False
        remaining = n
        INF = INFINITE_ROUND

        for raw_step in schedule.steps_fast(n):
            if remaining == 0:
                break
            time += 1
            if time > max_time:
                time -= 1
                time_exhausted = True
                break

            working = [p for p in raw_step if not done[p]]
            if not working:
                idle_streak += 1
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            # Phase 1 — publish the register images.
            for p in working:
                rg_x[p] = st_x[p]
                rg_a[p] = st_a[p]
                rg_b[p] = st_b[p]
                if reduction:
                    rg_r[p] = st_r[p]
                rg_w[p] = True

            # Phase 2+3 — read + private update, fully inlined.
            for p in working:
                activations[p] += 1
                x = st_x[p]
                a = st_a[p]
                b = st_b[p]
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rg_w[q1]
                w2 = q2 >= 0 and rg_w[q2]

                if w1 and w2:
                    a1 = rg_a[q1]; b1 = rg_b[q1]
                    a2 = rg_a[q2]; b2 = rg_b[q2]
                    if a != a1 and a != b1 and a != a2 and a != b2:
                        outputs[p] = a; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    if b != a1 and b != b1 and b != a2 and b != b2:
                        outputs[p] = b; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    taken_all = {a1, b1, a2, b2}
                    taken_higher = set()
                    if rg_x[q1] > x:
                        taken_higher.add(a1); taken_higher.add(b1)
                    if rg_x[q2] > x:
                        taken_higher.add(a2); taken_higher.add(b2)
                elif w1 or w2:
                    q = q1 if w1 else q2
                    aq = rg_a[q]; bq = rg_b[q]
                    if a != aq and a != bq:
                        outputs[p] = a; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    if b != aq and b != bq:
                        outputs[p] = b; return_times[p] = time
                        done[p] = True; remaining -= 1
                        continue
                    taken_all = {aq, bq}
                    taken_higher = {aq, bq} if rg_x[q] > x else set()
                else:
                    # No awakened neighbor: a (initially 0) is free.
                    outputs[p] = a; return_times[p] = time
                    done[p] = True; remaining -= 1
                    continue

                v = 0
                while v in taken_higher:
                    v += 1
                st_a[p] = v
                v = 0
                while v in taken_all:
                    v += 1
                st_b[p] = v

                # Identifier reduction (Algorithm 3 only), compiled in
                # only when both neighbors exist and are awake.
                if reduction and w1 and w2:
                    r = st_r[p]
                    if r < INF:
                        r1 = rg_r[q1]; r2 = rg_r[q2]
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = rg_x[q1]; x2 = rg_x[q2]
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                st_r[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo or not guarded_adoption:
                                    st_x[p] = candidate
                            else:
                                st_r[p] = INF
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        st_x[p] = v

        if reduction:
            final_states = {
                p: FastState(x=st_x[p], r=st_r[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        else:
            final_states = {
                p: FiveState(x=st_x[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        return ExecutionResult(
            n=n,
            outputs=outputs,
            activations={p: activations[p] for p in range(n)},
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=None,
            final_states=final_states,
        )

    return run


# ----------------------------------------------------------------------
# Algorithms 1 and fast-6: the (x, (a, b) pair[, r]) register family
# ----------------------------------------------------------------------

def _make_pair_kernel(algorithm, topology, inputs, *, reduction: bool):
    """Fused loop for Algorithm 1 (``reduction=False``) / fast-six.

    The pair algorithms return the *color pair* ``(a, b)`` and compare
    whole pairs against neighbors; component updates filter by
    identifier order (``a`` against higher-id, ``b`` against lower-id
    neighbors).
    """
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.coloring6 import SixState
    from repro.extensions.fast_six import FastSixState, INFINITE_ROUND

    arrays = _degree2_arrays(topology)
    if arrays is None:
        return None
    nb1, nb2 = arrays
    n = topology.n
    if reduction:
        green_light = algorithm.green_light

    def run(schedule, max_time, idle_limit) -> ExecutionResult:
        st_x = list(inputs)
        st_a = [0] * n
        st_b = [0] * n
        st_r: List[Any] = [0] * n
        rg_x = [0] * n
        rg_a = [0] * n
        rg_b = [0] * n
        rg_r: List[Any] = [0] * n
        rg_w = [False] * n

        done = [False] * n
        outputs: Dict[int, Any] = {}
        return_times: Dict[int, int] = {}
        activations = [0] * n
        time = 0
        idle_streak = 0
        time_exhausted = False
        remaining = n
        INF = INFINITE_ROUND

        for raw_step in schedule.steps_fast(n):
            if remaining == 0:
                break
            time += 1
            if time > max_time:
                time -= 1
                time_exhausted = True
                break

            working = [p for p in raw_step if not done[p]]
            if not working:
                idle_streak += 1
                if idle_limit and idle_streak >= idle_limit:
                    break
                continue
            idle_streak = 0

            for p in working:
                rg_x[p] = st_x[p]
                rg_a[p] = st_a[p]
                rg_b[p] = st_b[p]
                if reduction:
                    rg_r[p] = st_r[p]
                rg_w[p] = True

            for p in working:
                activations[p] += 1
                x = st_x[p]
                a = st_a[p]
                b = st_b[p]
                q1 = nb1[p]
                q2 = nb2[p]
                w1 = q1 >= 0 and rg_w[q1]
                w2 = q2 >= 0 and rg_w[q2]

                # Pair return rule: my (a, b) differs from every
                # awakened neighbor's published pair.
                clash = (
                    (w1 and a == rg_a[q1] and b == rg_b[q1])
                    or (w2 and a == rg_a[q2] and b == rg_b[q2])
                )
                if not clash:
                    outputs[p] = (a, b); return_times[p] = time
                    done[p] = True; remaining -= 1
                    continue

                # mex of first components over higher-id awake
                # neighbors, second components over lower-id ones.
                h1 = rg_a[q1] if w1 and rg_x[q1] > x else -1
                h2 = rg_a[q2] if w2 and rg_x[q2] > x else -1
                v = 0
                while v == h1 or v == h2:
                    v += 1
                new_a = v
                l1 = rg_b[q1] if w1 and rg_x[q1] < x else -1
                l2 = rg_b[q2] if w2 and rg_x[q2] < x else -1
                v = 0
                while v == l1 or v == l2:
                    v += 1
                st_a[p] = new_a
                st_b[p] = v

                if reduction and w1 and w2:
                    r = st_r[p]
                    if r < INF:
                        r1 = rg_r[q1]; r2 = rg_r[q2]
                        if r <= (r1 if r1 < r2 else r2) or not green_light:
                            x1 = rg_x[q1]; x2 = rg_x[q2]
                            lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                            if lo < x < hi:
                                st_r[p] = r + 1
                                candidate = reduce_identifier(x, lo)
                                if candidate < lo:
                                    st_x[p] = candidate
                            else:
                                st_r[p] = INF
                                if x < lo:
                                    f1 = reduce_identifier(x1, x)
                                    f2 = reduce_identifier(x2, x)
                                    v = 0
                                    while v == f1 or v == f2:
                                        v += 1
                                    if v < x:
                                        st_x[p] = v

        if reduction:
            final_states = {
                p: FastSixState(x=st_x[p], r=st_r[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        else:
            final_states = {
                p: SixState(x=st_x[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        return ExecutionResult(
            n=n,
            outputs=outputs,
            activations={p: activations[p] for p in range(n)},
            return_times=return_times,
            final_time=time,
            time_exhausted=time_exhausted,
            trace=None,
            final_states=final_states,
        )

    return run


# ----------------------------------------------------------------------
# Registrations (imported lazily to keep repro.model import-light)
# ----------------------------------------------------------------------

def _register_builtin_kernels() -> None:
    from repro.core.coloring5 import FiveColoring
    from repro.core.coloring6 import SixColoring
    from repro.core.fast_coloring5 import FastFiveColoring
    from repro.extensions.fast_six import FastSixColoring

    @register_kernel(FiveColoring)
    def _alg2_kernel(algorithm, topology, inputs):
        return _make_ab_kernel(algorithm, topology, inputs, reduction=False)

    @register_kernel(FastFiveColoring)
    def _alg3_kernel(algorithm, topology, inputs):
        return _make_ab_kernel(algorithm, topology, inputs, reduction=True)

    @register_kernel(SixColoring)
    def _alg1_kernel(algorithm, topology, inputs):
        return _make_pair_kernel(algorithm, topology, inputs, reduction=False)

    @register_kernel(FastSixColoring)
    def _fast6_kernel(algorithm, topology, inputs):
        return _make_pair_kernel(algorithm, topology, inputs, reduction=True)


_register_builtin_kernels()
