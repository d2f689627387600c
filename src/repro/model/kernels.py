"""Compiled per-algorithm kernels for the fast-path engine.

A *kernel* is the engine's inner loop and one algorithm's ``step``
fused into a single function over parallel arrays of plain ints — no
``NamedTuple`` states, no register payload tuples, no ``StepOutcome``
wrappers, no per-activation attribute lookups.  The "compilation"
happens once, in :func:`build_kernel`: neighbor ids are unpacked into
flat arrays, algorithm parameters (ablation flags) are bound into
locals, and the degree-≤2 structure of the cycle/path topologies is
specialized away.

Correctness discipline: a kernel must reproduce the reference engine's
:class:`~repro.model.execution.ExecutionResult` *bit-identically* —
outputs, activation counts, return times, final time, the
``time_exhausted`` flag and the per-process final states.  Every kernel
listed here is pinned by the differential equivalence harness
(``tests/model/test_fastpath_equivalence.py``); a kernel that cannot
guarantee equivalence for a given configuration must decline (return
``None``) so the generic fast path takes over.

Algorithms 1–3 and fast-six share one round, so they share one kernel
body; :data:`KERNELS` maps each exact algorithm type to its register
family, and both kernel tiers — this scalar one and the plane engine
of :mod:`repro.model.batch` — read that one table and the one flag
rule :data:`ABLATION_FLAGS`.  Lookup is by *exact* type: a subclass
may override ``step`` and silently change semantics, so it never
matches.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from repro.model.execution import ExecutionResult
from repro.model.topology import Topology
from repro.obs.metrics import active_registry
from repro.obs.spans import span

__all__ = ["ABLATION_FLAGS", "KERNELS", "build_kernel"]

#: Exact algorithm type → register family ``(pair, reduction)``.
#: ``pair`` selects the (x, (a, b) pair) family of Algorithm 1 /
#: fast-six over the (x, a, b) family of Algorithms 2 / 3, which return
#: a single color; ``reduction`` adds the identifier-reduction block
#: (Algorithm 3, fast-six).  Filled in at the end of this module.
KERNELS: Dict[Type, Tuple[bool, bool]] = {}

#: The ablation flags a kernel binds, read as ``getattr(alg, name,
#: True)`` — an algorithm without the attribute runs the paper's rule.
#: They only matter with ``reduction``; the pair family has no
#: ``guarded_adoption`` and so always guards.
ABLATION_FLAGS = ("green_light", "guarded_adoption")


def build_kernel(algorithm, topology: Topology, inputs: List[Any]):
    """The compiled runner for this configuration, or ``None``.

    The runner has signature ``runner(schedule, max_time, idle_limit)
    -> ExecutionResult``.  ``None`` for algorithm types outside
    :data:`KERNELS` (subclasses included) and for topologies the
    kernel declines (degree > 2).
    """
    alg_name = type(algorithm).__name__
    family = KERNELS.get(type(algorithm))
    if family is None:
        registry = active_registry()
        if registry is not None:
            registry.inc(
                "engine_kernel_builds_total", 1,
                algorithm=alg_name, outcome="unregistered",
            )
        return None
    pair, reduction = family
    with span("engine_kernel_build", algorithm=alg_name):
        kernel = _make_scalar_kernel(
            algorithm, topology, inputs, pair=pair, reduction=reduction
        )
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




def _family_state(pair: bool, reduction: bool) -> Type:
    """The final-state ``NamedTuple`` type of a register family."""
    if pair:
        from repro.core.coloring6 import SixState
        from repro.extensions.fast_six import FastSixState

        return FastSixState if reduction else SixState
    from repro.core.coloring5 import FiveState
    from repro.core.fast_coloring5 import FastState

    return FastState if reduction else FiveState


# ----------------------------------------------------------------------
# The scalar kernel: both register families
# ----------------------------------------------------------------------

def _make_scalar_kernel(algorithm, topology, inputs, *, pair, reduction):
    """Fused loop for Algorithms 1–3 and fast-six (see :data:`KERNELS`).

    One code path serves all four: the clock, the publish phase, the
    neighbor reads, the identifier-reduction block and the result
    assembly are shared, and only the return test and the color update
    depend on the register family.  ``reduction`` compiles the
    reduction block in (or out) together with its ablation flags.
    """
    from repro.core.coin_tossing import reduce_identifier
    from repro.core.fast_coloring5 import INFINITE_ROUND

    arrays = _degree2_arrays(topology)
    if arrays is None:
        return None
    nb1, nb2 = arrays
    n = topology.n
    green_light, guarded_adoption = (
        getattr(algorithm, name, True) for name in ABLATION_FLAGS
    )
    State = _family_state(pair, reduction)

    def run(schedule, max_time, idle_limit) -> ExecutionResult:
        st_x = list(inputs)
        st_a = [0] * n
        st_b = [0] * n
        st_r: List[Any] = [0] * n
        # Register images.  A register nobody has written yet holds
        # colors −1, which no real color equals, so an asleep neighbor
        # needs no separate test; cell n is the absent neighbor (a −1
        # neighbor id indexes it) and is never written.
        rg_x: List[Any] = [0] * (n + 1)
        rg_a = [-1] * (n + 1)
        rg_b = [-1] * (n + 1)
        rg_r: List[Any] = [0] * (n + 1)

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

            # Phase 2+3 — read + private update, fully inlined.
            for p in working:
                activations[p] += 1
                x = st_x[p]
                a = st_a[p]
                b = st_b[p]
                q1 = nb1[p]
                q2 = nb2[p]
                a1 = rg_a[q1]; b1 = rg_b[q1]
                a2 = rg_a[q2]; b2 = rg_b[q2]

                # Return test: the pair family returns its pair unless
                # an awake neighbor holds that exact pair; the (a, b)
                # family returns a, else b, if no awake neighbor holds
                # that color.
                if pair:
                    if (a != a1 or b != b1) and (a != a2 or b != b2):
                        color = (a, b)
                    else:
                        color = None
                elif a != a1 and a != b1 and a != a2 and a != b2:
                    color = a
                elif b != a1 and b != b1 and b != a2 and b != b2:
                    color = b
                else:
                    color = None
                if color is not None:
                    outputs[p] = color; return_times[p] = time
                    done[p] = True; remaining -= 1
                    continue

                # Color update: mexes over the awake neighbors' colors,
                # filtered by identifier order.
                w1 = a1 >= 0
                w2 = a2 >= 0
                hi1 = w1 and rg_x[q1] > x
                hi2 = w2 and rg_x[q2] > x
                if pair:
                    # a avoids the first components of higher-id
                    # neighbors, b the second components of lower-id ones.
                    v = 0
                    while (hi1 and v == a1) or (hi2 and v == a2):
                        v += 1
                    st_a[p] = v
                    lo1 = w1 and rg_x[q1] < x
                    lo2 = w2 and rg_x[q2] < x
                    v = 0
                    while (lo1 and v == b1) or (lo2 and v == b2):
                        v += 1
                    st_b[p] = v
                else:
                    # a avoids the colors of higher-id neighbors, b
                    # those of every awake neighbor.
                    v = 0
                    while ((hi1 and (v == a1 or v == b1))
                           or (hi2 and (v == a2 or v == b2))):
                        v += 1
                    st_a[p] = v
                    v = 0
                    while v == a1 or v == b1 or v == a2 or v == b2:
                        v += 1
                    st_b[p] = v

                # Identifier reduction (Algorithm 3, fast-six), compiled
                # in only when both neighbors exist and are awake.
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
                p: State(x=st_x[p], r=st_r[p], a=st_a[p], b=st_b[p])
                for p in range(n)
            }
        else:
            final_states = {
                p: State(x=st_x[p], a=st_a[p], b=st_b[p]) for p in range(n)
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
# The family table (imported here, after the definitions above: the
# algorithm packages' own imports lead back into repro.model)
# ----------------------------------------------------------------------

def _builtin_families() -> Dict[Type, Tuple[bool, bool]]:
    from repro.core.coloring5 import FiveColoring
    from repro.core.coloring6 import SixColoring
    from repro.core.fast_coloring5 import FastFiveColoring
    from repro.extensions.fast_six import FastSixColoring

    return {
        FiveColoring: (False, False),      # Algorithm 2
        FastFiveColoring: (False, True),   # Algorithm 3
        SixColoring: (True, False),        # Algorithm 1
        FastSixColoring: (True, True),     # fast-six
    }


KERNELS.update(_builtin_families())
