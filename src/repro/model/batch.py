"""The plane engine: lockstep execution of B ≥ 1 replicas.

Every quantitative claim in this repo is validated over *ensembles* —
(seed × input family × schedule) grids of runs that share one
configuration (same algorithm, same topology, same ``n``) and differ
only in their identifiers and activation streams — and every scaling
claim is validated on single runs at ``n = 10⁶⁺``.  Both are the same
computation: the paper's Equation (1) round (publish, read both
neighbors, private update) over whole activation sets.  This module
executes ``B`` replicas *in lockstep*: private state, register images
and per-process bookkeeping live in flat ``B × (n + 1)`` planes, the
schedulers hand out whole per-lockstep activation rows through the
vectorized :meth:`~repro.model.schedule.Schedule.steps_batch` API, and
one pass of array operations advances every activated process of every
replica at once.  A single run is the case ``B = 1`` — the engine name
``"wide"`` (:mod:`repro.model.wide`) is that label.

Correctness discipline is inherited unchanged from
:mod:`repro.model.kernels`: a batched run must reproduce the per-run
engines' :class:`~repro.model.execution.ExecutionResult` replica by
replica, *bit-identically* — outputs, activation counts, return times,
final times, ``time_exhausted`` flags and final states.  The
differential harnesses (``tests/model/test_batch_equivalence.py`` and
the engine matrix in ``tests/model/test_fastpath_equivalence.py``) pin
this for every registered algorithm, across ragged termination (each
replica retires the moment its own run ends — exhausted schedule,
``max_time``, idle cutoff, or everyone returned — without perturbing
the others) and crash-plan schedules.

numpy is an *optional accelerator*: when it is importable (and not
disabled via :data:`NUMPY_ENV_FLAG`) the kernels run fully vectorized,
including a bank of CPython-identical Mersenne Twister streams
(:class:`MTBatch`) so that Bernoulli activation masks match
``random.Random`` double for double.  Without numpy — and for
identifiers too large for exact int64 lanes — each replica runs
through the scalar kernel of :mod:`repro.model.kernels` instead,
bit-identical by construction, so the core library still has no hard
requirements.

Both tiers read one kernel family table: an exact algorithm type's
entry in :data:`repro.model.kernels.KERNELS` picks the register
family, and :data:`~repro.model.kernels.ABLATION_FLAGS` the flags
bound into the kernel.  A plane kernel must decline (return ``None``)
whenever it cannot guarantee equivalence — unsupported topology degree
or heterogeneous ablation flags.  A decline never reaches the caller:
:func:`run_batch` then runs every replica on the fast engine, and
counts the fallback (:func:`record_fallback`).
"""

from __future__ import annotations

import os
import random
from collections.abc import Mapping as _MappingABC
from functools import lru_cache
from itertools import repeat
from time import perf_counter
from time import time as wall_clock
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ExecutionError
from repro.model.execution import (
    DEFAULT_MAX_TIME,
    ExecutionResult,
)
from repro.model.kernels import (
    ABLATION_FLAGS,
    KERNELS,
    _degree2_arrays,
    _family_state,
)
from repro.model.schedule import Schedule, declares
from repro.model.topology import Topology
from repro.obs.metrics import active_registry, record_execution
from repro.obs.trace import is_recording, record_event, record_timed

__all__ = [
    "NUMPY_ENV_FLAG",
    "load_numpy",
    "numpy_accelerated",
    "MTBatch",
    "batched_steps",
    "build_batch_kernel",
    "plane_kernel",
    "run_batch",
]

#: Set this environment variable to a non-empty value (other than "0")
#: to force the scalar tier even when numpy is importable — the switch
#: the no-numpy CI leg and the differential tests use.
NUMPY_ENV_FLAG = "REPRO_BATCH_DISABLE_NUMPY"

#: ``r = ∞`` sentinel of the numpy tier: the green-light counter lives
#: in an int64 lane, and every real counter value is tiny, so a huge
#: finite sentinel preserves all comparisons; it is translated back to
#: ``math.inf`` when results are materialized.
_INF64 = 1 << 62


def load_numpy():
    """The numpy module, or ``None`` (absent or explicitly disabled)."""
    if os.environ.get(NUMPY_ENV_FLAG, "0") not in ("", "0"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - depends on environment
        return None
    return numpy


def numpy_accelerated() -> bool:
    """Whether batched kernels will use the numpy tier right now."""
    return load_numpy() is not None


# ----------------------------------------------------------------------
# A bank of CPython-identical MT19937 streams
# ----------------------------------------------------------------------

@lru_cache(maxsize=512)
def _mt_state(seed) -> Tuple[Any, int]:
    """The freshly-seeded MT19937 state of ``random.Random(seed)``.

    Returns the 624-word key (as uint32, ready for ``set_state``) and
    the initial position.  A pure function of the seed — and campaigns
    reuse the same seed grid across algorithms and input families — so
    the expansion is memoized; ``set_state`` copies the key, keeping
    the cached array immutable.
    """
    import numpy as np  # guarded by the MTBatch constructor

    words = random.Random(seed).getstate()[1]
    return np.asarray(words[:624], dtype=np.uint32), words[624]


def _mt_words(np, seed, count: int):
    """The first ``count`` ``getrandbits(32)`` of ``random.Random(seed)``
    as uint32: a full-range ``randint`` takes one MT19937 word each.

    The state is expanded afresh: one draw per seed is the common case,
    and the memo would keep 512 keys alive in every process that draws.
    """
    pool = MTBatch._pool
    try:
        stream = pool.pop()
    except IndexError:
        stream = np.random.RandomState(0)
    stream.set_state(("MT19937", *_mt_state.__wrapped__(seed)))
    words = stream.randint(0, 1 << 32, size=count, dtype=np.uint32)
    if len(pool) < 256:
        pool.append(stream)
    return words


class MTBatch:
    """A bank of ``B`` CPython-identical Mersenne Twister streams.

    Stream ``i`` reproduces ``random.Random(seeds[i]).random()`` *bit
    for bit*: CPython and numpy's legacy ``RandomState`` share the same
    MT19937 core and the same 53-bit ``genrand_res53`` double
    construction, so lifting the 624-word state (plus position) out of
    ``random.Random.getstate()`` and injecting it into a
    ``RandomState`` yields the exact scalar stream at C speed.  This is
    what lets the batched Bernoulli scheduler draw whole activation
    matrices while consuming exactly the RNG stream the scalar
    scheduler would — the equivalence harness diffs this replica by
    replica.

    Streams consume independently (Bernoulli redraws desynchronize
    them); each ``RandomState`` keeps its own position.  Doubles are
    drawn from the underlying generators in blocks of ``block``
    requests and buffered per stream: the *served* sequence is still
    exactly the scalar stream, double for double, and the streams are
    private to one ``steps_batch`` iterator, so drawing ahead is
    unobservable.
    """

    #: Free list of ``RandomState`` shells shared by all banks —
    #: constructing one runs full ``seed(0)`` initialization (~0.15 ms)
    #: only to have its state overwritten, so retired shells are
    #: recycled instead.  ``set_state`` runs before every reuse.
    _pool: List[Any] = []

    def __init__(self, seeds: Sequence[int], np=None, block: int = 8):
        self._np = np = np if np is not None else load_numpy()
        if np is None:
            raise ExecutionError("MTBatch requires the numpy accelerator")
        self._block = max(1, block)
        pool = MTBatch._pool
        self._streams = []
        self._buffers: List[Any] = []
        for seed in seeds:
            key, pos = _mt_state(seed)
            try:  # pop alone is atomic; a check-then-pop could race
                stream = pool.pop()
            except IndexError:
                stream = np.random.RandomState(0)
            stream.set_state(("MT19937", key, pos))
            self._streams.append(stream)
            self._buffers.append(None)

    def retire(self, row: int) -> None:
        """Hint that one stream will never be consumed again."""
        stream = self._streams[row]
        if stream is not None and len(MTBatch._pool) < 256:
            MTBatch._pool.append(stream)
        self._streams[row] = None
        self._buffers[row] = None

    def __del__(self):
        # A bank is dropped mid-iteration when its run ends before its
        # schedules do; recycle the shells it still holds.
        try:
            pool = MTBatch._pool
            for stream in self._streams:
                if stream is not None and len(pool) < 256:
                    pool.append(stream)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def take(self, rows: Sequence[int], count: int):
        """``(len(rows), count)`` fresh doubles, one row per stream.

        Serves ``count`` doubles from each listed stream, exactly the
        values ``count`` calls of ``random.Random.random`` would
        produce next.
        """
        np = self._np
        out = np.empty((len(rows), count), dtype=np.float64)
        for k, row in enumerate(rows):
            buf = self._buffers[row]
            if buf is None or buf.shape[0] < count:
                have = 0 if buf is None else buf.shape[0]
                fresh = self._streams[row].random_sample(
                    max(count - have, count * self._block)
                )
                buf = fresh if not have else np.concatenate((buf, fresh))
            out[k] = buf[:count]
            self._buffers[row] = buf[count:]
        return out


# ----------------------------------------------------------------------
# Merging per-type steps_batch generators into one lockstep stream
# ----------------------------------------------------------------------

class _GroupActive:
    """Group-local, read-only view of the engine's live-replica flags.

    ``steps_batch`` implementations consult this so that retired
    replicas stop consuming their schedule (and RNG) streams, exactly
    like the per-run engines stop iterating a finished run's schedule.
    """

    __slots__ = ("_flags", "_indices")

    def __init__(self, flags: List[bool], indices: List[int]):
        self._flags = flags
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i: int) -> bool:
        return self._flags[self._indices[i]]


def batched_steps(schedules: Sequence[Schedule], n: int, flags: List[bool]):
    """Merge per-replica schedules into one per-lockstep row stream.

    Groups the schedules by *exact* type and drives one
    :meth:`~repro.model.schedule.Schedule.steps_batch` generator per
    group: the type's declared vectorized stream, or the base class's
    adapter over ``steps`` when the type declares none (see
    :func:`~repro.model.schedule.declares` — a subclass that overrides
    ``steps`` does not inherit its parent's ``steps_batch``).  Yields,
    per lockstep, a list with one row per replica: ``None`` for an
    exhausted (or already retired) schedule, otherwise an activation
    row (id sequence or bool mask).

    ``flags`` is the engine-owned liveness list; the per-group
    generators see it through a read-only view and must not advance
    the streams of retired replicas.
    """
    groups: Dict[Type, List[int]] = {}
    for j, schedule in enumerate(schedules):
        groups.setdefault(type(schedule), []).append(j)
    gens = []
    for sched_type, indices in groups.items():
        owner = sched_type if declares(sched_type, "steps_batch") else Schedule
        gen = owner.steps_batch(
            [schedules[j] for j in indices], n, _GroupActive(flags, indices)
        )
        gens.append((indices, gen))
    B = len(schedules)
    while True:
        rows: List[Any] = [None] * B
        for indices, gen in gens:
            group_rows = next(gen)
            for k, j in enumerate(indices):
                rows[j] = group_rows[k]
        yield rows


# ----------------------------------------------------------------------
# Kernel dispatch
# ----------------------------------------------------------------------

def build_batch_kernel(
    algorithms: Sequence[Any], topology: Topology,
    inputs_list: Sequence[Sequence[Any]], *, requested: str = "batch",
):
    """The batched runner for this replica ensemble, or ``None``.

    The runner has signature ``runner(schedules, max_time, idle_limit)
    -> (results, stats)``: one ``ExecutionResult`` per replica plus the
    run statistics — ``tier`` (``"vector"`` or ``"scalar"``), lockstep
    and live-replica counts (``locksteps``, ``live_sum``) and non-idle
    steps with their working-set total (``work_steps``,
    ``working_sum``).  See :func:`plane_kernel`; a ``None`` has been
    counted as a fallback from ``requested``, and :func:`run_batch`
    then runs each replica on the fast engine.
    """
    return plane_kernel(algorithms, topology, inputs_list, requested)


def plane_kernel(
    algorithms: Sequence[Any], topology: Topology,
    inputs_list: Sequence[Sequence[Any]], requested: str,
):
    """The plane kernel for these replicas, or ``None`` after counting
    the decline.

    Exact-type dispatch over the *shared* algorithm type, through the
    family table :data:`~repro.model.kernels.KERNELS`.  Each way to
    decline is counted here, once, as a fallback from ``requested``
    (:func:`record_fallback`): ``mixed-types`` (no shared type),
    ``unregistered`` (no kernel for the exact type) or ``declined``
    (:func:`_make_plane_kernel` refused the topology or the replicas'
    ablation flags).
    """
    alg_type = type(algorithms[0])
    family = KERNELS.get(alg_type)
    if any(type(a) is not alg_type for a in algorithms[1:]):
        reason = "mixed-types"
    elif family is None:
        reason = "unregistered"
    else:
        pair, reduction = family
        kernel = _make_plane_kernel(
            algorithms, topology, inputs_list, pair=pair, reduction=reduction
        )
        if kernel is not None:
            return kernel
        reason = "declined"
    record_fallback(requested, reason)
    return None


#: Exclusive bound on identifiers the numpy tier packs: the register
#: word ``x << 6 | a << 3 | b`` keeps six bits for the two colors, so an
#: id below ``2**57`` leaves the int64 word non-negative and exact.
_MAX_LANE_ID = 1 << 57


def _ids_as_int64(np, inputs_list: Sequence[Sequence[Any]]):
    """The identifiers as a ``(B, n)`` int64 array, or ``None``.

    The numpy tier packs identifiers beside a six-bit color field and
    takes their bit lengths exactly, which holds below ``2**57``
    (:data:`_MAX_LANE_ID`) — the ``huge`` input family (256-bit ids)
    must take the scalar tier, as must any non-integer identifiers
    (which numpy would silently coerce; ``bool`` is fine, ``True == 1``
    survives the round trip).
    """
    try:
        raw = np.asarray(inputs_list)
    except (OverflowError, TypeError, ValueError):
        return None
    if raw.dtype != np.bool_ and not np.issubdtype(raw.dtype, np.integer):
        return None
    arr = raw.astype(np.int64)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= _MAX_LANE_ID):
        return None
    return arr


# ----------------------------------------------------------------------
# The lockstep driver (clockwork shared by both kernel families)
# ----------------------------------------------------------------------

def _working(np, row: Any, undone_row, everyone: range):
    """The not-yet-returned process ids of one activation row.

    A row is a boolean mask, the full ``range(n)`` of the synchronous
    scheduler, or any other id sequence; each form is compacted in
    O(its own size) — a sparse step never scans the whole plane.
    """
    if isinstance(row, np.ndarray):
        return np.flatnonzero(row & undone_row)
    if row == everyone:
        return np.flatnonzero(undone_row)
    if isinstance(row, range):
        ids = np.arange(row.start, row.stop, row.step)
    else:
        ids = np.fromiter(row, dtype=np.int64, count=len(row))
    return ids[undone_row.take(ids)] if ids.size else ids


def _drive(np, schedules, n, max_time, idle_limit, step_cells):
    """Run ``B = len(schedules)`` replicas in lockstep over flat planes.

    Per-replica clocks replicate the scalar kernel loop exactly: a
    ``None`` row ends the run without advancing time; stepping past
    ``max_time`` rolls time back and flags exhaustion; a step whose
    working set is empty only bumps the idle streak.  A replica is
    retired the moment nothing remains for it — matching the scalar
    engine, whose next drawn step would be discarded unused.

    Cell ``(b, p)`` of a ``B × (n + 1)`` plane lives at flat index
    ``b·(n+1) + p``; column ``n`` is the kernels' sentinel and never
    activates.  Each lockstep hands ``step_cells`` the working cells of
    every live replica as one flat index array — sized by the live
    frontier, not by ``B × n`` — and gets back the cells that returned
    (or ``None``).  The driver owns everything that is not
    algorithm-specific: the not-returned plane, return times and
    activation counts.
    """
    B = len(schedules)
    N1 = n + 1
    size = B * N1
    undone = np.zeros((B, N1), dtype=bool)
    undone[:, :n] = True
    undone_f = undone.reshape(-1)
    rows_undone = [undone[b, :n] for b in range(B)]
    ret_time = np.zeros(size, dtype=np.int64)
    act = np.zeros(size, dtype=np.int64)
    # Activation counts are folded in with one bincount per ``size``
    # activations, not a fancy ``+= 1`` per step.
    fronts: List[Any] = []
    front_len = 0
    everyone = range(n)
    remaining = [n] * B
    flags = [True] * B
    times = [0] * B
    idle = [0] * B
    exhausted = [False] * B
    live = B
    locksteps = live_sum = work_steps = working_sum = 0
    merged = batched_steps(schedules, n, flags)
    while live:
        rows = next(merged)
        locksteps += 1
        live_sum += live
        parts = []
        stepping = []
        for b in range(B):
            if not flags[b]:
                continue
            row = rows[b]
            if row is None or times[b] >= max_time:
                exhausted[b] = row is not None
                flags[b] = False
                live -= 1
                continue
            times[b] += 1
            cells = _working(np, row, rows_undone[b], everyone)
            if cells.size:
                idle[b] = 0
                parts.append(cells + b * N1 if b else cells)
                stepping.append(b)
            else:
                idle[b] += 1
                if idle_limit and idle[b] >= idle_limit:
                    flags[b] = False
                    live -= 1
        if not parts:
            continue
        flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
        work_steps += 1
        working_sum += flat.size
        fronts.append(flat)
        front_len += flat.size
        if front_len >= size:
            act += np.bincount(np.concatenate(fronts), minlength=size)
            fronts = []
            front_len = 0
        returned = step_cells(flat)
        if returned is None:
            continue
        undone_f[returned] = False
        if B == 1:
            ret_time[returned] = times[0]
            counts = [returned.size]
        else:
            owner = returned // N1
            ret_time[returned] = np.array(times).take(owner)
            counts = np.bincount(owner, minlength=B).tolist()
        for b in stepping:
            remaining[b] -= counts[b]
            if not remaining[b]:
                flags[b] = False
                live -= 1
    if fronts:
        act += np.bincount(np.concatenate(fronts), minlength=size)
    stats = {
        "tier": "vector",
        "locksteps": locksteps,
        "live_sum": live_sum,
        "work_steps": work_steps,
        "working_sum": working_sum,
    }
    return times, exhausted, undone, ret_time, act, stats


# ----------------------------------------------------------------------
# Vectorized primitives shared by the kernel families
# ----------------------------------------------------------------------

class _LazyMapping(_MappingABC):
    """A result mapping materialized on first access.

    Building the per-replica result dicts (outputs, return times,
    activation counts, ``n`` NamedTuple final states) costs more than
    the whole lockstep compute on fast-terminating ensembles, and most
    consumers read only a slice of them — so the numpy tier defers
    construction until something actually looks.  Equality with plain
    dicts works in both directions: ``dict.__eq__`` returns
    ``NotImplemented`` for a non-dict operand, handing control to this
    class, which materializes and compares values — exactly what the
    differential harness exercises.  ``rows``, the plane rows the
    builder reads (or ``None``), lets ``summarize`` and
    ``record_execution`` count without building the dict; it goes with
    the builder.
    """

    __slots__ = ("_build", "_states", "rows")

    def __init__(self, build: Callable[[], Dict[int, Any]], rows: Any = None):
        self._build = build
        self._states: Optional[Dict[int, Any]] = None
        self.rows = rows

    def _materialize(self) -> Dict[int, Any]:
        if self._states is None:
            self._states = self._build()
            self._build = self.rows = None
        return self._states

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __contains__(self, key) -> bool:
        return key in self._materialize()

    # The dict's own views and ``get``: the ``Mapping`` mixins would
    # call the Python-level ``__getitem__`` once per element.
    def keys(self):
        return self._materialize().keys()

    def values(self):
        return self._materialize().values()

    def items(self):
        return self._materialize().items()

    def get(self, key, default=None):
        return self._materialize().get(key, default)

    def __eq__(self, other) -> Any:
        if isinstance(other, _LazyMapping):
            other = other._materialize()
        if not isinstance(other, _MappingABC):
            return NotImplemented
        if not isinstance(other, dict):
            other = dict(other)
        return self._materialize() == other

    def __ne__(self, other) -> Any:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return repr(self._materialize())


@lru_cache(maxsize=None)
def _color_luts(np):
    """``(a_bit, b_bit, mex)`` lookup tables over packed color fields.

    A register's low six bits hold ``a << 3 | b``; ``a_bit[f]`` and
    ``b_bit[f]`` are the taken-set bits ``1 << (a + 1)`` and
    ``1 << (b + 1)`` of field ``f``.  Colors are at most 4 and the
    asleep/absent sentinel field is 63 (a = b = 7), so every taken-set
    mask fits in nine bits and ``mex[mask]`` is the least ``v`` whose
    bit ``v + 1`` is clear.  Table gathers replace per-cell shifts and
    ``frexp`` bit tricks.  The tables are shared: read-only.
    """
    fields = np.arange(64, dtype=np.int64)
    a_bit = np.int64(1) << ((fields >> 3) + 1)
    b_bit = np.int64(1) << ((fields & 7) + 1)
    mex = np.zeros(512, dtype=np.int64)
    for mask in range(512):
        v = 0
        while mask >> (v + 1) & 1:
            v += 1
        mex[mask] = v
    return a_bit, b_bit, mex


def _bit_length_np(np, x):
    """``int.bit_length`` of each non-negative int64 in ``x``, exactly.

    A ``frexp`` exponent is the bit length only while the value is
    exact in float64 (below ``2**53``); each 32-bit half always is.
    """
    hi = x >> 32
    return np.where(
        hi > 0,
        np.frexp(hi.astype(np.float64))[1] + 32,
        np.frexp((x & 0xFFFFFFFF).astype(np.float64))[1],
    ).astype(np.int64)


def _rid_np(np, x, y):
    """Vectorized :func:`repro.core.coin_tossing.reduce_identifier`.

    Bit lengths are exact for every id the lanes hold (below
    ``2**57``); the lowest set bit of ``x ^ y`` is a power of two, so
    its ``frexp`` exponent is exact at any width.
    """
    cap = np.minimum(_bit_length_np(np, x), _bit_length_np(np, y))
    diff = x ^ y
    lsb_len = np.frexp((diff & -diff).astype(np.float64))[1].astype(np.int64)
    i = np.where(diff == 0, cap, np.minimum(cap, lsb_len - 1))
    return 2 * i + ((x >> i) & 1)


def _reduce_ids(np, sr, rr, csel, xc, x1, x2, rc, q1c, q2c, *,
                green_light, guarded_adoption):
    """Identifier reduction of Algorithm 3 / fast-six, vectorized.

    Runs over the continuing cells ``csel`` (own id ``xc``, neighbor
    ids ``x1``/``x2`` with −1 for asleep or absent, counter ``rc``,
    neighbor cells ``q1c``/``q2c``).  Updates the counter plane ``sr``
    and the id array ``xc`` in place — ``xc`` is a fresh array and the
    mid/ext index sets are disjoint.
    """
    red = (x1 >= 0) & (x2 >= 0) & (rc < _INF64)
    if green_light:
        red &= rc <= np.minimum(rr.take(q1c), rr.take(q2c))
    if not red.any():
        return
    lo = np.minimum(x1, x2)
    hi = np.maximum(x1, x2)
    inside = (lo < xc) & (xc < hi)
    mid = red & inside
    if mid.any():
        midx = np.flatnonzero(mid)
        lom = lo.take(midx)
        sr[csel.take(midx)] = rc.take(midx) + 1
        cand = _rid_np(np, xc.take(midx), lom)
        if guarded_adoption:
            adopt = cand < lom
            xc[midx[adopt]] = cand[adopt]
        else:
            xc[midx] = cand
    ext = red & ~inside
    if ext.any():
        eidx = np.flatnonzero(ext)
        sr[csel.take(eidx)] = _INF64
        xe = xc.take(eidx)
        low = xe < lo.take(eidx)
        if low.any():
            lidx = eidx[low]
            xl = xe[low]
            f1 = _rid_np(np, x1.take(lidx), xl)
            f2 = _rid_np(np, x2.take(lidx), xl)
            vv = np.zeros(len(xl), dtype=np.int64)
            for _ in range(2):
                vv += (vv == f1) | (vv == f2)
            adopt = vv < xl
            xc[lidx[adopt]] = vv[adopt]


# ----------------------------------------------------------------------
# The plane kernel: both register families, B ≥ 1
# ----------------------------------------------------------------------

def _make_plane_kernel(algorithms, topology, inputs_list, *, pair, reduction):
    """The lockstep runner for Algorithms 1–3 and fast-six replicas.

    ``pair`` and ``reduction`` name the register family, as in
    :data:`~repro.model.kernels.KERNELS`.  Declines (``None``) on
    degree > 2 topologies and on replicas that disagree on an ablation
    flag.  Identifiers that do not fit exact int64 lanes, and runs
    without numpy, take the scalar tier.
    """
    arrays = _degree2_arrays(topology)
    if arrays is None:
        return None
    flags = {}
    for name in ABLATION_FLAGS:
        values = {getattr(alg, name, True) for alg in algorithms}
        if len(values) > 1:
            return None
        flags[name] = values.pop()
    np = load_numpy()
    init_x = _ids_as_int64(np, inputs_list) if np is not None else None
    if init_x is None:
        return _scalar_runner(algorithms, topology, inputs_list)
    return _plane_runner(
        np, topology.n, arrays[0], arrays[1], init_x,
        pair=pair, reduction=reduction, **flags,
    )


def _plane_runner(np, n, nb1, nb2, init_x, *, pair, reduction, green_light,
                  guarded_adoption):
    # State and register planes are flat int64 arrays of length
    # ``B × (n + 1)`` (see :func:`_drive`).  The whole (x, a, b) triple
    # is packed into one word, ``x << 6 | a << 3 | b`` — ids are < 2⁵⁷
    # (gated by :func:`_ids_as_int64`) and colors are ≤ 4, so each
    # field is exact, and the register sentinel −1 unpacks under
    # arithmetic shifts to x = −1, a = b = 7, values no real state can
    # take: awakeness reduces to ``x >= 0``, a sentinel color never
    # clashes with a real one, and the zero-/one-/two-awake-neighbor
    # cases collapse into one vector expression, as they do in the
    # scalar kernel.
    # Publishing a register image is one gather plus one scatter, and
    # reading a neighbor is one gather through the precomputed flat
    # neighbor tables.
    from repro.core.fast_coloring5 import INFINITE_ROUND

    state_type = _family_state(pair, reduction)

    B = len(init_x)
    N1 = n + 1
    size = B * N1
    offsets = np.arange(0, size, N1, dtype=np.int64)[:, None]
    q1t = np.append(np.asarray(nb1, dtype=np.int64), n)
    q2t = np.append(np.asarray(nb2, dtype=np.int64), n)
    # Absent neighbor → the replica's own sentinel cell.
    q1F = (np.where(q1t >= 0, q1t, n) + offsets).reshape(-1)
    q2F = (np.where(q2t >= 0, q2t, n) + offsets).reshape(-1)
    a_bit, b_bit, mex = _color_luts(np)
    taken_bits = a_bit | b_bit

    def run(schedules, max_time, idle_limit):
        sP = np.zeros(size, dtype=np.int64)
        sP.reshape(B, N1)[:, :n] = init_x << 6  # a = b = 0 initially
        rP = np.full(size, -1, dtype=np.int64)
        if reduction:
            sr = np.zeros(size, dtype=np.int64)
            rr = np.full(size, -1, dtype=np.int64)
        if not pair:
            out_c = np.zeros(size, dtype=np.int64)

        def step_cells(flat):
            # Phase 1: publish the packed register images.
            v = sP.take(flat)
            rP[flat] = v
            if reduction:
                rw = sr.take(flat)
                rr[flat] = rw
            # Phase 2: read both neighbors' packed images.
            q1f = q1F.take(flat)
            q2f = q2F.take(flat)
            g1 = rP.take(q1f)
            g2 = rP.take(q2f)
            f1 = g1 & 63
            f2 = g2 & 63
            mine = v & 63
            # Phase 3: return test over the whole frontier.
            if pair:
                # Return unless an awake neighbor holds my exact pair.
                ret = (f1 != mine) & (f2 != mine)
            else:
                t1 = taken_bits.take(f1)
                t2 = taken_bits.take(f2)
                taken = t1 | t2
                ok_a = (taken & a_bit.take(mine)) == 0
                ret = ok_a | ((taken & b_bit.take(mine)) == 0)
            ridx = np.flatnonzero(ret)
            returned = None
            if ridx.size:
                returned = flat.take(ridx)
                if not pair:
                    vr = v.take(ridx)
                    out_c[returned] = np.where(
                        ok_a.take(ridx), (vr >> 3) & 7, vr & 7
                    )
                if ridx.size == flat.size:
                    return returned
            # Index-based extraction (flatnonzero + take) of the cells
            # that keep working: a gather is several times cheaper per
            # array than a boolean-mask pass.
            cidx = np.flatnonzero(~ret)
            csel = flat.take(cidx)
            xc = v.take(cidx) >> 6
            x1 = g1.take(cidx) >> 6  # sentinel −1 shifts to −1
            x2 = g2.take(cidx) >> 6
            hi1 = x1 > xc  # asleep/absent ⇒ x = −1 ⇒ never "higher"
            hi2 = x2 > xc
            if pair:
                f1c = f1.take(cidx)
                f2c = f2.take(cidx)
                na = mex.take(
                    np.where(hi1, a_bit.take(f1c), 0)
                    | np.where(hi2, a_bit.take(f2c), 0)
                )
                nb = mex.take(
                    np.where((x1 >= 0) & (x1 < xc), b_bit.take(f1c), 0)
                    | np.where((x2 >= 0) & (x2 < xc), b_bit.take(f2c), 0)
                )
            else:
                t1c = t1.take(cidx)
                t2c = t2.take(cidx)
                na = mex.take(np.where(hi1, t1c, 0) | np.where(hi2, t2c, 0))
                nb = mex.take(t1c | t2c)
            if reduction:
                _reduce_ids(
                    np, sr, rr, csel, xc, x1, x2, rw.take(cidx),
                    q1f.take(cidx), q2f.take(cidx),
                    green_light=green_light,
                    guarded_adoption=guarded_adoption,
                )
            sP[csel] = (xc << 6) | (na << 3) | nb
            return returned

        times, exhausted, undone, ret_time, act, stats = _drive(
            np, schedules, n, max_time, idle_limit, step_cells
        )

        results = []
        ids = list(range(n))
        SP = sP.reshape(B, N1)
        SR = sr.reshape(B, N1) if reduction else None
        ACT = act.reshape(B, N1)
        RT = ret_time.reshape(B, N1)
        OUT = SP if pair else out_c.reshape(B, N1)
        for bi in range(B):
            # Every result mapping materializes lazily: consumers
            # typically read one or two of them (often none), and the
            # rows stay alive inside the closures either way.  The
            # outputs' rows are (not-returned, colour or packed state,
            # pair).
            def build_outputs(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                colors = OUT[bi].take(pret)
                if pair:
                    colors = zip(((colors >> 3) & 7).tolist(),
                                 (colors & 7).tolist())
                else:
                    colors = colors.tolist()
                return dict(zip(pret.tolist(), colors))

            def build_return_times(bi=bi):
                pret = np.flatnonzero(~undone[bi, :n])
                return dict(zip(pret.tolist(), RT[bi].take(pret).tolist()))

            def build_activations(bi=bi):
                return dict(zip(ids, ACT[bi, :n].tolist()))

            # tuple.__new__ builds the NamedTuples without entering
            # their generated __new__ — same objects, C-speed.
            def build_states(bi=bi):
                row = SP[bi, :n]
                fields = [(row >> 6).tolist(), ((row >> 3) & 7).tolist(),
                          (row & 7).tolist()]
                if reduction:
                    fields.insert(1, [
                        r if r < _INF64 else INFINITE_ROUND
                        for r in SR[bi, :n].tolist()
                    ])
                return dict(zip(ids, map(
                    tuple.__new__, repeat(state_type), zip(*fields)
                )))

            results.append(ExecutionResult(
                n=n,
                outputs=_LazyMapping(
                    build_outputs, (undone[bi, :n], OUT[bi, :n], pair)
                ),
                activations=_LazyMapping(build_activations, ACT[bi, :n]),
                return_times=_LazyMapping(build_return_times),
                final_time=times[bi],
                time_exhausted=exhausted[bi],
                trace=None,
                final_states=_LazyMapping(build_states),
            ))
        return results, stats

    return run


# ----------------------------------------------------------------------
# The scalar tier
# ----------------------------------------------------------------------

def _scalar_runner(algorithms, topology, inputs_list):
    """Per-replica delegation to the scalar kernel.

    Without numpy, or with identifiers outside exact int64 lanes, a
    plane step over plain Python values degenerates to the very loop
    :mod:`repro.model.kernels` already compiles — so this tier *is*
    that kernel, one replica after another.  Bit-identical by
    construction: each replica consumes its own ``steps_fast`` stream,
    which is its ``steps`` stream or the ids of the very rows the
    lockstep driver would have drawn.  Declines (``None``) when a
    scalar kernel does.
    """
    from repro.model.kernels import build_kernel

    kernels = []
    for algorithm, inputs in zip(algorithms, inputs_list):
        kernel = build_kernel(algorithm, topology, list(inputs))
        if kernel is None:
            return None
        kernels.append(kernel)

    def run(schedules, max_time, idle_limit):
        results = [
            kernel(schedule, max_time, idle_limit)
            for kernel, schedule in zip(kernels, schedules)
        ]
        # Replica occupancy as if the runs had shared one clock; no
        # step ran vectorized.
        final_times = [result.final_time for result in results]
        stats = {"tier": "scalar", "locksteps": max(final_times),
                 "live_sum": sum(final_times), "work_steps": 0,
                 "working_sum": 0}
        return results, stats

    return run


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def run_batch(
    algorithms: Sequence[Any],
    topology: Topology,
    inputs_list: Sequence[Sequence[Any]],
    schedules: Sequence[Schedule],
    *,
    max_time: int = DEFAULT_MAX_TIME,
    idle_limit: int = 10_000,
) -> List[ExecutionResult]:
    """Run ``B`` replicas of one configuration in lockstep.

    Replica ``i`` is ``(algorithms[i], inputs_list[i], schedules[i])``
    over the shared ``topology``; the returned list holds one
    :class:`~repro.model.execution.ExecutionResult` per replica,
    bit-identical to what the per-run engines would produce.  When no
    batched kernel covers this configuration (mixed or unregistered
    algorithm types, unsupported topology, disagreeing ablation flags)
    each replica runs on the fast engine instead and the decline is
    counted; ``result.engine`` says which ran.

    Ragged shapes are handled per replica: each retires independently
    on termination, schedule exhaustion, ``max_time`` (its own clock)
    or the idle cutoff, and its schedule stream stops being consumed
    from that point on.
    """
    B = len(algorithms)
    if B == 0:
        return []
    if len(inputs_list) != B or len(schedules) != B:
        raise ExecutionError(
            "run_batch: algorithms, inputs_list and schedules must have "
            f"equal lengths (got {B}, {len(inputs_list)}, {len(schedules)})"
        )
    n = topology.n
    inputs_list = [list(inputs) for inputs in inputs_list]
    for inputs in inputs_list:
        if len(inputs) != n:
            raise ExecutionError(
                f"expected {n} inputs per replica, got {len(inputs)}"
            )
    kernel = build_batch_kernel(algorithms, topology, inputs_list)
    if kernel is not None:
        return run_plane(
            kernel, "batch", algorithms, topology, schedules,
            max_time=max_time, idle_limit=idle_limit,
        )
    from repro.model.fastpath import FastExecutor

    return [
        FastExecutor(topology, algorithm, inputs).run(
            schedule, max_time, idle_limit
        )
        for algorithm, inputs, schedule in zip(algorithms, inputs_list, schedules)
    ]


def run_plane(
    kernel: Callable, label: str, algorithms: Sequence[Any],
    topology: Topology, schedules: Sequence[Schedule], *,
    max_time: int, idle_limit: int = 10_000,
) -> List[ExecutionResult]:
    """Run a built plane kernel and record it under ``label``.

    The one run step of the plane engine, shared by :func:`run_batch`
    and the single-run path of
    :func:`~repro.model.execution.run_execution`; every result is
    stamped with ``label``.  ``"wide"`` records the ``wide_*`` metrics
    and step counts, ``"batch"`` the ``batch_*`` packing metrics and
    the replica count.
    """
    registry = active_registry()
    observing = registry is not None or is_recording()
    started = perf_counter() if observing else 0.0
    wall = wall_clock() if observing else 0.0
    results, stats = kernel(schedules, max_time, idle_limit)
    for result in results:
        result.engine = label
    if not observing:
        return results
    elapsed = perf_counter() - started
    B = len(results)
    if label == "wide":
        alg_name = type(algorithms[0]).__name__
        steps = stats["work_steps"]
        occupancy = stats["working_sum"] / (steps * topology.n) if steps else 0.0
        attributes = {"algorithm": alg_name, "dense_steps": steps,
                      "sparse_steps": 0}
        if registry is not None:
            registry.inc(
                "wide_steps_total", steps, algorithm=alg_name, path="dense",
            )
            registry.observe("wide_frontier_occupancy", occupancy)
    else:
        locksteps = stats["locksteps"]
        occupancy = stats["live_sum"] / (locksteps * B) if locksteps else 0.0
        attributes = {"replicas": B}
        if registry is not None:
            registry.observe("batch_replicas", B)
            registry.observe("batch_occupancy", occupancy)
    if registry is not None:
        registry.observe(f"{label}_run_seconds", elapsed)
        for algorithm, result in zip(algorithms, results):
            record_execution(
                registry, label, type(algorithm).__name__, result,
                elapsed=elapsed / B,
            )
    record_timed(
        "engine_run", wall, elapsed,
        {"engine": label, "tier": stats["tier"], **attributes,
         "occupancy": round(occupancy, 4)},
    )
    return results


def record_fallback(requested: str, reason: str) -> None:
    """Count one plane-engine decline: the run goes to ``fast``.

    Increments ``engine_fallback_total{requested,used,reason}`` and
    records an ``engine.fallback`` trace event.  ``requested`` is the
    engine name the caller passed (``auto`` included).
    """
    registry = active_registry()
    if registry is not None:
        registry.inc(
            "engine_fallback_total", requested=requested, used="fast",
            reason=reason,
        )
    record_event(
        "engine.fallback", requested=requested, used="fast", reason=reason
    )
