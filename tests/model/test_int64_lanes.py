"""The plane engine's int64 id lanes at their boundaries.

The numpy tier packs an identifier beside a six-bit color field, so it
holds ids below ``2**57``; Algorithm 3's reduction ``f(X, Y) = 2i + X_i``
(Equation 6) needs their exact bit lengths there.  A float64 ``frexp``
exponent is exact only below ``2**53`` — ``2**54 − 1`` rounds up to
``2**54`` and reads one bit too long — so this suite pins the exact
helper and drives ids chosen to sit just under powers of two through
both plane labels against the reference engine.  Random ids in
``[2**53, 2**57)`` rarely land on such values and would not catch the
rounding.
"""

import random

import pytest

from repro.analysis.inputs import random_distinct_ids
from repro.campaign.registry import ALGORITHMS
from repro.core.coin_tossing import reduce_identifier
from repro.model.batch import _MAX_LANE_ID, _bit_length_np, _rid_np
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler, SynchronousScheduler

# Between its neighbors Y and Z, X reduces against Y: X ^ Y = 2**55, so
# f(X, Y) = 2i + X_i turns on i = min(bit lengths) = 54, which a
# rounded float64 exponent reads as 55.
Y = 2**54 - 1
X = Y + 2**55
Z = 2**56 + 5

SCHEDULES = [pytest.param(lambda: SynchronousScheduler(), id="sync")] + [
    pytest.param(lambda seed=seed: BernoulliScheduler(p=0.5, seed=seed),
                 id=f"bernoulli-{seed}")
    for seed in range(5)
]


def boundary_values():
    values = [0]
    for k in range(57):
        values += [2**k - 1, 2**k, 2**k + 1]
    rng = random.Random(57)
    values += [rng.getrandbits(rng.randint(1, 57)) for _ in range(2000)]
    return values


def test_bit_length_matches_int_bit_length():
    np = pytest.importorskip("numpy")
    values = boundary_values()
    got = _bit_length_np(np, np.asarray(values, dtype=np.int64)).tolist()
    assert got == [v.bit_length() for v in values]


def test_reduction_matches_the_scalar_reduction():
    np = pytest.importorskip("numpy")
    values = [v for v in boundary_values() if v > 0][:600]
    pairs = [(X, Y), (Y, X), (Z, Y), (Y, Z), (X, Z), (Z, X), (Y, 1)]
    pairs += list(zip(values, reversed(values)))
    xs, ys = (np.asarray(col, dtype=np.int64) for col in zip(*pairs))
    got = _rid_np(np, xs, ys).tolist()
    assert got == [reduce_identifier(x, y) for x, y in pairs]


def assert_planes_match_reference(alg_name, topology, ids, make_schedule):
    reference = run_execution(
        ALGORITHMS[alg_name](), topology, list(ids), make_schedule(),
        max_time=20_000, engine="reference",
    )
    for engine in ("wide", "batch"):
        got = run_execution(
            ALGORITHMS[alg_name](), topology, list(ids), make_schedule(),
            max_time=20_000, engine=engine,
        )
        assert dict(got.final_states) == dict(reference.final_states), engine
        assert got == reference, engine


@pytest.mark.parametrize("make_schedule", SCHEDULES)
@pytest.mark.parametrize("ids", [
    [Y, X, Z],
    [Y, X, Z, 1, 2],
    [Y, X, Z, 3, 1, 2],
], ids=["C3", "C5", "C6"])
@pytest.mark.parametrize("alg_name", ["fast5", "fast6"])
def test_reduction_families_at_rounding_ids(alg_name, ids, make_schedule):
    assert_planes_match_reference(alg_name, Cycle(len(ids)), ids, make_schedule)


@pytest.mark.parametrize("make_schedule", SCHEDULES[:2])
@pytest.mark.parametrize("alg_name", ["alg1", "alg2"])
def test_comparison_families_at_the_largest_lane_id(alg_name, make_schedule):
    ids = random_distinct_ids(16, seed=3)
    ids[5] = _MAX_LANE_ID - 1
    assert_planes_match_reference(alg_name, Cycle(len(ids)), ids, make_schedule)
