"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis.inputs import monotone_ids, random_distinct_ids, zigzag_ids
from repro.campaign.registry import ALGORITHMS
from repro.core.fast_coloring5 import FastFiveColoring
from repro.extensions.fast_six import FastSixColoring
from repro.model.topology import Cycle
from repro.schedulers import (
    AlternatingScheduler,
    BernoulliScheduler,
    BlockRoundRobinScheduler,
    RoundRobinScheduler,
    StaggeredScheduler,
    SynchronousScheduler,
    UniformSubsetScheduler,
)

#: The scheduler cross-section most correctness tests run against.
#: Each entry is a zero-argument factory so tests get fresh objects.
SCHEDULER_FACTORIES = {
    "synchronous": lambda: SynchronousScheduler(),
    "round-robin": lambda: RoundRobinScheduler(),
    "block-rr": lambda: BlockRoundRobinScheduler(3),
    "alternating": lambda: AlternatingScheduler(),
    "staggered": lambda: StaggeredScheduler(stagger=2),
    "bernoulli-0": lambda: BernoulliScheduler(p=0.4, seed=0),
    "bernoulli-1": lambda: BernoulliScheduler(p=0.7, seed=1),
    "subset-2": lambda: UniformSubsetScheduler(seed=2),
}

#: Identifier families keyed by label.
INPUT_FAMILIES = {
    "random": lambda n: random_distinct_ids(n, seed=42),
    "monotone": monotone_ids,
    "zigzag": zigzag_ids,
}

#: The algorithm axis of the engine equivalence matrices: every
#: registered algorithm plus the ablation variants of the reduction
#: algorithms, which pin how each kernel tier binds the ablation flags.
#: The variants stay out of the campaign registry (the unguarded one
#: can color improperly), so tests assert only reference equality.
ENGINE_ALGORITHMS = {
    **ALGORITHMS,
    "fast5-no-green-light": partial(FastFiveColoring, green_light=False),
    "fast5-unguarded": partial(FastFiveColoring, guarded_adoption=False),
    "fast6-no-green-light": partial(FastSixColoring, green_light=False),
}


@pytest.fixture(params=sorted(SCHEDULER_FACTORIES))
def scheduler_name(request):
    """Parametrize a test over the scheduler cross-section."""
    return request.param


@pytest.fixture
def make_scheduler(scheduler_name):
    """Factory for the scheduler selected by ``scheduler_name``."""
    return SCHEDULER_FACTORIES[scheduler_name]


@pytest.fixture(params=[3, 4, 5, 8, 13])
def small_cycle(request):
    """A small cycle topology."""
    return Cycle(request.param)
