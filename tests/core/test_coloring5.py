"""Tests for Algorithm 2 (Theorem 3.11), including the E13 caveat."""

import pytest

from repro.analysis.chains import chain_profile
from repro.analysis.complexity import theorem_3_11_bound
from repro.analysis.inputs import monotone_ids, random_distinct_ids
from repro.analysis.verify import verify_execution
from repro.core.coloring5 import FiveColoring, FiveRegister, FiveState
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import (
    BernoulliScheduler,
    RoundRobinScheduler,
    SoloScheduler,
    SynchronousScheduler,
)
from tests.conftest import INPUT_FAMILIES, SCHEDULER_FACTORIES


class TestTheorem311:
    """Safety always holds; termination holds for the scheduler zoo
    (the phase-locked counterexample lives in extensions/livelock)."""

    @pytest.mark.parametrize("inputs_name", sorted(INPUT_FAMILIES))
    @pytest.mark.parametrize("n", [3, 4, 7, 16, 33])
    def test_guarantees_across_schedulers(self, n, inputs_name):
        inputs = INPUT_FAMILIES[inputs_name](n)
        for sched_name, factory in SCHEDULER_FACTORIES.items():
            result = run_execution(
                FiveColoring(), Cycle(n), inputs, factory(), max_time=100_000,
            )
            assert result.all_terminated, (sched_name, inputs_name, n)
            verdict = verify_execution(Cycle(n), result, palette=range(5))
            assert verdict.ok, (sched_name, inputs_name, n, verdict)
            assert result.round_complexity <= theorem_3_11_bound(n)

    def test_five_colors_only(self):
        result = run_execution(
            FiveColoring(), Cycle(9), random_distinct_ids(9, seed=0),
            SynchronousScheduler(),
        )
        assert set(result.outputs.values()) <= set(range(5))

    def test_solo_process_terminates_immediately(self):
        result = run_execution(
            FiveColoring(), Cycle(5), monotone_ids(5), SoloScheduler(3, solo_steps=10),
            max_time=100,
        )
        assert 3 in result.outputs
        assert result.activations[3] == 1  # a=0 unopposed on first look


class TestLinearInChainLength:
    """The running time tracks the monotone-chain structure (§3.2)."""

    def test_monotone_ids_are_linear(self):
        rounds = {}
        for n in (16, 32, 64, 128, 2000):
            result = run_execution(
                FiveColoring(), Cycle(n), monotone_ids(n), SynchronousScheduler(),
            )
            rounds[n] = result.round_complexity
        # Doubling n should roughly double the rounds on the monotone chain.
        assert rounds[128] >= 3 * rounds[16]
        assert rounds[128] >= 100
        # The heaviest standard load: exactly n - 1 rounds on C_2000.
        assert rounds[2000] == 1999

    @pytest.mark.parametrize("seed", range(4))
    def test_lemma_3_14_bound_nonminima(self, seed):
        n = 20
        inputs = random_distinct_ids(n, seed=seed)
        profile = chain_profile(inputs)
        result = run_execution(
            FiveColoring(), Cycle(n), inputs, BernoulliScheduler(p=0.6, seed=seed),
        )
        assert result.all_terminated
        for p in range(n):
            assert result.activations[p] <= profile.alg2_bound(p), (seed, p)


class TestInvariants:
    def test_b_at_least_a(self):
        """C+ ⊆ C implies b_p >= a_p at all times (used by Lemma 3.13)."""
        n = 12
        result = run_execution(
            FiveColoring(), Cycle(n), monotone_ids(n),
            RoundRobinScheduler(), record_registers=True,
        )
        from repro.types import BOTTOM

        for event in result.trace:
            for reg in event.registers:
                if reg is not BOTTOM:
                    assert reg.b >= reg.a

    def test_fresh_b_avoids_c(self):
        """Lemma 3.12: the freshly computed b_p is outside C."""
        alg = FiveColoring()
        views = (FiveRegister(9, 0, 1), FiveRegister(2, 2, 3))
        outcome = alg.step(FiveState(x=5, a=0, b=1), views)
        assert not outcome.returned
        assert outcome.state.b not in {0, 1, 2, 3}
        assert outcome.state.b == 4  # mex{0,1,2,3}

    def test_return_prefers_a(self):
        alg = FiveColoring()
        views = (FiveRegister(9, 1, 2), FiveRegister(2, 3, 4))
        outcome = alg.step(FiveState(x=5, a=0, b=0), views)
        assert outcome.returned and outcome.output == 0
