"""Unit tests for verification predicates (repro.analysis.verify)."""

import pytest

from repro.analysis.verify import (
    assert_palette,
    assert_proper_coloring,
    coloring_violations,
    identifiers_always_proper,
    inputs_properly_color,
    palette_violations,
    published_identifier_violations,
    summarize,
    verify_execution,
)
from repro.errors import ColoringViolation, PaletteViolation
from repro.model.topology import Cycle


class TestColoringViolations:
    def test_clean(self):
        assert not coloring_violations(Cycle(4), {0: 0, 1: 1, 2: 0, 3: 1})

    def test_detects_monochromatic_edge(self):
        bad = coloring_violations(Cycle(4), {0: 1, 1: 1})
        assert bad == [(0, 1)]

    def test_ignores_pending_endpoints(self):
        # only edges inside the terminated set count
        assert not coloring_violations(Cycle(4), {0: 1, 2: 1})

    def test_wraparound_edge(self):
        bad = coloring_violations(Cycle(3), {0: 2, 2: 2})
        assert bad == [(0, 2)]

    def test_assert_raises(self):
        with pytest.raises(ColoringViolation):
            assert_proper_coloring(Cycle(3), {0: 1, 1: 1})


class TestPaletteViolations:
    def test_clean(self):
        assert not palette_violations({0: 2, 1: 4}, range(5))

    def test_detects(self):
        assert palette_violations({0: 5}, range(5)) == {0: 5}

    def test_pairs(self):
        from repro.core.palette import TriangularPalette

        pal = TriangularPalette(2)
        assert not palette_violations({0: (1, 1)}, pal)
        assert palette_violations({0: (2, 1)}, pal)

    def test_assert_raises(self):
        with pytest.raises(PaletteViolation):
            assert_palette({0: 9}, range(5))


class TestInputsProperlyColor:
    def test_unique_ids(self):
        assert inputs_properly_color(Cycle(4), [3, 1, 4, 2])

    def test_adjacent_equal_rejected(self):
        assert not inputs_properly_color(Cycle(3), [1, 1, 2])

    def test_nonadjacent_equal_allowed(self):
        assert inputs_properly_color(Cycle(4), [0, 1, 0, 1])


class TestVerifyExecution:
    def test_verdict_fields(self):
        from repro.core.coloring5 import FiveColoring
        from repro.model.execution import run_execution
        from repro.schedulers import SynchronousScheduler

        result = run_execution(
            FiveColoring(), Cycle(5), [4, 9, 1, 7, 3], SynchronousScheduler(),
        )
        verdict = verify_execution(Cycle(5), result, palette=range(5))
        assert verdict.ok and verdict.all_terminated
        assert verdict.terminated_count == 5
        assert verdict.round_complexity == result.round_complexity

    def test_verdict_without_palette(self):
        from repro.core.coloring6 import SixColoring
        from repro.model.execution import run_execution
        from repro.schedulers import SynchronousScheduler

        result = run_execution(
            SixColoring(), Cycle(3), [1, 2, 3], SynchronousScheduler(),
        )
        verdict = verify_execution(Cycle(3), result)
        assert verdict.palette_ok  # vacuous without a palette


class TestSummarize:
    def _result(self, **overrides):
        from repro.model.execution import ExecutionResult

        fields = dict(
            n=4,
            outputs={0: 1, 1: 1, 2: 9},
            activations={0: 3, 1: 2, 2: 5, 3: 2},
            return_times={0: 3, 1: 2, 2: 6},
            final_time=7,
            time_exhausted=False,
            trace=None,
        )
        fields.update(overrides)
        return ExecutionResult(**fields)

    def test_verdict_agrees_with_verify_execution(self):
        result = self._result()
        summary = summarize(Cycle(4), result, palette=range(5))
        verdict = verify_execution(Cycle(4), result, palette=range(5))
        assert (summary.proper, summary.palette_ok) == (False, False)
        assert (summary.proper, summary.palette_ok) == (
            verdict.proper, verdict.palette_ok,
        )
        assert summary.terminated_count == 3
        assert not summary.all_terminated and not summary.ok

    def test_counts(self):
        summary = summarize(Cycle(4), self._result())
        assert summary.round_complexity == 5
        assert summary.total_activations == 12
        assert summary.mean_activation == 3.0
        assert summary.final_time == 7
        # First-seen order, as the ensemble fold reports it.
        assert list(summary.activation_histogram.items()) == [(3, 1), (2, 2), (5, 1)]
        assert list(summary.colors.items()) == [(1, 2), (9, 1)]

    def test_exhaustion_detail_only_when_cut_off(self):
        assert summarize(Cycle(4), self._result()).pending_activations is None
        summary = summarize(Cycle(4), self._result(time_exhausted=True))
        assert summary.pending_activations == {3: 2}


class TestIdentifierInvariant:
    def _trace(self, algorithm):
        from repro.model.execution import run_execution
        from repro.schedulers import BernoulliScheduler

        return run_execution(
            algorithm, Cycle(8), list(range(8)),
            BernoulliScheduler(p=0.5, seed=3), record_registers=True,
        )

    def test_clean_for_paper_algorithm(self):
        from repro.core.fast_coloring5 import FastFiveColoring

        result = self._trace(FastFiveColoring())
        assert identifiers_always_proper(Cycle(8), result.trace)
        assert not published_identifier_violations(Cycle(8), result.trace)

    def test_violation_reports_time_and_edge(self):
        # Construct a fake trace with a collision.
        from repro.core.fast_coloring5 import FastRegister
        from repro.model.trace import StepEvent, Trace
        from repro.types import BOTTOM

        trace = Trace()
        regs = tuple(
            FastRegister(x=7, r=0, a=0, b=0) if p in (0, 1) else BOTTOM
            for p in range(8)
        )
        trace.append(StepEvent(5, frozenset({0, 1}), {}, {}, regs))
        violations = published_identifier_violations(Cycle(8), trace)
        assert violations == [(5, 0, 1, 7)]
