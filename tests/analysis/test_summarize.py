"""Pins what one finished execution becomes in every consumer.

A finished :class:`~repro.model.execution.ExecutionResult` is verified
and summarized once (:func:`repro.analysis.verify.summarize`) and then
formatted four ways: the campaign journal row
(:func:`~repro.campaign.worker.task_result_from_execution`), the
service response (:meth:`~repro.service.schema.ColorResponse.
from_execution`, sealed by ``content_digest``), the ensemble fold
(:func:`~repro.analysis.ensembles.run_ensemble`) and ``run --json``.

The literals below were captured before the four consumers shared one
summary, so any drift in the shared path (a reordered histogram, an
int turned float, a changed digest) fails here.  Cases cover every
verdict shape: terminated and proper, exhausted by ``max_time``,
stopped with crashed processes pending, and a hand-built improper,
out-of-palette result.
"""

import json
from dataclasses import asdict

import pytest

from repro.analysis import ensembles
from repro.analysis.ensembles import run_ensemble
from repro.analysis.inputs import random_distinct_ids
from repro.campaign.registry import ALGORITHMS, resolve_palette
from repro.campaign.worker import run_specs, task_result_from_execution
from repro.cli import main
from repro.core.coloring6 import SixColoring
from repro.model.execution import ExecutionResult, run_execution
from repro.model.faults import crash_after_activations
from repro.model.topology import Cycle
from repro.schedulers import BernoulliScheduler, SynchronousScheduler
from repro.service.schema import ColorRequest, ColorResponse


def _registered(algorithm, topology, n=8, max_time=20_000):
    request = ColorRequest.build(
        algorithm, n, topology=topology, schedule="bernoulli", seed=3,
        max_time=max_time,
    )
    resolved, (result,) = run_specs([request], "reference")
    return request, resolved, result


def _crashed():
    """Algorithm 1 with two processes crashing after a few steps: the
    survivors return and the run stops before ``max_time``."""
    request = ColorRequest.build("alg1", 12, schedule="sync")
    topology = Cycle(12)
    result = run_execution(
        SixColoring(), topology, random_distinct_ids(12, seed=0),
        crash_after_activations(SynchronousScheduler(), {3: 1, 7: 2}),
        max_time=request.max_time,
    )
    return request, topology, result


def _hand_built():
    """Adjacent 0 and 1 share colour 1; process 2 returns 9, outside the
    five-colour palette; process 3 never returns."""
    result = ExecutionResult(
        n=4,
        outputs={0: 1, 1: 1, 2: 9},
        activations={0: 3, 1: 2, 2: 5, 3: 0},
        return_times={0: 3, 1: 2, 2: 6},
        final_time=7,
        time_exhausted=False,
        trace=None,
    )
    return ColorRequest.build("fast5", 4), Cycle(4), result


CASES = {
    **{
        f"{algorithm}-{topology}": (
            lambda algorithm=algorithm, topology=topology: _registered(
                algorithm, topology
            )
        )
        for algorithm in ("fast5", "alg1", "alg2")
        for topology in ("cycle", "path", "complete")
    },
    "exhausted": lambda: _registered("fast5", "cycle", n=12, max_time=2),
    "crashed": _crashed,
    "hand-built": _hand_built,
}


def _report_fields(report):
    fields = asdict(report)
    fields["colors_used"] = list(report.colors_used.items())
    fields["activation_histogram"] = list(report.activation_histogram.items())
    return fields


def observe(case, monkeypatch):
    """Every consumer's view of one case's execution."""
    request, topology, result = CASES[case]()
    palette = resolve_palette(request.algorithm)
    row = task_result_from_execution(
        request.task_spec("reference"), topology, result, palette, 0.0
    ).to_dict()
    del row["elapsed"]
    digest = ColorResponse.from_execution(
        request, result, engine="reference"
    ).content_digest
    # The ensemble fold over this one result.
    monkeypatch.setattr(
        ensembles, "run_executions", lambda *args, **kwargs: [result]
    )
    report = run_ensemble(
        lambda: None, topology, [[0]], [("pinned", lambda: None)],
        palette=palette,
    )
    return {
        "row": json.dumps(row),
        "content_digest": digest,
        "ensemble": _report_fields(report),
    }


EXPECTED = {'alg1-complete': {'content_digest': 'eb09801d64cdd9ca',
                   'ensemble': {'activation_histogram': [(2, 7), (3, 1)],
                                'colors_used': [((1, 1), 1), ((1, 0), 1),
                                                ((2, 1), 1), ((0, 1), 1),
                                                ((1, 2), 1), ((0, 3), 1),
                                                ((3, 1), 1), ((1, 3), 1)],
                                'max_activations': {'count': 1,
                                                    'maximum': 3.0,
                                                    'mean': 3.0,
                                                    'minimum': 3.0,
                                                    'p50': 3.0,
                                                    'p95': 3.0,
                                                    'p99': 3.0},
                                'mean_activations': {'count': 1,
                                                     'maximum': 2.125,
                                                     'mean': 2.125,
                                                     'minimum': 2.125,
                                                     'p50': 2.125,
                                                     'p95': 2.125,
                                                     'p99': 2.125},
                                'palette_ok_runs': 0,
                                'proper_runs': 1,
                                'runs': 1,
                                'terminated_runs': 1},
                   'row': '{"task_hash": "004c132b33d5df5a", "terminated": '
                          'true, "terminated_count": 8, "proper": true, '
                          '"palette_ok": false, "max_activation": 3.0, '
                          '"mean_activation": 2.125, "round_complexity": 3, '
                          '"final_time": 18, "colors": [[[0, 1], 1], [[0, 3], '
                          '1], [[1, 0], 1], [[1, 1], 1], [[1, 2], 1], [[1, '
                          '3], 1], [[2, 1], 1], [[3, 1], 1]], '
                          '"activation_histogram": [[2, 7], [3, 1]]}'},
 'alg1-cycle': {'content_digest': '8ba1894757c88e2f',
                'ensemble': {'activation_histogram': [(1, 2), (2, 6)],
                             'colors_used': [((0, 0), 2), ((1, 0), 2),
                                             ((0, 1), 2), ((1, 1), 2)],
                             'max_activations': {'count': 1,
                                                 'maximum': 2.0,
                                                 'mean': 2.0,
                                                 'minimum': 2.0,
                                                 'p50': 2.0,
                                                 'p95': 2.0,
                                                 'p99': 2.0},
                             'mean_activations': {'count': 1,
                                                  'maximum': 1.75,
                                                  'mean': 1.75,
                                                  'minimum': 1.75,
                                                  'p50': 1.75,
                                                  'p95': 1.75,
                                                  'p99': 1.75},
                             'palette_ok_runs': 1,
                             'proper_runs': 1,
                             'runs': 1,
                             'terminated_runs': 1},
                'row': '{"task_hash": "6ef072d0e25f3b9a", "terminated": true, '
                       '"terminated_count": 8, "proper": true, "palette_ok": '
                       'true, "max_activation": 2.0, "mean_activation": 1.75, '
                       '"round_complexity": 2, "final_time": 11, "colors": '
                       '[[[0, 0], 2], [[0, 1], 2], [[1, 0], 2], [[1, 1], 2]], '
                       '"activation_histogram": [[1, 2], [2, 6]]}'},
 'alg1-path': {'content_digest': '2ace2dbbdd1fb6b5',
               'ensemble': {'activation_histogram': [(1, 2), (2, 6)],
                            'colors_used': [((0, 0), 2), ((1, 0), 3),
                                            ((0, 1), 2), ((1, 1), 1)],
                            'max_activations': {'count': 1,
                                                'maximum': 2.0,
                                                'mean': 2.0,
                                                'minimum': 2.0,
                                                'p50': 2.0,
                                                'p95': 2.0,
                                                'p99': 2.0},
                            'mean_activations': {'count': 1,
                                                 'maximum': 1.75,
                                                 'mean': 1.75,
                                                 'minimum': 1.75,
                                                 'p50': 1.75,
                                                 'p95': 1.75,
                                                 'p99': 1.75},
                            'palette_ok_runs': 1,
                            'proper_runs': 1,
                            'runs': 1,
                            'terminated_runs': 1},
               'row': '{"task_hash": "d987195b39434588", "terminated": true, '
                      '"terminated_count": 8, "proper": true, "palette_ok": '
                      'true, "max_activation": 2.0, "mean_activation": 1.75, '
                      '"round_complexity": 2, "final_time": 11, "colors": '
                      '[[[0, 0], 2], [[0, 1], 2], [[1, 0], 3], [[1, 1], 1]], '
                      '"activation_histogram": [[1, 2], [2, 6]]}'},
 'alg2-complete': {'content_digest': 'bbe49e73e45e0eb3',
                   'ensemble': {'activation_histogram': [(2, 2), (3, 1),
                                                         (5, 3), (4, 1),
                                                         (6, 1)],
                                'colors_used': [(1, 1), (2, 1), (4, 1), (5, 1),
                                                (3, 1), (6, 1), (7, 1),
                                                (0, 1)],
                                'max_activations': {'count': 1,
                                                    'maximum': 6.0,
                                                    'mean': 6.0,
                                                    'minimum': 6.0,
                                                    'p50': 6.0,
                                                    'p95': 6.0,
                                                    'p99': 6.0},
                                'mean_activations': {'count': 1,
                                                     'maximum': 4.0,
                                                     'mean': 4.0,
                                                     'minimum': 4.0,
                                                     'p50': 4.0,
                                                     'p95': 4.0,
                                                     'p99': 4.0},
                                'palette_ok_runs': 0,
                                'proper_runs': 1,
                                'runs': 1,
                                'terminated_runs': 1},
                   'row': '{"task_hash": "ecb6ed77cd590c8b", "terminated": '
                          'true, "terminated_count": 8, "proper": true, '
                          '"palette_ok": false, "max_activation": 6.0, '
                          '"mean_activation": 4.0, "round_complexity": 6, '
                          '"final_time": 18, "colors": [[0, 1], [1, 1], [2, '
                          '1], [3, 1], [4, 1], [5, 1], [6, 1], [7, 1]], '
                          '"activation_histogram": [[2, 2], [3, 1], [4, 1], '
                          '[5, 3], [6, 1]]}'},
 'alg2-cycle': {'content_digest': '675ddb7be943e668',
                'ensemble': {'activation_histogram': [(1, 2), (2, 5), (3, 1)],
                             'colors_used': [(0, 3), (1, 3), (2, 2)],
                             'max_activations': {'count': 1,
                                                 'maximum': 3.0,
                                                 'mean': 3.0,
                                                 'minimum': 3.0,
                                                 'p50': 3.0,
                                                 'p95': 3.0,
                                                 'p99': 3.0},
                             'mean_activations': {'count': 1,
                                                  'maximum': 1.875,
                                                  'mean': 1.875,
                                                  'minimum': 1.875,
                                                  'p50': 1.875,
                                                  'p95': 1.875,
                                                  'p99': 1.875},
                             'palette_ok_runs': 1,
                             'proper_runs': 1,
                             'runs': 1,
                             'terminated_runs': 1},
                'row': '{"task_hash": "6764b59b3399f214", "terminated": true, '
                       '"terminated_count": 8, "proper": true, "palette_ok": '
                       'true, "max_activation": 3.0, "mean_activation": '
                       '1.875, "round_complexity": 3, "final_time": 11, '
                       '"colors": [[0, 3], [1, 3], [2, 2]], '
                       '"activation_histogram": [[1, 2], [2, 5], [3, 1]]}'},
 'alg2-path': {'content_digest': '9343c91731217397',
               'ensemble': {'activation_histogram': [(1, 2), (2, 5), (3, 1)],
                            'colors_used': [(0, 3), (1, 3), (2, 2)],
                            'max_activations': {'count': 1,
                                                'maximum': 3.0,
                                                'mean': 3.0,
                                                'minimum': 3.0,
                                                'p50': 3.0,
                                                'p95': 3.0,
                                                'p99': 3.0},
                            'mean_activations': {'count': 1,
                                                 'maximum': 1.875,
                                                 'mean': 1.875,
                                                 'minimum': 1.875,
                                                 'p50': 1.875,
                                                 'p95': 1.875,
                                                 'p99': 1.875},
                            'palette_ok_runs': 1,
                            'proper_runs': 1,
                            'runs': 1,
                            'terminated_runs': 1},
               'row': '{"task_hash": "69685ff906581d6f", "terminated": true, '
                      '"terminated_count": 8, "proper": true, "palette_ok": '
                      'true, "max_activation": 3.0, "mean_activation": 1.875, '
                      '"round_complexity": 3, "final_time": 11, "colors": '
                      '[[0, 3], [1, 3], [2, 2]], "activation_histogram": [[1, '
                      '2], [2, 5], [3, 1]]}'},
 'crashed': {'content_digest': 'f83445bcd008d92f',
             'ensemble': {'activation_histogram': [(2, 11), (1, 1)],
                          'colors_used': [((1, 0), 3), ((0, 1), 4),
                                          ((1, 1), 4)],
                          'max_activations': {'count': 1,
                                              'maximum': 2.0,
                                              'mean': 2.0,
                                              'minimum': 2.0,
                                              'p50': 2.0,
                                              'p95': 2.0,
                                              'p99': 2.0},
                          'mean_activations': {'count': 1,
                                               'maximum': 1.9166666666666667,
                                               'mean': 1.9166666666666667,
                                               'minimum': 1.9166666666666667,
                                               'p50': 1.9166666666666667,
                                               'p95': 1.9166666666666667,
                                               'p99': 1.9166666666666667},
                          'palette_ok_runs': 1,
                          'proper_runs': 1,
                          'runs': 1,
                          'terminated_runs': 0},
             'row': '{"task_hash": "8ff2f28cf25fc0ba", "terminated": false, '
                    '"terminated_count": 11, "proper": true, "palette_ok": '
                    'true, "max_activation": 2.0, "mean_activation": '
                    '1.9166666666666667, "round_complexity": 2, "final_time": '
                    '10002, "colors": [[[0, 1], 4], [[1, 0], 3], [[1, 1], '
                    '4]], "activation_histogram": [[1, 1], [2, 11]]}'},
 'exhausted': {'content_digest': '4c75c2e21eef3d11',
               'ensemble': {'activation_histogram': [(1, 6), (0, 5), (2, 1)],
                            'colors_used': [(0, 2), (1, 1)],
                            'max_activations': {'count': 1,
                                                'maximum': 2.0,
                                                'mean': 2.0,
                                                'minimum': 2.0,
                                                'p50': 2.0,
                                                'p95': 2.0,
                                                'p99': 2.0},
                            'mean_activations': {'count': 1,
                                                 'maximum': 0.6666666666666666,
                                                 'mean': 0.6666666666666666,
                                                 'minimum': 0.6666666666666666,
                                                 'p50': 0.6666666666666666,
                                                 'p95': 0.6666666666666666,
                                                 'p99': 0.6666666666666666},
                            'palette_ok_runs': 1,
                            'proper_runs': 1,
                            'runs': 1,
                            'terminated_runs': 0},
               'row': '{"task_hash": "cfe5648e61e2e871", "terminated": false, '
                      '"terminated_count": 3, "proper": true, "palette_ok": '
                      'true, "max_activation": 2.0, "mean_activation": '
                      '0.6666666666666666, "round_complexity": 2, '
                      '"final_time": 2, "colors": [[0, 2], [1, 1]], '
                      '"activation_histogram": [[0, 5], [1, 6], [2, 1]]}'},
 'fast5-complete': {'content_digest': '993a6f69abc3f523',
                    'ensemble': {'activation_histogram': [(2, 2), (3, 1),
                                                          (5, 3), (4, 1),
                                                          (6, 1)],
                                 'colors_used': [(1, 1), (2, 1), (4, 1),
                                                 (5, 1), (3, 1), (6, 1),
                                                 (7, 1), (0, 1)],
                                 'max_activations': {'count': 1,
                                                     'maximum': 6.0,
                                                     'mean': 6.0,
                                                     'minimum': 6.0,
                                                     'p50': 6.0,
                                                     'p95': 6.0,
                                                     'p99': 6.0},
                                 'mean_activations': {'count': 1,
                                                      'maximum': 4.0,
                                                      'mean': 4.0,
                                                      'minimum': 4.0,
                                                      'p50': 4.0,
                                                      'p95': 4.0,
                                                      'p99': 4.0},
                                 'palette_ok_runs': 0,
                                 'proper_runs': 1,
                                 'runs': 1,
                                 'terminated_runs': 1},
                    'row': '{"task_hash": "79f1985fa39ab2b5", "terminated": '
                           'true, "terminated_count": 8, "proper": true, '
                           '"palette_ok": false, "max_activation": 6.0, '
                           '"mean_activation": 4.0, "round_complexity": 6, '
                           '"final_time": 18, "colors": [[0, 1], [1, 1], [2, '
                           '1], [3, 1], [4, 1], [5, 1], [6, 1], [7, 1]], '
                           '"activation_histogram": [[2, 2], [3, 1], [4, 1], '
                           '[5, 3], [6, 1]]}'},
 'fast5-cycle': {'content_digest': '88a106dd326b81ac',
                 'ensemble': {'activation_histogram': [(1, 2), (2, 5), (3, 1)],
                              'colors_used': [(0, 3), (1, 3), (2, 2)],
                              'max_activations': {'count': 1,
                                                  'maximum': 3.0,
                                                  'mean': 3.0,
                                                  'minimum': 3.0,
                                                  'p50': 3.0,
                                                  'p95': 3.0,
                                                  'p99': 3.0},
                              'mean_activations': {'count': 1,
                                                   'maximum': 1.875,
                                                   'mean': 1.875,
                                                   'minimum': 1.875,
                                                   'p50': 1.875,
                                                   'p95': 1.875,
                                                   'p99': 1.875},
                              'palette_ok_runs': 1,
                              'proper_runs': 1,
                              'runs': 1,
                              'terminated_runs': 1},
                 'row': '{"task_hash": "24e7173e74457439", "terminated": '
                        'true, "terminated_count": 8, "proper": true, '
                        '"palette_ok": true, "max_activation": 3.0, '
                        '"mean_activation": 1.875, "round_complexity": 3, '
                        '"final_time": 11, "colors": [[0, 3], [1, 3], [2, '
                        '2]], "activation_histogram": [[1, 2], [2, 5], [3, '
                        '1]]}'},
 'fast5-path': {'content_digest': 'dd0bc54d47071ee0',
                'ensemble': {'activation_histogram': [(1, 2), (2, 5), (3, 1)],
                             'colors_used': [(0, 3), (1, 3), (2, 2)],
                             'max_activations': {'count': 1,
                                                 'maximum': 3.0,
                                                 'mean': 3.0,
                                                 'minimum': 3.0,
                                                 'p50': 3.0,
                                                 'p95': 3.0,
                                                 'p99': 3.0},
                             'mean_activations': {'count': 1,
                                                  'maximum': 1.875,
                                                  'mean': 1.875,
                                                  'minimum': 1.875,
                                                  'p50': 1.875,
                                                  'p95': 1.875,
                                                  'p99': 1.875},
                             'palette_ok_runs': 1,
                             'proper_runs': 1,
                             'runs': 1,
                             'terminated_runs': 1},
                'row': '{"task_hash": "189b2f394fb442c3", "terminated": true, '
                       '"terminated_count": 8, "proper": true, "palette_ok": '
                       'true, "max_activation": 3.0, "mean_activation": '
                       '1.875, "round_complexity": 3, "final_time": 11, '
                       '"colors": [[0, 3], [1, 3], [2, 2]], '
                       '"activation_histogram": [[1, 2], [2, 5], [3, 1]]}'},
 'hand-built': {'content_digest': 'b59be8dbe3d349bc',
                'ensemble': {'activation_histogram': [(3, 1), (2, 1), (5, 1),
                                                      (0, 1)],
                             'colors_used': [(1, 2), (9, 1)],
                             'max_activations': {'count': 1,
                                                 'maximum': 5.0,
                                                 'mean': 5.0,
                                                 'minimum': 5.0,
                                                 'p50': 5.0,
                                                 'p95': 5.0,
                                                 'p99': 5.0},
                             'mean_activations': {'count': 1,
                                                  'maximum': 2.5,
                                                  'mean': 2.5,
                                                  'minimum': 2.5,
                                                  'p50': 2.5,
                                                  'p95': 2.5,
                                                  'p99': 2.5},
                             'palette_ok_runs': 0,
                             'proper_runs': 0,
                             'runs': 1,
                             'terminated_runs': 0},
                'row': '{"task_hash": "7a7b76c596c6f1e8", "terminated": '
                       'false, "terminated_count": 3, "proper": false, '
                       '"palette_ok": false, "max_activation": 5.0, '
                       '"mean_activation": 2.5, "round_complexity": 5, '
                       '"final_time": 7, "colors": [[1, 2], [9, 1]], '
                       '"activation_histogram": [[0, 1], [2, 1], [3, 1], [5, '
                       '1]]}'}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_consumers_match_pinned_literals(case, monkeypatch):
    assert observe(case, monkeypatch) == EXPECTED[case]


def _ensemble(algorithm):
    n = 12
    return run_ensemble(
        ALGORITHMS[algorithm],
        Cycle(n),
        [random_distinct_ids(n, seed=seed) for seed in range(3)],
        [
            ("sync", SynchronousScheduler()),
            ("bern", BernoulliScheduler(p=0.5, seed=1)),
        ],
        palette=resolve_palette(algorithm),
    )


EXPECTED_ENSEMBLES = {'alg1': {'activation_histogram': [(2, 60), (1, 6), (3, 6)],
          'colors_used': [((1, 0), 23), ((0, 1), 24), ((1, 1), 17),
                          ((0, 0), 7), ((2, 0), 1)],
          'max_activations': {'count': 6,
                              'maximum': 3.0,
                              'mean': 2.5,
                              'minimum': 2.0,
                              'p50': 2.0,
                              'p95': 3.0,
                              'p99': 3.0},
          'mean_activations': {'count': 6,
                               'maximum': 2.1666666666666665,
                               'mean': 1.9999999999999998,
                               'minimum': 1.8333333333333333,
                               'p50': 2.0,
                               'p95': 2.1666666666666665,
                               'p99': 2.1666666666666665},
          'palette_ok_runs': 6,
          'proper_runs': 6,
          'runs': 6,
          'terminated_runs': 6},
 'alg2': {'activation_histogram': [(3, 29), (2, 28), (1, 1), (5, 6), (4, 8)],
          'colors_used': [(0, 22), (2, 28), (1, 10), (3, 6), (4, 6)],
          'max_activations': {'count': 6,
                              'maximum': 5.0,
                              'mean': 4.0,
                              'minimum': 3.0,
                              'p50': 4.0,
                              'p95': 5.0,
                              'p99': 5.0},
          'mean_activations': {'count': 6,
                               'maximum': 3.6666666666666665,
                               'mean': 2.8611111111111107,
                               'minimum': 2.4166666666666665,
                               'p50': 2.6666666666666665,
                               'p95': 3.6666666666666665,
                               'p99': 3.6666666666666665},
          'palette_ok_runs': 6,
          'proper_runs': 6,
          'runs': 6,
          'terminated_runs': 6},
 'fast5': {'activation_histogram': [(3, 29), (2, 28), (1, 1), (4, 8), (5, 6)],
           'colors_used': [(0, 22), (2, 28), (1, 10), (3, 6), (4, 6)],
           'max_activations': {'count': 6,
                               'maximum': 5.0,
                               'mean': 4.0,
                               'minimum': 3.0,
                               'p50': 4.0,
                               'p95': 5.0,
                               'p99': 5.0},
           'mean_activations': {'count': 6,
                                'maximum': 3.6666666666666665,
                                'mean': 2.8611111111111107,
                                'minimum': 2.4166666666666665,
                                'p50': 2.6666666666666665,
                                'p95': 3.6666666666666665,
                                'p99': 3.6666666666666665},
           'palette_ok_runs': 6,
           'proper_runs': 6,
           'runs': 6,
           'terminated_runs': 6}}


@pytest.mark.parametrize("algorithm", ["fast5", "alg1", "alg2"])
def test_ensemble_fold_matches_pinned_literals(algorithm):
    assert _report_fields(_ensemble(algorithm)) == EXPECTED_ENSEMBLES[algorithm]


@pytest.mark.parametrize("max_time", [1_000_000, 2])
def test_run_json_sections_equal_response_sections(max_time, capsys):
    """``run --json`` prints the service response's four sections."""
    argv = [
        "run", "--algorithm", "fast5", "--n", "12", "--schedule",
        "bernoulli", "--seed", "3", "--max-time", str(max_time), "--json",
    ]
    status = main(argv)
    payload = json.loads(capsys.readouterr().out)
    request = ColorRequest.build(
        "fast5", 12, schedule="bernoulli", seed=3, max_time=max_time
    )
    topology, (result,) = run_specs([request], "fast")
    response = ColorResponse.from_execution(request, result, engine="fast")
    assert status == (0 if response.verdict["ok"] else 1)
    assert payload["verdict"] == response.verdict
    assert payload["activations"] == response.activations
    assert payload["colors_used"] == response.colors_used
    # run --json omits the section when the run was not cut off.
    assert payload.get("time_exhausted") == response.time_exhausted
    assert ("time_exhausted" in payload) == (max_time == 2)
