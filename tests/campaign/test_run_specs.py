"""The resolver contract: every entry point resolves through the registry.

:func:`repro.campaign.worker.run_specs` is the one place run
descriptions become objects.  It reads the resolvers through the
:mod:`repro.campaign.registry` module at call time, so a wrapper
installed there sees every resolution — which is how the benchmark
attributes ``inputs.build_s``.  Each entry point must therefore go
through ``registry.resolve_inputs`` once per description and through
``registry.resolve_topology`` exactly once: the shared topology is
resolved once per group and handed on to verification.
"""

import pytest

from repro.campaign import registry
from repro.campaign.backends import BatchBackend
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import execute_task
from repro.chaos.harness import _reference_response
from repro.service.coalesce import execute_requests
from repro.service.schema import ColorRequest


@pytest.fixture
def resolved(monkeypatch):
    """Counts of calls reaching the registry's resolvers."""
    counts = {"resolve_inputs": 0, "resolve_topology": 0}

    def counting(name):
        real = getattr(registry, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, name, wrapper)

    counting("resolve_inputs")
    counting("resolve_topology")
    return counts


def tasks(engine="auto", seeds=(0, 1, 2)):
    return CampaignSpec.build(
        ["fast5"], [12], ["random"], ["bernoulli"], list(seeds),
        engine=engine,
    ).expand()


def requests(seeds=(0, 1, 2)):
    return [
        ColorRequest.build("fast5", 12, schedule="bernoulli", seed=seed)
        for seed in seeds
    ]


def assert_resolved(counts, descriptions):
    assert counts["resolve_inputs"] == descriptions
    assert counts["resolve_topology"] == 1


def test_execute_task(resolved):
    (task,) = tasks(seeds=[0])
    assert execute_task(task.to_dict()).ok
    assert_resolved(resolved, 1)


@pytest.mark.parametrize("engine", ["auto", "fast"])
def test_batch_backend(resolved, engine):
    records = []
    BatchBackend().execute(tasks(engine), on_record=records.append)
    assert [r["status"] for r in records] == ["ok"] * 3
    assert_resolved(resolved, 3)


def test_execute_requests(resolved):
    responses, _ = execute_requests(requests())
    assert all(r.verdict["ok"] for r in responses)
    assert_resolved(resolved, 3)


def test_chaos_reference_response(resolved):
    (request,) = requests(seeds=[0])
    assert _reference_response(request).verdict["ok"]
    assert_resolved(resolved, 1)


def test_run_specs_takes_task_specs_and_requests_alike():
    """Same field names, same resolution, same results."""
    from repro.campaign.worker import run_specs

    _, from_tasks = run_specs(tasks(), "reference")
    _, from_requests = run_specs(requests(), "reference")
    assert list(from_tasks) == list(from_requests)
