"""Request/response schema: validation, canonical keys, hash parity."""

import pytest

from repro.errors import RequestValidationError
from repro.campaign.spec import TaskSpec
from repro.model.execution import run_execution
from repro.model.topology import Cycle
from repro.schedulers import SynchronousScheduler
from repro.service.schema import (
    MAX_COMPLETE_N,
    MAX_N,
    MAX_TIME_CAP,
    ColorRequest,
    ColorResponse,
)
from repro.util.hashing import canonical_hash


def make(**overrides):
    payload = {"algorithm": "fast5", "n": 24}
    payload.update(overrides)
    return ColorRequest.from_json_dict(payload)


class TestValidation:
    def test_defaults(self):
        request = make()
        assert request.topology == "cycle"
        assert request.inputs == "random"
        assert request.schedule == "sync"
        assert request.seed == 0
        assert request.max_time == 200_000

    def test_body_must_be_object(self):
        with pytest.raises(RequestValidationError, match="JSON object"):
            ColorRequest.from_json_dict([1, 2])

    def test_missing_required(self):
        with pytest.raises(RequestValidationError, match="missing required"):
            ColorRequest.from_json_dict({"algorithm": "fast5"})
        with pytest.raises(RequestValidationError, match="missing required"):
            ColorRequest.from_json_dict({"n": 8})

    def test_unknown_field_rejected(self):
        # A typo'd field must not silently change the cache key.
        with pytest.raises(RequestValidationError, match="algorthm"):
            ColorRequest.from_json_dict(
                {"algorithm": "fast5", "n": 8, "algorthm": "alg1"}
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("algorithm", "nope"),
            ("topology", "torus9"),
            ("inputs", "nope"),
            ("schedule", "nope"),
        ],
    )
    def test_unknown_registry_names(self, field, value):
        with pytest.raises(RequestValidationError, match="unknown"):
            make(**{field: value})

    def test_dotted_paths_refused(self):
        # Campaign specs may import dotted paths; untrusted service
        # requests must not be able to name code to import.
        with pytest.raises(RequestValidationError):
            make(algorithm="os:system")

    @pytest.mark.parametrize("n", [2, 0, -5, MAX_N + 1])
    def test_n_bounds(self, n):
        with pytest.raises(RequestValidationError, match="n must be"):
            make(n=n)

    @pytest.mark.parametrize("max_time", [0, -1, MAX_TIME_CAP + 1])
    def test_max_time_bounds(self, max_time):
        with pytest.raises(RequestValidationError, match="max_time"):
            make(max_time=max_time)

    @pytest.mark.parametrize("field", ["n", "seed", "max_time"])
    def test_integers_required(self, field):
        with pytest.raises(RequestValidationError, match="integer"):
            make(**{field: "7"})
        with pytest.raises(RequestValidationError, match="integer"):
            make(**{field: True})

    def test_schedule_params_must_be_object_of_scalars(self):
        with pytest.raises(RequestValidationError, match="JSON object"):
            make(schedule_params=[["p", 0.5]])
        with pytest.raises(RequestValidationError, match="scalar"):
            make(schedule="bernoulli", schedule_params={"p": [0.5]})

    def test_valid_schedule_params(self):
        request = make(schedule="bernoulli", schedule_params={"p": 0.25})
        assert request.schedule_params == (("p", 0.25),)

    @pytest.mark.parametrize(
        "schedule,params",
        [
            ("bernoulli", {"p": 2.0}),
            ("bernoulli", {"p": -1}),
            ("bernoulli", {"p": "abc"}),
            ("block-round-robin", {"k": 0}),
            ("block-round-robin", {"k": 2.5}),
            ("round-robin", {"offset": "x"}),
            ("staggered", {"stagger": 1.5}),
        ],
    )
    def test_schedule_params_the_schedule_rejects(self, schedule, params):
        # Admitted, they would fail at execution with every request
        # coalesced into the same group.
        with pytest.raises(RequestValidationError) as excinfo:
            make(schedule=schedule, schedule_params=params)
        assert excinfo.value.field == "schedule_params"

    def test_complete_graph_cap(self):
        request = make(topology="complete", n=MAX_COMPLETE_N)
        assert request.n == MAX_COMPLETE_N
        with pytest.raises(RequestValidationError, match="complete") as excinfo:
            make(topology="complete", n=MAX_COMPLETE_N + 1)
        assert excinfo.value.field == "n"
        # The cap is the complete graph's alone.
        assert make(n=MAX_COMPLETE_N + 1).n == MAX_COMPLETE_N + 1


class TestKeys:
    def test_key_is_canonical_hash_of_config(self):
        request = make(seed=3)
        assert request.request_key == canonical_hash(request.config())

    def test_key_independent_of_field_order(self):
        a = ColorRequest.from_json_dict(
            {"algorithm": "fast5", "n": 24, "seed": 1, "schedule": "bernoulli"}
        )
        b = ColorRequest.from_json_dict(
            {"schedule": "bernoulli", "seed": 1, "n": 24, "algorithm": "fast5"}
        )
        assert a.request_key == b.request_key

    def test_key_sensitive_to_every_axis(self):
        base = make(seed=0)
        for variant in (
            make(seed=1),
            make(n=25),
            make(algorithm="alg1"),
            make(schedule="bernoulli"),
            make(max_time=100),
            make(inputs="monotone"),
        ):
            assert variant.request_key != base.request_key

    def test_key_excludes_engine(self):
        # The engines are observably identical; a cached result may be
        # served whatever engine would have run.
        request = make(seed=5)
        assert "engine" not in request.config()

    def test_task_spec_hash_parity(self):
        """Service keys and TaskSpec hashes derive from one helper over
        one field vocabulary — they must agree exactly."""
        request = make(seed=7, schedule="bernoulli", schedule_params={"p": 0.4})
        for engine in ("fast", "batch", "reference"):
            spec = request.task_spec(engine)
            want = TaskSpec(
                algorithm="fast5",
                topology="cycle",
                n=24,
                inputs="random",
                schedule="bernoulli",
                schedule_params=(("p", 0.4),),
                seed=7,
                max_time=200_000,
                engine=engine,
            )
            assert spec.task_hash == want.task_hash
            # The request key is the engine-free projection of the same
            # config dict.
            config = spec.config()
            config.pop("engine")
            assert request.request_key == canonical_hash(config)


class TestResponse:
    def _run(self, request):
        from repro.campaign.registry import (
            resolve_algorithm,
            resolve_inputs,
        )

        return run_execution(
            resolve_algorithm(request.algorithm)(),
            Cycle(request.n),
            resolve_inputs(request.inputs, request.n, request.seed),
            SynchronousScheduler(),
            max_time=request.max_time,
        )

    def test_from_execution_verdict(self):
        request = ColorRequest.build("fast5", 16, schedule="sync", seed=2)
        response = ColorResponse.from_execution(
            request, self._run(request), engine="fast", elapsed=0.01
        )
        assert response.verdict["ok"] is True
        assert response.verdict["terminated"] == 16
        assert response.activations["round_complexity"] >= 1
        assert response.colors_used
        assert response.time_exhausted is None
        assert response.request_key == request.request_key
        assert response.task_hash == request.task_spec("fast").task_hash

    def test_time_exhausted_diagnostics(self):
        request = ColorRequest.build("fast5", 8, schedule="sync", max_time=1)
        response = ColorResponse.from_execution(
            request, self._run(request), engine="fast"
        )
        assert response.verdict["ok"] is False
        assert response.time_exhausted is not None
        assert response.time_exhausted["final_time"] == 1
        assert response.time_exhausted["pending"]

    @pytest.mark.parametrize("max_time", [200_000, 1])
    def test_passed_topology_changes_nothing(self, max_time):
        request = ColorRequest.build("fast5", 8, seed=1, max_time=max_time)
        result = self._run(request)
        resolved = ColorResponse.from_execution(request, result, engine="fast")
        passed = ColorResponse.from_execution(
            request, result, engine="fast", topology=Cycle(8)
        )
        assert passed.to_dict() == resolved.to_dict()

    def test_dict_round_trip(self):
        request = ColorRequest.build("fast5", 12, seed=4)
        response = ColorResponse.from_execution(
            request, self._run(request), engine="fast", batch_size=3
        )
        assert ColorResponse.from_dict(response.to_dict()) == response

    def test_deterministic_dict_drops_provenance(self):
        request = ColorRequest.build("fast5", 12, seed=4)
        response = ColorResponse.from_execution(
            request, self._run(request), engine="fast", batch_size=3, elapsed=1.0
        )
        det = response.deterministic_dict()
        assert "engine" not in det
        assert "batch_size" not in det
        assert "elapsed" not in det
        assert "cached" not in det
        assert det["verdict"]["ok"] is True
