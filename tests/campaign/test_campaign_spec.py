"""Campaign spec expansion, serialization, and job-result records."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, JobResult, evaluate_job
from repro.scenarios import ScenarioSpec


def cheap_scenario(name="cheap", **overrides):
    params = dict(
        name=name,
        configuration="A",
        scheme="xy-shift",
        mode="steady",
        num_epochs=6,
        settle_epochs=3,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestCampaignSpec:
    def test_round_trips_through_json(self):
        spec = CampaignSpec(
            name="demo",
            scenarios=("steady-baseline", cheap_scenario()),
            configurations=("A", "B"),
            schemes=("xy-shift", "rotation"),
            feedback_strides=(1, 4),
            thermal_methods=("euler",),
            description="round trip",
        )
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        # And the payload is plain data.
        json.loads(spec.to_json())

    def test_validation(self):
        with pytest.raises(ValueError, match="needs a name"):
            CampaignSpec(name="", scenarios=("steady-baseline",))
        with pytest.raises(ValueError, match="at least one scenario"):
            CampaignSpec(name="x", scenarios=())
        with pytest.raises(ValueError, match="duplicates"):
            CampaignSpec(
                name="x", scenarios=("steady-baseline",), configurations=("A", "A")
            )
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(name="x", scenarios=("steady-baseline",), schemes=())
        with pytest.raises(TypeError):
            CampaignSpec(name="x", scenarios=(42,))

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"configurations": [5]}, "configurations holds 5"),
            ({"schemes": [["x"]]}, "schemes holds \\['x'\\]"),
            ({"schemes": "xy-shift"}, "schemes must be a list"),
            ({"feedback_strides": ["2"]}, "feedback_strides holds '2'"),
            ({"stream_windows": [True]}, "stream_windows holds True"),
            ({"thermal_methods": [1.5]}, "thermal_methods holds 1.5"),
            ({"scenarios": "steady-baseline"}, "scenarios must be a list"),
            ({"scenarios": [5]}, "scenarios holds 5"),
            (
                {"scenarios": [{"name": "x", "configuration": 5}]},
                "unknown configuration 5",
            ),
            ({"description": 5}, "description must be a string, got 5"),
            ({"description": None}, "description must be a string, got None"),
            (
                {"scenarios": [{"name": "x", "configuration": "A", "description": []}]},
                "description must be a string, got \\[\\]",
            ),
        ],
    )
    def test_wrong_typed_fields_refused_before_expansion(self, edit, message):
        payload = {"name": "x", "scenarios": ["steady-baseline"]}
        payload.update(edit)
        with pytest.raises(ValueError, match=message):
            CampaignSpec.from_dict(payload)

    def test_unknown_axis_values_refused_at_expansion(self):
        spec = CampaignSpec(
            name="x", scenarios=("steady-baseline",), configurations=("Z",)
        )
        with pytest.raises(ValueError, match="unknown configuration 'Z'"):
            spec.expand()

    def test_unknown_fields_rejected(self):
        payload = CampaignSpec(name="x", scenarios=("steady-baseline",)).to_dict()
        payload["surprise"] = True
        with pytest.raises(ValueError, match="unknown campaign fields"):
            CampaignSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "a campaign must be a JSON object, got \\[\\]"),
            ({"scenarios": ["steady-baseline"]}, "missing campaign fields: \\['name'\\]"),
            ({"name": "x"}, "missing campaign fields: \\['scenarios'\\]"),
            (
                {"name": "x", "scenarios": [{"name": "y"}]},
                "missing scenario fields: \\['configuration'\\]",
            ),
        ],
        ids=["list", "no-name", "no-scenarios", "inline-no-configuration"],
    )
    def test_non_object_or_missing_field_is_a_value_error(self, payload, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec.from_dict(payload)

    def test_expansion_is_the_full_cross_product(self):
        spec = CampaignSpec(
            name="grid",
            scenarios=(cheap_scenario("s1"), cheap_scenario("s2")),
            configurations=("A", "B", "C"),
            schemes=("xy-shift", "rotation"),
            feedback_strides=(1, 2),
        )
        jobs = spec.expand()
        assert len(jobs) == 2 * 3 * 2 * 2
        assert [job.index for job in jobs] == list(range(len(jobs)))
        assert len({job.job_id for job in jobs}) == len(jobs)
        # Axis substitution actually lands in the derived specs.
        assert {job.spec.configuration for job in jobs} == {"A", "B", "C"}
        assert {job.spec.scheme for job in jobs} == {"xy-shift", "rotation"}
        assert {job.spec.feedback_stride for job in jobs} == {1, 2}
        # The scenario name is left untouched so overlapping campaigns
        # derive byte-identical specs (shared cache keys).
        assert {job.spec.name for job in jobs} == {"s1", "s2"}

    def test_unpinned_axes_keep_scenario_settings(self):
        base = cheap_scenario(thermal_method="spectral", feedback_stride=3)
        jobs = CampaignSpec(name="keep", scenarios=(base,)).expand()
        assert len(jobs) == 1
        assert jobs[0].spec == base
        assert jobs[0].axes["thermal_method"] == "spectral"
        assert jobs[0].axes["feedback_stride"] == 3

    def test_expansion_is_deterministic(self):
        spec = CampaignSpec(
            name="det",
            scenarios=("steady-baseline", "burst-overload"),
            configurations=("B", "A"),
            schemes=("rotation", "xy-shift"),
        )
        first = [(job.job_id, job.spec.canonical_json()) for job in spec.expand()]
        second = [(job.job_id, job.spec.canonical_json()) for job in spec.expand()]
        assert first == second

    def test_registry_names_resolve(self):
        jobs = CampaignSpec(name="reg", scenarios=("steady-baseline",)).expand()
        assert jobs[0].spec.num_epochs == 41

    def test_scheme_override_drops_foreign_policy_params(self):
        # threshold-under-burst carries trigger_celsius, which only the
        # threshold policy class accepts.
        jobs = CampaignSpec(
            name="override",
            scenarios=("threshold-under-burst",),
            schemes=("xy-shift", "threshold-rotation"),
        ).expand()
        assert [job.job_id for job in jobs] == [
            "threshold-under-burst@B/xy-shift/fs4/euler",
            "threshold-under-burst@B/threshold-rotation/fs4/euler",
        ]
        assert [job.spec.policy_params for job in jobs] == [
            None,
            {"trigger_celsius": 90.0},
        ]
        for job in jobs:
            assert evaluate_job(job).job_id == job.job_id

    @pytest.mark.parametrize(
        ("scenarios", "job_id"),
        [
            # Two inline scenarios that share a name but not a period.
            (
                (cheap_scenario(), cheap_scenario(period_us=874.4)),
                "cheap@A/xy-shift/fs1/euler",
            ),
            (("steady-baseline", "steady-baseline"), "steady-baseline@A/"),
        ],
    )
    def test_duplicate_job_ids_rejected(self, scenarios, job_id):
        spec = CampaignSpec(name="dup", scenarios=scenarios)
        with pytest.raises(ValueError, match=job_id):
            spec.expand()


class TestJobResult:
    def test_round_trips_exactly(self):
        job = CampaignSpec(name="r", scenarios=(cheap_scenario(),)).expand()[0]
        result = evaluate_job(job)
        rebuilt = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_unknown_fields_rejected(self):
        job = CampaignSpec(name="r", scenarios=(cheap_scenario(),)).expand()[0]
        payload = evaluate_job(job).to_dict()
        payload["extra"] = 1
        with pytest.raises(ValueError, match="unknown job-result fields"):
            JobResult.from_dict(payload)

    def test_optional_channels_populate(self):
        from repro.scenarios import get_scenario

        snr_job = CampaignSpec(name="snr", scenarios=("snr-fade",)).expand()[0]
        # Shrink the horizon so the decoder probe stays cheap.
        import dataclasses

        small = dataclasses.replace(
            snr_job.spec, num_epochs=4, settle_epochs=2
        )
        snr_result = evaluate_job(dataclasses.replace(snr_job, spec=small))
        assert snr_result.decoder_throughput_factor is not None

        noc_spec = get_scenario("noc-congestion-burst")
        noc_job = CampaignSpec(name="noc", scenarios=(noc_spec,)).expand()[0]
        noc_result = evaluate_job(noc_job)
        assert noc_result.noc_mean_latency_cycles is not None
        assert noc_result.noc_saturated_epochs == 12
