"""The campaign streaming axis: windowed evaluation as a first-class sweep.

``stream_windows`` is an *evaluation* axis: it changes how a job's scenario
is driven (whole-horizon batch vs the streaming engine in N-epoch windows),
not what scenario it derives — so batch campaigns keep byte-stable job ids
and cache keys, streamed jobs get distinct ones, and a streamed result
matches its batch twin to streaming-parity tolerance.
"""

import pytest

from repro.campaign import CampaignSpec, evaluate_job, run_campaign
from repro.campaign.cache import job_cache_key
from repro.campaign.executor import compute_job_keys
from repro.scenarios import ScenarioSpec
from repro.storage import code_fingerprint


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


class TestStreamAxis:
    def test_expansion_suffixes_streamed_jobs(self):
        spec = CampaignSpec(
            name="streamed",
            scenarios=(cheap_scenario(),),
            schemes=("xy-shift",),
            stream_windows=(3, 6),
        )
        jobs = spec.expand()
        assert [job.job_id.split("/")[-1] for job in jobs] == ["w3", "w6"]
        assert [job.stream_window for job in jobs] == [3, 6]
        assert all(job.axes["stream_window"] == job.stream_window for job in jobs)

    def test_batch_expansion_is_untouched(self):
        # No stream_windows: ids and axes are byte-identical to before the
        # streaming axis existed (journals and caches stay valid).
        spec = CampaignSpec(
            name="batch", scenarios=(cheap_scenario(),), schemes=("xy-shift",)
        )
        jobs = spec.expand()
        assert len(jobs) == 1
        assert jobs[0].stream_window is None
        assert "stream_window" not in jobs[0].axes
        assert "/w" not in jobs[0].job_id

    def test_round_trips_through_json(self):
        spec = CampaignSpec(
            name="rt",
            scenarios=(cheap_scenario(),),
            stream_windows=(2, 4),
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                name="x", scenarios=(cheap_scenario(),), stream_windows=(0,)
            )
        with pytest.raises(ValueError):
            CampaignSpec(
                name="x", scenarios=(cheap_scenario(),), stream_windows=(4, 4)
            )
        with pytest.raises(ValueError):
            CampaignSpec(
                name="x", scenarios=(cheap_scenario(),), stream_windows=()
            )


class TestStreamCacheKeys:
    def test_variant_separates_streamed_entries(self):
        scenario = cheap_scenario()
        fingerprint = code_fingerprint()
        batch = job_cache_key(scenario, fingerprint)
        w3 = job_cache_key(scenario, fingerprint, variant="stream:w3")
        w6 = job_cache_key(scenario, fingerprint, variant="stream:w6")
        assert len({batch, w3, w6}) == 3
        # None keeps the historical batch key.
        assert batch == job_cache_key(scenario, fingerprint, variant=None)

    def test_compute_job_keys_tracks_stream_sources(self):
        streamed = CampaignSpec(
            name="keys",
            scenarios=(cheap_scenario(),),
            stream_windows=(3,),
        ).expand()
        batch = CampaignSpec(name="keys", scenarios=(cheap_scenario(),)).expand()
        streamed_key = compute_job_keys(streamed)[streamed[0].job_id]
        batch_key = compute_job_keys(batch)[batch[0].job_id]
        assert streamed_key != batch_key
        # Both keys bind the whole package's sources, the stream package's
        # included; the variant tells them apart.
        fingerprint = code_fingerprint()
        assert batch_key == job_cache_key(batch[0].spec, fingerprint)
        assert streamed_key == job_cache_key(
            streamed[0].spec, fingerprint, variant="stream:w3"
        )


class TestStreamedEvaluation:
    def test_streamed_result_matches_batch(self):
        scenario = cheap_scenario()
        batch_job = CampaignSpec(name="b", scenarios=(scenario,)).expand()[0]
        stream_job = CampaignSpec(
            name="s", scenarios=(scenario,), stream_windows=(2,)
        ).expand()[0]
        batch = evaluate_job(batch_job)
        streamed = evaluate_job(stream_job)
        assert streamed.settled_peak_celsius == pytest.approx(
            batch.settled_peak_celsius, abs=1e-9
        )
        assert streamed.settled_mean_celsius == pytest.approx(
            batch.settled_mean_celsius, abs=1e-9
        )
        assert streamed.migrations == batch.migrations
        # The streamed budget is one steady solve per window (6 epochs / 2).
        assert batch.steady_solves == 1
        assert streamed.steady_solves == 3

    def test_streamed_result_serializes(self):
        stream_job = CampaignSpec(
            name="s", scenarios=(cheap_scenario(),), stream_windows=(3,)
        ).expand()[0]
        result = evaluate_job(stream_job)
        from repro.campaign import JobResult

        assert JobResult.from_dict(result.to_dict()) == result

    def test_sharded_streamed_jobs_match_serial(self, tmp_path):
        spec = CampaignSpec(
            name="s",
            scenarios=(cheap_scenario(),),
            configurations=("A", "B"),
            stream_windows=(2, 3),
        )
        serial = run_campaign(spec, tmp_path / "serial")
        sharded = run_campaign(spec, tmp_path / "sharded", n_jobs=2)
        assert sharded.workers == 2
        assert sharded.evaluated == len(sharded.jobs) == 4
        assert [result.to_dict() for result in sharded.results] == [
            result.to_dict() for result in serial.results
        ]
