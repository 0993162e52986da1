"""Window sources: scenario pattern cursors and the JSONL wire format."""

import functools
import itertools

import numpy as np
import pytest

from repro.scenarios.compile import compile_scenario
from repro.scenarios.patterns import DiurnalPattern, RampPattern
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.stream import jsonl_windows, scenario_windows
from repro.stream.window import CHANNELS


def _compiled(num_epochs=12):
    spec = ScenarioSpec(
        name="source-test",
        configuration="A",
        scheme="xy-shift",
        num_epochs=num_epochs,
        settle_epochs=4,
        load=DiurnalPattern(mean=0.9, amplitude=0.2, period_epochs=8),
        ambient_celsius=RampPattern(start=0.0, end=2.0, end_epoch=10),
    )
    return compile_scenario(spec)


@functools.lru_cache(maxsize=None)
def _compiled_registry(name):
    return compile_scenario(get_scenario(name))


class TestScenarioWindows:
    def test_covers_horizon_with_trimmed_tail(self):
        compiled = _compiled()
        windows = list(scenario_windows(compiled, 5, max_epochs=12))
        assert [w.num_epochs for w in windows] == [5, 5, 2]
        assert [w.start_epoch for w in windows] == [0, 5, 10]

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("spec", all_scenarios(), ids=lambda spec: spec.name)
    def test_windows_match_batch_schedules(self, spec, channel):
        # 7-epoch windows divide none of the registry horizons, so every
        # stitch also crosses a trimmed tail window.
        compiled = _compiled_registry(spec.name)
        windows = scenario_windows(compiled, 7, max_epochs=spec.num_epochs)
        parts = [getattr(window, channel) for window in windows]
        expected = getattr(compiled.window, channel)
        if expected is None:
            assert all(part is None for part in parts)
        else:
            assert np.array_equal(np.concatenate(parts), expected)

    def test_registry_drives_every_channel(self):
        driven = {
            channel
            for spec in all_scenarios()
            for channel in CHANNELS
            if getattr(_compiled_registry(spec.name).window, channel) is not None
        }
        assert driven == set(CHANNELS)

    def test_unbounded_stream_keeps_producing(self):
        compiled = _compiled()
        windows = list(itertools.islice(scenario_windows(compiled, 4), 10))
        assert len(windows) == 10
        # Cursors run past the spec's horizon without complaint.
        assert windows[-1].start_epoch == 36

    def test_start_epoch_offset(self):
        compiled = _compiled()
        windows = list(scenario_windows(compiled, 4, max_epochs=12, start_epoch=8))
        assert [w.start_epoch for w in windows] == [8]
        full = list(scenario_windows(compiled, 4, max_epochs=12))
        assert np.array_equal(
            windows[0].modulation_matrix(16), full[2].modulation_matrix(16)
        )

    def test_exhausted_range_is_empty(self):
        compiled = _compiled()
        assert list(scenario_windows(compiled, 4, max_epochs=8, start_epoch=8)) == []

    def test_validates_arguments(self):
        compiled = _compiled()
        with pytest.raises(ValueError):
            next(scenario_windows(compiled, 0))
        with pytest.raises(ValueError):
            next(scenario_windows(compiled, 4, start_epoch=-1))
        with pytest.raises(ValueError, match="max_epochs"):
            next(scenario_windows(compiled, 4, max_epochs=-1))


class TestJsonlWindows:
    def test_parses_lines_and_skips_blanks(self):
        lines = [
            '{"num_epochs": 3, "start_epoch": 0}',
            "",
            "   \n",
            '{"num_epochs": 2, "start_epoch": 3}',
        ]
        windows = list(jsonl_windows(lines))
        assert [w.num_epochs for w in windows] == [3, 2]
        assert [w.start_epoch for w in windows] == [0, 3]

    def test_reports_one_based_line_number(self):
        lines = ['{"num_epochs": 1}', "{not json"]
        with pytest.raises(ValueError, match="line 2"):
            list(jsonl_windows(lines))

    def test_invalid_record_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            list(jsonl_windows(['{"num_epochs": 0}']))
