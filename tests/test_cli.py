"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cli import _rows_to_csv, build_parser, main
from repro.scenarios import all_scenarios


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.configuration == "A"
        assert args.scheme == "xy-shift"
        assert args.period == 109.0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command", [["sweep"], ["ablation"], ["dtm"], ["scenario", "compare"]]
    )
    def test_n_jobs_only_on_campaign_run(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--n-jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --n-jobs" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def cli_modules(self):
        """Modules a fresh interpreter has loaded after ``import repro.cli``."""
        script = "import json, sys\nimport repro.cli\nprint(json.dumps(sorted(sys.modules)))\n"
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            check=True,
        )
        return json.loads(completed.stdout)

    def test_import_does_not_load_multiprocessing(self, cli_modules):
        """The process pool is imported only by a sharded campaign run."""
        assert [m for m in cli_modules if m.startswith("multiprocessing")] == []

    def test_import_does_not_load_scipy(self, cli_modules):
        """The runtime is numpy-only: the decoders' segment sums need no
        sparse-matrix operators and the thermal eigenbasis is numpy's."""
        assert "repro.ldpc" in cli_modules
        assert "repro.thermal.solver" in cli_modules
        assert [m for m in cli_modules if m.split(".")[0] == "scipy"] == []


class TestChipsCommand:
    def test_lists_all_configurations(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        for name in ("A", "B", "C", "D", "E"):
            assert name in out
        assert "85.44" in out

    def test_csv_output(self, capsys):
        assert main(["--csv", "chips"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("configuration,")
        assert len(out.strip().splitlines()) == 6


class TestRowsToCsv:
    def test_negative_zero_prints_unsigned(self):
        text = _rows_to_csv([{"metric": "a", "value": -0.0}, {"metric": "b", "value": -0.5}])
        assert text.splitlines() == ["metric,value", "a,0.0", "b,-0.5"]

    def test_integers_and_none_are_unchanged(self):
        assert _rows_to_csv([{"n": 0, "x": None}]).splitlines() == ["n,x", "0,"]


class TestExperimentCommand:
    def test_runs_small_experiment(self, capsys):
        code = main(
            ["experiment", "-c", "A", "-s", "xy-shift", "--epochs", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak reduction (C)" in out
        assert "throughput penalty (%)" in out

    def test_static_policy(self, capsys):
        assert main(["experiment", "-c", "C", "-s", "static", "--epochs", "5"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out

    def test_feedback_stride_flag(self, capsys):
        code = main(
            ["experiment", "-c", "A", "-s", "adaptive", "--epochs", "9",
             "--feedback-stride", "3", "--feedback-predictor", "previous"]
        )
        assert code == 0
        assert "migrations" in capsys.readouterr().out

    def test_no_migration_energy_flag(self, capsys):
        code = main(
            [
                "experiment",
                "-c",
                "A",
                "-s",
                "rotation",
                "--epochs",
                "9",
                "--no-migration-energy",
            ]
        )
        assert code == 0

    def test_grid_model_flag(self, capsys):
        code = main(
            ["experiment", "-c", "A", "-s", "xy-shift", "--epochs", "7", "--grid", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak reduction (C)" in out


class TestSweepCommand:
    def test_custom_periods(self, capsys):
        code = main(
            ["sweep", "-c", "A", "-s", "xy-shift", "--epochs", "11",
             "--periods", "109", "436"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "109" in out and "436" in out


class TestAblationCommand:
    def test_reports_energy_penalty(self, capsys):
        assert main(["ablation", "-c", "E", "-s", "rotation", "--epochs", "11"]) == 0
        out = capsys.readouterr().out
        assert "migration energy" in out


class TestDtmCommand:
    def test_compares_three_techniques(self, capsys):
        assert main(["dtm", "-c", "A", "--epochs", "11"]) == 0
        out = capsys.readouterr().out
        assert "runtime reconfiguration" in out
        assert "stop-go" in out
        assert "DVFS" in out


@pytest.mark.parametrize("command", ["experiment", "sweep", "ablation", "dtm"])
def test_single_epoch_run(command, capsys):
    """A 1-epoch run settles over its only epoch instead of over none."""
    assert main([command, "-c", "A", "--epochs", "1"]) == 0
    assert capsys.readouterr().out


#: Recorded stdout of the paper's commands, one file per command line.  The
#: files are byte-exact (CSV output keeps its ``\r\n`` line ends).
GOLDEN_DIR = Path(__file__).resolve().parent / "cli_golden"
GOLDEN_COMMANDS = {
    "figure1": "figure1",
    "figure1-csv": "--csv figure1",
    "figure1-AE-437": "figure1 -C A E --period 437.2",
    "sweep": "sweep",
    "sweep-E-transient": "sweep -c E --mode transient",
    "ablation": "ablation",
    "ablation-E-rotation-11": "ablation -c E -s rotation --epochs 11",
    "dtm": "dtm",
    "dtm-C-11": "dtm -c C --epochs 11",
    "experiment-C-grid2-transient":
        "experiment -c C --grid 2 --epochs 6 --mode transient",
    "experiment-E-grid2-spectral":
        "experiment -c E --grid 2 --epochs 6 --mode transient",
    "experiment-1-epoch": "experiment --epochs 1",
    "experiment-fluid": "experiment --migration-style fluid --epochs 12",
    "experiment-E-batched-no-energy":
        "experiment -c E --migration-style batched --no-migration-energy "
        "--mode transient --epochs 8",
    "experiment-B-adaptive-stride3":
        "experiment -c B -s adaptive --feedback-stride 3 "
        "--feedback-predictor previous --epochs 20",
    "scenario-compare-feedback":
        "scenario compare steady-baseline threshold-under-burst "
        "adaptive-diurnal --feedback-stride 2 --feedback-predictor previous",
    "scenario-compare-csv": "--csv scenario compare",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_paper_command_stdout_matches_golden(name, capsys):
    assert main(GOLDEN_COMMANDS[name].split()) == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected


class TestFigure1Command:
    def test_subset_of_configurations(self, capsys):
        assert main(["figure1", "-C", "A"]) == 0
        out = capsys.readouterr().out
        assert "A(85.44)" in out
        assert "best scheme" in out

    def test_csv(self, capsys):
        assert main(["--csv", "figure1", "-C", "A"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("configuration,")


class TestScenarioCommand:
    def test_list_names_all_scenarios(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for spec in all_scenarios():
            assert spec.name in out

    def test_run_named_scenario(self, capsys):
        assert main(["scenario", "run", "steady-baseline"]) == 0
        out = capsys.readouterr().out
        assert "settled peak (C)" in out
        assert "migrations" in out

    def test_run_requires_name_or_spec(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    def test_show_spec_prints_json(self, capsys):
        assert main(["scenario", "run", "diurnal-load", "--show-spec"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "diurnal"' in out

    def test_run_spec_file(self, capsys, tmp_path):
        from repro.scenarios import get_scenario

        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(get_scenario("steady-baseline").to_json())
        assert main(["scenario", "run", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "settled peak (C)" in out

    def test_compare_selected_scenarios(self, capsys):
        code = main(
            ["--csv", "scenario", "compare", "steady-baseline", "duty-cycle-idle"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario,")
        assert "steady-baseline" in out and "duty-cycle-idle" in out

    def test_run_feedback_scenario(self, capsys):
        assert main(["scenario", "run", "threshold-under-burst"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out

    def test_feedback_stride_override_shows_in_spec(self, capsys):
        code = main(
            ["scenario", "run", "adaptive-diurnal", "--feedback-stride", "8",
             "--show-spec"]
        )
        assert code == 0
        assert '"feedback_stride": 8' in capsys.readouterr().out

    def test_compare_applies_feedback_overrides_to_every_spec(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        compared = []
        compare = cli_module.compare_scenarios

        def spy(specs):
            compared.extend(specs)
            return compare(specs)

        monkeypatch.setattr(cli_module, "compare_scenarios", spy)
        code = main(
            ["scenario", "compare", "steady-baseline", "threshold-under-burst",
             "--feedback-stride", "5", "--feedback-predictor", "previous"]
        )
        assert code == 0
        assert [
            (spec.name, spec.feedback_stride, spec.feedback_predictor)
            for spec in compared
        ] == [
            ("steady-baseline", 5, "previous"),
            ("threshold-under-burst", 5, "previous"),
        ]

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["scenario", "run", "frobnicate"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_spec_file_is_clean_error(self, capsys, tmp_path):
        assert main(["scenario", "run", "--spec", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.strip() != ""

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"routing": "zz"}, "unknown routing"),
            ({"traffic_kwargs": {"hotspots": [[9, 9]]}}, "outside mesh"),
            (
                {"traffic_kwargs": {"hotspots": [[1, 1]], "hotspot_frac": 0.95}},
                "hotspot_frac",
            ),
            (
                {"traffic_kwargs": {"hotspots": [[1, 1]], "hotspot_fraction": 1.5}},
                "[0, 1]",
            ),
            (
                {"traffic_kwargs": {"hotspots": [[1, 1]], "hotspot_fraction": {"a": 1}}},
                "hotspot_fraction must be a real number",
            ),
            (
                {"traffic_kwargs": {"hotspots": [[1, 1]], "hotspot_fraction": "0.5"}},
                "hotspot_fraction must be a real number",
            ),
            ({"traffic_kwargs": {"hotspots": 5}}, "hotspots must be integer"),
            ({"traffic_kwargs": {"hotspots": [["a", 1]]}}, "hotspots must be integer"),
            ({"injection_rate": "0.1"}, "injection_rate must be a real number"),
            ({"packet_size_flits": "4"}, "packet_size_flits must be an integer"),
        ],
        ids=[
            "routing",
            "hotspot-off-mesh",
            "unknown-argument",
            "fraction",
            "fraction-object",
            "fraction-string",
            "hotspots-number",
            "hotspot-string-coordinate",
            "rate-string",
            "packet-size-string",
        ],
    )
    def test_malformed_noc_channel_is_one_line_error(
        self, capsys, tmp_path, edit, message
    ):
        import json

        from repro.scenarios import get_scenario

        spec = json.loads(get_scenario("noc-congestion-burst").to_json())
        spec["noc"].update(edit)
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["scenario", "run", "--spec", str(spec_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"num_epochs": "40"}, "num_epochs must be an integer"),
            ({"period_us": "109"}, "period_us must be a real number"),
            ({"settle_epochs": "3"}, "settle_epochs must be an integer"),
            ({"units_per_epoch": "2"}, "units_per_epoch must be an integer"),
            (
                {"transient_steps_per_epoch": "8"},
                "transient_steps_per_epoch must be an integer",
            ),
            ({"feedback_stride": 1.5}, "feedback_stride must be an integer"),
            ({"policy_params": {"bogus": 1}}, "'bogus'"),
            (
                {"include_migration_energy": "no"},
                "include_migration_energy must be true or false",
            ),
            ({"configuration": 5}, "unknown configuration 5"),
            ({"scheme": ["a"]}, "unknown scheme ['a']"),
            (
                {"scheme": "adaptive", "policy_params": {"candidate_schemes": 5}},
                "'adaptive': candidate_schemes",
            ),
            (
                {
                    "scheme": "threshold-xy-shift",
                    "policy_params": {"trigger_celsius": "hot"},
                },
                "'threshold-xy-shift': trigger_celsius",
            ),
            (
                {
                    "scheme": "adaptive",
                    "policy_params": {"candidate_schemes": ["xy-shift", "xy-shfit"]},
                },
                "policy 'adaptive': unknown candidate scheme(s) ['xy-shfit']",
            ),
        ],
        ids=[
            "epochs-string",
            "period-string",
            "settle-string",
            "units-string",
            "steps-string",
            "stride-float",
            "unknown-policy-keyword",
            "energy-flag-string",
            "configuration-number",
            "scheme-list",
            "candidates-number",
            "trigger-string",
            "candidates-misspelled",
        ],
    )
    def test_malformed_spec_field_is_one_line_error(
        self, capsys, tmp_path, edit, message
    ):
        import json

        from repro.scenarios import get_scenario

        spec = json.loads(get_scenario("noc-congestion-burst").to_json())
        spec.update(edit)
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["scenario", "run", "--spec", str(spec_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"name": "y"}', "missing scenario fields: ['configuration']"),
            ("[]", "a scenario must be a JSON object, got []"),
        ],
        ids=["no-configuration", "list"],
    )
    def test_spec_file_not_a_whole_scenario_is_one_line_error(
        self, capsys, tmp_path, text, message
    ):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(text)
        assert main(["scenario", "run", "--spec", str(spec_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


class TestCampaignCommand:
    SPEC = {
        "name": "cli-demo",
        "scenarios": [
            {
                "name": "cheap",
                "configuration": "A",
                "scheme": "xy-shift",
                "mode": "steady",
                "num_epochs": 6,
                "settle_epochs": 3,
            }
        ],
        "configurations": ["A", "B"],
    }

    def _spec_file(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_dry_run_forecasts_without_touching_disk(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        directory = tmp_path / "camp"
        code = main(
            ["campaign", "run", "-S", spec, "-d", str(directory), "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "would_evaluate" in out
        assert "cheap@A/xy-shift/fs1/euler" in out
        assert not directory.exists()

    def test_run_then_warm_rerun_then_report(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", "-S", spec, "-d", directory]) == 0
        out = capsys.readouterr().out
        assert "evaluated" in out and "configuration" in out
        assert main(["campaign", "run", "-S", spec, "-d", directory]) == 0
        # Warm: everything replays from the journal.
        assert main(["--csv", "campaign", "status", "-d", directory]) == 0
        csv_out = capsys.readouterr().out.splitlines()[-1]
        assert ",2,2,0," in csv_out
        assert main(["campaign", "report", "-d", directory]) == 0
        assert "mean_peak_c" in capsys.readouterr().out

    def test_list_summarises_campaign_roots(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        root = tmp_path / "campaigns"
        assert main(["campaign", "run", "-S", spec, "-d", str(root / "one")]) == 0
        capsys.readouterr()
        assert main(["campaign", "list", "--root", str(root)]) == 0
        assert "cli-demo" in capsys.readouterr().out

    def test_list_without_campaigns_is_clean_error(self, capsys, tmp_path):
        assert main(["campaign", "list", "--root", str(tmp_path)]) == 1
        assert "no campaign directories" in capsys.readouterr().err

    def test_missing_spec_file_is_clean_error(self, capsys, tmp_path):
        code = main(
            ["campaign", "run", "-S", str(tmp_path / "nope.json"),
             "-d", str(tmp_path / "camp")]
        )
        assert code == 1
        assert "cannot load campaign spec" in capsys.readouterr().err

    def test_report_before_run_is_clean_error(self, capsys, tmp_path):
        assert main(["campaign", "report", "-d", str(tmp_path)]) == 1
        assert "no report.json" in capsys.readouterr().err

    def test_torn_report_is_one_line_error(self, capsys, tmp_path):
        directory = tmp_path / "camp"
        assert main(["campaign", "run", "-S", self._spec_file(tmp_path),
                     "-d", str(directory)]) == 0
        report = directory / "report.json"
        data = report.read_bytes()
        report.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["campaign", "report", "-d", str(directory)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "report" in captured.err and "Traceback" not in captured.err
        # Status and list only ask whether the report exists.
        assert main(["--csv", "campaign", "status", "-d", str(directory)]) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        status = dict(zip(header.split(","), row.split(",")))
        assert (status["jobs"], status["completed"], status["has_report"]) == ("2", "2", "True")
        assert main(["campaign", "list", "--root", str(tmp_path)]) == 0
        assert "error" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "edit",
        [
            {"configurations": [5]},
            {"scenarios": [{"name": "x", "configuration": 5}]},
            {"schemes": [["x"]]},
            {"scenarios": "steady-baseline"},
            {"configurations": ["Z"]},
        ],
        ids=[
            "configuration-number",
            "inline-configuration-number",
            "scheme-list",
            "scenarios-string",
            "unknown-configuration",
        ],
    )
    def test_wrong_typed_spec_is_one_line_error_and_no_directory(
        self, capsys, tmp_path, edit
    ):
        import json

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(dict(self.SPEC, **edit)))
        directory = tmp_path / "camp"
        code = main(["campaign", "run", "-S", str(spec), "-d", str(directory)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert not directory.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "a campaign must be a JSON object, got []"),
            ({"scenarios": ["steady-baseline"]}, "missing campaign fields: ['name']"),
            (
                {"name": "x", "scenarios": [{"name": "y"}]},
                "missing scenario fields: ['configuration']",
            ),
        ],
        ids=["list", "no-name", "inline-no-configuration"],
    )
    def test_spec_not_an_object_or_missing_a_field_is_one_line_error(
        self, capsys, tmp_path, payload, message
    ):
        import json

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(payload))
        directory = tmp_path / "camp"
        code = main(["campaign", "run", "-S", str(spec), "-d", str(directory)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot load campaign spec: {message}\n"
        assert not directory.exists()

    def test_journal_line_not_an_object_is_one_line_error(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        directory = tmp_path / "camp"
        assert main(["campaign", "run", "-S", spec, "-d", str(directory)]) == 0
        journal = directory / "manifest.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write("5\n")
        capsys.readouterr()
        for argv in (
            ["campaign", "run", "-S", spec, "-d", str(directory)],
            ["campaign", "status", "-d", str(directory)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert str(journal) in captured.err
            assert "not a JSON object" in captured.err

    @pytest.mark.parametrize("n_jobs", ["0", "-2"])
    def test_bad_worker_count_is_one_line_error(self, capsys, tmp_path, n_jobs):
        directory = tmp_path / "camp"
        code = main(
            ["campaign", "run", "-S", self._spec_file(tmp_path),
             "-d", str(directory), "--n-jobs", n_jobs]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "n_jobs" in captured.err
        assert not directory.exists()

    def test_n_jobs_help_names_worker_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "worker processes (-1 = all CPUs; default 1)" in out

    def test_default_run_is_serial(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        directory = str(tmp_path / "camp")
        assert main(["--csv", "campaign", "run", "-S", spec, "-d", directory]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        summary = dict(zip(header.split(","), row.split(",")))
        assert summary["workers"] == "1"
        assert summary["evaluated"] == "2"
        assert "executor" not in summary

    def test_sharded_run_writes_the_serial_report(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        serial, sharded = tmp_path / "serial", tmp_path / "sharded"
        assert main(["campaign", "run", "-S", spec, "-d", str(serial)]) == 0
        capsys.readouterr()
        assert main(
            ["--csv", "campaign", "run", "-S", spec, "-d", str(sharded),
             "--n-jobs", "2"]
        ) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert dict(zip(header.split(","), row.split(",")))["workers"] == "2"
        assert json.loads((sharded / "report.json").read_text()) == json.loads(
            (serial / "report.json").read_text()
        )

    def test_all_cpus_request_is_accepted(self, capsys, tmp_path):
        directory = tmp_path / "camp"
        code = main(
            ["campaign", "run", "-S", self._spec_file(tmp_path),
             "-d", str(directory), "--n-jobs", "-1", "--dry-run"]
        )
        assert code == 0
        assert "would_evaluate" in capsys.readouterr().out
        assert not directory.exists()


class TestServeCommand:
    def test_scenario_stream_emits_jsonl(self, capsys):
        assert main(["serve", "steady-baseline", "--window", "20"]) == 0
        import json as _json

        lines = [
            _json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        updates, final = lines[:-1], lines[-1]
        assert [u["start_epoch"] for u in updates] == [0, 20, 40]
        assert updates[-1]["epochs"] == 41  # cumulative rolling count
        assert final["final"] is True
        assert final["migrations"] == updates[-1]["migrations"]

    def test_max_epochs_caps_scenario_stream(self, capsys):
        assert main(["serve", "steady-baseline", "--window", "4",
                     "--max-epochs", "8"]) == 0
        import json as _json

        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # two windows + the final record
        assert _json.loads(lines[1])["epochs"] == 8

    def test_checkpoint_resume_skips_completed_epochs(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        assert main(["serve", "steady-baseline", "--window", "10",
                     "--max-epochs", "20", "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out.strip().splitlines()
        assert len(first) == 3
        # Re-serving the same stream finds everything checkpointed.
        assert main(["serve", "steady-baseline", "--window", "10",
                     "--max-epochs", "20", "--checkpoint", ckpt]) == 0
        second = capsys.readouterr().out.strip().splitlines()
        assert len(second) == 1  # only the final record
        assert second[0] == first[-1]

    def test_jsonl_input_stream(self, tmp_path, capsys):
        path = tmp_path / "windows.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(
                    {
                        "num_epochs": 4,
                        "start_epoch": 4 * index,
                        "load_modulation": [1.0, 0.9, 1.1, 1.0],
                    }
                )
                for index in range(3)
            )
            + "\n"
        )
        assert main(["serve", "--input", str(path), "-c", "A",
                     "-s", "xy-shift", "--settled", "4"]) == 0
        import json as _json

        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert _json.loads(lines[-1])["final"] is True

    def test_name_and_input_are_exclusive(self, capsys):
        assert main(["serve", "steady-baseline", "--input", "x.jsonl"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_needs_a_source(self, capsys):
        assert main(["serve"]) == 1
        assert "needs a scenario NAME or --input" in capsys.readouterr().err

    def test_unknown_scenario_is_one_line_error(self, capsys):
        assert main(["serve", "no-such-scenario"]) == 1
        assert capsys.readouterr().err.strip()

    def test_threshold_scheme_takes_trigger(self, tmp_path, capsys):
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 4}\n')
        assert main(["serve", "--input", str(path),
                     "-s", "threshold-xy-shift", "--trigger", "90",
                     "--settled", "4"]) == 0
        import json as _json

        out = capsys.readouterr().out.strip().splitlines()
        assert _json.loads(out[-1])["final"] is True

    @pytest.mark.parametrize(
        "line",
        [
            '{"num_epochs": 2.5}',
            '{"num_epochs": 2, "start_epoch": 1.9}',
            '{"num_epochs": true}',
            '{"num_epochs": 1, "start_epoch": true}',
            '{"num_epochs": null}',
            '{"num_epochs": [2]}',
            '{"num_epochs": {"a": 1}}',
            '{"num_epochs": 2, "ambient_offsets": {"a": 1}}',
            '{"num_epochs": 2, "noc_rates": ["0.1", "0.2"]}',
            '{"num_epochs": 2, "period_scale": [true, true]}',
        ],
    )
    def test_malformed_window_is_one_line_error(self, tmp_path, capsys, line):
        path = tmp_path / "windows.jsonl"
        path.write_text(line + "\n")
        assert main(["serve", "--input", str(path), "-c", "A",
                     "-s", "xy-shift"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_temperature_is_one_line_error(self, tmp_path, capsys):
        # A 1e306 load modulation is finite power whose temperatures
        # overflow the transient integration; JSON has no NaN.
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 2, "load_modulation": [1, 1e306]}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["serve", "--input", str(path), "-c", "A",
                         "-s", "xy-shift", "--mode", "transient"]) == 1
        # The overflow is reported once, not also as numpy warnings.
        assert not caught
        captured = capsys.readouterr()
        assert "NaN" not in captured.out
        assert captured.err.startswith("epoch 0: temperature is not finite")
        assert len(captured.err.strip().splitlines()) == 1

    def test_sub_femtosecond_epoch_is_served(self, tmp_path, capsys):
        # A 1e-300 period scale amortises the migration energy over
        # ~1e-304 s: the epoch deposits that energy and nothing more.
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 2, "period_scale": [1, 1e-300]}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["serve", "--input", str(path), "-c", "A",
                         "-s", "xy-shift", "--mode", "transient"]) == 0
        assert not caught
        captured = capsys.readouterr()
        assert captured.err == ""
        window = json.loads(captured.out.splitlines()[0])
        assert math.isfinite(window["peak_c"]) and window["peak_c"] < 100.0

    @pytest.mark.parametrize("scale, period", [("1e-320", "0.0"), ("1e308", "inf")])
    def test_degenerate_period_is_one_line_error(self, tmp_path, capsys, scale, period):
        # Positive scales whose period rounds to 0.0 s or overflows to inf s.
        path = tmp_path / "windows.jsonl"
        path.write_text(f'{{"num_epochs": 2, "period_scale": [1, {scale}]}}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["serve", "--input", str(path), "-c", "A",
                         "-s", "xy-shift", "--mode", "transient"]) == 1
        assert not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"epoch 1: period of {period} s is not positive and finite\n"
        )

    def _serve_into(self, tmp_path, *extra):
        """Serve two 4-epoch windows into ``tmp_path / "ck"``; argv, journal."""
        from repro.stream.checkpoint import CHECKPOINT_JOURNAL

        path = tmp_path / "windows.jsonl"
        path.write_text(
            "".join(
                json.dumps({"num_epochs": 4, "start_epoch": 4 * index}) + "\n"
                for index in range(2)
            )
        )
        checkpoint = tmp_path / "ck"
        argv = ["serve", "--input", str(path), "-c", "A", "-s", "rotation",
                "--checkpoint", str(checkpoint), *extra]
        return argv, checkpoint / CHECKPOINT_JOURNAL

    def _assert_one_line_refusal(self, argv, journal, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(journal) in captured.err
        assert "Traceback" not in captured.err
        return captured.err

    def test_malformed_journal_line_is_one_line_error(self, tmp_path, capsys):
        argv, journal = self._serve_into(tmp_path)
        assert main(argv + ["--max-epochs", "4"]) == 0
        journal.write_text('{"broken\n' + journal.read_text())
        error = self._assert_one_line_refusal(argv, journal, capsys)
        assert "line 1" in error

    def test_newest_checkpoint_that_is_not_an_object_is_one_line_error(
        self, tmp_path, capsys
    ):
        argv, journal = self._serve_into(tmp_path)
        assert main(argv + ["--max-epochs", "4"]) == 0
        journal.write_text(journal.read_text() + "[1, 2]\n")
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("checkpoint identity mismatch:")

    def test_checkpointed_step_that_is_not_a_permutation_is_one_line_error(
        self, tmp_path, capsys
    ):
        # Rotation on the 4x4 mesh is eight 2-cycles: a one-unit fluid plan
        # armed at epoch 0 is mid-flight when the first window checkpoints.
        argv, journal = self._serve_into(
            tmp_path, "--migration-style", "fluid", "--migration-units-per-epoch", "1"
        )
        assert main(argv + ["--max-epochs", "4"]) == 0
        payload = json.loads(journal.read_text())
        plan_state = payload["experiment"]["controller"]["plan"]
        step = plan_state["plan"]["stages"][plan_state["next_stage"]]["step"]
        moved = [node for node, target in enumerate(step) if node != target]
        step[moved[0]] = step[moved[1]]  # two nodes land on one
        journal.write_text(json.dumps(payload) + "\n")
        error = self._assert_one_line_refusal(argv, journal, capsys)
        assert "closed relocation" in error

    def test_final_record_has_no_negative_zero(self, tmp_path, capsys):
        # One static epoch settles at the baseline: the reduction rounds to
        # a zero that must print unsigned.
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 1}\n')
        assert main(["serve", "--input", str(path), "-c", "A", "-s", "xy-shift",
                     "--mode", "transient"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        final = json.loads(out.strip().splitlines()[-1])
        assert final["peak_reduction_c"] == 0.0
        assert str(final["peak_reduction_c"]) == "0.0"

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_input_without_windows_is_one_line_error(self, tmp_path, capsys, text):
        path = tmp_path / "windows.jsonl"
        path.write_text(text)
        assert main(["serve", "--input", str(path), "-c", "A", "-s", "xy-shift"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: no window records to serve\n"

    def test_restored_stream_with_empty_input_prints_its_final(self, tmp_path, capsys):
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 3}\n')
        argv = ["serve", "--input", str(path), "-c", "A", "-s", "xy-shift",
                "--checkpoint", str(tmp_path / "ck")]
        assert main(argv) == 0
        final = capsys.readouterr().out.splitlines()[-1]
        path.write_text("")
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [final]

    def test_negative_max_epochs_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 2}\n')
        for argv in (
            ["serve", "diurnal-load"],
            ["serve", "--input", str(path), "-c", "A", "-s", "xy-shift"],
        ):
            assert main(argv + ["--max-epochs", "-1"]) == 1
            err = capsys.readouterr().err
            assert err.strip() == "max_epochs must be non-negative"
            assert "Traceback" not in err

    def test_threshold_scheme_without_trigger_is_one_line_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "windows.jsonl"
        path.write_text('{"num_epochs": 4}\n')
        assert main(["serve", "--input", str(path),
                     "-s", "threshold-xy-shift"]) == 1
        assert "--trigger" in capsys.readouterr().err
