"""Command-line interface for the reproduction.

Gives downstream users a no-code path to every experiment::

    python -m repro figure1                    # Figure 1 table
    python -m repro experiment -c A -s xy-shift --period 109
    python -m repro sweep -c A -s xy-shift     # migration period sweep
    python -m repro ablation -c E -s rotation  # migration-energy ablation
    python -m repro dtm -c A                   # compare against stop-go / DVFS
    python -m repro chips                      # list configurations
    python -m repro scenario list              # named time-varying scenarios
    python -m repro scenario run diurnal-load  # run one scenario
    python -m repro scenario compare           # whole scenario suite
    python -m repro campaign run -S sweep.json -d campaigns/sweep
    python -m repro campaign status -d campaigns/sweep
    python -m repro serve diurnal-load --window 8    # stream a scenario
    python -m repro serve --input windows.jsonl -c A # serve external windows
    python -m repro serve diurnal-load --checkpoint ckpt/  # resumable stream
    python -m repro obs summary trace.json     # telemetry table from a trace
    python -m repro obs validate trace.json    # Chrome trace-event schema check

Every subcommand prints plain text (and optionally CSV via ``--csv``), so the
output can be piped into further analysis.

Global flags: ``--trace FILE`` enables the telemetry layer for the whole
invocation and writes a Chrome-trace-event JSON (open in Perfetto or
``chrome://tracing``) with the registry snapshot embedded; ``-v``/``-q``
raise/lower the ``repro.*`` logger verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import warnings
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis.report import (
    compare_scenarios,
    compare_with_migration,
    format_rows,
    generate_figure1,
    paper_spec,
    unsigned_zero,
)
from .analysis.sweep import PAPER_PERIODS_US, run_energy_ablation, run_period_sweep
from .campaign import CampaignSpec, campaign_status, run_campaign
from .campaign import manifest as campaign_manifest
from .campaign.report import CampaignReport
from .chips import all_configurations, get_configuration
from .core.experiment import ExperimentSettings, ThermalExperiment
from .core.policy import make_policy
from .migration.transforms import FIGURE1_SCHEMES
from .obs import (
    TelemetrySummary,
    configure_logging,
    export_chrome_trace,
    validate_chrome_trace,
)
from .obs import enable as obs_enable
from .obs import get_registry as obs_registry
from .obs import start_tracing as obs_start_tracing
from .scenarios import (
    ScenarioSpec,
    all_scenarios,
    compile_scenario,
    get_scenario,
    run_scenario,
)
from .thermal.hotspot import HotSpotModel


def _rows_to_csv(rows: List[dict]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(
        {key: unsigned_zero(value) for key, value in row.items()} for row in rows
    )
    return buffer.getvalue()


def _print_rows(rows: List[dict], as_csv: bool) -> None:
    if as_csv:
        print(_rows_to_csv(rows), end="")
        return
    print(format_rows(rows))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_chips(args: argparse.Namespace) -> int:
    rows = []
    for config in all_configurations():
        rows.append(
            {
                "configuration": config.name,
                "mesh": f"{config.topology.width}x{config.topology.height}",
                "total_power_w": round(config.total_power_w, 1),
                "baseline_peak_c": round(config.base_peak_temperature(), 2),
                "description": config.description,
            }
        )
    _print_rows(rows, args.csv)
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    report = generate_figure1(configurations=args.configurations, period_us=args.period)
    if args.csv:
        _print_rows(report.to_rows(), True)
    else:
        print(report.format_table())
        print()
        print(f"max reduction: {report.max_reduction():.2f} C, "
              f"best scheme: {report.best_scheme()}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    thermal_model = None
    if args.grid is not None:
        # The batched pipeline runs unchanged at grid resolution.  Reuse the
        # chip's floorplan so both resolutions model the same die.
        chip = get_configuration(args.configuration)
        thermal_model = HotSpotModel(
            chip.topology,
            resolution=args.grid,
            package=chip.thermal_model.package,
            floorplan=chip.thermal_model.floorplan,
        )
    spec = paper_spec(
        args.configuration,
        args.scheme,
        period_us=args.period,
        mode=args.mode,
        num_epochs=args.epochs,
        include_migration_energy=not args.no_migration_energy,
        feedback_stride=args.feedback_stride,
        feedback_predictor=args.feedback_predictor,
        migration_style=args.migration_style,
        units_per_epoch=args.migration_units_per_epoch,
    )
    result = run_scenario(spec, thermal_model=thermal_model).experiment
    rows = [
        {"metric": "baseline peak (C)", "value": round(result.baseline_peak_celsius, 2)},
        {"metric": "settled peak (C)", "value": round(result.settled_peak_celsius, 2)},
        {"metric": "peak reduction (C)", "value": round(result.peak_reduction_celsius, 2)},
        {"metric": "mean increase (C)", "value": round(result.mean_increase_celsius, 3)},
        {"metric": "throughput penalty (%)", "value": round(100 * result.throughput_penalty, 3)},
        {"metric": "migrations", "value": result.migrations_performed},
    ]
    _print_rows(rows, args.csv)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    periods = args.periods or list(PAPER_PERIODS_US)
    sweep = run_period_sweep(
        args.configuration,
        scheme=args.scheme,
        periods_us=periods,
        mode=args.mode,
        num_epochs=args.epochs,
    )
    rows = [
        {
            "period_us": point.period_us,
            "throughput_penalty_pct": round(100 * point.throughput_penalty, 3),
            "settled_peak_c": round(point.settled_peak_celsius, 2),
            "reduction_c": round(point.peak_reduction_celsius, 2),
        }
        for point in sorted(sweep.points, key=lambda p: p.period_us)
    ]
    _print_rows(rows, args.csv)
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    ablation = run_energy_ablation(
        args.configuration,
        scheme=args.scheme,
        period_us=args.period,
        num_epochs=args.epochs,
    )
    rows = [
        {
            "metric": "mean temperature increase from migration energy (C)",
            "value": round(ablation.mean_temperature_penalty_celsius, 3),
        },
        {
            "metric": "peak temperature increase from migration energy (C)",
            "value": round(ablation.peak_temperature_penalty_celsius, 3),
        },
        {
            "metric": "reduction with energy accounted (C)",
            "value": round(ablation.with_energy.peak_reduction_celsius, 2),
        },
        {
            "metric": "reduction without energy accounted (C)",
            "value": round(ablation.without_energy.peak_reduction_celsius, 2),
        },
    ]
    _print_rows(rows, args.csv)
    return 0


def cmd_dtm(args: argparse.Namespace) -> int:
    comparison = compare_with_migration(
        args.configuration,
        scheme=args.scheme,
        period_us=args.period,
        num_epochs=args.epochs,
    )
    _print_rows(comparison.to_rows(), args.csv)
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in all_scenarios():
        rows.append(
            {
                "scenario": spec.name,
                "config": spec.configuration,
                "scheme": spec.scheme,
                "mode": spec.mode,
                "epochs": spec.num_epochs,
                "description": spec.description,
            }
        )
    _print_rows(rows, args.csv)
    return 0


def _load_scenario(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec is not None:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text())
    elif args.name is None:
        raise SystemExit("scenario run needs a NAME or --spec FILE")
    else:
        spec = get_scenario(args.name)
    return _apply_overrides(spec, args)


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """The spec with the command's feedback/migration override flags applied."""
    if args.feedback_stride is not None:
        spec = dataclasses.replace(spec, feedback_stride=args.feedback_stride)
    if args.feedback_predictor is not None:
        spec = dataclasses.replace(spec, feedback_predictor=args.feedback_predictor)
    if getattr(args, "migration_style", None) is not None:
        spec = dataclasses.replace(spec, migration_style=args.migration_style)
    if getattr(args, "migration_units_per_epoch", None) is not None:
        spec = dataclasses.replace(
            spec, units_per_epoch=args.migration_units_per_epoch
        )
    return spec


def cmd_scenario_run(args: argparse.Namespace) -> int:
    try:
        spec = _load_scenario(args)
        compiled = None if args.show_spec else compile_scenario(spec)
    except (OSError, ValueError) as error:
        # Unknown name, missing/unreadable spec file, malformed JSON, an
        # invalid spec or a NoC channel its model rejects — a one-line error.
        print(error, file=sys.stderr)
        return 1
    if args.show_spec:
        print(spec.to_json())
        return 0
    result = run_scenario(compiled)
    experiment = result.experiment
    rows = [
        {"metric": "baseline peak (C)", "value": round(experiment.baseline_peak_celsius, 2)},
        {"metric": "settled peak (C)", "value": round(experiment.settled_peak_celsius, 2)},
        {"metric": "peak reduction (C)", "value": round(experiment.peak_reduction_celsius, 2)},
        {"metric": "settled mean (C)", "value": round(experiment.settled_mean_celsius, 2)},
        {"metric": "migrations", "value": experiment.migrations_performed},
        {
            "metric": "throughput penalty (%)",
            "value": round(100 * experiment.throughput_penalty, 3),
        },
        {
            "metric": "ambient offset span (C)",
            "value": round(
                result.ambient_offset_max_celsius - result.ambient_offset_min_celsius, 2
            ),
        },
    ]
    if result.decoder is not None:
        rows.append(
            {
                "metric": "decoder iterations / block",
                "value": round(result.decoder.mean_iterations, 2),
            }
        )
        rows.append(
            {
                "metric": "decoder throughput factor",
                "value": round(result.decoder.throughput_factor, 3),
            }
        )
    if result.noc is not None:
        rows.append(
            {
                "metric": "noc mean latency (cycles)",
                "value": round(result.noc.mean_latency_cycles, 1),
            }
        )
        rows.append(
            {
                "metric": "noc peak latency (cycles)",
                "value": round(result.noc.peak_latency_cycles, 1),
            }
        )
        rows.append(
            {
                "metric": "noc saturated epochs",
                "value": result.noc.saturated_epochs,
            }
        )
    _print_rows(rows, args.csv)
    return 0


def cmd_scenario_compare(args: argparse.Namespace) -> int:
    specs = [get_scenario(name) for name in args.names] if args.names else all_scenarios()
    comparison = compare_scenarios([_apply_overrides(spec, args) for spec in specs])
    if args.csv:
        _print_rows(comparison.to_rows(), True)
    else:
        print(comparison.format_table())
    return 0


def _campaign_summary_rows(run) -> List[dict]:
    return [
        {
            "campaign": run.spec.name,
            "jobs": len(run.jobs),
            "evaluated": run.evaluated,
            "cache_hits": run.cache_hits,
            "resumed": run.resumed,
            "workers": run.workers,
            "wall_s": round(run.wall_s, 3),
        }
    ]


def cmd_campaign_run(args: argparse.Namespace) -> int:
    try:
        spec = CampaignSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"cannot load campaign spec: {error}", file=sys.stderr)
        return 1
    try:
        run = run_campaign(
            spec,
            Path(args.directory),
            n_jobs=args.n_jobs,
            cache_root=Path(args.cache) if args.cache else None,
            dry_run=args.dry_run,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    if args.dry_run:
        rows = [
            {
                "campaign": run.spec.name,
                "jobs": len(run.jobs),
                "journal_replays": run.resumed,
                "cache_hits": run.cache_hits,
                "would_evaluate": run.forecast_evaluations,
            }
        ]
        _print_rows(rows, args.csv)
        if not args.csv:
            for job, result in zip(run.jobs, run.results):
                state = "cached" if result is not None else "evaluate"
                print(f"  [{state:8s}] {job.job_id}")
        return 0
    _print_rows(_campaign_summary_rows(run), args.csv)
    if not args.csv and run.report is not None:
        print()
        print(run.report.format_table())
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    root = Path(args.root)
    rows: List[dict] = []
    if root.is_dir():
        for directory in sorted(root.iterdir()):
            if not (directory / campaign_manifest.SPEC_FILENAME).exists():
                continue
            try:
                rows.append(campaign_status(directory))
            except (ValueError, OSError) as error:
                rows.append({"campaign": "?", "directory": str(directory),
                             "jobs": f"error: {error}"})
    if not rows:
        print(f"no campaign directories under {root}", file=sys.stderr)
        return 1
    _print_rows(rows, args.csv)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    try:
        status = campaign_status(Path(args.directory))
    except (FileNotFoundError, ValueError) as error:
        print(error, file=sys.stderr)
        return 1
    _print_rows([status], args.csv)
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    try:
        payload = campaign_manifest.load_report(Path(args.directory))
    except ValueError as error:
        print(f"cannot read the report in {args.directory}: {error}", file=sys.stderr)
        return 1
    if payload is None:
        print(
            f"{args.directory} has no report.json yet; run the campaign first",
            file=sys.stderr,
        )
        return 1
    report = CampaignReport.from_dict(payload)
    if args.csv:
        _print_rows([marginal.to_row() for marginal in report.marginals], True)
    else:
        print(f"campaign {report.campaign}: {report.jobs} jobs, "
              f"{report.steady_solves} batched solves")
        print(report.format_table())
    return 0


def _load_telemetry_summary(path: Path) -> TelemetrySummary:
    """A telemetry snapshot from a trace file, a report.json, or a bare dump.

    Accepts any JSON document that either embeds a ``telemetry`` key (the
    ``--trace`` output and campaign ``report.json`` both do) or *is* a
    snapshot dict (``counters`` / ``gauges`` / ``timers``).
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    telemetry = payload.get("telemetry", payload)
    if not isinstance(telemetry, dict) or not (
        set(telemetry) & {"counters", "gauges", "timers"}
    ):
        raise ValueError(
            f"{path}: no telemetry found (expected a 'telemetry' key or a "
            "counters/gauges/timers snapshot)"
        )
    return TelemetrySummary.from_dict(telemetry)


def cmd_obs_summary(args: argparse.Namespace) -> int:
    try:
        summary = _load_telemetry_summary(Path(args.path))
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(error, file=sys.stderr)
        return 1
    if summary.empty:
        print(f"{args.path}: telemetry snapshot is empty", file=sys.stderr)
        return 0
    _print_rows(summary.to_rows(), args.csv)
    return 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    errors = validate_chrome_trace(Path(args.path))
    if errors:
        for error in errors:
            print(f"{args.path}: {error}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid Chrome trace-event JSON")
    return 0


def _serve_emit(update) -> None:
    """One JSONL record per processed window: cursor, lag, rolling summary."""
    record = {
        "start_epoch": update.start_epoch,
        "window_epochs": update.outcome.num_epochs,
        "lag_s": round(update.lag_s, 6),
        "checkpointed": update.checkpointed,
    }
    # The rolling summary's keys ("windows", "epochs", ...) are cumulative.
    record.update(update.summary)
    print(json.dumps(record), flush=True)


def cmd_serve(args: argparse.Namespace) -> int:
    from .storage import CorruptJournalError
    from .stream import (
        CheckpointRestoreError,
        CheckpointStore,
        StreamingExperiment,
        jsonl_windows,
        scenario_windows,
    )

    if args.name is not None and args.input is not None:
        print("serve takes a scenario NAME or --input FILE, not both",
              file=sys.stderr)
        return 1
    if args.name is None and args.input is None:
        print("serve needs a scenario NAME or --input FILE", file=sys.stderr)
        return 1
    store = CheckpointStore(Path(args.checkpoint)) if args.checkpoint else None
    handle = None
    try:
        if args.name is not None:
            try:
                spec = get_scenario(args.name)
                if args.migration_style is not None:
                    spec = dataclasses.replace(
                        spec, migration_style=args.migration_style
                    )
                if args.migration_units_per_epoch is not None:
                    spec = dataclasses.replace(
                        spec, units_per_epoch=args.migration_units_per_epoch
                    )
                compiled = compile_scenario(spec)
            except ValueError as error:
                print(error, file=sys.stderr)
                return 1
            engine = StreamingExperiment.from_scenario(compiled, checkpoint=store)
            resume = engine.prepare()
            if args.max_epochs is None:
                horizon: Optional[int] = spec.num_epochs
            else:
                # --max-epochs 0 serves the scenario's patterns forever.
                horizon = args.max_epochs or None
            windows = scenario_windows(
                compiled, args.window, max_epochs=horizon, start_epoch=resume
            )
        else:
            chip = get_configuration(args.configuration)
            policy_kwargs = {}
            if args.trigger is not None:
                policy_kwargs["trigger_celsius"] = args.trigger
            try:
                policy = make_policy(
                    args.scheme, chip.topology, period_us=args.period,
                    **policy_kwargs,
                )
            except (TypeError, ValueError):
                print(
                    f"cannot build scheme {args.scheme!r}: threshold-* "
                    "schemes need --trigger CELSIUS, others reject it",
                    file=sys.stderr,
                )
                return 1
            settings = ExperimentSettings(
                num_epochs=max(args.settled, 1),
                mode=args.mode,
                migration_style=args.migration_style or "sudden",
                units_per_epoch=args.migration_units_per_epoch or 2,
            )
            experiment = ThermalExperiment(chip, policy, settings=settings)
            engine = StreamingExperiment(
                experiment, settled_capacity=args.settled, checkpoint=store
            )
            engine.prepare()
            handle = (
                sys.stdin
                if args.input == "-"
                else open(args.input, "r", encoding="utf-8")
            )
            horizon = args.max_epochs or None
            windows = jsonl_windows(handle)
        try:
            with warnings.catch_warnings():
                # An integration that overflows surfaces as the ValueError
                # below, naming the epoch; numpy's floating-point warnings
                # from the thermal solver would only repeat it.
                warnings.filterwarnings(
                    "ignore", category=RuntimeWarning, module=r"repro\.thermal\."
                )
                for update in engine.process(windows, max_epochs=horizon):
                    _serve_emit(update)
        except ValueError as error:
            # Misaligned window, malformed JSONL line or an epoch whose
            # temperature is not finite: one-line error.
            print(error, file=sys.stderr)
            return 1
        if engine.experiment.next_epoch == 0:
            # Nothing served and nothing restored: there is no result.
            source = "stdin" if args.input == "-" else args.input or args.name
            print(f"{source}: no window records to serve", file=sys.stderr)
            return 1
        result = engine.finalize()
        final = {
            "final": True,
            "baseline_peak_c": round(result.baseline_peak_celsius, 4),
            "settled_peak_c": round(result.settled_peak_celsius, 4),
            "peak_reduction_c": round(result.peak_reduction_celsius, 4),
            "settled_mean_c": round(result.settled_mean_celsius, 4),
            "migrations": result.migrations_performed,
            "throughput_penalty": round(result.throughput_penalty, 6),
        }
        print(
            json.dumps({key: unsigned_zero(value) for key, value in final.items()}),
            flush=True,
        )
        return 0
    except (CheckpointRestoreError, CorruptJournalError) as error:
        # The journal cannot resume this stream: one-line error.
        print(error, file=sys.stderr)
        return 1
    finally:
        if handle is not None and handle is not sys.stdin:
            handle.close()


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Hotspot Prevention Through Runtime "
        "Reconfiguration in Network-on-Chip' (DATE 2005).",
    )
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="enable telemetry and write a Chrome-trace-event "
                             "JSON (Perfetto / chrome://tracing) on exit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (errors only)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("chips", help="list the chip configurations")
    sub.set_defaults(func=cmd_chips)

    sub = subparsers.add_parser("figure1", help="regenerate Figure 1")
    sub.add_argument("-C", "--configurations", nargs="*", help="subset of configurations")
    sub.add_argument("--period", type=float, default=109.0, help="migration period in us")
    sub.set_defaults(func=cmd_figure1)

    def add_common(sub_parser, default_scheme="xy-shift"):
        sub_parser.add_argument("-c", "--configuration", default="A", help="chip configuration")
        sub_parser.add_argument("-s", "--scheme", default=default_scheme,
                                help=f"migration scheme ({', '.join(FIGURE1_SCHEMES)}, "
                                     "static, adaptive)")
        sub_parser.add_argument("--period", type=float, default=109.0,
                                help="migration period in us")
        sub_parser.add_argument("--epochs", type=int, default=41, help="number of epochs")

    sub = subparsers.add_parser("experiment", help="run a single experiment")
    add_common(sub)
    sub.add_argument("--mode", choices=("steady", "transient"), default="steady")
    sub.add_argument("--no-migration-energy", action="store_true",
                     help="ignore migration energy in the power maps")
    sub.add_argument("--migration-style", choices=("sudden", "fluid", "batched"),
                     default="sudden",
                     help="how migrations unfold: sudden (the paper's atomic "
                          "swap), fluid (a few permutation cycles per epoch) "
                          "or batched (link-disjoint groups, one per epoch)")
    sub.add_argument("--migration-units-per-epoch", type=int, default=2,
                     metavar="N",
                     help="fluid style: PEs per epoch (whole permutation "
                          "cycles; a longer cycle still moves in one epoch)")
    sub.add_argument("--grid", type=int, default=None, metavar="N",
                     help="mesh each unit into NxN thermal cells and read "
                          "its hottest one (default: the block model, N=1)")
    sub.add_argument("--feedback-stride", type=int, default=1, metavar="K",
                     help="refresh feedback temperatures every K epochs with "
                          "one batched solve (threshold/adaptive schemes; "
                          "K=1 matches the per-epoch trajectory exactly)")
    sub.add_argument("--feedback-predictor", choices=("hold", "previous"),
                     default="hold",
                     help="what feedback policies see between refreshes: "
                          "hold the last solved temperatures, or reuse the "
                          "previous batch row-for-row")
    sub.set_defaults(func=cmd_experiment)

    sub = subparsers.add_parser("sweep", help="migration period sweep")
    add_common(sub)
    sub.add_argument("--periods", type=float, nargs="*", help="periods in us")
    sub.add_argument("--mode", choices=("steady", "transient"), default="steady")
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser("ablation", help="migration-energy ablation")
    add_common(sub, default_scheme="rotation")
    sub.set_defaults(func=cmd_ablation)

    sub = subparsers.add_parser("dtm", help="compare against stop-go / DVFS throttling")
    add_common(sub)
    sub.set_defaults(func=cmd_dtm)

    sub = subparsers.add_parser(
        "scenario", help="declarative time-varying workload scenarios"
    )
    scenario_subparsers = sub.add_subparsers(dest="scenario_command", required=True)

    scen = scenario_subparsers.add_parser("list", help="list the named scenarios")
    scen.set_defaults(func=cmd_scenario_list)

    scen = scenario_subparsers.add_parser("run", help="run one scenario")
    scen.add_argument("name", nargs="?", help="named scenario (see `scenario list`)")
    scen.add_argument("--spec", help="JSON scenario spec file instead of a name")
    scen.add_argument("--show-spec", action="store_true",
                      help="print the scenario's JSON spec instead of running it")
    scen.add_argument("--feedback-stride", type=int, default=None, metavar="K",
                      help="override the spec's feedback refresh stride")
    scen.add_argument("--feedback-predictor", choices=("hold", "previous"),
                      default=None,
                      help="override the spec's between-refresh predictor")
    scen.add_argument("--migration-style",
                      choices=("sudden", "fluid", "batched"), default=None,
                      help="override the spec's migration style")
    scen.add_argument("--migration-units-per-epoch", type=int, default=None,
                      metavar="N",
                      help="override the spec's fluid budget: PEs per epoch "
                           "(whole permutation cycles; a longer cycle still "
                           "moves in one epoch)")
    scen.set_defaults(func=cmd_scenario_run)

    scen = scenario_subparsers.add_parser(
        "compare", help="run a scenario suite and compare outcomes"
    )
    scen.add_argument("names", nargs="*",
                      help="scenario names (default: the whole registry)")
    scen.add_argument("--feedback-stride", type=int, default=None, metavar="K",
                      help="override every spec's feedback refresh stride")
    scen.add_argument("--feedback-predictor", choices=("hold", "previous"),
                      default=None,
                      help="override every spec's between-refresh predictor")
    scen.set_defaults(func=cmd_scenario_compare)

    sub = subparsers.add_parser(
        "campaign", help="cached, resumable fleet-scale sweep campaigns"
    )
    campaign_subparsers = sub.add_subparsers(dest="campaign_command", required=True)

    camp = campaign_subparsers.add_parser(
        "run", help="execute (or resume) a campaign from a JSON spec"
    )
    camp.add_argument("-S", "--spec", required=True, help="campaign spec JSON file")
    camp.add_argument("-d", "--directory", required=True,
                      help="campaign directory (journal, cache, report)")
    camp.add_argument("--cache", default=None,
                      help="shared cache root (default: <directory>/cache)")
    camp.add_argument("--n-jobs", type=int, default=1,
                      help="worker processes (-1 = all CPUs; default 1)")
    camp.add_argument("--dry-run", action="store_true",
                      help="print the expansion and cache-hit forecast, run nothing")
    camp.set_defaults(func=cmd_campaign_run)

    camp = campaign_subparsers.add_parser(
        "list", help="summarise every campaign directory under a root"
    )
    camp.add_argument("--root", default="campaigns",
                      help="directory holding campaign directories (default: campaigns)")
    camp.set_defaults(func=cmd_campaign_list)

    camp = campaign_subparsers.add_parser(
        "status", help="completion state of one campaign directory"
    )
    camp.add_argument("-d", "--directory", required=True, help="campaign directory")
    camp.set_defaults(func=cmd_campaign_status)

    camp = campaign_subparsers.add_parser(
        "report", help="per-axis marginal report of a completed campaign"
    )
    camp.add_argument("-d", "--directory", required=True, help="campaign directory")
    camp.set_defaults(func=cmd_campaign_report)

    sub = subparsers.add_parser(
        "serve",
        help="long-lived streaming loop over epoch windows (scenario or JSONL)",
    )
    sub.add_argument("name", nargs="?",
                     help="named scenario to stream (see `scenario list`)")
    sub.add_argument("--input", metavar="FILE", default=None,
                     help="JSONL epoch-window file instead of a scenario "
                          "('-' reads stdin)")
    sub.add_argument("--window", type=int, default=8, metavar="N",
                     help="epochs per window for a scenario stream (default 8)")
    sub.add_argument("--max-epochs", type=int, default=None, metavar="N",
                     help="stop after N epochs (default: the scenario's "
                          "horizon; 0 streams forever)")
    sub.add_argument("--checkpoint", metavar="DIR", default=None,
                     help="durable checkpoint directory: every window "
                          "publishes an atomic snapshot and a restart "
                          "resumes exactly where it left off")
    sub.add_argument("-c", "--configuration", default="A",
                     help="chip configuration for --input streams")
    sub.add_argument("-s", "--scheme", default="xy-shift",
                     help="migration scheme for --input streams")
    sub.add_argument("--period", type=float, default=109.0,
                     help="migration period in us for --input streams")
    sub.add_argument("--mode", choices=("steady", "transient"), default="steady",
                     help="thermal mode for --input streams")
    sub.add_argument("--settled", type=int, default=16, metavar="N",
                     help="settled-regime window (epochs) for --input streams")
    sub.add_argument("--trigger", type=float, default=None, metavar="CELSIUS",
                     help="trigger temperature for threshold-* schemes "
                          "(--input streams)")
    sub.add_argument("--migration-style",
                     choices=("sudden", "fluid", "batched"), default=None,
                     help="stage migrations over epochs (overrides a "
                          "scenario's style; default sudden for --input)")
    sub.add_argument("--migration-units-per-epoch", type=int, default=None,
                     metavar="N",
                     help="fluid style: PEs per epoch (whole permutation "
                          "cycles; a longer cycle still moves in one epoch)")
    sub.set_defaults(func=cmd_serve)

    sub = subparsers.add_parser(
        "obs", help="inspect telemetry snapshots and trace files"
    )
    obs_subparsers = sub.add_subparsers(dest="obs_command", required=True)

    obs = obs_subparsers.add_parser(
        "summary", help="counter/gauge/timer table from a trace or report file"
    )
    obs.add_argument("path", help="trace JSON, campaign report.json, or snapshot dump")
    obs.set_defaults(func=cmd_obs_summary)

    obs = obs_subparsers.add_parser(
        "validate", help="schema-check a Chrome trace-event JSON file"
    )
    obs.add_argument("path", help="trace JSON file to validate")
    obs.set_defaults(func=cmd_obs_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity=args.verbose - args.quiet)
    if args.trace is None:
        return args.func(args)
    obs_enable()
    obs_start_tracing()
    try:
        return args.func(args)
    finally:
        snapshot = obs_registry().snapshot()
        count = export_chrome_trace(
            args.trace,
            telemetry=None if snapshot.empty else snapshot.to_dict(),
        )
        print(f"wrote {count} span(s) to {args.trace}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
