"""The declarative scenario specification.

A :class:`ScenarioSpec` is everything needed to reproduce one time-varying
experiment: which chip, which reconfiguration policy, how long, and which
patterns modulate the workload, the ambient conditions and the channel over
the horizon.  Specs are plain frozen dataclasses that round-trip through JSON
(:meth:`ScenarioSpec.to_json` / :meth:`ScenarioSpec.from_json`), so scenario
suites can live in version-controlled files and be fanned out across worker
processes untouched.

The four pattern channels:

``load``
    Multiplies the controller's per-epoch power rows (temporal patterns apply
    chip-wide; spatial patterns modulate individual PEs).  Values must be
    non-negative.
``ambient_celsius``
    Per-epoch **offsets** (deg C) of the ambient temperature relative to the
    package nominal.  Exact in both modes: in steady mode a uniform ambient
    shift moves every steady temperature by the same amount (the conduction
    block conserves energy), so the offsets are added after the one batched
    solve; in transient mode the ambient forcing is affine, so the offsets
    ride the single ``transient_sequence`` call as a per-interval boundary
    term and the RC network integrates the true time-varying ambient.
``snr_db``
    Per-epoch channel quality (absolute Eb/N0 in dB) seen by the LDPC
    workload; drives the decoder-effort estimate in the scenario report.
``period``
    Per-epoch **multipliers** of the nominal migration period
    ``period_us`` — a time-varying reconfiguration cadence (e.g. migrate
    less often at night).  Wrap the pattern in a
    :class:`~repro.scenarios.patterns.WallClockPattern` to author the
    schedule on a wall-clock seconds axis; the compiler binds the epoch
    duration from ``period_us``.  Values must be positive.

A structured fifth channel prices the on-chip network:

``noc``
    A :class:`NocChannel` — which traffic pattern the workload offers the
    NoC (uniform, hotspot, transpose, neighbor, ...) and how the per-node
    injection rate moves over the horizon (either its own temporal
    :class:`~repro.scenarios.patterns.Pattern` or, by default, tracking the
    ``load`` channel's epoch means).  Priced per epoch by the cached
    closed-form model in :mod:`repro.noc.analytic` at zero extra solves.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional

from ..chips.configurations import configuration_names
from ..core.policy import POLICY_SCHEMES
from ..migration.plan import MIGRATION_STYLES
from .patterns import Pattern, check_field_types, pattern_from_dict

#: Channels a spec may bind a pattern to, with whether spatial patterns are
#: permitted there (ambient, SNR and the period schedule are chip-global
#: scalars).
PATTERN_CHANNELS: Dict[str, bool] = {
    "load": True,
    "ambient_celsius": False,
    "snr_db": False,
    "period": False,
}


def _check_types(spec) -> None:
    """Raise ``ValueError`` for a field of the wrong JSON type (see
    :func:`repro.scenarios.patterns.check_field_types`)."""
    check_field_types(type(spec), vars(spec))


def json_params(cls, payload, what: str) -> Dict[str, object]:
    """``payload`` as keyword arguments of the dataclass ``cls``.

    Raises ``ValueError`` for a payload that is not a JSON object, a field
    ``cls`` does not have, or a required field it lacks; ``what`` names the
    object in the message.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a {what} must be a JSON object, got {payload!r}")
    known = fields(cls)
    unknown = set(payload) - {f.name for f in known}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [
        f.name
        for f in known
        if f.default is MISSING and f.default_factory is MISSING and f.name not in payload
    ]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    return dict(payload)


#: Traffic patterns the analytic NoC model understands.
NOC_TRAFFIC_PATTERNS = ("uniform", "hotspot", "transpose", "bit-complement", "neighbor")


@dataclass(frozen=True)
class NocChannel:
    """The scenario's offered load on the on-chip network.

    ``traffic`` is the spatial shape (who talks to whom), ``injection_rate``
    the nominal per-node flit-injection probability per cycle, and
    ``rate_pattern`` an optional temporal pattern *multiplying* that nominal
    rate per epoch.  Without a rate pattern the NoC tracks the scenario's
    ``load`` channel: each epoch's mean load modulation scales the base
    rate, so compute bursts congest the network too.
    """

    traffic: str = "uniform"
    injection_rate: float = 0.05
    rate_pattern: Optional[Pattern] = None
    packet_size_flits: int = 4
    routing: str = "xy"
    #: Extra traffic-pattern arguments (e.g. ``{"hotspots": [[1, 1]]}``);
    #: must be JSON-serialisable.
    traffic_kwargs: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.traffic not in NOC_TRAFFIC_PATTERNS:
            raise ValueError(
                f"unknown NoC traffic pattern {self.traffic!r}; "
                f"choose from {', '.join(NOC_TRAFFIC_PATTERNS)}"
            )
        if self.injection_rate <= 0:
            raise ValueError("injection_rate must be positive")
        if self.packet_size_flits < 1:
            raise ValueError("packets need at least one flit")
        if self.rate_pattern is not None:
            if not isinstance(self.rate_pattern, Pattern):
                raise TypeError(
                    f"rate_pattern must be a Pattern, got {type(self.rate_pattern)}"
                )
            if self.rate_pattern.is_spatial:
                raise ValueError(
                    "the NoC injection rate is chip-global; spatial patterns "
                    "are only valid for 'load'"
                )
        if self.traffic_kwargs is not None and not isinstance(self.traffic_kwargs, dict):
            raise ValueError("traffic_kwargs must be a dict of keyword arguments")

    def to_dict(self) -> Dict[str, object]:
        return {
            "traffic": self.traffic,
            "injection_rate": self.injection_rate,
            "rate_pattern": (
                self.rate_pattern.to_dict() if self.rate_pattern is not None else None
            ),
            "packet_size_flits": self.packet_size_flits,
            "routing": self.routing,
            "traffic_kwargs": (
                dict(self.traffic_kwargs) if self.traffic_kwargs is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "NocChannel":
        params = json_params(cls, payload, "NoC channel")
        pattern = params.get("rate_pattern")
        if pattern is not None:
            params["rate_pattern"] = pattern_from_dict(pattern)  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario over a fixed horizon of migration epochs."""

    name: str
    configuration: str
    scheme: str = "xy-shift"
    period_us: float = 109.0
    mode: str = "steady"
    num_epochs: int = 41
    settle_epochs: Optional[int] = None
    #: Identity label, "euler" or "spectral": part of the spec's digest and
    #: of campaign job ids, it selects nothing (every transient takes the
    #: one closed-form implicit-Euler evaluation).
    thermal_method: str = "euler"
    transient_steps_per_epoch: int = 8
    include_migration_energy: bool = True
    #: Extra keyword arguments for the policy factory (e.g.
    #: ``{"trigger_celsius": 90.0}`` for a ``threshold-*`` scheme); must be
    #: JSON-serialisable.
    policy_params: Optional[Dict[str, object]] = None
    #: Feedback refresh stride *k* for thermal-feedback policies: one
    #: multi-RHS batch per ``k`` epochs (``ceil(num_epochs/k)`` feedback
    #: solves); ignored by feedback-free policies.
    feedback_stride: int = 1
    #: Zero-solve stand-in between feedback refreshes: "hold" or "previous".
    feedback_predictor: str = "hold"
    #: How migrations unfold over epochs: ``"sudden"`` (the paper's atomic
    #: swap), ``"fluid"`` (a few permutation cycles per epoch) or
    #: ``"batched"`` (link-disjoint phase groups, one per epoch).
    migration_style: str = "sudden"
    #: Fluid-style budget: PEs per epoch (whole permutation cycles; a longer
    #: cycle still moves in one epoch).
    units_per_epoch: int = 2
    load: Optional[Pattern] = None
    ambient_celsius: Optional[Pattern] = None
    snr_db: Optional[Pattern] = None
    #: Per-epoch multipliers of ``period_us`` (the migration-period
    #: schedule channel).
    period: Optional[Pattern] = None
    #: Offered NoC load (traffic pattern + injection-rate schedule), priced
    #: per epoch by the cached analytic wormhole model.
    noc: Optional[NocChannel] = None
    description: str = ""

    def __post_init__(self) -> None:
        if (
            not isinstance(self.configuration, str)
            or self.configuration.upper() not in configuration_names()
        ):
            raise ValueError(
                f"unknown configuration {self.configuration!r}; choose from "
                f"{', '.join(configuration_names())}"
            )
        if not isinstance(self.scheme, str) or self.scheme not in POLICY_SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(POLICY_SCHEMES)}"
            )
        _check_types(self)
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.mode not in ("steady", "transient"):
            raise ValueError("mode must be 'steady' or 'transient'")
        if self.num_epochs < 1:
            raise ValueError("at least one epoch is required")
        if self.period_us <= 0:
            raise ValueError("migration period must be positive")
        if self.thermal_method not in ("euler", "spectral"):
            raise ValueError("thermal_method must be 'euler' or 'spectral'")
        if self.feedback_stride < 1:
            raise ValueError("feedback_stride must be at least 1")
        if self.feedback_predictor not in ("hold", "previous"):
            raise ValueError("feedback_predictor must be 'hold' or 'previous'")
        if self.policy_params is not None:
            if not isinstance(self.policy_params, dict):
                raise ValueError("policy_params must be a dict of keyword arguments")
            if "period_us" in self.policy_params:
                raise ValueError(
                    "policy_params cannot set period_us: the spec's period_us "
                    "field is the policy's period"
                )
        if self.migration_style not in MIGRATION_STYLES:
            raise ValueError(
                f"unknown migration_style {self.migration_style!r}; "
                f"choose from {', '.join(MIGRATION_STYLES)}"
            )
        if self.units_per_epoch < 1:
            raise ValueError("units_per_epoch must be at least 1")
        for channel, allow_spatial in PATTERN_CHANNELS.items():
            pattern = getattr(self, channel)
            if pattern is None:
                continue
            if not isinstance(pattern, Pattern):
                raise TypeError(f"{channel} must be a Pattern, got {type(pattern)}")
            if pattern.is_spatial and not allow_spatial:
                raise ValueError(
                    f"{channel} is a chip-global channel; spatial patterns "
                    "are only valid for 'load'"
                )
        if self.noc is not None and not isinstance(self.noc, NocChannel):
            raise TypeError(f"noc must be a NocChannel, got {type(self.noc)}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "configuration": self.configuration,
            "scheme": self.scheme,
            "period_us": self.period_us,
            "mode": self.mode,
            "num_epochs": self.num_epochs,
            "settle_epochs": self.settle_epochs,
            "thermal_method": self.thermal_method,
            "transient_steps_per_epoch": self.transient_steps_per_epoch,
            "include_migration_energy": self.include_migration_energy,
            "policy_params": (
                dict(self.policy_params) if self.policy_params is not None else None
            ),
            "feedback_stride": self.feedback_stride,
            "feedback_predictor": self.feedback_predictor,
            "migration_style": self.migration_style,
            "units_per_epoch": self.units_per_epoch,
            "description": self.description,
        }
        for channel in PATTERN_CHANNELS:
            pattern = getattr(self, channel)
            payload[channel] = pattern.to_dict() if pattern is not None else None
        payload["noc"] = self.noc.to_dict() if self.noc is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        params = json_params(cls, payload, "scenario")
        for channel in PATTERN_CHANNELS:
            value = params.get(channel)
            if value is not None:
                params[channel] = pattern_from_dict(value)  # type: ignore[arg-type]
        noc = params.get("noc")
        if noc is not None and not isinstance(noc, NocChannel):
            params["noc"] = NocChannel.from_dict(noc)  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """The one canonical byte representation of this spec.

        Sorted keys, no whitespace, shortest-repr floats: the same spec
        produces the same string in every process on every platform, so it
        can key content-addressed caches (see :mod:`repro.campaign.cache`).
        JSON round-tripping is lossless for the payload (floats keep their
        exact bits via ``repr``), hence ``from_json(canonical_json())``
        equals ``self``.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
