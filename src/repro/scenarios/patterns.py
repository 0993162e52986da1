"""Composable per-epoch modulators — the scenario pattern catalog.

A :class:`Pattern` maps the epoch axis of an experiment to a modulation
series, evaluated **vectorized over all epochs at once**:

* *temporal* patterns (constant, step, ramp, burst, diurnal, duty-cycle)
  return a ``(num_epochs,)`` series and describe load multipliers, ambient
  offsets or SNR trajectories;
* *spatial* patterns (hotspot, fault) return a ``(num_epochs, num_units)``
  matrix in the topology's row-major coordinate order and describe per-PE
  effects (a localized hotspot multiplier, a PE whose load collapses).

Every built-in pattern is a pure function of the **absolute** epoch index,
which is what makes patterns double as stream *cursors*: in addition to the
whole-horizon :meth:`Pattern.evaluate`, :meth:`Pattern.evaluate_window`
evaluates any half-open window ``[start_epoch, end_epoch)`` lazily, so a
registry scenario can generate an unbounded epoch stream window by window
(see :mod:`repro.stream`) without ever materialising a horizon-sized array.
The one horizon-dependent construct — :class:`RampPattern` with
``end_epoch=None``, which ramps over "the whole horizon" — refuses windowed
evaluation and asks for an explicit ``end_epoch`` instead.

Patterns compose with ``+`` and ``*`` (a temporal series broadcasts across
units when combined with a spatial one), so ``DiurnalPattern(...) *
HotspotPattern(...)`` is a hotspot that breathes with the day cycle.  Every
pattern is a frozen dataclass that round-trips through
:meth:`Pattern.to_dict` / :func:`pattern_from_dict`, which is what makes
:class:`repro.scenarios.spec.ScenarioSpec` JSON-serializable.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Type

import numpy as np

from ..noc.topology import Coordinate, MeshTopology

#: Registry of concrete pattern classes, keyed by their ``kind`` tag
#: (populated automatically by ``Pattern.__init_subclass__``).
_PATTERN_KINDS: Dict[str, Type["Pattern"]] = {}


class Pattern(ABC):
    """One modulation series over the epoch axis of a scenario."""

    #: Serialization tag; unique per concrete class.
    kind: ClassVar[str] = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        tag = cls.__dict__.get("kind")
        if tag is not None:
            if tag in _PATTERN_KINDS:
                raise TypeError(f"duplicate pattern kind {tag!r}")
            _PATTERN_KINDS[tag] = cls

    # ------------------------------------------------------------------
    @abstractmethod
    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        """Modulation values at the given **absolute** epoch indices.

        ``epochs`` is a 1-D integer array of absolute epoch indices (not
        necessarily starting at zero); ``horizon`` is the total epoch count
        when the caller knows it (:meth:`evaluate`) and ``None`` for windowed
        evaluation.  Temporal patterns return ``(len(epochs),)``; spatial
        patterns return ``(len(epochs), topology.num_nodes)``.
        """

    def evaluate(
        self, num_epochs: int, topology: Optional[MeshTopology] = None
    ) -> np.ndarray:
        """Modulation values over ``num_epochs`` epochs.

        Temporal patterns return shape ``(num_epochs,)``; spatial patterns
        return ``(num_epochs, topology.num_nodes)`` and require ``topology``.
        """
        return self._values(np.arange(num_epochs), topology, num_epochs)

    def evaluate_window(
        self,
        start_epoch: int,
        end_epoch: int,
        topology: Optional[MeshTopology] = None,
    ) -> np.ndarray:
        """Modulation values over the half-open window ``[start_epoch, end_epoch)``.

        The streaming cursor: identical to the corresponding slice of
        :meth:`evaluate` for every pattern whose values do not depend on the
        total horizon, without materialising the prefix.  Patterns that *do*
        need the horizon (a :class:`RampPattern` with ``end_epoch=None``)
        raise ``ValueError`` here.
        """
        if start_epoch < 0:
            raise ValueError("window start_epoch cannot be negative")
        if end_epoch <= start_epoch:
            raise ValueError("window end_epoch must be after start_epoch")
        return self._values(np.arange(start_epoch, end_epoch), topology, None)

    @property
    def is_spatial(self) -> bool:
        """Whether :meth:`evaluate` produces a per-unit matrix."""
        return False

    def bind_time(self, epoch_duration_s: float) -> "Pattern":
        """Bind any wall-clock axes to a concrete epoch duration.

        Compiling a scenario calls this on every channel pattern with the
        scenario's migration period in seconds, so a
        :class:`WallClockPattern` authored against a seconds axis resolves
        to epochs without the spec hard-coding the period.  Patterns with
        no wall-clock axis (everything else) return themselves.
        """
        return self

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def __add__(self, other: "Pattern") -> "SumPattern":
        if not isinstance(other, Pattern):
            return NotImplemented
        return SumPattern(terms=_flatten(SumPattern, self) + _flatten(SumPattern, other))

    def __mul__(self, other: "Pattern") -> "ProductPattern":
        if not isinstance(other, Pattern):
            return NotImplemented
        return ProductPattern(
            factors=_flatten(ProductPattern, self) + _flatten(ProductPattern, other)
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (``kind`` plus the parameters)."""
        payload: Dict[str, object] = {"kind": self.kind}
        payload.update(asdict(self))  # type: ignore[call-overload]
        return payload

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "Pattern":
        """Rebuild from :meth:`to_dict` parameters (sans ``kind``).

        Subclasses with non-primitive fields (coordinates, nested patterns)
        override this to coerce JSON lists back to tuples.
        """
        return cls(**params)  # type: ignore[call-arg]


def _is_count(value) -> bool:
    """An integer under the JSON rule: booleans and floats are not counts."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _as_count(value, name: str) -> int:
    """An integer field: JSON floats and booleans are rejected, not truncated."""
    if not _is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_coordinate(value) -> bool:
    """A mesh coordinate: a list (or tuple) of two integers."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_count(part) for part in value)
    )


def _is_pattern(value) -> bool:
    """A pattern object: its JSON dict, or a built pattern."""
    return isinstance(value, (dict, Pattern))


#: The string and structural field annotations: what each takes, and the
#: check.
_STRUCTURES = {
    "str": ("a string", lambda value: isinstance(value, str)),
    "Pattern": ("a pattern object", _is_pattern),
    "Tuple[Pattern, ...]": (
        "a list of pattern objects",
        lambda value: isinstance(value, (list, tuple)) and all(map(_is_pattern, value)),
    ),
    "Coordinate": ("a list of two integers", _is_coordinate),
    "Tuple[Coordinate, ...]": (
        "a list of [x, y] integer pairs",
        lambda value: isinstance(value, (list, tuple)) and all(map(_is_coordinate, value)),
    ),
}


@lru_cache(maxsize=None)
def _typed_fields(cls) -> Tuple[Tuple[str, str], ...]:
    """``(name, annotation)`` of a dataclass's number, flag, string and
    structural fields."""
    kinds = ("int", "Optional[int]", "float", "Optional[float]", "bool", *_STRUCTURES)
    return tuple((f.name, f.type) for f in fields(cls) if f.type in kinds)


def check_field_types(cls, values: Mapping[str, object]) -> None:
    """Raise ``ValueError`` for a value of the wrong JSON type for its field
    of the dataclass ``cls`` (fields ``values`` lacks are skipped): an
    ``int`` field (or a set ``Optional[int]`` one) takes :func:`_as_count`,
    the integer rule windows apply too; a ``float`` one (or a set
    ``Optional[float]``) rejects strings and booleans, a ``bool`` one takes
    only a boolean and a ``str`` one only a string.  A nested pattern field
    takes a pattern object, a ``Tuple[Pattern, ...]`` one a list of them; a
    coordinate takes a list of two integers (each under the integer rule), a
    ``Tuple[Coordinate, ...]`` a list of them."""
    for name, kind in _typed_fields(cls):
        if name not in values:
            continue
        value = values[name]
        if value is None and kind.startswith("Optional["):
            continue
        if kind in ("int", "Optional[int]"):
            _as_count(value, name)
        elif kind in ("float", "Optional[float]"):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
        else:
            what, accepts = _STRUCTURES[kind]
            if not accepts(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")


def pattern_from_dict(payload: Dict[str, object]) -> Pattern:
    """Inverse of :meth:`Pattern.to_dict`.

    The fields are type-checked before the pattern is built, so a string,
    boolean or list where a number goes (or a float where an integer goes),
    a nested pattern that is not a pattern object or a coordinate that is
    not two integers is a ``ValueError`` naming the pattern kind and the
    field.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"pattern payload must be a dict with a 'kind': {payload!r}")
    params = dict(payload)
    kind = params.pop("kind")
    cls = _PATTERN_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(
            f"unknown pattern kind {kind!r}; known kinds: {sorted(_PATTERN_KINDS)}"
        )
    try:
        check_field_types(cls, params)
    except ValueError as error:
        raise ValueError(f"{kind} pattern: {error}") from None
    return cls._from_params(params)


def _flatten(combiner: type, pattern: Pattern) -> Tuple[Pattern, ...]:
    """Merge nested combinators of the same type into one flat term list."""
    if isinstance(pattern, combiner):
        return pattern.terms if combiner is SumPattern else pattern.factors
    return (pattern,)


def _as_columns(values: np.ndarray) -> np.ndarray:
    """Normalize an evaluate() result to 2-D for broadcasting."""
    return values[:, np.newaxis] if values.ndim == 1 else values


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SumPattern(Pattern):
    """Pointwise sum of component patterns (e.g. baseline + drift)."""

    terms: Tuple[Pattern, ...]
    kind: ClassVar[str] = "sum"

    def __post_init__(self) -> None:
        if len(self.terms) < 1:
            raise ValueError("a sum needs at least one term")

    @property
    def is_spatial(self) -> bool:
        return any(term.is_spatial for term in self.terms)

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        parts = [
            _as_columns(term._values(epochs, topology, horizon)) for term in self.terms
        ]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total if self.is_spatial else total[:, 0]

    def bind_time(self, epoch_duration_s: float) -> "Pattern":
        bound = tuple(term.bind_time(epoch_duration_s) for term in self.terms)
        if all(new is old for new, old in zip(bound, self.terms)):
            return self
        return SumPattern(terms=bound)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "terms": [term.to_dict() for term in self.terms]}

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "SumPattern":
        return cls(terms=tuple(pattern_from_dict(term) for term in params["terms"]))


@dataclass(frozen=True)
class ProductPattern(Pattern):
    """Pointwise product of component patterns (e.g. diurnal x hotspot)."""

    factors: Tuple[Pattern, ...]
    kind: ClassVar[str] = "product"

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise ValueError("a product needs at least one factor")

    @property
    def is_spatial(self) -> bool:
        return any(factor.is_spatial for factor in self.factors)

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        parts = [
            _as_columns(factor._values(epochs, topology, horizon))
            for factor in self.factors
        ]
        total = parts[0]
        for part in parts[1:]:
            total = total * part
        return total if self.is_spatial else total[:, 0]

    def bind_time(self, epoch_duration_s: float) -> "Pattern":
        bound = tuple(
            factor.bind_time(epoch_duration_s) for factor in self.factors
        )
        if all(new is old for new, old in zip(bound, self.factors)):
            return self
        return ProductPattern(factors=bound)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "factors": [factor.to_dict() for factor in self.factors],
        }

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "ProductPattern":
        return cls(
            factors=tuple(pattern_from_dict(factor) for factor in params["factors"])
        )


# ----------------------------------------------------------------------
# Temporal patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantPattern(Pattern):
    """The same value at every epoch (the degenerate scenario)."""

    value: float = 1.0
    kind: ClassVar[str] = "constant"

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        return np.full(epochs.shape, float(self.value))


@dataclass(frozen=True)
class StepPattern(Pattern):
    """``before`` until ``step_epoch``, ``after`` from then on (a load shock)."""

    before: float
    after: float
    step_epoch: int
    kind: ClassVar[str] = "step"

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        return np.where(epochs < self.step_epoch, float(self.before), float(self.after))


@dataclass(frozen=True)
class RampPattern(Pattern):
    """Linear interpolation from ``start`` to ``end`` over an epoch window.

    The value is held at ``start`` before the window and at ``end`` after it;
    ``end_epoch`` of ``None`` ramps over the whole horizon.
    """

    start: float
    end: float
    start_epoch: int = 0
    end_epoch: Optional[int] = None
    kind: ClassVar[str] = "ramp"

    def __post_init__(self) -> None:
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ValueError("ramp end_epoch must be after start_epoch")

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        # The defaulted window ramps over the whole horizon; when the horizon
        # ends at or before start_epoch the window degenerates to a one-epoch
        # ramp (hold ``start`` through start_epoch, ``end`` after) rather
        # than dividing by zero or leaking the end value before the start.
        end_epoch = self.end_epoch
        if end_epoch is None:
            if horizon is None:
                raise ValueError(
                    "RampPattern with end_epoch=None ramps over the whole "
                    "horizon and cannot be evaluated over a window; give the "
                    "ramp an explicit end_epoch for streaming use"
                )
            end_epoch = max(horizon - 1, self.start_epoch + 1)
        values = np.asarray(epochs, dtype=float)
        progress = np.clip(
            (values - self.start_epoch) / (end_epoch - self.start_epoch), 0.0, 1.0
        )
        return float(self.start) + (float(self.end) - float(self.start)) * progress


@dataclass(frozen=True)
class BurstPattern(Pattern):
    """``peak`` for ``length`` epochs starting at ``start_epoch``, else ``base``.

    With ``every`` set, the burst recurs with that period (Megaphone's
    "Sudden"/"Batched" load patterns): epochs where
    ``(epoch - start_epoch) mod every < length`` are bursting.
    """

    base: float
    peak: float
    start_epoch: int
    length: int
    every: Optional[int] = None
    kind: ClassVar[str] = "burst"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("burst length must be at least one epoch")
        if self.every is not None and self.every < self.length:
            raise ValueError("burst recurrence must be at least the burst length")

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        offset = epochs - self.start_epoch
        if self.every is None:
            bursting = (offset >= 0) & (offset < self.length)
        else:
            bursting = (offset >= 0) & (offset % self.every < self.length)
        return np.where(bursting, float(self.peak), float(self.base))


@dataclass(frozen=True)
class DiurnalPattern(Pattern):
    """Sinusoidal modulation: ``mean + amplitude * sin(2 pi (e - phase)/period)``.

    The classic traffic shape of a service facing human users (Megaphone's
    "Fluid" pattern); one ``period_epochs`` is a full day.
    """

    mean: float
    amplitude: float
    period_epochs: float
    phase_epochs: float = 0.0
    kind: ClassVar[str] = "diurnal"

    def __post_init__(self) -> None:
        if self.period_epochs <= 0:
            raise ValueError("diurnal period must be positive")

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        values = np.asarray(epochs, dtype=float)
        phase = 2.0 * np.pi * (values - self.phase_epochs) / self.period_epochs
        return float(self.mean) + float(self.amplitude) * np.sin(phase)


@dataclass(frozen=True)
class DutyCyclePattern(Pattern):
    """Alternate ``on_value`` for ``on_epochs`` and ``off_value`` for ``off_epochs``."""

    on_value: float
    off_value: float
    on_epochs: int
    off_epochs: int
    start_epoch: int = 0
    kind: ClassVar[str] = "duty-cycle"

    def __post_init__(self) -> None:
        if self.on_epochs < 1 or self.off_epochs < 1:
            raise ValueError("duty-cycle phases must last at least one epoch")

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        cycle = self.on_epochs + self.off_epochs
        phase = (epochs - self.start_epoch) % cycle
        # Before the cycling starts the chip runs normally (on), matching
        # BurstPattern's treatment of its start epoch.
        on = (epochs < self.start_epoch) | (phase < self.on_epochs)
        return np.where(on, float(self.on_value), float(self.off_value))


@dataclass(frozen=True)
class WallClockPattern(Pattern):
    """Evaluate ``inner`` on a wall-clock seconds axis instead of epochs.

    The inner pattern's epoch axis is reinterpreted as ticks of
    ``inner_step_s`` seconds of wall-clock time: epoch ``e`` samples the
    inner pattern at tick ``floor(e * epoch_duration_s / inner_step_s)``.
    A spec normally leaves ``epoch_duration_s`` unset (``None``) and the
    scenario compiler binds it to the migration period via
    :meth:`Pattern.bind_time`, so one wall-clock schedule (say a diurnal
    day measured in seconds) stays correct under any period sweep instead
    of silently stretching with the epoch length.
    """

    inner: Pattern
    inner_step_s: float = 1.0
    epoch_duration_s: Optional[float] = None
    kind: ClassVar[str] = "wall-clock"

    def __post_init__(self) -> None:
        if self.inner_step_s <= 0:
            raise ValueError("wall-clock inner_step_s must be positive")
        if self.epoch_duration_s is not None and self.epoch_duration_s <= 0:
            raise ValueError("wall-clock epoch_duration_s must be positive")

    @property
    def is_spatial(self) -> bool:
        return self.inner.is_spatial

    def bind_time(self, epoch_duration_s: float) -> "Pattern":
        # An explicit spec-level binding wins over the compiler's.
        if self.epoch_duration_s is not None:
            return self
        if epoch_duration_s <= 0:
            raise ValueError("epoch_duration_s must be positive")
        return WallClockPattern(
            inner=self.inner,
            inner_step_s=self.inner_step_s,
            epoch_duration_s=float(epoch_duration_s),
        )

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        if self.epoch_duration_s is None:
            raise ValueError(
                "WallClockPattern has no epoch_duration_s binding; compile "
                "it through a ScenarioSpec (bind_time) or set it explicitly"
            )
        ticks = np.floor(
            np.asarray(epochs, dtype=float)
            * (self.epoch_duration_s / self.inner_step_s)
        ).astype(np.int64)
        # The inner horizon is unknowable on a rescaled axis: pass None, so
        # horizon-dependent inners (open-ended ramps) ask for explicit ends.
        return self.inner._values(ticks, topology, None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "inner": self.inner.to_dict(),
            "inner_step_s": self.inner_step_s,
            "epoch_duration_s": self.epoch_duration_s,
        }

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "WallClockPattern":
        params = dict(params)
        params["inner"] = pattern_from_dict(params["inner"])  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Spatial patterns
# ----------------------------------------------------------------------
def _require_topology(pattern: Pattern, topology: Optional[MeshTopology]) -> MeshTopology:
    if topology is None:
        raise ValueError(
            f"{pattern.kind!r} is a spatial pattern and needs the mesh topology "
            "to evaluate (compile it through a ScenarioSpec)"
        )
    return topology


@dataclass(frozen=True)
class HotspotPattern(Pattern):
    """Gaussian per-PE multiplier peaking at ``center`` (hotspot injection).

    Unit ``u`` gets ``background + (peak - background) * exp(-d^2 / 2 sigma^2)``
    with ``d`` the Euclidean mesh distance from ``center``, at every epoch.
    Multiply by a temporal pattern for a hotspot that comes and goes.
    """

    center: Coordinate
    peak: float
    sigma: float = 1.0
    background: float = 1.0
    kind: ClassVar[str] = "hotspot"

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("hotspot sigma must be positive")

    @property
    def is_spatial(self) -> bool:
        return True

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        topology = _require_topology(self, topology)
        center = tuple(self.center)
        if not topology.contains(center):
            raise ValueError(f"hotspot center {center} outside the mesh")
        coords = np.array(list(topology.coordinates()), dtype=float)
        squared = ((coords - np.asarray(center, dtype=float)) ** 2).sum(axis=1)
        profile = float(self.background) + (
            float(self.peak) - float(self.background)
        ) * np.exp(-squared / (2.0 * self.sigma**2))
        return np.tile(profile, (len(epochs), 1))

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "HotspotPattern":
        params = dict(params)
        params["center"] = tuple(params["center"])  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPattern(Pattern):
    """Per-PE fault injection: listed units drop to ``level`` from ``start_epoch``.

    ``level=0`` is a dead PE (its workload power vanishes); a partial level
    models a degraded unit.  ``end_epoch`` of ``None`` keeps the fault for the
    rest of the horizon; otherwise the fault clears at ``end_epoch``.
    """

    units: Tuple[Coordinate, ...]
    level: float = 0.0
    start_epoch: int = 0
    end_epoch: Optional[int] = None
    kind: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError("fault needs at least one unit")
        if self.level < 0:
            raise ValueError("fault level cannot be negative")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ValueError("fault end_epoch must be after start_epoch")

    @property
    def is_spatial(self) -> bool:
        return True

    def _values(
        self,
        epochs: np.ndarray,
        topology: Optional[MeshTopology],
        horizon: Optional[int],
    ) -> np.ndarray:
        topology = _require_topology(self, topology)
        matrix = np.ones((len(epochs), topology.num_nodes))
        active = epochs >= self.start_epoch
        if self.end_epoch is not None:
            active = active & (epochs < self.end_epoch)
        for unit in self.units:
            coord = tuple(unit)
            if not topology.contains(coord):
                raise ValueError(f"faulted unit {coord} outside the mesh")
            matrix[active, topology.node_id(coord)] = float(self.level)
        return matrix

    @classmethod
    def _from_params(cls, params: Dict[str, object]) -> "FaultPattern":
        params = dict(params)
        params["units"] = tuple(tuple(unit) for unit in params["units"])  # type: ignore[arg-type]
        return cls(**params)  # type: ignore[arg-type]
