"""Hypothesis strategies shared by the generated parity and stream tests.

:func:`scenario_specs` draws a :class:`ScenarioSpec` over chips A-E; static,
periodic policies of every Figure-1 scheme, y-mirror and identity (from
epoch 0 or after an idle first epoch), threshold policies, and adaptive
ones over every Figure-1 scheme or a candidate subset; sudden, fluid and
batched styles; steady and transient modes; feedback strides 1-4 with both
predictors; the load, ambient, period and NoC channels each on or off; 1-40
epochs.  :func:`partitioned_specs` adds the window boundaries the spec is
served over, and :func:`window_of` cuts one window out of a compiled
whole-horizon window.
"""

from hypothesis import strategies as st

from repro.migration.plan import MIGRATION_STYLES
from repro.migration.transforms import FIGURE1_SCHEMES
from repro.scenarios.patterns import (
    BurstPattern,
    DiurnalPattern,
    RampPattern,
    StepPattern,
)
from repro.scenarios.spec import NocChannel, ScenarioSpec
from repro.stream import EpochWindow
from repro.stream.window import CHANNELS

_FLOATS = dict(allow_nan=False, allow_infinity=False)


#: Periodic schemes: the Figure-1 transforms, y-mirror (order 2 like the
#: other mirrors) and identity (every decision an idle epoch).
PERIODIC_SCHEMES = (*FIGURE1_SCHEMES, "y-mirror", "identity")


@st.composite
def scenario_specs(draw):
    num_epochs = draw(st.integers(1, 40))
    scheme = draw(st.sampled_from(("static", *PERIODIC_SCHEMES, "threshold", "adaptive")))
    params = None
    if scheme == "threshold":
        scheme = "threshold-" + draw(st.sampled_from(FIGURE1_SCHEMES))
        params = {"trigger_celsius": draw(st.floats(60.0, 95.0, **_FLOATS))}
    elif scheme in PERIODIC_SCHEMES and draw(st.booleans()):
        # Migrate from the first epoch on: no idle epoch at the static mapping.
        params = {"skip_first": False}
    elif scheme == "adaptive" and draw(st.booleans()):
        # A candidate subset: the policy leaves one orbit for another mid-way
        # (or decides identity, an idle epoch).
        params = {
            "candidate_schemes": draw(
                st.lists(st.sampled_from(PERIODIC_SCHEMES), min_size=1, max_size=3, unique=True)
            )
        }
    channels = {}
    if draw(st.booleans()):
        channels["load"] = draw(
            st.builds(
                DiurnalPattern,
                mean=st.floats(0.5, 1.2, **_FLOATS),
                amplitude=st.floats(0.0, 0.4, **_FLOATS),
                period_epochs=st.floats(2.0, 16.0, **_FLOATS),
            )
            | st.builds(
                BurstPattern,
                base=st.floats(0.5, 1.0, **_FLOATS),
                peak=st.floats(1.0, 2.0, **_FLOATS),
                start_epoch=st.integers(0, 20),
                length=st.integers(1, 8),
            )
        )
    if draw(st.booleans()):
        channels["ambient_celsius"] = RampPattern(
            start=draw(st.floats(-5.0, 5.0, **_FLOATS)),
            end=draw(st.floats(-5.0, 10.0, **_FLOATS)),
        )
    if draw(st.booleans()):
        channels["period"] = StepPattern(
            before=1.0,
            after=draw(st.floats(0.25, 4.0, **_FLOATS)),
            step_epoch=draw(st.integers(0, 40)),
        )
    if draw(st.booleans()):
        channels["noc"] = NocChannel(injection_rate=draw(st.floats(0.01, 0.3, **_FLOATS)))
    return ScenarioSpec(
        name="generated",
        configuration=draw(st.sampled_from("ABCDE")),
        scheme=scheme,
        mode=draw(st.sampled_from(("steady", "transient"))),
        num_epochs=num_epochs,
        settle_epochs=draw(st.none() | st.integers(1, num_epochs)),
        thermal_method=draw(st.sampled_from(("euler", "spectral"))),
        transient_steps_per_epoch=draw(st.integers(1, 8)),
        include_migration_energy=draw(st.booleans()),
        policy_params=params,
        feedback_stride=draw(st.integers(1, 4)),
        feedback_predictor=draw(st.sampled_from(("hold", "previous"))),
        migration_style=draw(st.sampled_from(MIGRATION_STYLES)),
        units_per_epoch=draw(st.integers(1, 4)),
        **channels,
    )


@st.composite
def partitioned_specs(draw):
    """A spec and the window boundaries it is served over."""
    spec = draw(scenario_specs())
    cuts = draw(st.sets(st.integers(1, max(spec.num_epochs - 1, 1)), max_size=6))
    bounds = [0, *sorted(cut for cut in cuts if cut < spec.num_epochs), spec.num_epochs]
    return spec, list(zip(bounds, bounds[1:]))


def window_of(whole, start, stop, start_epoch=None):
    """Epochs ``[start, stop)`` of a compiled whole-horizon window."""
    channels = {
        name: getattr(whole, name)[start:stop]
        for name in CHANNELS
        if getattr(whole, name) is not None
    }
    return EpochWindow(num_epochs=stop - start, start_epoch=start_epoch, **channels)
