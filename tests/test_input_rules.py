"""One rule for a phase and one for a transmission, on every route that reads them.

A phase converts with ``float()`` and must be finite; a transmission converts the same way
and must also lie in [0, 1].  Every route accepts the same values, with the result that the
float gives, and rejects the same values with one ``ConfigError`` (also a ``ValueError``),
one message text, and the field that the route names.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from pisim import (
    ConfigError,
    DetectedState,
    SchemeConfig,
    apply_beam_splitter,
    apply_path_identity,
    build_two_source_state,
    detected_state,
    sweep_pattern,
)

EMISSION = build_two_source_state(SchemeConfig(3, 1))
ONE = np.ones((1, 1))

#: Each route as (a call on one value, the field its ConfigError names).
PHASE_ROUTES = {
    "SchemeConfig.phi0": (lambda v: SchemeConfig(3, 1, phi0=v), "phi0"),
    "SchemeConfig.phi": (lambda v: SchemeConfig(3, 1, phi=(0.0, v)), "phi.2"),
    "SchemeConfig.theta": (lambda v: SchemeConfig(3, 1, theta=(v,)), "theta.3"),
    "apply_path_identity": (lambda v: apply_path_identity(EMISSION, 3, v), "theta"),
    "apply_beam_splitter": (lambda v: apply_beam_splitter(EMISSION, 1, v), "phi"),
    "detected_state": (lambda v: detected_state(SchemeConfig(3, 1), "phi0", [0.1, v]), "phi0"),
    "sweep_pattern": (lambda v: sweep_pattern(SchemeConfig(3, 1), "theta.3", [0.1, v]), "theta.3"),
}
TRANSMISSION_ROUTES = {
    "SchemeConfig": (lambda v: SchemeConfig(3, 1, transmission=(v,)), "transmission.3"),
    "apply_path_identity": (lambda v: apply_path_identity(EMISSION, 3, 0.0, v), "transmission"),
    "table": (lambda v: DetectedState(2, v, ONE).table(), "transmission"),
    "density": (lambda v: DetectedState(2, v, ONE).density(), "transmission"),
    "pure_state": (lambda v: DetectedState(2, v, ONE).pure_state(), "transmission"),
    "pattern": (lambda v: detected_state(SchemeConfig(3, 1)).pattern([1.0, v]), "transmission"),
}

ROUTES = {"phase": PHASE_ROUTES, "transmission": TRANSMISSION_ROUTES}
KINDS_AND_NAMES = [(kind, name) for kind, routes in ROUTES.items() for name in routes]

ACCEPTED = {"text": "0.5", "numpy": np.float64(0.5)}
NOT_FINITE = {
    "letters": "abc",
    "past-float-range": 10**400,
    "nan": math.nan,
    "numpy-nan": np.float64("nan"),
    "inf": math.inf,
    "-inf": -math.inf,
}
OUTSIDE = {"above": 1.5, "below": -0.1}


def outcome(route, value) -> tuple:
    """What ``route`` does with ``value``: the pickled bytes of its result, or the type and
    text of what it raised."""
    try:
        return ("returned", pickle.dumps(route(value)))
    except Exception as exc:  # pure_state raises on a mixed state whatever the input rule
        return ("raised", type(exc), str(exc))


def test_a_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("value", ACCEPTED.values(), ids=ACCEPTED)
@pytest.mark.parametrize("kind, name", KINDS_AND_NAMES)
def test_every_route_reads_a_value_as_its_float(kind, name, value):
    route, _ = ROUTES[kind][name]
    assert outcome(route, value) == outcome(route, 0.5)


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE)
@pytest.mark.parametrize("kind, name", KINDS_AND_NAMES)
def test_every_route_rejects_what_is_not_a_finite_number(kind, name, value):
    route, field = ROUTES[kind][name]
    try:  # the message shows what float() read, or the value if it read nothing
        shown = float(value)
    except (ValueError, OverflowError):
        shown = value
    with pytest.raises(ConfigError) as info:
        route(value)
    message = f"{field} must be a finite number, got {shown!r}"
    assert (str(info.value), info.value.field) == (message, field)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("value", OUTSIDE.values(), ids=OUTSIDE)
@pytest.mark.parametrize("name", TRANSMISSION_ROUTES)
def test_every_transmission_route_rejects_a_number_outside_the_unit_interval(name, value):
    route, field = TRANSMISSION_ROUTES[name]
    with pytest.raises(ConfigError) as info:
        route(value)
    message = f"{field} must lie in [0, 1], got {value}"
    assert (str(info.value), info.value.field) == (message, field)
    assert isinstance(info.value, ValueError)
