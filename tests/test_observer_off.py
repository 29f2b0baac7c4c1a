"""Zero cost when off: an unobserved run never enters the telemetry.

Every layer above the pool holds ``observer: Optional[Observer]`` and
reports through ``if obs is not None``, so a run with no observer must
make no call into ``repro.obs`` and no call to any
:class:`~repro.core.events.Observer` method.  ``sys.setprofile`` sees
every Python call, so the check counts calls instead of timing them.
"""

import os
import sys

import repro.obs
from repro.core.events import Observer

from .test_step_loop_golden import jamba_prefix_run

OBS_DIR = os.path.dirname(os.path.realpath(repro.obs.__file__)) + os.sep
OBSERVER_METHODS = {
    value.__code__ for value in vars(Observer).values() if hasattr(value, "__code__")
}


def telemetry_calls(run):
    """``(calls into repro.obs, calls to Observer methods)`` made by ``run()``."""
    into_obs = into_observer = 0

    def profile(frame, event, arg):
        nonlocal into_obs, into_observer
        if event != "call":
            return
        code = frame.f_code
        if code in OBSERVER_METHODS:
            into_observer += 1
        elif os.path.realpath(code.co_filename).startswith(OBS_DIR):
            into_obs += 1

    sys.setprofile(profile)
    try:
        engines = run()
    finally:
        sys.setprofile(None)
    return engines, into_obs, into_observer


def test_an_unobserved_jamba_drain_makes_no_telemetry_call():
    (engine,), into_obs, into_observer = telemetry_calls(jamba_prefix_run)
    assert engine.observer is None and engine.steps  # it ran, unobserved
    assert (into_obs, into_observer) == (0, 0)


def test_the_counter_sees_an_observer_call():
    """The profile hook does count what the drain must not make."""
    _, into_obs, into_observer = telemetry_calls(
        lambda: Observer().request_finished("r0", 0.0)
    )
    assert (into_obs, into_observer) == (0, 1)
