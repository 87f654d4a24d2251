"""Arithmetic pins: every spec in make_pins.PINS recomputes the initial
parameters, predictions, gradients and post-Adam parameters stored in
fixtures/pins.fbm, byte for byte unless TOLERANCE lists the pin."""

import numpy as np
import pytest

from fbm import autodiff as ad

from make_pins import FIXTURE, PINS, run_pin

# pin name -> tol: the pin is checked as |a - b| <= tol * max|b| per tensor
# instead of byte for byte. Each entry carries a comment naming the change
# that moved its arithmetic. A bound relative to each tensor's largest
# magnitude, since gradients that are zero in exact arithmetic (attention
# key biases, say) come out near 1e-18 and have no meaningful relative error.
TOLERANCE = {}

HEADER, RECORDS = ad.load_tensors(FIXTURE)


def _close(actual, pinned, tol):
    if tol is None:
        return actual.shape == pinned.shape and actual.tobytes() == pinned.tobytes()
    bound = tol * np.max(np.abs(pinned), initial=0.0)
    return actual.shape == pinned.shape and bool(np.all(np.abs(actual - pinned) <= bound))


def test_fixture_holds_exactly_the_pinned_specs():
    assert list(HEADER) == list(PINS)
    assert {name.partition(":")[0] for name, _ in RECORDS} == set(PINS)
    assert set(TOLERANCE) <= set(PINS)


@pytest.mark.parametrize("pin", PINS)
def test_pin(pin):
    spec = PINS[pin]
    assert HEADER[pin] == spec.summary()
    pinned = [(name.partition(":")[2], arr) for name, arr in RECORDS
              if name.partition(":")[0] == pin]
    actual = run_pin(spec)
    assert [name for name, _ in actual] == [name for name, _ in pinned]
    bad = [name for (name, a), (_, b) in zip(actual, pinned)
           if not _close(np.asarray(a), b, TOLERANCE.get(pin))]
    assert not bad, f"{pin}: {bad}"


def test_tolerance_mode_bounds_by_the_largest_magnitude():
    pinned = np.array([2.0, 1e-18, -0.5])
    moved = np.array([2.0 + 1e-14, -3e-18, -0.5])
    assert not _close(moved, pinned, None)
    assert _close(moved, pinned, 1e-12)
    assert not _close(moved + np.array([0, 0, 1e-9]), pinned, 1e-12)
    assert not _close(pinned[:2], pinned, 1e-12)
