"""Arithmetic pins: every spec in make_pins.PINS recomputes the initial
parameters, predictions, gradients and post-Adam parameters stored in
fixtures/pins.fbm, byte for byte unless TOLERANCE lists the pin."""

import numpy as np
import pytest

from fbm import autodiff as ad

from make_pins import ADAM_STEPS, FIXTURE, LR, PINS, run_pin

# pin name -> tol: the pin is checked as |a - b| <= tol * max|b| per tensor
# instead of byte for byte. Each entry carries a comment naming the change
# that moved its arithmetic. A bound relative to each tensor's largest
# magnitude, since gradients that are zero in exact arithmetic (attention
# key biases, say) come out near 1e-18 and have no meaningful relative error.
#
# matmul's fold of a stack times one matrix into one GEMM sums each weight's
# gradient over the stack in another order, so the gradients and post-Adam parameters of every pin with
# such a product moved at roundoff; the predictions stayed bitwise equal. The
# worst moves were 6.0e-16 * max|b| (grad/*) and 2.4e-15 * max|b| (adam2/*).
# diag and last did not move and stay byte for byte.
#
# The seasonal filter's rewrite as per-bin complex gains (basis_rows in place
# of the [K, L, T] basis windows) moved only grad/seasonal.W and, through it,
# the adam2/* records of the fbm-s pins, by at most 3.6e-15 * max|b|; init,
# predictions and every record of the other pins stayed byte for byte.
#
# spectral_map's one GEMM over the interleaved spectrum z @ M (in place of
# separate products of the real and imaginary halves) sums each output in
# another order. Against the previous code's own outputs it moved pred,
# grad/* and adam2/* of fbm-l, fbm-nl and diag (at most 4.4e-16 * max|b|;
# diag gets its entry here) and, through the seasonal filter's output once
# Adam has made W nonzero, the adam2/* records of the fbm-s pins (at most
# 7.0e-16 * max|b|, key biases aside). last, fbm-np and every init, X and Y
# record stayed byte for byte.
#
# Building the seasonal filter's and diag's z @ M tables from their weights
# (each bin's basis rows scaled by its gains, in place of scaling or rotating
# the spectrum halves before the product) moved, against the previous code's
# own outputs, grad/diag.wa and grad/diag.wb (at most 1.7e-16 * max|b|),
# grad/seasonal.W of every fbm-s pin (at most 4.6e-16) and, through it, the
# adam2/* records of the fbm-s pins (at most 9.6e-16, key biases aside).
# Every init, X, Y and pred record and every record of fbm-l, fbm-nl, fbm-np
# and last stayed byte for byte; no entry below changed.
TOLERANCE = {
    "fbm-l": 1e-13,
    "fbm-nl": 1e-13,
    "diag": 1e-13,
    "fbm-np-k1": 1e-13,
    "fbm-np-k2": 1e-13,
    "fbm-s-linear-inter-std": 1e-13,
    "fbm-s-linear-inter-raw": 1e-13,
    "fbm-s-linear-nointer-std": 1e-13,
    "fbm-s-linear-nointer-raw": 1e-13,
    "fbm-s-mlp-inter-std": 1e-13,
    "fbm-s-mlp-inter-raw": 1e-13,
    "fbm-s-mlp-nointer-std": 1e-13,
    "fbm-s-mlp-nointer-raw": 1e-13,
    "fbm-s-transformer-inter-std": 1e-13,
    "fbm-s-transformer-inter-raw": 1e-13,
    "fbm-s-transformer-nointer-std": 1e-13,
    "fbm-s-transformer-nointer-raw": 1e-12,
}

# The grid-free fronts read each patch's moments and linear map from the
# spectrum through basis tables. Against the previous code's own outputs,
# pred and grad/* moved by at most 1.1e-13 * max|b| (grad/trend.d2.proj.cent.beta
# of fbm-s-transformer-nointer-raw, whose entry above went from 1e-13 to
# 1e-12) and 7.4e-14 in the other pins, besides the zero gradients below. The adam2/*
# records of the fbm-np and patched fbm-s pins move further: the pinned
# first gradient of each projector's centralization gamma is roundoff noise
# (see NOISE), which Adam turned into a step of up to 1.8e-10 that the second
# step's forward then carries into every parameter. Measured worst adam2/*
# moves: 1.4e-11 and 7.9e-11 (fbm-np-k1, -k2), 1.7e-12 to 4.1e-12 (mlp),
# 2.8e-11 to 1.8e-10 (transformer). Each entry below is the smallest power of
# ten above its pin's worst move, and applies to adam2/* only.
#
# Adam's value update as step m / (sqrt(v) + eps') with its bias correction in
# two scalars, and the folded centralized front (the centred patch map from the
# table, one scale and one shift each way), moved these records against the
# previous code's own outputs. fbm-l, fbm-nl, diag and the fbm-s linear pins
# without interaction: adam2/* only, at most 6.9e-16 * max|b|. The other fbm-s
# linear pins: pred 3.7e-16, grad/* 2.4e-15, adam2/* 1.9e-15. fbm-s mlp: pred
# 2.8e-16, grad/* 1.8e-15, adam2/* 5.2e-12. fbm-s transformer: pred 2.3e-15,
# grad/* 4.4e-14, adam2/* 2.9e-11. fbm-np: pred 3.3e-16, grad/* 2.8e-15,
# adam2/* 2.8e-11. Key biases aside; every init, X and Y record and all of
# last stayed byte for byte. No pin left its bound and no entry changed.
#
# Keeping a grid weight's Adam moments as per-bin factors moved no pin: every
# record of every pin stayed byte for byte. run_pin reads each gradient through
# .grad, which materializes a per-bin one, so fbm-l's linear.w and fbm-nl's
# fc1.w start dense moments there and take the dense update. Copied out without
# materializing, so that Adam took the factored path, they moved adam2/linear.w
# by 2.6e-11 * max|b| and adam2/fc1.w by 2.3e-12 (v read back from its factors
# cancels where a gradient entry is small next to its per-bin terms), past their
# 1e-13 entries; the factored path is bounded against dense Adam by
# tests/test_models.py::test_factored_adam_tracks_dense_adam_on_fbm_l_gradients.
ADAM2_TOLERANCE = {
    "fbm-np-k1": 1e-10,
    "fbm-np-k2": 1e-10,
    "fbm-s-mlp-inter-std": 1e-11,
    "fbm-s-mlp-inter-raw": 1e-11,
    "fbm-s-mlp-nointer-std": 1e-11,
    "fbm-s-mlp-nointer-raw": 1e-11,
    "fbm-s-transformer-inter-std": 1e-10,
    "fbm-s-transformer-inter-raw": 1e-9,
    "fbm-s-transformer-nointer-std": 1e-10,
    "fbm-s-transformer-nointer-raw": 1e-9,
}

# A gradient that is zero in exact arithmetic is pinned as roundoff noise,
# which any change to the forward's roundoff replaces with other noise. Besides
# the key biases below, the trend projectors' centralization gamma has a zero
# gradient at init: with beta and the projector bias at 0, decentralize
# divides out exactly the gamma that centralize multiplied in
# (ReLU(gamma v) / gamma = ReLU(v)). Its pinned gradients reach 1.8e-16; the
# folded front, which scales by gamma / std and back by std / gamma, leaves
# them at most 3.0e-17. In tolerance mode a grad/*
# record pinned at noise level, max|b| <= NOISE, is checked against the exact
# fact instead: |grad| <= NOISE.
NOISE = 1e-15

# Attention key biases (*.k.b) have a zero gradient in exact arithmetic: the
# softmax over keys ignores the per-query constant q . b_k, and their pinned
# gradients are at most 1.7e-17. Adam scales such noise up to steps of about
# lr * |g| / eps, so their post-Adam values are noise that no bound relative
# to them can pin. In tolerance mode they are checked against the exact fact
# instead: |adam2 - init| <= ADAM_STEPS * LR * 1e-8, where a real gradient
# would move an entry by about LR at Adam's first step.
KEY_BIAS_DRIFT = ADAM_STEPS * LR * 1e-8

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
    values = dict(pinned)
    bad = [name for (name, a), (_, b) in zip(actual, pinned)
           if not _matches(name, np.asarray(a), b, _tolerance(pin, name), values)]
    assert not bad, f"{pin}: {bad}"


def _tolerance(pin, name):
    if name.startswith("adam2/") and pin in ADAM2_TOLERANCE:
        return ADAM2_TOLERANCE[pin]
    return TOLERANCE.get(pin)


def _matches(name, actual, pinned, tol, values):
    if tol is not None and _is_key_bias(name):
        return _key_bias_still(actual, pinned, values["init/" + name.partition("/")[2]])
    if tol is not None and name.startswith("grad/") and _is_noise(pinned):
        return actual.shape == pinned.shape and _is_noise(actual)
    return _close(actual, pinned, tol)


def _is_noise(grad):
    return bool(np.max(np.abs(grad), initial=0.0) <= NOISE)


def _is_key_bias(name):
    return name.startswith("adam2/") and name.endswith(".k.b")


def _key_bias_still(actual, pinned, init):
    return actual.shape == pinned.shape and bool(np.all(np.abs(actual - init) <= KEY_BIAS_DRIFT))


def test_pinned_key_biases_keep_their_init():
    # the fixture itself holds the exact-arithmetic fact the key-bias rule checks
    values = dict(RECORDS)
    key_biases = [name for name in values if _is_key_bias(name.partition(":")[2])]
    assert key_biases
    for name in key_biases:
        pin, _, rest = name.partition(":")
        param = rest.partition("/")[2]
        assert np.max(np.abs(values[name] - values[f"{pin}:init/{param}"])) <= KEY_BIAS_DRIFT
        assert np.max(np.abs(values[f"{pin}:grad/{param}"])) <= 1e-16


def test_tolerance_mode_bounds_by_the_largest_magnitude():
    pinned = np.array([2.0, 1e-18, -0.5])
    moved = np.array([2.0 + 1e-14, -3e-18, -0.5])
    assert not _close(moved, pinned, None)
    assert _close(moved, pinned, 1e-12)
    assert not _close(moved + np.array([0, 0, 1e-9]), pinned, 1e-12)
    assert not _close(pinned[:2], pinned, 1e-12)


def test_noise_rule_holds_zero_gradients_to_the_exact_fact():
    # the pinned projector gammas are records the rule is written for
    values = dict(RECORDS)
    gammas = [name for name in values if ":grad/" in name and name.endswith(".proj.cent.gamma")]
    assert gammas and all(_is_noise(values[name]) for name in gammas)
    noise = np.array([1e-16, 0.0])
    assert _matches("grad/g", np.zeros(2), noise, 1e-13, {})
    assert not _matches("grad/g", np.array([0.0, 1e-9]), noise, 1e-13, {})
    assert not _matches("grad/g", np.zeros(2), noise, None, {})  # byte mode is unchanged
    assert not _matches("grad/g", np.array([1e-9, 0.0]), np.array([1e-6, 0.0]), 1e-13, {})


def test_adam2_tolerance_applies_to_adam2_records_only():
    pin = next(iter(ADAM2_TOLERANCE))
    assert _tolerance(pin, "adam2/w") == ADAM2_TOLERANCE[pin]
    assert _tolerance(pin, "grad/w") == _tolerance(pin, "pred") == TOLERANCE[pin]
    assert set(ADAM2_TOLERANCE) <= set(TOLERANCE)


def test_key_bias_rule_rejects_a_real_step():
    zero = np.zeros(2)
    assert _key_bias_still(np.array([3e-11, -2e-10]), zero, zero)
    assert not _key_bias_still(np.array([0.0, LR]), zero, zero)
    assert not _key_bias_still(zero[:1], zero, zero)
