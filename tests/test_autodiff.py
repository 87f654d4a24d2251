import gc
import math
import stat
import struct
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from fbm import autodiff as ad
from fbm.blocks import basis_rows
from fbm.errors import CheckpointError, ConfigError, DataError

from gradcheck import _fd_flat, input_grad_err, param_grad_err
from oracles import (adam_update, broadcast_matmul_grads, dense_grad, dense_moments, factor_arrays, full_factors,
                     peak_bytes, per_bin_read_back, read_back_every_row, read_back_lengths, step_groups,
                     steps_by_bin, textbook_adam, unfolded_value)

RNG = np.random.default_rng


def test_matmul_forward():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[19.0, 22.0], [43.0, 50.0]])


def test_relu_forward():
    x = ad.Tensor([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad.relu(x).value, [0.0, 0.0, 2.0])
    # NaN propagates, so train()'s finite-loss check sees a non-finite pre-activation
    y = ad.relu(ad.Tensor([np.nan, -1.0, -0.0, 0.0, 2.0])).value
    np.testing.assert_array_equal(y, [np.nan, 0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(y[1:]).any()


def test_relu_gradient_passes_only_positive_inputs():
    x = ad.Tensor([np.nan, -1.0, -0.0, 0.0, 2.0], requires_grad=True)
    ad.backward(ad.relu(x).sum())
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_softmax_uniform_and_stability():
    y = ad.softmax_lastdim(ad.Tensor([0.0, 0.0, 0.0])).value
    np.testing.assert_allclose(y, np.full(3, 1.0 / 3.0), atol=1e-15)
    big = ad.softmax_lastdim(ad.Tensor([1000.0, 1000.0])).value
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big, [0.5, 0.5], atol=1e-15)


def test_trailing_broadcast_add():
    a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.Tensor(np.arange(4.0), requires_grad=True)
    out = ad.add(a, b)
    assert out.shape == (3, 4)
    ad.backward(out.sum())
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_scalar_broadcast():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.add(x * 3.0, 1.0).sum())
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_backward_rejects_nonscalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(x * x)


def test_backward_rejects_a_value_that_is_not_a_tensor():
    with pytest.raises(TypeError, match="backward expects a Tensor"):
        ad.backward(np.float64(1.0))


def test_backward_releases_the_tape_as_it_walks_it():
    x = ad.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    h = ad.relu(x * 2.0)
    intermediate = weakref.ref(h.value)
    diff = ad.sub(h, 1.0)
    loss = (diff * diff).sum()
    del h
    ad.backward(loss)
    assert intermediate() is None  # freed while loss and diff are still held
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 12.0])


# op(h, c) for an h the forward drops, then weighted by constants: ops whose VJPs
# read only shapes keep none of h's value; with c tracked, ops whose VJPs read h
# (c's gradient, for mul, div and matmul) keep it until backward
SHAPE_ONLY_OPS = {
    "add": lambda h, c: ad.add(h, c),
    "sub": lambda h, c: ad.sub(c, h),
    "reshape": lambda h, c: ad.reshape(h, (12,)) * c.value.reshape(12),
    "transpose": lambda h, c: ad.transpose(h, (1, 0)) * c.value.T,
    "reduce_sum": lambda h, c: ad.reduce_sum(h, axis=0) * c.value[0],
    "reduce_mean": lambda h, c: ad.reduce_mean(h, axis=-1, keepdims=True) * c.value,
    "tslice": lambda h, c: ad.tslice(h, (slice(None), [0, 2, 2])) * c.value[:, :3],
}
VALUE_OPS = {
    "mul": lambda h, c: ad.mul(c, h),
    "div": lambda h, c: ad.div(c, h),
    "matmul": lambda h, c: ad.matmul(ad.swap_last2(c), h),
    "relu": lambda h, c: ad.relu(h) * c.value,
}


@pytest.mark.parametrize("op", list(SHAPE_ONLY_OPS) + list(VALUE_OPS))
def test_the_tape_keeps_only_what_backward_reads(op):
    # h = x @ w feeds one op and is dropped; by references alone (no gc pass) its
    # value goes with it unless the op's VJP reads it, and then goes at backward
    rng = RNG(8)
    x0, w0 = rng.uniform(0.5, 1.5, (3, 2)), rng.uniform(0.5, 1.5, (2, 4))
    c = rng.uniform(0.5, 1.5, (3, 4))
    fn = {**SHAPE_ONLY_OPS, **VALUE_OPS}[op]
    x, w = ad.Tensor(x0, requires_grad=True), ad.Parameter(w0, "w")
    gc.disable()
    try:
        h = ad.matmul(x, w)
        value = weakref.ref(h.value)
        loss = fn(h, ad.Tensor(c, requires_grad=op in VALUE_OPS)).sum()
        del h
        assert (value() is None) == (op in SHAPE_ONLY_OPS)
        ad.backward(loss)
        assert value() is None
    finally:
        gc.enable()
    # the gradients are the central differences of the untracked forward
    def f():
        with ad.no_grad():
            return float(fn(ad.matmul(ad.Tensor(x0), ad.Tensor(w0)), ad.Tensor(c)).sum().value)

    for t, v in ((x, x0), (w, w0)):
        np.testing.assert_allclose(t.grad, _fd_flat(f, v, 1e-6).reshape(v.shape), rtol=1e-6)


def test_backward_through_a_released_tape_raises():
    x = ad.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    diff = ad.sub(ad.relu(x * 2.0), 1.0)
    loss = (diff * diff).sum()
    ad.backward(loss)
    for again in (loss, (diff * 3.0).sum()):  # the same loss, and one built on its tape
        with pytest.raises(RuntimeError, match="released"):
            ad.backward(again)
    assert loss.grad is None and diff.grad is None
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 12.0])


def test_backward_of_a_sum_of_losses_over_one_forward_sums_their_gradients():
    rng = RNG(4)
    x0, w = rng.standard_normal((2, 3, 4))

    def losses(x):
        h = ad.relu(x * 2.0)
        return (h * h).sum(), (h * w).sum()

    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(ad.add(*losses(x)))
    apart = ad.Tensor(x0, requires_grad=True)
    for i in range(2):  # each from its own forward
        ad.backward(losses(apart)[i])
    np.testing.assert_allclose(x.grad, apart.grad, rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(x.grad, np.where(x0 > 0, 8 * x0 + 2 * w, 0.0))


def test_grad_accumulates_until_zeroed():
    x = ad.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        ad.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [8.0])
    ad.zero_grads([x])
    assert x.grad is None


def test_no_grad_builds_no_graph():
    x = ad.Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = x * x
    assert not y.requires_grad and y._node is None


def test_no_grad_applies_to_its_own_thread_only():
    # thread A enters no_grad, then both threads meet at the barrier; B records
    # while A is still inside, and A records nothing until it leaves
    w = ad.Parameter(np.ones(3), "w")
    inside, recorded = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)
    tracked = {}

    def a():
        with ad.no_grad():
            inside.wait()
            recorded.wait()
            tracked["a inside"] = (w * 2.0).requires_grad
        tracked["a after"] = (w * 2.0).requires_grad

    def b():
        inside.wait()
        tracked["b"] = (w * 2.0).requires_grad
        recorded.wait()

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert tracked == {"a inside": False, "a after": True, "b": True}


def test_complex_payload_rejected():
    with pytest.raises(TypeError):
        ad.Tensor(np.array([1 + 2j]))


def test_matmul_requires_rank2():
    with pytest.raises(ValueError):
        ad.matmul(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0]))


def _rand(rng, *shape):
    x = rng.uniform(-1.0, 1.0, size=shape)
    # keep relu inputs away from the kink so central differences are valid
    return np.where(np.abs(x) < 1e-3, 1e-3, x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elementwise_op_grads(seed):
    rng = RNG(seed)
    a = _rand(rng, 3, 5)
    b = _rand(rng, 3, 5)
    cases = {
        "add": lambda t: ad.add(t[0], t[1]).sum(),
        "sub": lambda t: ad.sub(t[0], t[1]).sum(),
        "mul": lambda t: (t[0] * t[1] * t[0]).sum(),
        "div": lambda t: ad.div(t[0], ad.add(t[1] * t[1], 0.5)).sum(),
        "neg": lambda t: (ad.neg(t[0]) * t[1]).sum(),
        "scale": lambda t: ad.scale(t[0], 2.5).sum(),
        "relu": lambda t: (ad.relu(t[0]) * t[1]).sum(),
        "sqrt": lambda t: ad.sqrt(ad.add(t[0] * t[0], 0.1)).sum(),
    }
    for name, fn in cases.items():
        err = input_grad_err(fn, [a, b])
        assert err < 1e-4, f"{name}: rel err {err}"


@pytest.mark.parametrize("seed", [0, 1])
def test_matmul_grads(seed):
    rng = RNG(seed)
    a = _rand(rng, 4, 3)
    b = _rand(rng, 3, 5)
    err = input_grad_err(lambda t: (ad.matmul(t[0], t[1]) * ad.matmul(t[0], t[1])).sum(), [a, b])
    assert err < 1e-4
    # batched left operand against a shared 2d weight
    ab = _rand(rng, 2, 4, 3)
    err = input_grad_err(lambda t: ad.matmul(t[0], t[1]).sum(), [ab, b])
    assert err < 1e-4
    # fully batched, as in attention scores
    q = _rand(rng, 2, 4, 3)
    k = _rand(rng, 2, 4, 3)
    err = input_grad_err(lambda t: ad.matmul(t[0], ad.swap_last2(t[1])).sum(), [q, k])
    assert err < 1e-4


def _stack_times_matrix(rng, case):
    """(a, b) of one stack-times-matrix case; b is always 2-D."""
    if case == "rank3":
        return _rand(rng, 16, 8, 12), _rand(rng, 12, 5)
    if case == "rank4":
        return _rand(rng, 2, 3, 4, 5), _rand(rng, 5, 7)
    # the upper spectrum half H[..., 1:], a strided view
    return _rand(rng, 4, 3, 17)[..., 1:], _rand(rng, 16, 6)


@pytest.mark.parametrize("case", ["rank3", "rank4", "strided"])
def test_stack_times_matrix_fold(case):
    rng = RNG(3)
    a, b = _stack_times_matrix(rng, case)
    # bitwise at these shapes; at others BLAS may sum the one folded GEMM in
    # another order than numpy's per-matrix loop
    out = ad.matmul(a, b).value
    assert out.tobytes() == np.matmul(a, b).tobytes()
    ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    g = rng.standard_normal(out.shape)
    ad.backward((ad.matmul(ta, tb) * g).sum())
    for got, oracle in zip((ta.grad, tb.grad), broadcast_matmul_grads(a, b, g)):
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    err = input_grad_err(lambda t: (ad.matmul(t[0], t[1]) * g).sum(), [a, b])
    assert err < 1e-4


def test_stack_times_matrix_backward_builds_no_stack():
    # a patched grid [B, D, P, N] times a projection [N, h1]: the per-element
    # VJP would build w's gradient as a [16, 8, 64, 32] stack (2 MB) and sum it
    rng = RNG(4)
    x = ad.Tensor(rng.standard_normal((16, 8, 4, 64)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((64, 32)), requires_grad=True)
    loss = ad.matmul(x, w).sum()
    stack_bytes = 16 * 8 * 64 * 32 * 8
    _, peak = peak_bytes(ad.backward, loss)
    assert w.grad.shape == (64, 32)
    assert peak < stack_bytes / 4


# op, a's shape, b's shape; matmul-stack takes matmul's stack-times-matrix branch
BINARY_OPS = {
    "add": (ad.add, (3, 4), (4,)),
    "sub": (ad.sub, (3, 4), (4,)),
    "mul": (ad.mul, (3, 4), (4,)),
    "div": (ad.div, (3, 4), (4,)),
    "matmul": (ad.matmul, (2, 3, 4), (1, 4, 5)),
    "matmul-stack": (ad.matmul, (2, 3, 4), (4, 5)),
}


@pytest.mark.parametrize("op", list(BINARY_OPS))
def test_one_tracked_operand_gets_the_gradient_it_gets_with_both(op):
    fn, shape_a, shape_b = BINARY_OPS[op]
    rng = RNG(5)
    a, b = rng.uniform(0.5, 1.5, shape_a), rng.uniform(0.5, 1.5, shape_b)
    g = rng.standard_normal(fn(a, b).shape)

    def grads(track_a, track_b):
        ta, tb = ad.Tensor(a, requires_grad=track_a), ad.Tensor(b, requires_grad=track_b)
        out = fn(ta, tb)
        assert [p for p, _ in out._node._edges] == [t for t in (ta, tb) if t.requires_grad]
        ad.backward((out * g).sum())
        return ta.grad, tb.grad

    ga, gb = grads(True, True)
    only_a, untracked_b = grads(True, False)
    untracked_a, only_b = grads(False, True)
    assert untracked_a is None and untracked_b is None
    assert only_a.tobytes() == ga.tobytes() and only_b.tobytes() == gb.tobytes()


@pytest.mark.parametrize("shape", [(4096, 256), (16, 256, 256)], ids=["matrix", "stack"])
def test_constant_times_parameter_backward_skips_the_constants_gradient(shape):
    # a basis table times a small weight: the table's gradient (8 MB) would
    # be as large as the table, and nothing reads it
    rng = RNG(6)
    table = ad.Tensor(rng.standard_normal(shape))
    w = ad.Tensor(rng.standard_normal((256, 2)), requires_grad=True)
    loss = ad.matmul(table, w).sum()
    _, peak = peak_bytes(ad.backward, loss)
    assert w.grad.shape == (256, 2)
    assert peak < table.value.nbytes


@pytest.mark.parametrize("seed", [0, 1])
def test_shape_op_grads(seed):
    rng = RNG(seed)
    x = _rand(rng, 2, 3, 4)
    err = input_grad_err(lambda t: (ad.reshape(t[0], (6, 4)) * 2.0).sum(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: ad.transpose(t[0], (2, 0, 1)).sum(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: (t[0][:, 1:, :2] * t[0][:, :2, 1:3]).sum(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: t[0].mean(axis=1).sum(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: (t[0].sum(axis=(0, 2)) * 0.5).sum(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: ad.softmax_lastdim(t[0]).mean(), [x])
    assert err < 1e-4
    err = input_grad_err(lambda t: ad.standardize_lastdim(t[0]).mean(), [x])
    assert err < 1e-4


def test_tslice_repeated_index_gathers_each_gradient():
    p = ad.Tensor(np.zeros(3), requires_grad=True)
    ad.backward(p[np.array([0, 0, 1])].sum())
    np.testing.assert_array_equal(p.grad, [2.0, 1.0, 0.0])


def test_softmax_grad_matches_closed_form():
    # dX = (dY - sum(dY * Y)) * Y, checked against finite differences and
    # against an explicit Jacobian product at one point
    rng = RNG(3)
    x = rng.uniform(-1, 1, size=(5,))
    t = ad.Tensor(x, requires_grad=True)
    w = rng.uniform(-1, 1, size=(5,))
    ad.backward((ad.softmax_lastdim(t) * w).sum())
    y = np.exp(x - x.max())
    y /= y.sum()
    jac = np.diag(y) - np.outer(y, y)
    np.testing.assert_allclose(t.grad, jac @ w, atol=1e-12)


def test_attention_block_shape_and_grads():
    rng = RNG(4)
    p = ad.AttentionParams(rng, width=6, ffn_width=9, prefix="attn")
    x = rng.uniform(-1, 1, size=(2, 5, 6))

    def make_loss():
        out = ad.attention_block(ad.Tensor(x), p)
        assert out.shape == (2, 5, 6)
        return (out * out).mean()

    assert param_grad_err(make_loss, p.params()) < 1e-4
    # input gradient too
    err = input_grad_err(lambda t: ad.attention_block(t[0], p).mean(), [x])
    assert err < 1e-4


def test_adam_matches_reference_and_converges():
    p = ad.Parameter(np.zeros(1), "x")
    for _ in range(100):
        diff = ad.sub(p, 5.0)
        ad.backward((diff * diff).sum())
        ad.adam_step([p], lr=0.1)
    ref, m, v = np.zeros(1), 0.0, 0.0
    for t in range(1, 101):
        ref, m, v = textbook_adam(ref, m, v, 2 * (ref - 5.0), t, 0.1)
    np.testing.assert_allclose(p.value[0], ref[0], atol=1e-12)
    assert abs(p.value[0] - 5.0) < 0.5
    assert p.grad is None  # zeroed after the step


def test_adam_bias_correction_first_step():
    # with bias correction the very first step has magnitude ~lr
    p = ad.Parameter(np.array([0.0]), "x")
    p.grad = np.array([1e-3])
    ad.adam_step([p], lr=0.5)
    np.testing.assert_allclose(p.value[0], -0.5, rtol=1e-4)


def _bytes(*arrays):
    return tuple(a.tobytes() for a in arrays)  # C-order bytes whatever the layout


def test_adam_in_place_matches_the_textbook_form_bitwise():
    # m and v byte for byte the textbook's, the value byte for byte adam_step's folded form
    rng = RNG(5)
    p = ad.Parameter(rng.standard_normal((4, 3)), "w")
    value, m, v = p.value.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    for t in range(1, 5):
        p.grad = g = rng.standard_normal((4, 3))
        ad.adam_step([p], 0.01)
        value, m, v = textbook_adam(value, m, v, g, t, 0.01, folded=True)
        assert _bytes(p.value, p.m, p.v) == _bytes(value, m, v)
        if t == 1:
            state = p.m, p.v, p.value
    # updated in place from the second step on
    assert p.m is state[0] and p.v is state[1] and p.value is state[2]


def test_adam_moments_come_from_the_first_update():
    rng = RNG(8)
    ps = [ad.Parameter(rng.standard_normal(shape), "w") for shape in ((3, 2), (5,))]
    ad.adam_step(ps, 0.01)  # no grads: no update, no state
    assert all(p.m is None and p.v is None and p.step == 0 for p in ps)
    for p in ps:
        p.grad = rng.standard_normal(p.shape)
    want = [textbook_adam(p.value, 0.0, 0.0, p.grad, 1, 0.01, folded=True) for p in ps]
    ad.adam_step(ps, 0.01)
    for p, (value, m, v) in zip(ps, want):
        assert _bytes(p.value, p.m, p.v) == _bytes(value, m, v)
        assert p.m.flags.c_contiguous and p.v.flags.c_contiguous


CHUNK = ad._ADAM_CHUNK


ULP = np.finfo(np.float64).eps
# adam_step's update stays within ADAM_ULPS ulp of the textbook one, relative to
# it. Each form rounds several times on the way (5.5 units of roundoff for the
# textbook form, 8 for adam_step's, 6.75 ulp between them at worst); the worst
# seen over 3.6e8 entry-steps with lr from 1e-5 to 10 was 4.4 ulp, at lr = 3.
ADAM_ULPS = 5


@pytest.mark.parametrize("lr", [0.0, 1e-4, 0.01, 3.0])
def test_adam_value_stays_within_a_few_ulp_of_the_textbook_form(lr):
    # p starts every step at 0, so its new value is minus the update exactly; q runs
    # on, and its distance to the textbook run may grow by the update's bound and
    # one rounding of each side's subtraction per step
    n, steps = 4096, 200
    rng = RNG(21)
    p, q = ad.Parameter(np.zeros(n), "p"), ad.Parameter(rng.standard_normal(n), "q")
    value, m, v, drift = q.value.copy(), 0.0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 3, n)
        g[rng.random(n) < 0.1] = 0.0  # zero gradients, from t = 1 on
        p.value = np.zeros(n)
        p.grad, q.grad = g, g.copy()
        ad.adam_step([p, q], lr)
        value, m, v = textbook_adam(value, m, v, g, t, lr)
        assert _bytes(p.m, p.v, q.m, q.v) == _bytes(m, v, m, v)
        update = adam_update(m, v, t, lr)
        assert np.all(np.abs(-p.value - update) <= ADAM_ULPS * ULP * np.abs(update))
        drift = drift + ADAM_ULPS * ULP * np.abs(update) + ULP / 2 * (np.abs(q.value) + np.abs(value))
        assert np.all(np.abs(q.value - value) <= drift)
    if lr == 0.0:
        assert not np.any(p.value) and q.value.tobytes() == value.tobytes()


@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_adam_matches_the_textbook_form_across_chunk_boundaries(size):
    # the pins never fill a chunk, so only this checks the chunk edges
    rng = RNG(size)
    p = ad.Parameter(rng.standard_normal(size), "w")
    value, m, v = p.value.copy(), np.zeros(size), np.zeros(size)
    for t in range(1, 5):
        p.grad = g = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3, size)
        ad.adam_step([p], 0.01)
        value, m, v = textbook_adam(value, m, v, g, t, 0.01, folded=True)
        assert _bytes(p.value, p.m, p.v) == _bytes(value, m, v)


def test_adam_on_a_parameter_built_from_a_transposed_array():
    # an F-order value, and F-order grads: a flat reshape of either would be a copy
    rng = RNG(6)
    built = rng.standard_normal((CHUNK + 3, 3)).T
    kept = built.copy(order="K")
    p = ad.Parameter(built, "w")
    value, m, v = built.copy(order="K"), np.zeros(built.shape), np.zeros(built.shape)
    for t in range(1, 5):
        p.grad = g = rng.standard_normal((CHUNK + 3, 3)).T
        ad.adam_step([p], 0.01)
        value, m, v = textbook_adam(value, m, v, g, t, 0.01, folded=True)
        assert _bytes(p.value, p.m, p.v) == _bytes(value, m, v)
    assert built.tobytes() == kept.tobytes()


def test_adam_on_a_value_replaced_by_a_non_contiguous_array():
    rng = RNG(7)
    shape = (2 * CHUNK + 1,)
    p = ad.Parameter(rng.standard_normal(shape), "w")
    value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 5):
        if t == 3:  # every other entry of a wider array, as a restore or a user might set it
            wide = np.repeat(value, 2)
            p.value, value = wide[::2], wide[::2].copy()
            kept = wide.copy()
        p.grad = g = rng.standard_normal(shape)
        ad.adam_step([p], 0.01)
        value, m, v = textbook_adam(value, m, v, g, t, 0.01, folded=True)
        assert _bytes(p.value, p.m, p.v) == _bytes(value, m, v)
    assert wide.tobytes() == kept.tobytes()  # the array it was given is not written


def test_adam_after_the_first_step_allocates_only_chunk_buffers():
    n = 1 << 20
    p = ad.Parameter(np.zeros(n), "w")
    p.grad = np.ones(n)
    ad.adam_step([p], 0.01)
    p.grad = np.ones(n)
    _, peak = peak_bytes(ad.adam_step, [p], 0.01)
    assert peak < 0.1 * p.value.nbytes


# --- a grid weight's gradient as per-bin factors ----------------------------------


def _grid_weight(rng, K, c, T, width):
    """Constant rows[K, c, T], a GridWeight w[K, T, width] over them and an upstream gradient gM of rows @ w."""
    rows = rng.standard_normal((K, c, T))
    return rows, ad.GridWeight(rng.standard_normal((K, T, width)), "w", rows), rng.standard_normal((K, c, width))


def _per_bin_loss(rows, w, gM):
    return (ad.matmul(ad.Tensor(rows), w) * gM).sum()  # d/d(rows @ w) is gM exactly


# Factored m and v read back within MOMENT_ULPS ulp of the dense ones, in units of
# the same recursions run on |rows|^T |gM| (the sizes their terms are rounded at);
# the worst seen over 150 runs of 5 steps, rows and gM scaled by up to 1e3 either
# way, was 3.9 ulp for m and 5.8 for v.
MOMENT_ULPS = 16


def _moment_scales(sm, sv, rows, *gMs):
    # the same recursions as m and v run on |rows|^T (|gM| + ...), one step on
    a = dense_grad(np.abs(rows), sum(np.abs(gM) for gM in gMs))
    return ad.ADAM_BETA1 * sm + (1.0 - ad.ADAM_BETA1) * a, ad.ADAM_BETA2 * sv + (1.0 - ad.ADAM_BETA2) * a * a


def _assert_moments_near(p, dense, sm, sv):
    m, v = dense_moments(p)
    assert np.all(np.abs(m - dense.m) <= MOMENT_ULPS * ULP * sm)
    assert np.all(np.abs(v - dense.v) <= MOMENT_ULPS * ULP * sv)


@pytest.mark.parametrize("K, c, T, width", [(3, 2, 5, 4), (2, 2, 130, 130), (2, 3, 7, 9), (2, 2, 5, CHUNK + 1)])
def test_factored_moments_read_back_as_the_dense_ones(K, c, T, width):
    # (2, 2, 130, 130): one bin's rows span more than a chunk; CHUNK + 1: one row does
    rng = RNG(K * T + width)
    rows, p, _ = _grid_weight(rng, K, c, T, width)
    dense = ad.Parameter(p.value.copy(), "dense")
    sm = sv = 0.0
    for t in range(1, 6):
        if t == 2:  # every other entry of a wider array: not C-contiguous
            wide = np.repeat(p.value, 2, axis=-1)
            p.value, dense.value = wide[..., ::2], wide[..., ::2].copy(order="F")
            kept = wide.copy()
        gM = rng.standard_normal((K, c, width)) * 10.0 ** rng.uniform(-3, 3, (K, c, 1))
        ad.backward(_per_bin_loss(rows, p, gM))
        assert p._grad.tobytes() == gM.tobytes()  # the per-bin g itself
        dense.grad = dense_grad(rows, gM)
        ad.adam_step([p, dense], 0.01)
        assert p.step == dense.step == t and p.grad is None
        assert p.m.shape == (K, c, width) and p.v.shape == (K, c * (c + 1) // 2, width)
        sm, sv = _moment_scales(sm, sv, rows, gM)
        _assert_moments_near(p, dense, sm, sv)
    assert wide.tobytes() == kept.tobytes()  # the array it was given is not written


@pytest.mark.parametrize("how", ["one graph", "two backwards"])
def test_per_bin_gradients_summed_onto_a_grid_weight_keep_it_factored(how):
    # two per-bin edges over the same rows sum as rows_t @ (gM + gM2): exact in real arithmetic
    rng = RNG(18)
    rows, p, _ = _grid_weight(rng, 3, 2, 6, 5)
    dense = ad.Parameter(p.value.copy(), "dense")
    sm = sv = 0.0
    for t in range(1, 5):
        gM, gM2 = (rng.standard_normal((3, 2, 5)) * 10.0 ** rng.uniform(-3, 3, (3, 2, 1)) for _ in "ab")
        if how == "one graph":
            ad.backward(ad.add(_per_bin_loss(rows, p, gM), _per_bin_loss(rows, p, gM2)))
        else:
            ad.backward(_per_bin_loss(rows, p, gM))
            ad.backward(_per_bin_loss(rows, p, gM2))
        assert p._grad.shape == gM.shape
        dense.grad = dense_grad(rows, gM) + dense_grad(rows, gM2)
        ad.adam_step([p, dense], 0.01)
        assert p.factors is not None
        sm, sv = _moment_scales(sm, sv, rows, gM, gM2)
        _assert_moments_near(p, dense, sm, sv)


def test_reading_a_grid_weights_gradient_changes_no_adam_step():
    rng = RNG(19)
    rows, p, _ = _grid_weight(rng, 3, 2, 6, 5)
    twin = ad.GridWeight(p.value.copy(), "twin", rows)
    for _ in range(3):
        gM = rng.standard_normal((3, 2, 5))
        ad.backward(_per_bin_loss(rows, p, gM))
        ad.backward(_per_bin_loss(rows, twin, gM))
        assert p.grad.tobytes() == dense_grad(rows, gM).tobytes()  # read before every step
        ad.adam_step([p, twin], 0.01)
        assert p.factors is not None and twin.factors is not None
        assert _bytes(p.value, p.m, p.v, *factor_arrays(p)) == _bytes(twin.value, twin.m, twin.v, *factor_arrays(twin))


@pytest.mark.parametrize("how", ["assign", "elementwise", "elementwise alone", "rows"])
def test_a_gradient_a_grid_weight_cannot_take_raises(how):
    # its gradient is the per-bin g of matmul with its own rows, and nothing else
    rng = RNG(14)
    rows, p, gM = _grid_weight(rng, 3, 2, 6, 5)
    H = rng.standard_normal(p.shape)
    with pytest.raises(ValueError, match=r"^grid weight w [^\n]*$"):
        if how == "assign":
            p.grad = dense_grad(rows, gM)
        elif how == "elementwise":  # a per-bin edge plus an elementwise one (weight decay, say)
            ad.backward(_per_bin_loss(rows, p, gM) + (p * H).sum())
        elif how == "elementwise alone":
            ad.backward((p * H).sum())
        else:  # equal rows in another array
            _per_bin_loss(rows.copy(), p, gM)
    assert p._grad is None


def test_a_grid_weight_refuses_rows_whose_factors_are_not_smaller():
    # c = 3 over T = 4: 9 numbers per bin and column against 8
    rng = RNG(15)
    with pytest.raises(ValueError, match=r"^grid weight w\(2, 4, 5\) does not fit factored rows \(2, 3, 4\)$"):
        ad.GridWeight(rng.standard_normal((2, 4, 5)), "w", rng.standard_normal((2, 3, 4)))
    with pytest.raises(ValueError, match="does not fit"):  # nor a weight of other bins or rows
        ad.GridWeight(rng.standard_normal((2, 5, 5)), "w", rng.standard_normal((2, 2, 4)))


@pytest.mark.parametrize("T", [16, 336])
def test_a_fourier_bin_repeats_every_T_over_gcd_of_its_frequency(T):
    # bin k holds frequency f = k + 1
    assert ad._moment_factors(basis_rows(T, T))[0].tolist() == [T // math.gcd(k + 1, T) for k in range(T // 2)]


def _moved(T, k, c, n, how):
    rows = basis_rows(T, T).copy()
    x = rows[k, c, n]
    rows[k, c, n] = {"nan": np.nan, "ulp": np.nextafter(x, np.inf), "zero sign": -x}[how]
    return rows


@pytest.mark.parametrize("k, c, n, how", [
    (1, 0, 15, "ulp"),  # f = 2, period 8: the last row, cosine
    (3, 1, 9, "ulp"),  # f = 4, period 4: a middle row, sine
    (5, 0, 0, "ulp"),  # f = 6, period 8: the first row
    (1, 1, 6, "nan"),
    (7, 1, 5, "zero sign"),  # Nyquist, period 2: its sine row is +0.0, and -0.0 == +0.0
])
def test_a_bin_with_one_entry_changed_does_not_repeat(k, c, n, how):
    T = 16
    before = ad._moment_factors(basis_rows(T, T))[0]
    assert before[k] < T
    after = ad._moment_factors(_moved(T, k, c, n, how))[0]
    assert after[k] == T and np.array_equal(np.delete(after, k), np.delete(before, k))


@pytest.mark.parametrize("rows", [basis_rows(T, T) for T in (16, 96, 336)] + [RNG(26).standard_normal((4, 3, 12))],
                         ids=["T16", "T96", "T336", "c3"])
def test_r2_is_each_pair_of_rows_multiplied_with_the_off_diagonal_doubled(rows):
    # byte for byte the reference over each bin's read-back rows, the first P or P/2:
    # the pairwise products as one expression; every bin in one group, by its h
    periods, folded, groups = ad._moment_factors(rows)
    want = full_factors(rows)[1]
    assert sorted(k for bins, _ in groups for k in bins) == list(range(len(rows)))
    for bins, R2 in groups:
        h = R2.shape[1]
        assert np.all(np.where(folded[bins], periods[bins] // 2, periods[bins]) == h)
        assert R2.tobytes() == want[bins, :h].tobytes()


def test_the_moment_factors_peak_below_twice_the_rows():
    # the int64 copy of the rows the period scan compares is gone before R2 is made,
    # and R2 (1.5x the rows for c = 2) is written with no temporary. Rows that do not
    # repeat read back all T rows, so R2 is 1.5x the rows and a kept copy would
    # show; basis rows read back fewer, and their scan's compares set the peak.
    for rows in (basis_rows(192, 192), RNG(21).standard_normal((168, 2, 336))):
        _, peak = peak_bytes(ad._moment_factors, rows)
        assert peak <= 2 * rows.nbytes, rows.shape


def test_random_rows_do_not_repeat():
    assert ad._moment_factors(RNG(20).standard_normal((5, 2, 12)))[0].tolist() == [12] * 5


@pytest.mark.parametrize("T", [16, 336])
def test_every_even_period_fourier_bin_folds_by_sign_but_nyquist(T):
    # Nyquist's sine row is +0.0 throughout, which is not -0.0
    periods, folded, _ = ad._moment_factors(basis_rows(T, T))
    assert folded.tolist() == [P % 2 == 0 and k < T // 2 - 1 for k, P in enumerate(periods)]


@pytest.mark.parametrize("k, c, n, how", [
    (1, 0, 7, "ulp"),  # f = 2, period 8: the last row of the second half, cosine
    (3, 1, 3, "ulp"),  # f = 4, period 4: sine
    (5, 0, 4, "nan"),  # f = 6, period 8: the first row of the second half
    (3, 0, 3, "zero sign"),  # f = 4: cos(3T/4) is -0.0, and +0.0 is not its negation
])
def test_a_bin_with_its_second_half_changed_keeps_its_period_and_does_not_fold(k, c, n, how):
    T = 16
    periods, folded, _ = ad._moment_factors(basis_rows(T, T))
    assert folded[k]
    rows = basis_rows(T, T).copy()
    x = rows[k, c, n]
    rows[k, c, n::periods[k]] = {"nan": np.nan, "ulp": np.nextafter(x, np.inf), "zero sign": -x}[how]
    after, fold_after, _ = ad._moment_factors(rows)
    assert np.array_equal(after, periods)  # changed in every period, so it still repeats
    assert not fold_after[k] and np.array_equal(np.delete(fold_after, k), np.delete(folded, k))


def test_random_rows_do_not_fold():
    rng = RNG(21)
    assert not ad._moment_factors(rng.standard_normal((5, 2, 12)))[1].any()
    periods, folded, _ = ad._moment_factors(np.tile(rng.standard_normal((5, 2, 4)), 3))
    assert periods.tolist() == [4] * 5 and not folded.any()  # an even period, checked and refused


def test_a_grid_weights_later_rows_are_matched_by_address(monkeypatch):
    # every forward passes the model's rows array itself; nothing compares rows by value
    T = 16
    rows = basis_rows(T, T)
    assert not rows.flags.writeable
    rng = RNG(22)
    p = ad.GridWeight(rng.standard_normal((T // 2, T, 3)), "w", rows)
    ad.backward(_per_bin_loss(rows, p, rng.standard_normal((T // 2, 2, 3))))
    ad.adam_step([p], 0.01)
    # the rows' own view for a bin alone in its chunk, else a copy of the bins' read-back rows only
    chunks = [chunk for group in p._chunks for chunk in group]
    assert all(rows_c.base is rows or isinstance(bins, np.ndarray) for _, _, bins, rows_c, *_ in chunks)
    assert sum(rows_c.size for _, _, _, rows_c, *_ in chunks) < rows.size

    def compare(*args):
        raise AssertionError("rows compared by value")

    monkeypatch.setattr(np, "array_equal", compare)
    for _ in range(2):  # two per-bin edges, summed as factors, then the step
        gM, gM2 = rng.standard_normal((2, T // 2, 2, 3))
        ad.backward(ad.add(_per_bin_loss(rows, p, gM), _per_bin_loss(rows, p, gM2)))
        assert p._grad.shape == gM.shape
        ad.adam_step([p], 0.01)


def test_a_grid_weight_refuses_equal_rows_in_another_array():
    # the rows are declared once, at build: a copy or a view of them is other rows
    T = 16
    rows = basis_rows(T, T)
    p = ad.GridWeight(RNG(23).standard_normal((T // 2, T, 3)), "w", rows)
    other = rows.copy()
    other.flags.writeable = False
    for later in (other, rows.view(), rows[:, :, :]):
        with pytest.raises(ValueError, match=r"^grid weight w is multiplied by its own constant rows array only$"):
            ad.matmul(ad.Tensor(later), p)


@pytest.mark.parametrize("width", [96, 1, 97, 512, 1440])
def test_folded_adam_steps_as_reading_back_every_row(width):
    # Fourier rows at T = 336; at 512 and fbm-nl's 1440 columns, one bin for each
    # period (f dividing T) keeps the arrays small. Blocks of P rows and of a chunk's
    # rows are other GEMM shapes; a GEMM of two or more rows rounds a row as these do,
    # so equal byte for byte, while a one-row product (gemv) may not: at width 1 every
    # block is one row, within MOMENT_ULPS ulp of the entry or its step (1.1 seen).
    T = 336
    rows = basis_rows(T, T)
    if width >= 512:
        rows = rows[[f - 1 for f in range(1, T // 2 + 1) if T % f == 0]]
    K = rows.shape[0]
    rng = RNG(width)
    p = ad.GridWeight(rng.standard_normal((K, T, width)), "w", rows)
    for t in range(1, 5):
        gM = rng.standard_normal((K, 2, width)) * 10.0 ** rng.uniform(-3, 3, (K, 2, 1))
        ad.backward(_per_bin_loss(rows, p, gM))
        x = p.value.copy()  # a fold between steps: then w0 + (0 - s) is w0 - s, bit for bit
        ad.adam_step([p], 1e-2)
        periods, h = read_back_lengths(p)
        assert periods.min() == 2  # the Nyquist bin
        assert (h < periods).any()  # and bins that fold by sign
        want = read_back_every_row(x, p, t, 1e-2)
        if width > 1:
            assert p.value.tobytes() == want.tobytes()
        else:
            scale = np.maximum(np.abs(x), np.abs(want - x))
            assert np.all(np.abs(p.value - want) <= MOMENT_ULPS * ULP * scale)


@pytest.mark.parametrize("width", [96, 97, 512, 1440, 1, "random"])
def test_the_chunked_read_back_holds_the_per_bin_loops_table_and_steps(width):
    # Fourier rows at T = 336 (at 512 and 1440 the bin for each period alone, as above),
    # or random rows, whose bins all read back every row and so share a chunk.
    # Bins sharing a chunk are stacked GEMMs of the shapes each has alone, so the held
    # table and each bin's D are byte for byte the loop's after every step.
    if width == "random":
        rows, width = RNG(27).standard_normal((6, 2, 12)), 7
    else:
        rows = basis_rows(336, 336)
        if width >= 512:
            rows = rows[[f - 1 for f in range(1, 169) if 336 % f == 0]]
    rng = RNG(width + 1)
    K, _, T = rows.shape
    p = ad.GridWeight(rng.standard_normal((K, T, width)), "w", rows)
    table = np.matmul(rows, ad.Tensor.value.__get__(p))
    for t in range(1, 5):
        gM = rng.standard_normal((K, 2, width)) * 10.0 ** rng.uniform(-3, 3, (K, 2, 1))
        ad.backward(_per_bin_loss(rows, p, gM))
        ad.adam_step([p], 1e-2)
        if t == 1:
            delta = [np.zeros((h, width)) for h in read_back_lengths(p)[1]]
        per_bin_read_back(table, delta, p, t, 1e-2)
        assert p._table.tobytes() == table.tobytes()
        held = steps_by_bin(p)
        assert sorted(held) == list(range(K))
        assert all(held[k].tobytes() == d.tobytes() for k, d in enumerate(delta))


def test_a_grid_weights_steps_are_one_array_per_read_back_length():
    # at T = 336 the bins read back 15 distinct h; a restore brings back the snapshot's
    # table and value bit for bit, two steps on
    T, width = 336, 4
    rows = basis_rows(T, T)
    rng = RNG(28)
    p = ad.GridWeight(rng.standard_normal((T // 2, T, width)), "w", rows)

    def step():
        ad.backward(_per_bin_loss(rows, p, rng.standard_normal((T // 2, 2, width))))
        ad.adam_step([p], 1e-2)

    step()
    groups = step_groups(p)
    assert len(groups) == 15
    assert [d.shape for _, _, d in groups] == [(len(bins), R2.shape[1], width) for bins, R2, _ in groups]
    assert [len(bins) for bins, R2, _ in groups if R2.shape[1] in (168, 84)] == [24, 48]
    step()
    state, value = p.snapshot(), unfolded_value(p)
    step()
    step()
    p.restore(state)
    assert p._table.tobytes() == np.matmul(rows, value).tobytes()
    assert p.value.tobytes() == value.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_reaches_a_factored_weight(bad):
    # as in dense Adam, the bad entry's column of its bin goes NaN: v is clamped by
    # np.maximum, which keeps a NaN where fmax would turn it into 0
    rng = RNG(16)
    rows, p, _ = _grid_weight(rng, 3, 2, 6, 5)
    dense = ad.Parameter(p.value.copy(), "dense")
    for t in (1, 2):
        gM = rng.standard_normal((3, 2, 5))
        if t == 2:
            gM[1, 0, 3] = bad
        ad.backward(_per_bin_loss(rows, p, gM))
        dense.grad = dense_grad(rows, gM)
        ad.adam_step([p, dense], 0.01)
    assert p.factors is not None
    assert np.array_equal(np.isnan(p.value), np.isnan(dense.value))
    assert np.array_equal(np.isinf(p.value), np.isinf(dense.value))
    assert np.isnan(p.value[1, :, 3]).all() and np.isfinite(np.delete(p.value[1], 3, axis=-1)).all()


def test_per_bin_gradient_reads_as_the_old_dense_array():
    rows, w, gM = _grid_weight(RNG(11), 4, 2, 6, 5)
    ad.backward(_per_bin_loss(rows, w, gM), [w])  # the zero fill leaves it per bin
    assert w._grad.tobytes() == gM.tobytes()
    g = w.grad
    assert type(g) is np.ndarray and g.tobytes() == dense_grad(rows, gM).tobytes()
    assert w._grad.tobytes() == gM.tobytes()  # read, not stored


def test_only_a_rank3_parameter_gets_a_per_bin_gradient():
    rng = RNG(13)
    rows, w, gM = _grid_weight(rng, 3, 2, 4, 5)
    # only a GridWeight: a tracked input, and a rank-3 Parameter, get the dense gradient
    for t in (ad.Tensor(w.value.copy(), requires_grad=True), ad.Parameter(w.value.copy(), "p")):
        ad.backward(_per_bin_loss(rows, t, gM))
        assert type(t._grad) is np.ndarray and t._grad.tobytes() == dense_grad(rows, gM).tobytes()


def test_adam_never_writes_the_array_a_parameter_was_built_from():
    a = np.ones(3)
    p = ad.Parameter(a, "w")
    for _ in range(2):
        p.grad = np.ones(3)
        ad.adam_step([p], lr=0.1)
    np.testing.assert_array_equal(a, np.ones(3))
    assert np.all(p.value < 1.0)


def test_a_drawn_weight_keeps_its_buffer_through_step_1():
    # no caller holds the array _init_weight draws, so Adam writes it from the first step
    rng = RNG(25)
    lin = ad.Linear(rng, 4, 3, "l")
    rows = basis_rows(16, 16)
    grid = ad._init_weight(rng, (8, 16, 3), 128, "g", rows)
    drawn = [lin.w.value, ad.Tensor.value.__get__(grid)]  # a .value read would hand the grid's out
    before = [a.copy() for a in drawn]
    lin.w.grad = rng.standard_normal((4, 3))
    ad.backward(_per_bin_loss(rows, grid, rng.standard_normal((8, 2, 3))))
    ad.adam_step([lin.w, grid], 0.01)
    assert lin.w.value is drawn[0] and grid.value is drawn[1]  # the grid weight's first fold: in place
    assert all(np.all(a != b) for a, b in zip(drawn, before))
    undrawn = ad._init_weight(ad._UNDRAWN, (4, 3), 4, "u")  # a read-only view: copied
    undrawn.grad = np.ones((4, 3))
    ad.adam_step([undrawn], 0.01)
    assert undrawn.value.flags.owndata and np.all(undrawn.value < 0.0)


def test_init_uniform_bounds():
    rng = RNG(0)
    w = ad.init_uniform(rng, (200, 50), fan_in=200)
    assert np.all(np.abs(w) <= 1.0 / np.sqrt(200))
    assert np.std(w) > 0


# --- Layer.params ----------------------------------------------------------------


def _layer(**attrs):
    layer = ad.Layer()
    vars(layer).update(attrs)
    return layer


def _names(params):
    return [p.name for p in params]


@dataclass
class _Box:  # a holder that is not a Layer
    p: object


def test_layer_params_walk_lists_of_tuples_of_layers_in_first_assignment_order():
    a, b, c, d = (ad.Parameter(np.zeros(1), n) for n in "abcd")
    layer = ad.Layer()
    layer.late = None  # a placeholder keeps its place when it is set again
    layer.scales = [(1, _layer(w=b)), (2, _layer(w=c, inner=[_layer(w=d)]))]
    layer.late = _layer(w=a)
    found = layer.params()
    assert _names(found) == ["a", "b", "c", "d"]
    assert all(p is q for p, q in zip(found, (a, b, c, d)))


def test_attention_params_list_each_aliased_linear_once():
    p = ad.AttentionParams(RNG(0), width=4, ffn_width=5, prefix="s")
    names = [f"s.{t}.{x}" for t in ("q", "k", "v", "o", "ffn1", "ffn2") for x in "wb"]
    assert _names(p.params()) == names
    shared = ad.Parameter(np.zeros(1), "shared")
    assert _names(_layer(x=shared, y=[shared, (shared,)], z=_layer(w=shared)).params()) == ["shared"]


def test_a_parameter_held_by_no_layer_is_not_listed():
    w, hidden = ad.Parameter(np.zeros(1), "w"), ad.Parameter(np.zeros(1), "hidden")
    layer = _layer(box=_Box(hidden), boxes=[_Box(hidden)], held={"p": hidden}, w=w,
                   const=ad.Tensor(np.ones(2)), arr=np.ones(3), n=3)
    assert _names(layer.params()) == ["w"]


def test_a_function_attribute_leaves_params_unchanged():
    # as a tracer does that wraps a block's bound forward in an instance attribute
    lin = ad.Linear(RNG(0), 2, 3, "lin")
    before = lin.params()
    call = lin.__call__
    lin.forward = lambda x: call(x)
    after = lin.params()
    assert _names(after) == ["lin.w", "lin.b"]
    assert all(p is q for p, q in zip(after, before)) and len(after) == len(before)


# --- tensor container ---------------------------------------------------------


def test_container_roundtrip(tmp_path):
    rng = RNG(5)
    named = [
        ("layer.w", rng.normal(size=(3, 4))),
        ("layer.b", rng.normal(size=(4,))),
        ("scalar", np.float64(2.5)),
    ]
    path = tmp_path / "params.fbm"
    ad.save_tensors(path, named, header={"variant": "fbm-l", "T": "8"})
    header, records = ad.load_tensors(path)
    assert header == {"variant": "fbm-l", "T": "8"}
    assert [n for n, _ in records] == ["layer.w", "layer.b", "scalar"]
    for (_, a), (_, b) in zip(named, records):
        np.testing.assert_array_equal(np.asarray(a), b)


def test_container_header_value_may_hold_equals(tmp_path):
    path = tmp_path / "eq.fbm"
    ad.save_tensors(path, [], header={"name": "a=b==c", "T": "8"})
    assert ad.load_tensors(path)[0] == {"name": "a=b==c", "T": "8"}


@pytest.mark.parametrize("key, value", [
    ("name", "runs/etth1\nT=99"),  # a value spanning lines adds a key on reload
    ("na=me", "x"),  # the key would split at its own '='
    ("na\nme", "x"),
    ("name", "x\udcff.csv"),  # an undecodable file name's byte: not UTF-8 text
])
def test_container_rejects_header_that_would_not_read_back(tmp_path, key, value):
    path = tmp_path / "bad.fbm"
    with pytest.raises(CheckpointError):
        ad.save_tensors(path, [("w", np.ones(2))], header={key: value})
    assert not path.exists()


@pytest.mark.parametrize("previous", [b"old checkpoint bytes", None])
def test_container_failed_write_keeps_previous_file(tmp_path, previous):
    path = tmp_path / "model.fbm"
    if previous is not None:
        path.write_bytes(previous)
    # the second record cannot be cast to float64, after the first is written
    bad = [("w", np.ones(1000)), ("b", np.array(["not a number"]))]
    with pytest.raises(ValueError):
        ad.save_tensors(path, bad, header={"kind": "x"})
    if previous is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["model.fbm"])


def test_container_write_over_a_directory_fails_before_any_record(tmp_path):
    def records():
        raise AssertionError("a record was read")
        yield

    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(ConfigError, match="Is a directory"):
        ad.save_tensors(target, records())
    assert [p.name for p in tmp_path.iterdir()] == ["adir"] and not any(target.iterdir())


def test_container_write_gets_the_mode_open_gives(tmp_path):
    ad.save_tensors(tmp_path / "a.fbm", [("w", np.ones(2))])
    (tmp_path / "b").write_bytes(b"")
    assert (tmp_path / "a.fbm").stat().st_mode == (tmp_path / "b").stat().st_mode


def test_container_overwrite_keeps_mode_and_symlink(tmp_path):
    path = tmp_path / "model.fbm"
    ad.save_tensors(path, [("w", np.ones(2))])
    path.chmod(0o600)
    ad.save_tensors(path, [("w", np.zeros(2))])
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    link = tmp_path / "link.fbm"
    link.symlink_to(path)
    ad.save_tensors(link, [("w", np.full(2, 3.0))])
    assert link.is_symlink() and link.resolve() == path.resolve()
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    np.testing.assert_array_equal(ad.load_tensors(path)[1][0][1], np.full(2, 3.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.fbm", "model.fbm"]


def test_container_raw_save_has_empty_header(tmp_path):
    path = tmp_path / "raw.fbm"
    ad.save_tensors(path, [("w", np.ones((2, 2)))])
    header, records = ad.load_tensors(path)
    assert header == {}
    assert records[0][0] == "w"


def test_container_byte_layout(tmp_path):
    # parse the file with struct directly; independent of load_tensors
    path = tmp_path / "layout.fbm"
    arr = np.arange(6.0).reshape(2, 3)
    ad.save_tensors(path, [("w", arr)], header={"k": "v"})
    blob = path.read_bytes()
    assert blob[:8] == b"FBMCKPT1"
    (hlen,) = struct.unpack_from("<I", blob, 8)
    assert blob[12 : 12 + hlen].decode() == "k=v"
    off = 12 + hlen
    (nlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    assert blob[off : off + nlen].decode() == "w"
    off += nlen
    rank, d0, d1 = struct.unpack_from("<III", blob, off)
    assert (rank, d0, d1) == (2, 2, 3)
    off += 12
    vals = struct.unpack_from("<6d", blob, off)
    assert vals == tuple(arr.reshape(-1))
    assert off + 48 == len(blob)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.fbm"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        ad.load_tensors(path)


def test_container_truncated(tmp_path):
    path = tmp_path / "trunc.fbm"
    ad.save_tensors(path, [("w", np.ones((4, 4)))])
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        ad.load_tensors(path)


@pytest.mark.parametrize("blob, message", [
    (b"NOTMAGIC", "not a tensor container (bad magic)"),
    (ad._MAGIC + struct.pack("<I", 8) + b"k=v", "truncated while reading header"),
    (ad._MAGIC + struct.pack("<I", 3) + b"k=\xff", "header is not UTF-8 text"),
], ids=["magic", "truncated", "header"])
def test_container_read_raises_its_callers_error_class(tmp_path, blob, message):
    path = tmp_path / "c.fbmds"
    path.write_bytes(blob)
    with pytest.raises(DataError) as e:
        next(ad._read(path, DataError))
    assert str(e.value) == f"{path}: {message}"


def test_container_load_holds_one_copy_of_a_record(tmp_path):
    # each record is read straight into its array: no whole-file bytes, no
    # per-record slice, no cast copy
    path = tmp_path / "big.fbm"
    ad.save_tensors(path, [("w", np.ones(2**20))])
    (_, [(_, w)]), peak = peak_bytes(ad.load_tensors, path)
    assert w.dtype == np.float64 and w.flags.writeable and np.all(w == 1.0)
    assert peak <= 1.1 * w.nbytes


def test_container_save_holds_no_copy_of_a_record(tmp_path):
    # each record is written from its array's own buffer, little-endian as read
    w = np.ones(2**20)
    _, peak = peak_bytes(ad.save_tensors, tmp_path / "big.fbm", [("w", w)])
    assert peak < 0.2 * w.nbytes
    swapped = np.arange(6.0).reshape(2, 3).astype(">f8")
    ad.save_tensors(tmp_path / "swapped.fbm", [("w", w), ("s", swapped), ("0-d", np.array(3.0))])
    _, [(_, back), (_, s), (_, scalar)] = ad.load_tensors(tmp_path / "swapped.fbm")
    assert back.tobytes() == w.tobytes() and np.array_equal(s, swapped)
    assert scalar.shape == () and scalar == 3.0


def test_container_shape_whose_count_overflows_int64_is_truncated(tmp_path):
    # 2**31 * 2**31 * 4 elements: a 64-bit product wraps to 0
    path = tmp_path / "huge.fbm"
    path.write_bytes(ad._MAGIC + struct.pack("<I", 0) + struct.pack("<I", 1) + b"w"
                     + struct.pack("<4I", 3, 2**31, 2**31, 4))
    with pytest.raises(CheckpointError, match="truncated while reading data of w"):
        ad.load_tensors(path)
