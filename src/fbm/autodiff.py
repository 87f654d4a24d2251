"""Reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run tape: each op wraps its numpy result in a Tensor holding one
edge per tracked input, a (parent, vjp) pair whose closure maps the output
gradient to that parent's gradient. An input that needs no gradient (a
constant such as a basis table) gets no edge, so its gradient is never
computed. backward() walks the recorded graph once in reverse
topological order and consumes it: each node drops its edges once its VJPs
have run, so an intermediate value is freed when its last consumer is done,
and the tape is gone before the optimizer step. A released node stays
tracked, and a later backward that reaches it raises RuntimeError; to
differentiate twice, build the forward again. Gradients land on leaf tensors
only (Parameters and explicitly tracked inputs) and accumulate there until
zeroed, so one forward/backward per batch composes with plain Python control
flow.

A grid weight, a rank-3 Parameter w[K, T, width] that a stack of basis rows
multiplies bin by bin (rows[K, c, T] @ w, as blocks.Patches.linear does), gets
its gradient as per-bin factors: slab k is rows[k]^T @ gM[k], a product with a
small inner dimension c. Adam's moments of such a weight are kept as per-bin
factors too (see adam_step), so neither the full-size gradient nor full-size
moments are ever written; reading .grad, or a second gradient reaching the same
leaf, materializes the gradient.

Everything is float64. Inputs are coerced on construction; complex
payloads are rejected by the cast. Broadcasting follows numpy's
trailing-dim rules and gradients are summed back to the original shapes.
relu is max(x, 0), so a NaN input stays NaN (and reaches the loss) while
its gradient, like that at exactly 0, is 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import math
import os
import stat
import struct

import numpy as np

from .errors import CheckpointError

# per thread (and per asyncio task): a new thread starts with recording on
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that disables tape recording (evaluation mode) in the
    thread that enters it; other threads keep recording."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class Tensor:
    __slots__ = ("value", "_grad", "requires_grad", "_edges")

    def __init__(self, value, requires_grad=False):
        if np.iscomplexobj(value):
            raise TypeError("Tensor payloads must be real, got complex")
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._edges = ()

    @property
    def grad(self):
        """The accumulated gradient as an array (a per-bin one is materialized here), or None."""
        if isinstance(self._grad, _PerBin):
            self._grad = self._grad.dense()
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad = g

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return tslice(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


class Parameter(Tensor):
    """Trainable leaf tensor with its Adam state riding along, made by its first
    update: the moments m and v, shaped like the value. A grid weight whose first
    gradient is per-bin factors keeps their factors instead (see adam_step): m is
    A[K, c, width], v is Q[K, c(c+1)/2, width], and `factors` holds the rows
    (rows_t, R2) they expand with; it is None while the moments are full-size."""

    __slots__ = ("name", "m", "v", "step", "factors")

    def __init__(self, value, name):
        super().__init__(value, requires_grad=True)
        self.name = str(name)
        self.m = self.v = self.factors = None
        self.step = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class _PerBin:
    """The gradient of w[K, T, width] in rows[K, c, T] @ w, kept as its factors:
    slab k is rows_t[k] @ g[k], rows_t[K, T, c] and g[K, c, width]. adam_step
    reads g alone while the rows stay those of the weight's factored moments.
    Adding it to another gradient materializes it (numpy defers to __radd__ here)."""

    __slots__ = ("rows_t", "g")
    __array_ufunc__ = None

    def __init__(self, rows_t, g):
        self.rows_t, self.g = rows_t, g

    def dense(self):
        return np.matmul(self.rows_t, self.g)

    def __add__(self, other):
        return self.dense() + (other.dense() if isinstance(other, _PerBin) else other)

    __radd__ = __add__


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(value, *edges):
    """Wrap an op's result. Each edge is (parent, vjp), vjp mapping the output
    gradient to that parent's gradient; only the edges of parents that require
    grad are kept (none under no_grad), and the result is tracked exactly when
    it keeps an edge."""
    out = Tensor(value)
    if _grad_enabled.get():
        out._edges = tuple(e for e in edges if e[0].requires_grad)
        out.requires_grad = bool(out._edges)
    return out


def _unbroadcast(g, shape):
    # sum the gradient over broadcast axes back to the input's shape
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(
        a.value + b.value,
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(
        a.value - b.value,
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    )


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(
        a.value * b.value,
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    )


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(
        a.value / b.value,
        (a, lambda g: _unbroadcast(g / b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)),
    )


def neg(a):
    a = _as_tensor(a)
    return _from_op(-a.value, (a, lambda g: -g))


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    return _from_op(a.value * s, (a, lambda g: g * s))


def relu(a):
    a = _as_tensor(a)
    return _from_op(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0.0)))


def sqrt(a):
    a = _as_tensor(a)
    out_val = np.sqrt(a.value)
    return _from_op(out_val, (a, lambda g: g * (0.5 / out_val)))


def matmul(a, b):
    """a @ b over the last two axes. A stack a[..., n, k] times one matrix
    b[k, m] folds a's leading axes into its rows, so the forward and each
    gradient are one 2-D GEMM, which BLAS may sum in another order than
    np.matmul's per-matrix loop (equal at roundoff). A stack times a rank-3
    Parameter with the same leading axis, a grid weight, gives that Parameter
    its gradient as per-bin factors (_PerBin)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul expects tensors of rank >= 2")
    if a.value.ndim > 2 and b.value.ndim == 2:
        rows = (-1, a.value.shape[-1])
        out = np.matmul(a.value.reshape(rows), b.value)
        return _from_op(
            out.reshape(a.value.shape[:-1] + out.shape[-1:]),
            (a, lambda g: np.matmul(g.reshape(-1, g.shape[-1]), b.value.T).reshape(a.value.shape)),
            (b, lambda g: np.matmul(a.value.reshape(rows).T, g.reshape(-1, g.shape[-1]))),
        )
    a_t = np.swapaxes(a.value, -1, -2)
    per_bin = isinstance(b, Parameter) and b.value.ndim == 3 and a.value.shape[:-2] == b.value.shape[:-2]
    return _from_op(
        np.matmul(a.value, b.value),
        (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.value.shape)),
        (b, lambda g: _PerBin(a_t, g) if per_bin else _unbroadcast(np.matmul(a_t, g), b.value.shape)),
    )


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _from_op(np.transpose(a.value, axes), (a, lambda g: np.transpose(g, inverse)))


def swap_last2(a):
    a = _as_tensor(a)
    perm = tuple(range(a.value.ndim - 2)) + (a.value.ndim - 1, a.value.ndim - 2)
    return transpose(a, perm)


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.value.shape
    return _from_op(a.value.reshape(shape), (a, lambda g: g.reshape(old)))


def tslice(a, idx):
    a = _as_tensor(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)  # a repeated index gathers each of its gradients
        return out

    return _from_op(a.value[idx], (a, vjp))


def _spread(g, axis, keepdims, shape):
    # a reduction's gradient, broadcast back over the axes it reduced
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    val = a.value.sum(axis=axis, keepdims=keepdims)
    return _from_op(val, (a, lambda g: _spread(g, axis, keepdims, a.value.shape)))


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    val = a.value.mean(axis=axis, keepdims=keepdims)
    count = a.value.size / max(val.size, 1)
    return _from_op(val, (a, lambda g: _spread(g, axis, keepdims, a.value.shape) / count))


def softmax_lastdim(a):
    a = _as_tensor(a)
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (g - dot) * y

    return _from_op(y, (a, vjp))


NORM_EPS = 1e-5  # variance floor of standardize_lastdim


def standardize_lastdim(x):
    """(x - mean) / sqrt(var + NORM_EPS) over the last axis, no affine part."""
    xc = sub(x, reduce_mean(x, axis=-1, keepdims=True))
    var = reduce_mean(mul(xc, xc), axis=-1, keepdims=True)
    return div(xc, sqrt(add(var, NORM_EPS)))


def _interleave(a, b):
    """[..., K] halves a and b paired per entry into one [..., K, 2] array, one edge
    per tracked half. Private, so the public ops stay the traced op list; a model
    pairs only its constant spectrum, so every node on its tape is a public op's."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(np.stack([a.value, b.value], axis=-1),
                    (a, lambda g: g[..., 0]), (b, lambda g: g[..., 1]))


def backward(loss, params=None):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad, releasing the
    tape behind loss as the walk goes (see the module docstring).

    When `params` is given, any of them the loss never touched get an
    explicit zero gradient instead of None.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.value.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    if loss.requires_grad:
        _backward_walk(loss)
    if params is not None:
        for p in params:
            if p._grad is None:
                p.grad = np.zeros_like(p.value)


def _backward_walk(loss):

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._edges is None:
            raise RuntimeError("backward reached a tensor whose tape an earlier backward released")
        visited.add(id(node))
        stack.append((node, True))
        for p, _ in node._edges:
            if id(p) not in visited:
                stack.append((p, False))

    # Consumers come before their inputs in the popped order, so by the time a node
    # leaves topo nothing later needs it: dropping its edges frees its inputs' values
    # held by its VJPs, and the node itself goes once no caller holds it.
    grads = {id(loss): np.ones_like(loss.value)}
    while topo:
        node = topo.pop()
        g, edges = grads.pop(id(node)), node._edges
        if not edges:
            node.grad = g if node._grad is None else node.grad + g
            continue
        node._edges = None  # released; still tracked, so a later backward through it raises
        for parent, vjp in edges:
            pg, key = vjp(g), id(parent)
            grads[key] = grads[key] + pg if key in grads else pg


def zero_grads(params):
    for p in params:
        p.grad = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_CHUNK = 1 << 14  # elements per pass of adam_step: a chunk's operands stay in cache


def adam_step(params, lr):
    """One Adam update with bias correction; consumed grads are zeroed.

    m and v are updated in place in the textbook op order, so they are bitwise the
    textbook m and v. The value's step lr (m / c1) / (sqrt(v / c2) + eps), with
    c1 = 1 - beta1^t and c2 = 1 - beta2^t, is taken in the form it equals in real
    arithmetic, step m / (sqrt(v) + eps'), with the scalars step = lr sqrt(c2) / c1
    and eps' = eps sqrt(c2): one division per entry instead of three, within a few
    ulp of the textbook step. The update runs one chunk of _ADAM_CHUNK elements at
    a time, so each array is read and written once per step. Every op is
    elementwise with the same scalars in every chunk, so the chunking changes no
    bit. A first update makes m and v; it, or one of a value not C-contiguous,
    writes a new C-order value, so the array a parameter was built from is never
    written. An untrained model holds no copy and no moments.

    A grid weight whose first gradient is per-bin factors rows_t[k] @ g[k] keeps
    its moments as factors, exactly in real arithmetic: m[k] = rows_t[k] @ A[k]
    with A updated from g as m is, and v[k] = R2[k] @ Q[k] with Q updated from
    the pairwise products g_i g_j (i <= j), R2 holding the rows' matching
    products with the off-diagonal ones doubled. Each bin's step m and v are
    read back into the chunk buffers a block of rows at a time (step folded
    into A), v clamped at 0 (it can cancel slightly below), and the value takes
    the step above: no full-size m, v or gradient exists. Not bitwise: where a
    gradient entry is small next to its per-bin terms, v's cancellation moves
    its step. A dense gradient, other rows than the stored ones (checked every
    step), or a shape where the factors are not smaller expands the moments
    once, and the weight updates densely from then on.
    """
    scratch = np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)
    # First updates get m and v as C-order views of one zeroed block. Made one by one
    # after a forward, they would sit in the heap between the temporaries of every later
    # step, which then faults in more pages; a large block is mapped on its own.
    fresh = [p for p in params if p._grad is not None and p.m is None]
    shapes = []
    for p in fresh:
        p.factors = _moment_factors(p._grad)
        if p.factors is None:
            shapes += [p.value.shape] * 2
        else:  # A[K, c, width] and Q[K, c(c+1)/2, width], after rows_t's and R2's last axes
            K, _, width = p.value.shape
            shapes += [(K, f.shape[-1], width) for f in p.factors]
    offsets = np.cumsum([0] + [math.prod(s) for s in shapes])
    block = np.zeros(offsets[-1])
    views = [block[a:b].reshape(s) for a, b, s in zip(offsets, offsets[1:], shapes)]
    for p, m, v in zip(fresh, views[::2], views[1::2]):
        p.m, p.v = m, v
    for p in params:
        grad = p._grad
        if grad is None:
            continue
        p.step += 1
        if p.step == 1 or not p.value.flags.c_contiguous:
            p.value = np.array(p.value, order="C")
        c1, c2 = 1.0 - ADAM_BETA1**p.step, 1.0 - ADAM_BETA2**p.step
        step, eps = lr * math.sqrt(c2) / c1, ADAM_EPS * math.sqrt(c2)
        factored = p.factors is not None and isinstance(grad, _PerBin)
        if factored and np.array_equal(grad.rows_t, p.factors[0]):
            _adam_factored(p, grad.g, step, eps, scratch)
        else:
            if p.factors is not None:
                _expand_moments(p)
            g = grad.dense() if isinstance(grad, _PerBin) else np.ascontiguousarray(grad)
            _adam_chunks(p.value, p.m, p.v, g, step, eps, scratch)
        p.grad = None


def _moment_factors(grad):
    """(rows_t, R2) of a per-bin gradient whose factored moments, c(c+3)/2 numbers
    per bin and column, are fewer than the 2T of full-size ones; else None."""
    if not isinstance(grad, _PerBin):
        return None
    T, c = grad.rows_t.shape[-2:]
    if c * (c + 3) // 2 >= 2 * T:
        return None
    i, j = np.triu_indices(c)
    rows_t = np.array(grad.rows_t, order="C")
    return rows_t, rows_t[..., i] * rows_t[..., j] * np.where(i < j, 2.0, 1.0)


def _expand_moments(p):
    """Replace a weight's factored moments by the full-size m and v they stand for."""
    rows_t, R2 = p.factors
    p.m, p.v, p.factors = np.matmul(rows_t, p.m), np.matmul(R2, p.v), None
    np.maximum(p.v, 0.0, out=p.v)


def _adam_factored(p, g, step, eps, scratch):
    """Adam's update of a grid weight from the g of its per-bin gradient: A and Q
    from g, then bin by bin, a block of rows of about one chunk at a time, step m
    and v read back into the scratch buffers and the value stepped by
    step m / (sqrt(v) + eps'), as _adam_chunks steps it."""
    rows_t, R2 = p.factors
    i, j = np.triu_indices(g.shape[1])
    p.m *= ADAM_BETA1
    p.m += (1.0 - ADAM_BETA1) * g
    p.v *= ADAM_BETA2
    p.v += (1.0 - ADAM_BETA2) * (g[:, i] * g[:, j])
    A = p.m * step  # read back as step m, the step's numerator
    K, T, width = p.value.shape
    n = max(_ADAM_CHUNK // width, 1)
    if n * width > scratch[0].size:  # a row wider than a chunk
        scratch = np.empty(width), np.empty(width)
    for k in range(K):
        for r in range(0, T, n):
            x = p.value[k, r : r + n]
            m, v = (s[: x.size].reshape(x.shape) for s in scratch)
            np.matmul(rows_t[k, r : r + n], A[k], out=m)
            np.matmul(R2[k, r : r + n], p.v[k], out=v)
            np.maximum(v, 0.0, out=v)  # not fmax: a NaN stays NaN
            np.sqrt(v, out=v)
            v += eps
            x -= np.divide(m, v, out=m)


def _adam_chunks(x, m, v, g, step, eps, scratch):
    """Adam's elementwise update of C-order x, m and v, in place from g, one chunk
    at a time through the two scratch buffers of _ADAM_CHUNK elements: 12 passes
    over a chunk, x -= step m / (sqrt(v) + eps) after the textbook m and v."""
    flat = [a.reshape(-1) for a in (x, m, v, g)]
    for i in range(0, flat[0].size, _ADAM_CHUNK):
        x, m, v, g = (a[i : i + _ADAM_CHUNK] for a in flat)
        t1, t2 = (s[: g.size] for s in scratch)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=t1)
        np.multiply(g, g, out=t1)
        v *= ADAM_BETA2
        v += np.multiply(t1, 1.0 - ADAM_BETA2, out=t1)
        np.sqrt(v, out=t2)
        t2 += eps
        x -= np.multiply(np.divide(m, t2, out=t1), step, out=t1)


def init_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# --- layers ------------------------------------------------------------------


class Linear:
    """Fully connected layer x @ w + b over x's last axis: w[n_in, n_out]
    uniform in +-1/sqrt(n_in) and b zero, named {name}.w and {name}.b."""

    def __init__(self, rng, n_in, n_out, name):
        self.w = Parameter(init_uniform(rng, (n_in, n_out), n_in), f"{name}.w")
        self.b = Parameter(np.zeros(n_out), f"{name}.b")

    def params(self):
        return [self.w, self.b]

    def __call__(self, x):
        return add(matmul(x, self.w), self.b)


class AttentionParams:
    """Layers of one pre-norm residual attention stack (single head): the
    q, k, v and o projections of width `width`, then the FFN through
    `ffn_width`; the parameters are named {prefix}.{layer}.w / .b."""

    def __init__(self, rng, width, ffn_width, prefix):
        self.layers = [Linear(rng, width, width, f"{prefix}.{t}") for t in "qkvo"] + [
            Linear(rng, width, ffn_width, f"{prefix}.ffn1"),
            Linear(rng, ffn_width, width, f"{prefix}.ffn2"),
        ]
        self.q, self.k, self.v, self.o, self.ffn1, self.ffn2 = self.layers

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


def attention_block(x, p):
    """Pre-norm residual block: x + Attn(norm(x)), then + FFN(norm(.)).

    x has shape [..., M, width]; attention mixes the M tokens. Single
    head, scores scaled by 1/sqrt(width), softmax over the key axis; the
    norms are standardize_lastdim.
    """
    width = x.shape[-1]
    n1 = standardize_lastdim(x)
    q, k, v = p.q(n1), p.k(n1), p.v(n1)
    scores = scale(matmul(q, swap_last2(k)), 1.0 / np.sqrt(width))
    att = matmul(softmax_lastdim(scores), v)
    x = add(x, p.o(att))
    n2 = standardize_lastdim(x)
    return add(x, p.ffn2(relu(p.ffn1(n2))))


# --- binary tensor container --------------------------------------------------

_MAGIC = b"FBMCKPT1"


@contextlib.contextmanager
def _replacing(path, mode="xb", encoding=None):
    """A new file beside `path` that replaces it (keeping its mode) when the block
    ends; if the block fails, any previous file at `path` stays as it was."""
    path = os.path.realpath(path)  # a symlink stays and its target is replaced
    if os.path.isdir(path):  # refused before the block does its work, not at the replace
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    f = open(tmp, mode, encoding=encoding)
    try:
        if os.path.exists(path):  # keep the mode of the file being replaced
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tensors(path, named, header=None):
    """Write (name, array) records after an optional key=value text header;
    an entry that would not read back as the same key and value is refused.

    The records go to a new file that replaces `path` (`_replacing`), so a
    write that fails midway leaves any previous file at `path` as it was.
    """
    lines = []
    for k, v in (header or {}).items():
        line = f"{k}={v}"
        if "=" in str(k) or line.splitlines() != [line]:
            raise CheckpointError(f"header entry {line!r} does not fit one key=value line")
        lines.append(line)
    hbytes = "\n".join(lines).encode("utf-8")
    with _replacing(path) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for name, arr in named:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_tensors(path):
    """Read a container written by save_tensors: (header dict, [(name, array)]).
    Records are read one at a time, each straight into its own array."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read container: {e}") from None
    with f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a tensor container (bad magic)")

        def fits(n, what):
            if f.tell() + n > size:
                raise CheckpointError(f"{path}: truncated while reading {what}")
            return n

        def take(n, what):
            return f.read(fits(n, what))

        def text(n, what):
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: {what} is not UTF-8 text") from None

        (hlen,) = struct.unpack("<I", take(4, "header length"))
        header = {}
        if hlen:
            for line in text(hlen, "header").splitlines():
                if line:
                    k, _, v = line.partition("=")
                    header[k] = v
        records = []
        while f.tell() < size:
            (nlen,) = struct.unpack("<I", take(4, "name length"))
            name = text(nlen, f"name of tensor {len(records)}")
            (rank,) = struct.unpack("<I", take(4, "rank"))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape")) if rank else ()
            count = fits(8 * math.prod(shape), f"data of {name}") // 8
            records.append((name, np.fromfile(f, dtype="<f8", count=count).reshape(shape)))
        return header, records
