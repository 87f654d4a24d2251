"""Reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run tape: each op wraps its numpy result in a Tensor and, when an
input needs a gradient, a graph node (_Node) holding one edge per tracked
input, a (parent, vjp) pair whose closure maps the output gradient to that
parent's gradient. The parent is the input's node (a leaf, a Parameter or a
tracked input, is its own node), never the input Tensor, and each vjp keeps
only what it reads (shapes, the other operand's array, relu's input, sqrt's
and softmax's output), so a value no VJP reads goes when the forward drops
its Tensor. An input that needs no gradient (a constant such as a basis
table) gets no edge, so its gradient is never computed. backward() walks the
recorded graph once in reverse topological order and consumes it: each node
drops its edges once its VJPs have run, so a value a VJP kept is freed when
its last consumer is done, and the tape is gone before the optimizer step. A
released node stays tracked, and a later backward that reaches it raises
RuntimeError; to differentiate twice, build the forward again. Gradients land
on leaf tensors only (Parameters and explicitly tracked inputs) and
accumulate there until zeroed, so one forward/backward per batch composes
with plain Python control flow.

A Parameter owns its optimizer step, _moment_shapes() and _adam(). A grid
weight (GridWeight) is a Parameter w[K, T, width] built with the constant
basis rows[K, c, T] that multiply it bin by bin: matmul(rows, w) is the only
op it enters, and its own two methods keep its gradient, Adam moments and
steps per bin, so no full-size gradient or moment is ever written.

A Layer is anything that holds weights: its params() lists the Parameters
its attributes hold (through nested Layers, lists and tuples; a config, a
constant Tensor, an array or a function holds none), each once, in the order
the attributes were first set. So a weight is declared once, by its
assignment, and a constructor's assignment order is the parameter order that
checkpoints record.

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

from .errors import CheckpointError, reading

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


class _Node:
    """A tracked op result's place on the tape: its edges, None once backward released them."""

    __slots__ = ("_edges",)

    def __init__(self, edges):
        self._edges = edges


class Tensor:
    __slots__ = ("value", "_grad", "requires_grad", "_node")
    _edges = ()  # a leaf is its own node, with no edges

    def __init__(self, value, requires_grad=False):
        if np.iscomplexobj(value):
            raise TypeError("Tensor payloads must be real, got complex")
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def grad(self):
        """The accumulated gradient as an array, or None."""
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad = g

    # read off the array held, so a GridWeight's fold no steps
    @property
    def shape(self):
        return Tensor.value.__get__(self).shape

    @property
    def ndim(self):
        return Tensor.value.__get__(self).ndim

    @property
    def size(self):
        return Tensor.value.__get__(self).size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

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
    update: the moments m and v, shaped like the value. It owns its value when
    no caller holds that array (one _init_weight drew, a record a load read, or a
    copy _own made); Adam writes the array _own returns, the value itself only
    when it is owned. snapshot() and restore() take its state and bring it back;
    settle() makes a forward read what a model loaded from the value reads."""

    __slots__ = ("name", "m", "v", "step", "_owns")

    def __init__(self, value, name):
        super().__init__(value, requires_grad=True)
        self.name = str(name)
        self.m = self.v = None
        self.step = 0

    @property
    def value(self):
        return Tensor.value.__get__(self)

    @value.setter
    def value(self, value):
        Tensor.value.__set__(self, value)
        self._owns = False  # the caller's array

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"

    def _own(self):
        """The value as an owned C-order array, copied there first if it is not one."""
        w = Tensor.value.__get__(self)
        if not (self._owns and w.flags.c_contiguous):
            w = np.array(w, order="C")
            Parameter.value.fset(self, w)
            self._owns = True
        return w

    def settle(self):
        """Make a forward read what a model loaded from the value reads: nothing to do
        but for a GridWeight."""

    def snapshot(self):
        """The state restore() brings back: a copy of the value (a GridWeight's is its steps)."""
        return Tensor.value.__get__(self).copy()

    def restore(self, state):
        """Bring back the value a snapshot() copied, bit for bit, writing the owned array."""
        np.copyto(self._own(), state)

    def _moment_shapes(self):
        """The shapes of the gradient and m, and of v: the value's."""
        return self.shape, self.shape

    def _adam(self, step, eps):
        """Adam's elementwise update of the owned value, m and v, in place from the gradient,
        one chunk at a time through its own two buffers of up to _ADAM_CHUNK elements: 12
        passes over a chunk, x -= step m / (sqrt(v) + eps) after the textbook m and v."""
        flat = [a.reshape(-1) for a in (self._own(), self.m, self.v, np.ascontiguousarray(self._grad))]
        scratch = np.empty((2, min(flat[0].size, _ADAM_CHUNK)))
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


class GridWeight(Parameter):
    """A grid weight w[K, T, width] and the constant rows[K, c, T] that multiply it
    bin by bin; matmul takes it after these rows alone, the same array, so the rows
    must not change. Its gradient is the per-bin g[K, c, width] of that product
    (slab k of the dense one is rows_t[k] @ g[k], rows_t the rows' [K, T, c] view,
    a product with a small inner dimension c), which .grad reads as the dense
    array and which no dense array may replace.

    Its Adam moments are factors, exactly in real arithmetic: m = A[K, c, width],
    with m[k] = rows_t[k] @ A[k] and A updated from g as m is, and
    v = Q[K, c(c+1)/2, width], with v[k] = R2[k] @ Q[k] and Q updated from the
    pairwise products g_i g_j (i <= j), R2 holding the rows' matching products
    with the off-diagonal ones doubled. Rows that repeat bitwise with a period P
    dividing T (a Fourier bin at frequency f repeats every T/gcd(f, T) rows) give
    moments and a step that repeat, so a step reads back only a bin's first h
    rows: h = P (T where the rows do not repeat), or P/2 where a period's second
    half is its first negated bit for bit (a Fourier bin's, Nyquist aside), since
    negating a row negates every product and sum of its m and none of its v.
    `factors` holds each bin's period and fold and the period groups, the bins of
    one h (15 groups at T = 336) with R2 over their h read-back rows alone, read
    off the rows at the first update (_moment_factors). That update also cuts
    each group once into chunks (_read_back_chunks): a few whole bins, or one row
    block of a longer bin. Chunk by chunk, step m and v are read back as stacked
    GEMMs of each bin's own shapes, v clamped at 0 (it can cancel slightly
    below), and give adam_step's step s.

    From its first Adam step, or its load, until .value is assigned it is held:
    as w0, its base (the value it was drawn, loaded or assigned with, or last
    folded into), owned and read-only; D, the sum of every step since w0, one
    [bins, h, width] array per period group, made at the first step after w0;
    and matmul's table. The table is bit for bit np.matmul(rows, value) after
    settle(), and within roundoff of it between settles. settle() builds it bin
    by bin as rows[k] @ (w0[k] + tile(D[k])) through one [T, width] buffer (the
    second half-period of a folding bin takes -D[k]); a chunk's step s is
    subtracted from D, and (T/h) rows[bins, :, :h] @ s from a copy of the table:
    rows @ tile(s) exactly in real arithmetic, as the rows repeat (and fold)
    with the steps. The copy, read-only, replaces the table, so a product a
    forward returned is never written. Reading .value folds: w0 += tile(D) in
    place, the same bits as the buffer's sum, and D goes; a fold touches only w0
    and D. w0 stays read-only, so a write through it, or through a view made of
    it since the first step, raises; an array .value returned before the weight
    was held is the caller's, and the hold copies it. snapshot() is a copy of D;
    restore() copies it back and settles, so the weight stays held. A snapshot
    taken before a fold, or before .value was assigned, was taken of another w0,
    and restoring it raises. Assigning .value is how to change a trained weight:
    it drops D and the table. A forward only reads.

    Not bitwise dense Adam: where a gradient entry is small next to its per-bin
    terms, v's cancellation moves its step; the value takes one rounding per fold
    instead of one per step (D starts at zero, so a single step gives
    w0 + (0 - s), bitwise w0 - s); and the table between settles takes one per
    step, so it is rows @ the value only within roundoff."""

    __slots__ = ("rows", "factors", "_chunks", "_table", "_delta", "_base")

    def __init__(self, value, name, rows):
        super().__init__(value, name)
        K, c, T = rows.shape
        if self.shape[:2] != (K, T) or c * (c + 3) // 2 >= 2 * T:
            raise ValueError(f"grid weight {self.name}{self.shape} does not fit factored rows {rows.shape}")
        self.rows, self.factors = rows, None

    @property
    def value(self):
        self._fold()
        self._owns &= self._table is not None  # handed out before the hold, which then copies it
        return Tensor.value.__get__(self)

    @value.setter
    def value(self, value):
        Parameter.value.fset(self, value)
        self._table = self._delta = None
        self._base = object()  # names this w0 in a snapshot

    @property
    def grad(self):
        """The dense gradient rows^T @ g, or None; the weight keeps g."""
        return None if self._grad is None else np.matmul(np.swapaxes(self.rows, -1, -2), self._grad)

    @grad.setter
    def grad(self, g):
        if g is not None:
            raise ValueError(f"grid weight {self.name} takes its gradient per bin, from matmul with its rows")
        self._grad = None

    def settle(self):
        """Hold the weight, w0 the owned C-order array _own returns, read-only, and build
        its table rows @ (w0 + tile(D)), bin by bin through one [T, width] buffer."""
        w = self._own()
        w.flags.writeable = False
        if self._delta is None:
            table = np.matmul(self.rows, w)
        else:
            table, buf = np.empty(self.rows.shape[:2] + w.shape[-1:]), np.empty(w.shape[1:])
            for k, P, d in self._steps():
                np.copyto(buf, w[k])
                self._add_steps(buf, P, d)
                np.matmul(self.rows[k], buf, out=table[k])
        table.flags.writeable = False
        self._table = table

    def snapshot(self):
        """The state restore() brings back: w0's name and a copy of D."""
        return self._base, None if self._delta is None else [d.copy() for d in self._delta]

    def restore(self, state):
        """Bring back D from a snapshot() of this w0, then settle."""
        base, delta = state
        if base is not self._base:
            raise ValueError(f"grid weight {self.name}'s base was folded or assigned since this snapshot")
        self._delta = None  # let go first: no third sum of steps is alive during the copy
        self._delta = None if delta is None else [d.copy() for d in delta]
        self.settle()

    def _steps(self):
        """Each bin k with its period and its D[k], [h, width], group by group."""
        periods, _, groups = self.factors
        for (bins, _), d in zip(groups, self._delta):
            for k, dk in zip(bins, d):
                yield k, periods[k], dk

    @staticmethod
    def _add_steps(x, P, d):
        """x[T, width] += tile(d), the second half-period of a folding bin taking -d."""
        x = x.reshape(len(x) // P, P // len(d), *d.shape)  # [period, half, row, column]
        x[:, 0] += d
        x[:, 1:] -= d  # empty unless the bin folds

    def _fold(self):
        """w0 += tile(D) in place, after which D goes and w0 is a new base; the table stays."""
        if self._delta is None:
            return
        w = Tensor.value.__get__(self)
        w.flags.writeable = True
        for k, P, d in self._steps():
            self._add_steps(w[k], P, d)
        w.flags.writeable = False
        self._delta, self._base = None, object()

    def _moment_shapes(self):
        """The shapes of the per-bin g and A, [K, c, width], and of Q, [K, c(c+1)/2, width]."""
        (K, c, _), width = self.rows.shape, self.shape[-1]
        return (K, c, width), (K, c * (c + 1) // 2, width)

    def _adam(self, step, eps):
        """Adam's update from the g of its per-bin gradient: A and Q from g, then chunk by
        chunk (see _read_back_chunks), with step A taken a period group at a time: step m
        and v read back into the chunk's own buffers, the step s = step m / (sqrt(v) + eps')
        as Parameter._adam takes it subtracted from D, and (T/h) rows @ s from a copy of the
        table, which then replaces it."""
        g = self._grad
        i, j = np.triu_indices(g.shape[1])
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * (g[:, i] * g[:, j])  # its temporaries go before D is made
        if self.factors is None:
            self.factors = _moment_factors(self.rows)
            self._chunks = _read_back_chunks(self.rows, self.factors[2], self.shape[-1])
        if self._table is None:
            self.settle()
        if self._delta is None:
            self._delta = [np.zeros(R2.shape[:2] + self.shape[-1:]) for _, R2 in self.factors[2]]
        table, T = self._table.copy(), self.shape[1]
        for (bins, _), d, chunks in zip(self.factors[2], self._delta, self._chunks):
            A, repeats = self.m[bins] * step, T // d.shape[1]  # A reads back as step m, the step's numerator
            for b, r, ks, rows, rows_t, R2, m, v in chunks:
                np.matmul(rows_t, A[b], out=m)
                np.matmul(R2, self.v[ks], out=v)
                np.maximum(v, 0.0, out=v)  # not fmax: a NaN stays NaN
                np.sqrt(v, out=v)
                v += eps
                delta = d[b, r]
                delta -= np.divide(m, v, out=m)  # m is the step from here
                table[ks] -= repeats * np.matmul(rows, m)
        table.flags.writeable = False
        self._table = table


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(value, *edges):
    """Wrap an op's result. Each edge is (input, vjp), vjp mapping the output
    gradient to that input's gradient; only the edges of inputs that require
    grad are kept (none under no_grad), each pointing at the input's node, and
    the result is tracked, with a node, exactly when it keeps an edge. A
    GridWeight's only edge is matmul's, after its rows."""
    out = Tensor(value)
    if _grad_enabled.get():
        kept = tuple((p._node or p, vjp) for p, vjp in edges if p.requires_grad)
        for p, vjp in kept:
            if type(p) is GridWeight and vjp is not _per_bin:
                raise ValueError(f"grid weight {p.name} enters no op but matmul after its rows")
        if kept:
            out._node, out.requires_grad = _Node(kept), True
    return out


def _per_bin(g):
    """A GridWeight's gradient from the gradient of matmul(its rows, it): g itself."""
    return g


def _unbroadcast(g, shape):
    # sum the gradient over broadcast axes back to the input's shape
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# Each VJP closes over arrays and shapes, never over an input Tensor, so it keeps
# only what it reads (see the module docstring).
def _broadcast_op(value, a, b, da, db):
    """A binary op's result over numpy broadcasting: da and db map the output
    gradient to a's and b's before _unbroadcast sums it back to that input's shape."""
    sa, sb = a.shape, b.shape
    return _from_op(value, (a, lambda g: _unbroadcast(da(g), sa)),
                    (b, lambda g: _unbroadcast(db(g), sb)))


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _broadcast_op(a.value + b.value, a, b, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _broadcast_op(a.value - b.value, a, b, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    return _broadcast_op(av * bv, a, b, lambda g: g * bv, lambda g: g * av)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.value, b.value
    return _broadcast_op(av / bv, a, b, lambda g: g / bv, lambda g: -g * av / (bv * bv))


def neg(a):
    a = _as_tensor(a)
    return _from_op(-a.value, (a, lambda g: -g))


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    return _from_op(a.value * s, (a, lambda g: g * s))


def relu(a):
    a = _as_tensor(a)
    x = a.value
    return _from_op(np.maximum(x, 0.0), (a, lambda g: g * (x > 0.0)))


def sqrt(a):
    a = _as_tensor(a)
    out_val = np.sqrt(a.value)
    return _from_op(out_val, (a, lambda g: g * (0.5 / out_val)))


def matmul(a, b):
    """a @ b over the last two axes. A stack a[..., n, k] times one matrix
    b[k, m] folds a's leading axes into its rows, so the forward and each
    gradient are one 2-D GEMM, which BLAS may sum in another order than
    np.matmul's per-matrix loop (equal at roundoff). A GridWeight b is taken
    after its own constant rows alone: the output is its held table (rows @ w0
    while it is not held), never written afterwards, and b gets the output's
    gradient as its per-bin g."""
    a, b = _as_tensor(a), _as_tensor(b)
    if isinstance(b, GridWeight):  # its table, from the weight as it holds itself
        if a.value is not b.rows or a.requires_grad:
            raise ValueError(f"grid weight {b.name} is multiplied by its own constant rows array only")
        table = np.matmul(b.rows, Tensor.value.__get__(b)) if b._table is None else b._table
        return _from_op(table, (b, _per_bin))
    av, bv, sa = a.value, b.value, a.shape
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul expects tensors of rank >= 2")
    if av.ndim > 2 and bv.ndim == 2:
        rows = (-1, sa[-1])
        out = np.matmul(av.reshape(rows), bv)
        return _from_op(
            out.reshape(sa[:-1] + out.shape[-1:]),
            (a, lambda g: np.matmul(g.reshape(-1, g.shape[-1]), bv.T).reshape(sa)),
            (b, lambda g: np.matmul(av.reshape(rows).T, g.reshape(-1, g.shape[-1]))),
        )
    a_t, b_t = np.swapaxes(av, -1, -2), np.swapaxes(bv, -1, -2)
    return _broadcast_op(np.matmul(av, bv), a, b, lambda g: np.matmul(g, b_t), lambda g: np.matmul(a_t, g))


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
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
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
    shape = a.shape
    val = a.value.sum(axis=axis, keepdims=keepdims)
    return _from_op(val, (a, lambda g: _spread(g, axis, keepdims, shape)))


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    shape = a.shape
    val = a.value.mean(axis=axis, keepdims=keepdims)
    count = a.value.size / max(val.size, 1)
    return _from_op(val, (a, lambda g: _spread(g, axis, keepdims, shape) / count))


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
            if p._grad is None:  # a grid weight's is per bin
                p._grad = np.zeros(p._moment_shapes()[0])


def _backward_walk(loss):
    root = loss._node or loss
    topo = []
    visited = set()
    stack = [(root, False)]
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
    grads = {id(root): np.ones_like(loss.value)}
    while topo:
        node = topo.pop()
        g, edges = grads.pop(id(node)), node._edges
        if not edges:
            node._grad = g if node._grad is None else node._grad + g
            continue
        node._edges = None  # released; still tracked, so a later backward through it raises
        for parent, vjp in edges:
            pg, key = vjp(g), id(parent)
            grads[key] = grads[key] + pg if key in grads else pg


def zero_grads(params):
    for p in params:
        p.grad = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per pass of adam_step: a chunk's operands stay in cache. A grid weight's
# read-back chunk takes a longer bin in row blocks of about a chunk and shorter bins
# whole, up to _ADAM_BINS chunks' rows of them: at width 96 its Adam step took 1%, 5%
# and 30% longer with up to 1 or 3 chunks' rows, or whole groups, than with 2.
_ADAM_CHUNK = 1 << 14
_ADAM_BINS = 2


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
    bit. A first update makes m and v. A value the parameter does not own, or
    one not C-contiguous, is replaced by a C-order copy before it is first
    written (Parameter._own), so the array a caller built a parameter from, or
    assigned to it, is never written; a drawn weight is written in place from
    the first step on. An untrained model holds no copy and no moments. Each
    parameter takes the step through its own _adam: a GridWeight's, through
    per-bin factors, is within roundoff of the dense step (see GridWeight).
    """
    # First updates get m and v as C-order views of one zeroed block, mapped on its own.
    # Made one by one as each first update runs, they sit in the heap between that
    # step's temporaries: a later train-s step then took 16.3k minor faults, against
    # 3.2k with the block (perfbench's run at seed 1, medians of timed steps 3-10).
    fresh = [p for p in params if p._grad is not None and p.m is None]
    shapes = [s for p in fresh for s in p._moment_shapes()]
    offsets = np.cumsum([0] + [math.prod(s) for s in shapes])
    block = np.zeros(offsets[-1])
    views = [block[a:b].reshape(s) for a, b, s in zip(offsets, offsets[1:], shapes)]
    for p, m, v in zip(fresh, views[::2], views[1::2]):
        p.m, p.v = m, v
    for p in params:
        if p._grad is None:
            continue
        p.step += 1
        c1, c2 = 1.0 - ADAM_BETA1**p.step, 1.0 - ADAM_BETA2**p.step
        step, eps = lr * math.sqrt(c2) / c1, ADAM_EPS * math.sqrt(c2)
        p._adam(step, eps)
        p._grad = None


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)  # a float64's sign bit, in its int64 view


def _moment_factors(rows):
    """(P, folded, groups) of a grid weight's rows[K, c, T]. P[k] is bin k's period:
    the least P dividing T with rows[k, :, n + P] bitwise equal to rows[k, :, n] for
    every n, T where the rows do not repeat. folded[k] says P is even and rows P/2
    to P - 1 are rows 0 to P/2 - 1 with the sign bit flipped, compared bin by bin
    (a +0.0 row, as Nyquist's sine, is not -0.0: no fold). Bin k reads back its
    first h rows, h = P/2 where it folds and P elsewhere. groups has one (bins, R2)
    per distinct h, ascending: the bins that read back h rows, ascending, and
    R2[len(bins), h, c(c+1)/2], the pairwise products of those rows with the
    off-diagonal ones doubled (see adam_step), the only rows a step reads."""
    K, c, T = rows.shape
    # bitwise: -0.0 is not 0.0, and a NaN is itself; a C-order copy, as the compares
    # run several times faster over it than over the strided view
    bits = np.ascontiguousarray(np.swapaxes(rows, -1, -2)).view(np.int64)
    periods = np.full(K, T)
    for P in range(T - 1, 0, -1):  # one compare per divisor over every bin; the least wins
        if T % P == 0:
            periods[(bits[:, P:] == bits[:, :-P]).all(axis=(1, 2))] = P
    folded = np.array([P % 2 == 0 and np.array_equal(bits[k, P // 2 : P] ^ _SIGN_BIT, bits[k, : P // 2])
                       for k, P in enumerate(periods)], dtype=bool)
    del bits  # R2 is built once the copy is gone, a column at a time with no temporary
    read_back = np.where(folded, periods // 2, periods)
    groups = []
    for h in sorted(set(read_back.tolist())):
        bins = np.flatnonzero(read_back == h)
        R2 = np.empty((len(bins), h, c * (c + 1) // 2))
        for n, (i, j) in enumerate(zip(*np.triu_indices(c))):
            for b, k in enumerate(bins):  # bin by bin: over a stack, numpy buffers the strided rows
                np.multiply(rows[k, i, :h], rows[k, j, :h], out=R2[b, :, n])
            if i < j:
                R2[..., n] *= 2.0
        groups.append((bins, R2))
    return periods, folded, groups


def _read_back_chunks(rows, groups, width):
    """A grid weight's read-back cut once into chunks, one list per group, n =
    _ADAM_CHUNK // width rows (1 if a row is wider) being about a chunk: a bin of more
    than n rows in ceil(h / n) near-equal row blocks, each a chunk of its own, shorter
    bins whole, up to _ADAM_BINS * n rows of them a chunk. So each bin's products keep
    the GEMM shapes they have alone. A chunk is [its bins in the group (a number for a
    bin alone, which makes its operands [rows, width] as a bin's own are, else a
    slice), its rows, those bins in the weight (a number, else an index array), their
    rows[bins, c, rows] (a view of rows for a bin alone, else a copy of those rows
    only), its rows_t, R2[bins, rows], and its m and v buffers, views of one scratch
    array kept with the chunks]."""
    n = max(_ADAM_CHUNK // width, 1)
    chunks = []
    for bins, R2 in groups:
        h = R2.shape[1]
        if h > n:
            blocks = -(-h // n)
            cuts = [(slice(b, b + 1), slice(r * h // blocks, (r + 1) * h // blocks))
                    for b in range(len(bins)) for r in range(blocks)]
        else:  # at width 1 a bin alone: a one-column product (gemv) rounds by the rows' stride
            per = max(_ADAM_BINS * n // h, 1) if width > 1 else 1
            cuts = [(slice(b, b + per), slice(0, h)) for b in range(0, len(bins), per)]
        chunks.append([])
        for b, r in cuts:
            ks = bins[b]
            if len(ks) == 1:
                b, ks = b.start, ks[0]
            chunk_rows = rows[ks, :, r]
            chunks[-1].append([b, r, ks, chunk_rows, np.swapaxes(chunk_rows, -1, -2), R2[b, r]])
    every = [chunk for group in chunks for chunk in group]
    scratch = np.empty((2, max(chunk[-1].size // chunk[-1].shape[-1] for chunk in every) * width))
    for chunk in every:
        R2 = chunk[-1]
        chunk.extend(scratch[:, : R2.size // R2.shape[-1] * width].reshape((2,) + R2.shape[:-1] + (width,)))
    return chunks


def init_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


_UNDRAWN = object()  # a generator's stand-in for a model whose weights a checkpoint replaces


def _init_weight(rng, shape, fan_in, name, rows=None):
    """A Parameter (a GridWeight over `rows`, if given) owning init_uniform's draw, so
    adam_step writes that array from the first step on; for _UNDRAWN, over a
    read-only zero view of one number: nothing drawn."""
    value = np.broadcast_to(0.0, shape) if rng is _UNDRAWN else init_uniform(rng, shape, fan_in)
    p = Parameter(value, name) if rows is None else GridWeight(value, name, rows)
    p._owns = rng is not _UNDRAWN
    return p


# --- layers ------------------------------------------------------------------


def _held(items):
    """The Parameters among `items`, and those held by the Layers, lists and tuples among them."""
    for x in items:
        if isinstance(x, Parameter):
            yield x
        elif isinstance(x, Layer):
            yield from _held(vars(x).values())
        elif isinstance(x, (list, tuple)):
            yield from _held(x)


class Layer:
    """Anything that holds weights; params() is described in the module docstring."""

    def params(self):
        return list({id(p): p for p in _held(vars(self).values())}.values())


class Linear(Layer):
    """Fully connected layer x @ w + b over x's last axis: w[n_in, n_out]
    uniform in +-1/sqrt(n_in) and b zero, named {name}.w and {name}.b."""

    def __init__(self, rng, n_in, n_out, name):
        self.w = _init_weight(rng, (n_in, n_out), n_in, f"{name}.w")
        self.b = Parameter(np.zeros(n_out), f"{name}.b")

    def __call__(self, x):
        return add(matmul(x, self.w), self.b)


class AttentionParams(Layer):
    """Layers of one pre-norm residual attention stack (single head): the
    q, k, v and o projections of width `width`, then the FFN through
    `ffn_width`; the parameters are named {prefix}.{layer}.w / .b."""

    def __init__(self, rng, width, ffn_width, prefix):
        self.q, self.k, self.v, self.o = (Linear(rng, width, width, f"{prefix}.{t}") for t in "qkvo")
        self.ffn1 = Linear(rng, width, ffn_width, f"{prefix}.ffn1")
        self.ffn2 = Linear(rng, ffn_width, width, f"{prefix}.ffn2")


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
            arr = np.asarray(arr, dtype="<f8", order="C")  # the byte order _read reads; 0-d stays 0-d
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.data)  # from the array's own buffer, not a copy of it


def _read(path):
    """The container at `path` as a generator: its header dict, then its (name, array)
    records, each read straight into its own array as it is asked for."""
    with reading(path, CheckpointError, "container", binary=True) as f:
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
        yield header
        index = 0
        while f.tell() < size:
            (nlen,) = struct.unpack("<I", take(4, "name length"))
            name = text(nlen, f"name of tensor {index}")
            (rank,) = struct.unpack("<I", take(4, "rank"))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape")) if rank else ()
            count = fits(8 * math.prod(shape), f"data of {name}") // 8
            yield name, np.fromfile(f, dtype="<f8", count=count).reshape(shape)
            index += 1


def _read_header(path):
    """The header dict of the container at `path`, its records left unread."""
    with contextlib.closing(_read(path)) as container:
        return next(container)


def load_tensors(path):
    """Read a container written by save_tensors: (header dict, [(name, array)]).
    Records are read one at a time, each straight into its own array."""
    container = _read(path)
    return next(container), list(container)
