"""Reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run tape: each op wraps its numpy result in a Tensor that
remembers its parents and a closure mapping the output gradient to input
gradients. backward() walks the recorded graph once in reverse
topological order. Gradients land on leaf tensors only (Parameters and
explicitly tracked inputs) and accumulate there until zeroed, so one
forward/backward per batch composes with plain Python control flow.

Everything is float64. Inputs are coerced on construction; complex
payloads are rejected by the cast. Broadcasting follows numpy's
trailing-dim rules and gradients are summed back to the original shapes.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError

_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording (evaluation mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad=False):
        if np.iscomplexobj(value):
            raise TypeError("Tensor payloads must be real, got complex")
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

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
    """Trainable leaf tensor with its Adam state riding along."""

    __slots__ = ("name", "m", "v", "step")

    def __init__(self, value, name):
        super().__init__(value, requires_grad=True)
        self.name = str(name)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(value, parents, vjp):
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(value, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._vjp = vjp
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

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return _from_op(a.value + b.value, (a, b), vjp)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return _from_op(a.value - b.value, (a, b), vjp)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        return (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        )

    return _from_op(a.value * b.value, (a, b), vjp)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        ga = g / b.value
        gb = -g * a.value / (b.value * b.value)
        return _unbroadcast(ga, a.value.shape), _unbroadcast(gb, b.value.shape)

    return _from_op(a.value / b.value, (a, b), vjp)


def neg(a):
    a = _as_tensor(a)
    return _from_op(-a.value, (a,), lambda g: (-g,))


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)
    return _from_op(a.value * s, (a,), lambda g: (g * s,))


def relu(a):
    a = _as_tensor(a)
    mask = a.value > 0.0
    return _from_op(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sqrt(a):
    a = _as_tensor(a)
    out_val = np.sqrt(a.value)
    return _from_op(out_val, (a,), lambda g: (g * (0.5 / out_val),))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul expects tensors of rank >= 2")

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.value, -1, -2))
        gb = np.matmul(np.swapaxes(a.value, -1, -2), g)
        return _unbroadcast(ga, a.value.shape), _unbroadcast(gb, b.value.shape)

    return _from_op(np.matmul(a.value, b.value), (a, b), vjp)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _from_op(
        np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, inverse),)
    )


def swap_last2(a):
    a = _as_tensor(a)
    perm = tuple(range(a.value.ndim - 2)) + (a.value.ndim - 1, a.value.ndim - 2)
    return transpose(a, perm)


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.value.shape
    return _from_op(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def tslice(a, idx):
    a = _as_tensor(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[idx] = g
        return (out,)

    return _from_op(a.value[idx], (a,), vjp)


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.value.shape),)

    return _from_op(val, (a,), vjp)


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    val = a.value.mean(axis=axis, keepdims=keepdims)
    count = a.value.size / max(val.size, 1)

    def vjp(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.value.shape) / count,)

    return _from_op(val, (a,), vjp)


def softmax_lastdim(a):
    a = _as_tensor(a)
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _from_op(y, (a,), vjp)


def standardize_lastdim(x, eps=1e-5):
    """(x - mean) / sqrt(var + eps) over the last axis, no affine part."""
    return _standardize(x, eps)[0]


def _standardize(x, eps):
    """standardize_lastdim, also returning the mean and std it divided by."""
    mu = reduce_mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = reduce_mean(mul(xc, xc), axis=-1, keepdims=True)
    std = sqrt(add(var, eps))
    return div(xc, std), mu, std


def backward(loss, params=None):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad.

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
            if p.grad is None:
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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg


def zero_grads(params):
    for p in params:
        p.grad = None


def adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction; consumed grads are zeroed."""
    for p in params:
        g = p.grad
        if g is None:
            continue
        p.step += 1
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        mhat = p.m / (1.0 - beta1**p.step)
        vhat = p.v / (1.0 - beta2**p.step)
        p.value = p.value - lr * mhat / (np.sqrt(vhat) + eps)
        p.grad = None


def init_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# --- attention ---------------------------------------------------------------


class AttentionParams:
    """Weights for one pre-norm residual attention stack (single head)."""

    FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "w1", "b1", "w2", "b2")

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])

    @classmethod
    def build(cls, rng, width, ffn_width, prefix):
        def lin(tag, n_in, n_out):
            w = Parameter(init_uniform(rng, (n_in, n_out), n_in), f"{prefix}.{tag}.w")
            b = Parameter(np.zeros(n_out), f"{prefix}.{tag}.b")
            return w, b

        wq, bq = lin("q", width, width)
        wk, bk = lin("k", width, width)
        wv, bv = lin("v", width, width)
        wo, bo = lin("o", width, width)
        w1, b1 = lin("ffn1", width, ffn_width)
        w2, b2 = lin("ffn2", ffn_width, width)
        return cls(wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo,
                   w1=w1, b1=b1, w2=w2, b2=b2)

    def params(self):
        return [getattr(self, f) for f in self.FIELDS]


def attention_block(x, p, eps=1e-5):
    """Pre-norm residual block: x + Attn(norm(x)), then + FFN(norm(.)).

    x has shape [..., M, width]; attention mixes the M tokens. Single
    head, scores scaled by 1/sqrt(width), softmax over the key axis.
    """
    width = x.shape[-1]
    n1 = standardize_lastdim(x, eps)
    q = add(matmul(n1, p.wq), p.bq)
    k = add(matmul(n1, p.wk), p.bk)
    v = add(matmul(n1, p.wv), p.bv)
    scores = scale(matmul(q, swap_last2(k)), 1.0 / np.sqrt(width))
    att = matmul(softmax_lastdim(scores), v)
    x = add(x, add(matmul(att, p.wo), p.bo))
    n2 = standardize_lastdim(x, eps)
    f = add(matmul(relu(add(matmul(n2, p.w1), p.b1)), p.w2), p.b2)
    return add(x, f)


# --- binary tensor container --------------------------------------------------

_MAGIC = b"FBMCKPT1"


def save_tensors(path, named, header=None):
    """Write (name, array) records after an optional key=value text header;
    an entry that would not read back as the same key and value is refused."""
    lines = []
    for k, v in (header or {}).items():
        line = f"{k}={v}"
        if "=" in str(k) or line.splitlines() != [line]:
            raise CheckpointError(f"header entry {line!r} does not fit one key=value line")
        lines.append(line)
    hbytes = "\n".join(lines).encode("utf-8")
    with open(path, "wb") as f:
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
    """Read a container written by save_tensors: (header dict, [(name, array)])."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read container: {e}") from None
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a tensor container (bad magic)")
    off = len(_MAGIC)

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        chunk = blob[off : off + n]
        off += n
        return chunk

    (hlen,) = struct.unpack("<I", take(4, "header length"))
    header = {}
    if hlen:
        for line in take(hlen, "header").decode("utf-8").splitlines():
            if line:
                k, _, v = line.partition("=")
                header[k] = v
    records = []
    while off < len(blob):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        name = take(nlen, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "shape")) if rank else ()
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * count, f"data of {name}"), dtype="<f8")
        records.append((name, data.reshape(shape).astype(np.float64)))
    return header, records
