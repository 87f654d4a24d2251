"""The direct paths the tests check fused, factored and grid-free code against,
each written once in plain numpy, a spec's parameter count in closed form
(expected_param_count), and the peak a call allocates (peak_bytes).

A grid weight's held layout (the `(periods, folded, groups)` tuple in
`GridWeight.factors`, and D as one [bins, h, width] array per period group in
`_delta`, `_steps()` and a snapshot) is unpacked here alone: the tests read it
through the helpers at the end.
"""

import math
import tracemalloc

import numpy as np

from fbm import autodiff as ad
from fbm import blocks as bl
from fbm import fourier as fb
from fbm.models import instance_standardize


# --- what a call allocates -------------------------------------------------------------


def peak_bytes(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- the tape's ops ------------------------------------------------------------------


def broadcast_matmul_grads(a, b, g):
    """The per-element VJP as oracle: b's gradient as a [..., k, m] stack, summed."""
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    return ga, gb.sum(axis=tuple(range(gb.ndim - 2)))


# --- Adam ----------------------------------------------------------------------------


def adam_scalars(t, lr):
    """adam_step's bias correction folded into two scalars: step = lr sqrt(c2) / c1 and eps' = eps sqrt(c2)."""
    c1, c2 = 1.0 - ad.ADAM_BETA1**t, 1.0 - ad.ADAM_BETA2**t
    return lr * math.sqrt(c2) / c1, ad.ADAM_EPS * math.sqrt(c2)


def adam_update(m, v, t, lr, folded=False):
    """The textbook update lr (m / c1) / (sqrt(v / c2) + eps); folded, adam_step's
    step m / (sqrt(v) + eps'), equal in real arithmetic."""
    if folded:
        step, eps = adam_scalars(t, lr)
        return m / (np.sqrt(v) + eps) * step
    return lr * (m / (1.0 - ad.ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ad.ADAM_BETA2**t)) + ad.ADAM_EPS)


def textbook_adam(value, m, v, g, t, lr, folded=False):
    """One whole-array Adam step with fresh temporaries: (value, m, v). m and v are the
    textbook's, which adam_step's are bit for bit; the value takes adam_update."""
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    return value - adam_update(m, v, t, lr, folded), m, v


# --- a grid weight's dense gradient and moments ---------------------------------------


def dense_grad(rows, g):
    """The dense gradient rows^T @ g of a per-bin g[K, c, width]."""
    return np.matmul(np.swapaxes(rows, -1, -2), g)


def full_factors(rows):
    """rows_t and R2 over every row of rows[K, c, T]: [K, T, c], their view, and
    [K, T, c(c+1)/2] in C order, the pairwise products as one expression with the
    off-diagonal ones doubled (C order: a one-column GEMM of its rows rounds by layout)."""
    rows_t = np.swapaxes(rows, -1, -2)
    i, j = np.triu_indices(rows.shape[1])
    return rows_t, np.ascontiguousarray(rows_t[..., i] * rows_t[..., j] * np.where(i < j, 2.0, 1.0))


def dense_moments(p):
    """The full-size m and v that grid weight p's factored moments stand for."""
    rows_t, R2 = full_factors(p.rows)
    return np.matmul(rows_t, p.m), np.matmul(R2, p.v)


def _read_back(p, t, lr):
    """s(k, r): the step adam_step takes on bin k's rows r, read back from p's factored
    moments on those rows themselves, step m / (sqrt(v) + eps') with v clamped at 0."""
    step, eps = adam_scalars(t, lr)
    rows_t, R2 = full_factors(p.rows)
    A = p.m * step

    def s(k, r):
        m, v = np.matmul(rows_t[k, r], A[k]), np.matmul(R2[k, r], p.v[k])
        return m / (np.sqrt(np.maximum(v, 0.0)) + eps)

    return s


def read_back_every_row(x, p, t, lr):
    """x after one factored Adam step from p's moments, with every bin's step read back
    on all T rows, in row blocks of about one chunk: no fold."""
    s = _read_back(p, t, lr)
    n = max(ad._ADAM_CHUNK // x.shape[-1], 1)
    out = x.copy()
    for k in range(x.shape[0]):
        for r in range(0, x.shape[1], n):
            out[k, r : r + n] -= s(k, slice(r, r + n))
    return out


def per_bin_read_back(table, delta, p, t, lr):
    """The read-back as a loop over bins, in place: bin k's first h rows in ceil(h / n)
    near-equal blocks of at most n rows, about a chunk, each block's step subtracted
    from delta[k] and (T/h) rows @ it from the table."""
    s = _read_back(p, t, lr)
    T, width = p.shape[1:]
    n = max(ad._ADAM_CHUNK // width, 1)
    for k, d in enumerate(delta):
        h = len(d)
        b = -(-h // n)
        for r in range(b):
            rows = slice(r * h // b, (r + 1) * h // b)
            step = s(k, rows)
            d[rows] -= step
            table[k] -= (T // h) * np.matmul(p.rows[k, :, rows], step)


# --- the DFT, and the spectrum and grid of a window batch -------------------------------


def naive_complex_dft(x):
    """The full T-point complex DFT by direct summation."""
    T = len(x)
    out = np.zeros(T, dtype=complex)
    for k in range(T):
        for n in range(T):
            out[k] += x[n] * np.exp(-2j * np.pi * k * n / T)
    return out


def naive_complex_idft(H):
    """Its inverse, by direct summation."""
    T = len(H)
    out = np.zeros(T, dtype=complex)
    for n in range(T):
        for k in range(T):
            out[n] += H[k] * np.exp(2j * np.pi * k * n / T)
    return out / T


def halves(X, standardize=False):
    """The DC-dropped spectrum halves [..., K] of windows X[..., T], standardized first
    by instance_standardize if asked."""
    H_R, H_I = fb.rdft_array(instance_standardize(X)[0] if standardize else X)
    return H_R[..., 1:], H_I[..., 1:]


def dense_grid(h_r, h_i):
    """DC-dropped halves [..., K] -> the grid [..., T, K] itself."""
    T = 2 * h_r.shape[-1]
    bases = fb.build_bases(T)
    return h_r[..., None, :] * bases.C[:, 1:] + h_i[..., None, :] * bases.S[:, 1:]


def direct_downsample(G, kernel):
    """A grid [..., t, f] averaged over each `kernel` time rows and summed over each
    `kernel` frequency columns."""
    *lead, t, f = G.shape
    x = G.reshape(*lead, t // kernel, kernel, f).mean(axis=-2)
    return x.reshape(*lead, t // kernel, f // kernel, kernel).sum(axis=-1)


# --- block paths on the dense grid -------------------------------------------------------


def direct_seasonal(W, H_R, H_I, T, L):
    """The seasonal filter as W slid over the padded per-frequency features."""
    bases = fb.build_bases(T, pad=L - 1)
    Cp, Sp = bases.C[:, 1:], bases.S[:, 1:]
    B, D, K = H_R.shape
    out = np.zeros((B, D, L))
    for b in range(B):
        for d in range(D):
            G_pad = H_R[b, d][None, :] * Cp + H_I[b, d][None, :] * Sp
            for v in range(L):
                out[b, d, v] = np.sum(W * G_pad[v : v + T, :])
    return out


def direct_linear_predict(model, X):
    """fbm-l as the dense grid times the flattened weight, time-major: index n * K + k."""
    spec = model.spec
    Xs, mu, sd = instance_standardize(X)
    flat = dense_grid(*halves(Xs)).reshape(X.shape[0], spec.D, -1)
    W_flat = np.transpose(model.blocks["fbm-l"].w.value, (1, 0, 2)).reshape(flat.shape[-1], spec.L)
    return flat @ W_flat * sd + mu


def direct_centralized_linear(cent, x, linear):
    """Standardize each patch x[..., D, P, N] (two-pass variance), gamma and
    beta, then the Linear: -> (y, mean, std)."""
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True) + bl.CENT_EPS)
    g, b = cent.gamma.value[:, None, None], cent.beta.value[:, None, None]
    return ((x - mean) / std * g + b) @ linear.w.value + linear.b.value, mean, std


def direct_scale(block, Gs):
    """One trend scale (or fbm-np) on its dense grid [B, D, T_s, K_s]."""
    B, D = Gs.shape[:2]
    if block.proj is None:
        return Gs.reshape(B, D, -1) @ block.out.w.value + block.out.b.value
    proj, cfg = block.proj, block.cfg
    y, mean, std = direct_centralized_linear(proj.cent, Gs.reshape(B, D, cfg.P, -1), proj.linear)
    if block.use_relu:
        y = np.maximum(y, 0.0)
    g, b = proj.cent.gamma.value[:, None, None], proj.cent.beta.value[:, None, None]
    y = (y - b) / g * std + mean
    if block.mid is not None:
        x = np.maximum(y.reshape(B, D, -1) @ block.mid.w.value + block.mid.b.value, 0.0)
    else:
        tokens = ad.Tensor(y.reshape(B * D, cfg.P, cfg.h1))
        with ad.no_grad():
            for stack in block.stacks:
                tokens = ad.attention_block(tokens, stack)
        x = tokens.value.reshape(B, D, -1)
    return x @ block.out.w.value + block.out.b.value


def direct_trend(block, G):
    return sum(direct_scale(s, G if k == 1 else direct_downsample(G, k)) for k, s in block.scales)


def direct_interaction(block, G):
    B, D, T, _ = G.shape
    recent = G[:, :, T - block.cfg.C1:, :].reshape(B, D, 1, -1)
    y, _, _ = direct_centralized_linear(block.front.cent, recent, block.front.linear)
    tokens = ad.Tensor(y.reshape(B, D, -1))
    with ad.no_grad():
        for stack in block.stacks:
            tokens = ad.attention_block(tokens, stack)
    return (tokens.value @ block.out.w.value + block.out.b.value) * block._mask.value


def direct_np_predict(model, X):
    Xs, mu, sd = instance_standardize(X) if model.spec.standardize else (X, 0.0, 1.0)
    return direct_scale(model.blocks["fbm-np"], dense_grid(*halves(Xs))) * sd + mu


def direct_attention_1token(x, p):
    """One attention stack on a single token by hand: softmax over one key is 1."""
    def norm(v):
        mu = v.mean()
        sd = np.sqrt(((v - mu) ** 2).mean() + 1e-5)
        return (v - mu) / sd

    n1 = norm(x)
    v = n1 @ p.v.w.value + p.v.b.value
    x = x + v @ p.o.w.value + p.o.b.value
    n2 = norm(x)
    f = np.maximum(n2 @ p.ffn1.w.value + p.ffn1.b.value, 0.0) @ p.ffn2.w.value + p.ffn2.b.value
    return x + f


# --- a spec's parameter count, each variant's blocks restated by hand ---------------------


def _stack_count(h, ffn):
    return 4 * h * h + 4 * h + h * ffn + ffn + ffn * h + h


def _scale_count(T_s, K_s, L, D, t):
    """One trend scale (or fbm-np) with config t over a T_s x K_s grid."""
    if t.backbone == "linear":
        return T_s * K_s * L + L
    total = 2 * D + (T_s // t.P) * K_s * t.h1 + t.h1  # centralization + projector
    if t.backbone == "mlp":
        return total + t.P * t.h1 * t.h2 + t.h2 + t.h2 * L + L
    return total + t.K * _stack_count(t.h1, t.h2) + t.P * t.h1 * L + L


def expected_param_count(spec):
    """Closed-form count for the spec, used to cross-check construction."""
    T, L, D, K = spec.T, spec.L, spec.D, spec.T // 2
    v = spec.variant
    if v == "last":
        return 0
    if v == "diag":
        return 2 * K
    if v == "fbm-l":
        return T * K * L
    if v == "fbm-nl":
        h1, h2 = spec.nl_h1, spec.nl_h2
        return T * K * h1 + h1 + h1 * h2 + h2 + h2 * L + L
    if v == "fbm-np":
        return _scale_count(T, K, L, D, spec.np_cfg)
    # fbm-s
    total = T * K  # seasonal W
    for s in spec.trend.scales:
        total += _scale_count(T // s, K // s, L, D, spec.trend)
    if spec.interaction is not None:
        i = spec.interaction
        total += 2 * D + i.C1 * K * i.h3 + i.h3
        total += i.K * _stack_count(i.h3, i.h3)
        total += i.h3 * L + L
    return total


# --- a grid weight's held layout ---------------------------------------------------------


def read_back_lengths(p):
    """(P, h) per bin of grid weight p: its period, and the rows a step reads back,
    P/2 where the bin folds by sign and P elsewhere."""
    periods, folded, _ = p.factors
    return periods, np.where(folded, periods // 2, periods)


def factor_arrays(p):
    """Every array p.factors holds, in one order."""
    periods, folded, groups = p.factors
    return periods, folded, *(a for group in groups for a in group)


def step_groups(p):
    """Each period group of p as (its bins, their R2 [bins, h, c(c+1)/2], D [bins, h, width])."""
    return [(bins, R2, d) for (bins, R2), d in zip(p.factors[2], p._delta, strict=True)]


def steps_by_bin(p):
    """Each bin k's D[k], [h, width], as a dict by k."""
    return {k: d for k, _, d in p._steps()}


def snapshot_steps(state):
    """The D arrays a GridWeight.snapshot() holds."""
    return state[1]


def unfolded_value(p):
    """w0 + tile(D), as a .value read folds it, taken on a twin: p stays unfolded."""
    twin = ad.GridWeight(ad.Tensor.value.__get__(p).copy(), "twin", p.rows)
    twin._delta, twin.factors = p._delta, p.factors
    return twin.value
