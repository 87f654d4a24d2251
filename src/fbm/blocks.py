"""Model blocks: seasonal rolling filter, patched trend backbones, and
masked cross-channel interaction, plus the patching/centralization
utilities and the spectral map they share.

All forwards take and return autodiff Tensors so both parameter and
input gradients flow; feature inputs are usually constants, in which
case the tape skips them for free.

Shape conventions: feature grids are [B, D, T_s, K_s] (batch, channel,
time, frequency), patched tensors are [B, D, P, N] with the channel axis
always third from the right inside centralization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import AttentionParams, Parameter, Tensor
from .errors import ConfigError, NumericError
from .fourier import build_bases


@dataclass(frozen=True)
class PatchLayout:
    P: int
    patch_time: int
    N: int
    T: int
    K: int

    @classmethod
    def make(cls, T, K, P):
        if P < 1 or T % P:
            raise ConfigError(f"patch count {P} must divide time length {T}")
        patch_time = T // P
        return cls(P=P, patch_time=patch_time, N=patch_time * K, T=T, K=K)


def patch(G, layout):
    """[..., T, K] -> [..., P, N]; each patch is its time rows flattened time-major."""
    b, d = G.shape[0], G.shape[1]
    if G.shape[-2] != layout.T or G.shape[-1] != layout.K:
        raise ConfigError(
            f"feature grid {G.shape[-2]}x{G.shape[-1]} does not match "
            f"patch layout {layout.T}x{layout.K}"
        )
    x = ad.reshape(G, (b, d, layout.P, layout.patch_time, layout.K))
    return ad.reshape(x, (b, d, layout.P, layout.N))


def unpatch(x, layout):
    b, d = x.shape[0], x.shape[1]
    g = ad.reshape(x, (b, d, layout.P, layout.patch_time, layout.K))
    return ad.reshape(g, (b, d, layout.T, layout.K))


def downsample_op(G, kernel):
    """Coarsen features [..., t, f]: average `kernel` rows, sum `kernel` columns."""
    lead = G.shape[:-2]
    t, f = G.shape[-2], G.shape[-1]
    if t % kernel or f % kernel:
        raise ConfigError(
            f"downsample kernel {kernel} does not divide feature dims {t}x{f}"
        )
    x = ad.reshape(G, lead + (t // kernel, kernel, f))
    x = x.mean(axis=-2)
    x = ad.reshape(x, lead + (t // kernel, f // kernel, kernel))
    return x.sum(axis=-1)


# --- centralization -----------------------------------------------------------


class Centralization:
    """Per-(channel, patch) standardization with a learnable per-channel
    affine; gamma 1 and beta 0 at init make it a plain standardization."""

    def __init__(self, D, eps=1e-5, name="cent"):
        self.D = D
        self.eps = eps
        self.gamma = Parameter(np.ones(D), f"{name}.gamma")
        self.beta = Parameter(np.zeros(D), f"{name}.beta")

    def params(self):
        return [self.gamma, self.beta]

    def centralize(self, x):
        """x[..., D, P, N] -> (normalized x, stats for the inverse)."""
        xhat, mean, std = ad._standardize(x, self.eps)
        g = ad.reshape(self.gamma, (self.D, 1, 1))
        b = ad.reshape(self.beta, (self.D, 1, 1))
        return ad.add(ad.mul(xhat, g), b), (mean, std)

    def decentralize(self, y, stats):
        """Inverse using the cached pre-projection stats; y's width may differ."""
        mean, std = stats
        if np.any(np.abs(self.gamma.value) < 1e-12):
            raise NumericError("centralization gamma collapsed to ~0")
        g = ad.reshape(self.gamma, (self.D, 1, 1))
        b = ad.reshape(self.beta, (self.D, 1, 1))
        y = ad.div(ad.sub(y, b), g)
        return ad.add(ad.mul(y, std), mean)


# --- spectral maps ------------------------------------------------------------


def basis_windows(T, count):
    """DC-dropped basis windows (C_v, S_v), each [K, count, T] with
    [k, v, n] = basis[n + v, k + 1] over the periodically continued tables."""
    bases = build_bases(T, pad=count - 1)

    def stack(basis):
        # view[v, k, n] = basis[v + n, k]; want [k, v, n]
        view = np.lib.stride_tricks.sliding_window_view(basis[:, 1:], T, axis=0)
        return Tensor(np.ascontiguousarray(view.transpose(1, 0, 2)))

    return stack(bases.C), stack(bases.S)


def spectral_map(H_R, H_I, windows, w):
    """A linear map of the DC-dropped time-frequency grid, applied to the spectrum.

    The grid G[n, k] = H_R[k] C[n, k] + H_I[k] S[n, k] (k = 1..T/2) is
    linear in the spectrum halves. So a map that reads window v, grid rows
    n + v for n < T, through per-bin weights w[k][n, j] is

        out[v, j] = sum_{n,k} G[n + v, k] w[k][n, j]
                  = sum_k H_R[k] (C_v[k] @ w[k])[v, j] + H_I[k] (S_v[k] @ w[k])[v, j]

    with C_v[k][v, n] = C[n + v, k] from basis_windows. Contracting the
    weights with the tables first is independent of the batch, and each
    window then costs two [K] x [K, m * width] products; the grid is never
    built. fbm-l and the first layer of fbm-nl read one window (m = 1) with
    their [K, T, width] weights; the seasonal filter reads L windows with
    one output each (width = 1, w[k] = W[:, k]).

    H_R/H_I: [..., K]; windows: a [K, m, T] pair; w: [K, T, width]
    -> out flattened v-major, [..., m * width].
    """
    C_v, S_v = windows
    K = C_v.shape[0]
    width = C_v.shape[1] * w.shape[-1]
    wc = ad.reshape(ad.matmul(C_v, w), (K, width))
    ws = ad.reshape(ad.matmul(S_v, w), (K, width))
    return ad.add(ad.matmul(H_R, wc), ad.matmul(H_I, ws))


# --- seasonal block -----------------------------------------------------------


class SeasonalBlock:
    """Learnable rolling filter over Fourier-padded time-frequency features.

    The naive form slides W over the padded feature rows,
    out[v] = sum_{n,k} W[n, k] G_pad[n + v, k]; it is the spectral map
    (see spectral_map) of the L basis windows with w[k] = W[:, k], which
    is batch-size independent. DC is excluded (k = 1..T/2); W starts at
    zero so the model begins as pure trend.
    """

    def __init__(self, T, L, name="seasonal"):
        self.T = T
        self.K = T // 2
        self.W = Parameter(np.zeros((T, self.K)), f"{name}.W")
        self._windows = basis_windows(T, L)

    def params(self):
        return [self.W]

    def forward(self, H_R, H_I):
        """H_R/H_I: [..., K] DC-dropped spectrum halves -> [..., L]."""
        if H_R.shape[-1] != self.K:
            raise ConfigError(
                f"seasonal filter expects {self.K} frequency bins, got {H_R.shape[-1]}"
            )
        w = ad.reshape(ad.transpose(self.W, (1, 0)), (self.K, self.T, 1))
        return spectral_map(H_R, H_I, self._windows, w)


# --- shared patch projector (trend front / FBM-NP front) ----------------------


class PatchProjector:
    """patch -> centralize -> linear N->h1 (optional ReLU) -> decentralize."""

    def __init__(self, rng, layout, D, h1, use_relu, name):
        self.layout = layout
        self.use_relu = use_relu
        self.cent = Centralization(D, name=f"{name}.cent")
        self.w = Parameter(ad.init_uniform(rng, (layout.N, h1), layout.N), f"{name}.w")
        self.b = Parameter(np.zeros(h1), f"{name}.b")

    def params(self):
        return self.cent.params() + [self.w, self.b]

    def forward(self, G):
        x = patch(G, self.layout)
        xhat, stats = self.cent.centralize(x)
        y = ad.add(ad.matmul(xhat, self.w), self.b)
        if self.use_relu:
            y = ad.relu(y)
        return self.cent.decentralize(y, stats)  # [B, D, P, h1]


# --- trend block ---------------------------------------------------------------


BACKBONES = ("linear", "mlp", "transformer")


@dataclass(frozen=True)
class TrendConfig:
    backbone: str = "mlp"  # one of BACKBONES
    h1: int = 128
    h2: int = 1440
    K: int = 3  # attention stacks, transformer only
    P: int = 14
    scales: tuple = (1,)  # downsample kernels; 1 = full resolution

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown trend backbone {self.backbone!r}")
        if not self.scales:
            raise ConfigError("trend block needs at least one scale")
        for s in self.scales:
            if s not in (1, 2, 4):
                raise ConfigError(f"trend scale kernel must be 1, 2 or 4, got {s}")
        if self.backbone != "linear" and (self.h1 < 1 or self.h2 < 1 or self.P < 1):
            raise ConfigError("trend widths and patch count must be positive")


class _TrendScale:
    """All layers of one scale; scales are independent and summed.

    fbm-np is one transformer scale at full resolution whose projector
    has no ReLU (use_relu=False)."""

    def __init__(self, rng, T, K_freq, L, D, cfg, name, use_relu=True):
        self.cfg = cfg
        self.proj = None
        self.stacks = []
        n_head = T * K_freq  # linear: the flattened grid
        if cfg.backbone != "linear":
            layout = PatchLayout.make(T, K_freq, cfg.P)
            self.proj = PatchProjector(rng, layout, D, cfg.h1, use_relu, f"{name}.proj")
            n_head = cfg.P * cfg.h1
        if cfg.backbone == "mlp":
            self.w_mid = Parameter(ad.init_uniform(rng, (n_head, cfg.h2), n_head), f"{name}.mid.w")
            self.b_mid = Parameter(np.zeros(cfg.h2), f"{name}.mid.b")
            n_head = cfg.h2
        elif cfg.backbone == "transformer":
            self.stacks = [
                AttentionParams.build(rng, cfg.h1, cfg.h2, f"{name}.stack{i}")
                for i in range(cfg.K)
            ]
        self.w_out = Parameter(ad.init_uniform(rng, (n_head, L), n_head), f"{name}.out.w")
        self.b_out = Parameter(np.zeros(L), f"{name}.out.b")

    def params(self):
        out = [] if self.proj is None else self.proj.params()
        if self.cfg.backbone == "mlp":
            out += [self.w_mid, self.b_mid]
        for s in self.stacks:
            out += s.params()
        return out + [self.w_out, self.b_out]

    def forward(self, Gs):
        b, d = Gs.shape[0], Gs.shape[1]
        cfg = self.cfg
        if self.proj is None:
            x = ad.reshape(Gs, (b, d, -1))  # the flattened grid
        else:
            y = self.proj.forward(Gs)  # [B, D, P, h1]
            if cfg.backbone == "mlp":
                flat = ad.reshape(y, (b, d, cfg.P * cfg.h1))
                x = ad.relu(ad.add(ad.matmul(flat, self.w_mid), self.b_mid))
            else:
                tokens = ad.reshape(y, (b * d, cfg.P, cfg.h1))
                for stack in self.stacks:
                    tokens = ad.attention_block(tokens, stack)
                x = ad.reshape(tokens, (b, d, cfg.P * cfg.h1))
        return ad.add(ad.matmul(x, self.w_out), self.b_out)


class TrendBlock:
    def __init__(self, rng, T, L, D, cfg, name="trend"):
        self.scales = []
        for kernel in cfg.scales:
            T_s, K_s = T // kernel, (T // 2) // kernel
            if T % kernel or (T // 2) % kernel:
                raise ConfigError(f"scale kernel {kernel} does not divide {T}x{T // 2}")
            self.scales.append(
                (kernel, _TrendScale(rng, T_s, K_s, L, D, cfg, f"{name}.d{kernel}"))
            )

    def params(self):
        out = []
        for _, s in self.scales:
            out += s.params()
        return out

    def forward(self, G):
        """G: [B, D, T, T/2] full-resolution DC-dropped features -> [B, D, L]."""
        return reduce(ad.add, [
            scale.forward(G if kernel == 1 else downsample_op(G, kernel))
            for kernel, scale in self.scales
        ])


# --- interaction block ----------------------------------------------------------


@dataclass(frozen=True)
class InteractionConfig:
    C1: int = 24
    C2: int = 96
    h3: int = 512
    K: int = 3


class InteractionBlock:
    """Cross-channel attention over the last C1 timesteps' features.

    One token per variate; output masked to the first C2 horizon steps.
    The centralization here is one patch per channel and is not inverted
    afterward, so the masked horizon entries stay exactly zero.
    """

    def __init__(self, rng, T, L, D, cfg, name="inter"):
        if not 1 <= cfg.C1 <= T:
            raise ConfigError(f"interaction input mask C1={cfg.C1} outside [1, {T}]")
        if not 0 <= cfg.C2 <= L:
            raise ConfigError(f"interaction output mask C2={cfg.C2} outside [0, {L}]")
        self.cfg = cfg
        self.T = T
        self.n_in = cfg.C1 * (T // 2)
        self.cent = Centralization(D, name=f"{name}.cent")
        self.w_in = Parameter(
            ad.init_uniform(rng, (self.n_in, cfg.h3), self.n_in), f"{name}.in.w"
        )
        self.b_in = Parameter(np.zeros(cfg.h3), f"{name}.in.b")
        self.stacks = [
            AttentionParams.build(rng, cfg.h3, cfg.h3, f"{name}.stack{i}")
            for i in range(cfg.K)
        ]
        self.w_out = Parameter(ad.init_uniform(rng, (cfg.h3, L), cfg.h3), f"{name}.out.w")
        self.b_out = Parameter(np.zeros(L), f"{name}.out.b")
        self._mask = Tensor((np.arange(L) < cfg.C2).astype(np.float64))

    def params(self):
        out = self.cent.params() + [self.w_in, self.b_in]
        for s in self.stacks:
            out += s.params()
        out += [self.w_out, self.b_out]
        return out

    def forward(self, G):
        """G: [B, D, T, T/2] -> [B, D, L], zero beyond horizon step C2."""
        b, d = G.shape[0], G.shape[1]
        recent = G[:, :, self.T - self.cfg.C1 :, :]
        x = ad.reshape(recent, (b, d, 1, self.n_in))
        xhat, _ = self.cent.centralize(x)  # stats are not reused: no inverse here
        tokens = ad.reshape(xhat, (b, d, self.n_in))
        tokens = ad.add(ad.matmul(tokens, self.w_in), self.b_in)  # D variate tokens
        for stack in self.stacks:
            tokens = ad.attention_block(tokens, stack)
        out = ad.add(ad.matmul(tokens, self.w_out), self.b_out)
        return ad.mul(out, self._mask)
