"""Model blocks: seasonal rolling filter, patched trend backbones, and
masked cross-channel interaction, plus the patching/centralization
utilities they share.

All forwards take and return autodiff Tensors so both parameter and
input gradients flow; feature inputs are usually constants, in which
case the tape skips them for free.

Shape conventions: feature grids are [B, D, T_s, K_s] (batch, channel,
time, frequency), patched tensors are [B, D, P, N] with the channel axis
always third from the right inside centralization.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-(channel, patch) normalization with optional learnable affine.

    affine mode learns gamma/beta per channel; standardize mode fixes
    them at 1/0 and registers nothing.
    """

    def __init__(self, D, mode="affine", eps=1e-5, name="cent"):
        if mode not in ("affine", "standardize"):
            raise ConfigError(f"unknown centralization mode {mode!r}")
        self.D = D
        self.mode = mode
        self.eps = eps
        if mode == "affine":
            self.gamma = Parameter(np.ones(D), f"{name}.gamma")
            self.beta = Parameter(np.zeros(D), f"{name}.beta")
        else:
            self.gamma = None
            self.beta = None

    def params(self):
        return [] if self.gamma is None else [self.gamma, self.beta]

    def centralize(self, x):
        """x[..., D, P, N] -> (normalized x, stats for the inverse)."""
        mean = x.mean(axis=-1, keepdims=True)
        xc = ad.sub(x, mean)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        std = ad.sqrt(ad.add(var, self.eps))
        xhat = ad.div(xc, std)
        if self.mode == "affine":
            g = ad.reshape(self.gamma, (self.D, 1, 1))
            b = ad.reshape(self.beta, (self.D, 1, 1))
            xhat = ad.add(ad.mul(xhat, g), b)
        return xhat, (mean, std)

    def decentralize(self, y, stats):
        """Inverse using the cached pre-projection stats; y's width may differ."""
        mean, std = stats
        if self.mode == "affine":
            if np.any(np.abs(self.gamma.value) < 1e-12):
                raise NumericError("centralization gamma collapsed to ~0")
            g = ad.reshape(self.gamma, (self.D, 1, 1))
            b = ad.reshape(self.beta, (self.D, 1, 1))
            y = ad.div(ad.sub(y, b), g)
        return ad.add(ad.mul(y, std), mean)


# --- seasonal block -----------------------------------------------------------


class SeasonalBlock:
    """Learnable rolling filter over Fourier-padded time-frequency features.

    The naive form slides W over the padded feature rows. Because the
    features are (per bin) the spectrum coefficient times a basis column,
    the filter can be contracted with the padded bases once per step:

        F_C[v, k] = sum_n W[n, k] * C_pad[n + v, k]   (same for S)
        out[b, d, v] = sum_k H_R[b, d, k] F_C[v, k] + H_I[b, d, k] F_S[v, k]

    which is batch-size independent. DC is excluded (k = 1..T/2); W
    starts at zero so the model begins as pure trend.
    """

    def __init__(self, T, L, name="seasonal"):
        self.T = T
        self.L = L
        self.K = T // 2
        self.W = Parameter(np.zeros((T, self.K)), f"{name}.W")
        bases = build_bases(T, pad=L - 1)
        if bases.pad < L - 1:
            raise ConfigError(f"basis pad {bases.pad} < horizon needs {L - 1}")
        # windowed views of the padded bases, DC column dropped:
        # [K, L, T] with [k, v, n] = basis[n + v, k]
        self._cwin = Tensor(self._window_stack(bases.C[:, 1:]))
        self._swin = Tensor(self._window_stack(bases.S[:, 1:]))

    def _window_stack(self, basis_pad):
        view = np.lib.stride_tricks.sliding_window_view(basis_pad, self.T, axis=0)
        # view[v, k, n] = basis_pad[v + n, k]; want [k, v, n]
        return np.ascontiguousarray(view.transpose(1, 0, 2))

    def params(self):
        return [self.W]

    def param_count(self):
        return self.W.size

    def fused_kernels(self):
        """Current (F_C^T, F_S^T) as [K, L] tape tensors."""
        wt = ad.reshape(ad.transpose(self.W, (1, 0)), (self.K, self.T, 1))
        fc = ad.reshape(ad.matmul(self._cwin, wt), (self.K, self.L))
        fs = ad.reshape(ad.matmul(self._swin, wt), (self.K, self.L))
        return fc, fs

    def forward(self, H_R, H_I):
        """H_R/H_I: [..., K] DC-dropped spectrum halves -> [..., L]."""
        if H_R.shape[-1] != self.K:
            raise ConfigError(
                f"seasonal filter expects {self.K} frequency bins, got {H_R.shape[-1]}"
            )
        fc, fs = self.fused_kernels()
        return ad.add(ad.matmul(H_R, fc), ad.matmul(H_I, fs))


# --- shared patch projector (trend front / FBM-NP front) ----------------------


class PatchProjector:
    """patch -> centralize -> linear N->h1 (optional ReLU) -> decentralize."""

    def __init__(self, rng, layout, D, h1, use_relu, name, cent_mode="affine"):
        self.layout = layout
        self.use_relu = use_relu
        self.cent = Centralization(D, mode=cent_mode, name=f"{name}.cent")
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
    """All layers of one scale; scales are independent and summed."""

    def __init__(self, rng, T, K_freq, L, D, cfg, name):
        self.cfg = cfg
        self.backbone = cfg.backbone
        self.T = T
        self.K_freq = K_freq
        if cfg.backbone == "linear":
            n_in = T * K_freq
            self.w_out = Parameter(ad.init_uniform(rng, (n_in, L), n_in), f"{name}.out.w")
            self.b_out = Parameter(np.zeros(L), f"{name}.out.b")
            self.proj = None
            self.stacks = []
            return
        layout = PatchLayout.make(T, K_freq, cfg.P)
        self.proj = PatchProjector(rng, layout, D, cfg.h1, use_relu=True, name=f"{name}.proj")
        if cfg.backbone == "mlp":
            n_mid = cfg.P * cfg.h1
            self.w_mid = Parameter(ad.init_uniform(rng, (n_mid, cfg.h2), n_mid), f"{name}.mid.w")
            self.b_mid = Parameter(np.zeros(cfg.h2), f"{name}.mid.b")
            self.w_out = Parameter(ad.init_uniform(rng, (cfg.h2, L), cfg.h2), f"{name}.out.w")
            self.b_out = Parameter(np.zeros(L), f"{name}.out.b")
            self.stacks = []
        else:
            self.stacks = [
                AttentionParams.build(rng, cfg.h1, cfg.h2, f"{name}.stack{i}")
                for i in range(cfg.K)
            ]
            n_flat = cfg.P * cfg.h1
            self.w_out = Parameter(ad.init_uniform(rng, (n_flat, L), n_flat), f"{name}.out.w")
            self.b_out = Parameter(np.zeros(L), f"{name}.out.b")

    def params(self):
        out = []
        if self.proj is not None:
            out += self.proj.params()
        if self.backbone == "mlp":
            out += [self.w_mid, self.b_mid]
        for s in self.stacks:
            out += s.params()
        out += [self.w_out, self.b_out]
        return out

    def forward(self, Gs):
        b, d = Gs.shape[0], Gs.shape[1]
        if self.backbone == "linear":
            flat = ad.reshape(Gs, (b, d, self.T * self.K_freq))
            return ad.add(ad.matmul(flat, self.w_out), self.b_out)
        y = self.proj.forward(Gs)  # [B, D, P, h1]
        cfg = self.cfg
        if self.backbone == "mlp":
            flat = ad.reshape(y, (b, d, cfg.P * cfg.h1))
            hid = ad.relu(ad.add(ad.matmul(flat, self.w_mid), self.b_mid))
            return ad.add(ad.matmul(hid, self.w_out), self.b_out)
        tokens = ad.reshape(y, (b * d, cfg.P, cfg.h1))
        for stack in self.stacks:
            tokens = ad.attention_block(tokens, stack)
        flat = ad.reshape(tokens, (b, d, cfg.P * cfg.h1))
        return ad.add(ad.matmul(flat, self.w_out), self.b_out)


class TrendBlock:
    def __init__(self, rng, T, L, D, cfg, name="trend"):
        self.cfg = cfg
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

    def param_count(self):
        return sum(p.size for p in self.params())

    def forward(self, G):
        """G: [B, D, T, T/2] full-resolution DC-dropped features -> [B, D, L]."""
        out = None
        for kernel, scale in self.scales:
            Gs = G if kernel == 1 else downsample_op(G, kernel)
            y = scale.forward(Gs)
            out = y if out is None else ad.add(out, y)
        return out


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
        self.L = L
        self.K_freq = T // 2
        self.n_in = cfg.C1 * self.K_freq
        self.cent = Centralization(D, mode="affine", name=f"{name}.cent")
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

    def param_count(self):
        return sum(p.size for p in self.params())

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
