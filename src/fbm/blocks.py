"""Model blocks: the grid's linear map (fbm-l, fbm-nl), diag, the seasonal
rolling filter, patched trend backbones and masked cross-channel
interaction, plus the grid and centralization they share.

The time-frequency grid G[n, k] = H_R[k] C[n, k] + H_I[k] S[n, k] is linear
in the spectrum, so no block builds it. A Grid holds it as per-bin
coefficients over basis rows, and every layer that reads it (a linear map
of the grid or of a patch, the patch's mean and mean square, a downsampled
scale) is the coefficients times a table of the rows and weights that does
not grow with the batch: Patches.linear is the one product of rows and a
weight, and PatchProjector the one centralized front. The seasonal filter is
a per-bin complex gain: a shift only rotates a sinusoid's phase, so W reaches
bin k through g_k = sum_n W[n, k] e^{2 pi i k n / T} alone.

All forwards take and return autodiff Tensors so both parameter and
input gradients flow; feature inputs are usually constants, which get no
tape edge, so no gradient is ever computed for them.

Shape conventions: dense grids are [B, D, T_s, K_s] (batch, channel, time,
frequency), patched tensors are [B, D, P, N] with the channel axis always
third from the right inside centralization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import AttentionParams, Linear, Parameter, Tensor
from .errors import ConfigError, NumericError
from .fourier import build_bases, dft_matrices


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


# --- the grid as coefficients ----------------------------------------------------


def _contract(x, M):
    """x[..., *A] @ M[*A, width], summed over the axes A as one GEMM -> [..., width]."""
    n = math.prod(M.shape[:-1])
    lead = x.shape[: x.ndim - (M.ndim - 1)]
    return ad.matmul(ad.reshape(x, lead + (n,)), ad.reshape(M, (n, M.shape[-1])))


@dataclass(frozen=True)
class Grid:
    """A time-frequency grid G[..., n, k] = sum_c coef[..., k, c] rows[k, c, n],
    held as per-bin coefficients coef[..., K, c] over constant basis rows
    rows[K, c, T]; the [..., T, K] array is never built.

    The model's grid is the DC-dropped spectrum: coefficients (H_R[k], H_I[k])
    over basis_rows(T, T). A dense grid enters as its columns over identity
    rows (c = T), so the blocks read both through the same tables.
    """

    coef: Tensor
    rows: np.ndarray

    @classmethod
    def of(cls, G):
        """G as a Grid: a Grid as is, a dense [..., T, K] grid over identity rows.
        Those rows make every table T times wider than the spectrum's, and the
        patch moments' outer products T^2 / 4 times larger: a check on small
        grids, not a route for T = 336."""
        if isinstance(G, Grid):
            return G
        T, K = G.shape[-2:]
        return cls(ad.swap_last2(G), np.broadcast_to(np.eye(T), (K, T, T)))

    @classmethod
    def spectrum(cls, H_R, H_I, rows):
        """The grid of DC-dropped halves H_R/H_I[..., K] over rows [K, 2, T]."""
        return cls(ad._interleave(H_R, H_I), rows)


class Patches:
    """A grid's P patches, read from its coefficients without building them.

    Patch p is grid rows [p T/P, (p+1) T/P) across every column, flattened
    time-major into N = (T/P) K values. Each quantity below is linear or
    quadratic in the coefficients, with a table of the rows that does not
    grow with the batch: a patch's linear map x @ w is coef @ (rows_p @ w,
    one product per column); its mean is coef @ (the rows summed over the
    patch) / N; its mean square is (coef coef^T) @ (the rows' Gram per
    column) / N.
    """

    def __init__(self, grid, P):
        K, c, T = grid.rows.shape
        self.coef = grid.coef
        self.rows = grid.rows.reshape(K, c, P, T // P)
        self.N = (T // P) * K
        self.mean_rows = self.rows.sum(axis=-1) / self.N  # [K, c, P]

    def linear(self, w, ones_w=None):
        """x @ w for each patch x -> [..., P, width]; w is [N, width], time-major,
        or already per column, [K, T/P, width] (taken as is: a Parameter there
        gets its gradient per bin). Given ones_w = 1^T w, each patch is centred
        first: (x - mean) @ w = x @ w - mean 1^T w, taken out of the table as
        M - mean_rows 1^T w, so the GEMM yields it with no pass over its output."""
        K, c, P, pt = self.rows.shape
        width = w.shape[-1]
        if w.ndim == 2:
            w = ad.transpose(ad.reshape(w, (pt, K, width)), (1, 0, 2))  # [K, T/P, width]
        M = ad.matmul(Tensor(self.rows.reshape(K, c * P, pt)), w)
        if ones_w is not None:
            M = ad.sub(M, ad.mul(Tensor(self.mean_rows.reshape(K, c * P, 1)), ones_w))
        out = _contract(self.coef, ad.reshape(M, (K, c, P * width)))
        return ad.reshape(out, out.shape[:-1] + (P, width))

    def moments(self):
        """Each patch's mean and mean square, [..., P, 1] each."""
        c = self.rows.shape[1]
        by_patch = self.rows.transpose(0, 2, 1, 3)  # [K, P, c, T/P]
        gram = by_patch @ by_patch.transpose(0, 1, 3, 2) / self.N  # [K, P, c, c]
        z = self.coef
        outer = ad.mul(ad.reshape(z, z.shape + (1,)), ad.reshape(z, z.shape[:-1] + (1, c)))
        return tuple(
            ad.reshape(m, m.shape + (1,))
            for m in (_contract(z, Tensor(self.mean_rows)),
                      _contract(outer, Tensor(gram.transpose(0, 2, 3, 1))))
        )


def downsample_op(G, kernel):
    """Coarsen a Grid [..., t, f]: average `kernel` rows, sum `kernel` columns.

    It stays coefficients: the `kernel` bins that sum into one column become
    that column's coefficients, over their rows averaged `kernel` at a time.
    """
    f, c, t = G.rows.shape
    if t % kernel or f % kernel:
        raise ConfigError(
            f"downsample kernel {kernel} does not divide feature dims {t}x{f}"
        )
    rows = G.rows.reshape(f // kernel, kernel * c, t // kernel, kernel).mean(axis=-1)
    return Grid(ad.reshape(G.coef, G.coef.shape[:-2] + (f // kernel, kernel * c)), rows)


# --- centralization -----------------------------------------------------------


CENT_EPS = 1e-5  # variance floor of the centralization


class Centralization:
    """Per-(channel, patch) standardization with a learnable per-channel
    affine; gamma 1 and beta 0 at init make it a plain standardization."""

    def __init__(self, D, name="cent"):
        self.D = D
        self.gamma = Parameter(np.ones(D), f"{name}.gamma")
        self.beta = Parameter(np.zeros(D), f"{name}.beta")

    def params(self):
        return [self.gamma, self.beta]

    def centralize(self, x, w=None, b=None):
        """Standardize each patch, then apply gamma/beta -> (out, (mean, std)).

        x is the patches themselves, [..., D, P, N], and out is
        gamma (x - mean) / std + beta. Or x is Patches of a Grid, and out is
        that output mapped by w[N, width] plus the bias b[width]:
        (gamma xhat + beta) @ w + b = (x - mean) @ w (gamma / std) + (beta 1^T w + b),
        read from the patches' moments and centred linear map alone, so the
        full-size array takes one scale and one shift. The variance
        E[x^2] - mean^2 cancels on near-constant patches, so it is clamped at
        0 before CENT_EPS is added.
        """
        ones_w = None
        if isinstance(x, Patches):
            ones_w = w.sum(axis=0)
            (mean, square), x = x.moments(), x.linear(w, ones_w)
        else:
            mean, square = x.mean(axis=-1, keepdims=True), ad.mul(x, x).mean(axis=-1, keepdims=True)
        std = ad.sqrt(ad.add(ad.relu(ad.sub(square, ad.mul(mean, mean))), CENT_EPS))
        g = ad.reshape(self.gamma, (self.D, 1, 1))
        beta = ad.reshape(self.beta, (self.D, 1, 1))
        if ones_w is None:
            return ad.add(ad.mul(ad.div(ad.sub(x, mean), std), g), beta), (mean, std)
        shift = ad.add(ad.mul(beta, ones_w), b)  # [D, 1, width]
        return ad.add(ad.mul(x, ad.div(g, std)), shift), (mean, std)

    def decentralize(self, y, stats):
        """Inverse using the cached pre-projection stats; y's width may differ.
        (y - beta) / gamma std + mean is taken as y (std / gamma) + (mean - beta std / gamma):
        one scale and one shift of y, by arrays of the stats' size."""
        mean, std = stats
        if np.any(np.abs(self.gamma.value) < 1e-12):
            raise NumericError("centralization gamma collapsed to ~0")
        g = ad.reshape(self.gamma, (self.D, 1, 1))
        b = ad.reshape(self.beta, (self.D, 1, 1))
        r = ad.div(std, g)
        return ad.add(ad.mul(y, r), ad.sub(mean, ad.mul(b, r)))


# --- first layers over the spectrum ---------------------------------------------


def basis_rows(T, count):
    """DC-dropped basis rows, one [K, 2, count] table: [k, 0, n] = C[n mod T, k + 1]
    and [k, 1, n] = S[n mod T, k + 1], the tables continued periodically past T."""
    bases = build_bases(T)
    rows = np.arange(count) % T
    return Tensor(np.stack([b[rows, 1:].T for b in (bases.C, bases.S)], axis=1))


def _per_bin(gain, rows):  # gain[K] times each bin's rows[K, 2, width]
    return ad.mul(ad.reshape(gain, (gain.shape[0], 1, 1)), rows)


class GridLinear:
    """fbm-l: x @ w for the whole grid x, per-bin weights w[K, T, width], no bias.
    The grid is one patch and w its per-column weight, so Patches.linear gives
    coef @ (rows @ w): on the spectrum, one z @ M GEMM, and w's gradient stays
    per-bin factors until Adam reads it."""

    def __init__(self, rng, T, width, name):
        self.w = Parameter(ad.init_uniform(rng, (T // 2, T, width), T * T // 2), f"{name}.w")

    def params(self):
        return [self.w]

    def forward(self, grid):
        y = Patches(grid, 1).linear(self.w)  # [..., 1, width]
        return ad.reshape(y, y.shape[:-2] + y.shape[-1:])


class GridMLP:
    """fbm-nl: GridLinear fc1 plus its bias, then fc2 and fc3, ReLU after fc1 and fc2."""

    def __init__(self, rng, T, h1, h2, L):
        self.fc1 = GridLinear(rng, T, h1, "fc1")
        self.b1 = Parameter(np.zeros(h1), "fc1.b")
        self.fc2 = Linear(rng, h1, h2, "fc2")
        self.fc3 = Linear(rng, h2, L, "fc3")

    def params(self):
        return self.fc1.params() + [self.b1] + self.fc2.params() + self.fc3.params()

    def forward(self, grid):
        h = ad.relu(ad.add(self.fc1.forward(grid), self.b1))
        return self.fc3(ad.relu(self.fc2(h)))


class DiagBlock:
    """diag, the negative control: bin k's halves scaled by wa[k] and wb[k] through
    the horizon rows, M[k] = (wa[k] C_k; wb[k] S_k); it cannot rotate phase."""

    def __init__(self, T, L):
        self.wa, self.wb = (Parameter(np.ones(T // 2), f"diag.{n}") for n in ("wa", "wb"))
        rows = basis_rows(T, L).value  # below: each slot's rows, the other slot zeroed
        self._c_rows, self._s_rows = (Tensor(rows * (np.arange(2) == c)[:, None]) for c in (0, 1))

    def params(self):
        return [self.wa, self.wb]

    def forward(self, grid):
        M = ad.add(_per_bin(self.wa, self._c_rows), _per_bin(self.wb, self._s_rows))
        return _contract(grid.coef, M)


class SeasonalBlock:
    """Learnable rolling filter over Fourier-padded time-frequency features.

    The naive form slides W over the padded feature rows,
    out[v] = sum_{n,k} W[n, k] G_pad[n + v, k]. Shifting bin k's sinusoid
    by v only rotates its phase, so W reaches bin k through one complex
    gain g_k = sum_n W[n, k] e^{2 pi i k n / T} = a_k - i b_k, with
    a = sum_n W * cm and b = sum_n W * sm over dft_matrices' tables. The
    rotated halves H_R a + H_I b and H_I a - H_R b go through the horizon
    rows basis_rows(T, L), so as z @ M bin k's rows are a_k (C_k; S_k) plus
    b_k (-S_k; C_k). DC is excluded (k = 1..T/2); W starts at zero so the
    model begins as pure trend.
    """

    def __init__(self, T, L):
        self.K = T // 2
        self.W = Parameter(np.zeros((T, self.K)), "seasonal.W")
        self._cm, self._sm = (Tensor(t[:, 1:]) for t in dft_matrices(T))
        rows = basis_rows(T, L).value  # and the same rows turned a quarter:
        self._rows, self._turned = Tensor(rows), Tensor(np.stack([-rows[:, 1], rows[:, 0]], 1))

    def params(self):
        return [self.W]

    def forward(self, spectrum, H_I=None):
        """The spectrum Grid, or its halves H_R/H_I[..., K] as (spectrum, H_I) -> [..., L]."""
        z = spectrum.coef if H_I is None else ad._interleave(spectrum, H_I)
        if z.shape[-2:] != (self.K, 2):
            raise ConfigError(f"seasonal filter expects {self.K} bins' halves, got {z.shape[-2:]}")
        a = ad.mul(self.W, self._cm).sum(axis=0)  # the gains' real parts, [K]
        b = ad.mul(self.W, self._sm).sum(axis=0)  # minus their imaginary parts
        return _contract(z, ad.add(_per_bin(a, self._rows), _per_bin(b, self._turned)))


# --- the centralized front (trend scales, fbm-np, interaction) -----------------


class PatchProjector:
    """A Grid's P patches, centralized by `cent` and mapped by `linear`:
    grid -> (centralize(patches) @ w + b [..., D, P, width], the patches'
    (mean, std)). Centralization reads the patches' moments and linear map
    through Patches' tables, so no patch is built; what follows the front
    (a ReLU, cent.decentralize with those stats) is its caller's."""

    def __init__(self, cent, linear, P):
        self.cent, self.linear, self.P = cent, linear, P

    def params(self):
        return self.cent.params() + self.linear.params()

    def forward(self, grid):
        return self.cent.centralize(Patches(grid, self.P), self.linear.w, self.linear.b)


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
        repeated = sorted({s for s in self.scales if self.scales.count(s) > 1})
        if repeated:
            raise ConfigError(f"trend scale kernels must differ, got {repeated} more than once")
        if (self.backbone != "linear" and min(self.h1, self.h2, self.P) < 1) or self.K < 0:
            raise ConfigError(f"need widths h1, h2 and patch count P >= 1, K >= 0: {self}")

    def patch_layout(self, T, K):
        """Patches of a scale's T x K grid; None for the linear backbone,
        which reads the whole grid."""
        return None if self.backbone == "linear" else PatchLayout.make(T, K, self.P)


def scale_grid(T, kernel):
    """(T_s, K_s): the grid of a trend scale downsampled by `kernel`."""
    if T % kernel or (T // 2) % kernel:
        raise ConfigError(f"scale kernel {kernel} does not divide {T}x{T // 2}")
    return T // kernel, (T // 2) // kernel


class _TrendScale:
    """All layers of one scale; scales are independent and summed.

    A patched backbone's front is followed by a ReLU (use_relu) and its
    decentralization; fbm-np is one transformer scale at full resolution with
    no ReLU there (use_relu=False)."""

    def __init__(self, rng, T, K_freq, L, D, cfg, name, use_relu=True):
        self.cfg = cfg
        self.use_relu = use_relu
        self.proj = self.mid = None
        self.stacks = []
        n_head = T * K_freq  # linear: the flattened grid
        layout = cfg.patch_layout(T, K_freq)
        if layout is not None:
            cent = Centralization(D, name=f"{name}.proj.cent")
            self.proj = PatchProjector(cent, Linear(rng, layout.N, cfg.h1, f"{name}.proj"), cfg.P)
            n_head = cfg.P * cfg.h1
        if cfg.backbone == "mlp":
            self.mid = Linear(rng, n_head, cfg.h2, f"{name}.mid")
            n_head = cfg.h2
        elif cfg.backbone == "transformer":
            self.stacks = [
                AttentionParams(rng, cfg.h1, cfg.h2, f"{name}.stack{i}") for i in range(cfg.K)
            ]
        self.out = Linear(rng, n_head, L, f"{name}.out")
        self.layers = [x for x in (self.proj, self.mid, *self.stacks, self.out) if x is not None]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, grid):
        """The scale's Grid -> [B, D, L]."""
        if self.proj is None:  # the linear head of the flattened grid: one patch
            y = Patches(grid, 1).linear(self.out.w)
            return ad.add(ad.reshape(y, y.shape[:-2] + (y.shape[-1],)), self.out.b)
        cfg = self.cfg
        y, stats = self.proj.forward(grid)
        y = self.proj.cent.decentralize(ad.relu(y) if self.use_relu else y, stats)  # [B, D, P, h1]
        b, d = y.shape[0], y.shape[1]
        if self.mid is not None:
            x = ad.relu(self.mid(ad.reshape(y, (b, d, cfg.P * cfg.h1))))
        else:
            tokens = ad.reshape(y, (b * d, cfg.P, cfg.h1))
            for stack in self.stacks:
                tokens = ad.attention_block(tokens, stack)
            x = ad.reshape(tokens, (b, d, cfg.P * cfg.h1))
        return self.out(x)


class TrendBlock:
    def __init__(self, rng, T, L, D, cfg):
        self.scales = []
        for kernel in cfg.scales:
            T_s, K_s = scale_grid(T, kernel)
            self.scales.append((kernel, _TrendScale(rng, T_s, K_s, L, D, cfg, f"trend.d{kernel}")))

    def params(self):
        return [p for _, scale in self.scales for p in scale.params()]

    def forward(self, G):
        """G: the full-resolution DC-dropped grid, a Grid or dense
        [B, D, T, T/2] -> [B, D, L]."""
        grid = Grid.of(G)
        return reduce(ad.add, [
            scale.forward(grid if kernel == 1 else downsample_op(grid, kernel))
            for kernel, scale in self.scales
        ])


# --- interaction block ----------------------------------------------------------


@dataclass(frozen=True)
class InteractionConfig:
    C1: int = 24
    C2: int = 96
    h3: int = 512
    K: int = 3

    def __post_init__(self):
        if min(self.C1, self.h3) < 1 or min(self.C2, self.K) < 0:
            raise ConfigError(f"need C1, h3 >= 1 and C2, K >= 0: {self}")

    def check_masks(self, T, L):
        """Raise unless the masks fit window length T and horizon L."""
        if self.C1 > T:  # __post_init__ holds C1 >= 1 and C2 >= 0
            raise ConfigError(f"interaction input mask C1={self.C1} outside [1, {T}]")
        if self.C2 > L:
            raise ConfigError(f"interaction output mask C2={self.C2} outside [0, {L}]")


class InteractionBlock:
    """Cross-channel attention over the last C1 timesteps' features.

    One token per variate; output masked to the first C2 horizon steps.
    The front is a PatchProjector over the Grid of those C1 rows, read as
    one patch per channel. Its centralization is not inverted afterward, so
    the masked horizon entries stay exactly zero.
    """

    def __init__(self, rng, T, L, D, cfg):
        cfg.check_masks(T, L)
        self.cfg = cfg
        self.front = PatchProjector(Centralization(D, name="inter.cent"),
                                    Linear(rng, cfg.C1 * (T // 2), cfg.h3, "inter.in"), 1)
        self.stacks = [AttentionParams(rng, cfg.h3, cfg.h3, f"inter.stack{i}") for i in range(cfg.K)]
        self.out = Linear(rng, cfg.h3, L, "inter.out")
        self.layers = [self.front, *self.stacks, self.out]
        self._mask = Tensor((np.arange(L) < cfg.C2).astype(np.float64))

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, G):
        """G: a Grid or dense [B, D, T, T/2] grid -> [B, D, L], zero beyond
        horizon step C2."""
        grid = Grid.of(G)
        T = grid.rows.shape[-1]
        tokens, _ = self.front.forward(Grid(grid.coef, grid.rows[..., T - self.cfg.C1:]))  # no inverse
        tokens = ad.reshape(tokens, tokens.shape[:2] + (self.cfg.h3,))  # D variate tokens
        for stack in self.stacks:
            tokens = ad.attention_block(tokens, stack)
        return ad.mul(self.out(tokens), self._mask)
