"""The grid-free fronts against the direct grid path they replace.

Every trend scale, fbm-np and the interaction block read the DC-dropped
spectrum as a blocks.Grid: patch maps, patch moments and downsampled scales
come from the spectrum and tables of basis rows, and the [B, D, T, K] grid
is never built. The oracle here builds that grid and runs the direct path
in numpy: downsample, patch, standardize, Linear, ReLU, decentralize.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from fbm import autodiff as ad
from fbm import blocks as bl
from fbm import fourier as fb
from fbm import models
from fbm.autodiff import Tensor
from fbm.models import ForecastModel, ModelSpec, instance_standardize

from gradcheck import param_grad_err

# --- the direct grid path ------------------------------------------------------------


def dense_grid(h_r, h_i):
    """DC-dropped halves [..., K] -> the grid [..., T, K] itself."""
    T = 2 * h_r.shape[-1]
    bases = fb.build_bases(T)
    return h_r[..., None, :] * bases.C[:, 1:] + h_i[..., None, :] * bases.S[:, 1:]


def direct_downsample(G, kernel):
    *lead, t, f = G.shape
    x = G.reshape(*lead, t // kernel, kernel, f).mean(axis=-2)
    return x.reshape(*lead, t // kernel, f // kernel, kernel).sum(axis=-1)


def direct_centralized_linear(cent, x, linear):
    """Standardize each patch x[..., D, P, N] (two-pass variance), gamma and
    beta, then the Linear: -> (y, mean, std)."""
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True) + bl.CENT_EPS)
    g, b = cent.gamma.value[:, None, None], cent.beta.value[:, None, None]
    return ((x - mean) / std * g + b) @ linear.w.value + linear.b.value, mean, std


def direct_scale(scale, Gs):
    """One trend scale (or fbm-np) on its dense grid [B, D, T_s, K_s]."""
    B, D = Gs.shape[:2]
    if scale.proj is None:
        return Gs.reshape(B, D, -1) @ scale.out.w.value + scale.out.b.value
    proj, cfg = scale.proj, scale.cfg
    y, mean, std = direct_centralized_linear(proj.cent, Gs.reshape(B, D, cfg.P, -1), proj.linear)
    if scale.use_relu:
        y = np.maximum(y, 0.0)
    g, b = proj.cent.gamma.value[:, None, None], proj.cent.beta.value[:, None, None]
    y = (y - b) / g * std + mean
    if scale.mid is not None:
        x = np.maximum(y.reshape(B, D, -1) @ scale.mid.w.value + scale.mid.b.value, 0.0)
    else:
        tokens = Tensor(y.reshape(B * D, cfg.P, cfg.h1))
        with ad.no_grad():
            for stack in scale.stacks:
                tokens = ad.attention_block(tokens, stack)
        x = tokens.value.reshape(B, D, -1)
    return x @ scale.out.w.value + scale.out.b.value


def direct_trend(block, G):
    return sum(direct_scale(scale, G if k == 1 else direct_downsample(G, k))
               for k, scale in block.scales)


def direct_interaction(block, G):
    B, D, T, _ = G.shape
    recent = G[:, :, T - block.cfg.C1:, :].reshape(B, D, 1, -1)
    y, _, _ = direct_centralized_linear(block.front.cent, recent, block.front.linear)
    tokens = Tensor(y.reshape(B, D, -1))
    with ad.no_grad():
        for stack in block.stacks:
            tokens = ad.attention_block(tokens, stack)
    return (tokens.value @ block.out.w.value + block.out.b.value) * block._mask.value


def direct_np_predict(model, X):
    Xs, mu, sd = instance_standardize(X) if model.spec.standardize else (X, 0.0, 1.0)
    H_R, H_I = fb.rdft_array(Xs)
    return direct_scale(model.blocks["fbm-np"], dense_grid(H_R[..., 1:], H_I[..., 1:])) * sd + mu


# --- equivalence ---------------------------------------------------------------------


def _windows(kind, T, D=3, B=2):
    rng = np.random.default_rng(T)
    if kind == "random":
        return rng.normal(size=(B, D, T)) * 3 + 1
    constant = np.full((B, D, T), 3.0)
    return constant if kind == "constant" else constant + 1e-9 * rng.normal(size=(B, D, T))


def _halves(X, standardize):
    Xs = instance_standardize(X)[0] if standardize else X
    H_R, H_I = fb.rdft_array(Xs)
    return H_R[..., 1:], H_I[..., 1:]


def _perturb(block, seed):
    # move every parameter off its init, so gamma, beta and the biases all count
    rng = np.random.default_rng(seed)
    for p in block.params():
        p.value = (rng.uniform(0.5, 1.5, p.shape) if p.name.endswith(".gamma")
                   else p.value + 0.1 * rng.normal(size=p.shape))


def _close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


CASES = [(kind, standardize) for kind in ("random", "constant", "constant+1e-9")
         for standardize in (True, False)]


@pytest.mark.parametrize("T, P", [(16, 2), (336, 14)])
@pytest.mark.parametrize("backbone", ["mlp", "transformer", "linear"])
def test_trend_block_from_the_spectrum_matches_the_direct_grid_path(T, P, backbone):
    cfg = bl.TrendConfig(backbone=backbone, h1=5, h2=6, K=1, P=P, scales=(1, 2, 4))
    block = bl.TrendBlock(np.random.default_rng(1), T, 4, 3, cfg)
    _perturb(block, 2)
    rows = bl.basis_rows(T, T).value
    for kind, standardize in CASES:
        h_r, h_i = _halves(_windows(kind, T), standardize)
        got = block.forward(bl.Grid.spectrum(Tensor(h_r), Tensor(h_i), rows)).value
        _close(got, direct_trend(block, dense_grid(h_r, h_i)))


@pytest.mark.parametrize("T, C1", [(16, 4), (336, 24)])
def test_interaction_from_the_spectrum_matches_the_direct_grid_path(T, C1):
    cfg = bl.InteractionConfig(C1=C1, C2=3, h3=6, K=1)
    block = bl.InteractionBlock(np.random.default_rng(3), T, 4, 3, cfg)
    _perturb(block, 4)
    rows = bl.basis_rows(T, T).value
    for kind, standardize in CASES:
        h_r, h_i = _halves(_windows(kind, T), standardize)
        got = block.forward(bl.Grid.spectrum(Tensor(h_r), Tensor(h_i), rows)).value
        _close(got, direct_interaction(block, dense_grid(h_r, h_i)))


@pytest.mark.parametrize("T, P", [(16, 2), (336, 14)])
def test_fbm_np_matches_the_direct_grid_path(T, P):
    np_cfg = bl.TrendConfig(backbone="transformer", h1=5, h2=6, K=1, P=P)
    for kind, standardize in CASES:
        spec = ModelSpec(variant="fbm-np", T=T, L=4, D=3, np_cfg=np_cfg, standardize=standardize)
        model = ForecastModel(spec, seed=5)
        _perturb(model.blocks["fbm-np"], 6)
        X = _windows(kind, T)
        _close(model.predict(X), direct_np_predict(model, X))


def test_a_dense_grid_and_its_spectrum_give_the_same_block_outputs():
    # the grid entry point (columns over identity rows) and the spectrum
    # entry point are two bases for the same grid
    T = 16
    trend = bl.TrendBlock(np.random.default_rng(7), T, 4, 3,
                          bl.TrendConfig(h1=5, h2=6, P=2, scales=(1, 2, 4)))
    inter = bl.InteractionBlock(np.random.default_rng(8), T, 4, 3,
                                bl.InteractionConfig(C1=4, C2=3, h3=6, K=1))
    h_r, h_i = _halves(_windows("random", T), True)
    spectrum = bl.Grid.spectrum(Tensor(h_r), Tensor(h_i), bl.basis_rows(T, T).value)
    for block in (trend, inter):
        _close(block.forward(Tensor(dense_grid(h_r, h_i))).value, block.forward(spectrum).value)


def test_the_variance_clamp_keeps_a_constant_patch_on_the_floor():
    # all-zero coefficients: mean and mean square are 0, so std = sqrt(CENT_EPS)
    T, P = 16, 2
    grid = bl.Grid.spectrum(Tensor(np.zeros((1, 2, T // 2))), Tensor(np.zeros((1, 2, T // 2))),
                            bl.basis_rows(T, T).value)
    patches = bl.Patches(grid, P)
    mean, square = patches.moments()
    w = Tensor(np.ones((T // P * T // 2, 3)))
    _, (m, std) = bl.Centralization(2).centralize(patches, w, Tensor(np.zeros(3)))
    assert np.all(mean.value == 0) and np.all(square.value == 0) and np.all(m.value == 0)
    np.testing.assert_array_equal(std.value, np.full((1, 2, P, 1), np.sqrt(bl.CENT_EPS)))


def test_folded_decentralize_matches_the_direct_inverse_at_the_std_floor():
    # y (std / gamma) + (mean - beta std / gamma) against (y - beta) / gamma std + mean,
    # on near-constant patches (std on the floor sqrt(CENT_EPS)), with y at and
    # around beta. Bound: 4 ulp of the largest magnitude either form adds or
    # subtracts, (|y| + |beta|) std / |gamma| + |mean|.
    rng = np.random.default_rng(9)
    D = 3
    cent = bl.Centralization(D)
    cent.gamma.value = np.array([1e-3, 0.7, -2.0])
    cent.beta.value = np.array([5.0, -0.3, 40.0])
    x = _windows("constant+1e-9", 24, D=D).reshape(2, D, 4, 6)
    with ad.no_grad():
        _, (mean, std) = cent.centralize(Tensor(x))
    np.testing.assert_allclose(std.value, np.sqrt(bl.CENT_EPS), rtol=1e-9)
    g, b = cent.gamma.value[:, None, None], cent.beta.value[:, None, None]
    for y in (np.broadcast_to(b, (2, D, 4, 5)), b + 1e-9 * rng.normal(size=(2, D, 4, 5)),
              10 * rng.normal(size=(2, D, 4, 5))):
        with ad.no_grad():
            got = cent.decentralize(Tensor(y), (mean, std)).value
        want = (y - b) / g * std.value + mean.value
        scale = (np.abs(y) + np.abs(b)) * std.value / np.abs(g) + np.abs(mean.value)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_a_trend_scale_front_makes_at_most_six_full_passes(monkeypatch):
    # the ops that write a full [B, D, P, h1] array between Patches.linear and mid:
    # the GEMM's reshape, centralize's scale and shift, the ReLU, decentralize's
    # scale and shift (12 before the front was folded)
    B, D, T, P, h1 = 3, 2, 16, 2, 5
    block = bl.TrendBlock(np.random.default_rng(1), T, 4, D,
                          bl.TrendConfig(backbone="mlp", h1=h1, h2=6, P=P, scales=(1,)))
    _perturb(block, 2)
    full = []
    for name, op in vars(ad).items():
        if inspect.isfunction(op) and op.__module__ == ad.__name__ and not name.startswith("_"):
            def counted(*args, _op=op, _name=name, **kwargs):
                out = _op(*args, **kwargs)
                if isinstance(out, Tensor) and out.shape == (B, D, P, h1):
                    full.append(_name)
                return out

            monkeypatch.setattr(ad, name, counted)
    h_r, h_i = _halves(_windows("random", T, D=D, B=B), True)
    with ad.no_grad():
        block.forward(bl.Grid.spectrum(Tensor(h_r), Tensor(h_i), bl.basis_rows(T, T).value))
    assert 0 < len(full) <= 6, full


# --- gradients, the grid never built, memory --------------------------------------------


def test_fbm_s_gradcheck_with_every_scale_and_interaction():
    spec = ModelSpec(variant="fbm-s", T=16, L=3, D=2,
                     trend=bl.TrendConfig(backbone="mlp", h1=3, h2=4, P=2, scales=(1, 2, 4)),
                     interaction=bl.InteractionConfig(C1=3, C2=2, h3=4, K=1))
    model = ForecastModel(spec, seed=3)
    X = np.random.default_rng(4).normal(size=(2, 2, 16))

    def make_loss():
        y = model.forward(X)
        return (y * y).mean()

    assert param_grad_err(make_loss, model.params) < 1e-4


SPECS = {
    "fbm-l": dict(),
    "fbm-nl": dict(nl_h1=5, nl_h2=4),
    "fbm-np": dict(np_cfg=bl.TrendConfig(backbone="transformer", h1=4, h2=5, K=1, P=2)),
    "diag": dict(),
    "last": dict(),
    **{f"fbm-s-{b}": dict(trend=bl.TrendConfig(backbone=b, h1=3, h2=4, K=1, P=2, scales=(1, 2, 4)),
                          interaction=bl.InteractionConfig(C1=3, C2=2, h3=4, K=1))
       for b in bl.BACKBONES},
}


@pytest.mark.parametrize("name", SPECS)
def test_no_variant_builds_the_grid(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expand_array called")

    for module in (fb, bl, models):
        if hasattr(module, "expand_array"):
            monkeypatch.setattr(module, "expand_array", refuse)
    spec = ModelSpec(variant=name[:5] if name.startswith("fbm-s") else name,
                     T=16, L=3, D=2, **SPECS[name])
    model = ForecastModel(spec, seed=0)
    y = model.forward(np.random.default_rng(0).normal(size=(2, 2, 16)))
    ad.backward((y * y).mean(), model.params)
    assert all(p.grad is not None for p in model.params)


def test_fbm_s_eval_forward_holds_less_than_one_grid():
    spec = ModelSpec(variant="fbm-s", T=336, L=96, D=7,
                     trend=bl.TrendConfig(backbone="mlp", scales=(1, 2)),
                     interaction=bl.InteractionConfig())
    model = ForecastModel(spec, seed=0)
    X = np.random.default_rng(0).normal(size=(8, 7, 336))
    model.predict(X)  # the Fourier table caches are filled outside the trace
    grid_bytes = 8 * 7 * 336 * 168 * 8
    tracemalloc.start()
    try:
        model.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes


def test_seasonal_forward_holds_one_interleaved_spectrum():
    # z is written as one [..., K, 2] array; pairing the halves with two
    # products and their sum held three of them, 9.6 MB here
    block = bl.SeasonalBlock(336, 96)
    block.W.value = np.random.default_rng(0).normal(size=block.W.shape)
    h_r, h_i = (Tensor(h) for h in _halves(np.random.default_rng(1).normal(size=(128, 7, 336)), True))
    with ad.no_grad():
        block.forward(h_r, h_i)
        tracemalloc.start()
        try:
            block.forward(h_r, h_i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6e6
