import numpy as np
import pytest

from fbm import autodiff as ad
from fbm import blocks as bl
from fbm import fourier as fb
from fbm.errors import ConfigError, NumericError

from gradcheck import param_grad_err, input_grad_err

RNG = np.random.default_rng


def seasonal_direct_oracle(W, H_R, H_I, T, L):
    # slide W over the padded per-frequency features; the naive path the
    # fused kernel must reproduce
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


def _spectra(rng, B, D, T):
    X = rng.normal(size=(B, D, T))
    H_R, H_I = fb.rdft_array(X)
    return H_R[..., 1:], H_I[..., 1:]


@pytest.mark.parametrize("seed", range(20))
def test_seasonal_trick_matches_direct_convolution(seed):
    T, L = 32, 8
    rng = RNG(seed)
    block = bl.SeasonalBlock(T, L)
    block.W.value = rng.normal(size=(T, T // 2))
    H_R, H_I = _spectra(rng, 2, 3, T)
    got = block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value
    want = seasonal_direct_oracle(block.W.value, H_R, H_I, T, L)
    assert np.max(np.abs(got - want)) < 1e-8


def test_seasonal_zero_weights_zero_output():
    T, L = 16, 4
    block = bl.SeasonalBlock(T, L)
    H_R, H_I = _spectra(RNG(0), 1, 2, T)
    out = block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value
    np.testing.assert_array_equal(out, np.zeros((1, 2, L)))


def test_seasonal_delta_filter_picks_continuation():
    # W concentrated on row 0 turns the filter into "read the padded
    # features at offset v", i.e. the reconstruction at step v
    T, L = 16, 4
    block = bl.SeasonalBlock(T, L)
    block.W.value = np.zeros((T, T // 2))
    block.W.value[0, :] = 1.0
    rng = RNG(1)
    x = rng.normal(size=T)
    x = x - x.mean()
    spec = fb.rdft(x)
    H_R = spec.real[None, None, 1:]
    H_I = spec.imag[None, None, 1:]
    out = block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value[0, 0]
    np.testing.assert_allclose(out, x[:L], atol=1e-9)


def test_seasonal_gradients():
    T, L = 16, 4
    block = bl.SeasonalBlock(T, L)
    block.W.value = RNG(2).normal(size=(T, T // 2)) * 0.3
    H_R, H_I = _spectra(RNG(3), 2, 2, T)

    def make_loss():
        out = block.forward(ad.Tensor(H_R), ad.Tensor(H_I))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_seasonal_bin_count_mismatch():
    block = bl.SeasonalBlock(16, 4)
    with pytest.raises(ConfigError):
        block.forward(ad.Tensor(np.zeros((1, 1, 5))), ad.Tensor(np.zeros((1, 1, 5))))


# --- patching -------------------------------------------------------------------


def test_patch_layout_arithmetic():
    layout = bl.PatchLayout.make(336, 168, 14)
    assert layout.patch_time == 24
    assert layout.N == 4032  # == T^2 / (2P) at full resolution


def test_patch_rejects_bad_counts():
    with pytest.raises(ConfigError):
        bl.PatchLayout.make(16, 8, 5)


@pytest.mark.parametrize("seed", range(50))
def test_patch_unpatch_bijection(seed):
    rng = RNG(seed)
    T, K, P = 16, 8, rng.choice([1, 2, 4, 8])
    layout = bl.PatchLayout.make(T, K, int(P))
    G = rng.normal(size=(2, 3, T, K))
    back = bl.unpatch(bl.patch(ad.Tensor(G), layout), layout).value
    np.testing.assert_array_equal(back, G)


def test_patch_single_patch_is_flattened_grid():
    rng = RNG(0)
    G = rng.normal(size=(1, 1, 4, 2))
    layout = bl.PatchLayout.make(4, 2, 1)
    got = bl.patch(ad.Tensor(G), layout).value
    np.testing.assert_array_equal(got[0, 0, 0], G[0, 0].reshape(-1))


def test_patch_is_time_major():
    # patch p covers timesteps [p*T/P, (p+1)*T/P) across all columns
    T, K, P = 4, 3, 2
    G = np.arange(T * K, dtype=float).reshape(1, 1, T, K)
    layout = bl.PatchLayout.make(T, K, P)
    got = bl.patch(ad.Tensor(G), layout).value
    np.testing.assert_array_equal(got[0, 0, 1], G[0, 0, 2:4].reshape(-1))


# --- centralization ---------------------------------------------------------------


# "standardize" is the block at init: gamma 1 and beta 0 leave the plain
# per-patch standardization
@pytest.mark.parametrize("mode", ["affine", "standardize"])
@pytest.mark.parametrize("seed", range(10))
def test_centralize_roundtrip(mode, seed):
    rng = RNG(seed)
    D = 3
    cent = bl.Centralization(D)
    if mode == "affine":
        cent.gamma.value = rng.uniform(0.5, 2.0, size=D)
        cent.beta.value = rng.normal(size=D)
    x = rng.normal(size=(2, D, 4, 6)) * 3 + 1
    xhat, stats = cent.centralize(ad.Tensor(x))
    back = cent.decentralize(xhat, stats).value
    assert np.max(np.abs(back - x)) < 1e-10


def test_centralize_constant_patch():
    D = 2
    x = np.full((1, D, 2, 5), 7.0)
    std = bl.Centralization(D)  # at init: plain standardization
    y, _ = std.centralize(ad.Tensor(x))
    np.testing.assert_array_equal(y.value, np.zeros_like(x))
    aff = bl.Centralization(D)
    aff.beta.value = np.array([1.5, -2.0])
    y, _ = aff.centralize(ad.Tensor(x))
    np.testing.assert_allclose(y.value[0, 0], np.full((2, 5), 1.5), atol=1e-12)
    np.testing.assert_allclose(y.value[0, 1], np.full((2, 5), -2.0), atol=1e-12)


def test_centralize_moments():
    rng = RNG(11)
    x = rng.normal(size=(1, 2, 3, 50)) * 10  # large variance: shrinkage < 1e-6
    cent = bl.Centralization(2)  # at init: plain standardization
    y, _ = cent.centralize(ad.Tensor(x))
    mean = y.value.mean(axis=-1)
    assert np.max(np.abs(mean)) < 1e-12
    var_in = x.var(axis=-1)
    var_out = y.value.var(axis=-1)
    np.testing.assert_allclose(var_out, var_in / (var_in + 1e-5), atol=1e-10)
    assert np.all(var_out <= 1.0) and np.all(var_out >= 1 - 1e-6)


def test_decentralize_guards_collapsed_gamma():
    cent = bl.Centralization(2)
    cent.gamma.value = np.array([1.0, 0.0])
    x = ad.Tensor(np.ones((1, 2, 1, 4)))
    xhat, stats = cent.centralize(x)
    with pytest.raises(NumericError):
        cent.decentralize(xhat, stats)


def test_centralize_gradients_flow_through_stats():
    # perturbing the input changes the cached stats; the tape must see it
    rng = RNG(12)
    cent = bl.Centralization(2)
    cent.gamma.value = rng.uniform(0.5, 1.5, size=2)
    cent.beta.value = rng.normal(size=2) * 0.1
    x = rng.normal(size=(1, 2, 2, 5))
    w = rng.normal(size=(5, 3))

    def build(t):
        xhat, stats = cent.centralize(t[0])
        y = ad.matmul(xhat, ad.Tensor(w))
        z = cent.decentralize(y, stats)
        return (z * z).mean()

    assert input_grad_err(build, [x]) < 1e-4


# --- trend block -------------------------------------------------------------------


def _features(rng, B, D, T):
    X = rng.normal(size=(B, D, T))
    mu = X.mean(-1, keepdims=True)
    sd = X.std(-1, keepdims=True)
    Xs = (X - mu) / sd
    H_R, H_I = fb.rdft_array(Xs)
    G = fb.expand_array(H_R, H_I, fb.build_bases(T), drop_dc=True)
    return G


def test_trend_zero_final_weights_zero_output():
    rng = RNG(0)
    cfg = bl.TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2))
    block = bl.TrendBlock(np.random.default_rng(0), 16, 4, 2, cfg)
    for _, scale in block.scales:
        scale.w_out.value[:] = 0.0
        scale.b_out.value[:] = 0.0
    G = _features(rng, 2, 2, 16)
    out = block.forward(ad.Tensor(G)).value
    np.testing.assert_array_equal(out, np.zeros((2, 2, 4)))


def test_trend_linear_single_scale_equals_flat_linear_oracle():
    rng = RNG(1)
    T, L, D = 8, 3, 2
    cfg = bl.TrendConfig(backbone="linear", scales=(1,))
    block = bl.TrendBlock(np.random.default_rng(5), T, L, D, cfg)
    G = _features(rng, 2, D, T)
    got = block.forward(ad.Tensor(G)).value
    W = block.scales[0][1].w_out.value
    b = block.scales[0][1].b_out.value
    want = G.reshape(2, D, -1) @ W + b
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("backbone", ["mlp", "transformer"])
def test_trend_gradients(backbone):
    T, L, D = 16, 4, 2
    cfg = bl.TrendConfig(backbone=backbone, h1=4, h2=5, K=1, P=2, scales=(1, 2))
    block = bl.TrendBlock(np.random.default_rng(7), T, L, D, cfg)
    G = _features(RNG(8), 1, D, T)

    def make_loss():
        out = block.forward(ad.Tensor(G))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_trend_input_gradients():
    T, L, D = 16, 4, 2
    cfg = bl.TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1,))
    block = bl.TrendBlock(np.random.default_rng(9), T, L, D, cfg)
    G = _features(RNG(10), 1, D, T)
    err = input_grad_err(lambda t: (block.forward(t[0]) * block.forward(t[0])).mean(), [G])
    assert err < 1e-4


def test_trend_rejects_bad_scale():
    with pytest.raises(ConfigError):
        cfg = bl.TrendConfig(backbone="mlp", h1=4, h2=4, P=2, scales=(3,))
        bl.TrendBlock(np.random.default_rng(0), 16, 4, 1, cfg)


# --- interaction block ---------------------------------------------------------------


def _inter_block(seed=0, T=16, L=4, D=3, C1=4, C2=3, h3=5, K=1):
    cfg = bl.InteractionConfig(C1=C1, C2=C2, h3=h3, K=K)
    return bl.InteractionBlock(np.random.default_rng(seed), T, L, D, cfg), cfg


def test_interaction_mask_locality_exact():
    block, cfg = _inter_block()
    rng = RNG(1)
    G = _features(rng, 2, 3, 16)
    base = block.forward(ad.Tensor(G)).value
    # perturbing any timestep before the C1 tail leaves the output bit-identical
    G2 = G.copy()
    G2[:, :, : 16 - cfg.C1, :] += rng.normal(size=G2[:, :, : 16 - cfg.C1, :].shape)
    out2 = block.forward(ad.Tensor(G2)).value
    np.testing.assert_array_equal(base, out2)
    # horizon steps >= C2 are exactly zero
    np.testing.assert_array_equal(base[..., cfg.C2 :], np.zeros_like(base[..., cfg.C2 :]))
    assert np.any(base[..., : cfg.C2] != 0)


def test_interaction_c2_zero_disables_block():
    block, _ = _inter_block(C2=0)
    G = _features(RNG(2), 1, 3, 16)
    out = block.forward(ad.Tensor(G)).value
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_interaction_rejects_bad_masks():
    with pytest.raises(ConfigError):
        _inter_block(C1=17)
    with pytest.raises(ConfigError):
        _inter_block(C2=5)


def _attention_oracle_1token(x, p):
    # hand-computed single-token pass: softmax over one key is 1
    def norm(v):
        mu = v.mean()
        sd = np.sqrt(((v - mu) ** 2).mean() + 1e-5)
        return (v - mu) / sd

    n1 = norm(x)
    v = n1 @ p.wv.value + p.bv.value
    x = x + v @ p.wo.value + p.bo.value
    n2 = norm(x)
    f = np.maximum(n2 @ p.w1.value + p.b1.value, 0.0) @ p.w2.value + p.b2.value
    return x + f


def test_interaction_single_channel_matches_hand_oracle():
    T, L, D = 16, 4, 1
    block, cfg = _inter_block(D=D, K=1)
    G = _features(RNG(3), 1, D, T)
    got = block.forward(ad.Tensor(G)).value[0, 0]

    flat = G[0, 0, T - cfg.C1 :, :].reshape(-1)
    mu, var = flat.mean(), flat.var()
    xhat = (flat - mu) / np.sqrt(var + 1e-5)  # gamma=1, beta=0 at init
    tok = xhat @ block.w_in.value + block.b_in.value
    tok = _attention_oracle_1token(tok, block.stacks[0])
    want = tok @ block.w_out.value + block.b_out.value
    want[cfg.C2 :] = 0.0
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_interaction_gradients():
    block, _ = _inter_block(seed=4, D=2)
    G = _features(RNG(5), 1, 2, 16)

    def make_loss():
        out = block.forward(ad.Tensor(G))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_interaction_input_gradients():
    block, _ = _inter_block(seed=6, D=2)
    G = _features(RNG(7), 1, 2, 16)
    err = input_grad_err(lambda t: block.forward(t[0]).mean(), [G])
    assert err < 1e-4
