
import numpy as np
import pytest

from fbm import autodiff as ad
from fbm import blocks as bl
from fbm import fourier as fb
from fbm.errors import ConfigError, NumericError

from gradcheck import param_grad_err, input_grad_err
from oracles import dense_grid, direct_attention_1token, direct_seasonal, halves, peak_bytes

RNG = np.random.default_rng


@pytest.mark.parametrize("seed", range(20))
def test_seasonal_trick_matches_direct_convolution(seed):
    rng = RNG(seed)
    # L > T: the horizon rows continue the basis tables past T
    for T, L in ((32, 8), (16, 40)):
        block = bl.SeasonalBlock(T, L)
        block.W.value = rng.normal(size=(T, T // 2))
        H_R, H_I = halves(rng.normal(size=(2, 3, T)))
        got = block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value
        want = direct_seasonal(block.W.value, H_R, H_I, T, L)
        assert np.max(np.abs(got - want)) < 1e-8


def test_seasonal_filter_reads_only_the_per_bin_gains():
    # W + E with E orthogonal, in each bin k, to both cm[:, k] and sm[:, k]
    # has the same complex gains, so the same output
    T, L = 32, 40
    rng = RNG(4)
    cm, sm = (t[:, 1:] for t in fb.dft_matrices(T))
    W = rng.normal(size=(T, T // 2))
    E = rng.normal(size=(T, T // 2))
    for k in range(T // 2):
        span, _ = np.linalg.qr(np.stack([cm[:, k], sm[:, k]], axis=1))
        E[:, k] -= span @ (span.T @ E[:, k])
    H_R, H_I = halves(rng.normal(size=(2, 3, T)))
    outs = []
    for w in (W, W + E):
        block = bl.SeasonalBlock(T, L)
        block.W.value = w
        outs.append(block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value)
    assert np.max(np.abs(E)) > 0.1
    assert np.max(np.abs(outs[1] - outs[0])) <= 1e-12 * np.max(np.abs(outs[0]))


def test_seasonal_block_holds_no_table_of_size_L_times_T():
    # sliding-window tables of K * L * T entries would take 88.8 MB at T=336,
    # L=96; the gain form reads T x K cos/sin tables and K x L horizon rows,
    # under 0.5 MB each, and the table caches are cleared so they count too
    for cache in (fb.build_bases, fb.dft_matrices):
        cache.cache_clear()
    _, peak = peak_bytes(bl.SeasonalBlock, 336, 96)
    assert peak < 8e6


def test_seasonal_zero_weights_zero_output():
    T, L = 16, 4
    block = bl.SeasonalBlock(T, L)
    H_R, H_I = halves(RNG(0).normal(size=(1, 2, T)))
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
    H_R, H_I = fb.rdft_array(x[None, None])
    H_R, H_I = H_R[..., 1:], H_I[..., 1:]
    out = block.forward(ad.Tensor(H_R), ad.Tensor(H_I)).value[0, 0]
    np.testing.assert_allclose(out, x[:L], atol=1e-9)


def test_seasonal_gradients():
    T, L = 16, 4
    block = bl.SeasonalBlock(T, L)
    block.W.value = RNG(2).normal(size=(T, T // 2)) * 0.3
    H_R, H_I = halves(RNG(3).normal(size=(2, 2, T)))

    def make_loss():
        out = block.forward(ad.Tensor(H_R), ad.Tensor(H_I))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_seasonal_bin_count_mismatch():
    block = bl.SeasonalBlock(16, 4)
    with pytest.raises(ConfigError):
        block.forward(ad.Tensor(np.zeros((1, 1, 5))), ad.Tensor(np.zeros((1, 1, 5))))


# --- the grid's linear map (fbm-l) ------------------------------------------------


@pytest.mark.parametrize("T", [16, 336])
def test_grid_linear_matches_the_grid_contraction(T):
    # oracle: materialize the DC-dropped grid and contract it with the
    # per-bin weights, the path the block's z @ M replaces
    rng = RNG(T)
    rows = bl.basis_rows(T, T)
    block = bl.GridLinear(RNG(0), rows, 5, "linear")
    block.w.value = rng.normal(size=(T // 2, T, 5))
    h_r, h_i = halves(rng.normal(size=(3, 2, T)))
    want = np.einsum("bdnk,knj->bdj", dense_grid(h_r, h_i), block.w.value)
    grid = bl.Grid.spectrum(ad.Tensor(h_r), ad.Tensor(h_i), rows)
    got = block.forward(grid).value
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("T, count", [(16, 6), (16, 16), (16, 40), (336, 96), (336, 336)])
def test_basis_rows_are_rows_of_the_continued_bases(T, count):
    # the first `count` rows of build_bases, past T its continuation, which is
    # row n mod T of the unpadded tables
    got = bl.basis_rows(T, count)
    padded, base = fb.build_bases(T, pad=count), fb.build_bases(T)
    for c, table in enumerate(("C", "S")):
        want = getattr(padded, table)[:count, 1:].T
        assert got[:, c, :].tobytes() == np.ascontiguousarray(want).tobytes()
        periodic = getattr(base, table)[np.arange(count) % T, 1:].T
        assert got[:, c, :].tobytes() == np.ascontiguousarray(periodic).tobytes()


def test_grid_linear_gradients():
    # GridLinear passes input gradients back to a tracked grid's coefficients
    T = 16
    rows = bl.basis_rows(T, T)
    block = bl.GridLinear(RNG(0), rows, 3, "linear")
    block.w.value = RNG(6).normal(size=(T // 2, T, 3))
    z = np.stack(halves(RNG(7).normal(size=(2, 3, T))), axis=-1)

    def loss(coef):
        y = block.forward(bl.Grid(coef[0], rows))
        return (y * y).mean()

    assert input_grad_err(loss, [z]) < 1e-4
    assert param_grad_err(lambda: loss([ad.Tensor(z)]), block.params()) < 1e-4


@pytest.mark.parametrize("tracked", [0, 1])
def test_a_tracked_spectrum_half_raises(tracked):
    # the halves are paired as constants, so a tracked half would silently get
    # no gradient: both the grid and the seasonal halves form refuse it
    pair = [ad.Tensor(h, requires_grad=i == tracked) for i, h in enumerate(halves(RNG(8).normal(size=(1, 2, 16))))]
    with pytest.raises(ValueError, match="constants"):
        bl.Grid.spectrum(*pair, bl.basis_rows(16, 16))
    with pytest.raises(ValueError, match="constants"):
        bl.SeasonalBlock(16, 4).forward(*pair)


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


def test_trend_zero_final_weights_zero_output():
    rng = RNG(0)
    cfg = bl.TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2))
    block = bl.TrendBlock(np.random.default_rng(0), 16, 4, 2, cfg)
    for _, scale in block.scales:
        scale.out.w.value[:] = 0.0
        scale.out.b.value[:] = 0.0
    G = dense_grid(*halves(rng.normal(size=(2, 2, 16)), True))
    out = block.forward(ad.Tensor(G)).value
    np.testing.assert_array_equal(out, np.zeros((2, 2, 4)))


def test_trend_linear_single_scale_equals_flat_linear_oracle():
    rng = RNG(1)
    T, L, D = 8, 3, 2
    cfg = bl.TrendConfig(backbone="linear", scales=(1,))
    block = bl.TrendBlock(np.random.default_rng(5), T, L, D, cfg)
    G = dense_grid(*halves(rng.normal(size=(2, D, T)), True))
    got = block.forward(ad.Tensor(G)).value
    W = block.scales[0][1].out.w.value
    b = block.scales[0][1].out.b.value
    want = G.reshape(2, D, -1) @ W + b
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("backbone", ["mlp", "transformer"])
def test_trend_gradients(backbone):
    T, L, D = 16, 4, 2
    cfg = bl.TrendConfig(backbone=backbone, h1=4, h2=5, K=1, P=2, scales=(1, 2))
    block = bl.TrendBlock(np.random.default_rng(7), T, L, D, cfg)
    G = dense_grid(*halves(RNG(8).normal(size=(1, D, T)), True))

    def make_loss():
        out = block.forward(ad.Tensor(G))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_trend_input_gradients():
    T, L, D = 16, 4, 2
    cfg = bl.TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1,))
    block = bl.TrendBlock(np.random.default_rng(9), T, L, D, cfg)
    G = dense_grid(*halves(RNG(10).normal(size=(1, D, T)), True))
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
    G = dense_grid(*halves(rng.normal(size=(2, 3, 16)), True))
    base = block.forward(ad.Tensor(G)).value
    # perturbing any timestep before the C1 tail leaves the output bit-identical
    G2 = G.copy()
    G2[:, :, : 16 - cfg.C1, :] += rng.normal(size=G2[:, :, : 16 - cfg.C1, :].shape)
    out2 = block.forward(ad.Tensor(G2)).value
    np.testing.assert_array_equal(base, out2)
    # horizon steps >= C2 are exactly zero
    np.testing.assert_array_equal(base[..., cfg.C2 :], np.zeros_like(base[..., cfg.C2 :]))
    assert np.any(base[..., : cfg.C2] != 0)


@pytest.mark.parametrize("bad", [dict(C1=0), dict(C2=-1), dict(h3=0), dict(K=-1),
                                 dict(C1=17), dict(C2=5)])
def test_interaction_rejects_out_of_range_config(bad):
    # T=16, L=4: C1 must lie in [1, 16] and C2 in [0, 4]
    with pytest.raises(ConfigError):
        _inter_block(**bad)


def test_interaction_c2_zero_disables_block():
    block, _ = _inter_block(C2=0)
    G = dense_grid(*halves(RNG(2).normal(size=(1, 3, 16)), True))
    out = block.forward(ad.Tensor(G)).value
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_interaction_rejects_bad_masks():
    with pytest.raises(ConfigError):
        _inter_block(C1=17)
    with pytest.raises(ConfigError):
        _inter_block(C2=5)


def test_interaction_single_channel_matches_hand_oracle():
    T, L, D = 16, 4, 1
    block, cfg = _inter_block(D=D, K=1)
    G = dense_grid(*halves(RNG(3).normal(size=(1, D, T)), True))
    got = block.forward(ad.Tensor(G)).value[0, 0]

    flat = G[0, 0, T - cfg.C1 :, :].reshape(-1)
    mu, var = flat.mean(), flat.var()
    xhat = (flat - mu) / np.sqrt(var + 1e-5)  # gamma=1, beta=0 at init
    tok = xhat @ block.front.linear.w.value + block.front.linear.b.value
    tok = direct_attention_1token(tok, block.stacks[0])
    want = tok @ block.out.w.value + block.out.b.value
    want[cfg.C2 :] = 0.0
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_interaction_gradients():
    block, _ = _inter_block(seed=4, D=2)
    G = dense_grid(*halves(RNG(5).normal(size=(1, 2, 16)), True))

    def make_loss():
        out = block.forward(ad.Tensor(G))
        return (out * out).mean()

    assert param_grad_err(make_loss, block.params()) < 1e-4


def test_interaction_input_gradients():
    block, _ = _inter_block(seed=6, D=2)
    G = dense_grid(*halves(RNG(7).normal(size=(1, 2, 16)), True))
    err = input_grad_err(lambda t: block.forward(t[0]).mean(), [G])
    assert err < 1e-4
