"""Model assembly: the shared outer pipeline, each variant's mapping,
checkpointing, and parameter accounting."""

import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from fbm import autodiff as ad
from fbm.blocks import InteractionConfig, TrendConfig
from fbm.data import WindowBatch
from fbm.errors import CheckpointError, ConfigError
from fbm.models import (
    VARIANTS,
    ForecastModel,
    ModelSpec,
    expected_param_count,
    instance_standardize,
)
from fbm.train import evaluate, make_case1

from gradcheck import param_grad_err

SMALL_TREND = TrendConfig(backbone="linear", scales=(1,))
SMALL_INTER = InteractionConfig(C1=3, C2=4, h3=5, K=1)


def small_spec(variant, T=16, L=6, D=3, **kw):
    if variant == "fbm-nl":
        kw.setdefault("nl_h1", 7)
        kw.setdefault("nl_h2", 5)
    if variant == "fbm-np":
        kw.setdefault("np_cfg", TrendConfig(backbone="transformer", P=2, h1=4, h2=6, K=1))
    if variant == "fbm-s":
        kw.setdefault("trend", SMALL_TREND)
        kw.setdefault("interaction", SMALL_INTER)
    return ModelSpec(variant=variant, T=T, L=L, D=D, **kw)


ALL_VARIANTS = ["fbm-l", "fbm-nl", "fbm-np", "fbm-s", "diag", "last"]


def windows(rng, B=4, D=3, T=16, scale=1.0, offset=0.0):
    return scale * rng.standard_normal((B, D, T)) + offset


# --- spec validation and serialization -----------------------------------------


def test_spec_rejects_odd_window():
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-l", T=15, L=4, D=1)


def test_spec_rejects_tiny_window():
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-l", T=2, L=4, D=1)


def test_spec_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-x", T=16, L=4, D=1)


def test_spec_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-l", T=16, L=0, D=1)
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-l", T=16, L=4, D=0)
    with pytest.raises(ConfigError):
        ModelSpec(variant="fbm-nl", T=16, L=4, D=1, nl_h1=0)


@pytest.mark.parametrize(
    "np_cfg",
    [
        TrendConfig(P=2, h1=4, h2=6, K=1),  # the mlp default backbone
        TrendConfig(backbone="linear", P=2, h1=4, h2=6, K=1),
        TrendConfig(backbone="transformer", P=2, h1=4, h2=6, K=1, scales=(1, 2)),
    ],
    ids=["mlp", "linear", "scales"],
)
def test_spec_rejects_np_config_the_header_cannot_carry(np_cfg):
    # the header records only P/h1/h2/K, so any other backbone or scales would
    # build a model its own checkpoint could not load
    with pytest.raises(ConfigError, match="fbm-np config needs backbone='transformer'"):
        ModelSpec(variant="fbm-np", T=16, L=6, D=3, np_cfg=np_cfg)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_header_roundtrip(variant):
    spec = small_spec(variant)
    assert ModelSpec.from_header(spec.to_header()) == spec


def test_header_roundtrip_multi_scale_trend():
    spec = small_spec(
        "fbm-s",
        trend=TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2)),
        interaction=None,
    )
    assert ModelSpec.from_header(spec.to_header()) == spec


def test_header_missing_field_is_checkpoint_error():
    h = small_spec("fbm-nl").to_header()
    del h["nl_h1"]
    with pytest.raises(CheckpointError, match="nl_h1"):
        ModelSpec.from_header(h)


MLP_TREND = TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2))
TRANSFORMER_TREND = TrendConfig(backbone="transformer", h1=4, h2=6, K=1, P=2, scales=(1, 2, 4))

# Headers as written before the spec field table existed; the table must
# reproduce every key, its order and its text.
HEADER_PINS = {
    "fbm-l": (
        small_spec("fbm-l"),
        {"variant": "fbm-l", "T": "16", "L": "6", "D": "3", "standardize": "1"},
    ),
    "fbm-l-raw": (
        small_spec("fbm-l", standardize=False),
        {"variant": "fbm-l", "T": "16", "L": "6", "D": "3", "standardize": "0"},
    ),
    "fbm-nl": (
        small_spec("fbm-nl"),
        {"variant": "fbm-nl", "T": "16", "L": "6", "D": "3", "standardize": "1",
         "nl_h1": "7", "nl_h2": "5"},
    ),
    "fbm-np": (
        small_spec("fbm-np"),
        {"variant": "fbm-np", "T": "16", "L": "6", "D": "3", "standardize": "1",
         "np_p": "2", "np_h1": "4", "np_h2": "6", "np_k": "1"},
    ),
    "fbm-s-linear": (
        small_spec("fbm-s", trend=TrendConfig(backbone="linear"), interaction=None),
        {"variant": "fbm-s", "T": "16", "L": "6", "D": "3", "standardize": "1",
         "trend_backbone": "linear", "trend_h1": "128", "trend_h2": "1440", "trend_k": "3",
         "trend_p": "14", "trend_scales": "1", "interaction": "0"},
    ),
    "fbm-s-mlp-interaction": (
        small_spec("fbm-s", trend=MLP_TREND),
        {"variant": "fbm-s", "T": "16", "L": "6", "D": "3", "standardize": "1",
         "trend_backbone": "mlp", "trend_h1": "4", "trend_h2": "5", "trend_k": "3",
         "trend_p": "2", "trend_scales": "1+2", "interaction": "1",
         "c1": "3", "c2": "4", "h3": "5", "inter_k": "1"},
    ),
    "fbm-s-transformer": (
        small_spec("fbm-s", standardize=False, trend=TRANSFORMER_TREND, interaction=None),
        {"variant": "fbm-s", "T": "16", "L": "6", "D": "3", "standardize": "0",
         "trend_backbone": "transformer", "trend_h1": "4", "trend_h2": "6", "trend_k": "1",
         "trend_p": "2", "trend_scales": "1+2+4", "interaction": "0"},
    ),
    "fbm-s-defaults": (
        ModelSpec(variant="fbm-s", T=336, L=96, D=7, interaction=InteractionConfig()),
        {"variant": "fbm-s", "T": "336", "L": "96", "D": "7", "standardize": "1",
         "trend_backbone": "mlp", "trend_h1": "128", "trend_h2": "1440", "trend_k": "3",
         "trend_p": "14", "trend_scales": "1", "interaction": "1",
         "c1": "24", "c2": "96", "h3": "512", "inter_k": "3"},
    ),
    "diag": (
        small_spec("diag"),
        {"variant": "diag", "T": "16", "L": "6", "D": "3", "standardize": "1"},
    ),
    "last": (
        small_spec("last"),
        {"variant": "last", "T": "16", "L": "6", "D": "3", "standardize": "1"},
    ),
}


@pytest.mark.parametrize("name", HEADER_PINS)
def test_header_keys_order_and_text_are_pinned(name):
    spec, header = HEADER_PINS[name]
    assert list(spec.to_header().items()) == list(header.items())
    assert ModelSpec.from_header(header) == spec


def test_header_without_switches_reads_defaults():
    h = small_spec("fbm-s", interaction=None).to_header()
    del h["standardize"], h["interaction"]
    spec = ModelSpec.from_header(h)
    assert spec.standardize is True and spec.interaction is None


def test_checkpoint_from_before_the_field_table_loads(tmp_path):
    # fixture written by ForecastModel(spec, seed=11).save() before the spec
    # field table replaced the hand-written header code
    fixture = Path(__file__).parent / "fixtures" / "fbm_s_interaction.fbm"
    spec = small_spec("fbm-s", trend=MLP_TREND)
    model = ForecastModel.load(fixture, expected_spec=spec)
    fresh = ForecastModel(spec, seed=11)
    for p, q in zip(model.params, fresh.params, strict=True):
        assert p.name == q.name
        np.testing.assert_array_equal(p.value, q.value)
    model.save(tmp_path / "again.fbm")
    assert (tmp_path / "again.fbm").read_bytes() == fixture.read_bytes()


def test_fbm_np_matches_its_pinned_init_and_predictions():
    # fixture written before fbm-np was built as a transformer trend scale:
    # the parameters of ForecastModel(spec, seed=11), then a batch X and
    # the model's predictions on it. The parameters stay byte for byte; the
    # predictions moved by 2.6e-16 * max|pred| when the projector came to
    # read the spectrum through basis tables instead of the built grid
    header, records = ad.load_tensors(Path(__file__).parent / "fixtures" / "fbm_np_init.fbm")
    spec = ModelSpec.from_header(header)
    assert spec == small_spec("fbm-np", np_cfg=TrendConfig(backbone="transformer", P=2, h1=4, h2=6, K=2))
    model = ForecastModel(spec, seed=11)
    *params, (_, X), (_, pred) = records
    assert [name for name, _ in params] == [p.name for p in model.params]
    for p, (_, value) in zip(model.params, params, strict=True):
        assert p.value.shape == value.shape and p.value.tobytes() == value.tobytes(), p.name
    assert np.max(np.abs(model.predict(X) - pred)) <= 1e-15 * np.max(np.abs(pred))


def test_standardize_flag_survives_header():
    spec = small_spec("fbm-l", standardize=False)
    assert ModelSpec.from_header(spec.to_header()).standardize is False


# --- outer pipeline --------------------------------------------------------------


def test_instance_standardize_moments():
    rng = np.random.default_rng(0)
    X = windows(rng, scale=3.0, offset=-2.0)
    Xs, mu, sd = instance_standardize(X)
    np.testing.assert_allclose(Xs.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(Xs.std(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(Xs * sd + mu, X, atol=1e-12)


def test_instance_standardize_floors_flat_windows():
    X = np.full((2, 1, 8), 3.25)
    Xs, mu, sd = instance_standardize(X)
    assert np.all(sd == 1e-5)
    assert np.all(Xs == 0.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_constant_window_predicted_exactly(variant):
    model = ForecastModel(small_spec(variant), seed=1)
    levels = np.array([0.7, -3.1, 12.0])
    X = np.broadcast_to(levels[None, :, None], (2, 3, 16)).copy()
    pred = model.predict(X)
    np.testing.assert_allclose(
        pred, np.broadcast_to(levels[None, :, None], pred.shape), atol=1e-9
    )


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_shift_invariance(variant):
    rng = np.random.default_rng(7)
    model = ForecastModel(small_spec(variant), seed=3)
    X = windows(rng)
    base = model.predict(X)
    shifted = model.predict(X + 41.5)
    np.testing.assert_allclose(shifted, base + 41.5, atol=1e-9)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("s", [7.3, 1e3])
def test_scale_equivariance(variant, s):
    rng = np.random.default_rng(11)
    model = ForecastModel(small_spec(variant), seed=3)
    X = windows(rng)
    base = model.predict(X)
    np.testing.assert_allclose(model.predict(s * X), s * base, rtol=1e-9, atol=1e-9 * s)


def test_standardize_off_changes_the_mapping():
    rng = np.random.default_rng(2)
    X = windows(rng, offset=5.0)
    on = ForecastModel(small_spec("fbm-l"), seed=0).predict(X)
    off = ForecastModel(small_spec("fbm-l", standardize=False), seed=0).predict(X)
    assert not np.allclose(on, off)


def test_input_shape_validation():
    model = ForecastModel(small_spec("fbm-l"), seed=0)
    with pytest.raises(ConfigError):
        model.predict(np.zeros((2, 3, 18)))  # wrong T
    with pytest.raises(ConfigError):
        model.predict(np.zeros((2, 4, 16)))  # wrong D
    with pytest.raises(ConfigError):
        model.predict(np.zeros((3, 16)))  # missing batch axis


# --- fbm-l: contraction equals the naive feature-grid linear map ---------------


def naive_linear_forward(model, X):
    """Materialize the feature grid and apply the flattened weight."""
    from fbm.fourier import build_bases, rdft_array

    spec = model.spec
    Xs, mu, sd = instance_standardize(X)
    H_R, H_I = (H[..., 1:] for H in rdft_array(Xs))
    bases = build_bases(spec.T)
    G = H_R[..., None, :] * bases.C[: spec.T, 1:] + H_I[..., None, :] * bases.S[: spec.T, 1:]
    flat = G.reshape(X.shape[0], spec.D, -1)  # time-major: index = n * K + k
    W_flat = np.transpose(model.blocks["fbm-l"].w.value, (1, 0, 2)).reshape(flat.shape[-1], spec.L)
    return flat @ W_flat * sd + mu


def test_linear_matches_naive_grid_matmul():
    rng = np.random.default_rng(5)
    spec = ModelSpec(variant="fbm-l", T=8, L=5, D=2)
    model = ForecastModel(spec, seed=9)
    X = windows(rng, B=3, D=2, T=8)
    np.testing.assert_allclose(model.predict(X), naive_linear_forward(model, X), atol=1e-12)


def test_linear_has_no_bias_and_exact_count():
    spec = ModelSpec(variant="fbm-l", T=336, L=96, D=7)
    assert expected_param_count(spec) == 336 * 168 * 96 == 5419008
    model = ForecastModel(spec, seed=0)
    assert model.param_count() == 5419008
    assert [p.name for p in model.params] == ["linear.w"]


@pytest.mark.parametrize("variant, weight", [("fbm-l", "linear.w"), ("fbm-nl", "fc1.w")])
def test_grid_weight_step_allocates_no_full_size_gradient(variant, weight):
    # the weight's gradient stays per-bin factors, expanded one bin at a time inside Adam
    spec = ModelSpec(variant=variant, T=64, L=96, D=3, nl_h1=512, nl_h2=8)
    model = ForecastModel(spec, seed=0)
    X = windows(np.random.default_rng(1), B=4, D=3, T=64)
    w = next(p for p in model.params if p.name == weight)

    def loss():
        y = model.forward(X)
        return (y * y).mean()

    ad.backward(loss())
    ad.adam_step(model.params, 1e-3)  # the first update makes the moments and a copy of the value
    second = loss()
    tracemalloc.start()
    try:
        ad.backward(second)
        factored = isinstance(w._grad, ad._PerBin)
        ad.adam_step(model.params, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factored and peak < w.value.nbytes
    # the moments are per-bin factors: c + c(c+1)/2 numbers per bin and column, c = 2
    K, _, width = w.shape
    assert w.factors is not None and w.m.size + w.v.size == 5 * K * width


# Factored Adam on linear.w stays within DRIFT * max|w| of dense Adam fed the same
# gradients: v read back from its factors cancels where a gradient entry is small
# next to its per-bin terms, which moves that entry's step. The worst seen over
# seeds 0-19 of this test was 1.6e-11; at T=336, L=96 (perfbench's case1-l)
# 40 steps moved up to 7.6e-11 at lr 1e-2 and 2.5e-12 at lr 1e-4.
DRIFT = 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factored_adam_tracks_dense_adam_on_fbm_l_gradients(seed):
    model = ForecastModel(ModelSpec(variant="fbm-l", T=64, L=16, D=1), seed=seed)
    src = make_case1(seed=seed, windows=400, T=64, L=16, k=3, gap=11, batch_size=16)
    (w,) = model.params
    dense = ad.Parameter(w.value.copy(), "dense")
    batches = list(src.train_batches(seed))
    for t in range(30):
        batch = batches[t % len(batches)]
        diff = ad.sub(model.forward(batch.X), ad.Tensor(batch.Y))
        ad.backward((diff * diff).mean())
        dense.grad = w._grad.dense()
        ad.adam_step([w, dense], 1e-2)
        assert w.factors is not None
        assert np.abs(w.value - dense.value).max() <= DRIFT * np.abs(dense.value).max()


@pytest.mark.parametrize("variant, weight", [("fbm-l", "linear.w"), ("fbm-nl", "fc1.w")])
def test_grid_weight_per_bin_gradient_gradcheck(variant, weight):
    model = ForecastModel(small_spec(variant, L=4, D=2, nl_h1=3, nl_h2=3), seed=0)
    rng = np.random.default_rng(9)
    X = windows(rng, B=2, D=2)
    w = next(p for p in model.params if p.name == weight)

    def make_loss():
        y = model.forward(X)
        return (y * y).mean()

    ad.backward(make_loss())
    assert isinstance(w._grad, ad._PerBin)
    assert param_grad_err(make_loss, [w]) < 1e-4


@pytest.mark.parametrize("variant", ["fbm-l", "diag"])
def test_first_layer_table_gradcheck(variant):
    # fbm-l and diag build their z @ M tables from their weights; criterion 05
    # checks fbm-nl, fbm-np and the seasonal block the same way
    model = ForecastModel(small_spec(variant, L=4, D=2), seed=0)
    rng = np.random.default_rng(7)
    for p in model.params:  # off init: diag starts at unit weights
        p.value = p.value + 0.1 * rng.normal(size=p.shape)
    X = windows(rng, B=2, D=2)

    def make_loss():
        y = model.forward(X)
        return (y * y).mean()

    assert param_grad_err(make_loss, model.params) < 1e-4


# --- fbm-nl: exact degeneration to fbm-l under identity-style weights -----------


def test_nl_degenerates_to_linear():
    T, L, D = 8, 5, 2
    K = T // 2
    m = T * K
    lin = ForecastModel(ModelSpec(variant="fbm-l", T=T, L=L, D=D), seed=4)
    nl = ForecastModel(
        ModelSpec(variant="fbm-nl", T=T, L=L, D=D, nl_h1=2 * m, nl_h2=2 * m), seed=0
    )

    # layer 1 splits the flattened grid x into [relu(x); relu(-x)]
    w1 = np.zeros((K, T, 2 * m))
    for n in range(T):
        for k in range(K):
            w1[k, n, n * K + k] = 1.0
            w1[k, n, m + n * K + k] = -1.0
    eye = np.eye(m)
    w2 = np.block([[eye, -eye], [-eye, eye]])  # reproduces [x+; x-]
    W_flat = np.transpose(lin.blocks["fbm-l"].w.value, (1, 0, 2)).reshape(m, L)
    w3 = np.vstack([W_flat, -W_flat])  # W(x+) - W(x-) = Wx

    mlp = nl.blocks["fbm-nl"]
    mlp.fc1.w.value = w1
    mlp.fc2.w.value = w2
    mlp.fc3.w.value = w3
    for b in (mlp.b1, mlp.fc2.b, mlp.fc3.b):
        b.value = np.zeros_like(b.value)

    rng = np.random.default_rng(6)
    X = windows(rng, B=4, D=D, T=T)
    np.testing.assert_allclose(nl.predict(X), lin.predict(X), atol=1e-12)


# --- fbm-s: composition -----------------------------------------------------------


@pytest.mark.parametrize("standardize", [True, False])
def test_s_components_reassemble_bitwise(standardize):
    rng = np.random.default_rng(8)
    model = ForecastModel(small_spec("fbm-s", standardize=standardize), seed=2)
    X = windows(rng)
    outs, mu, sd = model.components(X)
    assert set(outs) == {"seasonal", "trend", "interaction"}
    total = outs["seasonal"]
    total = total + outs["trend"]
    total = total + outs["interaction"]
    assert np.array_equal(total * sd + mu, model.predict(X))


def test_s_interaction_mask_zeroes_late_steps_of_that_block():
    rng = np.random.default_rng(9)
    model = ForecastModel(small_spec("fbm-s"), seed=2)
    outs, _, _ = model.components(windows(rng))
    C2 = SMALL_INTER.C2
    assert np.all(outs["interaction"][..., C2:] == 0.0)
    assert np.any(outs["interaction"][..., :C2] != 0.0)


def test_s_without_interaction():
    spec = small_spec("fbm-s", interaction=None)
    model = ForecastModel(spec, seed=2)
    outs, _, _ = model.components(windows(np.random.default_rng(10)))
    assert set(outs) == {"seasonal", "trend"}


def test_zero_weights_s_predicts_window_mean_exactly():
    rng = np.random.default_rng(12)
    spec = small_spec(
        "fbm-s", trend=TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2))
    )
    model = ForecastModel(spec, seed=3, zero_weights=True)
    for p in model.params:
        if p.name.endswith(".gamma"):
            assert np.all(p.value == 1.0)
        else:
            assert np.all(p.value == 0.0)
    X = windows(rng)
    pred = model.predict(X)
    mean = X.mean(axis=-1, keepdims=True)
    assert np.array_equal(pred, np.broadcast_to(mean, pred.shape))


@pytest.mark.parametrize("variant", VARIANTS)
def test_components_reassemble_forward_bitwise_for_every_variant(variant):
    model = ForecastModel(small_spec(variant), seed=4)
    X = windows(np.random.default_rng(13))
    outs, mu, sd = model.components(X)
    assert list(outs) == list(model.blocks)
    assert all(isinstance(out, np.ndarray) for out in outs.values())
    total = reduce(np.add, outs.values())  # in block order, as forward sums them
    assert np.array_equal(total * sd + mu, model.forward(X).value)


def test_components_checks_the_input_shape():
    model = ForecastModel(small_spec("fbm-s"), seed=0)
    with pytest.raises(ConfigError):
        model.components(np.zeros((1, 2, 16)))


# --- baselines --------------------------------------------------------------------


def test_diag_continues_pure_periodic_signal():
    # L > T: the horizon rows continue the basis tables past T
    for T, L in ((32, 16), (16, 40)):
        model = ForecastModel(ModelSpec(variant="diag", T=T, L=L, D=1), seed=0)
        n = np.arange(T + L)
        x = np.cos(2 * np.pi * 3 * (n + 0.37 * T) / T) + 0.25 * np.sin(2 * np.pi * 5 * n / T)
        X = x[:T][None, None, :]
        pred = model.predict(X)[0, 0]
        # unit diagonal weights reproduce the window's periodic continuation
        np.testing.assert_allclose(pred, x[T:], atol=1e-9)


def test_last_baseline_repeats_final_value():
    rng = np.random.default_rng(13)
    model = ForecastModel(small_spec("last"), seed=0)
    X = windows(rng)
    pred = model.predict(X)
    np.testing.assert_allclose(
        pred, np.broadcast_to(X[..., -1:], pred.shape), atol=1e-12
    )
    assert model.params == []


# --- parameter accounting ----------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_built_count_matches_closed_form(variant):
    spec = small_spec(variant)
    model = ForecastModel(spec, seed=0)
    assert model.param_count() == expected_param_count(spec)


def test_describe_splits_s_by_block():
    model = ForecastModel(small_spec("fbm-s"), seed=0)
    rows = dict(model.describe())
    assert rows["seasonal"] == 16 * 8
    assert rows["seasonal"] + rows["trend"] + rows["interaction"] == rows["total"]
    assert rows["total"] == model.param_count()


def test_traffic_style_counts():
    # transformer trend at h1=128, h2=128: the stacks dominate at
    # 3 * (4*128^2 + 5*128 + 2*128*128 + 128) per the closed form
    spec = ModelSpec(
        variant="fbm-s",
        T=336,
        L=96,
        D=2,
        trend=TrendConfig(backbone="transformer", h1=128, h2=128, K=4, P=14, scales=(1,)),
        interaction=None,
    )
    per_stack = 4 * 128 * 128 + 4 * 128 + 2 * 128 * 128 + 128 + 128
    assert expected_param_count(spec) == (
        336 * 168  # seasonal
        + 2 * 2 + (24 * 168) * 128 + 128  # projector
        + 4 * per_stack
        + 14 * 128 * 96 + 96  # head
    )


# --- checkpointing ------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(14)
    model = ForecastModel(small_spec("fbm-s"), seed=5)
    X = windows(rng)
    before = model.predict(X)
    path = tmp_path / "model.fbm"
    model.save(path)
    restored = ForecastModel.load(path)
    assert restored.spec == model.spec
    assert np.array_equal(restored.predict(X), before)


def test_untrained_and_loaded_models_hold_no_adam_moments(tmp_path):
    rng = np.random.default_rng(15)
    model = ForecastModel(small_spec("fbm-s"), seed=6)
    path = tmp_path / "model.fbm"
    model.save(path)
    X = windows(rng)
    batch = WindowBatch(X, rng.standard_normal(X.shape[:2] + (model.spec.L,)), np.arange(len(X)))
    for m in (model, ForecastModel.load(path)):
        m.predict(X)
        evaluate(m, [batch])
        assert all(p.m is None and p.v is None for p in m.params)


def test_checkpoint_spec_mismatch_names_both(tmp_path):
    model = ForecastModel(small_spec("fbm-l"), seed=0)
    path = tmp_path / "model.fbm"
    model.save(path)
    wanted = small_spec("fbm-l", L=7)
    with pytest.raises(CheckpointError) as err:
        ForecastModel.load(path, expected_spec=wanted)
    assert "L=6" in str(err.value) and "L=7" in str(err.value)


def test_checkpoint_matching_expected_spec_loads(tmp_path):
    model = ForecastModel(small_spec("fbm-nl"), seed=1)
    path = tmp_path / "model.fbm"
    model.save(path)
    restored = ForecastModel.load(path, expected_spec=model.spec)
    assert restored.param_count() == model.param_count()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.fbm"
    path.write_bytes(b"NOTFBM00" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        ForecastModel.load(path)


def test_checkpoint_truncation(tmp_path):
    model = ForecastModel(small_spec("fbm-l"), seed=0)
    path = tmp_path / "model.fbm"
    model.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointError):
        ForecastModel.load(path)


# --- init determinism ----------------------------------------------------------------


def test_same_seed_same_init():
    a = ForecastModel(small_spec("fbm-nl"), seed=21)
    b = ForecastModel(small_spec("fbm-nl"), seed=21)
    for pa, pb in zip(a.params, b.params):
        assert np.array_equal(pa.value, pb.value)


def test_different_seed_different_init():
    a = ForecastModel(small_spec("fbm-nl"), seed=21)
    b = ForecastModel(small_spec("fbm-nl"), seed=22)
    assert any(not np.array_equal(pa.value, pb.value) for pa, pb in zip(a.params, b.params))


# --- gradients through the full model glue --------------------------------------------


@pytest.mark.parametrize("variant", ["fbm-l", "fbm-nl", "fbm-np", "fbm-s", "diag"])
def test_model_param_gradients(variant):
    # seeds chosen so no relu pre-activation sits within the fd step of 0,
    # which would corrupt the finite-difference oracle (min |preact| ~ 0.015)
    rng = np.random.default_rng(22)
    kw = {}
    if variant == "fbm-s":
        kw = dict(trend=SMALL_TREND, interaction=InteractionConfig(C1=2, C2=2, h3=4, K=1))
    model = ForecastModel(small_spec(variant, T=8, L=3, D=2, **kw), seed=7)
    X = windows(rng, B=2, D=2, T=8)

    def make_loss():
        y = model.forward(X)
        return (y * y).mean()

    err = param_grad_err(make_loss, model.params)
    assert err < 1e-4, f"{variant} param gradient rel err {err}"
