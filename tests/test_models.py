"""Model assembly: the shared outer pipeline, each variant's mapping,
checkpointing, and parameter accounting."""

import sys
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
    instance_standardize,
)
from fbm.train import evaluate, make_case1

from gradcheck import param_grad_err
from make_pins import PINS
from oracles import direct_linear_predict, expected_param_count, peak_bytes, step_groups

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


@pytest.mark.parametrize("spec", [pytest.param(small_spec(v), id=v) for v in ALL_VARIANTS] + [
    pytest.param(small_spec("fbm-s", trend=TrendConfig(backbone="mlp", h1=4, h2=5, P=2, scales=(1, 2)),
                            interaction=None), id="fbm-s-multi-scale-trend"),
    pytest.param(small_spec("fbm-l", standardize=False), id="fbm-l-raw"),
])
def test_header_roundtrip(spec):
    back = ModelSpec.from_header(spec.to_header())
    assert back == spec and back.standardize is spec.standardize


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


def test_linear_matches_naive_grid_matmul():
    rng = np.random.default_rng(5)
    spec = ModelSpec(variant="fbm-l", T=8, L=5, D=2)
    model = ForecastModel(spec, seed=9)
    X = windows(rng, B=3, D=2, T=8)
    np.testing.assert_allclose(model.predict(X), direct_linear_predict(model, X), atol=1e-12)


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
        factored = w._grad.shape == w.m.shape  # the per-bin g, [K, c, width]
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
        dense.grad = w.grad  # a read, which leaves w per-bin
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
    assert isinstance(w, ad.GridWeight) and w._grad.shape == (w.shape[0], 2, w.shape[-1])
    assert param_grad_err(make_loss, [w]) < 1e-4


# --- a grid weight held as its base plus the sum of its steps ------------------------

ULP = np.finfo(np.float64).eps
# The held table (rows @ w0 less each step's (T/h) rows @ s) stayed within
# 1.7e-15 * max|table| of rows @ the materialized value after 40 steps (seeds 0-1),
# and 2.5e-15 after 300; that value stayed within 5.9 and 15.3 ulp of max|w| of
# the path that folds after every step.
HELD_TABLE = 1e-14


def _train_steps(model, batches, steps, lr=1e-2, weights=()):
    # plain train steps; each weight in `weights` takes linear.w's per-bin g and
    # folds after every step (reading .value): the per-step path
    w = model.params[0]
    for t in range(steps):
        batch = batches[t % len(batches)]
        diff = ad.sub(model.forward(batch.X), ad.Tensor(batch.Y))
        ad.zero_grads(model.params)
        ad.backward((diff * diff).mean(), model.params)
        for twin in weights:
            twin._grad = w._grad
        ad.adam_step(model.params + list(weights), lr)
        for twin in weights:
            twin.value


@pytest.mark.parametrize("steps", [40, 300])
def test_held_grid_weight_tracks_the_per_step_path(steps):
    # fbm-l at perfbench's case1-l shapes
    model = ForecastModel(ModelSpec(variant="fbm-l", T=336, L=96, D=1), seed=0)
    (w,) = model.params
    twin = ad.GridWeight(w.value.copy(), "twin", w.rows)
    _train_steps(model, list(make_case1(0, windows=200, batch_size=32).train_batches(0)), steps, weights=[twin])
    assert w._delta is not None  # held, with every step in D
    with ad.no_grad():
        held = ad.matmul(ad.Tensor(w.rows), w).value
    assert w._delta is not None  # a forward folds nothing
    value = w.value
    direct = np.matmul(w.rows, value)
    assert np.abs(held - direct).max() <= HELD_TABLE * np.abs(direct).max()
    per_step = twin.value
    assert np.abs(value - per_step).max() <= steps * ULP * np.abs(per_step).max()
    assert not np.array_equal(value, per_step)  # one rounding per fold is not one per step


def _grid_weight_of(model):
    return next(p for p in model.params if isinstance(p, ad.GridWeight))


@pytest.mark.parametrize("variant", ["fbm-l", "fbm-nl"])
@pytest.mark.parametrize("when", ["before", "after"])
def test_writes_through_value_reach_the_next_forward(variant, when):
    # criterion 05's finite differences: entries of the array .value returned,
    # written in place, then a forward under no_grad. A trained weight refuses
    # the write; assigning its value is how it changes, after which it does not.
    spec = small_spec(variant, L=4, D=2)
    model = ForecastModel(spec, seed=0)
    rng = np.random.default_rng(10)
    X = windows(rng, B=2, D=2)
    w = _grid_weight_of(model)
    if when == "after":
        _train_steps(model, [WindowBatch(X=X, Y=rng.standard_normal((2, 2, 4)), starts=np.arange(2))], 2)
        assert w._delta is not None
        with pytest.raises(ValueError, match="read-only"):
            w.value[0, 0, 0] = 1.0
        w.value = w.value.copy()
    flat = w.value.reshape(-1)
    for i in (0, 5, flat.size - 1):
        orig = flat[i]
        flat[i] = orig + 0.25
        twin = ForecastModel(spec, seed=0)
        for p, q in zip(twin.params, model.params):
            p.value = q.value.copy()
        with ad.no_grad():
            assert model.forward(X).value.tobytes() == twin.forward(X).value.tobytes()
        flat[i] = orig


def _fbm_l_and_batch():
    model = ForecastModel(small_spec("fbm-l"), seed=0)
    batch = WindowBatch(X=windows(np.random.default_rng(11)), Y=np.zeros((4, 3, 6)), starts=np.arange(4))
    return model, batch


def test_a_view_made_before_the_first_step_does_not_reach_the_held_weight():
    # a .value read before the hold hands the array out, so the first step copies it:
    # a later write through a view of it reaches neither a forward nor the value
    model, batch = _fbm_l_and_batch()
    w = model.params[0]
    flat = w.value.reshape(-1)
    _train_steps(model, [batch], 1)
    with ad.no_grad():
        before = model.forward(batch.X).value
    flat[0] += 1.0
    with ad.no_grad():
        assert model.forward(batch.X).value.tobytes() == before.tobytes()
    assert not np.shares_memory(flat, w.value) and w.value.reshape(-1)[0] != flat[0]
    with pytest.raises(ValueError, match="read-only"):  # the weight stays held
        w.value[0, 0, 0] = 1.0


def test_a_held_grid_weight_refuses_writes_through_a_later_view():
    model, batch = _fbm_l_and_batch()
    w = model.params[0]
    _train_steps(model, [batch], 1)
    flat = w.value.reshape(-1)
    _train_steps(model, [batch], 1)
    with pytest.raises(ValueError, match="read-only"):
        flat[0] = 1.0
    assert np.shares_memory(flat, w.value)


def test_a_product_a_forward_returned_is_not_written_by_a_step():
    model, batch = _fbm_l_and_batch()
    w = model.params[0]
    _train_steps(model, [batch], 1)
    with ad.no_grad():
        before = ad.matmul(ad.Tensor(w.rows), w).value
    kept = before.copy()
    _train_steps(model, [batch], 1)
    assert w._delta is not None and before.tobytes() == kept.tobytes()


def test_shape_size_a_zero_gradient_and_the_count_do_not_sync():
    model = ForecastModel(small_spec("fbm-nl"), seed=0)
    batch = WindowBatch(X=windows(np.random.default_rng(12)), Y=np.zeros((4, 3, 6)), starts=np.arange(4))
    _train_steps(model, [batch], 2)
    w = _grid_weight_of(model)
    assert w._delta is not None
    assert (w.shape, w.size, w.ndim) == ((8, 16, 7), 8 * 16 * 7, 3)
    ad.backward((model.params[-1] * 0.0).sum(), [w])  # a loss that never reaches w
    assert w._grad.shape == (8, 2, 7) and not w._grad.any()
    assert model.param_count() == expected_param_count(model.spec) and w._delta is not None
    repr(w)
    assert w._delta is not None


def test_assigning_a_grid_weights_value_drops_its_steps():
    model = ForecastModel(small_spec("fbm-l"), seed=0)
    rng = np.random.default_rng(13)
    X = windows(rng)
    batch = WindowBatch(X=X, Y=rng.standard_normal((4, 3, 6)), starts=np.arange(4))
    _train_steps(model, [batch], 3)
    w = model.params[0]
    assert w._delta is not None
    new = rng.standard_normal(w.shape)
    kept = new.copy()
    w.value = new
    assert w._delta is None
    assert w.value is new and new.tobytes() == kept.tobytes()
    twin = ForecastModel(small_spec("fbm-l"), seed=1)
    twin.params[0].value = kept
    with ad.no_grad():
        assert model.forward(X).value.tobytes() == twin.forward(X).value.tobytes()
    _train_steps(model, [batch], 1)  # steps on from the assigned value, never writing it
    assert w.value is not new and new.tobytes() == kept.tobytes()  # the caller's array: copied first


@pytest.mark.parametrize("variant", ["fbm-l", "fbm-nl"])
def test_a_restore_gives_the_snapshot_steps_value_bit_for_bit(variant):
    # twins take the same steps; one snapshots after 2, steps on, restores, steps on
    # and restores again, the other reads its value after 2: the same bits, and the
    # restored grid weight is held, its table rows @ that value
    rng = np.random.default_rng(19)
    batch = WindowBatch(X=windows(rng), Y=rng.standard_normal((4, 3, 6)), starts=np.arange(4))
    model, twin = ForecastModel(small_spec(variant), seed=0), ForecastModel(small_spec(variant), seed=0)
    _train_steps(model, [batch], 2)
    _train_steps(twin, [batch], 2)
    states = [p.snapshot() for p in model.params]
    for _ in range(2):
        _train_steps(model, [batch], 3)
        for p, state in zip(model.params, states):
            p.restore(state)
    w = _grid_weight_of(model)
    assert w._delta is not None  # held with the snapshot's steps; the table the restore settled is checked below
    for p, q in zip(model.params, twin.params):
        assert p.value.tobytes() == q.value.tobytes(), p.name
    assert w._table.tobytes() == np.matmul(w.rows, w.value).tobytes()


def test_restoring_a_snapshot_of_another_base_raises():
    # the steps a snapshot holds are relative to the base it was taken of, which a
    # fold (a .value read) or an assignment replaces
    model, batch = _fbm_l_and_batch()
    w = model.params[0]
    _train_steps(model, [batch], 2)
    state = w.snapshot()
    folded = w.value.copy()
    with pytest.raises(ValueError, match="folded or assigned since this snapshot"):
        w.restore(state)
    _train_steps(model, [batch], 1)
    state = w.snapshot()
    w.value = folded
    with pytest.raises(ValueError, match="folded or assigned since this snapshot"):
        w.restore(state)
    assert w.value is folded


def test_evaluate_is_the_same_with_two_threads_mid_training():
    # every forward reads the held weight, and none writes it: more threads than
    # cores, switching often, score as one thread does
    model = ForecastModel(small_spec("fbm-nl"), seed=0)
    rng = np.random.default_rng(14)
    batches = [WindowBatch(X=windows(rng, B=b), Y=rng.standard_normal((b, 3, 6)), starts=np.arange(b))
               for b in (4, 4, 4, 4, 4, 3)]  # a partial last batch
    _train_steps(model, batches, 4)
    assert _grid_weight_of(model)._delta is not None
    want = evaluate(model, iter(batches), threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert [evaluate(model, iter(batches), threads=n) for n in (2, 4)] == [want, want]
    finally:
        sys.setswitchinterval(interval)
    assert _grid_weight_of(model)._delta is not None


def _settle_after_save(model):
    # the save's .value read folded the steps and left the table the last step made,
    # within roundoff of rows @ the value; settle() rebuilds it as a load does
    w = _grid_weight_of(model)
    direct = np.matmul(w.rows, w.value)
    assert np.abs(w._table - direct).max() <= HELD_TABLE * np.abs(direct).max()
    for p in model.params:
        p.settle()
    assert w._table.tobytes() == direct.tobytes()


@pytest.mark.parametrize("variant", ["fbm-l", "fbm-nl"])
def test_save_load_and_predict_round_trip_mid_epoch(variant, tmp_path):
    model = ForecastModel(small_spec(variant), seed=0)
    rng = np.random.default_rng(15)
    X = windows(rng)
    _train_steps(model, [WindowBatch(X=X, Y=rng.standard_normal((4, 3, 6)), starts=np.arange(4))], 3)
    assert _grid_weight_of(model)._delta is not None
    model.save(tmp_path / "model.fbm")
    loaded = ForecastModel.load(tmp_path / "model.fbm")
    _settle_after_save(model)
    assert model.predict(X).tobytes() == loaded.predict(X).tobytes()
    for p, q in zip(model.params, loaded.params):
        assert p.value.tobytes() == q.value.tobytes()


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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_weights_draw_nothing_and_predict_as_zeros_assigned(monkeypatch, variant):
    spec = small_spec(variant)
    drawn = ForecastModel(spec, seed=3)
    for p in drawn.params:
        if not p.name.endswith(".gamma"):
            p.value = np.zeros(p.shape)

    def no_draw(rng, shape, fan_in):
        raise AssertionError(f"a {shape} weight drawn")

    monkeypatch.setattr(ad, "init_uniform", no_draw)
    model = ForecastModel(spec, seed=3, zero_weights=True)
    X = windows(np.random.default_rng(15))
    assert model.predict(X).tobytes() == drawn.predict(X).tobytes()


@pytest.mark.parametrize("variant, standardize", [pytest.param(v, True, id=v) for v in VARIANTS] + [
    pytest.param(v, False, id=f"{v}-raw") for v in VARIANTS
])
def test_components_reassemble_forward_bitwise_for_every_variant(variant, standardize):
    model = ForecastModel(small_spec(variant, standardize=standardize), seed=4)
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


@pytest.mark.parametrize("spec", [pytest.param(small_spec(v), id=v) for v in ALL_VARIANTS] + [
    pytest.param(spec, id=f"pin-{name}") for name, spec in PINS.items()  # every backbone and switch
])
def test_built_count_matches_closed_form(spec):
    model = ForecastModel(spec, seed=0)
    assert model.param_count() == expected_param_count(spec)
    names = [p.name for p in model.params]  # a checkpoint record is matched by its name
    assert len(set(names)) == len(names)


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


def test_loading_a_checkpoint_holds_one_copy_of_the_weights(tmp_path):
    # a load draws no weights, so only the records are held: 2.0 times when a
    # load held drawn weights beside them
    model = ForecastModel(ModelSpec(variant="fbm-l", T=96, L=96, D=1), seed=0)
    path = tmp_path / "model.fbm"
    model.save(path)
    (w,) = model.params
    restored, peak = peak_bytes(ForecastModel.load, path)
    assert peak <= 1.2 * w.value.nbytes
    assert restored.params[0].value.tobytes() == w.value.tobytes()


@pytest.mark.parametrize("variant", ["fbm-l", "fbm-nl"])
def test_a_loaded_grid_weight_is_held_with_the_table_of_its_value(tmp_path, variant):
    # the table is built once, at the load, from the record itself; the steps and
    # the period scan wait for a first step
    model = ForecastModel(small_spec(variant), seed=0)
    rng = np.random.default_rng(17)
    X = windows(rng)
    _train_steps(model, [WindowBatch(X=X, Y=rng.standard_normal((4, 3, 6)), starts=np.arange(4))], 2)
    model.save(tmp_path / "model.fbm")
    loaded = ForecastModel.load(tmp_path / "model.fbm")
    w = _grid_weight_of(loaded)
    assert w._table is not None and w._delta is None and w.factors is None
    assert not ad.Tensor.value.__get__(w).flags.writeable
    assert w._table.tobytes() == np.matmul(w.rows, w.value).tobytes()
    _settle_after_save(model)
    assert loaded.predict(X).tobytes() == model.predict(X).tobytes()


def test_a_loaded_fbm_l_steps_as_a_twin_that_was_never_saved(tmp_path):
    # the load holds the weight from its record and the twin holds an assigned copy;
    # each cuts its read-back at its first step, so they step bit for bit alike
    spec = ModelSpec(variant="fbm-l", T=96, L=24, D=1)
    model = ForecastModel(spec, seed=0)
    model.save(tmp_path / "model.fbm")
    loaded, twin = ForecastModel.load(tmp_path / "model.fbm"), ForecastModel(spec, seed=1)
    twin.params[0].value = model.params[0].value.copy()
    rng = np.random.default_rng(19)
    batch = WindowBatch(X=rng.standard_normal((8, 1, 96)), Y=rng.standard_normal((8, 1, 24)), starts=np.arange(8))
    w, v = _grid_weight_of(loaded), _grid_weight_of(twin)
    for _ in range(2):
        for m in (loaded, twin):
            _train_steps(m, [batch], 1)
        assert w._table.tobytes() == v._table.tobytes()
        assert [d.tobytes() for *_, d in step_groups(w)] == [d.tobytes() for *_, d in step_groups(v)]
    assert w.value.tobytes() == v.value.tobytes()


def test_the_first_step_after_a_load_writes_the_records_in_place(tmp_path):
    # no caller holds a loaded record: Adam steps each one where it lies, and the
    # step's own arrays (the grid weight's steps, its period scan, the moments)
    # stay below half the weights
    spec = ModelSpec(variant="fbm-nl", T=96, L=24, D=1, nl_h1=128, nl_h2=8)
    ForecastModel(spec, seed=0).save(tmp_path / "model.fbm")
    loaded = ForecastModel.load(tmp_path / "model.fbm")
    rng = np.random.default_rng(18)
    X = rng.standard_normal((4, 1, 96))
    diff = ad.sub(loaded.forward(X), ad.Tensor(rng.standard_normal((4, 1, 24))))
    ad.backward((diff * diff).mean(), loaded.params)
    del diff
    records = [ad.Tensor.value.__get__(p) for p in loaded.params]
    _, peak = peak_bytes(ad.adam_step, loaded.params, 1e-3)
    assert all(ad.Tensor.value.__get__(p) is a for p, a in zip(loaded.params, records))
    assert peak < 0.5 * sum(a.nbytes for a in records)


@pytest.mark.parametrize("variant", VARIANTS)
def test_loading_a_checkpoint_draws_no_weights(tmp_path, monkeypatch, variant):
    model = ForecastModel(small_spec(variant), seed=4)
    path = tmp_path / "model.fbm"
    model.save(path)
    X = windows(np.random.default_rng(16))

    def no_draw(*args, **kwargs):
        raise AssertionError("a load drew initial weights")

    monkeypatch.setattr(ad, "init_uniform", no_draw)
    restored = ForecastModel.load(path)
    assert restored.predict(X).tobytes() == model.predict(X).tobytes()


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


@pytest.mark.parametrize("edit, message", [
    (lambda records: records[:-1], "checkpoint holds 5 tensors, model needs 6"),
    (lambda records: [("fc9.w", records[0][1])] + records[1:],
     "checkpoint tensor fc9.w(8, 16, 7) does not match parameter fc1.w(8, 16, 7)"),
    (lambda records: [("fc1.w", records[0][1][:-1])] + records[1:],
     "checkpoint tensor fc1.w(7, 16, 7) does not match parameter fc1.w(8, 16, 7)"),
], ids=["count", "name", "shape"])
def test_checkpoint_records_that_do_not_fit_the_spec_are_refused(tmp_path, edit, message):
    path = tmp_path / "model.fbm"
    ForecastModel(small_spec("fbm-nl"), seed=0).save(path)
    header, records = ad.load_tensors(path)
    ad.save_tensors(path, edit(records), header=header)
    with pytest.raises(CheckpointError) as err:
        ForecastModel.load(path)
    assert str(err.value) == message


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
