"""Evaluation, the training loop contract, and the synthetic diagnostics."""

import csv
import json
import resource
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from fbm import autodiff as ad
from fbm import fourier
from fbm.blocks import InteractionConfig, TrendConfig
from fbm.data import SplitSpec, WindowBatch
from fbm.errors import ConfigError, NumericError
from fbm.models import ForecastModel, ModelSpec
from fbm.train import (
    PairedWindows,
    RunReport,
    TrainConfig,
    evaluate,
    export_predictions,
    make_case1,
    make_case2,
    train,
)

from oracles import snapshot_steps, unfolded_value


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(T=16, L=4, epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(T=16, L=4, lr=-1e-4)


# --- synthetic diagnostics ---------------------------------------------------------


def test_case1_targets_are_gap_shifted_continuations():
    src = make_case1(seed=3, windows=20, T=336, L=96, k=14, gap=104)
    # v + 104 < 336 for v < 96, so the target is literally the input
    # read 104 steps later
    np.testing.assert_allclose(src.Y, src.X[..., 104 : 104 + 96], atol=1e-12)


def test_case1_single_active_bin():
    src = make_case1(seed=4, windows=10, T=336, L=96, k=14)
    for w in range(10):
        amp = np.hypot(*fourier.rdft_array(src.X[w, 0]))
        others = np.delete(amp, 14)
        assert amp[14] > 100.0  # |H[k]| = T/2 for a unit cosine
        assert np.all(others < 1e-9 * 336)


def test_case1_split_sizes():
    src = make_case1(seed=5, windows=100, batch_size=16)
    assert [len(src._parts[p]) for p in ("train", "val", "test")] == [60, 20, 20]


def test_paired_windows_rejects_tiny():
    with pytest.raises(ConfigError):
        PairedWindows(np.zeros((2, 1, 8)), np.zeros((2, 1, 4)), batch_size=4)
    with pytest.raises(ConfigError):
        PairedWindows(np.zeros((10, 1, 8)), np.zeros((10, 2, 4)), batch_size=4)


@pytest.mark.parametrize("splits, message", [
    ((0.3, 0.3, 0.9), "split ratios must sum to 1"),
    ((0.5, 0.6, -0.1), "split ratios must be finite and positive"),
    ((-0.2, 0.5, 0.7), "split ratios must be finite and positive"),
])
def test_paired_windows_checks_fractions_as_split_spec_does(splits, message):
    X, Y = np.zeros((10, 1, 8)), np.zeros((10, 1, 4))
    with pytest.raises(ConfigError, match=message):
        SplitSpec.ratio(*splits)
    with pytest.raises(ConfigError, match=message):
        PairedWindows(X, Y, batch_size=4, splits=splits)


@pytest.mark.parametrize("batch_size", [0, -2])
def test_paired_windows_rejects_batch_size_below_1(batch_size):
    src = PairedWindows(np.zeros((10, 1, 8)), np.zeros((10, 1, 4)), batch_size=batch_size)
    for batches in (src.train_batches(0), src.val_batches(), src.test_batches()):
        with pytest.raises(ConfigError, match=f"batch size must be >= 1, got {batch_size}"):
            list(batches)


def test_paired_windows_batches_are_slices_of_x_and_y():
    rng = np.random.default_rng(12)
    X, Y = rng.standard_normal((23, 2, 8)), rng.standard_normal((23, 2, 3))
    src = PairedWindows(X, Y, batch_size=4)  # parts of 13, 4 and 6 windows
    shuffled = np.random.default_rng(9).permutation(13)
    assert not np.array_equal(shuffled, np.arange(13))
    streams = [  # (batches, window order, batch sizes): last batches partial
        (src.train_batches(9), shuffled, [4, 4, 4, 1]),
        (src.val_batches(), np.arange(13, 17), [4]),
        (src.test_batches(), np.arange(17, 23), [4, 2]),
    ]
    for batches, order, sizes in streams:
        batches = list(batches)
        assert [len(b.starts) for b in batches] == sizes
        assert np.array_equal(np.concatenate([b.starts for b in batches]), order)
        for b in batches:
            assert np.array_equal(b.X, X[b.starts]) and np.array_equal(b.Y, Y[b.starts])


def test_case2_bin_identity():
    ds = make_case2(seed=6)
    assert 336 / 14 == 192 / 8 == 24.0  # same per-sample period
    for T, k in ((336, 14), (192, 8)):
        amp = np.hypot(*fourier.rdft_array(ds.values[0, :T]))
        assert np.argmax(amp) == k
        assert np.all(np.delete(amp, k) < 1e-9 * T)


# --- evaluate ------------------------------------------------------------------------


def test_evaluate_weights_partial_batches():
    model = ForecastModel(ModelSpec(variant="last", T=16, L=4, D=1), seed=0)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 1, 16))
    Y = rng.standard_normal((10, 1, 4))
    src = PairedWindows(X, Y, batch_size=4, splits=(0.2, 0.2, 0.6))
    got_mse, got_mae = evaluate(model, src.test_batches())  # 6 windows -> batches 4+2
    d = model.predict(X[4:]) - Y[4:]
    assert abs(got_mse - np.mean(d * d)) < 1e-12
    assert abs(got_mae - np.mean(np.abs(d))) < 1e-12


def test_evaluate_of_an_empty_stream_is_refused():
    model = ForecastModel(ModelSpec(variant="last", T=16, L=4, D=1), seed=0)
    with pytest.raises(ConfigError, match="evaluation stream produced no windows"):
        evaluate(model, iter(()))


@pytest.mark.parametrize("T, L", [(336, 96), (16, 8), (32, 4)])
def test_train_refuses_a_config_whose_window_is_not_the_models(T, L):
    # the report records cfg's T and L as the run's; a model of other shapes would
    # train on its own windows under them, so train() stops before the first batch
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=4, D=1), seed=0)

    class Unread:
        def __getattr__(self, name):
            raise AssertionError(f"{name} read before the config was checked")

    cfg = TrainConfig(T=T, L=L, epochs=1, patience=1, batch_size=16)
    with pytest.raises(ConfigError, match=rf"^train config T={T}, L={L} does not match the model's T=16, L=4$"):
        train(model, Unread(), cfg)


@pytest.mark.parametrize("threads", [0, -1])
def test_evaluate_and_train_reject_threads_below_1(threads):
    src = make_case1(seed=0, windows=20, T=16, L=4, k=2, gap=3, batch_size=8)
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=4, D=1), seed=0)
    message = f"evaluation threads must be >= 1, got {threads}"
    with pytest.raises(ConfigError, match=message):
        evaluate(model, src.val_batches(), threads=threads)
    before = [p.value.copy() for p in model.params]
    with pytest.raises(ConfigError, match=message):
        train(model, src, TrainConfig(T=16, L=4, epochs=1), eval_threads=threads)
    # refused before the first batch: no Adam step ran
    for p, value in zip(model.params, before):
        assert np.array_equal(p.value, value) and p.step == 0, p.name


def test_threaded_evaluate_keeps_few_batches_in_flight():
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=4, D=2), seed=0)
    rng = np.random.default_rng(3)
    batches = [WindowBatch(rng.standard_normal((3, 2, 16)), rng.standard_normal((3, 2, 4)),
                           np.arange(3)) for _ in range(10)]
    drawn = []

    def stream():
        for batch in batches:
            drawn.append(batch)
            yield batch

    seen, threads = [], 2
    got = evaluate(model, stream(), threads=threads, sink=lambda b, p: seen.append(len(drawn)))
    assert seen[0] <= 2 * threads  # ThreadPoolExecutor.map submits all 10 first
    assert len(seen) == 10
    assert got == evaluate(model, iter(batches), threads=1)  # bit-identical metrics


# --- train loop -----------------------------------------------------------------------


# the wall-clock fields of each report.json epoch entry, and the one measured
# field that is not a time
TIME_FIELDS = ("seconds", "train_windows_per_s", "eval_seconds")
MEASURED_FIELDS = TIME_FIELDS + ("peak_rss_mb",)


def _untimed(epochs):
    return [{k: v for k, v in e.items() if k not in MEASURED_FIELDS} for e in epochs]


def tiny_task(seed=0, windows=64, T=32, L=8, batch_size=16):
    return make_case1(seed=seed, windows=windows, T=T, L=L, k=3, gap=11, batch_size=batch_size)


def test_lr_zero_keeps_parameters():
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=1)
    before = [p.value.copy() for p in model.params]
    cfg = TrainConfig(T=32, L=8, epochs=3, patience=10, lr=0.0, batch_size=16, seed=0)
    _, report = train(model, src, cfg)
    for p, old in zip(model.params, before):
        assert np.array_equal(p.value, old)
    vals = [e["val_mse"] for e in report.epochs]
    assert vals.count(vals[0]) == 3


def test_validation_reads_each_grid_weight_synced():
    # at each epoch end the table is rebuilt from the base and the steps, bit for
    # bit rows @ the value a fold gives, so validation reads the table a model
    # loaded from that value builds; the steps are folded in at a .value read
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=1)
    w, tables = model.params[0], []

    class Watched:
        def __getattr__(self, name):
            return getattr(src, name)

        def val_batches(self):
            tables.append((w._table.tobytes(), np.matmul(w.rows, unfolded_value(w)).tobytes(), w._delta))
            return src.val_batches()

    cfg = TrainConfig(T=32, L=8, epochs=3, patience=3, lr=1e-2, batch_size=16, seed=0)
    _, report = train(model, Watched(), cfg)
    assert len(tables) == 3 and all(held == want and delta is not None for held, want, delta in tables)
    best = min(range(3), key=lambda e: report.epochs[e]["val_mse"])
    again = ForecastModel(model.spec, seed=0)
    again.params[0].value = model.params[0].value.copy()
    assert report.epochs[best]["val_mse"] == evaluate(again, src.val_batches())[0]


def test_the_best_state_snapshot_keeps_each_grid_weight_held():
    # epoch 1 always improves, so its snapshot copies the weight's steps; epoch 2's
    # steps then start from the table the epoch-end settle() rebuilt
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=1)
    w = model.params[0]
    held = []

    class Watched:
        def __getattr__(self, name):
            return getattr(src, name)

        def train_batches(self, seed):
            held.append(w._table is not None)
            return src.train_batches(seed)

    cfg = TrainConfig(T=32, L=8, epochs=2, patience=2, lr=1e-2, batch_size=16, seed=0)
    train(model, Watched(), cfg)
    assert held == [False, True]


def _worsening_task():
    # train targets are +x continuations, val targets are -x continuations:
    # fitting train strictly worsens val from the first-epoch baseline on
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 1, 32))
    Y = np.where(np.arange(40)[:, None, None] < 24, X[..., :8], -X[..., :8])
    return PairedWindows(X, Y, batch_size=8)


@pytest.mark.parametrize("last_is_best", [True, False], ids=["last-epoch-best", "earlier-best"])
def test_train_keeps_one_array_per_weight_through_the_test_pass(monkeypatch, last_is_best):
    # the grid weight is trained in one array, its base, and comes to the test pass
    # held, whether or not its best state was restored: the snapshots of its steps
    # are gone, and a .value read after training folds its steps into that array
    if last_is_best:
        src, T, model_kw = tiny_task(T=16, L=8), 16, {"seed": 1}
        cfg = TrainConfig(T=16, L=8, epochs=3, patience=3, lr=1e-2, batch_size=16, seed=0)
    else:
        src, T, model_kw = _worsening_task(), 32, {"seed": 2, "zero_weights": True}
        cfg = TrainConfig(T=32, L=8, epochs=50, patience=1, lr=0.01, batch_size=8, seed=0)
    model = ForecastModel(ModelSpec(variant="fbm-l", T=T, L=8, D=1), **model_kw)
    w, bases, snapshots, seen = model.params[0], [], [], []
    snapshot = ad.GridWeight.snapshot

    def watched_snapshot(self):
        state = snapshot(self)
        snapshots.extend(weakref.ref(d) for d in snapshot_steps(state))
        return state

    class Watched:
        def __getattr__(self, name):
            return getattr(src, name)

        def test_batches(self):
            alive = [d for d in (s() for s in snapshots) if d is not None]
            seen.append((ad.Tensor.value.__get__(w), alive, w._table is not None))
            return src.test_batches()

    monkeypatch.setattr(ad.GridWeight, "snapshot", watched_snapshot)
    # the log reads the array held, not .value, whose read would fold the steps
    _, report = train(model, Watched(), cfg, log=lambda line: bases.append(ad.Tensor.value.__get__(w)))
    vals = [e["val_mse"] for e in report.epochs]
    assert (vals.index(min(vals)) == len(vals) - 1) == last_is_best
    assert snapshots, "no snapshot of the grid weight's steps was taken"
    [(base, alive, held)] = seen
    assert all(b is base for b in bases) and base is w.value
    assert not alive, "a snapshot of the steps is still alive"
    assert held


def test_an_early_stopped_run_keeps_its_grid_weights_held_through_the_test_pass():
    # epoch 1 is the best: its steps are restored and the table rebuilt, so the
    # test pass reads the table a model loaded from the value builds
    src = _worsening_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=2, zero_weights=True)
    w, held = model.params[0], []

    class Watched:
        def __getattr__(self, name):
            return getattr(src, name)

        def test_batches(self):
            held.append(w._table is not None)
            return src.test_batches()

    cfg = TrainConfig(T=32, L=8, epochs=50, patience=1, lr=0.01, batch_size=8, seed=0)
    _, report = train(model, Watched(), cfg)
    assert len(report.epochs) == 2 and held == [True]
    again = ForecastModel(model.spec, seed=0)
    again.params[0].value = w.value.copy()
    assert report.test["mse"] == evaluate(again, src.test_batches())[0]


def test_patience_one_on_worsening_val_stops_after_two_epochs():
    src = _worsening_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=2, zero_weights=True)
    cfg = TrainConfig(T=32, L=8, epochs=50, patience=1, lr=0.01, batch_size=8, seed=0)
    _, report = train(model, src, cfg)
    assert len(report.epochs) == 2


def test_training_fits_realizable_linear_task():
    src = tiny_task(windows=200)
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=3)
    cfg = TrainConfig(T=32, L=8, epochs=200, patience=200, lr=0.01, batch_size=32, seed=0)
    _, report = train(model, src, cfg)
    assert min(e["val_mse"] for e in report.epochs) < 1e-4


def test_full_batch_gd_loss_non_increasing():
    src = tiny_task(windows=64, batch_size=64)
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=4)
    batch = next(iter(src.train_batches(0)))
    losses = []
    for _ in range(60):
        diff = ad.sub(model.forward(batch.X), ad.Tensor(batch.Y))
        loss = (diff * diff).mean()
        losses.append(float(loss.value))
        ad.zero_grads(model.params)
        ad.backward(loss, model.params)
        for p in model.params:
            p.value = p.value - 0.5 * p.grad
            p.grad = None
    drops = np.diff(losses)
    assert np.all(drops <= 1e-9), f"loss increased: max jump {drops.max()}"
    assert losses[-1] < losses[0]


def test_train_never_holds_two_tapes(monkeypatch):
    # a taped forward's output lives only on its batch's tape, which backward
    # releases, so it is gone before the next batch's forward starts
    trend = TrendConfig(backbone="mlp", h1=3, h2=4, P=2, scales=(1, 2))
    inter = InteractionConfig(C1=4, C2=2, h3=3, K=1)
    model = ForecastModel(ModelSpec(variant="fbm-s", T=32, L=8, D=1, trend=trend,
                                    interaction=inter), seed=0)
    forward, taped = model.forward, []

    def watched(X):
        if taped:
            assert taped[-1]() is None, f"forward {len(taped)}'s output is still alive"
        out = forward(X)
        if out.requires_grad:
            taped.append(weakref.ref(out.value))
        return out

    monkeypatch.setattr(model, "forward", watched)
    train(model, tiny_task(), TrainConfig(T=32, L=8, epochs=2, lr=1e-3, batch_size=16))
    assert len(taped) == 2 * 3  # two epochs of three train batches


def test_an_improving_epoch_refreshes_the_best_snapshot_in_place():
    # tracing starts at epoch 1's log line, just before its snapshot is taken; the
    # improving epoch 2 then copies into that snapshot, so at most one is traced
    model = ForecastModel(ModelSpec(variant="fbm-l", T=96, L=96, D=1), seed=0)
    nbytes = sum(p.value.nbytes for p in model.params)

    def log(line):
        if not tracemalloc.is_tracing():
            tracemalloc.start()

    try:
        cfg = TrainConfig(T=96, L=96, epochs=2, patience=2, lr=1e-3, batch_size=16)
        _, report = train(model, tiny_task(T=96, L=96), cfg, log=log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.epochs[1]["val_mse"] < report.epochs[0]["val_mse"]
    assert peak < 1.5 * nbytes


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_abort_names_batch():
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=5)
    w = model.blocks["fbm-l"].w
    w.value = np.full_like(w.value, np.inf)
    cfg = TrainConfig(T=32, L=8, epochs=1, patience=1, lr=0.01, batch_size=16, seed=0)
    with pytest.raises(NumericError) as err:
        train(model, src, cfg)
    assert "batch 0" in str(err.value)
    assert err.value.exit_code == 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_validation_mse_aborts_naming_the_epoch():
    # one validation window at 1e300: its squared error overflows, and early
    # stopping would otherwise restore the initial parameters and report a test
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((10, 1, 16)), rng.standard_normal((10, 1, 4))
    src = PairedWindows(X, Y, batch_size=4, splits=(0.6, 0.2, 0.2))
    X[src._parts["val"][0]] = 1e300
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=4, D=1), seed=0)
    cfg = TrainConfig(T=16, L=4, epochs=2, patience=2, lr=0.01, batch_size=4, seed=0)
    with pytest.raises(NumericError) as err:
        train(model, src, cfg)
    assert "validation" in str(err.value) and "epoch 1" in str(err.value)
    assert err.value.exit_code == 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_test_metric_aborts_naming_the_test_split():
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((10, 1, 16)), rng.standard_normal((10, 1, 4))
    src = PairedWindows(X, Y, batch_size=4, splits=(0.6, 0.2, 0.2))
    Y[src._parts["test"][-1]] = 1e300  # only its squared error overflows: MSE inf, MAE finite
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=4, D=1), seed=0)
    cfg = TrainConfig(T=16, L=4, epochs=2, patience=2, lr=0.01, batch_size=4, seed=0)
    with pytest.raises(NumericError) as err:
        train(model, src, cfg)
    assert "test split" in str(err.value) and "mse inf" in str(err.value)
    assert err.value.exit_code == 3


def test_best_val_restored_before_test():
    src = tiny_task(windows=80)
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=6)
    cfg = TrainConfig(T=32, L=8, epochs=12, patience=12, lr=0.05, batch_size=16, seed=0)
    model, report = train(model, src, cfg)
    best = min(e["val_mse"] for e in report.epochs)
    # re-evaluating the returned parameters reproduces the recorded best
    # val exactly: same values, same computation path
    now_mse, _ = evaluate(model, src.val_batches())
    assert now_mse == best


def test_run_determinism():
    def run():
        src = tiny_task(windows=60)
        model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=7)
        cfg = TrainConfig(T=32, L=8, epochs=5, patience=5, lr=0.01, batch_size=16, seed=3)
        return train(model, src, cfg)

    m1, r1 = run()
    m2, r2 = run()
    # identical modulo wall-clock time
    assert (r1.config, _untimed(r1.epochs), r1.test) == (r2.config, _untimed(r2.epochs), r2.test)
    for p1, p2 in zip(m1.params, m2.params):
        assert np.array_equal(p1.value, p2.value)


def test_report_schema(tmp_path):
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=8)
    cfg = TrainConfig(T=32, L=8, epochs=2, patience=2, lr=0.01, batch_size=16, seed=0)
    _, report = train(model, src, cfg)
    path = tmp_path / "report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "epochs", "test", "seconds"}
    assert set(doc["epochs"][0]) == {"epoch", "train_mse", "val_mse", "val_mae"} | set(MEASURED_FIELDS)
    assert set(doc["test"]) == {"mse", "mae"}
    assert doc["config"]["train"]["lr"] == 0.01
    assert doc["config"]["model"]["variant"] == "fbm-l"
    assert doc["seconds"] > 0


def test_failed_report_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.json"
    RunReport(config={"lr": 0.01}).save(path)
    kept = path.read_bytes()
    with pytest.raises(TypeError):  # json cannot encode a set
        RunReport(config={"lr": {0.01}}).save(path)
    assert path.read_bytes() == kept
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_report_with_a_non_finite_number_is_refused(tmp_path, bad):
    # JSON has no token for it; json.dumps would write Infinity or NaN
    path = tmp_path / "report.json"
    RunReport(config={"lr": 0.01}).save(path)
    kept = path.read_bytes()
    report = RunReport(config={"lr": 0.01}, test={"mse": bad, "mae": 1.0})
    with pytest.raises(NumericError):
        report.to_json()
    with pytest.raises(NumericError):
        report.save(path)
    assert path.read_bytes() == kept
    assert not list(tmp_path.glob("*.tmp"))


def test_report_epochs_time_the_train_and_validation_passes():
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=8)
    cfg = TrainConfig(T=32, L=8, epochs=2, patience=2, lr=0.01, batch_size=16, seed=0)
    _, report = train(model, src, cfg)
    windows = sum(len(b.X) for b in src.train_batches(0))
    for e in report.epochs:
        assert all(e[name] > 0 for name in TIME_FIELDS)
        assert e["eval_seconds"] < e["seconds"]
        train_s = e["seconds"] - e["eval_seconds"]
        assert e["train_windows_per_s"] * train_s == pytest.approx(windows, rel=1e-12)


def test_report_epochs_record_the_peak_rss():
    src = tiny_task()
    model = ForecastModel(ModelSpec(variant="fbm-l", T=32, L=8, D=1), seed=8)
    cfg = TrainConfig(T=32, L=8, epochs=3, patience=3, lr=0.01, batch_size=16, seed=0)
    _, report = train(model, src, cfg)
    peaks = [e["peak_rss_mb"] for e in report.epochs]
    assert len(peaks) == 3 and peaks[0] > 0 and peaks == sorted(peaks)
    now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
    assert peaks[-1] <= now / (2**20 if sys.platform == "darwin" else 2**10)


def test_export_predictions_roundtrip(tmp_path):
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=3, D=2), seed=9)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((5, 2, 16))
    Y = rng.standard_normal((5, 2, 3))
    src = PairedWindows(X, Y, batch_size=2, splits=(0.2, 0.2, 0.6))
    path = tmp_path / "preds.csv"
    export_predictions(path, model, src.test_batches())

    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3 * 2 * 3  # windows x channels x steps
    pred = model.predict(X[2:])
    r = rows[0]
    w = int(r["window_id"]) - 2  # test part starts at window 2
    assert float(r["y_true"]) == Y[2 + w, int(r["channel"]), int(r["step"])]
    got = {(int(r["window_id"]), int(r["channel"]), int(r["step"])): float(r["y_pred"]) for r in rows}
    for b in range(3):
        for d in range(2):
            for v in range(3):
                assert got[(b + 2, d, v)] == pred[b, d, v]
