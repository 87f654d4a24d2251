"""The benchmark's workloads, built on the public API of the fbm package.

Each workload has a set-up (data generation plus model construction,
with the Fourier table caches cleared so every set-up is cold) and a
timed section of fixed work. All load is closed-loop: a step starts only
after the previous one finished, on one thread of Python. Given a
host.HostSpeed, the timed section runs its kernel after each timed step
and leaves that time out of run_s.

  train-s  fbm-s training steps at batch 32 on an ETT-shaped series
  eval-s   the same fbm-s spec scored by train.evaluate at batch 128
  case1-l  fbm-l on the case-I phase-shift task, through train() to
           val MSE < 1e-3, then a checkpoint round trip

Inputs come only from the seed. fbm functions are looked up on their
modules at call time (data.iterate_batches, not a local import), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fbm import autodiff as ad
from fbm import data, fourier, models, train
from fbm.blocks import InteractionConfig, TrendConfig
from fbm.errors import NumericError

T, L = 336, 96

# ETT-shaped series: 7 channels, hourly, as long as ETTh1
ETT_D, ETT_STEPS = 7, 17420

FBM_S = models.ModelSpec(
    variant="fbm-s", T=T, L=L, D=ETT_D,
    trend=TrendConfig(backbone="mlp", scales=(1, 2)),
    interaction=InteractionConfig(),
)
FBM_L = models.ModelSpec(variant="fbm-l", T=T, L=L, D=1)

TRAIN_S_BATCH, TRAIN_S_LR = 32, 1e-4
EVAL_S_BATCH = 128
# every seed tried (0-13 and four large ones) met the target by epoch 7 of 8
CASE1_BATCH, CASE1_LR, CASE1_MIN_EPOCHS, CASE1_TARGET = 64, 0.01, 8, 1e-3

# Nominal seconds per unit of timed work on one core of an x86 host. They turn
# --seconds into a fixed step, batch or epoch count, so two runs given the
# same --seconds do the same work whatever the speed of the code under test.
TRAIN_S_STEP_S = 4.0
EVAL_S_BATCH_S = 4.0
CASE1_EPOCH_S = 2.5
# Host kernel runs after each timed fbm-s step or batch (see host.py). One
# kernel run's time varies by ~15% within a run, so the six 4 s units of a
# run take several each for a steady median; case1-l's 0.25 s steps take one.
FBM_S_HOST_REPS = 8

# the lru caches themselves, captured before any tracer wraps them
_TABLE_CACHES = (fourier.build_bases, fourier.dft_matrices)


def ett_like(seed, steps=ETT_STEPS, D=ETT_D):
    """Seeded stand-in for an ETT table: per channel a daily and a weekly
    sinusoid with random amplitude and phase, a linear drift, a slow
    random walk and white noise, around a channel level."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)[None, :]

    def cycle(period, lo, hi):
        amp = rng.uniform(lo, hi, (D, 1))
        return amp * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi, (D, 1)))

    level = rng.uniform(-5.0, 20.0, (D, 1))
    drift = rng.normal(0.0, 2.0, (D, 1)) * t / steps
    walk = np.cumsum(rng.normal(0.0, 0.02, (D, steps)), axis=1)
    noise = rng.normal(0.0, 0.3, (D, steps))
    values = level + cycle(24, 0.5, 2.0) + cycle(168, 0.2, 1.0) + drift + walk + noise
    return data.Dataset(name=f"ett-like-{seed}", values=values)


def timed_batches(batches, steps, after=None):
    """Pass batches through, appending (seconds, windows) per batch once the
    consumer asks for the next one: one closed-loop step, batching included.
    `after`, if given, runs untimed between two steps."""
    it = iter(batches)
    while True:
        t0 = time.perf_counter()
        batch = next(it, None)
        if batch is None:
            return
        yield batch
        steps.append((time.perf_counter() - t0, len(batch.X)))
        if after is not None:
            after()


def run_clock(host):
    """perf_counter less the time spent in `host` kernel samples, so a timed
    section's wall time leaves out the kernel runs between its steps."""
    if host is None:
        return time.perf_counter
    return lambda: time.perf_counter() - host.spent


@dataclass
class Outcome:
    run_s: float
    steps: list  # (seconds, windows) per closed-loop step
    checks: dict  # check name -> passed
    ops: int  # steps and eval batches attempted
    failed_ops: int
    checksum: str
    report: dict = field(default_factory=dict)  # workload-specific figures


def clear_table_caches():
    for cache in _TABLE_CACHES:
        cache.cache_clear()


# --- fbm-s on the ETT-shaped series ----------------------------------------------


@dataclass
class EttState:
    values: np.ndarray  # z-scored [D, N]
    ranges: data.SplitRanges
    model: models.ForecastModel


def setup_fbm_s(seed):
    clear_table_caches()
    ds = ett_like(seed)
    ranges = data.split(ds, data.SplitSpec.ratio(0.6, 0.2, 0.2), T, L)
    norm = data.zscore_apply(ds, data.zscore_fit(ds, ranges.train))
    return EttState(norm.values, ranges, models.ForecastModel(FBM_S, seed=seed))


def run_train_s(state, seed, seconds, out_dir, tracer=None, host=None):
    n_steps = max(2, round(seconds / TRAIN_S_STEP_S))
    ds = data.Dataset(name="ett-like", values=state.values)
    source = data.SlidingWindows(ds, state.ranges, T, L, TRAIN_S_BATCH)
    model = state.model
    batches = source.train_batches(seed)
    losses = []

    def step():
        t0 = time.perf_counter()
        batch = next(batches)
        diff = ad.sub(model.forward(batch.X), ad.Tensor(batch.Y))
        loss = (diff * diff).mean()
        losses.append(float(loss.value))
        if math.isfinite(losses[-1]):
            ad.zero_grads(model.params)
            ad.backward(loss, model.params)
            ad.adam_step(model.params, TRAIN_S_LR)
        return time.perf_counter() - t0, len(batch.X)

    step()  # warms the allocator; not timed
    clock = run_clock(host)
    t_run = clock()
    steps = []
    for _ in range(n_steps):
        steps.append(step())
        if host is not None:
            host.sample(FBM_S_HOST_REPS)
    run_s = clock() - t_run
    failed = sum(not math.isfinite(v) for v in losses)
    checks = {
        "losses_finite": failed == 0,
        "params_finite": all(np.all(np.isfinite(p.value)) for p in model.params),
    }
    return Outcome(run_s, steps, checks, len(losses), failed,
                   checksum=repr(math.fsum(losses)),
                   report={"first_loss": losses[0], "last_loss": losses[-1]})


def run_eval_s(state, seed, seconds, out_dir, tracer=None, host=None):
    n_batches = max(2, round(seconds / EVAL_S_BATCH_S))
    start = state.ranges.test[0]
    segment = (start, start + T + L - 1 + n_batches * EVAL_S_BATCH)
    # one batch from just before the span warms the allocator, untimed
    warm = data.iterate_batches(state.values, (start - EVAL_S_BATCH, start + T + L - 1), T, L,
                                EVAL_S_BATCH)
    warm_metrics = train.evaluate(state.model, warm, threads=1)
    steps = []
    clock = run_clock(host)
    t_run = clock()
    batches = data.iterate_batches(state.values, segment, T, L, EVAL_S_BATCH)
    after = (lambda: host.sample(FBM_S_HOST_REPS)) if host is not None else None
    mse, mae = train.evaluate(state.model, timed_batches(batches, steps, after), threads=1)
    run_s = clock() - t_run
    checks = {
        "metrics_finite": all(map(math.isfinite, (mse, mae) + warm_metrics)),
        "all_windows_scored": sum(w for _, w in steps) == n_batches * EVAL_S_BATCH,
    }
    return Outcome(run_s, steps, checks, 1 + len(steps), 0, checksum=repr(mse),
                   report={"mse": mse, "mae": mae})


# --- fbm-l on the case-I phase-shift task ----------------------------------------------


@dataclass
class Case1State:
    source: train.PairedWindows
    model: models.ForecastModel


def setup_case1_l(seed):
    clear_table_caches()
    source = train.make_case1(seed, batch_size=CASE1_BATCH)
    return Case1State(source, models.ForecastModel(FBM_L, seed=seed))


class _TimedSource:
    """Window source for train(): times each train step (then samples the
    host kernel, if any), counts eval batches, and in the traced run opens
    one span per epoch (closed by the log)."""

    def __init__(self, source, tracer, host):
        self.source = source
        self.tracer = tracer
        self.host = host
        self.steps = []
        self.eval_steps = []
        self.epoch_span = None

    def train_batches(self, shuffle_seed):
        if self.tracer is not None:
            self.epoch_span = self.tracer.begin("train.epoch")
        after = self.host.sample if self.host is not None else None
        return timed_batches(self.source.train_batches(shuffle_seed), self.steps, after)

    def val_batches(self):
        return timed_batches(self.source.val_batches(), self.eval_steps)

    def test_batches(self):
        return timed_batches(self.source.test_batches(), self.eval_steps)

    def end_epoch(self):
        if self.epoch_span is not None:
            self.tracer.end(self.epoch_span)
            self.epoch_span = None


def run_case1_l(state, seed, seconds, out_dir, tracer=None, host=None):
    """Train to the target within an epoch budget set by --seconds, but never
    fewer than CASE1_MIN_EPOCHS."""
    epochs = max(CASE1_MIN_EPOCHS, round(seconds / CASE1_EPOCH_S))
    cfg = train.TrainConfig(T=T, L=L, epochs=epochs, patience=epochs,
                            lr=CASE1_LR, batch_size=CASE1_BATCH, seed=seed)
    source = _TimedSource(state.source, tracer, host)
    clock = run_clock(host)
    log_times = []

    def log(line):
        log_times.append(clock())
        source.end_epoch()

    path = os.path.join(out_dir, f"case1-l-{seed}-{os.getpid()}.fbm")
    t_run = clock()
    try:
        model, report = train.train(state.model, source, cfg, log=log, eval_threads=1)
    except NumericError:
        # train() stops on a non-finite loss; the run then has nothing to check
        source.end_epoch()
        return Outcome(clock() - t_run, source.steps, {"losses_finite": False},
                       len(source.steps) + len(source.eval_steps), 1, checksum="nan")
    try:
        model.save(path)
        loaded = models.ForecastModel.load(path, expected_spec=model.spec)
        reloaded = train.evaluate(loaded, source.test_batches(), threads=1)
    finally:
        if os.path.exists(path):
            os.remove(path)
    run_s = clock() - t_run

    val = [e["val_mse"] for e in report.epochs]
    hit = next((i for i, v in enumerate(val) if v < CASE1_TARGET), None)
    test = (report.test["mse"], report.test["mae"])
    checks = {
        "losses_finite": all(math.isfinite(e["train_mse"]) for e in report.epochs),
        "target_reached": hit is not None,
        "test_mse_below_target": test[0] < CASE1_TARGET,
        "reload_bit_identical": reloaded == test,
    }
    figures = {"test_mse": test[0], "test_mae": test[1],
               "eval_windows_per_s": rate(source.eval_steps)}
    if hit is not None:
        figures["time_to_target_s"] = log_times[hit] - t_run
        figures["epochs_to_target"] = hit + 1
    checksum = repr(math.fsum(e["train_mse"] for e in report.epochs) + test[0])
    return Outcome(run_s, source.steps, checks,
                   len(source.steps) + len(source.eval_steps), 0, checksum, figures)


def rate(steps):
    """Windows per second of step time over (seconds, windows) steps."""
    seconds = sum(s for s, _ in steps)
    return sum(w for _, w in steps) / seconds if seconds > 0 else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # seed -> state
    run: object  # (state, seed, seconds, out_dir, tracer, host) -> Outcome
    trains: bool  # a closed-loop step is a train step, else an eval batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-s", setup_fbm_s, run_train_s, trains=True),
        Workload("eval-s", setup_fbm_s, run_eval_s, trains=False),
        Workload("case1-l", setup_case1_l, run_case1_l, trains=True),
    )
}
