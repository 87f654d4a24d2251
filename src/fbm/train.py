"""Training loop, metrics, and the two synthetic diagnostic tasks.

train() is plain Adam on MSE with best-val early stopping: settle every
parameter and evaluate the validation split after every epoch, snapshot each
parameter's state at the best epoch (a grid weight's is its sum of steps, not
its value), stop after `patience` epochs without improvement, restore the
snapshot unless the model holds it, and only then touch the test split
(exactly once), through the tables that epoch end or restore settled. A grid
weight's steps stay unfolded until its first .value read (save makes one).

The synthetic generators exercise the two failure modes of frequency-only
mappings: case 1 pairs each input window with a continuation that starts
104 steps later (windows drawn with random phase), case 2 is a contiguous
period-24 cosine series whose spectrum lands on bin 14 when read in
windows of 336 and on bin 8 when read in windows of 192.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import PARTS, Dataset, SplitSpec, WindowBatch, ratio_ends, start_chunks, write_csv
from .errors import ConfigError, NumericError, writing


@dataclass(frozen=True)
class TrainConfig:
    T: int
    L: int
    epochs: int = 30
    patience: int = 5
    lr: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        lows = {"T": 1, "L": 1, "epochs": 1, "patience": 1, "batch_size": 1, "seed": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")


@dataclass
class RunReport:
    config: dict
    epochs: list = field(default_factory=list)
    test: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self):
        """The report as JSON; a non-finite number, which JSON has no token for,
        raises NumericError."""
        try:
            return json.dumps(asdict(self), indent=2, allow_nan=False)
        except ValueError as e:
            raise NumericError(f"run report is not valid JSON: {e}") from None

    def save(self, path):
        with writing(path) as f:
            f.write(self.to_json())
            f.write("\n")


def evaluate(model, batches, threads=1, sink=None):
    """(MSE, MAE) over a batch stream, weighted by element count and summed
    in batch order; sink(batch, prediction), if given, sees every batch.
    A non-finite MSE or MAE raises NumericError.

    threads > 1 evaluates batches in a worker pool, at most `threads` of
    them in flight; parameters are only read, and the reduction stays in
    batch order, so the result is identical to the single-threaded one.
    Each batch goes through model.predict, untaped in whichever thread runs it.
    """

    def score(batch):
        pred = model.predict(batch.X)
        d = pred - batch.Y
        return batch, pred, float(np.sum(d * d)), float(np.sum(np.abs(d))), d.size

    _check_threads(threads)
    sq = absum = n = 0
    # the pool starts no worker unless it is given work
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = _in_order(pool, score, batches, threads) if threads > 1 else map(score, batches)
        for batch, pred, s, a, k in parts:
            if sink is not None:
                sink(batch, pred)
            sq += s
            absum += a
            n += k
            del batch, pred  # free this batch before the next forward
    if n == 0:
        raise ConfigError("evaluation stream produced no windows")
    if not (math.isfinite(sq) and math.isfinite(absum)):
        raise NumericError(f"non-finite metric (mse {sq / n}, mae {absum / n})")
    return sq / n, absum / n


def _check_threads(threads):
    """The rule for evaluation threads, which train() checks before its first batch."""
    if threads < 1:
        raise ConfigError(f"evaluation threads must be >= 1, got {threads}")


def _in_order(pool, fn, items, depth):
    """pool.map(fn, items) with at most `depth` items in flight (pool.map submits all)."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _peak_rss_mb():
    """The process's peak resident set so far, in MiB; getrusage gives KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _epoch_seed(seed, epoch):
    return seed * 1_000_003 + epoch


def train(model, source, cfg, log=None, eval_threads=1):
    """Fit model on source's train split; returns (model, RunReport).

    The model comes back holding the best-validation parameters. source
    provides train_batches(shuffle_seed) / val_batches() / test_batches().
    The optimizer loop is single-threaded; eval_threads only parallelizes
    the per-epoch validation and final test passes.
    """
    _check_threads(eval_threads)
    if (cfg.T, cfg.L) != (model.spec.T, model.spec.L):
        raise ConfigError(f"train config T={cfg.T}, L={cfg.L} does not match the model's "
                          f"T={model.spec.T}, L={model.spec.L}")
    report = RunReport(config={"train": asdict(cfg), "model": model.spec.to_header()})
    t0 = time.perf_counter()
    best_val = np.inf
    best_state = None  # epoch 1 always sets it: a non-finite validation MSE raises
    bad_epochs = 0

    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        sq = n = windows = 0
        for i, batch in enumerate(source.train_batches(_epoch_seed(cfg.seed, epoch))):
            # only diff holds the forward's output, so backward releases it with the tape
            diff = ad.sub(model.forward(batch.X), Tensor(batch.Y))
            loss = (diff * diff).mean()
            if not np.isfinite(loss.value):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {i}")
            ad.zero_grads(model.params)
            ad.backward(loss, model.params)
            ad.adam_step(model.params, cfg.lr)
            sq += float(loss.value) * diff.value.size
            n += diff.value.size
            windows += len(batch.X)
        train_mse = sq / max(n, 1)
        for p in model.params:  # validation reads each table as a model loaded from the value builds it
            p.settle()

        val_start = time.perf_counter()
        try:
            val_mse, val_mae = evaluate(model, source.val_batches(), eval_threads)
        except NumericError as e:
            raise NumericError(f"{e} on the validation split at epoch {epoch}") from None
        end = time.perf_counter()
        seconds, eval_seconds = end - start, end - val_start
        report.epochs.append({
            "epoch": epoch, "train_mse": train_mse, "val_mse": val_mse, "val_mae": val_mae,
            "seconds": seconds, "train_windows_per_s": windows / (seconds - eval_seconds),
            "eval_seconds": eval_seconds, "peak_rss_mb": _peak_rss_mb(),
        })
        if log:
            log(
                f"epoch {epoch:3d}  train_mse {train_mse:.6f}  "
                f"val_mse {val_mse:.6f}  val_mae {val_mae:.6f}"
            )
        if val_mse < best_val:
            best_val = val_mse
            best_state = None  # two snapshots are never alive at once
            best_state = [p.snapshot() for p in model.params]
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            break

    if bad_epochs:  # else the model holds the last epoch's state, the best
        for p, state in zip(model.params, best_state):
            p.restore(state)
    best_state = state = None  # no name keeps a snapshot alive through the test pass
    try:
        test_mse, test_mae = evaluate(model, source.test_batches(), eval_threads)
    except NumericError as e:
        raise NumericError(f"{e} on the test split") from None
    report.test = {"mse": test_mse, "mae": test_mae}
    report.seconds = time.perf_counter() - t0
    return model, report


# --- synthetic diagnostics ------------------------------------------------------


class PairedWindows:
    """Window source over explicit (X, Y) pairs, for tasks whose targets
    are not contiguous continuations of their inputs."""

    def __init__(self, X, Y, batch_size, splits=(0.6, 0.2, 0.2)):
        if X.shape[:2] != Y.shape[:2]:
            raise ConfigError(f"X {X.shape} and Y {Y.shape} disagree on windows/channels")
        self.X, self.Y = X, Y
        self.batch_size = batch_size
        spec = SplitSpec.ratio(*splits)
        cuts = (0, *ratio_ends(len(X), spec.train, spec.val))
        self._parts = {p: np.arange(a, b) for p, a, b in zip(PARTS, cuts, cuts[1:])}
        if min(len(v) for v in self._parts.values()) < 1:
            raise ConfigError(f"{len(X)} windows is too few to split {splits}")

    def _iter(self, part, shuffle_seed=None):
        for chunk in start_chunks(self._parts[part], self.batch_size, shuffle_seed):
            yield WindowBatch(X=self.X[chunk], Y=self.Y[chunk], starts=chunk)

    def train_batches(self, shuffle_seed):
        return self._iter("train", shuffle_seed)

    def val_batches(self):
        return self._iter("val")

    def test_batches(self):
        return self._iter("test")


def make_case1(seed, windows=1000, T=336, L=96, k=14, gap=104, batch_size=64):
    """Single-bin cosine windows whose targets start `gap` steps later.

    x[n] = cos(2pi k (n + delta) / T) with delta ~ U[0, T) per window;
    y[v] = cos(2pi k (v + delta + gap) / T). Every window's spectrum has
    exactly one active bin, but the input->target map mixes that bin's
    real and imaginary parts, so per-bin diagonal maps cannot fit it.
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.0, T, size=windows)[:, None, None]
    n = np.arange(T)[None, None, :]
    v = np.arange(L)[None, None, :]
    X = np.cos(2 * np.pi * k * (n + delta) / T)
    Y = np.cos(2 * np.pi * k * (v + delta + gap) / T)
    return PairedWindows(X, Y, batch_size=batch_size)


def make_case2(seed, length=4000):
    """Contiguous cosine series with a fixed per-sample period of 24.

    Windows of length 336 put its energy at bin 336/24 = 14, windows
    of length 192 put it at bin 8: the same signal, different indices.
    """
    phase = np.random.default_rng(seed).uniform(0.0, 2 * np.pi)
    x = np.cos(2 * np.pi * np.arange(length) / 24 + phase)
    return Dataset(name="case2", values=x[None, :])


# --- prediction export -----------------------------------------------------------


def export_predictions(path, model, batches, threads=1):
    """CSV dump window_id,channel,step,y_true,y_pred, replacing `path` once all is
    scored; returns evaluate()'s (MSE, MAE) for the batches, from the same forwards."""

    def write(batch, pred):
        b, d, step = np.indices(pred.shape)
        write_csv(f, "", [batch.starts[b], d, step], [batch.Y, pred])

    with writing(path) as f:
        f.write("window_id,channel,step,y_true,y_pred\n")
        return evaluate(model, batches, threads, write)
