"""CSV ingestion, chronological splits, train-split scaling, window batching.

Datasets are immutable channel-major f64 matrices. Splits are chronological
and non-overlapping; the val/test ranges are extended backward by T-1 steps
so their early targets have full input windows without borrowing future
data. Normalization stats always come from the train range alone, and since
metrics are computed in normalized space, everything downstream of
zscore_apply works in that space.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError, ConfigError, DataError, reading


@dataclass(frozen=True)
class Dataset:
    name: str
    values: np.ndarray  # f64[D, N]
    timestamps: tuple | None = None  # ISO-8601 strings, informational

    @property
    def D(self):
        return self.values.shape[0]

    @property
    def N(self):
        return self.values.shape[1]


def _parse_cell(text, line_no, col_name, path):
    try:
        v = float(text)
    except ValueError:
        raise DataError(
            f"{path}: unparseable cell {text!r} at row {line_no}, column {col_name!r}"
        ) from None
    if not math.isfinite(v):
        raise DataError(
            f"{path}: non-finite value {text!r} at row {line_no}, column {col_name!r}"
        )
    return v


def load_csv(path, value_columns=None):
    """Read a header + rows CSV into a Dataset.

    The first column is treated as a timestamp when its first data cell is
    not numeric. value_columns optionally restricts (and orders) the value
    columns by header name. Row numbers in errors are 1-based file lines
    (the header is line 1), blank lines counted.
    """
    path = str(path)
    with reading(path, DataError, "dataset") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        rows = [(reader.line_num, r) for r in reader if r]
    if not rows:
        raise DataError(f"{path}: {'empty file' if header is None else 'no data rows'}")

    has_ts = False
    try:
        float(rows[0][1][0])
    except ValueError:
        has_ts = True
    first_value_col = 1 if has_ts else 0
    names = header[first_value_col:]

    if value_columns is not None:
        missing = [c for c in value_columns if c not in names]
        if missing:
            raise DataError(f"{path}: missing columns {missing} (header has {names})")
        picks = [first_value_col + names.index(c) for c in value_columns]
    else:
        picks = list(range(first_value_col, len(header)))
    if not picks:
        raise DataError(f"{path}: no value columns")

    out = np.empty((len(picks), len(rows)))
    timestamps = [] if has_ts else None
    for i, (line_no, row) in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {line_no} has {len(row)} cells, header has {len(header)}"
            )
        if has_ts:
            timestamps.append(row[0])
        for j, col in enumerate(picks):
            out[j, i] = _parse_cell(row[col], line_no, header[col], path)

    return Dataset(
        name=path,
        values=out,
        timestamps=tuple(timestamps) if timestamps else None,
    )


# --- splits -------------------------------------------------------------------


PARTS = ("train", "val", "test")
ETT_MONTHS = (12, 4, 4)  # train/val/test months of the ETT split, 30-day months


@dataclass(frozen=True)
class SplitSpec:
    mode: str  # ratio | ett_months
    train: float = 0.65
    val: float = 0.15
    test: float = 0.2

    def __post_init__(self):
        if self.mode not in ("ratio", "ett_months"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.mode == "ratio":
            got = f"{self.train}/{self.val}/{self.test}"
            if not all(0 < f < math.inf for f in (self.train, self.val, self.test)):
                raise ConfigError(f"split ratios must be finite and positive, got {got}")
            if abs(self.train + self.val + self.test - 1.0) > 1e-9:
                raise ConfigError(f"split ratios must sum to 1, got {got}")

    @classmethod
    def ratio(cls, *fractions):
        """Ratio split of (train, val, test) fractions; omitted ones keep the defaults."""
        return cls("ratio", *fractions)

    @classmethod
    def ett_months(cls):
        return cls(mode="ett_months")


@dataclass(frozen=True)
class SplitRanges:
    train: tuple  # (start, stop) half-open index ranges into the series
    val: tuple
    test: tuple


def samples_per_hour(ds):
    """Infer sampling rate from the first two timestamps."""
    if ds.timestamps is None or len(ds.timestamps) < 2:
        raise DataError(f"{ds.name}: month-based split needs timestamps")
    try:
        t0 = datetime.fromisoformat(ds.timestamps[0])
        t1 = datetime.fromisoformat(ds.timestamps[1])
        step = (t1 - t0).total_seconds()  # TypeError: one stamp has a UTC offset, one not
    except (ValueError, TypeError) as e:
        raise DataError(f"{ds.name}: cannot parse timestamps: {e}") from None
    if step <= 0 or 3600.0 % step:
        raise DataError(f"{ds.name}: timestamp step {step}s does not divide an hour")
    return int(3600.0 // step)


def ratio_ends(n, train, val):
    """Ends of the (train, val, test) parts of n items; the test part takes the rest."""
    n_train = int(n * train + 1e-9)
    return n_train, n_train + int(n * val + 1e-9), n


def split(ds, spec, T, L):
    """Chronological (train, val, test) ranges with T-1 back-extension."""
    N = ds.N
    if spec.mode == "ratio":
        train_end, val_end, test_end = ratio_ends(N, spec.train, spec.val)
    else:
        f = samples_per_hour(ds)
        train_end, val_end, test_end = itertools.accumulate(m * 30 * 24 * f for m in ETT_MONTHS)
        if N < test_end:
            raise DataError(
                f"{ds.name}: {N} steps < {test_end} needed for {ETT_MONTHS} months at {f}/hour"
            )
    bounds = ((0, train_end), (train_end - (T - 1), val_end), (val_end - (T - 1), test_end))
    for part, (a, b) in zip(PARTS, bounds):
        if a < 0 or b - a < T + L:
            raise DataError(
                f"{ds.name}: {part} range [{a}, {b}) too short for T={T}, L={L}"
            )
    return SplitRanges(*bounds)


# --- normalization ----------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray  # f64[D]
    std: np.ndarray  # f64[D], population


def _channel_std(values, name):
    """values[D, N]'s channel stds, without numpy's warnings; one not finite is refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # squares past float64's range
        std = values.std(axis=1)
    if not np.isfinite(std).all():
        raise DataError(f"{name}: channel {np.argmin(np.isfinite(std))}'s std is not finite")
    return std


def zscore_fit(ds, train_range):
    a, b = train_range
    block = ds.values[:, a:b]
    std = _channel_std(block, ds.name)
    mean = block.mean(axis=1)  # its sum did not overflow, as the std's did not
    flat = np.nonzero(std == 0.0)[0]
    if flat.size:
        raise DataError(f"{ds.name}: constant channel {flat[0]} in train split")
    return NormalizationStats(mean=mean, std=std)


def zscore_apply(ds, stats):
    values = (ds.values - stats.mean[:, None]) / stats.std[:, None]
    return Dataset(name=ds.name, values=values, timestamps=ds.timestamps)


# --- window batching ----------------------------------------------------------------


@dataclass(frozen=True)
class WindowBatch:
    X: np.ndarray  # f64[B, D, T]
    Y: np.ndarray  # f64[B, D, L]
    starts: np.ndarray  # source index of each window's first input step


def window_starts(segment, T, L):
    a, b = segment
    count = (b - a) - T - L + 1
    if count < 1:
        raise DataError(f"range [{a}, {b}) too short for T={T}, L={L}")
    return np.arange(a, a + count)


def start_chunks(starts, batch_size, shuffle_seed=None):
    """`starts` (permuted by shuffle_seed unless it is None) in chunks of
    batch_size, the last one kept partial: every window stream's batch loop."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if shuffle_seed is not None:
        starts = np.random.default_rng(shuffle_seed).permutation(starts)
    for i in range(0, len(starts), batch_size):
        yield starts[i : i + batch_size]


def iterate_batches(values, segment, T, L, batch_size, shuffle_seed=None):
    """Yield WindowBatch covering every window start once.

    shuffle_seed None keeps chronological order (evaluation); otherwise the
    start order is a seeded permutation. The last partial batch is kept.
    """
    for chunk in start_chunks(window_starts(segment, T, L), batch_size, shuffle_seed):
        X = np.stack([values[:, s : s + T] for s in chunk])
        Y = np.stack([values[:, s + T : s + T + L] for s in chunk])
        yield WindowBatch(X=X, Y=Y, starts=chunk)


class SlidingWindows:
    """Window source over a normalized series: the interface train() consumes."""

    def __init__(self, ds, ranges, T, L, batch_size):
        self.values = ds.values
        self.ranges = ranges
        self.T = T
        self.L = L
        self.batch_size = batch_size

    def train_batches(self, shuffle_seed):
        return iterate_batches(
            self.values, self.ranges.train, self.T, self.L, self.batch_size, shuffle_seed
        )

    def val_batches(self):
        return iterate_batches(self.values, self.ranges.val, self.T, self.L, self.batch_size)

    def test_batches(self):
        return iterate_batches(self.values, self.ranges.test, self.T, self.L, self.batch_size)


# --- CSV export -----------------------------------------------------------------------


def write_csv(f, header, ints, floats):
    """One row per element of the equally shaped arrays, in C order: the
    `ints` columns as %d, then the `floats` columns as %.17g (round-trip
    exact). f is an open text file, or a path, which a new file replaces once
    every row is written (ad._replacing); an empty header writes none."""
    if not hasattr(f, "write"):
        with ad._replacing(f, "x", encoding="utf-8") as out:
            return write_csv(out, header, ints, floats)
    cols = [np.ravel(c) for c in ints + floats]
    fmt = ["%d"] * len(ints) + ["%.17g"] * len(floats)
    np.savetxt(f, np.column_stack(cols), fmt=fmt, delimiter=",", header=header, comments="")


# --- dataset cache ------------------------------------------------------------------


def save_cache(path, ds):
    """Binary cache of a raw dataset, split and z-scored as its CSV is.

    Only the two leading timestamps are kept: they are what month-based
    splitting needs to re-infer the sampling rate.
    """
    header = {"name": ds.name, "kind": "dataset-cache"}
    if ds.timestamps is not None and len(ds.timestamps) >= 2:
        header["ts0"] = ds.timestamps[0]
        header["ts1"] = ds.timestamps[1]
    ad.save_tensors(path, [("values", ds.values)], header=header)


def load(path, columns=None):
    """Dataset from a CSV or a cache, told apart by the container's magic bytes.

    `columns` picks and orders a CSV's value columns; a cache stores no column
    names, so it is refused there. A cache's `values` must be a finite 2-D
    array with D, N >= 1, and a cache that does not load raises DataError, as a
    CSV does. A cache of an older layout holds the normalized series plus
    `mean`/`std` records: the records are ignored, and z-scoring is
    affine-invariant, so the series normalizes as its CSV's does.
    """
    with reading(path, DataError, "dataset", binary=True) as f:
        is_cache = f.read(len(ad._MAGIC)) == ad._MAGIC
    if not is_cache:
        return load_csv(path, value_columns=columns)
    if columns is not None:
        raise ConfigError(f"{path}: a dataset cache stores no column names to select")
    try:
        with contextlib.closing(ad._read(path)) as container:
            header = next(container)
            if header.get("kind") != "dataset-cache":
                raise DataError(f"{path}: not a dataset cache (header kind {header.get('kind')!r})")
            values = dict(container).get("values", np.empty(0))
    except CheckpointError as e:
        raise DataError(str(e)) from None
    if values.ndim != 2 or not values.size or not np.isfinite(values).all():
        raise DataError(f"{path}: cache values{values.shape} must be a finite 2-D array, D, N >= 1")
    ts = tuple(header[k] for k in ("ts0", "ts1") if k in header) or None
    return Dataset(name=header.get("name", str(path)), values=values, timestamps=ts)
