"""Ingestion, split arithmetic, normalization, and window batching."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbm import autodiff as ad
from fbm.data import (
    Dataset,
    SlidingWindows,
    SplitSpec,
    iterate_batches,
    load,
    load_csv,
    samples_per_hour,
    save_cache,
    split,
    window_starts,
    zscore_apply,
    zscore_fit,
)
from fbm.errors import CheckpointError, ConfigError, DataError


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def toy_dataset(D=2, N=400, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    return Dataset(name=name, values=rng.standard_normal((D, N)))


def stamped_dataset(N, minutes, D=1, start="2016-07-01 00:00:00"):
    t0 = datetime.fromisoformat(start)
    ts = tuple((t0 + timedelta(minutes=minutes * i)).isoformat(sep=" ") for i in range(N))
    return Dataset(name="stamped", values=np.arange(D * N, dtype=float).reshape(D, N), timestamps=ts)


# --- load_csv ---------------------------------------------------------------------


def test_load_csv_with_timestamp_column(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        "date,u,v\n2016-07-01 00:00:00,1.0,4.0\n2016-07-01 01:00:00,2.0,5.0\n2016-07-01 02:00:00,3.0,6.0\n",
    )
    ds = load_csv(p)
    assert (ds.D, ds.N) == (2, 3)
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ds.timestamps[0] == "2016-07-01 00:00:00"


def test_load_csv_all_numeric(tmp_path):
    p = write_csv(tmp_path / "b.csv", "u,v\n1,2\n3,4\n")
    ds = load_csv(p)
    assert (ds.D, ds.N) == (2, 2)
    assert ds.timestamps is None


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    rows = ["date,u", *(f"t{i},{i}.5" for i in range(5)), "t5,abc"]
    p = write_csv(tmp_path / "c.csv", "\n".join(rows) + "\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    # the bad cell sits on file line 7 (header is line 1)
    assert "row 7" in str(err.value)
    assert "'u'" in str(err.value)


def test_load_csv_error_row_counts_blank_lines(tmp_path):
    # blank lines are skipped, but the bad cell is still named by its own file line
    p = write_csv(tmp_path / "c2.csv", "date,a\n2020-01-01,1\n\n2020-01-02,x\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert "row 4" in str(err.value)
    p = write_csv(tmp_path / "c3.csv", "u,v\n\n1,2\n\n3\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert "row 5" in str(err.value)


def test_load_csv_rejects_nan_cell(tmp_path):
    p = write_csv(tmp_path / "d.csv", "u\n1.0\nnan\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_load_csv_column_selection(tmp_path):
    p = write_csv(tmp_path / "e.csv", "date,u,v,w\nt0,1,2,3\nt1,4,5,6\n")
    ds = load_csv(p, value_columns=["w", "u"])
    np.testing.assert_array_equal(ds.values, [[3.0, 6.0], [1.0, 4.0]])
    np.testing.assert_array_equal(load(p, ["w", "u"]).values, ds.values)


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "f.csv", "date,u\nt0,1\n")
    with pytest.raises(DataError) as err:
        load_csv(p, value_columns=["q"])
    assert "q" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    p = write_csv(tmp_path / "g.csv", "u,v\n1,2\n3\n")
    with pytest.raises(DataError) as err:
        load_csv(p)
    assert "row 3" in str(err.value)


def test_load_csv_empty_and_header_only(tmp_path):
    with pytest.raises(DataError):
        load_csv(write_csv(tmp_path / "h.csv", ""))
    with pytest.raises(DataError):
        load_csv(write_csv(tmp_path / "i.csv", "u,v\n"))


def test_load_csv_with_only_a_timestamp_column(tmp_path):
    with pytest.raises(DataError, match="no value columns"):
        load_csv(write_csv(tmp_path / "j.csv", "date\nt0\nt1\n"))


# --- splits -----------------------------------------------------------------------


def test_ratio_split_example_650_800():
    ds = toy_dataset(N=1000)
    r = split(ds, SplitSpec.ratio(0.65, 0.15, 0.2), T=48, L=24)
    assert r.train == (0, 650)
    assert r.val == (650 - 47, 800)
    assert r.test == (800 - 47, 1000)


def test_ratio_split_floor_guard():
    # 100 * 0.29 is 28.999999... in binary; the epsilon keeps the floor at 29
    ds = toy_dataset(N=100)
    r = split(ds, SplitSpec.ratio(0.42, 0.29, 0.29), T=8, L=4)
    assert r.train == (0, 42)
    assert r.val == (42 - 7, 42 + 29)


def test_ratio_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec.ratio(0.7, 0.2, 0.2)
    with pytest.raises(ConfigError):
        SplitSpec.ratio(0.9, -0.1, 0.2)
    with pytest.raises(ConfigError):
        SplitSpec(mode="weekly")
    nan = float("nan")
    for fractions in ((nan, 0.15, 0.2), (0.65, nan, 0.2), (0.65, 0.15, nan)):
        with pytest.raises(ConfigError, match="finite and positive"):
            SplitSpec.ratio(*fractions)


def test_split_rejects_degenerate_series():
    T, L = 24, 12
    ds = toy_dataset(N=T + L - 1)
    with pytest.raises(DataError):
        split(ds, SplitSpec.ratio(), T=T, L=L)


def test_split_rejects_short_val():
    # train is long enough (54 >= 36) but val is n_val + T-1 = 35 < 36
    ds = toy_dataset(N=84)
    with pytest.raises(DataError) as err:
        split(ds, SplitSpec.ratio(), T=24, L=12)
    assert "val" in str(err.value)


def test_samples_per_hour():
    assert samples_per_hour(stamped_dataset(4, minutes=60)) == 1
    assert samples_per_hour(stamped_dataset(4, minutes=15)) == 4


def test_samples_per_hour_needs_timestamps():
    with pytest.raises(DataError):
        samples_per_hour(toy_dataset())
    with pytest.raises(DataError):
        samples_per_hour(
            Dataset(name="x", values=np.zeros((1, 3)), timestamps=("a", "b", "c"))
        )


def test_samples_per_hour_refuses_stamps_with_and_without_a_utc_offset():
    ds = Dataset(name="x", values=np.zeros((1, 2)),
                 timestamps=("2020-01-01T00:00", "2020-01-01T01:00+01:00"))
    with pytest.raises(DataError, match="x: cannot parse timestamps: can't subtract"):
        samples_per_hour(ds)


@pytest.mark.parametrize("minutes, step", [(7, "420.0s"), (0, "0.0s")])
def test_samples_per_hour_refuses_a_step_that_does_not_divide_an_hour(minutes, step):
    with pytest.raises(DataError, match=f"stamped: timestamp step {step} does not divide an hour"):
        samples_per_hour(stamped_dataset(4, minutes=minutes))


@pytest.mark.parametrize("minutes,f", [(60, 1), (15, 4)])
def test_ett_month_split_against_calendar_oracle(minutes, f):
    month = 30 * 24 * f
    ds = stamped_dataset(N=20 * month + 140, minutes=minutes)
    r = split(ds, SplitSpec.ett_months(), T=96, L=24)

    # oracle: count stamps strictly inside the first 360/480 days
    t0 = datetime.fromisoformat(ds.timestamps[0])
    days = [(datetime.fromisoformat(s) - t0).total_seconds() / 86400 for s in ds.timestamps]
    n_train = sum(d < 12 * 30 for d in days)
    n_train_val = sum(d < 16 * 30 for d in days)
    assert r.train == (0, n_train)
    assert r.val == (n_train - 95, n_train_val)
    assert r.test == (n_train_val - 95, sum(d < 20 * 30 for d in days))
    # the tail beyond 20 months is dropped
    assert r.test[1] < ds.N


def test_ett_split_rejects_short_series():
    ds = stamped_dataset(N=15 * 30 * 24, minutes=60)
    with pytest.raises(DataError):
        split(ds, SplitSpec.ett_months(), T=96, L=24)


def test_no_leakage_train_windows_end_before_val():
    ds = toy_dataset(N=1000)
    T, L = 48, 24
    r = split(ds, SplitSpec.ratio(0.65, 0.15, 0.2), T=T, L=L)
    starts = window_starts(r.train, T, L)
    assert starts.max() + T + L - 1 < r.val[0] + (T - 1)  # last touched index < first val step
    # and every val target index is >= the first val step
    val_starts = window_starts(r.val, T, L)
    assert val_starts.min() + T > r.train[1] - (T - 1)


# --- normalization ------------------------------------------------------------


def test_zscore_toy_123():
    ds = Dataset(name="t", values=np.array([[1.0, 2.0, 3.0]]))
    stats = zscore_fit(ds, (0, 3))
    assert stats.mean[0] == 2.0
    np.testing.assert_allclose(stats.std[0], np.sqrt(2.0 / 3.0), atol=1e-15)


def test_zscore_roundtrip_and_train_mean():
    ds = toy_dataset(D=3, N=500, seed=4)
    stats = zscore_fit(ds, (0, 325))
    norm = zscore_apply(ds, stats)
    np.testing.assert_allclose(norm.values[:, :325].mean(axis=1), 0.0, atol=1e-10)
    inverted = norm.values * stats.std[:, None] + stats.mean[:, None]
    np.testing.assert_allclose(inverted, ds.values, atol=1e-12)


def test_zscore_rejects_constant_channel():
    values = np.random.default_rng(0).standard_normal((3, 50))
    values[1] = 7.0
    ds = Dataset(name="t", values=values)
    with pytest.raises(DataError) as err:
        zscore_fit(ds, (0, 50))
    assert "channel 1" in str(err.value)


def test_zscore_constant_outside_train_is_fine():
    values = np.random.default_rng(0).standard_normal((2, 50))
    values[1, 30:] = 0.0  # constant only in the tail
    stats = zscore_fit(Dataset(name="t", values=values), (0, 30))
    assert np.all(stats.std > 0)


def test_zscore_refuses_a_channel_whose_std_is_not_finite():
    # a 1e160-scale channel's squares overflow float64: a std of inf would z-score it to all zeros
    values = np.random.default_rng(0).standard_normal((2, 50))
    values[1] *= 1e160
    with pytest.raises(DataError, match="t: channel 1's std is not finite"):
        zscore_fit(Dataset(name="t", values=values), (0, 50))


# --- window batching -----------------------------------------------------------


def test_window_count_edges():
    assert len(window_starts((0, 30), T=20, L=10)) == 1
    assert len(window_starts((0, 39), T=20, L=10)) == 10
    with pytest.raises(DataError):
        window_starts((0, 29), T=20, L=10)


@settings(max_examples=100, deadline=None)
@given(
    extra=st.integers(min_value=0, max_value=500),
    T=st.integers(min_value=2, max_value=64),
    L=st.integers(min_value=1, max_value=64),
    a=st.integers(min_value=0, max_value=100),
)
def test_window_count_formula(extra, T, L, a):
    n = T + L + extra
    starts = window_starts((a, a + n), T, L)
    assert len(starts) == n - T - L + 1
    assert starts[0] == a and starts[-1] == a + n - T - L


def test_batches_slice_correctly():
    ds = toy_dataset(D=2, N=100, seed=5)
    batches = list(iterate_batches(ds.values, (10, 90), T=16, L=4, batch_size=8))
    total = 0
    for b in batches:
        for i, s in enumerate(b.starts):
            np.testing.assert_array_equal(b.X[i], ds.values[:, s : s + 16])
            np.testing.assert_array_equal(b.Y[i], ds.values[:, s + 16 : s + 20])
        total += len(b.starts)
    assert total == 80 - 16 - 4 + 1


def test_batches_keep_last_partial():
    values = np.zeros((1, 30))
    sizes = [len(b.starts) for b in iterate_batches(values, (0, 30), T=10, L=10, batch_size=4)]
    assert sizes == [4, 4, 3]


def test_eval_order_is_chronological():
    values = np.zeros((1, 60))
    starts = np.concatenate(
        [b.starts for b in iterate_batches(values, (0, 60), T=20, L=10, batch_size=7)]
    )
    assert np.array_equal(starts, np.sort(starts))


def test_shuffle_is_seeded():
    values = np.zeros((1, 80))

    def order(seed):
        return np.concatenate(
            [b.starts for b in iterate_batches(values, (0, 80), 20, 10, 16, shuffle_seed=seed)]
        )

    a, b, c = order(3), order(3), order(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(np.sort(a), np.sort(c))  # same windows, different order


def test_batch_size_validation():
    with pytest.raises(ConfigError):
        list(iterate_batches(np.zeros((1, 50)), (0, 50), 10, 5, 0))


def test_sliding_windows_source():
    ds = toy_dataset(D=3, N=600, seed=6)
    r = split(ds, SplitSpec.ratio(), T=48, L=12)
    src = SlidingWindows(ds, r, T=48, L=12, batch_size=32)
    tb = next(iter(src.train_batches(shuffle_seed=0)))
    assert tb.X.shape == (32, 3, 48) and tb.Y.shape == (32, 3, 12)
    vb = list(src.val_batches())
    assert all(np.all(b.starts >= r.val[0]) for b in vb)


# --- cache -------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    ds = stamped_dataset(N=50, minutes=15, D=2)
    path = tmp_path / "ds.fbmds"
    save_cache(path, ds)
    back = load(path)
    assert back.name == "stamped"
    np.testing.assert_array_equal(back.values, ds.values)
    assert samples_per_hour(back) == 4  # leading stamps survive
    assert [name for name, _ in ad.load_tensors(path)[1]] == ["values"]  # the raw series only


def test_cache_rejects_name_spanning_lines(tmp_path):
    ds = Dataset(name="data/etth1\n.csv", values=np.zeros((1, 4)))
    with pytest.raises(CheckpointError):
        save_cache(tmp_path / "ds.fbmds", ds)


def test_cache_rejects_other_containers(tmp_path):
    path = tmp_path / "w.bin"
    ad.save_tensors(path, [("x", np.zeros(3))], header={"kind": "model"})
    with pytest.raises(DataError):
        load(path)


def test_cache_keeps_one_leading_timestamp_without_the_second(tmp_path):
    path = tmp_path / "ds.fbmds"
    ad.save_tensors(path, [("values", np.zeros((1, 4)))],
                    header={"kind": "dataset-cache", "ts0": "2020-01-01T00:00"})
    assert load(path).timestamps == ("2020-01-01T00:00",)
    with pytest.raises(DataError, match="month-based split needs timestamps"):
        samples_per_hour(load(path))


def test_cache_rejects_column_selection(tmp_path):
    path = tmp_path / "ds.fbmds"
    save_cache(path, toy_dataset())
    with pytest.raises(ConfigError, match="column"):
        load(path, ["u"])
