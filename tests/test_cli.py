"""End-to-end CLI behavior: exit codes, files written, metric reproduction."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import shutil
import struct
import sys
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbm import autodiff as ad
from fbm import cli
from fbm import data as dat
from fbm import fourier as fb
from fbm.blocks import BACKBONES, InteractionConfig, TrendConfig
from fbm.cli import build_model_spec, main
from fbm.data import SplitSpec
from fbm.models import SPEC_FIELDS, VARIANTS, ForecastModel, ModelSpec
from fbm.train import TrainConfig


def write_series(path, values, header="value"):
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        cols = 1 if values.ndim == 1 else values.shape[0]
        for i in range(values.shape[-1]):
            if cols == 1:
                f.write(f"{values[i]:.17g}\n")
            else:
                f.write(",".join(f"{values[d, i]:.17g}" for d in range(cols)) + "\n")
    return str(path)


@pytest.fixture
def periodic_csv(tmp_path):
    t = np.arange(1200)
    x = np.cos(2 * np.pi * t / 24) + 0.3 * np.sin(2 * np.pi * t / 12) + 0.01 * t
    return write_series(tmp_path / "periodic.csv", x)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- exit codes -----------------------------------------------------------------


def test_missing_required_flag_exits_1(capsys):
    rc, _, err = run(capsys, "train")
    assert rc == 1
    assert "usage" in err and "--data" in err


def test_unknown_subcommand_exits_1(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1


def test_odd_window_exits_1(capsys, periodic_csv):
    rc, _, err = run(
        capsys, "train", "--data", periodic_csv, "--T", "47", "--L", "12",
        "--epochs", "1",
    )
    assert rc == 1
    assert "even" in err


def test_missing_dataset_file_exits_2(capsys):
    rc, _, err = run(capsys, "data-inspect", "--data", "/no/such/file.csv")
    assert rc == 2


# the command and flag that read each kind of user text file
READERS = {"dataset": ("data-inspect", "--data"), "manifest": ("model-describe", "--manifest")}
# (bytes, what the file is, exit code) of files that cannot be read as UTF-8 CSV or manifest
UNREADABLE = {
    "csv-0xff": (b"value\n1\n\xff\n", "dataset", 2),
    "csv-utf16": ("value\n1\n2\n".encode("utf-16"), "dataset", 2),
    "csv-long-field": (b"value\n" + b"1" * (csv.field_size_limit() + 1) + b"\n", "dataset", 2),
    "manifest-0xff": (b"T=48\n\xff\n", "manifest", 1),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_text_file_exits_with_one_line_naming_it(capsys, tmp_path, case):
    body, what, code = UNREADABLE[case]
    path = tmp_path / "file"
    path.write_bytes(body)
    rc, out, err = run(capsys, *READERS[what], str(path))
    assert rc == code and out == ""
    assert err.startswith(f"fbm: error: cannot read {what} {path}: ") and err.count("\n") == 1


def test_csv_with_a_byte_order_mark_names_its_first_column(capsys, tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,5\n3,5\n")
    rc, out, _ = run(capsys, "data-inspect", "--data", str(path), "--columns", "a")
    assert rc == 0
    assert out.splitlines()[-1].split() == ["0", "2.0000", "1.0000", "1.0000", "3.0000"]


def _cache(path, values, cut=0):
    ad.save_tensors(path, [("values", values)], header={"kind": "dataset-cache"})
    path.write_bytes(path.read_bytes()[: path.stat().st_size - cut])
    return path


@pytest.mark.parametrize("values, cut, message", [
    (np.arange(3.0), 0, "cache values(3,) must be a finite 2-D array, D, N >= 1"),
    (np.array([[1.0, np.nan, 2.0]]), 0, "cache values(1, 3) must be a finite 2-D array"),
    (np.zeros((1, 3)), 5, "truncated while reading data of values"),
], ids=["one-d", "nan", "truncated"])
def test_bad_cache_exits_2_with_one_line_naming_it(capsys, tmp_path, values, cut, message):
    path = _cache(tmp_path / "bad.fbmds", values, cut)
    for cmd in ("data-inspect", "train"):
        rc, out, err = run(capsys, cmd, "--data", str(path))
        assert rc == 2 and out == ""
        assert err.startswith(f"fbm: error: {path}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["csv", "cache"])
def test_data_inspect_of_a_channel_whose_std_overflows_exits_2_with_one_line(capsys, tmp_path, kind):
    # finite values whose squares overflow float64 have no finite std
    path = tmp_path / "big.csv"
    path.write_text("a\n1e308\n-1e308\n1e308\n")
    if kind == "cache":
        path = _cache(tmp_path / "big.fbmds", np.array([[1e160, -1e160, 1e160]]))
    rc, out, err = run(capsys, "data-inspect", "--data", str(path))
    assert rc == 2 and out == ""
    assert err == f"fbm: error: {path}: channel 0's std is not finite\n"


def test_container_of_another_kind_as_data_names_its_kind(capsys, tmp_path):
    pairs = tmp_path / "case1.fbmw"
    assert run(capsys, "synth", "--case", "1", "--windows", "5", "--out", str(pairs))[0] == 0
    rc, _, err = run(capsys, "data-inspect", "--data", str(pairs))
    assert rc == 2
    assert err == f"fbm: error: {pairs}: not a dataset cache (header kind 'case1-pairs')\n"


@pytest.mark.parametrize("what", READERS)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(body=st.binary(), magic=st.booleans())
def test_any_bytes_give_an_exit_code_and_at_most_one_error_line(tmp_path_factory, what, body,
                                                                 magic):
    # arbitrary bytes, bare or after the container magic, as the file a command reads
    path = tmp_path_factory.getbasetemp() / f"any-{what}"
    path.write_bytes(ad._MAGIC * magic + body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*READERS[what], str(path)])
    assert rc in (0, 1, 2), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def test_missing_checkpoint_exits_1(capsys, periodic_csv):
    rc, _, err = run(
        capsys, "eval", "--checkpoint", "/no/such/model.fbm", "--data", periodic_csv
    )
    assert rc == 1


def _collapsed_gamma_checkpoint(tmp_path):
    spec = ModelSpec(
        variant="fbm-s", T=48, L=12, D=1,
        trend=TrendConfig(backbone="mlp", h1=4, h2=5, P=4, scales=(1,)),
    )
    model = ForecastModel(spec, seed=0)
    for p in model.params:
        if p.name.endswith(".gamma"):
            p.value = np.zeros_like(p.value)
    ckpt = tmp_path / "broken.fbm"
    model.save(ckpt)
    return str(ckpt)


def test_numeric_abort_exits_3(capsys, tmp_path, periodic_csv):
    ckpt = _collapsed_gamma_checkpoint(tmp_path)
    rc, _, err = run(capsys, "eval", "--checkpoint", ckpt, "--data", periodic_csv)
    assert rc == 3
    assert "gamma" in err


def test_failed_prediction_export_keeps_the_previous_file(capsys, tmp_path, periodic_csv):
    ckpt = _collapsed_gamma_checkpoint(tmp_path)
    preds = tmp_path / "p.csv"
    preds.write_bytes(b"window_id,channel,step,y_true,y_pred\n0,0,0,1,2\n")
    kept = preds.read_bytes()
    rc, _, err = run(capsys, "eval", "--checkpoint", ckpt, "--data", periodic_csv,
                     "--predictions-out", str(preds))
    assert rc == 3 and "gamma" in err
    assert preds.read_bytes() == kept
    assert not list(tmp_path.glob("*.tmp"))


CSV_EXPORTS = {
    "features": ("features", "--data", "{csv}", "--T", "48"),
    "spectrum": ("spectrum", "--data", "{csv}", "--T", "48"),
    "weights": ("weights", "--checkpoint", "{fbm_s}"),
    "synth-case2": ("synth", "--case", "2"),
}


@pytest.mark.parametrize("cmd", CSV_EXPORTS)
def test_failed_csv_export_keeps_the_previous_file(capsys, monkeypatch, tmp_path, periodic_csv, cmd):
    # the rows go to a new file, which replaces the old one only once all are written
    out = tmp_path / "out.csv"
    out.write_bytes(b"value\n1\n")
    fbm_s = _collapsed_gamma_checkpoint(tmp_path)
    argv = [a.format(csv=periodic_csv, fbm_s=fbm_s) for a in CSV_EXPORTS[cmd]]
    savetxt = np.savetxt

    def fails_midway(f, X, **kw):
        savetxt(f, X[: len(X) // 2], **kw)
        raise OSError(errno.EFBIG, "File too large")

    monkeypatch.setattr(np, "savetxt", fails_midway)
    rc, _, err = run(capsys, *argv, "--out", str(out))
    assert rc == 1 and err == f"fbm: error: cannot write {out}: File too large\n"
    assert out.read_bytes() == b"value\n1\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_of_a_nan_checkpoint_exits_3_and_keeps_the_previous_export(capsys, tmp_path,
                                                                        periodic_csv):
    model = ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1), seed=0)
    w = model.blocks["fbm-l"].w
    w.value[(0,) * w.value.ndim] = np.nan
    ckpt = tmp_path / "nan.fbm"
    model.save(ckpt)
    preds = tmp_path / "p.csv"
    preds.write_bytes(b"window_id,channel,step,y_true,y_pred\n0,0,0,1,2\n")
    kept = preds.read_bytes()
    args = ["eval", "--checkpoint", str(ckpt), "--data", periodic_csv]
    for extra in ([], ["--predictions-out", str(preds)]):
        rc, stdout, err = run(capsys, *args, *extra)
        assert rc == 3 and stdout == ""  # no NaN token where JSON is expected
        assert err.startswith("fbm: error: non-finite metric") and err.count("\n") == 1
    assert preds.read_bytes() == kept
    assert not list(tmp_path.glob("*.tmp"))


# --- train / eval ------------------------------------------------------------------


def count_records_read(monkeypatch):
    """A list that gets the value count of each record a container read takes from its file."""
    read, fromfile = [], np.fromfile

    def counted(f, dtype, count):
        arr = fromfile(f, dtype=dtype, count=count)
        read.append(arr.size)
        return arr

    monkeypatch.setattr(np, "fromfile", counted)
    return read


def train_tiny(capsys, tmp_path, periodic_csv, *extra):
    out = tmp_path / "run"
    rc, stdout, _ = run(
        capsys, "train", "--data", periodic_csv, "--variant", "fbm-l",
        "--T", "48", "--L", "12", "--lr", "0.01", "--batch", "64",
        "--epochs", "3", "--patience", "3", "--seed", "1", "--out", str(out), *extra,
    )
    assert rc == 0
    return out, stdout


def test_train_writes_checkpoint_and_report(capsys, tmp_path, periodic_csv):
    out, stdout = train_tiny(capsys, tmp_path, periodic_csv)
    assert (out / "model.fbm").exists()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"config", "epochs", "test", "seconds"}
    assert len(report["epochs"]) == 3
    assert report["config"]["dataset"]["D"] == 1
    assert stdout.count("epoch ") == 3
    assert "test mse" in stdout


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_with_a_non_finite_test_metric_exits_3_writing_nothing(capsys, tmp_path):
    t = np.arange(1200)
    x = np.cos(2 * np.pi * t / 24)
    x[-1] = 1e300  # the last test window's target only: its squared error overflows
    out = tmp_path / "run"
    rc, _, err = run(capsys, "train", "--data", write_series(tmp_path / "s.csv", x),
                     "--variant", "fbm-l", "--T", "48", "--L", "12", "--epochs", "1",
                     "--out", str(out))
    assert rc == 3
    assert err.startswith("fbm: error: non-finite metric") and "test split" in err
    assert not out.exists()


def test_train_with_a_train_split_std_that_overflows_exits_2_writing_nothing(capsys, tmp_path):
    t = np.arange(1200)
    x = np.cos(2 * np.pi * t / 24)
    x[0] = 1e300  # in the train range: its channel's std there is not finite
    out = tmp_path / "run"
    path = write_series(tmp_path / "s.csv", x)
    rc, stdout, err = run(capsys, "train", "--data", path, "--variant", "fbm-l", "--T", "48", "--L", "12",
                          "--epochs", "1", "--out", str(out))
    assert rc == 2 and stdout == ""
    assert err == f"fbm: error: {path}: channel 0's std is not finite\n"
    assert not out.exists()


# each variant, small: fbm-l and fbm-nl pin both kinds of grid weight from train through save
# to eval, and fbm-s runs its trend scales and interaction
VARIANT_RUNS = {
    "fbm-l": (),
    "fbm-nl": ("--variant", "fbm-nl", "--nl-h1", "16", "--nl-h2", "8"),
    "fbm-s": ("--variant", "fbm-s", "--trend-p", "4", "--trend-h1", "16", "--trend-h2", "32",
              "--scales", "1+2", "--interaction", "--c1", "24", "--c2", "12", "--h3", "16",
              "--inter-k", "1"),
    "fbm-np": ("--variant", "fbm-np", "--np-p", "4", "--np-h1", "16", "--np-ffn", "32", "--np-k", "1"),
    "diag": ("--variant", "diag"),
    "last": ("--variant", "last"),
}


def test_eval_reproduces_report_test_bit_exactly(capsys, tmp_path, periodic_csv):
    for variant, extra in VARIANT_RUNS.items():
        (tmp_path / variant).mkdir()
        out, _ = train_tiny(capsys, tmp_path / variant, periodic_csv, *extra)
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["model"]["variant"] == variant
        rc, stdout, _ = run(
            capsys, "eval", "--checkpoint", str(out / "model.fbm"),
            "--data", periodic_csv, "--part", "test", "--batch", "64",
        )
        assert rc == 0
        assert json.loads(stdout) == report["test"], variant


def test_eval_val_split_matches_best_recorded(capsys, tmp_path, periodic_csv):
    for variant, extra in VARIANT_RUNS.items():
        (tmp_path / variant).mkdir()
        out, _ = train_tiny(capsys, tmp_path / variant, periodic_csv, *extra)
        report = json.loads((out / "report.json").read_text())
        rc, stdout, _ = run(
            capsys, "eval", "--checkpoint", str(out / "model.fbm"),
            "--data", periodic_csv, "--part", "val", "--batch", "64",
        )
        assert rc == 0
        assert json.loads(stdout)["mse"] == min(e["val_mse"] for e in report["epochs"]), variant


def test_eval_threads_match_single(capsys, tmp_path, periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    args = ["eval", "--checkpoint", str(out / "model.fbm"), "--data", periodic_csv,
            "--batch", "32"]
    rc1, out1, _ = run(capsys, *args, "--threads", "1")
    rc2, out2, _ = run(capsys, *args, "--threads", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_1_exits_1_before_any_work(capsys, tmp_path, periodic_csv, threads):
    out = tmp_path / "run"
    for argv in (("train", "--variant", "fbm-l", "--T", "48", "--L", "12", "--out", str(out)),
                 ("eval", "--checkpoint", str(tmp_path / "missing.fbm"))):
        rc, stdout, err = run(capsys, *argv, "--data", periodic_csv, "--threads", threads)
        assert rc == 1 and stdout == ""
        assert err == f"fbm: error: --threads must be >= 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("batch", ["0", "-3"])
def test_eval_batch_below_1_exits_1_before_any_work(capsys, tmp_path, periodic_csv, batch):
    checkpoint = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1)).save(checkpoint)
    preds = tmp_path / "p.csv"
    preds.write_bytes(b"kept\n")
    # a missing data file is never read, and an existing export is not reopened
    for data in (str(tmp_path / "missing.csv"), periodic_csv):
        rc, stdout, err = run(capsys, "eval", "--checkpoint", str(checkpoint), "--data", data,
                              "--batch", batch, "--predictions-out", str(preds))
        assert rc == 1 and stdout == ""
        assert err == f"fbm: error: --batch must be >= 1, got {batch}\n"
    assert preds.read_bytes() == b"kept\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be >= 1, got 0"),
    ("--patience", "0", "patience must be >= 1, got 0"),
    ("--batch", "0", "batch_size must be >= 1, got 0"),
    ("--lr", "-1", "learning rate must be finite and >= 0, got -1.0"),
    ("--lr", "nan", "learning rate must be finite and >= 0, got nan"),
    ("--lr", "inf", "learning rate must be finite and >= 0, got inf"),
    ("--train-ratio", "nan", "split ratios must be finite and positive, got nan/0.15/0.2"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
], ids=["epochs", "patience", "batch", "lr", "lr-nan", "lr-inf", "train-ratio-nan", "seed"])
def test_bad_training_value_exits_1_before_any_work(capsys, tmp_path, flag, value, message):
    # the data path does not exist: loading it would exit 2, and the fbm-nl
    # default spec would build an 83.5M-parameter model before training
    out = tmp_path / "run"
    rc, stdout, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                          "--variant", "fbm-nl", flag, value, "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err == f"fbm: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--variant", "fbm-nl", "--nl-h1", "0"), "fbm-nl hidden widths must be positive"),
    (("--variant", "fbm-s", "--T", "30", "--L", "6", "--trend-p", "4"),
     "patch count 4 must divide time length 30"),
    (("--variant", "fbm-s", "--T", "36", "--L", "6", "--trend-p", "3", "--scales", "1+4"),
     "scale kernel 4 does not divide 36x18"),
    (("--variant", "fbm-s", "--T", "16", "--L", "6", "--trend-p", "2", "--interaction",
      "--c1", "17"), "interaction input mask C1=17 outside [1, 16]"),
    (("--variant", "fbm-s", "--T", "16", "--L", "6", "--trend-p", "2", "--scales", "1+2+1"),
     "trend scale kernels must differ, got [1] more than once"),
], ids=["width", "patch-count", "scale-kernel", "mask", "scales-repeated"])
def test_bad_model_layout_exits_1_before_any_work(capsys, tmp_path, flags, message):
    # the data path does not exist: the spec's layouts are checked before the load
    out = tmp_path / "run"
    rc, stdout, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"), *flags,
                          "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err == f"fbm: error: {message}\n"
    assert not out.exists()


BACKBONE_NAMES = [*BACKBONES, "unknown"]  # fbm-s refuses the last; other variants ignore it


@pytest.fixture(scope="module")
def stamped_csv(tmp_path_factory):
    """400 hourly rows of two channels: every ratio split drawn below fits T, L <= 48, and
    the ETT split's 20 months do not."""
    t0 = datetime(2016, 7, 1)
    rows = "".join(f"{t0 + timedelta(hours=i)},{np.sin(i / 12):.17g},{np.cos(i / 7) + i / 400:.17g}\n"
                   for i in range(400))
    path = tmp_path_factory.mktemp("sweep") / "stamped.csv"
    path.write_text("date,a,b\n" + rows)
    return path


@st.composite
def _train_argv(draw):
    """train's argv with a value it takes for each training and data option and every model
    flag: T and L up to 48, and widths and stack counts up to 8, since the defaults would
    make a run slow. In half the examples one of them is replaced by a value it may refuse
    (0 epochs, a NaN, infinite or negative lr, an unknown split, a column the data lacks,
    an odd T, text where a number goes)."""
    T, L = draw(st.sampled_from([8, 16, 32, 48])), draw(st.integers(1, 48))
    divisor = st.sampled_from([1, 2, 4, 8])  # of every T drawn: a patch count
    kernels = st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True)
    drawn = {"T": st.just(T), "L": st.just(L), "variant": st.sampled_from(VARIANTS),
             "np-p": divisor, "trend-p": divisor, "c2": st.integers(1, min(L, 8)),
             "scales": kernels.map(lambda ks: "+".join(map(str, ks)))}
    for f in SPEC_FIELDS:
        if f.flag and f.flag not in drawn:
            drawn[f.flag] = (st.booleans() if f.type is bool else
                             st.sampled_from(BACKBONE_NAMES) if f.flag == "trend-backbone" else
                             st.integers(1, 8))
    values = {flag: draw(strategy) for flag, strategy in drawn.items()}
    lr = st.floats(0, 0.1)  # drawn 3 to 1 against a value train refuses or may diverge on
    values.update(epochs=draw(st.integers(1, 2)),
                  lr=draw(st.one_of(lr, lr, lr, st.sampled_from(["nan", "inf", "-0.01", "1e9"]))),
                  batch=draw(st.integers(16, 64)), patience=draw(st.integers(1, 3)),
                  seed=draw(st.integers(0, 9)), threads=draw(st.integers(1, 3)),
                  split=draw(st.sampled_from(["ratio", "ratio", "ratio", "ett"])))
    if draw(st.booleans()):
        ratios = draw(st.sampled_from([(0.6, 0.2, 0.2), (0.5, 0.25, 0.25)]))
        values.update(zip([f"{part}-ratio" for part in dat.PARTS], ratios))
    if draw(st.booleans()):
        values["columns"] = draw(st.sampled_from(["a", "b,a", "a,a", " b "]))
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(values)))] = draw(
            st.sampled_from(["0", "-1", "3", "nan", "inf", "-inf", "1e9", "x"]))
    argv = []
    for name, v in values.items():
        if isinstance(v, bool):
            argv.append(f"--{name}" if v else f"--no-{name}")
        else:
            argv += [f"--{name}", str(v)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=_train_argv())
def test_train_flag_sweep_exits_0_or_with_one_error_line(stamped_csv, argv):
    exits_0_or_with_one_error_line(
        ["train", "--data", str(stamped_csv), "--out", str(stamped_csv.parent / "run"), *argv])


def test_eval_wrong_channel_count_exits_1(capsys, tmp_path, periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    two = np.vstack([np.cos(np.arange(800) / 7), np.sin(np.arange(800) / 5)])
    other = write_series(tmp_path / "two.csv", two, header="u,v")
    rc, _, err = run(
        capsys, "eval", "--checkpoint", str(out / "model.fbm"), "--data", other
    )
    assert rc == 1
    assert "D=1" in err and "D=2" in err


def test_eval_reads_no_weight_before_the_data_and_its_channel_count(capsys, monkeypatch,
                                                                    tmp_path, periodic_csv):
    checkpoint = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1)).save(checkpoint)
    read = count_records_read(monkeypatch)
    two = write_series(tmp_path / "two.csv", np.vstack([np.cos(np.arange(800) / 7)] * 2),
                       header="u,v")
    for data, code, message in ((str(tmp_path / "missing.csv"), 2, "missing.csv"),
                                (two, 1, "dataset has D=2 channels, checkpoint expects D=1")):
        rc, stdout, err = run(capsys, "eval", "--checkpoint", str(checkpoint), "--data", data)
        assert rc == code and stdout == ""
        assert err.startswith("fbm: error: ") and err.count("\n") == 1 and message in err
    assert read == []


def test_a_checkpoint_is_opened_once_by_load_and_twice_by_eval(capsys, monkeypatch, tmp_path,
                                                              periodic_csv):
    checkpoint = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1)).save(checkpoint)
    opened, reading = [], ad.reading

    def counted(path, *args, **kwargs):
        opened.append(path)
        return reading(path, *args, **kwargs)

    monkeypatch.setattr(ad, "reading", counted)
    ForecastModel.load(checkpoint)
    assert len(opened) == 1
    opened.clear()
    rc, _, _ = run(capsys, "eval", "--checkpoint", str(checkpoint), "--data", periodic_csv)
    assert rc == 0
    assert len(opened) == 2  # its header before the data, then header and records in one read


def test_eval_refuses_a_checkpoint_replaced_while_the_data_loads(capsys, monkeypatch, tmp_path,
                                                                 periodic_csv):
    checkpoint = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1)).save(checkpoint)
    prepare_windows = cli.prepare_windows

    def replacing(*args):
        # an L=1 model's predictions would broadcast against the L=12 targets
        ForecastModel(ModelSpec(variant="fbm-l", T=48, L=1, D=1)).save(checkpoint)
        return prepare_windows(*args)

    monkeypatch.setattr(cli, "prepare_windows", replacing)
    rc, stdout, err = run(capsys, "eval", "--checkpoint", str(checkpoint), "--data", periodic_csv)
    assert rc == 1 and stdout == ""
    assert "does not match requested spec" in err


def test_eval_predictions_export(capsys, tmp_path, periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    preds = tmp_path / "preds.csv"
    rc, _, _ = run(
        capsys, "eval", "--checkpoint", str(out / "model.fbm"),
        "--data", periodic_csv, "--batch", "64", "--predictions-out", str(preds),
    )
    assert rc == 0
    with open(preds, newline="") as f:
        rows = list(csv.DictReader(f))
    assert set(rows[0]) == {"window_id", "channel", "step", "y_true", "y_pred"}
    # test split of 1200 steps: 240 + 47 back-extension, minus T+L-1
    assert len(rows) == (240 + 47 - 48 - 12 + 1) * 12


def test_eval_predictions_out_is_the_same_single_pass(capsys, monkeypatch, tmp_path,
                                                      periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    args = ["eval", "--checkpoint", str(out / "model.fbm"), "--data", periodic_csv,
            "--batch", "32"]
    batches = []
    forward = ForecastModel.forward
    monkeypatch.setattr(ForecastModel, "forward",
                        lambda self, X: batches.append(len(X)) or forward(self, X))
    rc, plain, _ = run(capsys, *args)
    assert rc == 0
    # 240 + 47 back-extension, minus T+L-1: 228 test windows in batches of 32
    assert batches == [32] * 7 + [4]
    batches.clear()
    rc, dumped, _ = run(capsys, *args, "--predictions-out", str(tmp_path / "p.csv"))
    assert rc == 0
    assert dumped == plain
    assert batches == [32] * 7 + [4]  # one forward per batch, not two


def test_manifest_precedence(capsys, tmp_path, periodic_csv):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(
        f"data={periodic_csv}\nT=48\nL=12\nlr=0.05\nepochs=2\nbatch=64\n# comment\n",
        encoding="utf-8",
    )
    out = tmp_path / "mrun"
    rc, _, _ = run(
        capsys, "train", "--manifest", str(manifest), "--lr", "0.01", "--out", str(out)
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train"]["lr"] == 0.01  # flag beats manifest
    assert report["config"]["train"]["T"] == 48  # manifest beats default
    assert len(report["epochs"]) == 2


def test_manifest_unknown_key_exits_1(capsys, tmp_path, periodic_csv):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("data=x.csv\nwibble=3\n", encoding="utf-8")
    rc, _, err = run(capsys, "train", "--manifest", str(manifest))
    assert rc == 1
    assert "wibble" in err


@pytest.mark.parametrize("line", ["T=abc", "lr=fast", "standardize=maybe", "scales=abc"])
def test_manifest_unparsable_value_names_line_and_key(capsys, tmp_path, line):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text(f"data=x.csv\n{line}\n", encoding="utf-8")
    rc, _, err = run(capsys, "train", "--manifest", str(manifest))
    assert rc == 1
    assert err.startswith("fbm: error:") and err.count("\n") == 1
    key = line.split("=")[0]
    assert f"{manifest}:2: {key}=" in err


def save_with_header(path, **changed):
    model = ForecastModel(ModelSpec(variant="fbm-l", T=16, L=6, D=1), seed=0)
    header = {**model.spec.to_header(), **changed}
    ad.save_tensors(path, [(p.name, p.value) for p in model.params], header=header)
    return str(path)


@pytest.mark.parametrize("key,text", [("T", "abc"), ("standardize", "yes"),
                                      ("standardize", "true"), ("L", "6.0")])
def test_checkpoint_header_that_does_not_parse_exits_1(capsys, tmp_path, key, text):
    ckpt = save_with_header(tmp_path / "bad.fbm", **{key: text})
    rc, _, err = run(capsys, "model-describe", "--checkpoint", ckpt)
    assert rc == 1
    assert err.startswith("fbm: error:") and err.count("\n") == 1
    assert f"{key}={text!r}" in err


# model-describe reads a header alone; eval reads the records too
@pytest.mark.parametrize("header, name, part, command", [
    (b"variant=fbm-l\nT=\xff16", b"linear.w", "header", ("model-describe",)),
    (b"variant=fbm-l\nT=16\nL=6\nD=1", b"linear.\xffw", "name of tensor 0", ("eval", "--data", "{csv}")),
], ids=["header", "name"])
def test_checkpoint_text_that_is_not_utf8_exits_1(capsys, tmp_path, periodic_csv, header, name, part,
                                                  command):
    ckpt = tmp_path / "latin.fbm"
    ckpt.write_bytes(ad._MAGIC + struct.pack("<I", len(header)) + header
                     + struct.pack("<I", len(name)) + name + struct.pack("<Id", 0, 1.0))
    rc, out, err = run(capsys, *(a.format(csv=periodic_csv) for a in command), "--checkpoint", str(ckpt))
    assert rc == 1 and out == ""
    assert err.startswith("fbm: error:") and err.count("\n") == 1
    assert f"{ckpt}: {part} is not UTF-8" in err


def test_eval_of_checkpoint_header_that_does_not_parse_exits_1(capsys, tmp_path, periodic_csv):
    ckpt = save_with_header(tmp_path / "bad.fbm", T="abc")
    rc, _, err = run(capsys, "eval", "--checkpoint", ckpt, "--data", periodic_csv)
    assert rc == 1
    assert err.startswith("fbm: error:") and err.count("\n") == 1
    assert "T='abc'" in err


# --- exports --------------------------------------------------------------------------


def test_features_constant_window_all_zero(capsys, tmp_path):
    path = write_series(tmp_path / "const.csv", np.full(100, 5.5))
    out = tmp_path / "features.csv"
    rc, _, _ = run(
        capsys, "features", "--data", path, "--T", "32", "--start", "10",
        "--out", str(out),
    )
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1 * 32 * 16
    assert all(float(r["value"]) == 0.0 for r in rows)
    assert min(int(r["k"]) for r in rows) == 1  # DC dropped


@pytest.mark.parametrize("start", ["-1", "1153"])
def test_features_window_outside_the_series_exits_1(capsys, tmp_path, periodic_csv, start):
    out = tmp_path / "features.csv"
    rc, stdout, err = run(capsys, "features", "--data", periodic_csv, "--T", "48", "--start", start,
                          "--out", str(out))
    assert rc == 1 and stdout == "" and not out.exists()
    assert err == f"fbm: error: window [{start}, {int(start) + 48}) outside series of length 1200\n"


def test_features_reconstruct_window(capsys, tmp_path, periodic_csv):
    out = tmp_path / "features.csv"
    rc, _, _ = run(
        capsys, "features", "--data", periodic_csv, "--T", "48", "--start", "100",
        "--out", str(out),
    )
    assert rc == 0
    G = np.zeros((48, 24))
    with open(out, newline="") as f:
        for r in csv.DictReader(f):
            G[int(r["n"]), int(r["k"]) - 1] = float(r["value"])
    # rows sum back to the standardized window
    x = np.loadtxt(periodic_csv, skiprows=1)[100:148]
    xs = (x - x.mean()) / x.std()
    np.testing.assert_allclose(G.sum(axis=1), xs, atol=1e-9)


def test_spectrum_periodic_mass_at_multiples_of_14(capsys, tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(900)
    # hourly-style series with period 24: saw shape has harmonics, so the
    # energy should sit at bins 14, 28, 42, ... for T=336
    x = ((t % 24) / 24.0) ** 2 + 0.005 * rng.standard_normal(900)
    path = write_series(tmp_path / "hourly.csv", x)
    out = tmp_path / "spectrum.csv"
    rc, _, _ = run(
        capsys, "spectrum", "--data", path, "--T", "336", "--part", "train",
        "--out", str(out),
    )
    assert rc == 0
    mean = np.zeros(168)
    with open(out, newline="") as f:
        for r in csv.DictReader(f):
            mean[int(r["k"]) - 1] = float(r["mean_amp"])
    harmonics = mean[13::14].sum()  # bins 14, 28, ...
    assert harmonics > 0.8 * mean.sum()
    assert np.argmax(mean) + 1 == 14


def test_spectrum_reports_amplitude_phase_amplitude(capsys, tmp_path, periodic_csv):
    out = tmp_path / "spectrum.csv"
    rc, _, _ = run(
        capsys, "spectrum", "--data", periodic_csv, "--T", "48", "--part", "test",
        "--stride", "1000", "--out", str(out),
    )
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    # the stride exceeds the test range, so only its first window is read;
    # that range starts T-1 steps before the last 240 (20%) of the series
    start = 1200 - 240 - 47
    x = np.loadtxt(periodic_csv, skiprows=1)[start : start + 48]
    amp = fb.amplitude(*fb.rdft_array((x - x.mean()) / x.std()))
    for r in (rows[1], rows[-1]):  # k = 2 (doubled) and k = T/2 (Nyquist, single)
        k = int(r["k"])
        assert float(r["mean_amp"]) == pytest.approx(amp[k], rel=1e-12, abs=1e-12)
        assert float(r["lo95"]) == pytest.approx(amp[k], rel=1e-12, abs=1e-12)


def test_spectrum_on_the_ett_split_reads_its_train_months(capsys, tmp_path):
    # 12 + 4 + 4 months of 30 days, hourly: the train part is the first 8,640 rows
    t0 = datetime(2016, 7, 1)
    rows = "".join(f"{t0 + timedelta(hours=i)},{np.sin(i / 24):.17g}\n" for i in range(14_400))
    path = tmp_path / "ett.csv"
    path.write_text("date,value\n" + rows)
    out = tmp_path / "spectrum.csv"
    rc, stdout, _ = run(capsys, "spectrum", "--data", str(path), "--T", "48", "--split", "ett",
                        "--stride", "1000", "--out", str(out))
    assert rc == 0
    assert stdout == f"wrote {out} (9 windows)\n"  # ceil((8,640 - 48 + 1) / 1000); a 65% ratio split gives 10


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_spectrum_stride_below_1_exits_1(capsys, tmp_path, periodic_csv, stride):
    out = tmp_path / "spectrum.csv"
    rc, stdout, err = run(capsys, "spectrum", "--data", periodic_csv, "--T", "48",
                          "--stride", stride, "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err == f"fbm: error: --stride must be >= 1, got {stride}\n"
    assert not out.exists()


def test_spectrum_nan_split_ratio_exits_1_before_reading_data(capsys, tmp_path):
    rc, stdout, err = run(capsys, "spectrum", "--data", str(tmp_path / "missing.csv"),
                          "--val-ratio", "nan")
    assert rc == 1 and stdout == ""
    assert err == "fbm: error: split ratios must be finite and positive, got 0.65/nan/0.2\n"


@pytest.mark.parametrize("cmd", ["spectrum", "features"])
def test_bad_window_length_exits_1_before_reading_data(capsys, tmp_path, cmd):
    rc, stdout, err = run(capsys, cmd, "--data", str(tmp_path / "missing.csv"), "--T", "47")
    assert rc == 1 and stdout == ""
    assert err == "fbm: error: window length must be even and >= 4, got 47\n"


def test_weights_roundtrip(capsys, tmp_path, periodic_csv):
    out = tmp_path / "srun"
    rc, _, _ = run(
        capsys, "train", "--data", periodic_csv, "--variant", "fbm-s",
        "--T", "48", "--L", "12", "--trend-backbone", "linear", "--scales", "1",
        "--lr", "0.01", "--batch", "64", "--epochs", "2", "--out", str(out),
    )
    assert rc == 0
    wout = tmp_path / "weights.csv"
    rc, _, _ = run(capsys, "weights", "--checkpoint", str(out / "model.fbm"),
                   "--out", str(wout))
    assert rc == 0
    model = ForecastModel.load(out / "model.fbm")
    W = np.zeros((48, 24))
    with open(wout, newline="") as f:
        for r in csv.DictReader(f):
            W[int(r["n"]), int(r["k"]) - 1] = float(r["value"])
    np.testing.assert_array_equal(W, model.seasonal.W.value)


def test_weights_rejects_non_seasonal_checkpoint(capsys, tmp_path, periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    rc, _, err = run(capsys, "weights", "--checkpoint", str(out / "model.fbm"))
    assert rc == 1
    assert "fbm-s" in err


def test_weights_refuses_a_non_fbm_s_checkpoint_from_its_header(capsys, monkeypatch, tmp_path):
    checkpoint = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1)).save(checkpoint)
    read = count_records_read(monkeypatch)
    rc, stdout, err = run(capsys, "weights", "--checkpoint", str(checkpoint))
    assert rc == 1 and stdout == ""
    assert err == "fbm: error: weights export needs an fbm-s checkpoint, got fbm-l\n"
    assert read == []


def _fbm_s_records(tmp_path):
    """An fbm-s checkpoint with a seeded random seasonal filter: (path, header, records)."""
    spec = ModelSpec(variant="fbm-s", T=48, L=12, D=1, trend=TrendConfig(backbone="linear", scales=(1,)))
    model = ForecastModel(spec, seed=5)
    model.seasonal.W.value = np.random.default_rng(6).standard_normal(model.seasonal.W.shape)
    path = tmp_path / "model.fbm"
    model.save(path)
    return path, *ad.load_tensors(path)


def test_weights_reads_no_record_past_the_seasonal_filter(capsys, monkeypatch, tmp_path):
    path, _, records = _fbm_s_records(tmp_path)
    assert records[0][0] == "seasonal.W" and len(records) > 1
    read = count_records_read(monkeypatch)
    out = tmp_path / "w.csv"
    rc, stdout, _ = run(capsys, "weights", "--checkpoint", str(path), "--out", str(out))
    assert rc == 0 and stdout == f"wrote {out} (48, 24)\n"
    assert read == [48 * 24]  # seasonal.W alone
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (48 * 24, 3)
    assert np.array_equal(rows[:, 2].reshape(48, 24), records[0][1])


def test_weights_exports_a_checkpoint_whose_later_records_are_corrupt(capsys, tmp_path, periodic_csv):
    # behaviour: only the seasonal record is read, so eval refuses the file and weights does not
    path, header, records = _fbm_s_records(tmp_path)
    first = tmp_path / "first.fbm"  # the header and the first record, in the same bytes
    ad.save_tensors(first, records[:1], header=header)
    corrupt = tmp_path / "corrupt.fbm"  # every later record cut to 6 bytes
    corrupt.write_bytes(path.read_bytes()[: first.stat().st_size + 6])
    rc, _, err = run(capsys, "eval", "--checkpoint", str(corrupt), "--data", periodic_csv)
    assert rc == 1 and "truncated while reading name of tensor 1" in err
    written = []
    for checkpoint in (path, corrupt):
        out = tmp_path / f"{checkpoint.stem}.csv"
        rc, _, _ = run(capsys, "weights", "--checkpoint", str(checkpoint), "--out", str(out))
        assert rc == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("first, message", [
    (1, "checkpoint's first tensor is trend.d1.out.w(1152, 12), not seasonal.W(48, 24)"),
    (None, "checkpoint's first tensor is seasonal.W(24, 48), not seasonal.W(48, 24)"),
], ids=["name", "shape"])
def test_weights_refuses_a_first_record_that_is_not_the_seasonal_filter(capsys, tmp_path, first,
                                                                        message):
    path, header, records = _fbm_s_records(tmp_path)
    if first is None:
        records[0] = ("seasonal.W", records[0][1].T)
    else:
        records.insert(0, records.pop(first))
    ad.save_tensors(path, records, header=header)
    rc, stdout, err = run(capsys, "weights", "--checkpoint", str(path))
    assert rc == 1 and stdout == ""
    assert err == f"fbm: error: {message}\n"


def test_spectrum_peaks_below_two_and_a_half_amplitude_arrays(capsys, tmp_path):
    # 20,000 steps: the default split's train part holds 13,000 - 48 + 1 windows of 24 bins
    data = write_series(tmp_path / "long.csv", np.sin(np.arange(20000) / 9))
    tracemalloc.start()
    try:
        rc = main(["spectrum", "--data", data, "--T", "48", "--out", str(tmp_path / "s.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    amp_bytes = (13000 - 48 + 1) * 24 * 8
    assert peak < 2.5 * amp_bytes, peak / amp_bytes


# --- output paths that cannot be written ---------------------------------------


WRITERS = {
    "data-inspect": ("data-inspect", "--data", "{csv}", "--cache-out", "{bad}"),
    "synth-case1": ("synth", "--case", "1", "--windows", "10", "--out", "{bad}"),
    "synth-case2": ("synth", "--case", "2", "--out", "{bad}"),
    "features": ("features", "--data", "{csv}", "--T", "48", "--out", "{bad}"),
    "spectrum": ("spectrum", "--data", "{csv}", "--T", "48", "--out", "{bad}"),
    "eval": ("eval", "--checkpoint", "{model}", "--data", "{csv}", "--predictions-out", "{bad}"),
    "train": ("train", "--data", "{csv}", "--T", "48", "--L", "12", "--epochs", "1",
              "--out", "{bad}"),
}
BAD_PATHS = {"missing-dir": "missing/x", "a-directory": "adir", "under-a-file": "afile/x"}


# train makes its --out directory and its parents, so only a path under a file fails
@pytest.mark.parametrize("cmd, where", [
    (cmd, where) for cmd in WRITERS for where in BAD_PATHS
    if cmd != "train" or where == "under-a-file"
])
def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path, periodic_csv, cmd, where):
    model = tmp_path / "model.fbm"
    ForecastModel(ModelSpec(variant="fbm-l", T=48, L=12, D=1), seed=0).save(model)
    (tmp_path / "afile").write_text("x")
    (tmp_path / "adir").mkdir()
    bad = tmp_path / BAD_PATHS[where]
    argv = (a.format(csv=periodic_csv, model=model, bad=bad) for a in WRITERS[cmd])
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith(f"fbm: error: cannot write {bad}") and err.count("\n") == 1


def test_train_out_naming_a_file_exits_1_before_reading_data(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    rc, out, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                       "--out", str(afile))
    assert rc == 1 and out == ""  # a missing dataset would exit 2
    assert err == f"fbm: error: cannot write {afile}: {afile} is not a directory\n"
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("name", ["model.fbm", "report.json"])
def test_train_output_that_is_a_directory_exits_1_before_reading_data(capsys, tmp_path, name):
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    rc, stdout, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                          "--out", str(out))
    assert rc == 1 and stdout == ""  # a missing dataset would exit 2
    assert err == f"fbm: error: cannot write {out / name}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == [name] and not any((out / name).iterdir())


def test_train_out_with_a_name_too_long_for_the_file_system_exits_1_before_reading_data(capsys,
                                                                                        tmp_path):
    out = tmp_path / ("x" * 300) / "run"
    rc, stdout, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                          "--out", str(out))
    assert rc == 1 and stdout == ""  # a missing dataset would exit 2
    assert err == f"fbm: error: cannot write {out}: {os.strerror(errno.ENAMETOOLONG)}\n"


def test_train_whose_out_cannot_be_made_after_training_exits_1_writing_nothing(capsys, monkeypatch,
                                                                               tmp_path, periodic_csv):
    def read_only(self, *args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(self))

    monkeypatch.setattr(cli.Path, "mkdir", read_only)
    out = tmp_path / "run"
    rc, _, err = run(capsys, "train", "--data", periodic_csv, "--T", "48", "--L", "12",
                     "--epochs", "1", "--out", str(out))
    assert rc == 1
    assert err == f"fbm: error: cannot write {out}: {os.strerror(errno.EROFS)}\n"
    assert not out.exists() and not (out / "model.fbm").exists()


# --- inspection and caching -------------------------------------------------------


def test_data_inspect_prints_shape(capsys, periodic_csv):
    rc, stdout, _ = run(capsys, "data-inspect", "--data", periodic_csv)
    assert rc == 0
    assert "channels: 1" in stdout
    assert "timesteps: 1200" in stdout


def test_data_inspect_prints_the_sampling_rate_of_timestamps(capsys, tmp_path):
    path = tmp_path / "stamped.csv"
    path.write_text("date,a\n2016-07-01 00:00:00,1\n2016-07-01 00:15:00,2\n2016-07-01 00:30:00,4\n")
    rc, stdout, _ = run(capsys, "data-inspect", "--data", str(path))
    assert rc == 0
    assert "timesteps: 3\nsamples/hour: 4\n" in stdout


def test_data_inspect_of_stamps_a_day_apart_prints_no_sampling_rate(capsys, tmp_path):
    path = tmp_path / "daily.csv"
    path.write_text("date,a\n2016-07-01,1\n2016-07-02,2\n2016-07-03,4\n")
    rc, stdout, err = run(capsys, "data-inspect", "--data", str(path))
    assert rc == 0 and err == ""
    assert "timesteps: 3\nchannel " in stdout and "samples/hour" not in stdout


def test_cache_roundtrip_through_cli(capsys, tmp_path, periodic_csv):
    cache = tmp_path / "ds.fbmds"
    rc, stdout, _ = run(
        capsys, "data-inspect", "--data", periodic_csv, "--cache-out", str(cache),
    )
    assert rc == 0 and cache.exists()
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    args = ["eval", "--checkpoint", str(out / "model.fbm"), "--part", "test",
            "--batch", "64", "--data"]
    rc1, csv_metrics, _ = run(capsys, *args, periodic_csv)
    rc2, cache_metrics, _ = run(capsys, *args, str(cache))
    assert rc1 == rc2 == 0
    assert csv_metrics == cache_metrics


SPLIT_40 = ("--train-ratio", "0.4", "--val-ratio", "0.3", "--test-ratio", "0.3")


@pytest.mark.parametrize("argv", [
    ("eval", "--checkpoint", "{ckpt}", "--batch", "64", *SPLIT_40),
    ("features", "--T", "48", "--start", "5", "--out", "{out}"),
    ("spectrum", "--T", "48", "--part", "val", *SPLIT_40, "--out", "{out}"),
    ("data-inspect",),
], ids=lambda argv: argv[0])
def test_cache_reads_as_its_csv_on_another_split(capsys, tmp_path, periodic_csv, argv):
    # the cache is built under the default split and read under another one
    cache = tmp_path / "ds.fbmds"
    assert run(capsys, "data-inspect", "--data", periodic_csv, "--cache-out", str(cache))[0] == 0
    ckpt, _ = train_tiny(capsys, tmp_path, periodic_csv)
    seen = []
    for i, data in enumerate((periodic_csv, str(cache))):
        out = tmp_path / f"out{i}.csv"
        rc, stdout, err = run(capsys, *[a.format(ckpt=ckpt / "model.fbm", out=out) for a in argv],
                              "--data", data)
        assert rc == 0, err
        seen.append((stdout.replace(str(out), "out"), out.exists() and out.read_text()))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("ratios", [(0.65, 0.15, 0.2), (0.4, 0.3, 0.3)])
def test_cache_in_the_old_normalized_layout_reads_as_its_csv(tmp_path, periodic_csv, ratios):
    # the old layout held the series z-scored on one split's train range, plus mean/std
    ds = dat.load_csv(periodic_csv)
    stats = dat.zscore_fit(ds, dat.split(ds, SplitSpec.ratio(), 48, 12).train)
    cache = tmp_path / "old.fbmds"
    ad.save_tensors(cache, [("values", dat.zscore_apply(ds, stats).values),
                            ("mean", stats.mean), ("std", stats.std)],
                    header={"name": ds.name, "kind": "dataset-cache"})
    res = dict(zip(("train-ratio", "val-ratio", "test-ratio"), ratios), split="ratio",
               columns=None)
    want, want_ranges = cli.prepare_windows({**res, "data": periodic_csv}, 48, 12)
    got, got_ranges = cli.prepare_windows({**res, "data": str(cache)}, 48, 12)
    assert got_ranges == want_ranges
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


def test_cache_of_a_csv_whose_name_is_not_utf8_keeps_the_name_as_valid_text(tmp_path, periodic_csv):
    # the file name's undecodable byte reads as a lone surrogate, which UTF-8 cannot hold;
    # the output goes to StringIO, since capsys's stream could not take the printed name
    named = tmp_path / "x\udcff.csv"
    shutil.copyfile(periodic_csv, named)
    cache = tmp_path / "ds.fbmds"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["data-inspect", "--data", str(named), "--cache-out", str(cache)])
    assert rc == 0 and err.getvalue() == ""
    loaded = dat.load(cache)
    assert loaded.name == f"{tmp_path}/x?.csv"
    assert loaded.values.tobytes() == dat.load(periodic_csv).values.tobytes()


# each command that prints a path it was given: (argv, the start of each line naming one)
PATH_PRINTS = {
    "synth": (("synth", "--case", "2", "--length", "200", "--out", "{odd}.csv"), ["wrote {odd}.csv "]),
    "features": (("features", "--data", "{csv}", "--T", "48", "--out", "{odd}.csv"),
                 ["wrote {odd}.csv "]),
    "spectrum": (("spectrum", "--data", "{csv}", "--T", "48", "--out", "{odd}.csv"),
                 ["wrote {odd}.csv "]),
    "weights": (("weights", "--checkpoint", "{fbm_s}", "--out", "{odd}.csv"), ["wrote {odd}.csv "]),
    "train": (("train", "--data", "{csv}", "--T", "48", "--L", "12", "--epochs", "1",
               "--out", "{odd}"), ["wrote {odd}/model.fbm and {odd}/report.json"]),
    "data-inspect": (("data-inspect", "--data", "{odd}-in.csv", "--cache-out", "{odd}.fbmds"),
                     ["name: {odd}-in.csv", "wrote {odd}.fbmds"]),
}


@pytest.mark.parametrize("cmd", PATH_PRINTS)
def test_a_path_that_is_not_utf8_prints_as_its_bytes_to_a_strict_stdout(monkeypatch, tmp_path,
                                                                        periodic_csv, cmd):
    # Python makes stdout strict in a UTF-8 locale such as en_US.UTF-8; the byte 0xff of
    # a file name reads as the lone surrogate \udcff, which a strict stream refuses
    odd = f"{tmp_path}/y\udcff"
    shutil.copyfile(periodic_csv, f"{odd}-in.csv")
    fill = {"csv": periodic_csv, "odd": odd, "fbm_s": _fbm_s_records(tmp_path)[0]}
    argv, lines = PATH_PRINTS[cmd]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([a.format(**fill) for a in argv]) == 0
    stdout.flush()
    printed = stdout.buffer.getvalue().splitlines()
    for line in lines:
        assert any(p.startswith(os.fsencode(line.format(**fill))) for p in printed), printed


def test_an_error_naming_a_path_that_is_not_utf8_prints_its_bytes_to_stderr(monkeypatch, tmp_path,
                                                                          periodic_csv):
    # stderr's default handler, backslashreplace, would print the byte 0xff of the file
    # name as the text \udcff, a name that opens no file
    odd = f"{tmp_path}/y\udcff.csv"
    shutil.copyfile(periodic_csv, odd)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["data-inspect", "--data", odd, "--columns", "zz"]) == 2
    stderr.flush()
    printed = stderr.buffer.getvalue().splitlines()
    assert len(printed) == 1 and printed[0].startswith(
        b"fbm: error: " + os.fsencode(odd) + b": missing columns ['zz']"), printed


def test_columns_with_a_cache_exits_1(capsys, tmp_path, periodic_csv):
    cache = tmp_path / "ds.fbmds"
    assert run(capsys, "data-inspect", "--data", periodic_csv, "--cache-out", str(cache))[0] == 0
    rc, out, err = run(capsys, "data-inspect", "--data", str(cache), "--columns", "value")
    assert rc == 1 and out == ""
    assert err.startswith("fbm: error:") and err.count("\n") == 1 and "column" in err


@pytest.mark.parametrize("flag, value", [
    ("--T", "96"), ("--L", "24"), ("--split", "ett"), ("--train-ratio", "0.5"),
    ("--val-ratio", "0.25"), ("--test-ratio", "0.25"),
])
def test_data_inspect_takes_no_split_or_window_options(capsys, periodic_csv, flag, value):
    rc, out, err = run(capsys, "data-inspect", "--data", periodic_csv, flag, value)
    assert rc == 1 and out == ""
    assert f"error: unrecognized arguments: {flag} {value}" in err


def test_model_describe_from_flags(capsys):
    rc, stdout, _ = run(
        capsys, "model-describe", "--variant", "fbm-s", "--T", "48", "--L", "12",
        "--D", "3", "--trend-backbone", "linear", "--scales", "1",
    )
    assert rc == 0
    assert "seasonal" in stdout and "trend" in stdout and "total" in stdout


# every model flag at a non-default value: flag, its text, the variant that
# reads it (None: all), spec attribute path and value, header key and text
DESCRIBE_FLAGS = [
    ("--T", "16", None, ("T",), 16, "T", "16"),
    ("--L", "6", None, ("L",), 6, "L", "6"),
    ("--no-standardize", None, None, ("standardize",), False, "standardize", "0"),
    ("--nl-h1", "7", "fbm-nl", ("nl_h1",), 7, "nl_h1", "7"),
    ("--nl-h2", "5", "fbm-nl", ("nl_h2",), 5, "nl_h2", "5"),
    ("--np-p", "2", "fbm-np", ("np_cfg", "P"), 2, "np_p", "2"),
    ("--np-h1", "4", "fbm-np", ("np_cfg", "h1"), 4, "np_h1", "4"),
    ("--np-ffn", "6", "fbm-np", ("np_cfg", "h2"), 6, "np_h2", "6"),
    ("--np-k", "1", "fbm-np", ("np_cfg", "K"), 1, "np_k", "1"),
    ("--trend-backbone", "transformer", "fbm-s", ("trend", "backbone"), "transformer",
     "trend_backbone", "transformer"),
    ("--trend-h1", "4", "fbm-s", ("trend", "h1"), 4, "trend_h1", "4"),
    ("--trend-h2", "6", "fbm-s", ("trend", "h2"), 6, "trend_h2", "6"),
    ("--trend-k", "1", "fbm-s", ("trend", "K"), 1, "trend_k", "1"),
    ("--trend-p", "2", "fbm-s", ("trend", "P"), 2, "trend_p", "2"),
    ("--scales", "1+2", "fbm-s", ("trend", "scales"), (1, 2), "trend_scales", "1+2"),
    ("--interaction", None, "fbm-s", ("interaction",), InteractionConfig(C1=3, C2=4, h3=5, K=1),
     "interaction", "1"),
    ("--c1", "3", "fbm-s", ("interaction", "C1"), 3, "c1", "3"),
    ("--c2", "4", "fbm-s", ("interaction", "C2"), 4, "c2", "4"),
    ("--h3", "5", "fbm-s", ("interaction", "h3"), 5, "h3", "5"),
    ("--inter-k", "1", "fbm-s", ("interaction", "K"), 1, "inter_k", "1"),
]


@pytest.mark.parametrize("variant", ["fbm-nl", "fbm-np", "fbm-s"])
def test_model_describe_every_flag_lands(capsys, monkeypatch, variant):
    built = []

    def spy(res, D):
        built.append(build_model_spec(res, D))
        return built[-1]

    monkeypatch.setattr(cli, "build_model_spec", spy)
    argv = ["model-describe", "--variant", variant, "--D", "2"]
    for flag, text, *_ in DESCRIBE_FLAGS:
        argv += [flag] if text is None else [flag, text]
    rc, stdout, _ = run(capsys, *argv)
    assert rc == 0
    spec = built[0]
    header = dict(kv.split("=") for kv in stdout.splitlines()[0].split(", "))
    assert header.pop("variant") == spec.variant == variant
    assert header.pop("D") == "2" and spec.D == 2
    for flag, _, reader, path, value, key, text in DESCRIBE_FLAGS:
        if reader in (None, variant):
            obj = spec
            for attr in path:
                obj = getattr(obj, attr)
            assert obj == value, flag
            assert header.pop(key) == text, flag
    assert header == {}  # and nothing else was written


@pytest.mark.parametrize("argv, prefix", [
    (("model-describe", "--T", "16", "--L", "6", "--variant", "fbm-s", "--trend-p", "2",
      "--scale", "2"), "--scale"),
    (("data-inspect", "--data", "{csv}", "--cach", "{tmp}/cache.fbmds"), "--cach"),
], ids=["scales", "cache-out"])
def test_flag_prefix_is_not_read_as_the_flag(capsys, tmp_path, periodic_csv, argv, prefix):
    argv = [a.format(csv=periodic_csv, tmp=tmp_path) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert f"error: unrecognized arguments: {prefix} " in err
    assert not (tmp_path / "cache.fbmds").exists()


def test_training_flag_defaults_are_the_train_config_defaults():
    want = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    train = {o.name: o.default for o in cli.TRAIN_OPTS}
    for flag, field in [("lr", "lr"), ("batch", "batch_size"), ("epochs", "epochs"),
                        ("patience", "patience"), ("seed", "seed")]:
        assert train[flag] == want[field], flag
    assert {o.name: o.default for o in cli.EVAL_OPTS}["batch"] == want["batch_size"]


def test_ratio_flag_defaults_are_the_split_spec_defaults():
    defaults = {o.name: o.default for o in cli.DATA_OPTS}
    want = SplitSpec("ratio")
    assert (defaults["train-ratio"], defaults["val-ratio"], defaults["test-ratio"]) == (
        want.train, want.val, want.test)
    assert SplitSpec.ratio() == want


@pytest.mark.parametrize("variant", VARIANTS)
def test_flag_defaults_build_the_spec_defaults(variant):
    res = {**{o.name: o.default for o in cli.MODEL_OPTS}, "variant": variant}
    assert build_model_spec(res, 7) == ModelSpec(variant=variant, T=336, L=96, D=7)


@pytest.mark.parametrize("flags, named", [
    (("--variant", "fbm-np", "--np-p", "2", "--np-h1", "0"), "h1=0"),
    (("--variant", "fbm-np", "--np-p", "2", "--np-k", "-2"), "K=-2"),
    (("--variant", "fbm-s", "--trend-p", "2", "--trend-backbone", "transformer",
      "--trend-k", "-1"), "K=-1"),
    (("--variant", "fbm-s", "--trend-p", "2", "--interaction", "--c1", "4", "--c2", "6",
      "--h3", "0"), "h3=0"),
    (("--variant", "fbm-s", "--trend-p", "2", "--interaction", "--c1", "4", "--c2", "6",
      "--inter-k", "-1"), "K=-1"),
], ids=["np-h1", "np-k", "trend-k", "h3", "inter-k"])
def test_model_describe_bad_width_or_stack_count_exits_1(capsys, flags, named):
    rc, out, err = run(capsys, "model-describe", "--T", "16", "--L", "6", *flags)
    assert rc == 1 and out == ""
    assert err.startswith("fbm: error:") and err.count("\n") == 1
    assert named in err and "closed form" not in err  # names the value, not a count


def test_unknown_trend_backbone_exits_1_naming_the_backbones(capsys):
    rc, out, err = run(capsys, "model-describe", "--variant", "fbm-s", "--trend-backbone", "rnn")
    assert rc == 1 and out == ""
    assert err == ("fbm: error: unknown trend backbone 'rnn'; "
                   "choose from ('linear', 'mlp', 'transformer')\n")
    help_text = next(o.help for o in cli.MODEL_OPTS if o.name == "trend-backbone")
    assert help_text.endswith("linear, mlp, transformer")


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fbm-s"])
def test_trend_backbone_is_ignored_by_a_variant_that_does_not_read_it(capsys, variant):
    argv = ("model-describe", "--variant", variant, "--T", "16", "--L", "4", "--D", "1")
    assert run(capsys, *argv, "--trend-backbone", "rnn") == run(capsys, *argv)


def _describe_flag(f):
    """argv for one model flag at a bounded value: small ints and kernel lists, each
    choice plus an unknown one, or a switch either way."""
    if f.type is bool:
        return st.sampled_from([[f"--{f.flag}"], [f"--no-{f.flag}"]])
    if f.flag == "variant":
        values = st.sampled_from([*VARIANTS, "fbm-x"])
    elif f.flag == "trend-backbone":
        values = st.sampled_from(BACKBONE_NAMES)
    elif f.type is tuple:
        values = st.lists(st.integers(-2, 8), max_size=3).map(lambda ks: "+".join(map(str, ks)))
    else:
        values = st.integers(-2, 64).map(str)
    return values.map(lambda v: [f"--{f.flag}", v])


@st.composite
def _describe_argv(draw):
    """model-describe with --D and each model flag either given or left out."""
    argv = ["model-describe"]
    if draw(st.booleans()):
        argv += ["--D", str(draw(st.integers(-2, 64)))]
    for f in SPEC_FIELDS:
        if f.flag and draw(st.booleans()):
            argv += draw(_describe_flag(f))
    return argv


def exits_0_or_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)  # any exception escaping main fails the example
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if rc == 0:
        assert errors == [], err.getvalue()
    else:
        assert rc in (1, 2, 3) and len(errors) == 1, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_describe_argv())
def test_model_describe_flag_sweep_exits_0_or_with_one_error_line(argv):
    exits_0_or_with_one_error_line(argv)


@st.composite
def _data_command_argv(draw):
    """spectrum, features or data-inspect with each option it takes given or left out: T
    from -2 to 64, odd ones too; a start or stride of 0 or below; a part or split it does not
    know; ratios that are NaN, infinite or negative; columns missing, repeated or empty."""
    cmd = draw(st.sampled_from(["spectrum", "features", "data-inspect"]))
    ratio = st.sampled_from(["0.6", "0.2", "0", "-0.2", "nan", "inf"])
    drawn = {"T": st.integers(-2, 64), "start": st.integers(-2, 400), "stride": st.integers(-2, 64),
             "part": st.sampled_from([*dat.PARTS, "all"]), "split": st.sampled_from(["ratio", "ett", "x"]),
             "train-ratio": ratio, "val-ratio": ratio, "test-ratio": ratio,
             "columns": st.sampled_from(["a", "b,a", "a,a", "zz", "", " , "])}
    argv = [cmd]
    for o in cli.COMMANDS[cmd][0]:
        if o.name in drawn and draw(st.booleans()):
            argv += [f"--{o.name}", str(draw(drawn[o.name]))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=_data_command_argv())
def test_data_command_flag_sweep_exits_0_or_with_one_error_line(stamped_csv, argv):
    out = [] if argv[0] == "data-inspect" else ["--out", str(stamped_csv.parent / "out.csv")]
    exits_0_or_with_one_error_line([*argv, "--data", str(stamped_csv), *out])


@pytest.fixture(scope="module")
def sweep_files(stamped_csv):
    """Paths the eval, weights and synth sweep draws: a tiny fbm-l and fbm-s trained on
    stamped_csv, a report, a CSV, a missing file, a directory, a missing parent and a name
    too long for the file system."""
    root = stamped_csv.parent
    for variant, extra in (("fbm-l", []), ("fbm-s", ["--trend-p", "2", "--trend-h1", "4",
                                                     "--trend-h2", "4"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--data", str(stamped_csv), "--variant", variant, "--T", "16",
                         "--L", "4", "--epochs", "1", "--out", str(root / variant), *extra]) == 0
    (root / "adir").mkdir()
    models = [root / "fbm-s" / "model.fbm", root / "fbm-l" / "model.fbm"]
    outs = [root / "out.csv", root / "adir", root / "missing" / "out.csv",
            root / ("x" * 300) / "out.csv"]
    return {"checkpoint": models + [root / "fbm-l" / "report.json", stamped_csv, root / "missing.fbm"],
            "out": outs, "predictions-out": outs}


@st.composite
def _model_command_argv(draw, files):
    """eval, weights or synth with each option it requires and each other one given or left
    out: a part it does not know; a batch or thread count from -2 to 64; split ratios that
    are NaN or negative; a case from 0 to 3 and a seed from -2 up; at most 2,000 windows or
    20,000 steps, so that nothing large is allocated; and each path drawn from `files`."""
    cmd = draw(st.sampled_from(["eval", "weights", "synth"]))
    ratio = st.sampled_from(["0.6", "0.2", "0", "-0.2", "nan"])
    count = st.integers(-2, 64)
    drawn = {"part": st.sampled_from([*dat.PARTS, "all"]), "batch": count, "threads": count,
             "split": st.sampled_from(["ratio", "ett", "x"]), "train-ratio": ratio,
             "val-ratio": ratio, "test-ratio": ratio, "columns": st.sampled_from(["a", "b,a", "zz"]),
             "case": st.sampled_from([1, 2, 0, 3]), "seed": st.integers(-2, 2**70),
             "windows": st.integers(-2, 2000), "length": st.integers(-2, 20000),
             **{name: st.sampled_from(paths) for name, paths in files.items()}}
    argv = [cmd]
    for o in cli.COMMANDS[cmd][0]:  # weights' default --out would write in the working directory
        if o.name in drawn and (o.required or o.name == "out" or draw(st.booleans())):
            argv += [f"--{o.name}", str(draw(drawn[o.name]))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_model_command_flag_sweep_exits_0_or_with_one_error_line(stamped_csv, sweep_files, data):
    argv = data.draw(_model_command_argv(sweep_files))
    exits_0_or_with_one_error_line([*argv, "--data", str(stamped_csv)] if argv[0] == "eval" else argv)


def test_model_describe_from_checkpoint(capsys, tmp_path, periodic_csv):
    out, _ = train_tiny(capsys, tmp_path, periodic_csv)
    rc, stdout, _ = run(capsys, "model-describe", "--checkpoint", str(out / "model.fbm"))
    assert rc == 0
    assert "fbm-l" in stdout
    assert str(48 * 24 * 12) in stdout


def test_model_describe_draws_and_reads_no_weight(capsys, monkeypatch, tmp_path):
    spec = ModelSpec(variant="fbm-s", T=48, L=12, D=3, trend=TrendConfig(backbone="linear", scales=(1,)),
                     interaction=InteractionConfig(C1=4, C2=6, h3=8, K=1))
    drawn = ForecastModel(spec, seed=0)
    checkpoint = tmp_path / "model.fbm"
    drawn.save(checkpoint)

    def refuse(*args):
        raise AssertionError("a weight drawn")

    monkeypatch.setattr(ad, "init_uniform", refuse)
    read = count_records_read(monkeypatch)
    described = []
    for argv in (("--variant", "fbm-s", "--T", "48", "--L", "12", "--D", "3", "--trend-backbone", "linear",
                  "--scales", "1", "--interaction", "--c1", "4", "--c2", "6", "--h3", "8", "--inter-k", "1"),
                 ("--checkpoint", str(checkpoint))):
        rc, stdout, err = run(capsys, "model-describe", *argv)
        assert rc == 0 and err == ""
        head, *rows = stdout.splitlines()
        assert head == spec.summary()
        assert [(name, int(count)) for name, count, _ in map(str.split, rows)] == drawn.describe()
        described.append(stdout)
    assert described[0] == described[1]
    assert read == []


# --- synth ------------------------------------------------------------------------------


def test_synth_case1_container(capsys, tmp_path):
    path = tmp_path / "case1.fbmw"
    rc, _, _ = run(capsys, "synth", "--case", "1", "--seed", "5", "--windows", "30",
                   "--out", str(path))
    assert rc == 0
    header, records = ad.load_tensors(path)
    named = dict(records)
    assert header["kind"] == "case1-pairs"
    assert named["X"].shape == (30, 1, 336)
    assert named["Y"].shape == (30, 1, 96)


def test_synth_case2_csv_loads(capsys, tmp_path):
    path = tmp_path / "case2.csv"
    rc, _, _ = run(capsys, "synth", "--case", "2", "--seed", "5", "--length", "500",
                   "--out", str(path))
    assert rc == 0
    x = np.loadtxt(path, skiprows=1)
    assert x.shape == (500,)
    # period-24 cosine
    np.testing.assert_allclose(x[24:], x[:-24], atol=1e-9)


def test_synth_case1_fewest_windows_splits(capsys, tmp_path):
    path = tmp_path / "case1.fbmw"
    rc, out, _ = run(capsys, "synth", "--case", "1", "--windows", "5", "--out", str(path))
    assert rc == 0 and out == f"wrote {path} (5 paired windows)\n"
    assert dict(ad.load_tensors(path)[1])["X"].shape == (5, 1, 336)


@pytest.mark.parametrize("length", ["0", "-5"])
def test_synth_case2_length_below_1_exits_1(capsys, tmp_path, length):
    path = tmp_path / "case2.csv"
    rc, out, err = run(capsys, "synth", "--case", "2", "--length", length, "--out", str(path))
    assert rc == 1 and out == ""
    assert err == f"fbm: error: --length must be >= 1, got {length}\n"
    assert not path.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed must be >= 0, got -1"),
    ("--windows", "-5", "--windows must be >= 5, got -5"),
    ("--windows", "0", "--windows must be >= 5, got 0"),
    ("--windows", "4", "--windows must be >= 5, got 4"),
], ids=["seed", "windows-negative", "windows-zero", "windows-too-few-to-split"])
def test_synth_case1_negative_seed_or_no_windows_exits_1(capsys, tmp_path, flag, value, message):
    path = tmp_path / "case1.fbmw"
    rc, out, err = run(capsys, "synth", "--case", "1", flag, value, "--out", str(path))
    assert rc == 1 and out == ""
    assert err == f"fbm: error: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
     "Unable to allocate 745. GiB for an array with shape (100000000000,)"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_an_allocation_that_is_refused_exits_1_with_one_line(capsys, monkeypatch, tmp_path, error,
                                                             line):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "make_case2", refuse)
    path = tmp_path / "case2.csv"
    rc, out, err = run(capsys, "synth", "--case", "2", "--length", "100000000000", "--out", str(path))
    assert rc == 1 and out == ""
    assert err == f"fbm: error: {line}\n"
    assert not path.exists()


def test_synth_bad_case(capsys, tmp_path):
    rc, _, err = run(capsys, "synth", "--case", "3", "--out", str(tmp_path / "x"))
    assert rc == 1
