"""Command-line front end: train, eval, and the export subcommands.

Every option can come from three places with fixed precedence: explicit
flags beat entries in a --manifest key=value file, which beat built-in
defaults. Manifest keys are exactly the long flag names without the
leading dashes. Reports and metrics go to stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 configuration, 2 data, 3 numeric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as dat
from . import fourier
from .autodiff import _UNDRAWN, _read, _read_header, save_tensors
from .errors import CheckpointError, ConfigError, DataError, FbmError, reading, refuse_directory
from .models import SPEC_FIELDS, ForecastModel, ModelSpec, instance_standardize, parse_text
from .train import (
    TrainConfig,
    evaluate,
    export_predictions,
    make_case1,
    make_case2,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class Opt:
    name: str
    type: type
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple = None
    min: int | None = None

    @property
    def attr(self):
        return self.name.replace("-", "_")

    def parse(self, text):
        """Value of flag or manifest text, read as checkpoint headers are (a
        switch as 0 or 1). Text that does not parse raises ArgumentTypeError,
        argparse's error for a bad flag value."""
        try:
            return parse_text(self.type, text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{text!r}, want {e}") from None


MODEL_OPTS = [
    Opt(f.flag, f.type, f.default, f.help, choices=f.choices)
    for f in SPEC_FIELDS
    if f.flag
]
SPEC_DEFAULTS = {o.name: o.default for o in MODEL_OPTS}

DATA_OPTS = [
    Opt("data", str, help="dataset: CSV file or .fbmds cache", required=True),
    Opt("columns", str, help="comma-separated value columns (default: all)"),
    Opt("split", str, "ratio", "chronological split rule", choices=("ratio", "ett")),
    Opt("train-ratio", float, dat.SplitSpec.train, "ratio split: train fraction"),
    Opt("val-ratio", float, dat.SplitSpec.val, "ratio split: validation fraction"),
    Opt("test-ratio", float, dat.SplitSpec.test, "ratio split: test fraction"),
]

# training flag -> (TrainConfig field it sets, help); the field gives type and default
TRAIN_FIELDS = {
    "lr": ("lr", "Adam learning rate"),
    "batch": ("batch_size", "batch size"),
    "epochs": ("epochs", "epoch budget"),
    "patience": ("patience", "early-stop patience on val MSE"),
    "seed": ("seed", "seed for init and shuffling"),
}

TRAIN_OPTS = DATA_OPTS + MODEL_OPTS + [
    Opt(flag, type(getattr(TrainConfig, f)), getattr(TrainConfig, f), help_text)
    for flag, (f, help_text) in TRAIN_FIELDS.items()
] + [
    Opt("out", str, ".", "output directory for model.fbm and report.json"),
    Opt("threads", int, 1, "worker threads for the val/test passes", min=1),
]

EVAL_OPTS = DATA_OPTS + [
    Opt("checkpoint", str, help="trained model file", required=True),
    Opt("part", str, "test", "which split to score", choices=dat.PARTS),
    Opt("batch", int, TrainConfig.batch_size,
        "batch size (match training for bit-identical metrics)", min=1),
    Opt("threads", int, 1, "worker threads for evaluation", min=1),
    Opt("predictions-out", str, help="also dump window_id,channel,step,y_true,y_pred CSV"),
]

FEATURES_OPTS = DATA_OPTS[:2] + [
    Opt("T", int, SPEC_DEFAULTS["T"], "window length"),
    Opt("start", int, 0, "window start index"),
    Opt("out", str, "features.csv", "output CSV (channel,n,k,value)"),
]

SPECTRUM_OPTS = DATA_OPTS + [
    Opt("T", int, SPEC_DEFAULTS["T"], "window length"),
    Opt("part", str, "train", "split whose windows are analyzed", choices=dat.PARTS),
    Opt("stride", int, 1, "window stride", min=1),
    Opt("out", str, "spectrum.csv", "output CSV (channel,k,mean_amp,lo95,hi95)"),
]

WEIGHTS_OPTS = [
    Opt("checkpoint", str, help="trained fbm-s model file", required=True),
    Opt("out", str, "weights.csv", "output CSV (n,k,value)"),
]

INSPECT_OPTS = DATA_OPTS[:2] + [
    Opt("cache-out", str, help="write a .fbmds cache of the series here"),
]

DESCRIBE_OPTS = MODEL_OPTS + [
    Opt("checkpoint", str, help="describe this model file instead of flags"),
    Opt("D", int, 7, "channel count (flag-built specs only)"),
]

SYNTH_OPTS = [
    Opt("case", int, help="1 (paired windows) or 2 (contiguous series)", required=True,
        choices=(1, 2)),
    Opt("seed", int, 0, "generator seed", min=0),
    Opt("out", str, help="output path (.fbmw pairs for case 1, CSV for case 2)", required=True),
    # 5 is the fewest windows whose default 0.6/0.2/0.2 split leaves every part one
    Opt("windows", int, 1000, "case 1: window count", min=5),
    Opt("length", int, 4000, "case 2: series length", min=1),
]


def _read_manifest(path, opts):
    by_name = {o.name: o for o in opts}
    out = {}
    with reading(path, ConfigError, "manifest") as f:
        lines = f.read().splitlines()
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_name:
            raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
        try:
            out[key] = by_name[key].parse(value)
        except argparse.ArgumentTypeError as e:
            raise ConfigError(f"{path}:{ln}: {key}={e}") from None
    return out


def _resolve(parser, args, opts):
    """flags > manifest > defaults; missing required options exit 1."""
    manifest = _read_manifest(args.manifest, opts) if args.manifest else {}
    res = {}
    for o in opts:
        v = getattr(args, o.attr)
        if v is None:
            v = manifest.get(o.name, o.default)
        if v is None and o.required:
            parser.print_usage(sys.stderr)
            raise ConfigError(f"missing required option --{o.name}")
        if o.choices and v not in o.choices:
            raise ConfigError(f"--{o.name} must be one of {o.choices}, got {v!r}")
        if o.min is not None and v < o.min:
            raise ConfigError(f"--{o.name} must be >= {o.min}, got {v}")
        res[o.name] = v
    return res


def _add_opts(parser, opts):
    parser.add_argument("--manifest", help="key=value file mirroring the flags")
    for o in opts:
        flag = f"--{o.name}"
        if o.type is bool:
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None, help=o.help
            )
        else:
            parser.add_argument(flag, type=o.parse, default=None, help=o.help)


# --- shared assembly ----------------------------------------------------------------


def build_model_spec(res, D):
    """Spec from resolved (already parsed) options; D is the dataset's channel count."""
    return ModelSpec.from_values(lambda f: D if f.flag is None else res[f.flag])


def _split_spec(res):
    if res["split"] == "ett":
        return dat.SplitSpec.ett_months()
    return dat.SplitSpec.ratio(res["train-ratio"], res["val-ratio"], res["test-ratio"])


def _load(res):
    """The raw series at --data; --columns picks a CSV's value columns."""
    names = res["columns"] and [c.strip() for c in res["columns"].split(",") if c.strip()]
    return dat.load(res["data"], names or None)


def prepare_windows(res, T, L):
    """Load and split, then z-score on that split's train range: (ds, ranges)."""
    spec = _split_spec(res)  # a bad split option exits before any data is read
    ds = _load(res)
    ranges = dat.split(ds, spec, T, L)
    return dat.zscore_apply(ds, dat.zscore_fit(ds, ranges.train)), ranges


# --- subcommands ----------------------------------------------------------------------


def cmd_train(res):
    cfg = TrainConfig(res["T"], res["L"], **{f: res[flag] for flag, (f, _) in TRAIN_FIELDS.items()})
    spec = build_model_spec(res, 1)  # every model option is checked before the data is read
    out = Path(res["out"])
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():  # found before any data is read, not after training
        raise ConfigError(f"cannot write {out}: {existing} is not a directory")
    for name in ("model.fbm", "report.json"):
        refuse_directory(out / name)
    ds, ranges = prepare_windows(res, cfg.T, cfg.L)
    model = ForecastModel(replace(spec, D=ds.D), seed=cfg.seed)
    source = dat.SlidingWindows(ds, ranges, cfg.T, cfg.L, cfg.batch_size)
    model, report = train(model, source, cfg, log=print, eval_threads=res["threads"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write {out}: {e.strerror or e}") from None
    model.save(out / "model.fbm")
    report.config["dataset"] = {"name": ds.name, "D": ds.D, "N": ds.N}
    report.save(out / "report.json")
    print(f"test mse {report.test['mse']:.6f}  mae {report.test['mae']:.6f}")
    print(f"wrote {out / 'model.fbm'} and {out / 'report.json'}")
    return 0


def cmd_eval(res):
    spec = ModelSpec.from_header(_read_header(res["checkpoint"]))  # the weights are read last
    T, L = spec.T, spec.L
    ds, ranges = prepare_windows(res, T, L)
    if ds.D != spec.D:
        raise ConfigError(f"dataset has D={ds.D} channels, checkpoint expects D={spec.D}")
    model = ForecastModel.load(res["checkpoint"], expected_spec=spec)
    batches = dat.iterate_batches(ds.values, getattr(ranges, res["part"]), T, L, res["batch"])
    if res["predictions-out"]:
        mse, mae = export_predictions(res["predictions-out"], model, batches, res["threads"])
    else:
        mse, mae = evaluate(model, batches, threads=res["threads"])
    print(json.dumps({"mse": mse, "mae": mae}))
    return 0


def cmd_features(res):
    T, start = res["T"], res["start"]
    fourier._check_window_length(T)  # before the data is read
    ds = _load(res)
    if not 0 <= start <= ds.N - T:
        raise ConfigError(f"window [{start}, {start + T}) outside series of length {ds.N}")
    X = ds.values[None, :, start : start + T]
    Xs = instance_standardize(X)[0][0]
    H_R, H_I = fourier.rdft_array(Xs)
    G = fourier.expand_array(H_R, H_I, fourier.build_bases(T), drop_dc=True)
    d, n, k = np.indices(G.shape)
    dat.write_csv(res["out"], "channel,n,k,value", [d, n, k + 1], [G])
    print(f"wrote {res['out']} ({'x'.join(map(str, G.shape))})")
    return 0


def cmd_spectrum(res):
    T, spec = res["T"], _split_spec(res)
    fourier._check_window_length(T)  # before the data is read
    ds = _load(res)
    ranges = dat.split(ds, spec, T, 1)
    starts = dat.window_starts(getattr(ranges, res["part"]), T, 0)[:: res["stride"]]
    amps = np.empty((len(starts), ds.D, T // 2))  # every window's bins 1..T/2, DC dropped
    for i in range(0, len(starts), 512):
        X = np.stack([ds.values[:, s : s + T] for s in starts[i : i + 512]])
        H_R, H_I = fourier.rdft_array(instance_standardize(X)[0])
        amps[i : i + 512] = fourier.amplitude_phase(H_R, H_I).amp[..., 1:]
    mean, lo, hi = fourier.amplitude_distribution(amps)
    d, k = np.indices(mean.shape)
    dat.write_csv(res["out"], "channel,k,mean_amp,lo95,hi95", [d, k + 1], [mean, lo, hi])
    print(f"wrote {res['out']} ({len(starts)} windows)")
    return 0


def cmd_weights(res):
    # seasonal.W is an fbm-s checkpoint's first record (the seasonal block runs first and
    # holds it alone), so the header and that record are all that is read
    with contextlib.closing(_read(res["checkpoint"])) as container:
        spec = ModelSpec.from_header(next(container))
        if spec.variant != "fbm-s":
            raise ConfigError(f"weights export needs an fbm-s checkpoint, got {spec.variant}")
        p = ForecastModel(spec, seed=_UNDRAWN).seasonal.W  # the record's name and shape
        name, W = next(container, ("none", np.empty(())))
    if name != p.name or W.shape != p.shape:
        raise CheckpointError(f"checkpoint's first tensor is {name}{W.shape}, not {p.name}{p.shape}")
    n, k = np.indices(W.shape)
    dat.write_csv(res["out"], "n,k,value", [n, k + 1], [W])
    print(f"wrote {res['out']} {W.shape}")
    return 0


def cmd_data_inspect(res):
    ds = _load(res)
    std = dat._channel_std(ds.values, ds.name)  # refused before any line is printed
    print(f"name: {ds.name}")
    print(f"channels: {ds.D}")
    print(f"timesteps: {ds.N}")
    if ds.timestamps is not None:
        try:
            print(f"samples/hour: {dat.samples_per_hour(ds)}")
        except DataError:
            pass
    print("channel      mean       std       min       max")
    v = ds.values
    for d in range(ds.D):
        print(
            f"{d:7d} {v[d].mean():9.4f} {std[d]:9.4f} {v[d].min():9.4f} {v[d].max():9.4f}"
        )
    if res["cache-out"]:
        dat.save_cache(res["cache-out"], ds)
        print(f"wrote {res['cache-out']}")
    return 0


def cmd_model_describe(res):
    if res["checkpoint"]:
        spec = ModelSpec.from_header(_read_header(res["checkpoint"]))  # its records are left unread
    else:
        spec = build_model_spec(res, res["D"])
    model = ForecastModel(spec, seed=_UNDRAWN)  # counted off the shapes: no weight is drawn
    print(spec.summary())
    for name, count in model.describe():
        print(f"{name:14s} {count:12d}  ({count / 1e6:.2f}M)")
    return 0


def cmd_synth(res):
    if res["case"] == 1:
        src = make_case1(res["seed"], windows=res["windows"])
        save_tensors(res["out"], [("X", src.X), ("Y", src.Y)],
                     header={"kind": "case1-pairs", "seed": str(res["seed"])})
        print(f"wrote {res['out']} ({res['windows']} paired windows)")
    else:
        ds = make_case2(res["seed"], length=res["length"])
        dat.write_csv(res["out"], "value", [], [ds.values[0]])
        print(f"wrote {res['out']} ({res['length']} steps)")
    return 0


# subcommand -> (options, help, handler)
COMMANDS = {
    "train": (TRAIN_OPTS, "fit a model and write checkpoint + report", cmd_train),
    "eval": (EVAL_OPTS, "score a checkpoint on one split", cmd_eval),
    "features": (FEATURES_OPTS, "dump one window's time-frequency tensor", cmd_features),
    "spectrum": (SPECTRUM_OPTS, "dump per-bin amplitude distribution across windows",
                 cmd_spectrum),
    "weights": (WEIGHTS_OPTS, "dump a seasonal filter matrix", cmd_weights),
    "data-inspect": (INSPECT_OPTS, "print dataset shape and per-channel stats",
                     cmd_data_inspect),
    "model-describe": (DESCRIBE_OPTS, "print per-block parameter counts", cmd_model_describe),
    "synth": (SYNTH_OPTS, "emit a synthetic diagnostic dataset", cmd_synth),
}


def build_parser():
    parser = _Parser(prog="fbm", description="frequency-basis forecasting toolkit",
                     allow_abbrev=False)  # a flag is read under its full name only
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    for name, (opts, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_opts(p, opts)
        p.set_defaults(_subparser=p)
    return parser


def main(argv=None):
    for stream in (sys.stdout, sys.stderr):  # a path prints as the bytes its file system holds
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="surrogateescape")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts, _, handler = COMMANDS[args.cmd]
        return handler(_resolve(args._subparser, args, opts))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except FbmError as e:
        print(f"fbm: error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
