"""Command-line front end: train, eval, and the export subcommands.

Every option can come from three places with fixed precedence: explicit
flags beat entries in a --manifest key=value file, which beat built-in
defaults. Manifest keys are exactly the long flag names without the
leading dashes. Reports and metrics go to stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 configuration, 2 data, 3 numeric.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as dat
from . import fourier
from .autodiff import _MAGIC
from .errors import ConfigError, DataError, FbmError
from .models import SPEC_FIELDS, ForecastModel, ModelSpec, instance_standardize
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


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str
    type: type
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple = None

    @property
    def attr(self):
        return self.name.replace("-", "_")


MODEL_OPTS = [
    Opt(f.flag, str if f.type is tuple else f.type, f.default, f.help, choices=f.choices)
    for f in SPEC_FIELDS
    if f.flag
]
SPEC_DEFAULTS = {o.name: o.default for o in MODEL_OPTS}

DATA_OPTS = [
    Opt("data", str, help="dataset: CSV file or .fbmds cache", required=True),
    Opt("columns", str, help="comma-separated value columns (default: all)"),
    Opt("split", str, "ratio", "chronological split rule", choices=("ratio", "ett")),
    Opt("train-ratio", float, 0.65, "ratio split: train fraction"),
    Opt("val-ratio", float, 0.15, "ratio split: validation fraction"),
    Opt("test-ratio", float, 0.2, "ratio split: test fraction"),
]

TRAIN_OPTS = DATA_OPTS + MODEL_OPTS + [
    Opt("lr", float, 1e-4, "Adam learning rate"),
    Opt("batch", int, 32, "batch size"),
    Opt("epochs", int, 30, "epoch budget"),
    Opt("patience", int, 5, "early-stop patience on val MSE"),
    Opt("seed", int, 0, "seed for init and shuffling"),
    Opt("out", str, ".", "output directory for model.fbm and report.json"),
    Opt("threads", int, 1, "worker threads for the val/test passes"),
]

EVAL_OPTS = DATA_OPTS + [
    Opt("checkpoint", str, help="trained model file", required=True),
    Opt("part", str, "test", "which split to score", choices=("train", "val", "test")),
    Opt("batch", int, 32, "batch size (match training for bit-identical metrics)"),
    Opt("threads", int, 1, "worker threads for evaluation"),
    Opt("predictions-out", str, help="also dump window_id,channel,step,y_true,y_pred CSV"),
]

FEATURES_OPTS = DATA_OPTS[:2] + [
    Opt("T", int, SPEC_DEFAULTS["T"], "window length"),
    Opt("start", int, 0, "window start index"),
    Opt("out", str, "features.csv", "output CSV (channel,n,k,value)"),
]

SPECTRUM_OPTS = DATA_OPTS + [
    Opt("T", int, SPEC_DEFAULTS["T"], "window length"),
    Opt("part", str, "train", "split whose windows are analyzed", choices=("train", "val", "test")),
    Opt("stride", int, 1, "window stride"),
    Opt("out", str, "spectrum.csv", "output CSV (channel,k,mean_amp,lo95,hi95)"),
]

WEIGHTS_OPTS = [
    Opt("checkpoint", str, help="trained fbm-s model file", required=True),
    Opt("out", str, "weights.csv", "output CSV (n,k,value)"),
]

INSPECT_OPTS = DATA_OPTS + [
    Opt("cache-out", str, help="write a normalized .fbmds cache here"),
    Opt("T", int, SPEC_DEFAULTS["T"], "window length (cache stats split)"),
    Opt("L", int, SPEC_DEFAULTS["L"], "horizon (cache stats split)"),
]

DESCRIBE_OPTS = MODEL_OPTS + [
    Opt("checkpoint", str, help="describe this model file instead of flags"),
    Opt("D", int, 7, "channel count (flag-built specs only)"),
]

SYNTH_OPTS = [
    Opt("case", int, help="1 (paired windows) or 2 (contiguous series)", required=True),
    Opt("seed", int, 0, "generator seed"),
    Opt("out", str, help="output path (.fbmw pairs for case 1, CSV for case 2)", required=True),
    Opt("windows", int, 1000, "case 1: window count"),
    Opt("length", int, 4000, "case 2: series length"),
]


def _read_manifest(path, opts):
    by_name = {o.name: o for o in opts}
    out = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read manifest: {e}") from None
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
        o = by_name[key]
        try:
            out[key] = _bool(value) if o.type is bool else o.type(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{ln}: {key}={value!r} is not a valid {o.type.__name__}"
            ) from None
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
            parser.add_argument(flag, type=o.type, default=None, help=o.help)


# --- shared assembly ----------------------------------------------------------------


def build_model_spec(res, D):
    """Spec from resolved options; D is the dataset's channel count."""

    def value(f):
        v = D if f.flag is None else res[f.flag]
        if not isinstance(v, str):
            return v
        try:
            return f.parse(v)  # text as in headers, e.g. 1+2+4
        except ValueError:
            raise ConfigError(f"cannot parse --{f.flag} {v!r} (want {f.want})") from None

    return ModelSpec.from_values(value)


def _split_spec(res):
    if res["split"] == "ett":
        return dat.SplitSpec.ett_months()
    return dat.SplitSpec.ratio(res["train-ratio"], res["val-ratio"], res["test-ratio"])


def _columns(res):
    if res.get("columns"):
        return [c.strip() for c in res["columns"].split(",") if c.strip()]
    return None


def _is_container(path):
    try:
        with open(path, "rb") as f:
            return f.read(len(_MAGIC)) == _MAGIC
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None


def load_any(res):
    """(dataset, stats-or-None); CSVs come back raw, caches normalized."""
    path = res["data"]
    if _is_container(path):
        ds, stats = dat.load_cache(path)
        return ds, stats
    return dat.load_csv(path, value_columns=_columns(res)), None


def prepare_windows(res, T, L):
    """Load, split, normalize: (normalized ds, stats, ranges)."""
    ds, stats = load_any(res)
    ranges = dat.split(ds, _split_spec(res), T, L)
    if stats is None:
        stats = dat.zscore_fit(ds, ranges.train)
        ds = dat.zscore_apply(ds, stats)
    return ds, stats, ranges


# --- subcommands ----------------------------------------------------------------------


def cmd_train(parser, args):
    res = _resolve(parser, args, TRAIN_OPTS)
    T, L = res["T"], res["L"]
    ds, stats, ranges = prepare_windows(res, T, L)
    spec = build_model_spec(res, ds.D)
    model = ForecastModel(spec, seed=res["seed"])
    source = dat.SlidingWindows(ds, ranges, T, L, res["batch"])
    cfg = TrainConfig(
        T=T,
        L=L,
        epochs=res["epochs"],
        patience=res["patience"],
        lr=res["lr"],
        batch_size=res["batch"],
        seed=res["seed"],
    )
    model, report = train(model, source, cfg, log=print, eval_threads=res["threads"])
    out = Path(res["out"])
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.fbm")
    report.config["dataset"] = {"name": ds.name, "D": ds.D, "N": ds.N}
    report.save(out / "report.json")
    print(f"test mse {report.test['mse']:.6f}  mae {report.test['mae']:.6f}")
    print(f"wrote {out / 'model.fbm'} and {out / 'report.json'}")
    return 0


def cmd_eval(parser, args):
    res = _resolve(parser, args, EVAL_OPTS)
    model = ForecastModel.load(res["checkpoint"])
    T, L = model.spec.T, model.spec.L
    ds, stats, ranges = prepare_windows(res, T, L)
    if ds.D != model.spec.D:
        raise ConfigError(
            f"dataset has D={ds.D} channels, checkpoint expects D={model.spec.D}"
        )
    segment = getattr(ranges, res["part"])
    batches = lambda: dat.iterate_batches(ds.values, segment, T, L, res["batch"])
    res_mse, res_mae = evaluate(model, batches(), threads=res["threads"])
    if res["predictions-out"]:
        export_predictions(res["predictions-out"], model, batches())
    print(json.dumps({"mse": res_mse, "mae": res_mae}))
    return 0


def cmd_features(parser, args):
    res = _resolve(parser, args, FEATURES_OPTS)
    ds, _ = load_any(res)
    T, start = res["T"], res["start"]
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


def cmd_spectrum(parser, args):
    res = _resolve(parser, args, SPECTRUM_OPTS)
    T = res["T"]
    ds, _ = load_any(res)
    ranges = dat.split(ds, _split_spec(res), T, 1)
    a, b = getattr(ranges, res["part"])
    starts = np.arange(a, b - T + 1, res["stride"])
    amps = []
    for i in range(0, len(starts), 512):
        chunk = starts[i : i + 512]
        X = np.stack([ds.values[:, s : s + T] for s in chunk])
        H_R, H_I = fourier.rdft_array(instance_standardize(X)[0])
        spec = fourier.Spectrum(real=H_R, imag=H_I, T=T)
        amps.append(fourier.amplitude_phase(spec).amp[..., 1:])  # drop DC
    mean, lo, hi = fourier.amplitude_distribution(np.concatenate(amps))
    d, k = np.indices(mean.shape)
    dat.write_csv(res["out"], "channel,k,mean_amp,lo95,hi95", [d, k + 1], [mean, lo, hi])
    print(f"wrote {res['out']} ({len(starts)} windows)")
    return 0


def cmd_weights(parser, args):
    res = _resolve(parser, args, WEIGHTS_OPTS)
    model = ForecastModel.load(res["checkpoint"])
    if model.spec.variant != "fbm-s":
        raise ConfigError(
            f"weights export needs an fbm-s checkpoint, got {model.spec.variant}"
        )
    W = model.seasonal.W.value
    n, k = np.indices(W.shape)
    dat.write_csv(res["out"], "n,k,value", [n, k + 1], [W])
    print(f"wrote {res['out']} {W.shape}")
    return 0


def cmd_data_inspect(parser, args):
    res = _resolve(parser, args, INSPECT_OPTS)
    ds, stats = load_any(res)
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
            f"{d:7d} {v[d].mean():9.4f} {v[d].std():9.4f} {v[d].min():9.4f} {v[d].max():9.4f}"
        )
    if res["cache-out"]:
        if stats is None:
            ranges = dat.split(ds, _split_spec(res), res["T"], res["L"])
            stats = dat.zscore_fit(ds, ranges.train)
            ds = dat.zscore_apply(ds, stats)
        dat.save_cache(res["cache-out"], ds, stats)
        print(f"wrote {res['cache-out']}")
    return 0


def cmd_model_describe(parser, args):
    res = _resolve(parser, args, DESCRIBE_OPTS)
    if res["checkpoint"]:
        model = ForecastModel.load(res["checkpoint"])
    else:
        model = ForecastModel(build_model_spec(res, res["D"]), seed=0)
    print(model.spec.summary())
    for name, count in model.describe():
        print(f"{name:14s} {count:12d}  ({count / 1e6:.2f}M)")
    return 0


def cmd_synth(parser, args):
    res = _resolve(parser, args, SYNTH_OPTS)
    if res["case"] == 1:
        src = make_case1(res["seed"], windows=res["windows"])
        from . import autodiff as ad

        ad.save_tensors(
            res["out"],
            [("X", src.X), ("Y", src.Y)],
            header={"kind": "case1-pairs", "seed": str(res["seed"])},
        )
        print(f"wrote {res['out']} ({res['windows']} paired windows)")
    elif res["case"] == 2:
        ds = make_case2(res["seed"], length=res["length"])
        dat.write_csv(res["out"], "value", [], [ds.values[0]])
        print(f"wrote {res['out']} ({res['length']} steps)")
    else:
        raise ConfigError(f"--case must be 1 or 2, got {res['case']}")
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
    parser = _Parser(prog="fbm", description="frequency-basis forecasting toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    for name, (opts, help_text, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_opts(p, opts)
        p.set_defaults(_subparser=p, _handler=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args._handler(args._subparser, args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except FbmError as e:
        print(f"fbm: error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
