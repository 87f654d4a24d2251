"""Model variants behind one forecasting interface.

Every variant shares the same outer pipeline: instance-standardize each
window per channel, analyze it into spectrum halves, drop the (now zero)
DC bin, map the time-frequency content to the horizon, then undo the
standardization. A variant is a set of named blocks (BLOCKS); its mapping
is the sum of their outputs over one blocks.Grid of the spectrum, and
components() returns those outputs one by one, for every variant:

  fbm-l   GridLinear: one linear map of the flattened grid, no bias
  fbm-nl  GridMLP: that map plus a bias, then two more layers, ReLU between
  fbm-np  one transformer trend scale: patch tokens -> attention -> head
  fbm-s   seasonal rolling filter + patched trend + masked interaction
  diag    DiagBlock: per-bin scaling of the spectrum halves (negative control)
  last    repeat the window's final value (toy baseline; reads the window)

No variant materializes the feature grid: every first layer reads the
interleaved spectrum z as z @ M, for a table M of basis rows and weights
that does not grow with the batch. Channel-independent variants share one
mapping across all D channels.

Standardization divides by max(sigma, 1e-5) rather than sqrt(var+eps):
the floor keeps zero-variance windows finite while leaving the mapping
exactly scale-equivariant for ordinary windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Layer, Tensor
from .blocks import (
    BACKBONES,
    DiagBlock,
    Grid,
    GridLinear,
    GridMLP,
    InteractionBlock,
    InteractionConfig,
    SeasonalBlock,
    TrendBlock,
    TrendConfig,
    _TrendScale,
    basis_rows,
    scale_grid,
)
from .errors import CheckpointError, ConfigError
from .fourier import _check_window_length, rdft_array

STD_FLOOR = 1e-5


@dataclass(frozen=True)
class _LastValue(Layer):
    """last: the standardized window's final value over the horizon, no parameters."""

    L: int

    def forward(self, Xs):
        return Tensor(np.broadcast_to(Xs[..., -1:], Xs.shape[:2] + (self.L,)).copy())


# each variant's named blocks, built in parameter order from (rng, spec, the
# spectrum grid's rows); a variant of one block keys it by the variant's name
BLOCKS = {
    "fbm-l": lambda rng, s, rows: {"fbm-l": GridLinear(rng, rows, s.L, "linear")},
    "fbm-nl": lambda rng, s, rows: {"fbm-nl": GridMLP(rng, rows, s.nl_h1, s.nl_h2, s.L)},
    "fbm-np": lambda rng, s, rows: {"fbm-np": _TrendScale(rng, s.T, s.T // 2, s.L, s.D, s.np_cfg, "np",
                                                          use_relu=False)},
    "fbm-s": lambda rng, s, rows: {
        "seasonal": SeasonalBlock(s.T, s.L),
        "trend": TrendBlock(rng, s.T, s.L, s.D, s.trend),
        **({"interaction": InteractionBlock(rng, s.T, s.L, s.D, s.interaction)}
           if s.interaction is not None else {}),
    },
    "diag": lambda rng, s, rows: {"diag": DiagBlock(s.T, s.L)},
    "last": lambda rng, s, rows: {"last": _LastValue(s.L)},
}

VARIANTS = tuple(BLOCKS)


# the default of each config; spec fields left unset keep its values
CONFIGS = {
    "np_cfg": TrendConfig(backbone="transformer", h2=256),  # fbm-np: one transformer scale
    "trend": TrendConfig(),
    "interaction": InteractionConfig(),
}


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    T: int
    L: int
    D: int
    standardize: bool = True
    nl_h1: int = 1440
    nl_h2: int = 1440
    np_cfg: TrendConfig = CONFIGS["np_cfg"]
    trend: TrendConfig = CONFIGS["trend"]
    interaction: InteractionConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        _check_window_length(self.T)
        if self.L < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.L}")
        if self.D < 1:
            raise ConfigError(f"channel count must be >= 1, got {self.D}")
        if self.variant == "fbm-nl" and (self.nl_h1 < 1 or self.nl_h2 < 1):
            raise ConfigError("fbm-nl hidden widths must be positive")
        np_cfg, pin = self.np_cfg, CONFIGS["np_cfg"]  # its header has only P/h1/h2/K
        if (np_cfg.backbone, np_cfg.scales) != (pin.backbone, pin.scales):
            raise ConfigError(f"fbm-np config needs backbone={pin.backbone!r} and "
                              f"scales={pin.scales}: {np_cfg}")
        # the grid layouts, which need no D: the blocks' own checks, before any build
        if self.variant == "fbm-np":
            np_cfg.patch_layout(self.T, self.T // 2)
        elif self.variant == "fbm-s":
            for kernel in self.trend.scales:
                self.trend.patch_layout(*scale_grid(self.T, kernel))
            if self.interaction is not None:
                self.interaction.check_masks(self.T, self.L)

    def to_header(self):
        """Checkpoint header: the fields the variant reads, in table order."""
        h = {}
        for f in _fields_of(self.variant):
            head = getattr(self, f.path[0])
            if len(f.path) == 1:
                h[f.key] = f.text(head is not None if f.path[0] in CONFIGS else head)
            elif head is not None:  # a switched-off config writes no fields
                h[f.key] = f.text(getattr(head, f.path[1]))
        return h

    @classmethod
    def from_header(cls, h):
        def value(f):
            if f.key not in h:
                if f.type is bool:
                    return f.default  # headers may omit a switch left at its default
                raise CheckpointError(f"checkpoint header missing field {f.key!r}")
            try:
                return parse_text(f.type, h[f.key])
            except ValueError as e:
                raise CheckpointError(
                    f"checkpoint header field {f.key}={h[f.key]!r}: want {e}"
                ) from None

        return cls.from_values(value)

    @classmethod
    def from_values(cls, value):
        """Spec from value(field), asked in table order for each field the
        variant reads; the fields of a switched-off config are not asked."""
        kw, configs, off = {}, {}, set()
        for f in _fields_of(value(SPEC_FIELDS[0])):
            head = f.path[0]
            if len(f.path) == 2:
                if head not in off:
                    configs.setdefault(head, {})[f.path[1]] = value(f)
            elif head in CONFIGS:
                if not value(f):
                    off.add(head)
            else:
                kw[head] = value(f)
        kw.update((head, replace(CONFIGS[head], **sub)) for head, sub in configs.items())
        return cls(**kw)

    def summary(self):
        return ", ".join(f"{k}={v}" for k, v in self.to_header().items())


# --- the spec field table -------------------------------------------------------


def _parse_scales(text):
    return tuple(int(p) for p in text.replace(",", "+").split("+") if p != "")


def _parse_switch(text):
    if text not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {text!r}")
    return text == "1"


# header text of a value and back, for the types that str() and type() do not fit;
# a parser raises ValueError on text it cannot read
_TEXT = {bool: lambda v: "1" if v else "0", tuple: lambda v: "+".join(str(s) for s in v)}
_PARSE = {bool: _parse_switch, tuple: _parse_scales}
_WANT = {bool: "0 or 1", tuple: "kernels like 1+2+4"}


def parse_text(kind, text):
    """Value of type `kind` from flag, manifest or header text; text that
    does not parse raises ValueError whose message is what `kind` wants."""
    try:
        return _PARSE.get(kind, kind)(text)
    except ValueError:
        raise ValueError(_WANT.get(kind, kind.__name__)) from None


@dataclass(frozen=True)
class SpecField:
    """One ModelSpec field: CLI flag and manifest key (None: the data sets
    it), header key, attribute path, and the variant that reads it (None:
    all). A path of one CONFIGS name is the on/off switch of that config."""

    flag: str | None
    key: str
    path: tuple
    variant: str | None
    help: str = ""
    type: type = int
    default: object = None  # None: ModelSpec's default or its config's; a switch is off

    def __post_init__(self):
        if self.default is None:
            head = self.path[0]
            if len(self.path) == 2:
                default = getattr(CONFIGS[head], self.path[1])
            else:
                default = ModelSpec.__dataclass_fields__[head].default
                if head in CONFIGS:
                    default = default is not None
            object.__setattr__(self, "default", default)

    def text(self, value):
        return _TEXT.get(self.type, str)(value)


SPEC_FIELDS = (
    SpecField("variant", "variant", ("variant",), None,
              f"model variant, one of {', '.join(VARIANTS)}", str, "fbm-l"),
    SpecField("T", "T", ("T",), None, "look-back window length (even)", default=336),
    SpecField("L", "L", ("L",), None, "forecast horizon", default=96),
    SpecField(None, "D", ("D",), None),
    SpecField("standardize", "standardize", ("standardize",), None,
              "instance-standardize windows", bool),
    SpecField("nl-h1", "nl_h1", ("nl_h1",), "fbm-nl", "fbm-nl first hidden width"),
    SpecField("nl-h2", "nl_h2", ("nl_h2",), "fbm-nl", "fbm-nl second hidden width"),
    SpecField("np-p", "np_p", ("np_cfg", "P"), "fbm-np", "fbm-np patches per window"),
    SpecField("np-h1", "np_h1", ("np_cfg", "h1"), "fbm-np", "fbm-np token width"),
    SpecField("np-ffn", "np_h2", ("np_cfg", "h2"), "fbm-np", "fbm-np attention FFN width"),
    SpecField("np-k", "np_k", ("np_cfg", "K"), "fbm-np", "fbm-np attention stacks"),
    SpecField("trend-backbone", "trend_backbone", ("trend", "backbone"), "fbm-s",
              f"fbm-s trend backbone, one of {', '.join(BACKBONES)}", str),
    SpecField("trend-h1", "trend_h1", ("trend", "h1"), "fbm-s", "fbm-s trend patch projection width"),
    SpecField("trend-h2", "trend_h2", ("trend", "h2"), "fbm-s", "fbm-s trend hidden/FFN width"),
    SpecField("trend-k", "trend_k", ("trend", "K"), "fbm-s",
              "fbm-s trend attention stacks (transformer)"),
    SpecField("trend-p", "trend_p", ("trend", "P"), "fbm-s", "fbm-s trend patches per window"),
    SpecField("scales", "trend_scales", ("trend", "scales"), "fbm-s",
              "fbm-s downsample kernels, e.g. 1+2+4", tuple),
    SpecField("interaction", "interaction", ("interaction",), "fbm-s",
              "fbm-s: enable the cross-channel block", bool),
    SpecField("c1", "c1", ("interaction", "C1"), "fbm-s", "interaction: trailing input steps used"),
    SpecField("c2", "c2", ("interaction", "C2"), "fbm-s",
              "interaction: horizon steps the block may write"),
    SpecField("h3", "h3", ("interaction", "h3"), "fbm-s", "interaction token width"),
    SpecField("inter-k", "inter_k", ("interaction", "K"), "fbm-s", "interaction attention stacks"),
)


def _fields_of(variant):
    return [f for f in SPEC_FIELDS if f.variant in (None, variant)]


def instance_standardize(X):
    """Per-window, per-channel (x - mean) / max(sigma, floor)."""
    mu = X.mean(axis=-1, keepdims=True)
    sd = np.maximum(X.std(axis=-1, keepdims=True), STD_FLOOR)
    return (X - mu) / sd, mu, sd


class ForecastModel:
    def __init__(self, spec, seed=0, zero_weights=False):
        self.spec = spec
        self._rows = basis_rows(spec.T, spec.T)  # the spectrum grid's rows
        # load passes ad._UNDRAWN, and zero_weights builds so: the records or zeros
        # replace every weight, so none is drawn
        rng = ad._UNDRAWN if zero_weights or seed is ad._UNDRAWN else np.random.default_rng(seed)
        self.blocks = BLOCKS[spec.variant](rng, spec, self._rows)
        # the weights export and the benchmark's tracer read these two by name
        self.seasonal, self.trend = self.blocks.get("seasonal"), self.blocks.get("trend")
        self.params = [p for blk in self.blocks.values() for p in blk.params()]
        if zero_weights:
            for p in self.params:
                if not p.name.endswith((".gamma",)):
                    p.value = np.zeros_like(p.value)

    # --- forward -----------------------------------------------------------

    def _standardized(self, X):
        """Checked raw windows f64[B, D, T] -> (standardized windows, mu, sd);
        mu 0 and sd 1 when the spec does not standardize."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[1] != self.spec.D or X.shape[2] != self.spec.T:
            raise ConfigError(
                f"input shape {X.shape} does not match spec "
                f"(B, D={self.spec.D}, T={self.spec.T})"
            )
        if self.spec.standardize:
            return instance_standardize(X)
        return X, np.zeros(X.shape[:2] + (1,)), np.ones(X.shape[:2] + (1,))

    def _pass(self, X):
        """Raw windows f64[B, D, T] -> ({block name: its Tensor[B, D, L] output
        before de-standardization}, mu, sd)."""
        x, mu, sd = self._standardized(X)
        if self.spec.variant != "last":  # last reads the window; every other block, its spectrum
            H_R, H_I = rdft_array(x)
            x = Grid.spectrum(Tensor(H_R[..., 1:]), Tensor(H_I[..., 1:]), self._rows)
        return {name: blk.forward(x) for name, blk in self.blocks.items()}, mu, sd

    def forward(self, X):
        """X: f64[B, D, T] raw windows -> Tensor[B, D, L] predictions."""
        outs, mu, sd = self._pass(X)
        out = reduce(ad.add, outs.values())
        return ad.add(ad.mul(out, Tensor(sd)), Tensor(mu))

    def components(self, X):
        """Each block's output before de-standardization, plus the
        standardization state; summing the outputs in block order, times sd
        plus mu, reproduces forward(X) bit for bit."""
        with ad.no_grad():
            outs, mu, sd = self._pass(X)
        return {name: out.value for name, out in outs.items()}, mu, sd

    def predict(self, X):
        with ad.no_grad():
            return self.forward(X).value

    # --- bookkeeping ---------------------------------------------------------

    def param_count(self):
        return sum(p.size for p in self.params)

    def describe(self):
        """(block name, parameter count) rows followed by the total."""
        rows = [(name, sum(p.size for p in blk.params())) for name, blk in self.blocks.items()]
        return rows + [("total", self.param_count())]

    def save(self, path):
        ad.save_tensors(path, [(p.name, p.value) for p in self.params],
                        header=self.spec.to_header())

    @classmethod
    def load(cls, path, expected_spec=None):
        header, records = ad.load_tensors(path)
        spec = ModelSpec.from_header(header)
        if expected_spec is not None and spec.to_header() != expected_spec.to_header():
            raise CheckpointError(
                "checkpoint spec does not match requested spec:\n"
                f"  checkpoint: {spec.summary()}\n"
                f"  requested:  {expected_spec.summary()}"
            )
        model = cls(spec, seed=ad._UNDRAWN)
        if len(records) != len(model.params):
            raise CheckpointError(
                f"checkpoint holds {len(records)} tensors, model needs {len(model.params)}"
            )
        for p, (name, arr) in zip(model.params, records):
            if p.name != name or p.shape != arr.shape:
                raise CheckpointError(
                    f"checkpoint tensor {name}{arr.shape} does not match "
                    f"parameter {p.name}{p.shape}"
                )
            p.value = arr
            p._owns = True  # no caller holds a record, so the first step writes it in place
            p.settle()  # a grid weight is held: its table built once, its steps left to the first step
        return model

