"""Model variants behind one forecasting interface.

Every variant shares the same outer pipeline: instance-standardize each
window per channel, analyze it into spectrum halves, drop the (now zero)
DC bin, map the time-frequency content to the horizon, then undo the
standardization. Variants differ only in the mapping:

  fbm-l   one linear map from the flattened feature grid, no bias
  fbm-nl  three fully connected layers, ReLU after the first two
  fbm-np  one transformer trend scale: patch tokens -> attention -> head
  fbm-s   seasonal rolling filter + patched trend + masked interaction
  diag    per-bin scaling of the spectrum halves (negative control)
  last    repeat the window's final value (toy sanity baseline)

fbm-l / fbm-nl never materialize the feature grid: their first layer is
applied to the spectrum through blocks.spectral_map, which is
algebraically the same linear map but keeps the per-batch work at
spectrum size. Channel-independent variants share one mapping across all
D channels.

Standardization divides by max(sigma, 1e-5) rather than sqrt(var+eps):
the floor keeps zero-variance windows finite while leaving the mapping
exactly scale-equivariant for ordinary windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .blocks import (
    BACKBONES,
    InteractionBlock,
    InteractionConfig,
    SeasonalBlock,
    TrendBlock,
    TrendConfig,
    _TrendScale,
    basis_windows,
    spectral_map,
)
from .errors import CheckpointError, ConfigError
from .fourier import build_bases, expand_array, rdft_array

VARIANTS = ("fbm-l", "fbm-nl", "fbm-np", "fbm-s", "diag", "last")

STD_FLOOR = 1e-5


@dataclass(frozen=True)
class NpConfig:
    backbone = "transformer"  # not a field: fbm-np is one transformer trend scale

    P: int = 14
    h1: int = 128
    h2: int = 256  # FFN width inside the stacks
    K: int = 3


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    T: int
    L: int
    D: int
    standardize: bool = True
    nl_h1: int = 1440
    nl_h2: int = 1440
    np_cfg: NpConfig = field(default_factory=NpConfig)
    trend: TrendConfig = field(default_factory=TrendConfig)
    interaction: InteractionConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.T < 4 or self.T % 2:
            raise ConfigError(f"window length must be even and >= 4, got {self.T}")
        if self.L < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.L}")
        if self.D < 1:
            raise ConfigError(f"channel count must be >= 1, got {self.D}")
        if self.variant == "fbm-nl" and (self.nl_h1 < 1 or self.nl_h2 < 1):
            raise ConfigError("fbm-nl hidden widths must be positive")

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
                return f.parse(h[f.key])
            except ValueError:
                raise CheckpointError(
                    f"checkpoint header field {f.key}={h[f.key]!r}: want {f.want}"
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
        kw.update((head, CONFIGS[head](**sub)) for head, sub in configs.items())
        return cls(**kw)

    def summary(self):
        return ", ".join(f"{k}={v}" for k, v in self.to_header().items())


# --- the spec field table -------------------------------------------------------

CONFIGS = {"np_cfg": NpConfig, "trend": TrendConfig, "interaction": InteractionConfig}


def _parse_scales(text):
    return tuple(int(p) for p in str(text).replace(",", "+").split("+") if p != "")


def _parse_switch(text):
    if text not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {text!r}")
    return text == "1"


# header text of a value and back, for the types that str() and type() do not fit;
# a parser raises ValueError on text it cannot read
_TEXT = {bool: lambda v: "1" if v else "0", tuple: lambda v: "+".join(str(s) for s in v)}
_PARSE = {bool: _parse_switch, tuple: _parse_scales}
_WANT = {bool: "0 or 1", tuple: "kernels like 1+2+4"}


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
    default: object = None  # None: the dataclass default; a switch is off
    choices: tuple | None = None

    def __post_init__(self):
        if self.default is None:
            owner = CONFIGS[self.path[0]] if len(self.path) == 2 else ModelSpec
            default = owner.__dataclass_fields__[self.path[-1]].default
            if len(self.path) == 1 and self.path[0] in CONFIGS:
                default = default is not None
            object.__setattr__(self, "default", default)

    def text(self, value):
        return _TEXT.get(self.type, str)(value)

    def parse(self, text):
        """Value of header (or flag) text; ValueError when it does not parse."""
        return _PARSE.get(self.type, self.type)(text)

    @property
    def want(self):
        """What parse() accepts, for error messages."""
        return _WANT.get(self.type, self.type.__name__)


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
              "fbm-s trend backbone", str, choices=BACKBONES),
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
        rng = np.random.default_rng(seed)
        T, L, K = spec.T, spec.L, spec.T // 2
        self._bases = build_bases(T)
        self.params = []
        self.blocks = {}

        v = spec.variant
        if v == "fbm-l":
            # one weight slab per bin: W[k, n, v]; no bias, so the exact
            # parameter count is (T * T/2) * L
            self.w = Parameter(ad.init_uniform(rng, (K, T, L), T * K), "linear.w")
            self._windows = basis_windows(T, 1)
            self.params += [self.w]
        elif v == "fbm-nl":
            h1, h2 = spec.nl_h1, spec.nl_h2
            self.w1 = Parameter(ad.init_uniform(rng, (K, T, h1), T * K), "fc1.w")
            self.b1 = Parameter(np.zeros(h1), "fc1.b")
            self.w2 = Parameter(ad.init_uniform(rng, (h1, h2), h1), "fc2.w")
            self.b2 = Parameter(np.zeros(h2), "fc2.b")
            self.w3 = Parameter(ad.init_uniform(rng, (h2, L), h2), "fc3.w")
            self.b3 = Parameter(np.zeros(L), "fc3.b")
            self._windows = basis_windows(T, 1)
            self.params += [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]
        elif v == "fbm-np":
            self.np_scale = _TrendScale(rng, T, K, L, spec.D, spec.np_cfg, "np", use_relu=False)
            self.params += self.np_scale.params()
        elif v == "fbm-s":
            self.seasonal = SeasonalBlock(T, L)
            self.trend = TrendBlock(rng, T, L, spec.D, spec.trend)
            self.params += self.seasonal.params()
            self.params += self.trend.params()
            self.blocks["seasonal"] = self.seasonal
            self.blocks["trend"] = self.trend
            if spec.interaction is not None:
                self.inter = InteractionBlock(rng, T, L, spec.D, spec.interaction)
                self.params += self.inter.params()
                self.blocks["interaction"] = self.inter
            else:
                self.inter = None
        elif v == "diag":
            self.wa = Parameter(np.ones(K), "diag.wa")
            self.wb = Parameter(np.ones(K), "diag.wb")
            # horizon rows of the periodically continued basis tables
            horizon = build_bases(T, pad=L - 1)
            self._c_rows = Tensor(np.ascontiguousarray(horizon.C[:L, 1:].T))  # [K, L]
            self._s_rows = Tensor(np.ascontiguousarray(horizon.S[:L, 1:].T))
            self.params += [self.wa, self.wb]
        elif v == "last":
            pass  # parameter-free

        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in registration order")
        expected = expected_param_count(spec)
        actual = sum(p.size for p in self.params)
        if actual != expected:
            raise ConfigError(
                f"built {actual} parameters, closed form says {expected} ({spec.summary()})"
            )
        if zero_weights:
            for p in self.params:
                if not p.name.endswith((".gamma",)):
                    p.value = np.zeros_like(p.value)

    # --- forward -----------------------------------------------------------

    def _features(self, H_R, H_I):
        """Full spectrum halves -> DC-dropped feature grid [..., T, T/2]."""
        return Tensor(expand_array(H_R, H_I, self._bases, drop_dc=True))

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

    def forward(self, X):
        """X: f64[B, D, T] raw windows -> Tensor[B, D, L] predictions."""
        Xs, mu, sd = self._standardized(X)
        out = self._map_standardized(Xs)
        return ad.add(ad.mul(out, Tensor(sd)), Tensor(mu))

    def _map_standardized(self, Xs):
        spec = self.spec
        v = spec.variant
        if v == "last":
            last = Xs[..., -1:]
            return Tensor(np.broadcast_to(last, Xs.shape[:2] + (spec.L,)).copy())
        H_R, H_I = rdft_array(Xs)
        # the spectral maps read bins 1..T/2
        h_r, h_i = Tensor(H_R[..., 1:]), Tensor(H_I[..., 1:])
        if v == "fbm-l":
            return spectral_map(h_r, h_i, self._windows, self.w)
        if v == "fbm-nl":
            h = ad.relu(ad.add(spectral_map(h_r, h_i, self._windows, self.w1), self.b1))
            h = ad.relu(ad.add(ad.matmul(h, self.w2), self.b2))
            return ad.add(ad.matmul(h, self.w3), self.b3)
        if v == "fbm-np":
            return self.np_scale.forward(self._features(H_R, H_I))
        if v == "fbm-s":
            return reduce(ad.add, self._component_outputs(H_R, H_I).values())
        if v == "diag":
            a = ad.mul(h_r, self.wa)
            b = ad.mul(h_i, self.wb)
            return ad.add(ad.matmul(a, self._c_rows), ad.matmul(b, self._s_rows))
        raise ConfigError(f"unknown variant {v!r}")

    def _component_outputs(self, H_R, H_I):
        outs = {"seasonal": self.seasonal.forward(Tensor(H_R[..., 1:]), Tensor(H_I[..., 1:]))}
        G = self._features(H_R, H_I)
        outs["trend"] = self.trend.forward(G)
        if self.inter is not None:
            outs["interaction"] = self.inter.forward(G)
        return outs

    def components(self, X):
        """fbm-s only: per-block contributions in the de-standardized space,
        plus the standardization state; reassembling exactly as forward does
        reproduces forward(X) bit for bit."""
        if self.spec.variant != "fbm-s":
            raise ConfigError("components() is only defined for fbm-s")
        Xs, mu, sd = self._standardized(X)
        outs = self._component_outputs(*rdft_array(Xs))
        return {k: v.value for k, v in outs.items()}, mu, sd

    def predict(self, X):
        with ad.no_grad():
            return self.forward(X).value

    # --- bookkeeping ---------------------------------------------------------

    def param_count(self):
        return sum(p.size for p in self.params)

    def describe(self):
        """(block name, parameter count) rows followed by the total."""
        if self.spec.variant == "fbm-s":
            rows = [(name, sum(p.size for p in blk.params())) for name, blk in self.blocks.items()]
        else:
            rows = [(self.spec.variant, self.param_count())]
        rows.append(("total", self.param_count()))
        return rows

    def save(self, path):
        ad.save_tensors(path, [(p.name, p.value) for p in self.params],
                        header=self.spec.to_header())

    @classmethod
    def load(cls, path, expected_spec=None):
        header, records = ad.load_tensors(path)
        spec = ModelSpec.from_header(header)
        if expected_spec is not None and spec != expected_spec:
            raise CheckpointError(
                "checkpoint spec does not match requested spec:\n"
                f"  checkpoint: {spec.summary()}\n"
                f"  requested:  {expected_spec.summary()}"
            )
        model = cls(spec, seed=0)
        if len(records) != len(model.params):
            raise CheckpointError(
                f"checkpoint holds {len(records)} tensors, model needs {len(model.params)}"
            )
        for p, (name, arr) in zip(model.params, records):
            if p.name != name or p.value.shape != arr.shape:
                raise CheckpointError(
                    f"checkpoint tensor {name}{arr.shape} does not match "
                    f"parameter {p.name}{p.value.shape}"
                )
            p.value = arr
        return model


def _stack_count(h, ffn):
    return 4 * h * h + 4 * h + h * ffn + ffn + ffn * h + h


def _scale_count(T_s, K_s, L, D, t):
    """One trend scale (or fbm-np) with config t over a T_s x K_s grid."""
    if t.backbone == "linear":
        return T_s * K_s * L + L
    total = 2 * D + (T_s // t.P) * K_s * t.h1 + t.h1  # centralization + projector
    if t.backbone == "mlp":
        return total + t.P * t.h1 * t.h2 + t.h2 + t.h2 * L + L
    return total + t.K * _stack_count(t.h1, t.h2) + t.P * t.h1 * L + L


def expected_param_count(spec):
    """Closed-form count for the spec, used to cross-check construction."""
    T, L, D, K = spec.T, spec.L, spec.D, spec.T // 2
    v = spec.variant
    if v == "last":
        return 0
    if v == "diag":
        return 2 * K
    if v == "fbm-l":
        return T * K * L
    if v == "fbm-nl":
        h1, h2 = spec.nl_h1, spec.nl_h2
        return T * K * h1 + h1 + h1 * h2 + h2 + h2 * L + L
    if v == "fbm-np":
        return _scale_count(T, K, L, D, spec.np_cfg)
    # fbm-s
    total = T * K  # seasonal W
    for s in spec.trend.scales:
        total += _scale_count(T // s, K // s, L, D, spec.trend)
    if spec.interaction is not None:
        i = spec.interaction
        total += 2 * D + i.C1 * K * i.h3 + i.h3
        total += i.K * _stack_count(i.h3, i.h3)
        total += i.h3 * L + L
    return total
