"""Write tests/fixtures/pins.fbm, the arithmetic pins of every model spec.

For each spec in PINS, at T=16, L=6, D=3, the container holds the initial
parameters (model seed 11), a seeded batch X and Y, the predictions on X,
the gradients of the batch MSE, and the parameters after two Adam steps on
that batch. tests/test_pins.py recomputes each pin with run_pin and
compares. Regenerate the pins only on purpose, and log the run in
CHANGES.md:

    PYTHONPATH=src python tests/make_pins.py [--out PATH]

The file name keeps pytest from collecting this script.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fbm import autodiff as ad
from fbm.autodiff import Tensor
from fbm.blocks import InteractionConfig, TrendConfig
from fbm.models import ForecastModel, ModelSpec

FIXTURE = Path(__file__).parent / "fixtures" / "pins.fbm"
MODEL_SEED, BATCH_SEED, BATCH, LR, ADAM_STEPS = 11, 7, 4, 1e-2, 2


def _spec(variant, **kw):
    return ModelSpec(variant=variant, T=16, L=6, D=3, **kw)


def _fbm_s(backbone, interaction, standardize):
    trend = TrendConfig(backbone=backbone, h1=4, h2=5, K=1, P=2, scales=(1, 2))
    inter = InteractionConfig(C1=3, C2=4, h3=5, K=1) if interaction else None
    return _spec("fbm-s", trend=trend, interaction=inter, standardize=standardize)


# pin name -> spec
PINS = {
    "fbm-l": _spec("fbm-l"),
    "fbm-nl": _spec("fbm-nl", nl_h1=7, nl_h2=5),
    "diag": _spec("diag"),
    "last": _spec("last"),
    "fbm-np-k1": _spec("fbm-np", np_cfg=TrendConfig(backbone="transformer", P=2, h1=4, h2=6, K=1)),
    "fbm-np-k2": _spec("fbm-np", np_cfg=TrendConfig(backbone="transformer", P=4, h1=5, h2=3, K=2)),
    **{
        f"fbm-s-{b}-{'inter' if i else 'nointer'}-{'std' if s else 'raw'}": _fbm_s(b, i, s)
        for b in ("linear", "mlp", "transformer")
        for i in (True, False)
        for s in (True, False)
    },
}


def run_pin(spec):
    """[(record name, array)] of one spec: init/*, X, Y, pred, grad/*, adam2/*."""
    model = ForecastModel(spec, seed=MODEL_SEED)
    rng = np.random.default_rng(BATCH_SEED)
    X = 2.0 * rng.standard_normal((BATCH, spec.D, spec.T)) + 0.5
    Y = rng.standard_normal((BATCH, spec.D, spec.L))
    out = [(f"init/{p.name}", p.value.copy()) for p in model.params]
    out += [("X", X), ("Y", Y)]
    for step in range(ADAM_STEPS):
        pred = model.forward(X)
        diff = ad.sub(pred, Tensor(Y))
        ad.zero_grads(model.params)
        ad.backward((diff * diff).mean(), model.params)
        if step == 0:
            out.append(("pred", pred.value))
            out += [(f"grad/{p.name}", p.grad.copy()) for p in model.params]
        ad.adam_step(model.params, LR)
    return out + [(f"adam2/{p.name}", p.value) for p in model.params]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=FIXTURE, help="container to write")
    out = parser.parse_args(argv).out
    records = [(f"{pin}:{name}", arr) for pin, spec in PINS.items() for name, arr in run_pin(spec)]
    ad.save_tensors(out, records, header={pin: spec.summary() for pin, spec in PINS.items()})
    print(f"wrote {out} ({len(PINS)} pins, {len(records)} tensors)")


if __name__ == "__main__":
    main()
