"""Print how far each pin moved between two pin containers.

For each pin of OLD, the worst |a - b| / max|b| over its pred, grad/* and
adam2/* records, a from NEW and b from OLD, with the record it is seen in.
These are the figures a TOLERANCE or ADAM2_TOLERANCE entry of
tests/test_pins.py is set from. Records that test_pins checks against an
exact fact rather than a bound (attention key biases after Adam, gradients
pinned at noise level) take its rules, imported from there: they count no
move, and each one NEW breaks is named on a line of its own. init/*, X and Y
are not compared. The command exits 1 if the two containers hold different
record names:

    PYTHONPATH=src python tests/make_pins.py --out NEW.fbm
    PYTHONPATH=src python tests/pin_moves.py tests/fixtures/pins.fbm NEW.fbm
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from fbm import autodiff as ad
from test_pins import _is_key_bias, _is_noise, _key_bias_still

GROUPS = ("pred", "grad/", "adam2/")


def _move(a, b):
    """max|a - b| / max|b|: 0 for equal records, inf where no bound relative to b holds."""
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return 0.0
    scale = np.max(np.abs(b), initial=0.0)
    if a.shape != b.shape or scale == 0.0 or not np.all(np.isfinite(a)):
        return math.inf
    return float(np.max(np.abs(a - b)) / scale)


def moves(old, new):
    """({pin: {group: (worst move, record)}}, [records that break their exact-fact
    rule]) of two pin containers' records, listed in the same order."""
    values = dict(old)
    worst, broken = {}, []
    for (full, b), (_, a) in zip(old, new):
        pin, _, name = full.partition(":")
        group = next((g for g in GROUPS if name.startswith(g)), None)
        if group is None:
            continue
        pin_worst = worst.setdefault(pin, {g: (0.0, None) for g in GROUPS})
        if _is_key_bias(name):
            kept = _key_bias_still(a, b, values[f"{pin}:init/{name.partition('/')[2]}"])
        elif group == "grad/" and _is_noise(b):
            kept = a.shape == b.shape and _is_noise(a)
        else:
            move = _move(a, b)
            if move > pin_worst[group][0]:
                pin_worst[group] = move, name
            continue
        if not kept:
            broken.append(full)
    return worst, broken


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="the pins moved from, as b")
    parser.add_argument("new", help="the pins moved to, as a")
    args = parser.parse_args(argv)
    (_, old), (_, new) = ad.load_tensors(args.old), ad.load_tensors(args.new)
    if [name for name, _ in old] != [name for name, _ in new]:
        only_old = sorted({n for n, _ in old} - {n for n, _ in new})
        only_new = sorted({n for n, _ in new} - {n for n, _ in old})
        print(f"record names differ: only in old {only_old}, only in new {only_new}"
              " (or the same names in another order)", file=sys.stderr)
        return 1
    worst, broken = moves(old, new)
    for pin, groups in worst.items():
        cells = [f"{g.rstrip('/')} {move:.3g}" + (f" ({name})" if name else "")
                 for g, (move, name) in groups.items()]
        print(f"{pin:<30} " + "  ".join(cells))
    for full in broken:
        print(f"{full}: breaks its exact-fact rule")
    return 0


if __name__ == "__main__":
    sys.exit(main())
