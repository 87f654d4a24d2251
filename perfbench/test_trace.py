"""Checks of the benchmark itself: run with

    python3 -m pytest perfbench/test_trace.py

The determinism test runs each workload twice under the tracer at its
smallest size (about two minutes on a 2-core host).
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from fbm import autodiff  # noqa: E402
from spans import OPS, Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# public functions of fbm.autodiff that are not tape ops
NOT_OPS = {"adam_step", "attention_block", "backward", "init_uniform", "load_tensors",
           "save_tensors", "set_debug_checks", "zero_grads"}


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    units = per_layer_units()
    assert [m["name"] for m in spec["per_layer"]] == list(units)
    assert [m["unit"] for m in spec["per_layer"]] == list(units.values())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_every_autodiff_op_is_traced():
    defined = tuple(
        name for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
        and not name.startswith("_") and name not in NOT_OPS
    )
    assert defined == OPS


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    total, own = tracer.reduce()
    assert total == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def _traced_counts(workload, seed, out_dir):
    tracer = Tracer()
    with tracer:
        state = workload.setup(seed)
        outcome = workload.run(state, seed, 1, str(out_dir), tracer)
    assert all(outcome.checks.values()), outcome.checks
    units = per_layer_units()
    # everything but times: op calls, FLOPs, tape and container bytes, windows, spans
    return {k: v for k, v in tracer.metrics().items() if units[k] != "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_count_the_same(name, tmp_path):
    first = _traced_counts(WORKLOADS[name], 7, tmp_path)
    second = _traced_counts(WORKLOADS[name], 7, tmp_path)
    assert first == second
    assert first["autodiff.op.matmul.flops"] > 0
    blocks_seen = first["autodiff.tape_bytes.trend.d1"] + first["autodiff.tape_bytes.interaction"]
    if name == "train-s":
        assert blocks_seen > 0
    if name == "case1-l":
        assert first["autodiff.container_bytes"] > 0 and blocks_seen == 0
    if name == "eval-s":
        assert first["autodiff.tape_nodes"] == 0
