"""The benchmark's tracer (perfbench/spans.py) patches fbm's functions and
methods by name from outside the package. These checks keep a refactor
that moves or renames a traced attribute from breaking only the traced
benchmark run: installing must find every attribute, a traced forward
must open every block span, and uninstalling must put every original back.
The tracer counts tape nodes and bytes through the public ops alone, so
those counts hold only while every tracked tape node comes from one; it
counts them as the ops run, so backward releasing the tape leaves them whole.
The benchmark's own check that fbm.autodiff's public functions are exactly
the traced ops (spans.OPS) runs here too, so a helper made public by
mistake fails the suite, not only the benchmark's tests.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from test_trace import test_every_autodiff_op_is_traced  # noqa: E402, F401

from fbm import autodiff as ad  # noqa: E402
from fbm.blocks import InteractionConfig, TrendConfig  # noqa: E402
from fbm.data import Dataset, SlidingWindows, SplitSpec, split  # noqa: E402
from fbm.models import VARIANTS, ForecastModel, ModelSpec  # noqa: E402
from fbm.train import PairedWindows  # noqa: E402


def test_install_patches_and_uninstall_restores_every_attribute():
    tracer = spans.Tracer()
    tracer.install()  # a traced attribute that has moved raises KeyError here
    patched = list(tracer._patched)
    try:
        assert len(patched) > len(spans.OPS)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    # a second round leaves every attribute of the patched owners as it was
    owners = {owner for owner, _, _ in patched}
    before = {owner: dict(vars(owner)) for owner in owners}
    with spans.Tracer():
        pass
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[owner].keys()
        assert all(after[attr] is value for attr, value in before[owner].items())


@pytest.mark.parametrize("backbone", ["mlp", "transformer"])
def test_traced_forward_opens_every_block_span(backbone):
    spec = ModelSpec(
        variant="fbm-s", T=16, L=4, D=2,
        trend=TrendConfig(backbone=backbone, h1=3, h2=4, K=1, P=2, scales=(1, 2)),
        interaction=InteractionConfig(C1=4, C2=2, h3=3, K=1),
    )
    X = np.random.default_rng(0).standard_normal((2, 2, 16))
    with spans.Tracer() as tracer:
        model = ForecastModel(spec, seed=0)
        model.forward(X)
    names = {span[0] for span in tracer.spans}
    want = {"models.build", "models.forward", "fourier.tables", "blocks.seasonal.forward",
            "blocks.trend.forward", "blocks.trend.d1.forward", "blocks.trend.d2.forward",
            "blocks.downsample", "blocks.projector.forward", "blocks.centralize",
            "blocks.decentralize", "blocks.interaction.forward", "autodiff.attention_block"}
    assert want <= names
    counts = tracer.metrics()
    for owner in ("seasonal", "trend.d1", "trend.d2", "interaction"):
        assert counts[f"autodiff.tape_bytes.{owner}"] > 0, owner


def test_traced_window_streams_open_one_span_per_batch_and_count_each_window_once():
    # the tracer wraps iterate_batches and PairedWindows' three streams; a stream
    # that went through another traced one would open two spans per batch
    rng = np.random.default_rng(2)
    ds = Dataset("s", rng.standard_normal((2, 200)))
    sources = (
        PairedWindows(rng.standard_normal((23, 2, 8)), rng.standard_normal((23, 2, 3)), 3),
        SlidingWindows(ds, split(ds, SplitSpec.ratio(), 16, 4), 16, 4, batch_size=8),
    )
    for source in sources:
        for name in ("train_batches", "val_batches", "test_batches"):
            with spans.Tracer() as tracer:
                stream = getattr(source, name)
                batches = list(stream(0) if name == "train_batches" else stream())
            opened = [span for span in tracer.spans if span[0] == "data.batch"]
            assert len(batches) > 1
            # one span per batch, and one for the next() that finds the stream's end
            assert len(opened) == len(batches) + 1, (type(source).__name__, name)
            assert tracer.counts["data.windows"] == sum(len(b.X) for b in batches)


TAPE_SPECS = {
    "fbm-nl": dict(nl_h1=5, nl_h2=4),
    "fbm-np": dict(np_cfg=TrendConfig(backbone="transformer", h1=4, h2=5, K=1, P=2)),
    "fbm-s": dict(trend=TrendConfig(backbone="mlp", h1=3, h2=4, P=2, scales=(1, 2)),
                  interaction=InteractionConfig(C1=4, C2=2, h3=3, K=1)),
}


@pytest.fixture
def made(monkeypatch):
    """{id(node): (node, bytes of its output)} of every tape node the ops make
    while the test runs; holding a node keeps no value alive."""
    made, from_op = {}, ad._from_op

    def recording(value, *edges):
        out = from_op(value, *edges)
        if out._node is not None:
            made[id(out._node)] = (out._node, out.value.nbytes)
        return out

    monkeypatch.setattr(ad, "_from_op", recording)
    return made


def walk_tape(out):
    """The ids of the unreleased nodes out's tape reaches."""
    seen, stack = set(), [out._node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen and node._edges:
            seen.add(id(node))
            stack.extend(parent for parent, _ in node._edges)
    return seen


def assert_counts_are_the_walk(counts, made, walked):
    traced = sum(counts[f"autodiff.tape_bytes.{owner}"] for owner in spans.TAPE_OWNERS)
    assert counts["autodiff.tape_nodes"] == len(made) and walked == made.keys()
    assert traced == sum(nbytes for _, nbytes in made.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_tape_counts_equal_a_walk_of_the_output_tape(variant, made):
    spec = ModelSpec(variant=variant, T=16, L=6, D=3, **TAPE_SPECS.get(variant, {}))
    model = ForecastModel(spec, seed=0)
    rng = np.random.default_rng(1)
    for p in model.params:  # off init, so the seasonal W and diag's unit weights count
        p.value = p.value + 0.1 * rng.normal(size=p.shape)
    X = rng.standard_normal((2, 3, 16))
    with spans.Tracer() as tracer:
        y = model.forward(X)
    assert_counts_are_the_walk(tracer.metrics(), made, walk_tape(y))


def test_traced_backward_releases_the_tape_the_tracer_counted(made):
    model = ForecastModel(ModelSpec(variant="fbm-s", T=16, L=6, D=3, **TAPE_SPECS["fbm-s"]), seed=0)
    rng = np.random.default_rng(1)
    for p in model.params:
        p.value = p.value + 0.1 * rng.normal(size=p.shape)
    X, Y = rng.standard_normal((2, 3, 16)), rng.standard_normal((2, 3, 6))
    with spans.Tracer() as tracer:
        diff = ad.sub(model.forward(X), ad.Tensor(Y))
        loss = (diff * diff).mean()
        before = walk_tape(loss)
        ad.backward(loss, model.params)
    assert_counts_are_the_walk(tracer.metrics(), made, before)
    assert walk_tape(loss) == set()  # no unreleased node is left
