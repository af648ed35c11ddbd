"""Span recording, nesting, self time and wrapper restoration."""

import types

import pytest

from mvmae import pipeline
from mvmae.config import tiny_config
from mvmae.data import make_dataset
from mvmae.rng import Rng
from spans import NO_PARENT, Patches, Span, Tracer, self_times
import workloads


def _fake_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(mod.inner(x))
    return mod


def test_wrapped_calls_nest_and_restore():
    mod = _fake_module()
    inner, outer = mod.inner, mod.outer
    tracer = Tracer()
    with Patches() as patches:
        tracer.wrap(patches, mod, "inner", "inner")
        tracer.wrap(patches, mod, "outer", "outer")
        assert tracer.call("root", mod.outer, (1,), key="step:0") == 3
    assert mod.inner is inner and mod.outer is outer
    spans = tracer.finished()
    assert [s.name for s in spans] == ["root", "outer", "inner", "inner"]
    assert [s.parent for s in spans] == [NO_PARENT, 0, 1, 1]
    assert all(s.key == "step:0" for s in spans)  # children inherit the key
    for child in spans[2:]:
        assert spans[1].start <= child.start <= child.end <= spans[1].end


def test_wrappers_restored_after_exception():
    mod = types.SimpleNamespace(inner=lambda x: 1 / 0)
    original = mod.inner
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with Patches() as patches:
            tracer.wrap(patches, mod, "inner", "inner")
            mod.inner(1)
    assert mod.inner is original
    assert tracer.finished()[0].end >= tracer.finished()[0].start


def test_class_method_patch_restores_the_same_function():
    class Thing:
        def __call__(self, x):
            return 2 * x

    original = Thing.__dict__["__call__"]
    tracer = Tracer()
    with Patches() as patches:
        tracer.wrap(patches, Thing, "__call__", "thing")
        assert Thing()(3) == 6
    assert Thing.__dict__["__call__"] is original
    assert len(tracer.finished()) == 1


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, NO_PARENT, ""),
        Span("a", 1.0, 4.0, 0, ""),
        Span("b", 5.0, 6.0, 0, ""),
        Span("c", 2.0, 3.0, 1, ""),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_dissolve_hands_children_to_parent():
    tracer = Tracer()
    root = tracer.open("root", "k")
    middle = tracer.open("middle")
    child = tracer.open("child")
    tracer.close(child)
    tracer.dissolve(middle)
    tracer.close(root)
    spans = tracer.finished()
    assert [s.name for s in spans] == ["root", "child"]
    assert spans[1].parent == 0


def test_traced_training_and_eval_spans(tmp_path):
    """A small traced pretrain + extraction: every span lies inside its
    parent, self times of a tree sum to no more than its root's wall time,
    steps end at an optimizer return, and every wrapper is put back."""
    cfg = tiny_config()
    clouds, labels = make_dataset(cfg.data)
    originals = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for _, owner, attr in workloads.TRACED
    ]
    inst = workloads.Instrument(cfg)
    with inst.phase("bench.timed", "run0", True):
        result = pipeline.pretrain(cfg, clouds, tmp_path, 0, stop_after_step=3)
        model, _ = pipeline.load_pretrained(result.checkpoint_path)
        features = pipeline.extract_features(model, clouds)
        pipeline.probe_features(features, labels, Rng(0).derive("probe"))
    restored = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for _, owner, attr in workloads.TRACED
    ]
    assert all(a is b for a, b in zip(originals, restored))

    spans = inst.tracer.finished()
    for span in spans:
        assert span.start <= span.end
        if span.parent != NO_PARENT:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    selfs = self_times(spans)
    assert min(selfs) >= -1e-9
    root = spans[0]
    assert root.name == "bench.timed"
    assert sum(selfs) <= (root.end - root.start) + 1e-9

    steps = [i for i, s in enumerate(spans) if s.name == workloads.STEP_SPAN]
    assert [spans[i].key for i in steps] == ["step:run0:0", "step:run0:1", "step:run0:2"]
    for i in steps:
        children = [s for s in spans if s.parent == i]
        assert children[-1].name == "autodiff.adamw_step"
    clouds_keyed = [s.key for s in spans if s.name == "model.encoder_features"]
    assert clouds_keyed == [f"cloud:run0:{i}" for i in range(len(clouds))]
    assert len(inst.graph_nodes) == 3 * cfg.train.batch_size
    assert all(0.0 < r <= 1.0 for r in inst.fused_ratios)

