"""Tests for the benchmark's tracer and layer hooks.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import StageClock, _numcore_op, hooks, layer_metrics  # noqa: E402
from tracer import Span, Tracer, rebound, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def spans_from(rows):
    """rows: (name, start, end, parent)"""
    out = []
    for name, start, end, parent in rows:
        s = Span(name, start, parent)
        s.end = end
        out.append(s)
    return out


def test_self_time_subtracts_child_coverage():
    spans = spans_from([("root", 0.0, 10.0, None),
                        ("a", 1.0, 3.0, 0),
                        ("b", 5.0, 6.5, 0),
                        ("a.inner", 1.5, 2.0, 1)])
    assert self_times(spans) == pytest.approx([6.5, 1.5, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = spans_from([("root", 0.0, 10.0, None),
                        ("x", 2.0, 6.0, 0),
                        ("y", 4.0, 8.0, 0)])
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nesting_and_totals():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.begin("outer")
    clock.now = 1.0
    inner = tracer.begin("inner")
    clock.now = 4.0
    tracer.end(inner)
    clock.now = 5.0
    tracer.end(outer)
    assert tracer.spans[inner].parent == outer
    assert tracer.totals() == {"outer": 5.0, "inner": 3.0}
    assert tracer.self_totals() == {"outer": 2.0, "inner": 3.0}


def test_tracer_rejects_out_of_order_end():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_rebound_restores_originals_after_exception():
    mod = types.SimpleNamespace(f=1, g=2)
    with pytest.raises(KeyError):
        with rebound([(mod, "f", 10), (mod, "g", 20)]):
            assert (mod.f, mod.g) == (10, 20)
            raise KeyError("boom")
    assert (mod.f, mod.g) == (1, 2)


def test_rebound_restores_partial_install_when_a_target_is_missing():
    mod = types.SimpleNamespace(f=1)
    with pytest.raises(AttributeError):
        with rebound([(mod, "f", 10), (mod, "missing", 0)]):
            pass
    assert mod.f == 1
    assert not hasattr(mod, "missing")


def test_hooks_restore_every_library_attribute():
    tracer = Tracer()
    targets = hooks(tracer, StageClock(tracer.clock))
    before = [(owner, attr, getattr(owner, attr))
              for owner, attr, _ in targets]
    with pytest.raises(ValueError):
        with rebound(targets):
            assert all(getattr(owner, attr) is not original
                       for owner, attr, original in before)
            raise ValueError("stop")
    assert all(getattr(owner, attr) is original
               for owner, attr, original in before)


def test_stage_clock_partitions_each_epoch():
    """Stages of an epoch sum to the epoch, in FULL and RANDOM_AUG order."""
    for variant, stage_order in (
            ("FULL", ["full_encode", "view_generation", "contrastive_forward",
                      "checksums", "encoder_backward", "checksums",
                      "reward_forward", "sampler_step", "checksums"]),
            ("RANDOM_AUG", ["full_encode", "view_generation",
                            "contrastive_forward", "checksums",
                            "encoder_backward", "checksums"])):
        clock = FakeClock()
        stages = StageClock(clock)
        stages.begin_train(types.SimpleNamespace(epochs=2, variant=variant))
        seen = []

        def tick(dt=1.0):
            seen.append(stages.stage)
            clock.now += dt

        for _ in range(2):
            stages.region_stack()
            tick()
            stages.views_begin()
            tick()
            stages.views_end()
            tick()
            stages.checksums_begin()
            tick()
            stages.checksums_end()
            stages.backward_begin()
            tick()
            stages.adam_end()
            stages.checksums_begin()
            tick()
            stages.checksums_end()
            if variant == "FULL":
                stages.region_stack()   # the reward re-forward
                tick()
                stages.reward_end()
                stages.backward_begin()
                tick()
                stages.adam_end()
                stages.checksums_begin()
                tick()
                stages.checksums_end()
        stages.region_stack()           # final encode: not an epoch
        tick()
        assert seen == stage_order * 2 + [None]
        m = stages.metrics()
        per_epoch = len(stage_order)
        assert m["trainer.epoch_s"] == pytest.approx(per_epoch)
        assert sum(v for k, v in m.items() if k != "trainer.epoch_s") \
            == pytest.approx(per_epoch)


def test_traced_training_is_bit_identical_and_counts_are_exact():
    from regioncl.eval_harness import EvalConfig, probe_all
    from regioncl.poi_embedding import SkipgramConfig, train_skipgram
    from regioncl.region_data import SynthConfig, synth_dataset
    from regioncl.trainer import TrainConfig, region_embeddings, train

    ds = synth_dataset(SynthConfig(n_regions=12, n_categories=6, n_slots=2,
                                   n_trips=200, n_clusters=3, seed=5))
    cfg = TrainConfig(epochs=2, lr=0.005, d=8, heads=2, n_layers=2,
                      skipgram=SkipgramConfig(d_sg=8, epochs=20, seed=3))
    table = train_skipgram(ds.poi, cfg.skipgram)

    def once(traced):
        tracer = Tracer()
        stages = StageClock(tracer.clock)
        if not traced:
            E = region_embeddings(train(ds, cfg, table=table))
            return E, None
        with rebound(hooks(tracer, stages)):
            stages.begin_train(cfg)
            E = region_embeddings(train(ds, cfg, table=table))
            probe_all(E, ds, EvalConfig(folds=2))
        return E, layer_metrics(tracer, stages)

    plain, _ = once(False)
    traced, first = once(True)
    _, second = once(True)
    assert plain.tobytes() == traced.tobytes()
    for name in ("numcore.matmul.flops", "numcore.matmul.bytes",
                 "numcore.matmul.const_grad_flops", "eval_harness.lasso_sweeps",
                 "hetero_graph.normalized_adjacency_calls"):
        assert first[name] == second[name] > 0
    assert first["eval_harness.lasso_fits"] == 3 * 2
    # each view is encoded twice (plain and InfoBN) in each of two
    # contrastive forwards per epoch, on top of the fused graph's relations
    assert first["hetero_graph.normalized_adjacency_calls"] == 4 + 2 * 8


def test_matmul_counts_only_the_gradients_the_vjp_returns():
    import numpy as np
    from regioncl import numcore as nc

    A = nc.constant(np.ones((4, 4)))
    H = nc.Tensor(np.ones((4, 3)), requires_grad=True)
    product = 2 * 4 * 4 * 3

    def skip_constant(a, b):
        out = nc.matmul(a, b)
        both = out.vjp
        out.vjp = lambda g: (None, both(g)[1])
        return out

    for fn, const_flops in ((nc.matmul, product), (skip_constant, 0)):
        tracer = Tracer()
        out = _numcore_op(tracer, "matmul", fn)(A, H)
        out.vjp(np.ones((4, 3)))
        counts = tracer.counts
        assert counts["numcore.matmul.const_grad_flops"] == const_flops
        returned = 2 if const_flops else 1
        assert counts["numcore.matmul.flops"] == (1 + returned) * product

