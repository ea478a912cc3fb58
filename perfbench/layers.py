"""Outside-in layer hooks for one traced train + probe run.

``hooks(tracer, stages)`` lists the library attributes the traced run
rebinds; ``layer_metrics`` turns the recorded spans and counts into the
per-layer metrics named in BENCHMARK.json. Hooks only observe: every wrapper
calls the original with the original arguments and returns its result
unchanged, so a traced run computes the same bits as an untraced one.

Wrappers are installed on the name the *caller* looks up. ``trainer``
imports most of its collaborators by name, so trainer-side calls are hooked
as ``regioncl.trainer.<name>``; modules that call through their own globals
or through ``nc.<op>`` are hooked on the defining module.
"""

from __future__ import annotations

import inspect

import numpy as np

NUMCORE_OPS = ("matmul", "rows", "add", "mul", "relu", "softplus",
               "softmax_rows", "normalize_rows")

# span names whose summed inclusive time is reported under a metric name
SPAN_METRICS = {
    "region_data.load_s": "region_data.load",
    "region_data.distance_matrix_s": "region_data.distance_matrix",
    "poi_embedding.skipgram_s": "poi_embedding.skipgram",
    "poi_embedding.region_stack_s": "poi_embedding.region_stack",
    "hetero_graph.build_graph_s": "hetero_graph.build_graph",
    "hetero_graph.normalized_adjacency_s": "hetero_graph.normalized_adjacency",
    "hgnn_encoder.encode_s": "hgnn_encoder.encode",
    "view_generator.candidate_pairs_s": "view_generator.candidate_pairs",
    "view_generator.vgae_encode_s": "view_generator.vgae_encode",
    "view_generator.score_edges_s": "view_generator.score_edges",
    "view_generator.sparsify_s": "view_generator.sparsify",
    "view_generator.random_walk_s": "view_generator.random_walk",
    "view_generator.reconstruction_loss_s": "view_generator.reconstruction_loss",
    "losses.info_nce_s": "losses.info_nce",
    "losses.info_bn_s": "losses.info_bn",
    "losses.drop_edges_s": "losses.drop_edges",
    "numcore.adam_step_s": "numcore.adam_step",
    "eval_harness.lasso_fit_s": "eval_harness.lasso_fit",
}
for _op in NUMCORE_OPS:
    SPAN_METRICS[f"numcore.{_op}.fwd_s"] = f"numcore.{_op}.fwd"
    SPAN_METRICS[f"numcore.{_op}.bwd_s"] = f"numcore.{_op}.bwd"

# counters reported as they are
COUNT_METRICS = (
    "hetero_graph.normalized_adjacency_calls",
    "hetero_graph.dense_adjacency_bytes",
    "hgnn_encoder.encode_calls",
    "hgnn_encoder.encode_node_rows",
    "numcore.matmul.flops",
    "numcore.matmul.bytes",
    "numcore.matmul.const_grad_flops",
    "eval_harness.lasso_fits",
    "eval_harness.lasso_sweeps",
    "eval_harness.lasso_unconverged",
) + tuple(f"numcore.{op}.calls" for op in NUMCORE_OPS)

STAGES = ("full_encode", "view_generation", "contrastive_forward",
          "encoder_backward", "reward_forward", "sampler_step", "checksums")


class StageClock:
    """Splits each training epoch into stages by the order of its calls.

    Every instant between the start of an epoch (the first region-stack
    call after the previous epoch's last optimizer step) and the start of
    the next is charged to exactly one stage, so the stages of an epoch sum
    to its duration. The encode after the last epoch is not an epoch.
    """

    def __init__(self, clock):
        self.clock = clock
        self.acc = {s: 0.0 for s in STAGES}
        self.epoch_time = 0.0
        self.epochs_done = 0
        self.stage = None
        self._last = 0.0
        self._stack: list = []
        self._between = False

    def begin_train(self, cfg) -> None:
        self.epochs = cfg.epochs
        self.sampling = cfg.variant != "RANDOM_AUG"
        self.reward = self.sampling and cfg.variant != "NO_INFOMIN"
        self._between = True

    def _switch(self, stage) -> None:
        now = self.clock()
        if self.stage is not None:
            self.acc[self.stage] += now - self._last
        self.stage, self._last = stage, now

    def region_stack(self) -> None:
        if not self._between:
            return
        now = self.clock()
        if self.epochs_done:
            self.epoch_time += now - self._epoch_start
        self._between = False
        if self.epochs_done == self.epochs:
            self._switch(None)
            return
        self.epochs_done += 1
        self._epoch_start = now
        self._adam_steps = 0
        self._switch("full_encode")

    def views_begin(self) -> None:
        self._switch("view_generation")

    def views_end(self) -> None:
        self._switch("contrastive_forward")

    def backward_begin(self) -> None:
        if self.stage is not None and self._adam_steps == 0:
            self._switch("encoder_backward")

    def adam_end(self) -> None:
        if self.stage is None:
            return
        self._adam_steps += 1
        if self._adam_steps == 1 and self.sampling:
            self._switch("reward_forward" if self.reward else "sampler_step")
        else:
            self._between = True

    def reward_end(self) -> None:
        if self.stage is not None:
            self._switch("sampler_step")

    def checksums_begin(self) -> None:
        self._stack.append(self.stage)
        if self.stage is not None:
            self._switch("checksums")

    def checksums_end(self) -> None:
        previous = self._stack.pop()
        if previous is not None:
            self._switch(previous)

    def metrics(self) -> dict:
        n = max(self.epochs_done, 1)
        out = {f"trainer.{s}_s": self.acc[s] / n for s in STAGES}
        out["trainer.epoch_s"] = self.epoch_time / n
        return out


def _wrap(tracer, span, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        sid = tracer.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(out, *args, **kwargs)
        return out
    return wrapper


def _numcore_op(tracer, op, fn):
    fwd, bwd, calls = (f"numcore.{op}.fwd", f"numcore.{op}.bwd",
                       f"numcore.{op}.calls")

    def wrapper(*args, **kwargs):
        sid = tracer.begin(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        tracer.count(calls)
        vjp = out.vjp
        if vjp is None:
            return out
        if op == "matmul":
            a, b = out.parents
            m, k = a.data.shape
            n = b.data.shape[1]
            # forward and each operand gradient is one (m, k, n) product
            flops = 2 * m * k * n
            moved = 8 * (m * k + k * n + m * n)
            tracer.count("numcore.matmul.flops", flops)
            tracer.count("numcore.matmul.bytes", moved)

        def timed_vjp(g):
            sid = tracer.begin(bwd)
            try:
                grads = vjp(g)
            finally:
                tracer.end(sid)
            if op == "matmul":
                # charge only the operand gradients the VJP returned
                for parent, grad in zip(out.parents, grads):
                    if grad is None:
                        continue
                    tracer.count("numcore.matmul.flops", flops)
                    tracer.count("numcore.matmul.bytes", moved)
                    if not parent.requires_grad:
                        tracer.count("numcore.matmul.const_grad_flops",
                                     flops)
            return grads

        out.vjp = timed_vjp
        return out
    return wrapper


def hooks(tracer, stages):
    """(owner, attribute, wrapper) triples for ``tracer.rebound``."""
    from regioncl import (eval_harness, hetero_graph, numcore, region_data,
                          trainer, view_generator)

    count = tracer.count
    max_sweeps = inspect.signature(
        eval_harness.lasso_fit).parameters["max_sweeps"].default

    def adjacency_after(out, n_nodes, edges):
        count("hetero_graph.normalized_adjacency_calls")
        # a sparse adjacency holds no dense n x n array
        count("hetero_graph.dense_adjacency_bytes",
              out.nbytes if isinstance(out, np.ndarray) else 0)

    def encode_after(out, adj, H0, params):
        count("hgnn_encoder.encode_calls")
        count("hgnn_encoder.encode_node_rows", getattr(H0, "data", H0).shape[0])

    def lasso_after(out, *args, **kwargs):
        sweeps = len(out.objective_history)
        count("eval_harness.lasso_fits")
        count("eval_harness.lasso_sweeps", sweeps)
        count("eval_harness.lasso_unconverged",
              sweeps >= kwargs.get("max_sweeps", max_sweeps))

    def nce_before(views, tau):
        nodes1, nodes2 = set(views.nodes1), set(views.nodes2)
        count("losses.shared_nodes", len(nodes1 & nodes2))
        count("losses.view_nodes", (len(nodes1) + len(nodes2)) / 2)

    def walk_after(view, *args, **kwargs):
        count("view_generator.views")
        count("view_generator.view_nodes", len(view.nodes))
        count("view_generator.view_edges", len(view.edges))

    def views_after(out, *args, **kwargs):
        stages.views_end()

    def adjacency(owner):
        return (owner, "normalized_adjacency",
                _wrap(tracer, "hetero_graph.normalized_adjacency",
                      owner.normalized_adjacency, after=adjacency_after))

    def region_stack(attr):
        return (trainer, attr,
                _wrap(tracer, "poi_embedding.region_stack",
                      getattr(trainer, attr),
                      before=(lambda *a, **k: stages.region_stack())
                      if attr == "project_regions" else None))

    out = [
        (region_data, "distance_matrix",
         _wrap(tracer, "region_data.distance_matrix",
               region_data.distance_matrix)),
        region_stack("project_regions"),
        region_stack("self_attention"),
        region_stack("init_features"),
        (trainer, "build_graph",
         _wrap(tracer, "hetero_graph.build_graph", trainer.build_graph)),
        adjacency(hetero_graph),
        adjacency(trainer),
        (trainer, "encode",
         _wrap(tracer, "hgnn_encoder.encode", trainer.encode,
               after=encode_after)),
        (view_generator, "candidate_pairs",
         _wrap(tracer, "view_generator.candidate_pairs",
               view_generator.candidate_pairs,
               after=lambda out, *a, **k: (
                   count("view_generator.candidate_sets"),
                   count("view_generator.candidates", len(out))))),
        (view_generator, "vgae_encode",
         _wrap(tracer, "view_generator.vgae_encode",
               view_generator.vgae_encode)),
        (view_generator, "score_edges",
         _wrap(tracer, "view_generator.score_edges",
               view_generator.score_edges)),
        (view_generator, "sparsify",
         _wrap(tracer, "view_generator.sparsify", view_generator.sparsify,
               after=lambda out, P, eps: (
                   count("view_generator.scored", len(P.pairs)),
                   count("view_generator.kept", len(out))))),
        (view_generator, "random_walk_sample",
         _wrap(tracer, "view_generator.random_walk",
               view_generator.random_walk_sample, after=walk_after)),
        (trainer, "reconstruction_loss",
         _wrap(tracer, "view_generator.reconstruction_loss",
               trainer.reconstruction_loss)),
        (trainer, "generate_views",
         _wrap(tracer, "trainer.generate_views", trainer.generate_views,
               before=lambda *a, **k: stages.views_begin(),
               after=views_after)),
        (trainer, "_random_aug_views",
         _wrap(tracer, "trainer.random_aug_views", trainer._random_aug_views,
               before=lambda *a, **k: stages.views_begin(),
               after=views_after)),
        (trainer, "info_nce",
         _wrap(tracer, "losses.info_nce", trainer.info_nce,
               before=nce_before)),
        (trainer, "info_bn",
         _wrap(tracer, "losses.info_bn", trainer.info_bn)),
        (trainer, "drop_edges",
         _wrap(tracer, "losses.drop_edges", trainer.drop_edges)),
        (trainer, "backward",
         _wrap(tracer, "numcore.backward", trainer.backward,
               before=lambda *a, **k: stages.backward_begin())),
        (trainer, "adam_step",
         _wrap(tracer, "numcore.adam_step", trainer.adam_step,
               after=lambda *a, **k: stages.adam_end())),
        (trainer, "combined_reward",
         _wrap(tracer, "losses.combined_reward", trainer.combined_reward,
               after=lambda *a, **k: stages.reward_end())),
        (trainer, "_checksums",
         _wrap(tracer, "trainer.checksums", trainer._checksums,
               before=lambda *a, **k: stages.checksums_begin(),
               after=lambda *a, **k: stages.checksums_end())),
        (eval_harness, "lasso_fit",
         _wrap(tracer, "eval_harness.lasso_fit", eval_harness.lasso_fit,
               after=lasso_after)),
    ]
    out += [(numcore, op, _numcore_op(tracer, op, getattr(numcore, op)))
            for op in NUMCORE_OPS]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, stages) -> dict:
    """Every per-layer metric of one traced run, keyed by metric name."""
    totals = tracer.totals()
    counts = tracer.counts
    out = {metric: totals.get(span, 0.0)
           for metric, span in SPAN_METRICS.items()}
    out.update({metric: counts.get(metric, 0) for metric in COUNT_METRICS})
    # backward's own traversal and accumulation; op VJPs are the bwd spans
    out["numcore.backward_s"] = tracer.self_totals().get("numcore.backward",
                                                         0.0)
    out["view_generator.candidates"] = _ratio(
        counts.get("view_generator.candidates", 0),
        counts.get("view_generator.candidate_sets", 0))
    out["view_generator.sparsify_keep_frac"] = _ratio(
        counts.get("view_generator.kept", 0),
        counts.get("view_generator.scored", 0))
    for what in ("view_nodes", "view_edges"):
        out[f"view_generator.{what}"] = _ratio(
            counts.get(f"view_generator.{what}", 0),
            counts.get("view_generator.views", 0))
    out["losses.shared_frac"] = _ratio(counts.get("losses.shared_nodes", 0),
                                       counts.get("losses.view_nodes", 0))
    out.update(stages.metrics())
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("_frac"):
        return "ratio"
    return "count"
