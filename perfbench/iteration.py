"""One train + probe of a workload, in a process of its own.

Usage: python3 perfbench/iteration.py --workload NAME --data DIR
           [--setup-repeats R] [--trace 0|1]

Runs the library the way ``regioncl train`` + ``regioncl eval`` do:
``load_dataset_dir`` + ``train_skipgram`` (repeated R times, timed each
time), then ``train``, then ``probe_all``. Prints one JSON object: wall
times, peak RSS, probe quality, the embeddings' SHA-256 and the
correctness checks; with ``--trace 1`` also the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import train_config  # noqa: E402


def mean_predictor_mae(y, cfg) -> float:
    """MAE of predicting each held-out fold by its training-fold mean."""
    import numpy as np
    from regioncl.eval_harness import cv_folds

    pred = np.empty_like(y)
    for fold in cv_folds(y.size, cfg.folds, cfg.cv_seed):
        pred[fold] = np.delete(y, fold).mean()
    return float(np.abs(pred - y).mean())


def run(workload: str, data_dir: str, setup_repeats: int, tracer=None,
        stages=None) -> dict:
    import numpy as np
    from regioncl.eval_harness import EvalConfig, probe_all, task_targets
    from regioncl.poi_embedding import train_skipgram
    from regioncl.region_data import load_dataset_dir
    from regioncl.trainer import region_embeddings, train

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    cfg = train_config(workload)
    setup_s = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        with span("region_data.load"):
            ds = load_dataset_dir(data_dir)
        with span("poi_embedding.skipgram"):
            table = train_skipgram(ds.poi, cfg.skipgram)
        setup_s.append(time.perf_counter() - t0)

    if stages is not None:
        stages.begin_train(cfg)
    t0 = time.perf_counter()
    model = train(ds, cfg, table=table)
    train_s = time.perf_counter() - t0

    eval_cfg = EvalConfig()
    E = region_embeddings(model)
    t0 = time.perf_counter()
    probes = probe_all(E, ds, eval_cfg)
    probe_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    targets = task_targets(ds)
    rel = [probes[task][1].mae / mean_predictor_mae(targets[task], eval_cfg)
           for task in sorted(probes)]
    losses = [r.loss for r in model.history]
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "probe_rel_mae": float(np.mean(rel)),
        "sha256": hashlib.sha256(np.ascontiguousarray(E).tobytes()).hexdigest(),
        "checks": {
            "losses_finite": bool(np.all(np.isfinite(losses))),
            "loss_decreased": bool(losses[-1] < losses[0]),
            "embeddings_finite": bool(np.all(np.isfinite(E))),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--setup-repeats", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not args.trace:
        result = run(args.workload, args.data, args.setup_repeats)
    else:
        from layers import StageClock, hooks, layer_metrics
        from tracer import Tracer, rebound

        tracer = Tracer()
        stages = StageClock(tracer.clock)
        with rebound(hooks(tracer, stages)):
            result = run(args.workload, args.data, args.setup_repeats,
                         tracer, stages)
        result["layers"] = layer_metrics(tracer, stages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
