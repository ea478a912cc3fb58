"""Batch command-line front end.

Commands are pure functions of config plus input files to output files:
``synth``, ``ingest``, ``build-graph``, ``train``, ``embed``, ``eval``,
``ablate``, ``case``, ``gradcheck``, ``sweep``. ``main`` holds the one
contract they share: every command but ``gradcheck`` needs ``--out``;
``--config FILE``, ``--set key=value`` and ``--seed`` are resolved once,
before any work; a command that writes a directory leaves ``run.json``
there; a command exits 0 on success and 1 with a single ``error: ...``
line on stderr otherwise. The master ``--seed`` overrides both
``train.seed`` and ``synth.seed``, except that ``ablate`` and ``sweep``
take ``train.seed`` and ``train.variant`` only from their own flags and
reject either when set any other way. ``ablate`` writes ``ablation.csv``,
and ``robustness.csv`` from the same arms when the bundle has crime
targets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple

from . import config as cfgmod
from .errors import ConfigError, ContractError, DataError, TrainingAborted
from .eval_harness import (ablation_rows, check_probe_folds, density_table,
                           mean_metrics, pair_similarity, probe_all, run_arms,
                           write_ablation_csv, write_robustness_csv)
from .gradcheck import DEFAULT_TOLERANCE, run_gradcheck
from .hetero_graph import dump_jsonl, RelationType
from .poi_embedding import train_skipgram
from .region_data import load_dataset, load_dataset_dir, synth_dataset, \
    write_csv, write_dataset
from .trainer import (VARIANTS, build_graph, config_hash, export_embeddings,
                      load_embeddings, train, write_loss_csv)

_CLI_ERRORS = (ConfigError, ContractError, DataError, TrainingAborted,
               OSError)


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, "
                          f"got {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds: names no seed")
    return seeds


def _parse_pairs(text: str) -> list:
    pairs = []
    for chunk in text.split(","):
        if chunk.count(":") != 1:
            raise ConfigError(f"--pairs: expected i:j entries, got {chunk!r}")
        a, b = chunk.split(":")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ConfigError(f"--pairs: expected integers, "
                              f"got {chunk!r}") from None
    if not pairs:
        raise ConfigError("--pairs: empty pair list")
    return pairs


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# what ablate and sweep say of a train.variant they were given
_VARIANT_HINTS = {
    "ablate": "use --variants",
    "sweep": "sweep trains FULL only, compare variants with ablate "
             "--variants",
}


def _reject_arm_keys(command: str, given: dict) -> None:
    """Refuse train keys that ablate's and sweep's own flags overwrite per
    run, even when they are set to their defaults."""
    if command not in _VARIANT_HINTS:
        return
    for key, hint in (("train.variant", _VARIANT_HINTS[command]),
                      ("train.seed", "use --seeds")):
        if key in given:
            raise ConfigError(f"{command} ignores {key}={given[key]!r} "
                              f"from --config, --set or --seed: {hint}")


def _load_model_embeddings(model_dir: str):
    return load_embeddings(os.path.join(model_dir, "embeddings.bin"))


def cmd_synth(args, values: dict) -> dict:
    ds = synth_dataset(cfgmod.build_synth_config(values))
    write_dataset(ds, args.out)
    print(f"wrote dataset I={ds.n_regions} T={ds.T} to {args.out}")
    return {"n_regions": ds.n_regions, "n_slots": ds.T}


def cmd_ingest(args, values: dict) -> dict:
    ds = load_dataset(args.poi, args.traj, args.centroids, args.targets)
    write_dataset(ds, args.out)
    print(f"ingested dataset I={ds.n_regions} T={ds.T} "
          f"trips={len(ds.trajectories)} to {args.out}")
    return {"n_regions": ds.n_regions, "n_slots": ds.T,
            "n_trips": len(ds.trajectories)}


def cmd_build_graph(args, values: dict) -> dict:
    ds = load_dataset_dir(args.data)
    train_cfg = cfgmod.build_train_config(values)
    table = train_skipgram(ds.poi, train_cfg.skipgram)
    graph = build_graph(ds, table, train_cfg)
    os.makedirs(args.out, exist_ok=True)
    dump_jsonl(graph, os.path.join(args.out, "graph.jsonl"))
    stats = {"n_nodes": graph.n_nodes, "I": graph.I, "T": graph.T,
             "edges": {rel.value: len(graph.edges[rel])
                       for rel in RelationType}}
    _write_json(os.path.join(args.out, "graph_stats.json"), stats)
    print(f"built graph n={graph.n_nodes} edges="
          + ",".join(f"{rel}:{n}" for rel, n in stats["edges"].items()))
    return {"stats": stats}


def cmd_train(args, values: dict) -> dict:
    train_cfg = cfgmod.build_train_config(values)
    ds = load_dataset_dir(args.data)
    os.makedirs(args.out, exist_ok=True)
    model = train(ds, train_cfg)
    export_embeddings(model, os.path.join(args.out, "embeddings.bin"))
    write_loss_csv(model.history, os.path.join(args.out, "loss.csv"))
    print(f"trained {train_cfg.epochs} epochs, "
          f"loss {model.history[0].loss:.4f} -> "
          f"{model.history[-1].loss:.4f}, wrote {args.out}")
    return {"config_hash": config_hash(train_cfg),
            "final_loss": model.history[-1].loss}


def cmd_embed(args, values: dict) -> None:
    matrix, header = _load_model_embeddings(args.model)
    write_csv(args.out, ["region"] + [f"e{k}" for k in range(header["d"])],
              ([i] + row for i, row in enumerate(matrix.tolist())))
    print(f"wrote {header['I']} x {header['d']} embeddings to {args.out}")


def cmd_eval(args, values: dict) -> dict:
    ds = load_dataset_dir(args.data)
    matrix, _ = _load_model_embeddings(args.model)
    if matrix.shape[0] != ds.n_regions:
        raise DataError(f"embeddings cover {matrix.shape[0]} regions, "
                        f"dataset has {ds.n_regions}")
    eval_cfg = cfgmod.build_eval_config(values)
    check_probe_folds(ds.n_regions, eval_cfg)
    probes = probe_all(matrix, ds, eval_cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "eval.csv")
    write_csv(path, ["task", "mae", "mape", "rmse"],
              ([task, *astuple(m)] for task, (_, m) in sorted(probes.items())))
    print(f"wrote probe metrics for {len(probes)} tasks to {path}")
    return {}


def cmd_ablate(args, values: dict) -> dict:
    out = args.out
    seeds = _parse_seeds(args.seeds)
    variants = VARIANTS if args.variants is None else \
        tuple(part for part in args.variants.split(",") if part != "")
    if not variants:
        raise ConfigError("--variants: names no variant")
    ds = load_dataset_dir(args.data)
    arms = run_arms(ds, variants, seeds, cfgmod.build_train_config(values),
                    cfgmod.build_eval_config(values))
    os.makedirs(out, exist_ok=True)
    rows = ablation_rows(arms)
    write_ablation_csv(rows, os.path.join(out, "ablation.csv"))
    print(f"wrote {len(rows)} ablation rows to {out}/ablation.csv")
    robustness = os.path.join(out, "robustness.csv")
    if "crime" in ds.targets:
        write_robustness_csv(density_table(ds, arms), robustness)
        print(f"wrote crime metrics per density bin to {out}/robustness.csv")
    elif os.path.exists(robustness):
        os.remove(robustness)  # an earlier run's table, not this run's
    return {"variants": list(variants), "seeds": list(seeds)}


def cmd_case(args, values: dict) -> None:
    pairs = _parse_pairs(args.pairs)
    matrix, _ = _load_model_embeddings(args.model)
    cosines = pair_similarity(matrix, pairs)
    write_csv(args.out, ["region_a", "region_b", "cosine"],
              ([a, b, c] for (a, b), c in zip(pairs, cosines.tolist())))
    print(f"wrote {len(pairs)} pair similarities to {args.out}")


def cmd_gradcheck(args, values: dict) -> None:
    # nan or a negative bound fails every stage, inf passes every one
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"gradcheck needs a finite --tol > 0, "
                          f"got {args.tol}")
    worst = run_gradcheck(n_points=args.points,
                          seed=args.seed if args.seed is not None else 0)
    for stage, err in worst.items():
        print(f"{stage:24s} points={args.points:3d} max_rel_err={err:.3e}  "
              f"{'ok' if err < args.tol else 'FAIL'}")
    if not all(err < args.tol for err in worst.values()):
        raise ContractError("gradient check failed")


def cmd_sweep(args, values: dict) -> dict:
    if args.param.startswith("synth."):
        raise ConfigError("sweep varies the model, not the dataset; "
                          f"got {args.param!r}")
    if args.param in ("train.seed", "train.variant"):
        raise ConfigError(f"sweep trains FULL once per --seeds value, so it "
                          f"cannot vary {args.param!r}")
    seeds = _parse_seeds(args.seeds)
    grid = [cfgmod.cast_value(args.param, raw)
            for raw in args.values.split(",")]
    if len(set(grid)) != len(grid):
        raise ConfigError(f"--values: a value is named twice in {grid}")
    # every point's configs are built, so checked, before any training
    points = [{**values, args.param: value} for value in grid]
    cfgs = [(cfgmod.build_train_config(point), cfgmod.build_eval_config(point))
            for point in points]
    ds = load_dataset_dir(args.data)
    if args.task not in ds.targets:
        raise DataError(f"task {args.task!r} absent from dataset targets")
    rows = []
    for value, (train_cfg, eval_cfg) in zip(grid, cfgs):
        arms = run_arms(ds, ("FULL",), seeds, train_cfg, eval_cfg)
        rows.append((value, mean_metrics(
            [arms["FULL", seed][args.task][1] for seed in sorted(seeds)])))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_csv(path, ["param", "value", "task", "mae", "mape", "rmse"],
              ([args.param, value, args.task, *astuple(m)]
               for value, m in rows))
    print(f"wrote {len(rows)} sweep rows to {path}")
    return {"param": args.param, "grid": [repr(v) for v in grid],
            "seeds": list(seeds), "task": args.task}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key = value config file")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (sets train.seed and synth.seed)")
    common.add_argument("--out", default=None, help="output directory/file")

    parser = argparse.ArgumentParser(
        prog="regioncl",
        description="Urban region embeddings from multi-view graphs: "
                    "dataset tooling, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common],
                   help="generate a synthetic dataset")

    p = sub.add_parser("ingest", parents=[common],
                       help="validate and normalize raw CSVs")
    p.add_argument("--poi", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--centroids", required=True)
    p.add_argument("--targets", default=None)

    p = sub.add_parser("build-graph", parents=[common],
                       help="fuse POI/mobility/distance graphs")
    p.add_argument("--data", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train embeddings on a dataset")
    p.add_argument("--data", required=True)

    p = sub.add_parser("embed", parents=[common],
                       help="export trained embeddings as CSV")
    p.add_argument("--model", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="linear-probe a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("ablate", parents=[common],
                       help="run ablation variants across seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", default=None,
                   help="comma list, default all variants")
    p.add_argument("--seeds", default="0,1,2,3,4")

    p = sub.add_parser("case", parents=[common],
                       help="cosine similarity for region pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True, help="e.g. 3:7,1:9")

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference gradient verification")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("sweep", parents=[common],
                       help="grid over one config key, one row per value")
    p.add_argument("--data", required=True)
    p.add_argument("--param", required=True, help="config key, e.g. loss.beta")
    p.add_argument("--values", required=True, help="comma list of values")
    p.add_argument("--task", default="crime")
    p.add_argument("--seeds", default="0")

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "build-graph": cmd_build_graph,
    "train": cmd_train,
    "embed": cmd_embed,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "case": cmd_case,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command: refuse a missing --out (``gradcheck`` writes
    nothing), read --config once and resolve it with --set and --seed,
    refuse an arm key given to ``ablate`` or ``sweep``, call the command
    with the resolved values, and write ``run.json`` from the facts it
    returns.
    Any package error becomes one ``error:`` line and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        if not args.out and args.command != "gradcheck":
            raise ConfigError(f"{args.command}: missing --out")
        given = cfgmod.assigned(args.config, args.set, args.seed)
        _reject_arm_keys(args.command, given)
        values = cfgmod.resolve(given)
        facts = _COMMANDS[args.command](args, values)
        if facts is not None:
            _write_json(os.path.join(args.out, "run.json"),
                        {"command": args.command, "config": values, **facts})
    except _CLI_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
