"""Batch command-line front end.

Commands are pure functions of config plus input files to output files:
``synth``, ``ingest``, ``build-graph``, ``train``, ``embed``, ``eval``,
``ablate``, ``robustness``, ``case``, ``gradcheck``, ``sweep``. Every
command exits 0 on success and 1 with a single ``error: ...`` line on
stderr otherwise. ``--config FILE``, ``--set key=value``, ``--seed`` and
``--out`` are accepted everywhere; the master ``--seed`` overrides both
``train.seed`` and ``synth.seed``, except that ``ablate``, ``robustness``
and ``sweep`` take ``train.seed`` and ``train.variant`` only from their own
flags and reject either when set any other way.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .errors import (ConfigError, ContractError, DataError,
                     DegenerateBatchError, ShapeError, TrainingAborted)
from .eval_harness import (EvalConfig, Metrics, average_bins, probe_all,
                           robustness_by_density, run_arms,
                           pair_similarity, write_ablation_csv,
                           write_robustness_csv)
from .gradcheck import run_gradcheck
from .hetero_graph import dump_jsonl, RelationType
from .poi_embedding import train_skipgram
from .region_data import load_dataset, load_dataset_dir, synth_dataset, \
    write_dataset
from .trainer import (VARIANTS, build_graph, config_hash, export_embeddings,
                      load_embeddings, region_embeddings, train,
                      write_loss_csv)

_CLI_ERRORS = (ConfigError, ContractError, DataError, DegenerateBatchError,
               ShapeError, TrainingAborted, OSError)


def _require_out(args) -> str:
    if not args.out:
        raise ConfigError(f"{args.command}: missing --out")
    return args.out


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, "
                          f"got {text!r}") from None


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


def _write_run_record(out_dir: str, command: str, values: dict,
                      extra: dict | None = None) -> None:
    record = {"command": command, "config": values}
    if extra:
        record.update(extra)
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _resolved(args) -> dict:
    return cfgmod.resolve(config_path=args.config, assignments=args.set,
                          seed=args.seed)


def _reject_arm_keys(args, values: dict, variant_hint: str) -> None:
    """Refuse train keys the command's own flags overwrite per run."""
    for key, hint in (("train.variant", variant_hint),
                      ("train.seed", "use --seeds")):
        if values[key] != cfgmod.DEFAULTS[key]:
            raise ConfigError(f"{args.command} ignores {key}={values[key]!r} "
                              f"from --config, --set or --seed: {hint}")


def _load_model_embeddings(model_dir: str):
    return load_embeddings(os.path.join(model_dir, "embeddings.bin"))


def cmd_synth(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    ds = synth_dataset(cfgmod.build_synth_config(values))
    write_dataset(ds, out)
    _write_run_record(out, "synth", values,
                      {"n_regions": ds.n_regions, "n_slots": ds.T})
    print(f"wrote dataset I={ds.n_regions} T={ds.T} to {out}")
    return 0


def cmd_ingest(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    ds = load_dataset(args.poi, args.traj, args.centroids, args.targets)
    write_dataset(ds, out)
    _write_run_record(out, "ingest", values,
                      {"n_regions": ds.n_regions, "n_slots": ds.T,
                       "n_trips": len(ds.trajectories)})
    print(f"ingested dataset I={ds.n_regions} T={ds.T} "
          f"trips={len(ds.trajectories)} to {out}")
    return 0


def cmd_build_graph(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    ds = load_dataset_dir(args.data)
    train_cfg = cfgmod.build_train_config(values)
    table = train_skipgram(ds.poi, train_cfg.skipgram)
    graph = build_graph(ds, table, train_cfg)
    os.makedirs(out, exist_ok=True)
    dump_jsonl(graph, os.path.join(out, "graph.jsonl"))
    stats = {"n_nodes": graph.n_nodes, "I": graph.I, "T": graph.T,
             "edges": {rel.value: len(graph.edges[rel])
                       for rel in RelationType}}
    with open(os.path.join(out, "graph_stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_run_record(out, "build-graph", values, {"stats": stats})
    print(f"built graph n={graph.n_nodes} edges="
          + ",".join(f"{rel.value}:{len(graph.edges[rel])}"
                     for rel in RelationType))
    return 0


def cmd_train(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    train_cfg = cfgmod.build_train_config(values)
    ds = load_dataset_dir(args.data)
    os.makedirs(out, exist_ok=True)
    model = train(ds, train_cfg)
    export_embeddings(model, os.path.join(out, "embeddings.bin"))
    write_loss_csv(model.history, os.path.join(out, "loss.csv"))
    _write_run_record(out, "train", values,
                      {"config_hash": config_hash(train_cfg),
                       "final_loss": model.history[-1].loss})
    print(f"trained {train_cfg.epochs} epochs, "
          f"loss {model.history[0].loss:.4f} -> "
          f"{model.history[-1].loss:.4f}, wrote {out}")
    return 0


def cmd_embed(args) -> int:
    out = _require_out(args)
    matrix, header = _load_model_embeddings(args.model)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["region"] + [f"e{k}" for k in range(header["d"])])
        for i, row in enumerate(matrix):
            writer.writerow([i] + [repr(float(x)) for x in row])
    print(f"wrote {header['I']} x {header['d']} embeddings to {out}")
    return 0


def cmd_eval(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    ds = load_dataset_dir(args.data)
    matrix, _ = _load_model_embeddings(args.model)
    if matrix.shape[0] != ds.n_regions:
        raise DataError(f"embeddings cover {matrix.shape[0]} regions, "
                        f"dataset has {ds.n_regions}")
    probes = probe_all(matrix, ds, cfgmod.build_eval_config(values))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "eval.csv")
    with open(path, "w") as fh:
        fh.write("task,mae,mape,rmse\n")
        for task, (_, m) in sorted(probes.items()):
            fh.write(f"{task},{m.mae!r},{m.mape!r},{m.rmse!r}\n")
    _write_run_record(out, "eval", values)
    print(f"wrote probe metrics for {len(probes)} tasks to {path}")
    return 0


def cmd_ablate(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    _reject_arm_keys(args, values, "use --variants")
    ds = load_dataset_dir(args.data)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    seeds = _parse_int_list(args.seeds, "--seeds")
    rows = run_arms(ds, variants, seeds, cfgmod.build_train_config(values),
                    cfgmod.build_eval_config(values))
    os.makedirs(out, exist_ok=True)
    write_ablation_csv(rows, os.path.join(out, "ablation.csv"))
    _write_run_record(out, "ablate", values,
                      {"variants": list(variants), "seeds": list(seeds)})
    print(f"wrote {len(rows)} ablation rows to {out}/ablation.csv")
    return 0


def cmd_robustness(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    _reject_arm_keys(args, values, "use --variant")
    ds = load_dataset_dir(args.data)
    seeds = _parse_int_list(args.seeds, "--seeds")
    train_cfg = cfgmod.build_train_config(values)
    train_cfg = replace(train_cfg, variant=args.variant)
    eval_cfg = cfgmod.build_eval_config(values)
    table = train_skipgram(ds.poi, train_cfg.skipgram)
    per_seed = [robustness_by_density(ds, replace(train_cfg, seed=s),
                                      eval_cfg, table=table) for s in seeds]
    mean_bins = average_bins(per_seed)
    os.makedirs(out, exist_ok=True)
    write_robustness_csv(mean_bins, os.path.join(out, "robustness.csv"))
    _write_run_record(out, "robustness", values,
                      {"seeds": list(seeds), "variant": args.variant,
                       "bins": sorted(mean_bins)})
    print(f"wrote {len(mean_bins)} density bins to {out}/robustness.csv")
    return 0


def cmd_case(args) -> int:
    out = _require_out(args)
    pairs = _parse_pairs(args.pairs)
    matrix, _ = _load_model_embeddings(args.model)
    cosines = pair_similarity(matrix, pairs)
    with open(out, "w") as fh:
        fh.write("region_a,region_b,cosine\n")
        for (a, b), c in zip(pairs, cosines):
            fh.write(f"{a},{b},{float(c)!r}\n")
    print(f"wrote {len(pairs)} pair similarities to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(n_points=args.points,
                           seed=args.seed if args.seed is not None else 0,
                           tolerance=args.tol)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("error: gradient check failed", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    out = _require_out(args)
    values = _resolved(args)
    if args.param.startswith("synth."):
        raise ConfigError("sweep varies the model, not the dataset; "
                          f"got {args.param!r}")
    if args.param in ("train.seed", "train.variant"):
        raise ConfigError(f"sweep trains FULL once per --seeds value, so it "
                          f"cannot vary {args.param!r}")
    _reject_arm_keys(args, values, "sweep trains FULL only, compare "
                                   "variants with ablate --variants")
    ds = load_dataset_dir(args.data)
    seeds = _parse_int_list(args.seeds, "--seeds")
    grid = [cfgmod.cast_value(args.param, raw)
            for raw in args.values.split(",")]
    eval_cfg = cfgmod.build_eval_config(values)
    rows = []
    for value in grid:
        point = dict(values)
        point[args.param] = value
        arm_rows = run_arms(ds, ("FULL",), seeds,
                            cfgmod.build_train_config(point), eval_cfg)
        picked = [r for r in arm_rows if r.task == args.task]
        if not picked:
            raise DataError(f"task {args.task!r} absent from dataset targets")
        rows.append((value, Metrics(
            mae=float(np.mean([r.mae for r in picked])),
            mape=float(np.mean([r.mape for r in picked])),
            rmse=float(np.mean([r.rmse for r in picked])))))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w") as fh:
        fh.write("param,value,task,mae,mape,rmse\n")
        for value, m in rows:
            fh.write(f"{args.param},{value!r},{args.task},"
                     f"{m.mae!r},{m.mape!r},{m.rmse!r}\n")
    _write_run_record(out, "sweep", values,
                      {"param": args.param, "grid": [repr(v) for v in grid],
                       "seeds": list(seeds), "task": args.task})
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


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

    p = sub.add_parser("robustness", parents=[common],
                       help="crime metrics per density bin")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--variant", default="FULL", choices=VARIANTS)

    p = sub.add_parser("case", parents=[common],
                       help="cosine similarity for region pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True, help="e.g. 3:7,1:9")

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference gradient verification")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)

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
    "robustness": cmd_robustness,
    "case": cmd_case,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CLI_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
