"""regioncl benchmark: train + probe end to end, one fresh process per run.

Usage (from the repository root):
    python3 perfbench/run.py --workload noisy60 --seed 1 --seconds 30 --trace 0

Writes the workload's CSV bundle from the seed, then runs
``perfbench/iteration.py`` back to back (a closed loop of one client) for
``--seconds``: once two iterations are done, it starts none that would end
past that. Every iteration is checked: finite losses, a final loss below the
first, finite embeddings, a probe that beats the training-mean predictor,
and embeddings whose SHA-256 matches every other iteration of the same
workload and source tree.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` traced and untraced runs alternate, and it holds the per-layer
metrics of the traced runs plus the tracing overhead. Earlier lines give
each metric's median, maximum and sample count, and the provenance. The
full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import layer_unit  # noqa: E402
from workloads import WORKLOADS, write_bundle  # noqa: E402

WORK_DIR = ".perfbench"
MIN_RUNS = 2
SETUP_REPEATS = 5
# leave room under the 180 s a whole benchmark invocation may take
HARD_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("probe_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"),
              ("probe_rel_mae", "ratio"), ("ok_frac", "ratio"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def blas_threads() -> int:
    """The caller's BLAS thread setting, capped at the usable cores."""
    cap = nproc()
    raw = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return min(int(raw), cap) if raw.isdigit() and int(raw) > 0 else cap


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "regioncl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(root), "source_digest": source_digest(root),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads, "nproc": nproc(),
            "cpu": cpu}


def reference_key(prov: dict) -> str:
    """What the embeddings' bits depend on: the library source, the workload
    definitions and the float stack."""
    h = hashlib.sha256()
    with open(os.path.join(HERE, "workloads.py"), "rb") as fh:
        h.update(fh.read())
    for k in ("source_digest", "numpy", "blas", "blas_threads"):
        h.update(f"|{prov[k]}".encode())
    return h.hexdigest()[:16]


def run_child(root, workload, data_dir, trace, env, timeout):
    """One iteration in a fresh process; returns (result or None, error)."""
    cmd = [sys.executable, os.path.join(HERE, "iteration.py"),
           "--workload", workload, "--data", data_dir,
           "--trace", str(trace),
           "--setup-repeats", str(1 if trace else SETUP_REPEATS)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def gate(result: dict, reference: str) -> list:
    """Names of the correctness checks this iteration failed."""
    failed = [name for name, ok in result["checks"].items() if not ok]
    if not result["probe_rel_mae"] < 1.0:
        failed.append("probe_beats_mean")
    if result["sha256"] != reference:
        failed.append("embeddings_sha256")
    return failed


def total_s(result: dict) -> float:
    return statistics.median(result["setup_s"]) + result["train_s"] \
        + result["probe_s"]


def summary(values) -> dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


def end_to_end(runs: list, attempted: int, failed: int) -> dict:
    ok = [r["result"] for r in runs if not r["failed"] and not r["trace"]]
    samples = {
        "setup_s": [s for r in ok for s in r["setup_s"]],
        "train_s": [r["train_s"] for r in ok],
        "probe_s": [r["probe_s"] for r in ok],
        "total_s": [total_s(r) for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "probe_rel_mae": [r["probe_rel_mae"] for r in ok],
        "ok_frac": [(attempted - failed) / attempted],
    }
    return {name: summary(samples[name]) | {"unit": unit}
            for name, unit in END_TO_END}


def per_layer(runs: list) -> dict:
    traced = [r["result"] for r in runs if not r["failed"] and r["trace"]]
    plain = [r["result"] for r in runs if not r["failed"] and not r["trace"]]
    out = {name: summary([t["layers"][name] for t in traced])
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = summary(
        [statistics.median([total_s(t) for t in traced])
         - statistics.median([total_s(p) for p in plain])])
    return {name: s | {"unit": layer_unit(name)} for name, s in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "regioncl", "__init__.py")):
        print("error: run from the repository root; src/regioncl is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    t_start = time.monotonic()
    work = os.path.join(root, WORK_DIR)
    data_dir = os.path.join(work, "data", args.workload)
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    write_bundle(args.workload, args.seed, data_dir)
    os.makedirs(os.path.join(work, "ref"), exist_ok=True)
    os.makedirs(os.path.join(work, "results"), exist_ok=True)

    threads = blas_threads()
    env = child_env(threads)
    prov = provenance(root, threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ref_path = os.path.join(work, "ref", f"{args.workload}-"
                            f"{reference_key(prov)}.sha256")
    reference = None
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = fh.read().strip()

    runs: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - t_start
        # stop before an iteration that would end past --seconds
        typical = statistics.mean(durations) if durations else 0.0
        if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
            break
        if durations and elapsed + 1.5 * max(durations) > HARD_LIMIT_S:
            break
        trace = args.trace and len(runs) % 2 == 1
        t0 = time.monotonic()
        result, error = run_child(root, args.workload, data_dir, int(trace),
                                  env, HARD_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t0)
        if result is not None and reference is None \
                and not gate(result, result["sha256"]):
            reference = result["sha256"]
            with open(ref_path, "w") as fh:
                fh.write(reference + "\n")
        failed = [error] if result is None else gate(result, reference)
        runs.append({"trace": bool(trace), "result": result,
                     "failed": failed})
        if failed:
            print(f"run {len(runs)} failed: {', '.join(failed)}",
                  file=sys.stderr)

    attempted = len(runs)
    n_failed = sum(1 for r in runs if r["failed"])
    usable = [r for r in runs if not r["failed"]]
    if not any(not r["trace"] for r in usable) \
            or (args.trace and not any(r["trace"] for r in usable)):
        print("error: no run completed its checks, nothing to report",
              file=sys.stderr)
        return 1
    stats = per_layer(runs) if args.trace else \
        end_to_end(runs, attempted, n_failed)

    wall = time.monotonic() - t_start
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs, {n_failed} failed, {wall:.1f} s")
    for name, s in stats.items():
        print(f"  {name:<40} median {s['median']:<14.6g} "
              f"max {s['max']:<14.6g} n={s['n']} {s['unit']}")
    if args.trace:
        shas = {r["trace"]: r["result"]["sha256"] for r in usable}
        print("  traced embeddings bit-identical to untraced: "
              + ("yes" if shas[True] == shas[False] else "NO"))
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(os.path.join(work, "results", f"{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "provenance": prov,
                   "metrics": stats, "runs": runs}, fh, indent=1)

    metrics = {name: {"value": s["median"], "unit": s["unit"]}
               for name, s in stats.items()}
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
