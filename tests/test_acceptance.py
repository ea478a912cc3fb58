"""Acceptance gate: one test per release criterion.

Each test computes its verdict, queues a human-readable line for the
terminal summary (see conftest), and then asserts. Oracles are written
from first principles: per-node message-passing loops, double-loop
contrastive sums, exhaustive small-graph enumeration.
"""

from __future__ import annotations

import csv
import math
import time
from itertools import combinations

import numpy as np
from conftest import edge_rows, record_criterion, record_note

from regioncl import numcore as nc
from regioncl.cli import main
from regioncl.eval_harness import metrics
from regioncl.gradcheck import run_gradcheck
from regioncl.hetero_graph import RelationType, normalized_adjacency
from regioncl.hgnn_encoder import encode, init_encoder
from regioncl.losses import (ViewEmbeddings, info_bn, info_nce, reward_r1,
                             reward_r2)
from regioncl.numcore import GradientTape, Tensor
from regioncl.poi_embedding import (SkipgramConfig, attention_weights,
                                    init_attention, train_skipgram)
from regioncl.region_data import SynthConfig, synth_dataset
from regioncl.trainer import (TrainConfig, build_graph, export_embeddings,
                              load_embeddings, train)
from regioncl.view_generator import (SamplingMatrix, generate_views,
                                     init_vgae, reconstruction_loss,
                                     sparsify)


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    errors = run_gradcheck(n_points=20, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 60.0
    record_criterion(1, ok, f"all {len(errors)} stages, "
                            f"max_rel_err={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# --- criterion 2: oracle equivalence ---------------------------------------

def _connected(n: int, edges: frozenset) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def _all_connected_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        if _connected(n, edges):
            yield edges


def _norm_adj_bruteforce(n: int, edges: frozenset) -> list:
    """Per-entry D^{-1/2}(A+Id)D^{-1/2} without any matrix algebra."""
    def linked(i, j):
        return i == j or (min(i, j), max(i, j)) in edges

    deg = [sum(1 for j in range(n) if linked(i, j)) for i in range(n)]
    return [[(1.0 / math.sqrt(deg[i] * deg[j]) if linked(i, j) else 0.0)
             for j in range(n)] for i in range(n)]


def _encode_bruteforce(n: int, edges_by_rel: dict, H0: np.ndarray,
                       layer_weights: list) -> np.ndarray:
    ahat = {rel: _norm_adj_bruteforce(n, es)
            for rel, es in edges_by_rel.items()}
    h = [H0[i].copy() for i in range(n)]
    total = [H0[i].copy() for i in range(n)]
    for layer in layer_weights:
        new = []
        for i in range(n):
            msg = np.zeros_like(h[0])
            for rel in edges_by_rel:
                W = layer[rel]
                for j in range(n):
                    msg = msg + ahat[rel][i][j] * (W @ h[j])
            new.append(np.maximum(msg, 0.0))
        h = new
        total = [t + x for t, x in zip(total, new)]
    return np.stack(total)


def _split_relations(edges: frozenset) -> dict:
    ordered = sorted(edges)
    return {RelationType.MOBILITY: frozenset(ordered[0::2]),
            RelationType.DISTANCE: frozenset(ordered[1::2])}


def _nce_double_loop(A: np.ndarray, B: np.ndarray, tau: float) -> float:
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for i in range(len(A)):
        num = math.exp(cos(A[i], B[i]) / tau)
        den = sum(math.exp(cos(A[i], B[j]) / tau) for j in range(len(B)))
        total += -math.log(num / den)
    return total


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(0)
    d = 3
    counts = {}
    worst_encode = 0.0
    for n in range(1, 6):
        for edges in _all_connected_graphs(n):
            counts[n] = counts.get(n, 0) + 1
            cases = [{RelationType.MOBILITY: edges}]
            if len(edges) >= 2:
                cases.append(_split_relations(edges))
            H0 = rng.normal(size=(n, d))
            for edges_by_rel in cases:
                tape = GradientTape()
                params = init_encoder(tape, "enc", d, 2,
                                      list(edges_by_rel), rng)
                adj = {rel: normalized_adjacency(n, edge_rows(es))
                       for rel, es in edges_by_rel.items()}
                got = encode(adj, Tensor(H0), params).data
                weights = [{rel: layer[rel].data for rel in edges_by_rel}
                           for layer in params.layers]
                want = _encode_bruteforce(n, edges_by_rel, H0, weights)
                worst_encode = max(worst_encode,
                                   float(np.max(np.abs(got - want))))
    # A001187: connected labeled graphs; guards the enumeration itself.
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}

    worst_nce = 0.0
    for trial in range(10):
        trng = np.random.default_rng(100 + trial)
        A = trng.normal(size=(5, 4))
        B = trng.normal(size=(5, 4))
        views = ViewEmbeddings(h1=Tensor(A), nodes1=tuple(range(5)),
                               h2=Tensor(B), nodes2=tuple(range(5)))
        got = info_nce(views, tau=0.5).item()
        worst_nce = max(worst_nce, abs(got - _nce_double_loop(A, B, 0.5)))

    # Partial overlap: only rows for the shared ids enter the sum.
    A = rng.normal(size=(5, 4))
    B = rng.normal(size=(5, 4))
    views = ViewEmbeddings(h1=Tensor(A), nodes1=(0, 1, 2, 3, 4),
                           h2=Tensor(B), nodes2=(2, 3, 4, 5, 6))
    got = info_nce(views, tau=0.5).item()
    want = _nce_double_loop(A[2:5], B[0:3], 0.5)
    worst_nce = max(worst_nce, abs(got - want))

    worst_bn = 0.0
    for trial in range(10):
        trng = np.random.default_rng(200 + trial)
        h1, h1a = trng.normal(size=(4, 3)), trng.normal(size=(4, 3))
        h2, h2a = trng.normal(size=(6, 3)), trng.normal(size=(6, 3))
        got = info_bn(Tensor(h1), Tensor(h1a), Tensor(h2), Tensor(h2a),
                      tau=0.7).item()
        want = (_nce_double_loop(h1, h1a, 0.7)
                + _nce_double_loop(h2, h2a, 0.7))
        worst_bn = max(worst_bn, abs(got - want))

    ok = worst_encode <= 1e-9 and worst_nce <= 1e-10 and worst_bn <= 1e-10
    record_criterion(2, ok, f"772 graphs, encode diff={worst_encode:.1e}, "
                            f"NCE diff={worst_nce:.1e}, "
                            f"BN diff={worst_bn:.1e}")
    assert worst_encode <= 1e-9
    assert worst_nce <= 1e-10
    assert worst_bn <= 1e-10


def test_criterion_3_closed_forms():
    # Constant rows make every pairwise cosine 1, so the softmax is uniform.
    N = 5
    H = np.tile(np.array([0.4, -1.1, 0.6]), (N, 1))
    views = ViewEmbeddings(h1=Tensor(H), nodes1=tuple(range(N)),
                           h2=Tensor(H.copy()), nodes2=tuple(range(N)))
    nce = info_nce(views, tau=0.5).item()
    nce_ok = abs(nce - N * math.log(N)) <= 1e-9

    A = np.random.default_rng(3).normal(size=(4, 3))
    ident = ViewEmbeddings(h1=Tensor(A), nodes1=tuple(range(4)),
                           h2=Tensor(A.copy()), nodes2=tuple(range(4)))
    r2 = reward_r2(ident)
    r2_ok = abs(r2) <= 1e-12

    r1 = reward_r1(1.2, eps_prime=1.2, xi=0.1)
    r1_ok = r1 == 0.1

    P = SamplingMatrix(pairs=edge_rows({(0, 1)}), scores=Tensor(np.zeros(1)),
                       n_nodes=2)
    bce = reconstruction_loss(P, edge_rows({(0, 1)})).item()
    bce_ok = abs(bce - math.log(2.0)) <= 1e-12

    ok = nce_ok and r2_ok and r1_ok and bce_ok
    record_criterion(3, ok, f"NCE={nce:.12f} (~{N}ln{N}), R2={r2:.1e}, "
                            f"R1(boundary)={r1}, BCE(p=0)={bce:.12f}")
    assert nce_ok and r2_ok and r1_ok and bce_ok


def test_criterion_4_convergence(clean_runs):
    histories, elapsed = clean_runs
    verdicts = {seed: h[-1].loss < h[0].loss for seed, h in histories.items()}
    ok = all(verdicts.values()) and elapsed < 300.0
    passing = sum(verdicts.values())
    record_criterion(4, ok, f"L(50)<L(1) for {passing}/5 seeds, "
                            f"{elapsed:.0f}s total")
    for seed, h in histories.items():
        assert verdicts[seed], (f"seed {seed}: loss rose "
                                f"{h[0].loss:.1f} -> {h[-1].loss:.1f}")
    assert elapsed < 300.0


def _mean_probe_mae(arms: dict, variant: str) -> float:
    """Mean over tasks of the seed-mean out-of-fold MAE of one variant."""
    runs = [probes for (v, _), probes in arms.items() if v == variant]
    return float(np.mean([np.mean([probes[task][1].mae for probes in runs])
                          for task in runs[0]]))


def test_criterion_5_augmentation_value(noisy_eval):
    arms = noisy_eval["arms"]
    full = _mean_probe_mae(arms, "FULL")
    rand = _mean_probe_mae(arms, "RANDOM_AUG")
    noim = _mean_probe_mae(arms, "NO_INFOMIN")
    hard_ok = full <= rand
    record_criterion(5, hard_ok,
                     f"mean probe MAE: FULL={full:.3f} "
                     f"RANDOM_AUG={rand:.3f} (hard)")
    advisory = "holds" if full <= noim else "violated"
    record_note(5, f"advisory FULL<=NO_INFOMIN {advisory}: "
                   f"FULL={full:.3f} NO_INFOMIN={noim:.3f}")
    assert hard_ok


def test_criterion_6_sparse_bin_robustness(noisy_eval):
    bins = noisy_eval["bins"]
    sparse, mid = "(0.00,0.25]", "(0.25,0.50]"
    # every variant slices the same regions, so FULL's bins stand for all
    populated = sparse in bins["FULL"] and mid in bins["FULL"]
    full, rand = bins["FULL"][sparse].mae, bins["RANDOM_AUG"][sparse].mae
    ok = populated and full <= rand
    record_criterion(6, ok, f"bins populated={populated}, sparse-bin MAE: "
                            f"FULL={full:.3f} RANDOM_AUG={rand:.3f}")
    assert populated, f"bins present: {sorted(bins['FULL'])}"
    assert full <= rand


SMALL_CLI = ["--set", "model.d=8", "--set", "model.heads=2",
             "--set", "model.n_layers=2", "--set", "poi.d_sg=8",
             "--set", "poi.epochs=40", "--set", "train.epochs=2"]


def test_criterion_7_sweep_grid(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "sweep"
    assert main(["synth", "--out", str(data_dir),
                 "--set", "synth.n_regions=10", "--set", "synth.n_slots=2",
                 "--set", "synth.n_trips=150"]) == 0
    grid = ["0.0", "0.1", "0.3", "0.5"]
    assert main(["sweep", "--data", str(data_dir), "--out", str(out_dir),
                 "--param", "loss.beta", "--values", ",".join(grid),
                 "--seeds", "0", *SMALL_CLI]) == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [row["value"] for row in rows]
    ok = values == grid and all(row["param"] == "loss.beta" for row in rows)
    record_criterion(7, ok, f"beta grid rows={values}")
    assert values == grid
    assert all(row["param"] == "loss.beta" for row in rows)


def test_criterion_8_determinism(tmp_path):
    ds = synth_dataset(SynthConfig(n_regions=10, n_categories=6, n_slots=2,
                                   n_trips=150, n_clusters=2, seed=1))
    cfg = TrainConfig(epochs=3, lr=0.005, d=8, heads=2, n_layers=2,
                      skipgram=SkipgramConfig(d_sg=8, epochs=40, seed=3),
                      seed=7)
    paths = []
    for k in range(2):
        model = train(ds, cfg)
        path = tmp_path / f"emb{k}.bin"
        export_embeddings(model, str(path))
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1]

    matrix, header = load_embeddings(str(paths[0]))
    model = train(ds, cfg)
    round_trip = (np.array_equal(matrix, model.H[:10])
                  and header["I"] == 10 and header["d"] == 8)
    ok = identical and round_trip
    record_criterion(8, ok, f"bit-identical files={identical}, "
                            f"round-trip exact={round_trip}")
    assert identical
    assert round_trip


def test_criterion_9_invariants():
    rng = np.random.default_rng(5)
    checks = {}

    X = rng.normal(size=(5, 7))
    rows = nc.softmax_rows(Tensor(X)).data.sum(axis=1)
    checks["softmax rows"] = bool(np.allclose(rows, 1.0, atol=1e-12))

    tape = GradientTape()
    attn = init_attention(tape, "attn", d=8, heads=2, rng=rng)
    E = Tensor(rng.normal(size=(6, 8)))
    head_rows = [w.data.sum(axis=1) for w in attention_weights(E, attn)]
    checks["attention rows"] = bool(all(np.allclose(r, 1.0, atol=1e-12)
                                        for r in head_rows))

    sym = True
    for n, n_edges in ((4, 3), (7, 9), (12, 20)):
        all_pairs = list(combinations(range(n), 2))
        pick = rng.choice(len(all_pairs), size=min(n_edges, len(all_pairs)),
                          replace=False)
        A = normalized_adjacency(n, edge_rows(all_pairs[i] for i in pick)
                                 ).toarray()
        sym &= bool(np.allclose(A, A.T)
                    and A.min() >= 0.0 and A.max() <= 1.0)
    checks["A_hat symmetric, entries in [0,1]"] = sym

    P = SamplingMatrix(pairs=edge_rows({(0, 1), (0, 2), (1, 2)}),
                       scores=Tensor(np.array([2.0, -2.0, 0.0])), n_nodes=3)
    checks["sparsify binary"] = sparsify(P, 0.5).tolist() == [[0, 1], [1, 2]]

    ds = synth_dataset(SynthConfig(n_regions=6, n_categories=6, n_slots=2,
                                   n_trips=60, n_clusters=2, seed=3))
    table = train_skipgram(ds.poi, SkipgramConfig(d_sg=8, epochs=40, seed=3))
    cfg = TrainConfig(epochs=1, d=8, heads=2, n_layers=2,
                      skipgram=SkipgramConfig(d_sg=8, epochs=40, seed=3))
    graph = build_graph(ds, table, cfg)
    vtape = GradientTape()
    vrng = np.random.default_rng(9)
    g1 = init_vgae(vtape, "v1", 8, vrng)
    g2 = init_vgae(vtape, "v2", 8, vrng)
    H = Tensor(vrng.normal(size=(graph.n_nodes, 8)))
    views = generate_views(graph, H, g1, g2, cfg.view, vrng)
    checks["seeds in both views"] = all(
        set(views.views[0].seeds.tolist()) <= set(view.nodes.tolist())
        for view in views.views)

    rmse_ok = True
    for _ in range(20):
        pred, truth = rng.normal(size=10), rng.normal(size=10)
        m = metrics(pred, truth)
        rmse_ok &= m.rmse >= m.mae - 1e-12
    checks["RMSE >= MAE"] = rmse_ok

    A = rng.normal(size=(5, 4))
    B = rng.normal(size=(5, 4))
    base_views = ViewEmbeddings(h1=Tensor(A), nodes1=tuple(range(5)),
                                h2=Tensor(B), nodes2=tuple(range(5)))
    scaled = ViewEmbeddings(h1=Tensor(7.3 * A), nodes1=tuple(range(5)),
                            h2=Tensor(7.3 * B), nodes2=tuple(range(5)))
    nce_inv = abs(info_nce(base_views, 0.5).item()
                  - info_nce(scaled, 0.5).item()) <= 1e-9
    bn_inv = abs(info_bn(Tensor(A), Tensor(B), Tensor(A), Tensor(B),
                         0.5).item()
                 - info_bn(Tensor(7.3 * A), Tensor(7.3 * B),
                           Tensor(7.3 * A), Tensor(7.3 * B),
                           0.5).item()) <= 1e-9
    checks["cosine losses scale-invariant"] = bool(nce_inv and bn_inv)

    failed = sorted(name for name, passed in checks.items() if not passed)
    record_criterion(9, not failed,
                     f"{len(checks)} invariant families"
                     + (f", failed: {failed}" if failed else ""))
    assert not failed, failed
