"""Learned contrastive view generation.

Two variational graph auto-encoders with twin architectures but disjoint
parameters each produce a view: node embeddings are re-encoded with Gaussian
reparameterization noise (H_tilde = noise * std(H) + mean(H)), candidate
node pairs are scored through an element-wise-product MLP, the scores are
thresholded in probability space into a binary graph, and a random-walk
sampler cuts a subgraph. Both views are sampled from the same seed node set
so the contrastive losses always have aligned positives.

Candidate pairs are the union of existing graph edges plus a few sampled
non-edges per node; scoring all |V|^2 pairs would be quadratic and the
reconstruction loss needs negatives anyway.

The recorded sampler graph that ``generate_views`` hands to the sampler
step holds H_tilde, its noise draw and the (E,) scores, and no VGAE or
pair-level activation: ``vgae_encode`` and ``score_edges`` each run
through ``numcore.checkpoint``, which recomputes the MLP activations in
the sampler backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError
from .hetero_graph import HeteroGraph, canonical_edges
from .numcore import GradientTape, Tensor
from .poi_embedding import MlpParams, init_mlp, mlp_forward


@dataclass
class VgaeParams:
    mean_mlp: MlpParams      # d -> d
    std_mlp: MlpParams       # d -> d
    score_mlp: MlpParams     # d -> 1


def init_vgae(tape: GradientTape, prefix: str, d: int,
              rng: np.random.Generator) -> VgaeParams:
    return VgaeParams(
        mean_mlp=init_mlp(tape, f"{prefix}.mean", d, d, d, rng),
        std_mlp=init_mlp(tape, f"{prefix}.std", d, d, d, rng),
        score_mlp=init_mlp(tape, f"{prefix}.score", d, d, 1, rng))


def vgae_encode(H: Tensor, params: VgaeParams, noise: np.ndarray) -> Tensor:
    """Reparameterized encoding noise * std(H) + mean(H) for a given draw.

    Runs through ``numcore.checkpoint`` over H and the two MLPs, so a
    recorded call keeps only its output and the (n, d) ``noise``.
    """
    def reparameterize(h, *mlps):
        mean, std = MlpParams(*mlps[:4]), MlpParams(*mlps[4:])
        return nc.add(nc.mul(Tensor(noise), mlp_forward(h, std)),
                      mlp_forward(h, mean))

    m, s = params.mean_mlp, params.std_mlp
    return nc.checkpoint(reparameterize, H, m.w1, m.b1, m.w2, m.b2,
                         s.w1, s.b1, s.w2, s.b2)


@dataclass
class SamplingMatrix:
    """Raw edge scores for the candidate pairs (one score per unordered pair)."""
    pairs: np.ndarray        # canonical (E, 2) int64 array
    scores: Tensor           # shape (E,)
    n_nodes: int


def score_edges(H_tilde: Tensor, params: VgaeParams,
                candidates: np.ndarray) -> SamplingMatrix:
    """p_{u,v} = score-MLP(h_u * h_v), scored once per unordered pair.

    ``candidates`` must be canonical, as ``candidate_pairs`` returns them:
    an (E, 2) int64 array of in-range rows with u < v, in strictly
    increasing key order u * n + v, so that each pair is scored once.
    """
    u, v = candidates[:, 0], candidates[:, 1]

    def pair_scores(h, *score_mlp):
        prod = nc.mul(nc.rows(h, u), nc.rows(h, v))
        return nc.reshape(mlp_forward(prod, MlpParams(*score_mlp)),
                          (len(candidates),))

    m = params.score_mlp
    scores = nc.checkpoint(pair_scores, H_tilde, m.w1, m.b1, m.w2, m.b2)
    return SamplingMatrix(pairs=candidates, scores=scores,
                          n_nodes=H_tilde.data.shape[0])


def sparsify(P: SamplingMatrix, eps: float) -> np.ndarray:
    """Keep pair (u, v) iff sigmoid(p_{u,v}) >= eps; returns the kept rows."""
    return P.pairs[nc.expit(P.scores.data) >= eps]


@dataclass(frozen=True, eq=False)
class ContrastiveView:
    """Subgraph cut by random walks; nodes are HeteroGraph indices."""
    nodes: np.ndarray        # sorted unique graph indices
    edges: np.ndarray        # canonical (E, 2) array, graph indices
    seeds: np.ndarray        # walk start nodes, in draw order


def random_walk_sample(n_nodes: int, edges: np.ndarray, seeds: np.ndarray,
                       cfg: ViewGenConfig,
                       rng: np.random.Generator) -> ContrastiveView:
    """Union of uniform random walks from each of the 1-d int64 ``seeds``;
    induced edge set.

    All walks move in lockstep: ``walks_per_seed`` walks per seed, in
    seed-major order, and a walk whose seed has no neighbour is dropped
    before the first step (the graph is undirected, so no other walk can
    get stuck). Each step makes one array draw ``rng.integers(0, degree)``
    over the live walks and moves each walk to that index into its
    node's neighbours, sorted ascending.
    """
    # neighbour lists in CSR form: node u's are nbrs[start[u]:start[u + 1]]
    u, v = edges[:, 0], edges[:, 1]
    keys = np.sort(np.concatenate([u * n_nodes + v, v * n_nodes + u]))
    rows, nbrs = np.divmod(keys, max(n_nodes, 1))
    degree = np.bincount(rows, minlength=n_nodes)
    start = np.cumsum(degree) - degree
    visited = np.zeros(n_nodes, dtype=bool)
    visited[seeds] = True
    cur = np.repeat(seeds, cfg.walks_per_seed)
    cur = cur[degree[cur] > 0]
    for _ in range(cfg.walk_len):
        cur = nbrs[start[cur] + rng.integers(0, degree[cur])]
        visited[cur] = True
    nodes = np.flatnonzero(visited)
    keep = edges[visited[u] & visited[v]]
    return ContrastiveView(nodes=nodes, edges=keep, seeds=seeds)


@dataclass(frozen=True)
class ViewGenConfig:
    eps: float = 0.5
    walk_len: int = 8
    walks_per_seed: int = 4
    seed_frac: float = 0.25
    neg_per_node: int = 5
    noise_sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must be in (0,1), got {self.eps}")
        if self.noise_sigma < 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, "
                              f"got {self.noise_sigma}")
        if not 0.0 < self.seed_frac <= 1.0:
            raise ConfigError(f"seed_frac must be in (0,1], "
                              f"got {self.seed_frac}")
        for name in ("walk_len", "walks_per_seed", "neg_per_node"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, "
                                  f"got {getattr(self, name)}")


def seed_count(cfg: ViewGenConfig, n_nodes: int) -> int:
    """Walk seeds per view: round(seed_frac * n), at least 1."""
    return max(1, int(round(cfg.seed_frac * n_nodes)))


def candidate_pairs(graph: HeteroGraph,
                    rng: np.random.Generator,
                    neg_per_node: int) -> np.ndarray:
    """Existing edges (relation-agnostic union) plus sampled non-edges.

    Row u of one (n, neg_per_node) draw holds node u's partners; a draw
    of u itself adds nothing.
    """
    n = graph.n_nodes
    partners = rng.integers(0, n, size=(n, neg_per_node))
    drawn = np.stack([np.repeat(np.arange(n), neg_per_node),
                      partners.reshape(-1)], axis=1)
    return canonical_edges(np.concatenate([graph.union, drawn]), n)


@dataclass
class GeneratedViews:
    views: tuple             # (ContrastiveView, ContrastiveView)
    sampling: tuple          # (SamplingMatrix, SamplingMatrix)


def generate_views(graph: HeteroGraph, H: Tensor, params1: VgaeParams,
                   params2: VgaeParams, cfg: ViewGenConfig,
                   rng: np.random.Generator) -> GeneratedViews:
    """Full twin pipeline; both walks start from one shared seed set."""
    cands = candidate_pairs(graph, rng, cfg.neg_per_node)
    n = graph.n_nodes
    seed_nodes = rng.choice(n, size=seed_count(cfg, n), replace=False)

    views, sampling = [], []
    for params in (params1, params2):
        noise_rng = np.random.default_rng(int(rng.integers(0, 2 ** 62)))
        noise = noise_rng.normal(scale=cfg.noise_sigma, size=H.data.shape)
        h_tilde = vgae_encode(H, params, noise)
        P = score_edges(h_tilde, params, cands)
        edges = sparsify(P, cfg.eps)
        views.append(random_walk_sample(n, edges, seed_nodes, cfg, rng))
        sampling.append(P)
    return GeneratedViews(views=tuple(views), sampling=tuple(sampling))


def reconstruction_loss(P: SamplingMatrix, true_edges: np.ndarray) -> Tensor:
    """Edge BCE over candidates: -log sig(p) on edges, -log(1-sig(p)) off.

    Written with softplus for stability: -log sig(p) = softplus(-p) and
    -log(1 - sig(p)) = softplus(p). ``true_edges`` is canonical like
    ``P.pairs``, so neither key array repeats.
    """
    n = P.n_nodes
    is_edge = np.isin(P.pairs[:, 0] * n + P.pairs[:, 1],
                      true_edges[:, 0] * n + true_edges[:, 1],
                      assume_unique=True)
    sign = np.where(is_edge, -1.0, 1.0)
    return nc.tsum(nc.softplus(nc.mul(Tensor(sign), P.scores)))
