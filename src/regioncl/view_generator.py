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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError
from .hetero_graph import HeteroGraph
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


@dataclass(frozen=True)
class NoiseConfig:
    mu: float = 0.0
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.sigma}")


def vgae_encode(H: Tensor, params: VgaeParams, noise: NoiseConfig) -> Tensor:
    """Reparameterized encoding; the same NoiseConfig replays the same draw."""
    H = nc.constant(H)
    rng = np.random.default_rng(noise.seed)
    draw = rng.normal(loc=noise.mu, scale=noise.sigma, size=H.data.shape) \
        if noise.sigma > 0.0 else np.full(H.data.shape, noise.mu)
    return nc.add(nc.mul(Tensor(draw), mlp_forward(H, params.std_mlp)),
                  mlp_forward(H, params.mean_mlp))


@dataclass
class SamplingMatrix:
    """Raw edge scores for the candidate pairs (one score per unordered pair)."""
    pairs: list              # [(u, v), ...] with u < v
    scores: Tensor           # shape (len(pairs),)
    n_nodes: int


def score_edges(H_tilde: Tensor, params: VgaeParams,
                candidates: list) -> SamplingMatrix:
    """p_{u,v} = score-MLP(h_u * h_v), scored once per unordered pair."""
    n = H_tilde.data.shape[0]
    pairs = []
    for u, v in candidates:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ContractError(f"bad candidate pair ({u}, {v}) for "
                                f"{n} nodes")
        pairs.append((u, v) if u < v else (v, u))
    if not pairs:
        return SamplingMatrix(pairs=[], scores=Tensor(np.zeros(0)), n_nodes=n)
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    prod = nc.mul(nc.rows(H_tilde, us), nc.rows(H_tilde, vs))
    scores = nc.reshape(mlp_forward(prod, params.score_mlp), (len(pairs),))
    return SamplingMatrix(pairs=pairs, scores=scores, n_nodes=n)


def sparsify(P: SamplingMatrix, eps: float) -> frozenset:
    """Keep pair (u, v) iff sigmoid(p_{u,v}) >= eps; returns the edge set."""
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"sparsify threshold must be in (0,1), got {eps}")
    if not P.pairs:
        return frozenset()
    probs = 1.0 / (1.0 + np.exp(-P.scores.data))
    return frozenset(pair for pair, p in zip(P.pairs, probs) if p >= eps)


@dataclass(frozen=True)
class WalkConfig:
    walk_len: int = 8
    walks_per_seed: int = 4


@dataclass(frozen=True)
class ContrastiveView:
    """Subgraph cut by random walks; nodes are HeteroGraph indices."""
    nodes: tuple             # sorted graph indices
    edges: frozenset         # canonical (u, v) pairs, graph indices
    seeds: tuple


def adjacency_lists(n_nodes: int, edges) -> list:
    nbrs = [[] for _ in range(n_nodes)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(x) for x in nbrs]


def random_walk_sample(n_nodes: int, edges: frozenset, seeds,
                       cfg: WalkConfig,
                       rng: np.random.Generator) -> ContrastiveView:
    """Union of uniform random walks from each seed; induced edge set."""
    seeds = list(seeds)
    if not seeds:
        raise ContractError("random_walk_sample: empty seed list")
    for s in seeds:
        if not 0 <= s < n_nodes:
            raise ContractError(f"seed {s} out of range for {n_nodes} nodes")
    nbrs = adjacency_lists(n_nodes, edges)
    visited = set(seeds)
    for s in seeds:
        for _ in range(cfg.walks_per_seed):
            cur = s
            for _ in range(cfg.walk_len):
                options = nbrs[cur]
                if not options:
                    break
                cur = options[rng.integers(0, len(options))]
                visited.add(cur)
    nodes = tuple(sorted(visited))
    keep = frozenset((u, v) for u, v in edges
                     if u in visited and v in visited)
    return ContrastiveView(nodes=nodes, edges=keep, seeds=tuple(seeds))


@dataclass(frozen=True)
class ViewGenConfig:
    eps: float = 0.5
    walk_len: int = 8
    walks_per_seed: int = 4
    seed_frac: float = 0.25
    neg_per_node: int = 5
    noise_mu: float = 0.0
    noise_sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.seed_frac <= 1.0:
            raise ConfigError(f"seed_frac must be in (0,1], "
                              f"got {self.seed_frac}")
        if self.neg_per_node < 0 or self.walk_len < 0 \
                or self.walks_per_seed < 0:
            raise ConfigError("walk/negative counts must be non-negative")


def seed_count(cfg: ViewGenConfig, n_nodes: int) -> int:
    """Walk seeds per view: round(seed_frac * n), at least 1."""
    return max(1, int(round(cfg.seed_frac * n_nodes)))


def candidate_pairs(graph: HeteroGraph,
                    rng: np.random.Generator,
                    neg_per_node: int) -> list:
    """Existing edges (relation-agnostic union) plus sampled non-edges."""
    existing = set(graph.union_edges())
    n = graph.n_nodes
    pairs = set(existing)
    for u in range(n):
        for _ in range(neg_per_node):
            v = int(rng.integers(0, n))
            if v == u:
                continue
            key = (u, v) if u < v else (v, u)
            if key not in existing:
                pairs.add(key)
    return sorted(pairs)


@dataclass
class GeneratedViews:
    views: tuple             # (ContrastiveView, ContrastiveView)
    sampling: tuple          # (SamplingMatrix, SamplingMatrix)
    candidates: list
    seeds: tuple
    noise: tuple             # (NoiseConfig, NoiseConfig) actually used


def generate_views(graph: HeteroGraph, H: Tensor, params1: VgaeParams,
                   params2: VgaeParams, cfg: ViewGenConfig,
                   rng: np.random.Generator) -> GeneratedViews:
    """Full twin pipeline; both walks start from one shared seed set."""
    cands = candidate_pairs(graph, rng, cfg.neg_per_node)
    n = graph.n_nodes
    seed_nodes = tuple(int(s) for s in
                       rng.choice(n, size=seed_count(cfg, n), replace=False))
    walk_cfg = WalkConfig(walk_len=cfg.walk_len,
                          walks_per_seed=cfg.walks_per_seed)

    views, sampling, noises = [], [], []
    for params in (params1, params2):
        noise = NoiseConfig(mu=cfg.noise_mu, sigma=cfg.noise_sigma,
                            seed=int(rng.integers(0, 2 ** 62)))
        h_tilde = vgae_encode(H, params, noise)
        P = score_edges(h_tilde, params, cands)
        edges = sparsify(P, cfg.eps)
        views.append(random_walk_sample(n, edges, seed_nodes, walk_cfg, rng))
        sampling.append(P)
        noises.append(noise)
    return GeneratedViews(views=tuple(views), sampling=tuple(sampling),
                          candidates=cands, seeds=seed_nodes,
                          noise=tuple(noises))


def reconstruction_loss(P: SamplingMatrix, true_edges: frozenset) -> Tensor:
    """Edge BCE over candidates: -log sig(p) on edges, -log(1-sig(p)) off.

    Written with softplus for stability: -log sig(p) = softplus(-p) and
    -log(1 - sig(p)) = softplus(p).
    """
    if not P.pairs:
        return Tensor(0.0)
    sign = np.array([-1.0 if pair in true_edges else 1.0
                     for pair in P.pairs])
    return nc.tsum(nc.softplus(nc.mul(Tensor(sign), P.scores)))
