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
    """Reparameterized encoding noise * std(H) + mean(H) for a given draw."""
    H = nc.constant(H)
    return nc.add(nc.mul(Tensor(noise), mlp_forward(H, params.std_mlp)),
                  mlp_forward(H, params.mean_mlp))


@dataclass
class SamplingMatrix:
    """Raw edge scores for the candidate pairs (one score per unordered pair)."""
    pairs: np.ndarray        # canonical (E, 2) int64 array
    scores: Tensor           # shape (E,)
    n_nodes: int


def score_edges(H_tilde: Tensor, params: VgaeParams,
                candidates) -> SamplingMatrix:
    """p_{u,v} = score-MLP(h_u * h_v), scored once per unordered pair.

    ``candidates`` must be canonical, as ``candidate_pairs`` returns them:
    an (E, 2) int64 array of in-range rows with u < v, in strictly
    increasing key order u * n + v. One O(E) pass checks that.
    """
    n = H_tilde.data.shape[0]
    pairs = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    bad = (pairs[:, 0] < 0) | (pairs[:, 0] >= pairs[:, 1]) | (pairs[:, 1] >= n)
    if bad.any():
        u, v = pairs[bad][0]
        raise ContractError(f"bad candidate pair ({u}, {v}) for {n} nodes")
    keys = pairs[:, 0] * n + pairs[:, 1]
    if np.any(keys[1:] <= keys[:-1]):
        raise ContractError("candidate pairs repeat or are out of order")
    if not len(pairs):
        return SamplingMatrix(pairs=pairs, scores=Tensor(np.zeros(0)),
                              n_nodes=n)
    prod = nc.mul(nc.rows(H_tilde, pairs[:, 0]), nc.rows(H_tilde, pairs[:, 1]))
    scores = nc.reshape(mlp_forward(prod, params.score_mlp), (len(pairs),))
    return SamplingMatrix(pairs=pairs, scores=scores, n_nodes=n)


def sparsify(P: SamplingMatrix, eps: float) -> np.ndarray:
    """Keep pair (u, v) iff sigmoid(p_{u,v}) >= eps; returns the kept rows."""
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"sparsify threshold must be in (0,1), got {eps}")
    return P.pairs[nc.expit(P.scores.data) >= eps]


@dataclass(frozen=True, eq=False)
class ContrastiveView:
    """Subgraph cut by random walks; nodes are HeteroGraph indices."""
    nodes: np.ndarray        # sorted unique graph indices
    edges: np.ndarray        # canonical (E, 2) array, graph indices
    seeds: np.ndarray        # walk start nodes, in draw order


def random_walk_sample(n_nodes: int, edges: np.ndarray, seeds,
                       cfg: ViewGenConfig,
                       rng: np.random.Generator) -> ContrastiveView:
    """Union of uniform random walks from each seed; induced edge set.

    Each step draws one scalar index into the current node's neighbours,
    sorted ascending.
    """
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    if not seeds.size:
        raise ContractError("random_walk_sample: empty seed list")
    bad = seeds[(seeds < 0) | (seeds >= n_nodes)]
    if bad.size:
        raise ContractError(f"seed {bad[0]} out of range for {n_nodes} nodes")
    # neighbour lists in CSR form: node u's are nbrs[start[u]:start[u + 1]]
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    start = np.searchsorted(both[:, 0], np.arange(n_nodes + 1)).tolist()
    nbrs = both[:, 1].tolist()
    visited = set(seeds.tolist())
    for s in seeds.tolist():
        for _ in range(cfg.walks_per_seed):
            cur = s
            for _ in range(cfg.walk_len):
                lo, hi = start[cur], start[cur + 1]
                if lo == hi:
                    break
                cur = nbrs[lo + rng.integers(0, hi - lo)]
                visited.add(cur)
    nodes = np.array(sorted(visited), dtype=np.int64)
    inside = np.zeros(n_nodes, dtype=bool)
    inside[nodes] = True
    keep = edges[inside[edges[:, 0]] & inside[edges[:, 1]]]
    return ContrastiveView(nodes=nodes, edges=keep, seeds=seeds)


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
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must be in (0,1), got {self.eps}")
        if self.noise_sigma < 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, "
                              f"got {self.noise_sigma}")
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
        noise = noise_rng.normal(cfg.noise_mu, cfg.noise_sigma, H.data.shape)
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
    if not len(P.pairs):
        return Tensor(0.0)
    n = P.n_nodes
    is_edge = np.isin(P.pairs[:, 0] * n + P.pairs[:, 1],
                      true_edges[:, 0] * n + true_edges[:, 1],
                      assume_unique=True)
    sign = np.where(is_edge, -1.0, 1.0)
    return nc.tsum(nc.softplus(nc.mul(Tensor(sign), P.scores)))
