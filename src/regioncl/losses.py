"""Contrastive objectives and the reward signals that drive view learning.

InfoNCE pulls a node's two view embeddings together against other shared
nodes; InfoBN contrasts each view against a re-encode of itself with a
fraction of edges dropped, penalizing representations that depend on
superfluous edges. Both are row-softmax cross-entropies over an (n, n)
cosine matrix that is streamed in row blocks and never stored; each block's
softmax is built once, and its share of the gradient is accumulated in the
same pass (none under ``numcore.no_grad``). The overall
loss is their convex combination. Rewards score the generated views: R1 is
a two-valued InfoMin signal (high loss means the views are hard, reward 1;
otherwise a small xi), R2 is one minus the mean aligned-row cosine (views
that agree too much earn little). The sampler objective multiplies the
combined reward, treated as a constant, onto the two reconstruction losses.

No loss or reward re-checks its views: ``train`` rejects views that would
share fewer than 2 nodes before any work, and rows of unequal shape fail in
``dot_cross_entropy`` with ``ContractError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError
from .numcore import Tensor


@dataclass(frozen=True)
class LossConfig:
    beta: float = 0.1
    tau: float = 0.5
    eps_prime: float = 1.2
    xi: float = 0.1
    w1: float = 0.5
    infobn_drop: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0,1], got {self.beta}")
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.xi < 1.0:
            raise ConfigError(f"xi must be in (0,1), got {self.xi}")
        if not 0.0 <= self.w1 <= 1.0:
            raise ConfigError(f"w1 must be in [0,1], got {self.w1}")
        if not 0.0 <= self.infobn_drop < 1.0:
            raise ConfigError(f"infobn_drop must be in [0,1), "
                              f"got {self.infobn_drop}")


@dataclass
class ViewEmbeddings:
    """Per-view encoder outputs with their node-id alignment."""
    h1: Tensor
    nodes1: np.ndarray       # unique graph indices, one per row of h1
    h2: Tensor
    nodes2: np.ndarray

    def shared(self):
        """Sorted shared node ids with their row positions in each view."""
        return np.intersect1d(self.nodes1, self.nodes2, assume_unique=True,
                              return_indices=True)


def _nce_sum(A: Tensor, B: Tensor, tau: float) -> Tensor:
    """Sum over rows i of -log softmax_j(cos(A_i, B_j)/tau) at j = i.

    The (n, n) cosine matrix is streamed in row blocks by
    ``dot_cross_entropy`` and never stored, so memory is O(block n + n d),
    gradients included.
    """
    return nc.dot_cross_entropy(nc.normalize_rows(A), nc.normalize_rows(B),
                                1.0 / tau)


def info_nce(views: ViewEmbeddings, tau: float) -> Tensor:
    """Cross-view contrastive loss over the nodes present in both views."""
    _, idx1, idx2 = views.shared()
    return _nce_sum(nc.rows(views.h1, idx1), nc.rows(views.h2, idx2), tau)


def drop_edges(edges: np.ndarray, drop_rate: float,
               rng: np.random.Generator) -> np.ndarray:
    """Remove round(drop_rate * |E|) rows uniformly without replacement.

    ``edges`` is a canonical (E, 2) array, so row k is the k-th edge in
    sorted order; the kept rows stay canonical.
    """
    k = int(round(drop_rate * len(edges)))
    if k == 0:
        return edges
    keep = np.ones(len(edges), dtype=bool)
    keep[rng.choice(len(edges), size=k, replace=False)] = False
    return edges[keep]


def info_bn(h1: Tensor, h1_aug: Tensor, h2: Tensor, h2_aug: Tensor,
            tau: float) -> Tensor:
    """Per-view information bottleneck: each view against its own re-encode."""
    return nc.add(_nce_sum(h1, h1_aug, tau), _nce_sum(h2, h2_aug, tau))


def overall_loss(nce: Tensor, bn: Tensor, beta: float) -> Tensor:
    return nc.add(nc.scale(nce, beta), nc.scale(bn, 1.0 - beta))


def reward_r1(loss_value: float, eps_prime: float, xi: float) -> float:
    """InfoMin reward: 1 for hard views (loss above the bar), else xi."""
    return 1.0 if loss_value > eps_prime else xi


def reward_r2(views: ViewEmbeddings) -> float:
    """One minus the mean cosine of aligned shared rows (constant, no grad)."""
    _, idx1, idx2 = views.shared()
    cos = nc.row_cosine(views.h1.data[idx1], views.h2.data[idx2])
    return float(1.0 - cos.mean())


def combined_reward(r1: float, r2: float, w1: float) -> float:
    return w1 * r1 + (1.0 - w1) * r2


def sampler_objective(reward: float, lrec1: Tensor, lrec2: Tensor) -> Tensor:
    """reward * (L_Rec1 + L_Rec2); the reward is a stop-gradient constant."""
    return nc.scale(nc.add(lrec1, lrec2), float(reward))
