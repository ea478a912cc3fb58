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
that agree too much earn little). ``overall_loss_floor`` bounds the overall
loss from below by row counts alone, so R1 can be read without the loss
once that bound clears the bar. The sampler objective multiplies the
combined reward, treated as a constant, onto the two reconstruction losses.

No loss or reward re-checks its views: ``train`` rejects views that would
share fewer than 2 nodes before any work, and rows of unequal shape fail in
``dot_cross_entropy`` with ``ContractError``.
"""

from __future__ import annotations

import math
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


# share of (log m + 2/tau) that overall_loss_floor gives up per row to rounding
FLOOR_SLACK = 1e-6


def overall_loss_floor(n_shared: int, n_views: tuple[int, int], tau: float,
                       beta: float) -> float:
    """A lower bound on ``overall_loss`` from row counts alone.

    ``n_shared`` is the number of rows InfoNCE compares (the views' shared
    nodes) and ``n_views`` the rows of each view, which InfoBN compares with
    their re-encodes. Every row ``_nce_sum`` compares is a unit row or a
    zero row (``normalize_rows``), so |a_i . b_j| <= 1 and each of the m
    logits of row i lies in [-1/tau, 1/tau]. Hence lse_i >= log(m e^(-1/tau))
    = log m - 1/tau, the diagonal logit is at most 1/tau, and row i costs at
    least log m - 2/tau; it also costs at least 0, since its diagonal term is
    one of the m terms of its logsumexp. An m-row sum is therefore at least
    f(m) = m max(0, log m - 2/tau), and the overall loss at least
    beta f(n_shared) + (1 - beta) (f(n1) + f(n2)).

    Rounding: each row's cost lies in [0, log m + 2/tau], and the computed
    loss falls short of its exact value by a few units in the last place
    (u = 2^-53) of each logit, exp, sum and log: under
    (m + 6 d + 16) u (1 + log m + 2/tau) per row for rows of width d, plus
    a relative m u on the m-row sum and the mix. So f takes
    ``FLOOR_SLACK`` (log m + 2/tau) off each row's log m - 2/tau, more than
    that whole shortfall while m + 6 d stays below 10^9, and the floor stays
    below the computed float.
    """
    def f(m: int) -> float:
        scale = math.log(m) + 2.0 / tau
        return m * max(0.0, math.log(m) - 2.0 / tau - FLOOR_SLACK * scale)

    return beta * f(n_shared) + (1.0 - beta) * (f(n_views[0]) + f(n_views[1]))


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
