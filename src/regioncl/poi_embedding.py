"""POI-aware region representations.

Pipeline: a skip-gram model embeds POI categories from same-region
co-occurrence (frozen preprocessing), each region pools its categories'
vectors weighted by count, a 2-layer perceptron projects the pooled vector
to the working dimension, and region-wise multi-head self-attention with a
residual connection spreads information across regions.

Corpus convention: every region contributes one sentence listing each
category token min(count, window_cap) times; the context window is the whole
sentence. Because the window is the sentence, pair frequencies collapse to a
category co-occurrence matrix, and training takes full-batch steps on that
C x C matrix with freshly sampled negatives per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError, DataError
from .numcore import GradientTape, Tensor
from .region_data import PoiMatrix


@dataclass(frozen=True)
class SkipgramConfig:
    d_sg: int = 96
    window_cap: int = 20
    negatives: int = 5
    # one full-batch step per epoch over frequency-normalized pair weights,
    # so the step size is large by minibatch standards
    epochs: int = 200
    lr: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d_sg", 1), ("window_cap", 1), ("negatives", 0),
                          ("epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"skip-gram {name} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if self.lr <= 0.0:
            raise ConfigError(f"skip-gram lr must be positive, got {self.lr}")


def cooccurrence(poi: PoiMatrix, window_cap: int) -> np.ndarray:
    """Category-pair counts implied by the one-sentence-per-region corpus.

    For a sentence with m_a copies of token a, ordered (center, context)
    pairs number m_a * m_b for a != b and m_a * (m_a - 1) on the diagonal.
    """
    m = np.minimum(poi.counts, window_cap).astype(np.float64)
    M = m.T @ m
    np.fill_diagonal(M, (m * m).sum(axis=0) - m.sum(axis=0))
    return M


def train_skipgram(poi: PoiMatrix, cfg: SkipgramConfig) -> np.ndarray:
    """Negative-sampling skip-gram over the co-occurrence corpus.

    Each epoch takes one full-batch step on the loss sum_ab pos_ab
    softplus(-x_ab) + neg_ab softplus(x_ab), with x = center @ context.T,
    pos = M / sum(M), and neg_ac summing pos_ab / negatives over the epoch's
    negatives c drawn for each co-occurring pair (a, b). The step works on
    C x C matrices: O(C^2 d) per epoch, against O(P (1 + negatives) d) for
    a per-pair step over the P co-occurring pairs.

    Returns the (C, d_sg) center-vector table. A corpus with categories but
    no co-occurring pairs trains zero steps and returns the initialization;
    an all-zero POI matrix is an error.
    """
    if not np.any(poi.counts > 0):
        raise DataError("empty POI corpus")
    C = poi.n_categories
    rng = np.random.default_rng(cfg.seed)
    center = rng.normal(scale=0.5 / np.sqrt(cfg.d_sg), size=(C, cfg.d_sg))
    context = rng.normal(scale=0.5 / np.sqrt(cfg.d_sg), size=(C, cfg.d_sg))

    M = cooccurrence(poi, cfg.window_cap)
    a_idx, b_idx = np.nonzero(M)
    if a_idx.size == 0:
        return center
    pos = M / M.sum()
    # flat (a, c) cell and weight of each negative, in draw order
    neg_cell = np.repeat(a_idx * C, cfg.negatives)
    neg_w = np.repeat(pos[a_idx, b_idx], cfg.negatives) / cfg.negatives

    token_counts = np.minimum(poi.counts, cfg.window_cap).sum(axis=0)
    noise = np.power(token_counts.astype(np.float64), 0.75)
    noise = noise / noise.sum()

    for _ in range(cfg.epochs):
        negs = rng.choice(C, size=(a_idx.size, cfg.negatives), p=noise)
        neg = np.bincount(neg_cell + negs.ravel(), weights=neg_w,
                          minlength=C * C).reshape(C, C)
        s = nc.expit(center @ context.T)
        G = pos * (s - 1.0) + neg * s
        center, context = (center - cfg.lr * (G @ context),
                           context - cfg.lr * (G.T @ center))
    return center


def pooled_vectors(table: np.ndarray, poi: PoiMatrix) -> np.ndarray:
    """Count-weighted mean of category vectors per region; zero rows stay 0."""
    if table.shape[0] != poi.n_categories:
        raise ContractError(f"table has {table.shape[0]} categories, POI "
                            f"matrix has {poi.n_categories}")
    counts = poi.counts.astype(np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    return (counts @ table) / safe


@dataclass
class MlpParams:
    """y = W2 relu(W1 x + b1) + b2, applied row-wise."""
    w1: Tensor    # (hidden, d_in)
    b1: Tensor    # (1, hidden)
    w2: Tensor    # (d_out, hidden)
    b2: Tensor    # (1, d_out)


def init_mlp(tape: GradientTape, prefix: str, d_in: int, d_hidden: int,
             d_out: int, rng: np.random.Generator) -> MlpParams:
    def p(name, shape, scale):
        return tape.parameter(f"{prefix}.{name}",
                              rng.normal(scale=scale, size=shape))

    return MlpParams(
        w1=p("w1", (d_hidden, d_in), 1.0 / np.sqrt(d_in)),
        b1=tape.parameter(f"{prefix}.b1", np.zeros((1, d_hidden))),
        w2=p("w2", (d_out, d_hidden), 1.0 / np.sqrt(d_hidden)),
        b2=tape.parameter(f"{prefix}.b2", np.zeros((1, d_out))))


def mlp_forward(x: Tensor, mlp: MlpParams) -> Tensor:
    h = nc.relu(nc.add(nc.matmul(x, nc.transpose(mlp.w1)), mlp.b1))
    return nc.add(nc.matmul(h, nc.transpose(mlp.w2)), mlp.b2)


def project_regions(table: np.ndarray, poi: PoiMatrix,
                    mlp: MlpParams) -> Tensor:
    """Pooled category vectors pushed through the projection perceptron."""
    return mlp_forward(Tensor(pooled_vectors(table, poi)), mlp)


@dataclass
class AttentionParams:
    """Per-head projections, each (d/H, d)."""
    q: list[Tensor]
    k: list[Tensor]
    v: list[Tensor]


def init_attention(tape: GradientTape, prefix: str, d: int, heads: int,
                   rng: np.random.Generator) -> AttentionParams:
    dh = d // heads
    scale = 1.0 / np.sqrt(d)

    def bank(name):
        return [tape.parameter(f"{prefix}.{name}{h}",
                               rng.normal(scale=scale, size=(dh, d)))
                for h in range(heads)]

    return AttentionParams(q=bank("q"), k=bank("k"), v=bank("v"))


def attention_weights(E: Tensor, params: AttentionParams) -> list[Tensor]:
    """Per-head (I, I) row-stochastic attention matrices."""
    alphas = []
    for q, k in zip(params.q, params.k):
        dh = q.data.shape[0]
        qe = nc.matmul(E, nc.transpose(q))     # (I, dh)
        ke = nc.matmul(E, nc.transpose(k))     # (I, dh)
        scores = nc.scale(nc.matmul(qe, nc.transpose(ke)), 1.0 / np.sqrt(dh))
        alphas.append(nc.softmax_rows(scores))
    return alphas


def self_attention(E: Tensor, params: AttentionParams) -> Tensor:
    """Multi-head attention over regions with a residual connection."""
    alphas = attention_weights(E, params)
    heads = [nc.matmul(alpha, nc.matmul(E, nc.transpose(params.v[h])))
             for h, alpha in enumerate(alphas)]
    return nc.add(nc.concat_cols(heads), E)
