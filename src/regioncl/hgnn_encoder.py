"""Relation-aware message passing over the heterogeneous graph.

Layer rule: H^(l) = ReLU(sum_gamma A_hat_gamma H^(l-1) W_gamma^(l-1)^T),
with a separate weight matrix per relation per layer. The encoder output
aggregates all orders, H = sum_{l=0}^{L} H^(l), so raw features survive
alongside smoothed ones. Everything runs on numcore tensors and is fully
differentiable; adjacencies enter as constant sparse matrices (CsrMatrix),
so a layer costs O(|E| d) per relation and no gradient is formed for them.

The same code encodes both the fused multi-relation graph and the sampled
single-relation contrastive views: the caller passes the whole weight bank
and picks the relations through the adjacency dict, since ``encode`` reads
the weights of only the relations that dict holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ShapeError
from .numcore import GradientTape, Tensor


@dataclass
class EncoderParams:
    """layers[l][relation] is the (d, d) weight applied at depth l."""
    layers: list


def init_encoder(tape: GradientTape, prefix: str, d: int, n_layers: int,
                 relations, rng: np.random.Generator) -> EncoderParams:
    scale = 1.0 / np.sqrt(d)
    layers = []
    for layer in range(n_layers):
        layers.append({
            rel: tape.parameter(f"{prefix}.l{layer}.{getattr(rel, 'value', rel)}",
                                rng.normal(scale=scale, size=(d, d)))
            for rel in relations})
    return EncoderParams(layers=layers)


def init_features(E: Tensor, I: int, T: int) -> Tensor:
    """H^(0): base rows copy e_i, every Slot(i, t) row copies e_i too."""
    E = nc.constant(E)
    if E.data.shape[0] != I:
        raise ShapeError(f"embeddings have {E.data.shape[0]} rows, I={I}")
    index_map = list(range(I)) + [i for i in range(I) for _ in range(T)]
    return nc.rows(E, index_map)


def encode(adj: dict, H0: Tensor, params: EncoderParams) -> Tensor:
    """Multi-order aggregation: returns sum of H^(0) .. H^(L)."""
    H0 = nc.constant(H0)
    n = H0.data.shape[0]
    for layer in params.layers:
        missing = set(adj) - set(layer)
        if missing:
            raise ShapeError(f"no weights for relations "
                             f"{sorted(str(r) for r in missing)}")
    for rel, A in adj.items():
        if A.shape != (n, n):
            raise ShapeError(f"adjacency for {rel} is {A.shape}, "
                             f"expected ({n}, {n})")

    total = H0
    H = H0
    for layer in params.layers:
        msg = None
        for rel, A in adj.items():
            term = nc.matmul(nc.spmm(A, H), nc.transpose(layer[rel]))
            msg = term if msg is None else nc.add(msg, term)
        if msg is None:
            raise ShapeError("encode: empty adjacency dict")
        H = nc.relu(msg)
        total = nc.add(total, H)
    return total
