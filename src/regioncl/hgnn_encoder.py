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
the weights of only the relations that dict holds, each of which must have
weights; a wrongly shaped Â fails in ``spmm`` or ``add`` with
``ContractError``.

A recorded ``encode`` is one ``numcore.checkpoint`` node over H^(0) and
those weights: it keeps only the (n, d) output, and the backward
recomputes the layer loop's activations (about 21 (n, d) arrays for 3
layers of 2 relations) from the same numpy calls, so values and
gradients keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError
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
            rel: tape.parameter(f"{prefix}.l{layer}.{rel.value}",
                                rng.normal(scale=scale, size=(d, d)))
            for rel in relations})
    return EncoderParams(layers=layers)


def init_features(E: Tensor, I: int, T: int) -> Tensor:
    """H^(0): base rows copy e_i, every Slot(i, t) row copies e_i too."""
    index_map = list(range(I)) + [i for i in range(I) for _ in range(T)]
    return nc.rows(E, index_map)


def encode(adj: dict, H0: Tensor, params: EncoderParams) -> Tensor:
    """Multi-order aggregation: returns sum of H^(0) .. H^(L).

    The layer loop runs through ``numcore.checkpoint`` over H0 and the
    weights of the relations in ``adj``, so a recorded encode keeps only
    its output and the backward recomputes every layer's activations.
    """
    if params.layers and not adj:
        raise ContractError("encode: empty adjacency dict")

    # weights[k * len(adj) + r] is layer k's matrix of adj's r-th relation
    adjs = list(adj.values())
    weights = [layer[rel] for layer in params.layers for rel in adj]

    def propagate(H, *Ws):
        total = H
        for k in range(0, len(Ws), len(adjs)):
            msg = None
            for A, W in zip(adjs, Ws[k:k + len(adjs)]):
                term = nc.matmul(nc.spmm(A, H), nc.transpose(W))
                msg = term if msg is None else nc.add(msg, term)
            H = nc.relu(msg)
            total = nc.add(total, H)
        return total

    return nc.checkpoint(propagate, H0, *weights)
