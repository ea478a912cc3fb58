"""Stage builders for the gradient-check harness.

Each entry in STAGES is ``builder(rng) -> (loss_fn, tape)``: the builder
draws one random point, registers the stage's parameters on a fresh tape
with the model's own ``init_*`` functions, and returns a zero-argument
``loss_fn`` that closes over those parameters and the fixed inputs. All
randomness happens in the builder, so ``loss_fn`` is a pure function of the
parameters' current values, which the check perturbs in place. Dimensions
are kept small since the probe loop is O(#scalars).
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .hetero_graph import RelationType, normalized_adjacency
from .hgnn_encoder import encode, init_encoder, init_features
from .losses import ViewEmbeddings, info_bn, info_nce, overall_loss
from .numcore import GradientTape, Tensor
from .poi_embedding import (init_attention, init_mlp, project_regions,
                            self_attention)
from .region_data import PoiMatrix
from .trainer import _encode_view
from .view_generator import (init_vgae, reconstruction_loss, score_edges,
                             vgae_encode)


def _poi_fixture(rng, I: int, C: int) -> PoiMatrix:
    counts = rng.integers(0, 5, size=(I, C)).astype(np.int64)
    # an empty region pools to the zero vector, which with zero-init biases
    # puts relu pre-activations exactly on the kink where finite differences
    # disagree with the one-sided analytic gradient; keep every region lived-in
    counts[:, 0] = np.maximum(counts[:, 0], 1)
    return PoiMatrix(counts=counts,
                     category_names=tuple(f"c{k}" for k in range(C)))


def _random_edges(rng, nodes, p: float) -> np.ndarray:
    """Each pair of the sorted ``nodes`` linked with probability p."""
    nodes = np.asarray(nodes)
    pairs = nodes[np.stack(np.triu_indices(len(nodes), k=1), axis=1)]
    return pairs[rng.random(len(pairs)) < p]


def _projection_loss(out: Tensor, P: np.ndarray) -> Tensor:
    return nc.tsum(nc.mul(out, Tensor(P)))


def stage_attention(rng):
    I, C, d_sg, d, heads = 4, 3, 4, 4, 2
    poi = _poi_fixture(rng, I, C)
    table = rng.normal(size=(C, d_sg))
    P = rng.normal(size=(I, d))
    tape = GradientTape()
    mlp = init_mlp(tape, "pm", d_sg, d, d, rng)
    attn = init_attention(tape, "at", d, heads, rng)

    def loss_fn() -> Tensor:
        E = project_regions(table, poi, mlp)
        return _projection_loss(self_attention(E, attn), P)

    return loss_fn, tape


def stage_encoder(rng):
    n, d, n_layers = 5, 4, 2
    relations = [RelationType.MOBILITY, RelationType.DISTANCE]
    adj = {rel: normalized_adjacency(n, _random_edges(rng, range(n), 0.5))
           for rel in relations}
    P = rng.normal(size=(n, d))
    tape = GradientTape()
    params = init_encoder(tape, "enc", d, n_layers, relations, rng)
    h0 = tape.parameter("h0", rng.normal(size=(n, d)))

    def loss_fn() -> Tensor:
        return _projection_loss(encode(adj, h0, params), P)

    return loss_fn, tape


def stage_vgae_encode(rng):
    n, d = 5, 4
    noise_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
    noise = noise_rng.normal(size=(n, d))
    P = rng.normal(size=(n, d))
    tape = GradientTape()
    params = init_vgae(tape, "vg", d, rng)
    h = tape.parameter("h", rng.normal(size=(n, d)))

    def loss_fn() -> Tensor:
        return _projection_loss(vgae_encode(h, params, noise), P)

    return loss_fn, tape


def stage_reconstruction(rng):
    n, d = 6, 4
    candidates = np.stack(np.triu_indices(n, k=1), axis=1)
    true_edges = _random_edges(rng, range(n), 0.4)
    tape = GradientTape()
    params = init_vgae(tape, "vg", d, rng)
    h = tape.parameter("h", rng.normal(size=(n, d)))

    def loss_fn() -> Tensor:
        return reconstruction_loss(score_edges(h, params, candidates),
                                   true_edges)

    return loss_fn, tape


def stage_info_nce(rng):
    d = 4
    nodes1, nodes2 = (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)
    tape = GradientTape()
    views = ViewEmbeddings(
        h1=tape.parameter("h1", rng.normal(size=(len(nodes1), d))),
        nodes1=nodes1,
        h2=tape.parameter("h2", rng.normal(size=(len(nodes2), d))),
        nodes2=nodes2)
    return lambda: info_nce(views, tau=0.5), tape


def stage_info_bn(rng):
    d = 4
    tape = GradientTape()
    hs = [tape.parameter(name, rng.normal(size=(rows, d)))
          for name, rows in (("h1", 4), ("h1_aug", 4), ("h2", 5),
                             ("h2_aug", 5))]
    return lambda: info_bn(*hs, tau=0.5), tape


def stage_overall(rng):
    """Full contrastive path: POI projection through both loss terms."""
    I, T, C, d_sg, d, heads, n_layers = 3, 1, 3, 4, 4, 2, 2
    relations = [RelationType.MOBILITY]
    poi = _poi_fixture(rng, I, C)
    table = rng.normal(size=(C, d_sg))
    # two views on overlapping nodes, then the InfoBN drop of each
    nodes = (np.arange(5), np.arange(1, 6)) * 2
    edges = [_random_edges(rng, v, p) for v, p in zip(nodes, (.6, .6, .4, .4))]
    tape = GradientTape()
    mlp = init_mlp(tape, "pm", d_sg, d, d, rng)
    attn = init_attention(tape, "at", d, heads, rng)
    enc_params = init_encoder(tape, "enc", d, n_layers, relations, rng)

    def loss_fn() -> Tensor:
        E = project_regions(table, poi, mlp)
        H0 = init_features(self_attention(E, attn), I, T)
        h1, h2, h1a, h2a = (_encode_view(v, e, H0, enc_params)
                            for v, e in zip(nodes, edges))
        views = ViewEmbeddings(h1=h1, nodes1=nodes[0], h2=h2, nodes2=nodes[1])
        nce = info_nce(views, tau=0.5)
        bn = info_bn(h1, h1a, h2, h2a, tau=0.5)
        return overall_loss(nce, bn, beta=0.1)

    return loss_fn, tape


STAGES = {
    "attention": stage_attention,
    "hgnn_encoder": stage_encoder,
    "vgae_encode": stage_vgae_encode,
    "reconstruction_loss": stage_reconstruction,
    "info_nce": stage_info_nce,
    "info_bn": stage_info_bn,
    "overall_loss": stage_overall,
}
