"""Stage builders for the gradient-check harness.

Each entry in STAGES is ``builder(rng) -> (build_loss, param_arrays)``:
the builder draws one random point (inputs and initial parameters), and
``build_loss`` replays the stage forward pass deterministically from a tape
holding those parameters. All randomness happens in the builder; fixed
inputs are closed over so finite differences see a pure function of the
parameters. Dimensions are kept small since the probe loop is O(#scalars).
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .hetero_graph import RelationType, normalized_adjacency
from .hgnn_encoder import EncoderParams, encode, init_encoder, init_features
from .losses import ViewEmbeddings, info_bn, info_nce, overall_loss
from .numcore import GradientTape, Tensor
from .poi_embedding import (AttentionParams, MlpParams, init_attention,
                            init_mlp, project_regions, self_attention)
from .region_data import PoiMatrix
from .view_generator import (NoiseConfig, VgaeParams, init_vgae,
                             reconstruction_loss, score_edges, vgae_encode)


def _arrays(tape: GradientTape) -> dict:
    return {name: t.data for name, t in tape.params.items()}


def _mlp_from(tape: GradientTape, prefix: str) -> MlpParams:
    return MlpParams(w1=tape[f"{prefix}.w1"], b1=tape[f"{prefix}.b1"],
                     w2=tape[f"{prefix}.w2"], b2=tape[f"{prefix}.b2"])


def _attn_from(tape: GradientTape, prefix: str, heads: int) -> AttentionParams:
    return AttentionParams(q=[tape[f"{prefix}.q{h}"] for h in range(heads)],
                           k=[tape[f"{prefix}.k{h}"] for h in range(heads)],
                           v=[tape[f"{prefix}.v{h}"] for h in range(heads)])


def _encoder_from(tape: GradientTape, prefix: str, n_layers: int,
                  relations) -> EncoderParams:
    return EncoderParams(layers=[
        {rel: tape[f"{prefix}.l{layer}.{rel.value}"] for rel in relations}
        for layer in range(n_layers)])


def _vgae_from(tape: GradientTape, prefix: str) -> VgaeParams:
    return VgaeParams(mean_mlp=_mlp_from(tape, f"{prefix}.mean"),
                      std_mlp=_mlp_from(tape, f"{prefix}.std"),
                      score_mlp=_mlp_from(tape, f"{prefix}.score"))


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
    scratch = GradientTape()
    init_mlp(scratch, "pm", d_sg, d, d, rng)
    init_attention(scratch, "at", d, heads, rng)

    def build_loss(tape: GradientTape) -> Tensor:
        E = project_regions(table, poi, _mlp_from(tape, "pm"))
        out = self_attention(E, _attn_from(tape, "at", heads))
        return _projection_loss(out, P)

    return build_loss, _arrays(scratch)


def stage_encoder(rng):
    n, d, n_layers = 5, 4, 2
    relations = [RelationType.MOBILITY, RelationType.DISTANCE]
    adj = {rel: normalized_adjacency(n, _random_edges(rng, range(n), 0.5))
           for rel in relations}
    P = rng.normal(size=(n, d))
    scratch = GradientTape()
    init_encoder(scratch, "enc", d, n_layers, relations, rng)
    scratch.parameter("h0", rng.normal(size=(n, d)))

    def build_loss(tape: GradientTape) -> Tensor:
        params = _encoder_from(tape, "enc", n_layers, relations)
        return _projection_loss(encode(adj, tape["h0"], params), P)

    return build_loss, _arrays(scratch)


def stage_vgae_encode(rng):
    n, d = 5, 4
    noise = NoiseConfig(mu=0.0, sigma=1.0, seed=int(rng.integers(0, 2 ** 31)))
    P = rng.normal(size=(n, d))
    scratch = GradientTape()
    init_vgae(scratch, "vg", d, rng)
    scratch.parameter("h", rng.normal(size=(n, d)))

    def build_loss(tape: GradientTape) -> Tensor:
        out = vgae_encode(tape["h"], _vgae_from(tape, "vg"), noise)
        return _projection_loss(out, P)

    return build_loss, _arrays(scratch)


def stage_reconstruction(rng):
    n, d = 6, 4
    candidates = np.stack(np.triu_indices(n, k=1), axis=1)
    true_edges = _random_edges(rng, range(n), 0.4)
    scratch = GradientTape()
    init_vgae(scratch, "vg", d, rng)
    scratch.parameter("h", rng.normal(size=(n, d)))

    def build_loss(tape: GradientTape) -> Tensor:
        sampling = score_edges(tape["h"], _vgae_from(tape, "vg"), candidates)
        return reconstruction_loss(sampling, true_edges)

    return build_loss, _arrays(scratch)


def stage_info_nce(rng):
    d = 4
    nodes1, nodes2 = (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)
    scratch = GradientTape()
    scratch.parameter("h1", rng.normal(size=(len(nodes1), d)))
    scratch.parameter("h2", rng.normal(size=(len(nodes2), d)))

    def build_loss(tape: GradientTape) -> Tensor:
        views = ViewEmbeddings(h1=tape["h1"], nodes1=nodes1,
                               h2=tape["h2"], nodes2=nodes2)
        return info_nce(views, tau=0.5)

    return build_loss, _arrays(scratch)


def stage_info_bn(rng):
    d = 4
    scratch = GradientTape()
    scratch.parameter("h1", rng.normal(size=(4, d)))
    scratch.parameter("h1_aug", rng.normal(size=(4, d)))
    scratch.parameter("h2", rng.normal(size=(5, d)))
    scratch.parameter("h2_aug", rng.normal(size=(5, d)))

    def build_loss(tape: GradientTape) -> Tensor:
        return info_bn(tape["h1"], tape["h1_aug"],
                       tape["h2"], tape["h2_aug"], tau=0.5)

    return build_loss, _arrays(scratch)


def stage_overall(rng):
    """Full contrastive path: POI projection through both loss terms."""
    I, T, C, d_sg, d, heads, n_layers = 3, 1, 3, 4, 4, 2, 2
    relations = [RelationType.MOBILITY]
    poi = _poi_fixture(rng, I, C)
    table = rng.normal(size=(C, d_sg))
    nodes1, nodes2 = (0, 1, 2, 3, 4), (1, 2, 3, 4, 5)

    def local_adj(nodes, edges):
        return normalized_adjacency(len(nodes), np.searchsorted(nodes, edges))

    edges1 = _random_edges(rng, nodes1, 0.6)
    edges2 = _random_edges(rng, nodes2, 0.6)
    adj = [local_adj(nodes1, edges1), local_adj(nodes2, edges2),
           local_adj(nodes1, _random_edges(rng, nodes1, 0.4)),
           local_adj(nodes2, _random_edges(rng, nodes2, 0.4))]
    scratch = GradientTape()
    init_mlp(scratch, "pm", d_sg, d, d, rng)
    init_attention(scratch, "at", d, heads, rng)
    init_encoder(scratch, "enc", d, n_layers, relations, rng)

    def build_loss(tape: GradientTape) -> Tensor:
        enc_params = _encoder_from(tape, "enc", n_layers, relations)
        E = project_regions(table, poi, _mlp_from(tape, "pm"))
        H0 = init_features(self_attention(E, _attn_from(tape, "at", heads)),
                           I, T)

        def enc_view(nodes, A):
            return encode({RelationType.MOBILITY: A},
                          nc.rows(H0, list(nodes)), enc_params)

        h1, h2 = enc_view(nodes1, adj[0]), enc_view(nodes2, adj[1])
        h1a, h2a = enc_view(nodes1, adj[2]), enc_view(nodes2, adj[3])
        views = ViewEmbeddings(h1=h1, nodes1=nodes1, h2=h2, nodes2=nodes2)
        nce = info_nce(views, tau=0.5)
        bn = info_bn(h1, h1a, h2, h2a, tau=0.5)
        return overall_loss(nce, bn, beta=0.1)

    return build_loss, _arrays(scratch)


STAGES = {
    "attention": stage_attention,
    "hgnn_encoder": stage_encoder,
    "vgae_encode": stage_vgae_encode,
    "reconstruction_loss": stage_reconstruction,
    "info_nce": stage_info_nce,
    "info_bn": stage_info_bn,
    "overall_loss": stage_overall,
}
