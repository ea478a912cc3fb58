"""End-to-end training loop and embedding export.

Epoch order follows the alternating scheme: generate two views from the
current full-graph embeddings, encode both views, minimize the combined
contrastive loss with Adam over the encoder-side parameters (POI projection,
attention, message-passing weights), then score the freshly updated views
into a reward and Adam-step the two view samplers on the reward-weighted
reconstruction loss. Sampler parameters and encoder parameters are disjoint
groups; the full-graph embeddings are detached before entering the samplers
so no gradient crosses the boundary in either direction.

Reward convention: computed after the encoder step (re-encoding the same
views with the same InfoBN drop patterns under the updated weights), since
the alternation updates samplers against the encoder they will face next.

Variants used by the evaluation harness:
  FULL        the plain pipeline (default);
  NO_GP       POI relation excluded from fusion and message passing;
  NO_GD       distance relation excluded;
  NO_INFOMIN  reward pinned to 1 (no discrimination signal);
  RANDOM_AUG  views are uniform 20% edge-drops of the fused graph; the
              samplers, reconstruction losses, and rewards are inert.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ConfigError, DataError, TrainingAborted
from .hetero_graph import (HeteroGraph, RelationType, build_distance_graph,
                           build_mobility_graph, build_poi_graph, fuse,
                           normalized_adjacency)
from .hgnn_encoder import EncoderParams, encode, init_encoder, init_features
from .losses import (LossConfig, ViewEmbeddings, combined_reward, drop_edges,
                     info_bn, info_nce, overall_loss, reward_r1, reward_r2,
                     sampler_objective)
from .numcore import AdamState, GradientTape, Tensor, adam_step, backward
from .poi_embedding import (SkipgramConfig, init_attention, init_mlp,
                            pooled_vectors, project_regions, self_attention,
                            train_skipgram)
from .region_data import Dataset
from .view_generator import (ContrastiveView, ViewGenConfig, init_vgae,
                             generate_views, reconstruction_loss, seed_count)

VARIANTS = ("FULL", "NO_GP", "NO_GD", "NO_INFOMIN", "RANDOM_AUG")
RANDOM_AUG_DROP = 0.2

EMBED_MAGIC = b"ASTE"
EMBED_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 0.0005
    weight_decay: float = 0.01
    d: int = 96
    heads: int = 4
    n_layers: int = 3
    eps_p: float = 0.5
    eps_d: float = 2.5
    skipgram: SkipgramConfig = field(default_factory=SkipgramConfig)
    view: ViewGenConfig = field(default_factory=ViewGenConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    variant: str = "FULL"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.d < 1 or self.heads < 1:
            raise ConfigError(f"need d >= 1 and heads >= 1, got d={self.d}, "
                              f"heads={self.heads}")
        if self.d % self.heads:
            raise ConfigError(f"embedding dim {self.d} not divisible by "
                              f"{self.heads} heads")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, "
                              f"expected one of {VARIANTS}")


@dataclass
class EpochRecord:
    epoch: int
    l_nce: float
    l_bn: float
    loss: float
    reward: float
    l_rec1: float
    l_rec2: float


@dataclass
class TrainedModel:
    cfg: TrainConfig
    graph: HeteroGraph
    tape: GradientTape
    table: np.ndarray                  # frozen skip-gram category table
    H: np.ndarray                      # final full-graph node embeddings
    history: list
    encoder_opt: AdamState
    sampler_opt: AdamState | None

    @property
    def I(self) -> int:
        return self.graph.I


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_graph(dataset: Dataset, table: np.ndarray,
                cfg: TrainConfig) -> HeteroGraph:
    """Fuse the three data views; POI similarity uses pooled table vectors.

    An ablated relation is emptied here, before fusion, so it disappears
    from message passing, candidate pairs, and reconstruction targets alike.
    """
    pooled = pooled_vectors(table, dataset.poi)
    g_p = build_poi_graph(pooled, cfg.eps_p)
    g_m = build_mobility_graph(dataset.trajectories,
                               dataset.n_regions, dataset.T)
    g_d = build_distance_graph(dataset.dist, cfg.eps_d)
    if cfg.variant == "NO_GP":
        g_p = g_p[:0]
    if cfg.variant == "NO_GD":
        g_d = g_d[:0]
    return fuse(g_p, g_m, g_d, dataset.n_regions, dataset.T)


def _group(tape: GradientTape, prefixes) -> dict:
    return {name: t for name, t in tape.params.items()
            if name.split(".")[0] in prefixes}


def _checksums(params: dict) -> dict:
    return {name: hashlib.sha256(t.data.tobytes()).hexdigest()
            for name, t in params.items()}


def _encode_view(nodes: np.ndarray, edges: np.ndarray, H0: Tensor,
                 params: EncoderParams) -> Tensor:
    """Encode a relation-agnostic subgraph with the mobility weight bank."""
    # view nodes are sorted graph indices, so a node's row is its rank
    A = normalized_adjacency(len(nodes), np.searchsorted(nodes, edges))
    sub_params = EncoderParams(layers=[
        {RelationType.MOBILITY: layer[RelationType.MOBILITY]}
        for layer in params.layers])
    return encode({RelationType.MOBILITY: A}, nc.rows(H0, nodes), sub_params)


def _random_aug_views(graph: HeteroGraph, rng: np.random.Generator):
    """Comparison arm: full node set, uniform edge drops, no samplers."""
    union = graph.union_edges()
    nodes = np.arange(graph.n_nodes)
    views = []
    for _ in range(2):
        kept = drop_edges(union, RANDOM_AUG_DROP, rng)
        views.append(ContrastiveView(nodes=nodes, edges=kept, seeds=nodes))
    return views


def train(dataset: Dataset, cfg: TrainConfig,
          table: np.ndarray | None = None) -> TrainedModel:
    """Run the full alternating optimization; deterministic given cfg.seed."""
    n_nodes = dataset.n_regions * (1 + dataset.T)
    # both views contain every seed node, or every node under RANDOM_AUG
    shared = (n_nodes if cfg.variant == "RANDOM_AUG"
              else seed_count(cfg.view, n_nodes))
    if shared < 2:
        raise ConfigError(
            f"views would share {shared} node(s) of {n_nodes}, InfoNCE needs "
            f">= 2: raise view.seed_frac (now {cfg.view.seed_frac}) or use "
            f"a larger city")
    # every view is encoded with the mobility weights, which exist only
    # when some trip changes region or slot
    trips = dataset.trajectories
    if not np.any((trips[:, 0] != trips[:, 1]) | (trips[:, 2] != trips[:, 3])):
        raise DataError(
            f"the mobility relation has no edges: none of the "
            f"{len(dataset.trajectories)} trips changes region or slot, and "
            f"contrastive views are encoded with the mobility weights")
    if table is None:
        table = train_skipgram(dataset.poi, cfg.skipgram)
    graph = build_graph(dataset, table, cfg)
    I, T = graph.I, graph.T
    # an edgeless relation normalizes to the identity, a pure self-transform
    # carrying no data; skipping it drops the relations build_graph emptied
    # for an ablation, and makes ablations of already-empty relations exact
    # no-ops (same parameter set, same init draws)
    relations = [rel for rel in RelationType if len(graph.edges[rel])]
    adjacencies = {rel: graph.adj[rel] for rel in relations}

    seq = np.random.SeedSequence(cfg.seed)
    streams = dict(zip(("init", "views", "infobn"),
                       (np.random.default_rng(s) for s in seq.spawn(3))))

    tape = GradientTape()
    mlp = init_mlp(tape, "poi_mlp", cfg.skipgram.d_sg, cfg.d, cfg.d,
                   streams["init"])
    attn = init_attention(tape, "attn", cfg.d, cfg.heads, streams["init"])
    hgnn = init_encoder(tape, "hgnn", cfg.d, cfg.n_layers, relations,
                        streams["init"])
    sampling_on = cfg.variant != "RANDOM_AUG"
    if sampling_on:
        vgae1 = init_vgae(tape, "vgae1", cfg.d, streams["init"])
        vgae2 = init_vgae(tape, "vgae2", cfg.d, streams["init"])

    encoder_group = _group(tape, {"poi_mlp", "attn", "hgnn"})
    sampler_group = _group(tape, {"vgae1", "vgae2"})
    encoder_opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    sampler_opt = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay) \
        if sampling_on else None

    def region_stack() -> Tensor:
        E = self_attention(project_regions(table, dataset.poi, mlp), attn)
        return init_features(E, I, T)

    def cl_forward(views, bn_drops):
        """Contrastive losses for fixed views and fixed InfoBN drop sets."""
        H0 = region_stack()
        h = [_encode_view(v.nodes, v.edges, H0, hgnn) for v in views]
        h_aug = [_encode_view(v.nodes, kept, H0, hgnn)
                 for v, kept in zip(views, bn_drops)]
        pair = ViewEmbeddings(h1=h[0], nodes1=views[0].nodes,
                              h2=h[1], nodes2=views[1].nodes)
        nce = info_nce(pair, cfg.loss.tau)
        bn = info_bn(h[0], h_aug[0], h[1], h_aug[1], cfg.loss.tau)
        return pair, nce, bn, overall_loss(nce, bn, cfg.loss.beta)

    history: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        # view generation from detached full-graph embeddings
        H_full = encode(adjacencies, region_stack(), hgnn)
        if sampling_on:
            gen = generate_views(graph, H_full.detach(), vgae1, vgae2,
                                 cfg.view, streams["views"])
            views = gen.views
        else:
            views = _random_aug_views(graph, streams["views"])

        for v in views:
            assert np.isin(v.seeds, v.nodes).all()

        bn_drops = tuple(drop_edges(v.edges, cfg.loss.infobn_drop,
                                    streams["infobn"]) for v in views)

        # encoder step on the combined contrastive loss
        _, nce, bn, total = cl_forward(views, bn_drops)
        l_nce, l_bn, l_total = nce.item(), bn.item(), total.item()
        if not np.isfinite(l_total):
            raise TrainingAborted(
                f"epoch {epoch}: non-finite loss "
                f"(L_NCE={l_nce!r}, L_BN={l_bn!r})")

        sampler_before = _checksums(sampler_group)
        grads = backward(tape, total)
        adam_step(encoder_opt, encoder_group,
                  {k: grads[k] for k in encoder_group})
        assert _checksums(sampler_group) == sampler_before, \
            "encoder step touched sampler parameters"

        reward, l_rec1, l_rec2 = 1.0, 0.0, 0.0
        if sampling_on:
            # reward from the updated encoder facing the same views
            if cfg.variant != "NO_INFOMIN":
                post_pair, _, _, post_total = cl_forward(views, bn_drops)
                r1 = reward_r1(post_total.item(), cfg.loss.eps_prime,
                               cfg.loss.xi)
                r2 = reward_r2(post_pair)
                reward = combined_reward(r1, r2, cfg.loss.w1)

            # sampler step on the reward-weighted reconstruction loss
            union = graph.union_edges()
            rec1 = reconstruction_loss(gen.sampling[0], union)
            rec2 = reconstruction_loss(gen.sampling[1], union)
            l_rec1, l_rec2 = rec1.item(), rec2.item()
            objective = sampler_objective(reward, rec1, rec2)
            if not np.isfinite(objective.item()):
                raise TrainingAborted(
                    f"epoch {epoch}: non-finite sampler objective "
                    f"(L_Rec1={l_rec1!r}, L_Rec2={l_rec2!r})")
            encoder_before = _checksums(encoder_group)
            grads = backward(tape, objective)
            adam_step(sampler_opt, sampler_group,
                      {k: grads[k] for k in sampler_group})
            assert _checksums(encoder_group) == encoder_before, \
                "sampler step touched encoder parameters"

        history.append(EpochRecord(epoch=epoch, l_nce=l_nce, l_bn=l_bn,
                                   loss=l_total, reward=reward,
                                   l_rec1=l_rec1, l_rec2=l_rec2))

    H_final = encode(adjacencies, region_stack(), hgnn)
    return TrainedModel(cfg=cfg, graph=graph, tape=tape, table=table,
                        H=H_final.data.copy(), history=history,
                        encoder_opt=encoder_opt, sampler_opt=sampler_opt)


def region_embeddings(model: TrainedModel) -> np.ndarray:
    """Base-node rows of the final full-graph embedding matrix."""
    return model.H[:model.I].copy()


def write_loss_csv(history, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,L_NCE,L_BN,L,reward,L_Rec1,L_Rec2\n")
        for r in history:
            fh.write(f"{r.epoch},{r.l_nce!r},{r.l_bn!r},{r.loss!r},"
                     f"{r.reward!r},{r.l_rec1!r},{r.l_rec2!r}\n")


# ---------------------------------------------------------------------------
# embedding file format: magic, version, I, d, config hash, payload checksum
# ---------------------------------------------------------------------------

def export_embeddings(model: TrainedModel, path: str) -> None:
    matrix = np.ascontiguousarray(region_embeddings(model))
    payload = matrix.tobytes()
    header = struct.pack(">4sIII", EMBED_MAGIC, EMBED_VERSION,
                         matrix.shape[0], matrix.shape[1])
    hash_bytes = bytes.fromhex(config_hash(model.cfg))
    checksum = hashlib.sha256(payload).digest()
    try:
        with open(path, "wb") as fh:
            fh.write(header + hash_bytes + checksum + payload)
    except OSError as e:
        raise DataError(f"cannot write embeddings to {path}: {e}") from None


def load_embeddings(path: str):
    """Returns (matrix, header dict); refuses corrupted payloads."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise DataError(f"cannot read embeddings from {path}: {e}") from None
    head = struct.calcsize(">4sIII")
    if len(blob) < head + 64:
        raise DataError(f"{path}: truncated embedding file")
    magic, version, I, d = struct.unpack(">4sIII", blob[:head])
    if magic != EMBED_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != EMBED_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    cfg_hash = blob[head:head + 32].hex()
    checksum = blob[head + 32:head + 64]
    payload = blob[head + 64:]
    if len(payload) != I * d * 8:
        raise DataError(f"{path}: payload is {len(payload)} bytes, "
                        f"expected {I * d * 8}")
    if hashlib.sha256(payload).digest() != checksum:
        raise DataError(f"{path}: checksum mismatch, file corrupted")
    matrix = np.frombuffer(payload, dtype=np.float64).reshape(I, d).copy()
    return matrix, {"version": version, "I": I, "d": d,
                    "config_hash": cfg_hash}
