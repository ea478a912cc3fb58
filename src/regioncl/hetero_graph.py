"""Multi-view graph construction and fusion.

Three views over I regions and T time slots: a POI-similarity graph and a
distance graph on base region nodes, and a mobility graph on slot-specific
region nodes built from trip records. Fusion places everything on one node
index (base nodes first, then slot nodes in region-major order), adds a
temporal self-discrimination edge between each base node and each of its
slot nodes, and precomputes one symmetric normalized adjacency with
self-loops per relation: A_hat = D^{-1/2} (A + Id) D^{-1/2}, stored sparse
(CSR), since the graphs are far from dense.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .numcore import CsrMatrix
from .region_data import DistanceMatrix, TrajectoryRecord


class RelationType(enum.Enum):
    POI = "poi"
    MOBILITY = "mobility"
    DISTANCE = "distance"
    TEMPORAL_SELF = "temporal_self"


@dataclass(frozen=True, order=True)
class NodeRef:
    kind: str                # "base" or "slot"
    region: int
    slot: int = -1           # -1 for base nodes

    def __post_init__(self):
        if self.kind not in ("base", "slot"):
            raise DataError(f"bad node kind {self.kind!r}")
        if (self.kind == "slot") != (self.slot >= 0):
            raise DataError(f"kind {self.kind!r} with slot {self.slot}")


def base(region: int) -> NodeRef:
    return NodeRef("base", region)


def slot(region: int, t: int) -> NodeRef:
    return NodeRef("slot", region, t)


def node_index(ref: NodeRef, I: int, T: int) -> int:
    """Unified index: base nodes 0..I-1, then slot nodes region-major."""
    if not 0 <= ref.region < I:
        raise DataError(f"region index out of range: {ref.region} (I={I})")
    if ref.kind == "base":
        return ref.region
    if not 0 <= ref.slot < T:
        raise DataError(f"slot index out of range: {ref.slot} (T={T})")
    return I + ref.region * T + ref.slot


def node_ref(idx: int, I: int, T: int) -> NodeRef:
    if not 0 <= idx < I * (1 + T):
        raise DataError(f"node index out of range: {idx}")
    if idx < I:
        return base(idx)
    region, t = divmod(idx - I, T)
    return slot(region, t)


def _edge(u: NodeRef, v: NodeRef) -> tuple[NodeRef, NodeRef]:
    return (u, v) if u <= v else (v, u)


@dataclass
class ViewGraph:
    nodes: list[NodeRef]
    edges: frozenset  # of canonical (NodeRef, NodeRef) pairs, no self-edges


def cosine_matrix(E: np.ndarray) -> np.ndarray:
    """All-pairs cosine; rows with zero norm are treated as orthogonal."""
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    unit = E / np.where(norms > 0, norms, 1.0)
    return unit @ unit.T


def build_poi_graph(E: np.ndarray, eps_p: float) -> ViewGraph:
    """Edge (i, j) on base nodes iff cos(e_i, e_j) > eps_p, i != j."""
    E = np.asarray(E, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise DataError("POI embeddings contain non-finite values")
    return _base_graph(E.shape[0], cosine_matrix(E) > eps_p)


def build_mobility_graph(trajectories: list[TrajectoryRecord], I: int,
                         T: int) -> ViewGraph:
    """Slot(r_s, t_s) -- Slot(r_d, t_d) per record, deduplicated."""
    edges = set()
    for rec in trajectories:
        for r in (rec.source, rec.dest):
            if not 0 <= r < I:
                raise DataError(f"region index out of range: {r} (I={I})")
        for t in (rec.t_start, rec.t_end):
            if not 0 <= t < T:
                raise DataError(f"slot index out of range: {t} (T={T})")
        u = slot(rec.source, rec.t_start)
        v = slot(rec.dest, rec.t_end)
        if u != v:
            edges.add(_edge(u, v))
    nodes = [slot(i, t) for i in range(I) for t in range(T)]
    return ViewGraph(nodes=nodes, edges=frozenset(edges))


def build_distance_graph(dist: DistanceMatrix, eps_d: float) -> ViewGraph:
    """Edge (i, j) on base nodes iff km[i][j] < eps_d, i != j."""
    if eps_d <= 0.0:
        raise ConfigError(f"distance threshold must be positive, got {eps_d}")
    return _base_graph(dist.km.shape[0], dist.km < eps_d)


def _base_graph(I: int, linked: np.ndarray) -> ViewGraph:
    """Base-node graph with edge (i, j), i < j, wherever linked[i, j]."""
    nodes = [base(i) for i in range(I)]
    iu, ju = np.triu_indices(I, k=1)
    keep = linked[iu, ju]
    return ViewGraph(nodes=nodes, edges=frozenset(
        (nodes[i], nodes[j])
        for i, j in zip(iu[keep].tolist(), ju[keep].tolist())))


def edge_array(edges) -> np.ndarray:
    """An (E, 2) int64 array from a collection of (u, v) pairs."""
    if isinstance(edges, np.ndarray):
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    return np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                       count=2 * len(edges)).reshape(-1, 2)


def normalized_adjacency(n_nodes: int, edges) -> CsrMatrix:
    """A_hat = D^{-1/2} (A + Id) D^{-1/2} as a symmetric CSR matrix.

    ``edges`` is a collection of (u, v) pairs or an (E, 2) integer array;
    pairs may come in either orientation or both, and self-pairs add
    nothing. D counts the self-loop, so no row is empty.
    """
    e = edge_array(edges)
    if e.size and (e.min() < 0 or e.max() >= n_nodes):
        raise DataError(f"edge endpoint out of range for {n_nodes} nodes")
    loops = np.arange(n_nodes, dtype=np.int64)
    keys = np.unique(np.concatenate([e[:, 0] * n_nodes + e[:, 1],
                                     e[:, 1] * n_nodes + e[:, 0],
                                     loops * (n_nodes + 1)]))
    rows, cols = np.divmod(keys, max(n_nodes, 1))
    degree = np.bincount(rows, minlength=n_nodes)
    inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
    return CsrMatrix(np.concatenate([[0], np.cumsum(degree)]), cols,
                     inv_sqrt[rows] * inv_sqrt[cols], (n_nodes, n_nodes))


@dataclass
class HeteroGraph:
    I: int
    T: int
    edges: dict                      # RelationType -> frozenset[(int, int)]
    adj: dict                        # RelationType -> CsrMatrix A_hat

    @property
    def n_nodes(self) -> int:
        return self.I * (1 + self.T)

    def union_edges(self) -> frozenset:
        out = set()
        for es in self.edges.values():
            out |= es
        return frozenset(out)


def fuse(g_p: ViewGraph, g_m: ViewGraph, g_d: ViewGraph, I: int,
         T: int) -> HeteroGraph:
    """Unified heterogeneous graph over I base + I*T slot nodes."""
    n = I * (1 + T)

    def to_indices(view: ViewGraph) -> frozenset:
        return frozenset((node_index(u, I, T), node_index(v, I, T))
                         for u, v in view.edges)

    edges = {
        RelationType.POI: to_indices(g_p),
        RelationType.MOBILITY: to_indices(g_m),
        RelationType.DISTANCE: to_indices(g_d),
        RelationType.TEMPORAL_SELF: frozenset(
            (i, node_index(slot(i, t), I, T))
            for i in range(I) for t in range(T)),
    }
    adj = {rel: normalized_adjacency(n, es) for rel, es in edges.items()}
    return HeteroGraph(I=I, T=T, edges=edges, adj=adj)


def edge_records(g: HeteroGraph):
    """Deterministically ordered dicts, one per edge, for the JSONL dump."""
    for rel in RelationType:
        for u, v in sorted(g.edges[rel]):
            ru, rv = node_ref(u, g.I, g.T), node_ref(v, g.I, g.T)
            yield {
                "relation": rel.value,
                "u_kind": ru.kind, "u_region": ru.region,
                "u_slot": ru.slot if ru.kind == "slot" else None,
                "v_kind": rv.kind, "v_region": rv.region,
                "v_slot": rv.slot if rv.kind == "slot" else None,
            }


def dump_jsonl(g: HeteroGraph, path: str) -> None:
    with open(path, "w") as fh:
        for rec in edge_records(g):
            fh.write(json.dumps(rec) + "\n")
