"""Multi-view graph construction and fusion.

Three views over I regions and T time slots: a POI-similarity graph and a
distance graph on base region nodes, and a mobility graph on slot-specific
region nodes built from the trip array. Fusion places everything on one node
index (base nodes first, then slot nodes in region-major order), adds a
temporal self-discrimination edge between each base node and each of its
slot nodes, and precomputes one symmetric normalized adjacency with
self-loops per relation: A_hat = D^{-1/2} (A + Id) D^{-1/2}, stored sparse
(CSR), since the graphs are far from dense.

Base node i has unified index i and slot node (i, t) has I + i*T + t.
Every edge set is a canonical (E, 2) int64 array of unified indices: rows
have u < v, hold no duplicates and are sorted lexicographically.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .numcore import CsrMatrix
from .region_data import DistanceMatrix


class RelationType(enum.Enum):
    POI = "poi"
    MOBILITY = "mobility"
    DISTANCE = "distance"
    TEMPORAL_SELF = "temporal_self"


def decode_node(idx: int, I: int, T: int) -> tuple:
    """(kind, region, slot) of a unified index; slot is None for base."""
    if not 0 <= idx < I * (1 + T):
        raise DataError(f"node index out of range: {idx}")
    if idx < I:
        return "base", idx, None
    region, t = divmod(idx - I, T)
    return "slot", region, t


def canonical_edges(pairs, n_nodes: int) -> np.ndarray:
    """Pairs as a canonical (E, 2) int64 array over n_nodes nodes.

    Rows are oriented u < v, unique, and sorted lexicographically;
    self-pairs are dropped.
    """
    e = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    e = e[e[:, 0] != e[:, 1]]
    keys = np.unique(e[:, 0] * n_nodes + e[:, 1])
    return np.stack(np.divmod(keys, max(n_nodes, 1)), axis=1)


def cosine_matrix(E: np.ndarray) -> np.ndarray:
    """All-pairs cosine; rows with zero norm are treated as orthogonal."""
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    unit = E / np.where(norms > 0, norms, 1.0)
    return unit @ unit.T


def build_poi_graph(E: np.ndarray, eps_p: float) -> np.ndarray:
    """Edge (i, j) on base nodes iff cos(e_i, e_j) > eps_p, i != j."""
    E = np.asarray(E, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise DataError("POI embeddings contain non-finite values")
    return _base_graph(E.shape[0], cosine_matrix(E) > eps_p)


def build_mobility_graph(trips, I: int, T: int) -> np.ndarray:
    """Slot(r_s, t_s) -- Slot(r_d, t_d) per (source, dest, t_start, t_end)
    row of the (N, 4) trip array, deduplicated."""
    trips = np.asarray(trips, dtype=np.int64).reshape(-1, 4)
    for ends, what, name, bound in ((trips[:, :2], "region", "I", I),
                                    (trips[:, 2:], "slot", "T", T)):
        bad = ends[(ends < 0) | (ends >= bound)]
        if bad.size:
            raise DataError(f"{what} index out of range: {bad[0]} "
                            f"({name}={bound})")
    # slot node (r, t) has unified index I + r*T + t
    return canonical_edges(I + trips[:, :2] * T + trips[:, 2:], I * (1 + T))


def build_distance_graph(dist: DistanceMatrix, eps_d: float) -> np.ndarray:
    """Edge (i, j) on base nodes iff km[i][j] < eps_d, i != j."""
    if eps_d <= 0.0:
        raise ConfigError(f"distance threshold must be positive, got {eps_d}")
    return _base_graph(dist.km.shape[0], dist.km < eps_d)


def _base_graph(I: int, linked: np.ndarray) -> np.ndarray:
    """Base-node edges (i, j), i < j, wherever linked[i, j], in row order."""
    pairs = np.stack(np.triu_indices(I, k=1), axis=1).astype(np.int64)
    return pairs[linked[pairs[:, 0], pairs[:, 1]]]


def normalized_adjacency(n_nodes: int, edges) -> CsrMatrix:
    """A_hat = D^{-1/2} (A + Id) D^{-1/2} as a symmetric CSR matrix.

    ``edges`` is an (E, 2) integer array; pairs may come in either
    orientation or both, and self-pairs add nothing. D counts the
    self-loop, so no row is empty.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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
    edges: dict                      # RelationType -> canonical (E, 2) array
    adj: dict                        # RelationType -> CsrMatrix A_hat

    @property
    def n_nodes(self) -> int:
        return self.I * (1 + self.T)

    def union_edges(self) -> np.ndarray:
        return canonical_edges(np.concatenate(list(self.edges.values())),
                               self.n_nodes)


def fuse(g_p: np.ndarray, g_m: np.ndarray, g_d: np.ndarray, I: int,
         T: int) -> HeteroGraph:
    """Unified heterogeneous graph over I base + I*T slot nodes.

    ``g_p`` and ``g_d`` hold base-node edges and ``g_m`` slot-node edges,
    each a canonical (E, 2) array of unified indices.
    """
    n = I * (1 + T)
    edges = {
        RelationType.POI: g_p,
        RelationType.MOBILITY: g_m,
        RelationType.DISTANCE: g_d,
        # base node i to each of its slot nodes, which are region-major
        RelationType.TEMPORAL_SELF: np.stack(
            [np.repeat(np.arange(I, dtype=np.int64), T),
             np.arange(I, n, dtype=np.int64)], axis=1),
    }
    adj = {rel: normalized_adjacency(n, es) for rel, es in edges.items()}
    return HeteroGraph(I=I, T=T, edges=edges, adj=adj)


def edge_records(g: HeteroGraph):
    """Deterministically ordered dicts, one per edge, for the JSONL dump."""
    for rel in RelationType:
        for u, v in g.edges[rel].tolist():
            u_kind, u_region, u_slot = decode_node(u, g.I, g.T)
            v_kind, v_region, v_slot = decode_node(v, g.I, g.T)
            yield {
                "relation": rel.value,
                "u_kind": u_kind, "u_region": u_region, "u_slot": u_slot,
                "v_kind": v_kind, "v_region": v_region, "v_slot": v_slot,
            }


def dump_jsonl(g: HeteroGraph, path: str) -> None:
    with open(path, "w") as fh:
        for rec in edge_records(g):
            fh.write(json.dumps(rec) + "\n")
