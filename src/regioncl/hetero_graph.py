"""Multi-view graph construction and fusion.

Three views over I regions and T time slots: a POI-similarity graph and a
distance graph on base region nodes, and a mobility graph on slot-specific
region nodes built from the trip array. Fusion places everything on one node
index (base nodes first, then slot nodes in region-major order), adds a
temporal self-discrimination edge between each base node and each of its
slot nodes, and precomputes one symmetric normalized adjacency with
self-loops per relation that has edges: A_hat = D^{-1/2} (A + Id) D^{-1/2},
stored sparse (CSR), since the graphs are far from dense.

Base node i has unified index i and slot node (i, t) has I + i*T + t.
Every edge set is a canonical (E, 2) int64 array of unified indices: rows
have u < v, hold no duplicates and are sorted lexicographically.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .numcore import CsrMatrix
from .region_data import DistanceMatrix


class RelationType(enum.Enum):
    POI = "poi"
    MOBILITY = "mobility"
    DISTANCE = "distance"
    TEMPORAL_SELF = "temporal_self"


def decode_node(idx: int, I: int, T: int) -> tuple:
    """(kind, region, slot) of a unified index; slot is None for base."""
    if idx < I:
        return "base", idx, None
    region, t = divmod(idx - I, T)
    return "slot", region, t


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int64 key array by one sort and a mask of
    adjacent differences, skipping the hash table numpy >= 2.3 builds."""
    keys = np.sort(keys)
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def canonical_edges(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    """An (E, 2) int64 array of pairs over n_nodes nodes, made canonical.

    Rows are oriented u < v, unique, and sorted lexicographically;
    self-pairs are dropped; ``sorted_unique`` dedups the keys u*n_nodes + v.
    """
    e = np.sort(pairs, axis=1)
    e = e[e[:, 0] != e[:, 1]]
    keys = sorted_unique(e[:, 0] * n_nodes + e[:, 1])
    return np.stack(np.divmod(keys, max(n_nodes, 1)), axis=1)


def cosine_matrix(E: np.ndarray) -> np.ndarray:
    """All-pairs cosine; rows with zero norm are treated as orthogonal."""
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    unit = E / np.where(norms > 0, norms, 1.0)
    return unit @ unit.T


def build_poi_graph(E: np.ndarray, eps_p: float) -> np.ndarray:
    """Edge (i, j) on base nodes iff cos(e_i, e_j) > eps_p, i != j."""
    if not np.all(np.isfinite(E)):
        raise DataError("POI embeddings contain non-finite values")
    return _base_graph(E.shape[0], cosine_matrix(E) > eps_p)


def build_mobility_graph(trips: np.ndarray, I: int, T: int) -> np.ndarray:
    """Slot(r_s, t_s) -- Slot(r_d, t_d) per (source, dest, t_start, t_end)
    row of the (N, 4) int64 trip array, deduplicated."""
    # slot node (r, t) has unified index I + r*T + t
    return canonical_edges(I + trips[:, :2] * T + trips[:, 2:], I * (1 + T))


def build_distance_graph(dist: DistanceMatrix, eps_d: float) -> np.ndarray:
    """Edge (i, j) on base nodes iff km[i][j] < eps_d, i != j."""
    return _base_graph(dist.km.shape[0], dist.km < eps_d)


def _base_graph(I: int, linked: np.ndarray) -> np.ndarray:
    """Base-node edges (i, j), i < j, wherever linked[i, j], in row order."""
    pairs = np.stack(np.triu_indices(I, k=1), axis=1).astype(np.int64)
    return pairs[linked[pairs[:, 0], pairs[:, 1]]]


def normalized_adjacency(n_nodes: int, edges: np.ndarray) -> CsrMatrix:
    """A_hat = D^{-1/2} (A + Id) D^{-1/2} as a symmetric CSR matrix.

    ``edges`` is an (E, 2) int64 edge array; pairs may come in either
    orientation or both, and self-pairs add nothing. D counts the
    self-loop, so no row is empty. ``sorted_unique`` dedups the keys
    row*n_nodes + col of both orientations and the loops into CSR order.
    """
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise DataError(f"edge endpoint out of range for {n_nodes} nodes")
    loops = np.arange(n_nodes, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    keys = sorted_unique(np.concatenate([u * n_nodes + v, v * n_nodes + u,
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
    adj: dict                        # RelationType -> A_hat, if it has edges
    union: np.ndarray                # canonical union of all the relations

    @property
    def n_nodes(self) -> int:
        return self.I * (1 + self.T)


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
    # an edgeless relation would normalize to the identity, a pure
    # self-transform carrying no data: leaving it out drops the relations
    # an ablation emptied, and makes ablations of already-empty relations
    # exact no-ops (same weight bank, same init draws)
    adj = {rel: normalized_adjacency(n, es) for rel, es in edges.items()
           if len(es)}
    union = canonical_edges(np.concatenate(list(edges.values())), n)
    return HeteroGraph(I=I, T=T, edges=edges, adj=adj, union=union)


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
