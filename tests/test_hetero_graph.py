"""Tests for view-graph construction and heterogeneous fusion.

Derived oracles: brute-force all-pairs cosine and distance thresholding,
a set-comprehension dedup pass for mobility edges, the hand-evaluated
d_i^{-1/2} d_j^{-1/2} normalization of a 3-node path, and a dense
per-edge construction of A_hat that the sparse one must equal bit for bit.
Every edge set is a canonical (E, 2) int64 array of unified node indices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import assert_edges, edge_rows
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import hetero_graph as hg
from regioncl.errors import ConfigError, DataError
from regioncl.region_data import DistanceMatrix

RNG = np.random.default_rng


def loop_base_edges(I, linked):
    """Pair-loop oracle for the base-node graphs: (i, j), i < j, if linked."""
    return {(i, j) for i in range(I) for j in range(i + 1, I)
            if linked(i, j)}


class TestPoiGraph:
    def test_threshold_one_gives_empty(self):
        E = RNG(0).normal(size=(5, 4))
        assert_edges(hg.build_poi_graph(E, 1.0), set())

    def test_identical_rows_one_edge(self):
        E = np.vstack([np.ones(3), np.ones(3), -np.ones(3)])
        assert_edges(hg.build_poi_graph(E, 0.5), {(0, 1)})

    def test_matches_all_pairs_cosine_oracle(self):
        E = RNG(1).normal(size=(4, 6))
        g = hg.build_poi_graph(E, 0.3)
        want = set()
        for i in range(4):
            for j in range(i + 1, 4):
                c = E[i] @ E[j] / (np.linalg.norm(E[i]) * np.linalg.norm(E[j]))
                if c > 0.3:
                    want.add((i, j))
        assert_edges(g, want)

    def test_random_inputs_match_pair_loop(self):
        for seed in range(8):
            rng = RNG(40 + seed)
            I = int(rng.integers(1, 30))
            E = rng.normal(size=(I, 5))
            E[rng.random(I) < 0.1] = 0.0
            eps = float(rng.uniform(-0.5, 0.9))
            sim = hg.cosine_matrix(E)
            want = loop_base_edges(I, lambda i, j: sim[i, j] > eps)
            assert_edges(hg.build_poi_graph(E, eps), want)

    def test_zero_row_uses_cosine_zero_convention(self):
        E = np.vstack([np.zeros(3), np.ones(3)])
        # cos(zero row, anything) = 0: above a -0.5 threshold, not above 0
        assert_edges(hg.build_poi_graph(E, 0.0), set())
        assert_edges(hg.build_poi_graph(E, -0.5), {(0, 1)})


class TestMobilityGraph:
    def test_empty_trajectories(self):
        assert_edges(hg.build_mobility_graph([], I=3, T=2), set())

    def test_single_record(self):
        g = hg.build_mobility_graph([(0, 1, 2, 3)], I=2, T=4)
        # slot (0, 2) is 2 + 0 * 4 + 2 = 4, slot (1, 3) is 2 + 1 * 4 + 3 = 9
        assert_edges(g, {(4, 9)})

    def test_reversed_record_oriented(self):
        g = hg.build_mobility_graph([(1, 0, 3, 2)], I=2, T=4)
        assert_edges(g, {(4, 9)})

    def test_self_loop_record_dropped(self):
        g = hg.build_mobility_graph([(1, 1, 0, 0)], I=2, T=1)
        assert_edges(g, set())

    def test_matches_set_comprehension_oracle(self):
        rng = RNG(2)
        recs = [(int(rng.integers(0, 6)),
                 int(rng.integers(0, 6)),
                 int(s := rng.integers(0, 4)),
                 int(min(s + rng.integers(0, 2), 3)))
                for _ in range(100)]
        g = hg.build_mobility_graph(recs, I=6, T=4)
        want = {tuple(sorted([6 + src * 4 + ts, 6 + dst * 4 + te]))
                for src, dst, ts, te in recs
                if (src, ts) != (dst, te)}
        assert_edges(g, want)

    def test_random_trip_arrays_match_per_trip_loop(self):
        for seed in range(8):
            rng = RNG(60 + seed)
            I, T = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            n = int(rng.integers(0, 200))
            ts = rng.integers(0, T, size=n)
            trips = np.stack([rng.integers(0, I, size=n),
                              rng.integers(0, I, size=n), ts,
                              np.minimum(ts + rng.integers(0, 3, size=n),
                                         T - 1)], axis=1)
            want = set()
            for src, dst, t_start, t_end in trips.tolist():
                u, v = I + src * T + t_start, I + dst * T + t_end
                if u != v:
                    want.add((min(u, v), max(u, v)))
            assert_edges(hg.build_mobility_graph(trips, I, T), want)

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(DataError, match="slot index out of range"):
            hg.build_mobility_graph([(0, 1, 0, 5)], I=2, T=2)

    def test_out_of_range_region_rejected(self):
        for bad in ((0, 2, 0, 1), (-1, 0, 0, 1)):
            with pytest.raises(DataError, match="region index out of range"):
                hg.build_mobility_graph([(0, 1, 0, 1), bad], I=2, T=2)


def grid_distance_matrix(n, spacing_km):
    """n regions on a line, exact pairwise distances |i-j| * spacing."""
    km = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) * spacing_km
    return DistanceMatrix(km=km.astype(np.float64),
                          centroids=np.zeros((n, 2)))


class TestDistanceGraph:
    def test_huge_threshold_complete(self):
        g = hg.build_distance_graph(grid_distance_matrix(4, 1.0), 100.0)
        assert_edges(g, {(i, j) for i in range(4) for j in range(i + 1, 4)})

    def test_tiny_threshold_empty(self):
        g = hg.build_distance_graph(grid_distance_matrix(4, 1.0), 0.5)
        assert_edges(g, set())

    def test_grid_matches_pairwise_oracle(self):
        dm = grid_distance_matrix(5, 1.0)
        g = hg.build_distance_graph(dm, 1.5)
        want = {(i, j) for i in range(5) for j in range(i + 1, 5)
                if dm.km[i, j] < 1.5}
        assert_edges(g, want)
        assert len(want) == 4  # only adjacent pairs at spacing 1.0

    def test_nonpositive_threshold_rejected(self):
        for eps in (0.0, -1.0):
            with pytest.raises(ConfigError):
                hg.build_distance_graph(grid_distance_matrix(3, 1.0), eps)

    def test_random_inputs_match_pair_loop(self):
        for seed in range(8):
            rng = RNG(60 + seed)
            I = int(rng.integers(1, 30))
            km = rng.uniform(0.0, 5.0, size=(I, I))
            km = (km + km.T) / 2
            dm = DistanceMatrix(km=km, centroids=np.zeros((I, 2)))
            eps = float(rng.uniform(0.5, 4.0))
            want = loop_base_edges(I, lambda i, j: km[i, j] < eps)
            assert_edges(hg.build_distance_graph(dm, eps), want)

    def test_strict_inequality_at_boundary(self):
        g = hg.build_distance_graph(grid_distance_matrix(3, 1.0), 1.0)
        assert_edges(g, set())


def dense_adjacency(n, edges):
    """The dense per-edge construction of D^{-1/2} (A + Id) D^{-1/2}."""
    A = np.eye(n)
    for u, v in edges:
        A[u, v] = 1.0
        A[v, u] = 1.0
    inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    return A * inv_sqrt[:, None] * inv_sqrt[None, :]


class TestNormalizedAdjacency:
    def test_isolated_node_diagonal_one(self):
        A_hat = hg.normalized_adjacency(1, edge_rows([])).toarray()
        assert_allclose(A_hat, [[1.0]])

    def test_three_node_path_hand_oracle(self):
        """Path 0-1-2 with self-loops: degrees (2, 3, 2)."""
        A_hat = hg.normalized_adjacency(3, edge_rows({(0, 1),
                                                     (1, 2)})).toarray()
        s6 = 1.0 / np.sqrt(6.0)
        want = np.array([[0.5, s6, 0.0],
                         [s6, 1.0 / 3.0, s6],
                         [0.0, s6, 0.5]])
        assert_allclose(A_hat, want, atol=1e-12)

    def test_symmetric_and_bounded(self):
        rng = RNG(3)
        n = 8
        edges = {(int(a), int(b)) for a, b in
                 rng.integers(0, n, size=(12, 2)) if a != b}
        A_hat = hg.normalized_adjacency(n, edge_rows(edges)).toarray()
        assert np.max(np.abs(A_hat - A_hat.T)) == 0.0
        assert A_hat.min() >= 0.0
        assert A_hat.max() <= 1.0

    @pytest.mark.parametrize("n, edges", [
        (1, set()),
        (1, {(0, 0)}),
        (4, set()),
        (5, {(0, 1), (1, 0), (3, 1)}),          # both orientations of (0, 1)
        (6, {(2, 3), (3, 2), (4, 4), (0, 5)}),  # nodes 1 isolated, self-pair
    ])
    def test_equals_dense_construction_bit_for_bit(self, n, edges):
        got = hg.normalized_adjacency(n, edge_rows(edges)).toarray()
        assert got.tobytes() == dense_adjacency(n, edges).tobytes()

    def test_random_graphs_equal_dense_construction_bit_for_bit(self):
        for seed in range(10):
            rng = RNG(80 + seed)
            n = int(rng.integers(1, 40))
            edges = {(int(a), int(b)) for a, b in
                     rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))}
            arr = edge_rows(edges)
            A = hg.normalized_adjacency(n, arr)
            assert A.toarray().tobytes() == dense_adjacency(n, edges).tobytes()
            # the row order of the edge array does not matter
            B = hg.normalized_adjacency(n, arr[rng.permutation(len(arr))])
            for field in ("indptr", "indices", "values"):
                assert np.array_equal(getattr(A, field), getattr(B, field))

    def test_csr_rows_sorted_and_every_row_has_its_self_loop(self):
        A = hg.normalized_adjacency(6, edge_rows({(5, 0), (2, 3), (0, 2)}))
        for i in range(6):
            cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert list(cols) == sorted(set(cols))
            assert i in cols

    def test_out_of_range_endpoint_rejected(self):
        for bad in ({(0, 3)}, {(-1, 1)}):
            with pytest.raises(DataError, match="out of range"):
                hg.normalized_adjacency(3, edge_rows(bad))


def tiny_fused(I=2, T=2, seed=4):
    rng = RNG(seed)
    E = rng.normal(size=(I, 4))
    recs = [(0, I - 1, 0, T - 1)]
    km = rng.uniform(0.5, 4.0, size=(I, I))
    km = (km + km.T) / 2
    np.fill_diagonal(km, 0.0)
    return hg.fuse(hg.build_poi_graph(E, 0.3),
                   hg.build_mobility_graph(recs, I, T),
                   hg.build_distance_graph(
                       DistanceMatrix(km=km, centroids=np.zeros((I, 2))), 2.5),
                   I, T)


class TestFuse:
    def test_minimal_graph(self):
        g = hg.fuse(hg.build_poi_graph(np.zeros((1, 2)), 0.5),
                    hg.build_mobility_graph([], 1, 1),
                    hg.build_distance_graph(grid_distance_matrix(1, 1.0), 1.0),
                    I=1, T=1)
        assert g.n_nodes == 2
        assert_edges(g.edges[hg.RelationType.TEMPORAL_SELF], {(0, 1)})
        for rel in (hg.RelationType.POI, hg.RelationType.MOBILITY,
                    hg.RelationType.DISTANCE):
            assert_edges(g.edges[rel], set())

    def test_temporal_self_count_exact(self):
        for I, T in [(2, 2), (3, 5), (1, 4)]:
            g = hg.fuse(hg.build_poi_graph(np.zeros((I, 2)), 0.5),
                        hg.build_mobility_graph([], I, T),
                        hg.build_distance_graph(
                            grid_distance_matrix(I, 1.0), 0.5),
                        I, T)
            assert_edges(g.edges[hg.RelationType.TEMPORAL_SELF],
                         {(i, I + i * T + t)
                          for i in range(I) for t in range(T)})

    def test_every_relation_adjacency_invariants(self):
        g = tiny_fused()
        n = g.n_nodes
        for rel in hg.RelationType:
            A_hat = g.adj[rel].toarray()
            assert A_hat.shape == (n, n)
            assert np.max(np.abs(A_hat - A_hat.T)) == 0.0
            assert A_hat.min() >= 0.0 and A_hat.max() <= 1.0

    def test_rebuild_is_deterministic(self):
        g1, g2 = tiny_fused(), tiny_fused()
        for rel in hg.RelationType:
            assert np.array_equal(g1.edges[rel], g2.edges[rel])
            assert np.array_equal(g1.adj[rel].toarray(),
                                  g2.adj[rel].toarray())

    def test_mobility_edge_lands_on_slot_indices(self):
        g = tiny_fused(I=2, T=2)
        # record (0, 1, 0, 1): Slot(0,0) -> index 2, Slot(1,1) -> index 5
        assert_edges(g.edges[hg.RelationType.MOBILITY], {(2, 5)})

    def test_edge_records_roundtrip_fields(self):
        g = tiny_fused()
        recs = list(hg.edge_records(g))
        assert len(recs) == sum(len(e) for e in g.edges.values())
        ts = [r for r in recs if r["relation"] == "temporal_self"]
        assert all(r["u_kind"] == "base" and r["v_kind"] == "slot"
                   for r in ts)
        mob = [r for r in recs if r["relation"] == "mobility"]
        assert all(r["u_slot"] is not None and r["v_slot"] is not None
                   for r in mob)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8),
       st.data())
def test_node_decode_roundtrip(I, T, data):
    idx = data.draw(st.integers(min_value=0, max_value=I * (1 + T) - 1))
    kind, region, slot = hg.decode_node(idx, I, T)
    assert 0 <= region < I
    if kind == "base":
        assert slot is None and idx == region
    else:
        assert kind == "slot" and 0 <= slot < T
        assert I + region * T + slot == idx


def test_node_decode_out_of_range_rejected():
    for idx in (-1, 6):
        with pytest.raises(DataError, match="node index out of range"):
            hg.decode_node(idx, 2, 2)
