"""Tests for view-graph construction and heterogeneous fusion.

Derived oracles: brute-force all-pairs cosine and distance thresholding,
a set-comprehension dedup pass for mobility edges, the hand-evaluated
d_i^{-1/2} d_j^{-1/2} normalization of a 3-node path, and a dense
per-edge construction of A_hat that the sparse one must equal bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import hetero_graph as hg
from regioncl.errors import ConfigError, DataError
from regioncl.region_data import DistanceMatrix, TrajectoryRecord

RNG = np.random.default_rng


def edge_pairs(view):
    return {(u.region, u.slot, v.region, v.slot) for u, v in view.edges}


def loop_base_edges(I, linked):
    """Pair-loop oracle for the base-node graphs: (i, j), i < j, if linked."""
    return frozenset((hg.base(i), hg.base(j))
                     for i in range(I) for j in range(i + 1, I)
                     if linked(i, j))


class TestPoiGraph:
    def test_threshold_one_gives_empty(self):
        E = RNG(0).normal(size=(5, 4))
        assert hg.build_poi_graph(E, 1.0).edges == frozenset()

    def test_identical_rows_one_edge(self):
        E = np.vstack([np.ones(3), np.ones(3), -np.ones(3)])
        g = hg.build_poi_graph(E, 0.5)
        assert len(g.edges) == 1
        assert (hg.base(0), hg.base(1)) in g.edges

    def test_matches_all_pairs_cosine_oracle(self):
        E = RNG(1).normal(size=(4, 6))
        g = hg.build_poi_graph(E, 0.3)
        want = set()
        for i in range(4):
            for j in range(i + 1, 4):
                c = E[i] @ E[j] / (np.linalg.norm(E[i]) * np.linalg.norm(E[j]))
                if c > 0.3:
                    want.add((hg.base(i), hg.base(j)))
        assert g.edges == frozenset(want)

    def test_random_inputs_match_pair_loop(self):
        for seed in range(8):
            rng = RNG(40 + seed)
            I = int(rng.integers(1, 30))
            E = rng.normal(size=(I, 5))
            E[rng.random(I) < 0.1] = 0.0
            eps = float(rng.uniform(-0.5, 0.9))
            sim = hg.cosine_matrix(E)
            want = loop_base_edges(I, lambda i, j: sim[i, j] > eps)
            assert hg.build_poi_graph(E, eps).edges == want

    def test_zero_row_uses_cosine_zero_convention(self):
        E = np.vstack([np.zeros(3), np.ones(3)])
        # cos(zero row, anything) = 0: above a -0.5 threshold, not above 0
        assert hg.build_poi_graph(E, 0.0).edges == frozenset()
        assert len(hg.build_poi_graph(E, -0.5).edges) == 1


class TestMobilityGraph:
    def test_empty_trajectories(self):
        g = hg.build_mobility_graph([], I=3, T=2)
        assert g.edges == frozenset()
        assert len(g.nodes) == 6

    def test_single_record(self):
        g = hg.build_mobility_graph([TrajectoryRecord(0, 1, 2, 3)], I=2, T=4)
        assert g.edges == frozenset({(hg.slot(0, 2), hg.slot(1, 3))})

    def test_self_loop_record_dropped(self):
        g = hg.build_mobility_graph([TrajectoryRecord(1, 1, 0, 0)], I=2, T=1)
        assert g.edges == frozenset()

    def test_matches_set_comprehension_oracle(self):
        rng = RNG(2)
        recs = [TrajectoryRecord(int(rng.integers(0, 6)),
                                 int(rng.integers(0, 6)),
                                 int(s := rng.integers(0, 4)),
                                 int(min(s + rng.integers(0, 2), 3)))
                for _ in range(100)]
        g = hg.build_mobility_graph(recs, I=6, T=4)
        want = {tuple(sorted([hg.slot(r.source, r.t_start),
                              hg.slot(r.dest, r.t_end)]))
                for r in recs
                if (r.source, r.t_start) != (r.dest, r.t_end)}
        assert g.edges == frozenset(want)

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(DataError, match="slot index out of range"):
            hg.build_mobility_graph([TrajectoryRecord(0, 1, 0, 5)], I=2, T=2)


def grid_distance_matrix(n, spacing_km):
    """n regions on a line, exact pairwise distances |i-j| * spacing."""
    km = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) * spacing_km
    return DistanceMatrix(km=km.astype(np.float64),
                          centroids=np.zeros((n, 2)))


class TestDistanceGraph:
    def test_huge_threshold_complete(self):
        g = hg.build_distance_graph(grid_distance_matrix(4, 1.0), 100.0)
        assert len(g.edges) == 6

    def test_tiny_threshold_empty(self):
        g = hg.build_distance_graph(grid_distance_matrix(4, 1.0), 0.5)
        assert g.edges == frozenset()

    def test_grid_matches_pairwise_oracle(self):
        dm = grid_distance_matrix(5, 1.0)
        g = hg.build_distance_graph(dm, 1.5)
        want = {(hg.base(i), hg.base(j))
                for i in range(5) for j in range(i + 1, 5)
                if dm.km[i, j] < 1.5}
        assert g.edges == frozenset(want)
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
            assert hg.build_distance_graph(dm, eps).edges == want

    def test_strict_inequality_at_boundary(self):
        g = hg.build_distance_graph(grid_distance_matrix(3, 1.0), 1.0)
        assert g.edges == frozenset()


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
        A_hat = hg.normalized_adjacency(1, frozenset()).toarray()
        assert_allclose(A_hat, [[1.0]])

    def test_three_node_path_hand_oracle(self):
        """Path 0-1-2 with self-loops: degrees (2, 3, 2)."""
        A_hat = hg.normalized_adjacency(3, frozenset({(0, 1),
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
        A_hat = hg.normalized_adjacency(n, edges).toarray()
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
        got = hg.normalized_adjacency(n, edges).toarray()
        assert got.tobytes() == dense_adjacency(n, edges).tobytes()

    def test_random_graphs_equal_dense_construction_bit_for_bit(self):
        for seed in range(10):
            rng = RNG(80 + seed)
            n = int(rng.integers(1, 40))
            edges = {(int(a), int(b)) for a, b in
                     rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))}
            A = hg.normalized_adjacency(n, edges)
            assert A.toarray().tobytes() == dense_adjacency(n, edges).tobytes()
            # an (E, 2) array gives the same matrix as the set of pairs
            arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
            B = hg.normalized_adjacency(n, arr)
            for field in ("indptr", "indices", "values"):
                assert np.array_equal(getattr(A, field), getattr(B, field))

    def test_csr_rows_sorted_and_every_row_has_its_self_loop(self):
        A = hg.normalized_adjacency(6, {(5, 0), (2, 3), (0, 2)})
        for i in range(6):
            cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert list(cols) == sorted(set(cols))
            assert i in cols

    def test_out_of_range_endpoint_rejected(self):
        for bad in ({(0, 3)}, {(-1, 1)}):
            with pytest.raises(DataError, match="out of range"):
                hg.normalized_adjacency(3, bad)


def tiny_fused(I=2, T=2, seed=4):
    rng = RNG(seed)
    E = rng.normal(size=(I, 4))
    recs = [TrajectoryRecord(0, I - 1, 0, T - 1)]
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
        assert g.edges[hg.RelationType.TEMPORAL_SELF] == frozenset({(0, 1)})
        for rel in (hg.RelationType.POI, hg.RelationType.MOBILITY,
                    hg.RelationType.DISTANCE):
            assert g.edges[rel] == frozenset()

    def test_temporal_self_count_exact(self):
        for I, T in [(2, 2), (3, 5), (1, 4)]:
            g = hg.fuse(hg.build_poi_graph(np.zeros((I, 2)), 0.5),
                        hg.build_mobility_graph([], I, T),
                        hg.build_distance_graph(
                            grid_distance_matrix(I, 1.0), 0.5),
                        I, T)
            assert len(g.edges[hg.RelationType.TEMPORAL_SELF]) == I * T

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
            assert g1.edges[rel] == g2.edges[rel]
            assert np.array_equal(g1.adj[rel].toarray(),
                                  g2.adj[rel].toarray())

    def test_mobility_edge_lands_on_slot_indices(self):
        g = tiny_fused(I=2, T=2)
        # record (0, 1, 0, 1): Slot(0,0) -> index 2, Slot(1,1) -> index 5
        assert g.edges[hg.RelationType.MOBILITY] == frozenset({(2, 5)})

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
def test_node_index_roundtrip(I, T, data):
    idx = data.draw(st.integers(min_value=0, max_value=I * (1 + T) - 1))
    assert hg.node_index(hg.node_ref(idx, I, T), I, T) == idx
