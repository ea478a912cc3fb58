"""Tests for the relation-aware encoder.

The oracle is an explicit per-node message-passing loop (neighbor summation
with the same symmetric normalization), written here independently of the
matrix-form implementation. It reads the adjacencies densely, through
``toarray()``, except at scale, where it walks neighbor lists instead.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regioncl import hgnn_encoder as enc
from regioncl import numcore as nc
from regioncl.errors import ContractError
from regioncl.gradcheck import check_tape_gradients
from regioncl.hetero_graph import normalized_adjacency

RNG = np.random.default_rng


def per_node_encode(adj, H0, weight_layers):
    """Brute-force per-node aggregation; relies only on numpy."""
    n, d = H0.shape
    total = H0.copy()
    H = H0.copy()
    for layer in weight_layers:
        new = np.zeros((n, d))
        for i in range(n):
            acc = np.zeros(d)
            for rel, A in adj.items():
                W = layer[rel]
                for j in range(n):
                    if A[i, j] != 0.0:
                        acc = acc + A[i, j] * (W @ H[j])
            new[i] = np.maximum(acc, 0.0)
        H = new
        total = total + H
    return total


def constant_params(weight_layers):
    return enc.EncoderParams(layers=[
        {rel: nc.Tensor(W) for rel, W in layer.items()}
        for layer in weight_layers])


def dense(adj):
    return {rel: A.toarray() for rel, A in adj.items()}


def random_connected_edges(n, rng):
    """Random spanning tree plus extra edges."""
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((min(a, b), max(a, b)))
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return np.array(sorted(edges), dtype=np.int64)


def random_connected_adjacency(n, rng):
    return normalized_adjacency(n, random_connected_edges(n, rng))


class TestInitFeatures:
    def test_two_region_single_slot_layout(self):
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        H0 = enc.init_features(nc.Tensor(E), I=2, T=1)
        assert_allclose(H0.data, [[1, 2], [3, 4], [1, 2], [3, 4]])

    def test_zero_embeddings_zero_features(self):
        H0 = enc.init_features(nc.Tensor(np.zeros((3, 4))), I=3, T=2)
        assert_allclose(H0.data, np.zeros((9, 4)))

    def test_slot_rows_match_node_index_oracle(self):
        E = RNG(0).normal(size=(4, 3))
        I, T = 4, 3
        H0 = enc.init_features(nc.Tensor(E), I=I, T=T).data
        for i in range(I):
            assert_allclose(H0[i], E[i])
            for t in range(T):
                assert_allclose(H0[I + i * T + t], E[i])

    def test_gradient_flows_to_all_copies(self):
        tape = nc.GradientTape()
        E = tape.parameter("E", np.ones((2, 3)))
        H0 = enc.init_features(E, I=2, T=2)
        grads = nc.backward(tape, nc.tsum(H0))
        # each region row feeds 1 base + 2 slot rows
        assert_allclose(grads["E"], np.full((2, 3), 3.0))


class TestEncode:
    def test_zero_layers_returns_h0(self):
        H0 = RNG(1).normal(size=(4, 3))
        out = enc.encode({"r": np.eye(4)}, nc.Tensor(H0),
                         enc.EncoderParams(layers=[]))
        assert_allclose(out.data, H0)

    def test_isolated_node_identity_weight_doubles(self):
        h = np.array([[0.5, 1.5]])
        A = normalized_adjacency(1, np.empty((0, 2), dtype=np.int64))
        out = enc.encode({"r": A}, nc.Tensor(h),
                         constant_params([{"r": np.eye(2)}]))
        assert_allclose(out.data, 2.0 * h, atol=1e-12)

    def test_three_node_path_matches_per_node_oracle(self):
        rng = RNG(2)
        A = normalized_adjacency(3, np.array([[0, 1], [1, 2]]))
        H0 = rng.normal(size=(3, 4))
        layers = [{"r": rng.normal(scale=0.3, size=(4, 4))} for _ in range(2)]
        want = per_node_encode(dense({"r": A}), H0, layers)
        out = enc.encode({"r": A}, nc.Tensor(H0), constant_params(layers))
        assert_allclose(out.data, want, atol=1e-10)

    def test_random_graphs_two_relations_match_oracle(self):
        for seed in range(6):
            rng = RNG(10 + seed)
            n = int(rng.integers(2, 7))
            adj = {"a": random_connected_adjacency(n, rng),
                   "b": random_connected_adjacency(n, rng)}
            H0 = rng.normal(size=(n, 3))
            layers = [{k: rng.normal(scale=0.4, size=(3, 3)) for k in adj}
                      for _ in range(3)]
            want = per_node_encode(dense(adj), H0, layers)
            out = enc.encode(adj, nc.Tensor(H0), constant_params(layers))
            assert_allclose(out.data, want, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = RNG(3)
        n = 6
        edges = random_connected_edges(n, rng)
        A = normalized_adjacency(n, edges)
        H0 = rng.normal(size=(n, 4))
        layers = [{"r": rng.normal(scale=0.3, size=(4, 4))} for _ in range(2)]
        params = constant_params(layers)
        out = enc.encode({"r": A}, nc.Tensor(H0), params).data

        p = rng.permutation(n)
        # node p[i] becomes node i, so A_p = A[np.ix_(p, p)]
        inv = np.argsort(p)
        A_p = normalized_adjacency(n, inv[edges])
        assert np.array_equal(A_p.toarray(), A.toarray()[np.ix_(p, p)])
        out_p = enc.encode({"r": A_p}, nc.Tensor(H0[p]), params).data
        assert_allclose(out_p, out[p], atol=1e-10)

    def test_adjacency_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            enc.encode({"a": np.eye(3)}, nc.Tensor(np.ones((2, 2))),
                       constant_params([{"a": np.eye(3)}]))

    def test_gradients_through_two_layers(self):
        rng = RNG(4)
        A = random_connected_adjacency(4, rng)
        H0 = rng.normal(size=(4, 3))
        tape = nc.GradientTape()
        params = enc.EncoderParams(layers=[
            {"r": tape.parameter(f"l{layer}.r",
                                 rng.normal(scale=0.4, size=(3, 3)))}
            for layer in range(2)])

        def loss_fn():
            out = enc.encode({"r": A}, nc.Tensor(H0), params)
            proj = nc.Tensor(np.linspace(0.2, 1.0, out.data.size)
                             .reshape(out.data.shape))
            return nc.tsum(nc.mul(out, proj))

        assert check_tape_gradients(loss_fn, tape) < 1e-4

    def test_gradient_reaches_input_features(self):
        rng = RNG(5)
        A = random_connected_adjacency(3, rng)
        layers = [{"r": rng.normal(scale=0.5, size=(2, 2))}]
        tape = nc.GradientTape()
        E = tape.parameter("E", rng.normal(size=(3, 2)))
        out = enc.encode({"r": A}, E, constant_params(layers))
        grads = nc.backward(tape, nc.tsum(out))
        assert grads["E"].shape == (3, 2)
        assert np.any(grads["E"] != 0.0)


class TestNoGrad:
    def test_encode_is_bit_identical_and_keeps_no_graph(self):
        rng = RNG(6)
        adj = {"a": random_connected_adjacency(9, rng),
               "b": random_connected_adjacency(9, rng)}
        tape = nc.GradientTape()
        H0 = tape.parameter("H0", rng.normal(size=(9, 4)))
        params = enc.EncoderParams(layers=[
            {rel: tape.parameter(f"l{layer}.{rel}",
                                 rng.normal(scale=0.5, size=(4, 4)))
             for rel in adj} for layer in range(3)])
        recorded = enc.encode(adj, H0, params)
        with nc.no_grad():
            bare = enc.encode(adj, H0, params)
        assert recorded.data.tobytes() == bare.data.tobytes()
        assert recorded.requires_grad and recorded.parents
        assert not bare.requires_grad
        assert bare.parents == () and bare.vjp is None


class TestCheckpointed:
    """``encode`` runs its layer loop through ``numcore.checkpoint``."""

    @staticmethod
    def _bank(tape, rels, d, n_layers, rng):
        return enc.EncoderParams(layers=[
            {rel: tape.parameter(f"l{k}.{rel}",
                                 rng.normal(scale=0.5, size=(d, d)))
             for rel in rels} for k in range(n_layers)])

    @staticmethod
    def _composed(adj, H0, params):
        """The layer loop recorded op by op, with no checkpoint."""
        total = H = H0
        for layer in params.layers:
            msg = None
            for rel, A in adj.items():
                term = nc.matmul(nc.spmm(A, H), nc.transpose(layer[rel]))
                msg = term if msg is None else nc.add(msg, term)
            H = nc.relu(msg)
            total = nc.add(total, H)
        return total

    def _run(self, encode_fn):
        """Value and every gradient, where H0 has its own upstream graph."""
        rng = RNG(7)
        adj = {"a": random_connected_adjacency(12, rng),
               "b": random_connected_adjacency(12, rng)}
        tape = nc.GradientTape()
        X = nc.Tensor(rng.normal(size=(12, 5)))
        P = tape.parameter("P", rng.normal(size=(5, 4)))
        H0 = nc.matmul(X, P)
        params = self._bank(tape, adj, 4, 3, rng)
        out = encode_fn(adj, H0, params)
        proj = nc.Tensor(rng.normal(size=out.data.shape))
        return out, nc.backward(tape, nc.tsum(nc.mul(out, proj)))

    def test_value_and_gradients_equal_the_composed_loop(self):
        out, grads = self._run(enc.encode)
        want, want_grads = self._run(self._composed)
        assert np.array_equal(out.data, want.data)
        assert sorted(grads) == sorted(want_grads)
        for name, g in grads.items():
            assert np.any(g != 0.0), name
            assert np.array_equal(g, want_grads[name]), name

    def test_recorded_encode_keeps_only_its_output(self):
        """n=2000, d=16, 3 layers and 2 relations: recording every layer
        would keep about 21 (n, d) arrays alive until the backward."""
        n, d = 2000, 16
        rng = RNG(9)
        adj = {"a": random_connected_adjacency(n, rng),
               "b": random_connected_adjacency(n, rng)}
        tape = nc.GradientTape()
        H0 = tape.parameter("H0", rng.normal(size=(n, d)))
        params = self._bank(tape, adj, d, 3, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = enc.encode(adj, H0, params)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained <= 2 * 8 * n * d


class TestScale:
    """A graph whose dense A_hat would need 3.2 GB per relation."""

    N = 20_000
    ROWS = (0, 1, 4_999, N // 2, N - 1)

    def test_encode_and_backward_match_per_node_oracle(self):
        n, d, n_layers = self.N, 4, 2
        rng = RNG(9)
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        chords = rng.integers(0, n, size=(n // 2, 2))
        edges = {"ring": ring, "chord": chords[chords[:, 0] != chords[:, 1]]}
        adj = {rel: normalized_adjacency(n, e) for rel, e in edges.items()}
        H0 = rng.normal(size=(n, d))
        layers = [{rel: rng.normal(scale=0.5, size=(d, d)) for rel in adj}
                  for _ in range(n_layers)]
        # the loss reads a few rows only, so the oracle visits their
        # receptive fields, not the whole graph
        proj = np.zeros((n, d))
        proj[list(self.ROWS)] = rng.normal(size=(len(self.ROWS), d))

        nbrs = {rel: [{i} for i in range(n)] for rel in edges}
        for rel, e in edges.items():
            for u, v in e.tolist():
                nbrs[rel][u].add(v)
                nbrs[rel][v].add(u)

        def oracle_rows(H0, layers):
            @lru_cache(maxsize=None)
            def h(layer, i):
                if layer == 0:
                    return H0[i]
                acc = np.zeros(d)
                for rel, W in layers[layer - 1].items():
                    for j in nbrs[rel][i]:
                        weight = 1.0 / np.sqrt(len(nbrs[rel][i])
                                               * len(nbrs[rel][j]))
                        acc = acc + weight * (W @ h(layer - 1, j))
                return np.maximum(acc, 0.0)

            return {i: sum(h(layer, i) for layer in range(n_layers + 1))
                    for i in self.ROWS}

        def oracle_loss(H0, layers):
            return sum(float(row @ proj[i])
                       for i, row in oracle_rows(H0, layers).items())

        tape = nc.GradientTape()
        params = enc.EncoderParams(layers=[
            {rel: tape.parameter(f"l{k}.{rel}", W) for rel, W in layer.items()}
            for k, layer in enumerate(layers)])
        out = enc.encode(adj, tape.parameter("H0", H0), params)
        for i, want in oracle_rows(H0, layers).items():
            assert_allclose(out.data[i], want, atol=1e-10)

        grads = nc.backward(tape, nc.tsum(nc.mul(out, nc.Tensor(proj))))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        # directional derivatives against central differences of the
        # oracle: one along H0, one shifting every weight matrix by U
        step = 1e-6
        V = rng.normal(size=(n, d))
        numeric = (oracle_loss(H0 + step * V, layers)
                   - oracle_loss(H0 - step * V, layers)) / (2 * step)
        assert_allclose(float((grads["H0"] * V).sum()), numeric, rtol=1e-6)

        U = rng.normal(size=(d, d))

        def shifted(c):
            return [{rel: W + c * U for rel, W in layer.items()}
                    for layer in layers]

        numeric = (oracle_loss(H0, shifted(step))
                   - oracle_loss(H0, shifted(-step))) / (2 * step)
        analytic = sum(float((g * U).sum()) for name, g in grads.items()
                       if name != "H0")
        assert_allclose(analytic, numeric, rtol=1e-6)
