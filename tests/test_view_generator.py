"""Tests for the twin-VGAE view generation pipeline.

Oracles: hand-rolled MLP arithmetic for edge scores, a Monte-Carlo moment
check for the reparameterized encoding, RNG-replay oracles for candidate
pairs and random walks, and a term-by-term BCE sum for the reconstruction
loss.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import assert_edges, edge_rows
from numpy.testing import assert_allclose

from regioncl import numcore as nc
from regioncl import view_generator as vg
from regioncl.errors import ConfigError
from regioncl.gradcheck import check_tape_gradients
from regioncl.hetero_graph import (build_distance_graph, build_mobility_graph,
                                   build_poi_graph, fuse)
from regioncl.poi_embedding import MlpParams
from regioncl.region_data import DistanceMatrix

RNG = np.random.default_rng


def constant_mlp(rng, d_in, d_hidden, d_out, scale=0.5):
    return MlpParams(
        w1=nc.Tensor(rng.normal(scale=scale, size=(d_hidden, d_in))),
        b1=nc.Tensor(rng.normal(scale=scale, size=(1, d_hidden))),
        w2=nc.Tensor(rng.normal(scale=scale, size=(d_out, d_hidden))),
        b2=nc.Tensor(rng.normal(scale=scale, size=(1, d_out))))


def constant_vgae(seed, d):
    rng = RNG(seed)
    return vg.VgaeParams(mean_mlp=constant_mlp(rng, d, d, d),
                         std_mlp=constant_mlp(rng, d, d, d),
                         score_mlp=constant_mlp(rng, d, d, 1))


def mlp_numpy(mlp, x):
    h = np.maximum(x @ mlp.w1.data.T + mlp.b1.data, 0.0)
    return h @ mlp.w2.data.T + mlp.b2.data


class TestVgaeEncode:
    def test_zero_noise_is_mean_mlp(self):
        params = constant_vgae(0, 3)
        H = RNG(1).normal(size=(4, 3))
        out = vg.vgae_encode(nc.Tensor(H), params, np.zeros(H.shape))
        assert_allclose(out.data, mlp_numpy(params.mean_mlp, H), atol=1e-12)

    def test_monte_carlo_moments(self):
        """10k draws of one entry: mean within 3 sigma / sqrt(n) of mean-MLP."""
        params = constant_vgae(4, 3)
        H = RNG(5).normal(size=(1, 3))
        mean_val = mlp_numpy(params.mean_mlp, H)[0, 0]
        std_val = abs(mlp_numpy(params.std_mlp, H)[0, 0])
        n = 10_000
        rows = np.repeat(H, n, axis=0)
        draws = vg.vgae_encode(nc.Tensor(rows), params,
                               RNG(6).normal(size=rows.shape)).data[:, 0]
        assert abs(draws.mean() - mean_val) < 3.0 * std_val / np.sqrt(n)

    def test_recorded_call_keeps_only_its_output(self):
        """n=2000, d=16: recording both MLPs would keep about 12 (n, d)
        arrays alive until the sampler backward."""
        n, d = 2000, 16
        tape = nc.GradientTape()
        params = vg.init_vgae(tape, "v", d, RNG(7))
        H = nc.Tensor(RNG(8).normal(size=(n, d)))
        noise = RNG(9).normal(size=(n, d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = vg.vgae_encode(H, params, noise)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained <= 2 * 8 * n * d


class TestScoreEdges:
    def test_symmetric_by_construction(self):
        """A pair is scored in its one orientation u < v."""
        params = constant_vgae(6, 3)
        H = nc.Tensor(RNG(7).normal(size=(4, 3)))
        assert_edges(vg.score_edges(H, params, edge_rows({(0, 1)})).pairs,
                     {(0, 1)})

    def test_zero_row_scores_equal_bias_response(self):
        params = constant_vgae(8, 3)
        H = RNG(9).normal(size=(4, 3))
        H[0] = 0.0
        P = vg.score_edges(nc.Tensor(H), params,
                           edge_rows({(0, 1), (0, 2), (0, 3)}))
        bias_response = mlp_numpy(params.score_mlp, np.zeros((1, 3)))[0, 0]
        assert_allclose(P.scores.data, np.full(3, bias_response), atol=1e-12)

    def test_four_node_fixture_hand_oracle(self):
        params = constant_vgae(10, 3)
        H = RNG(11).normal(size=(4, 3))
        pairs = [(0, 1), (0, 3), (1, 2), (2, 3)]
        P = vg.score_edges(nc.Tensor(H), params, edge_rows(pairs))
        assert_edges(P.pairs, set(pairs))
        m = params.score_mlp
        for k, (u, v) in enumerate(P.pairs.tolist()):
            x = H[u] * H[v]
            h = np.maximum(m.w1.data @ x + m.b1.data[0], 0.0)
            want = (m.w2.data @ h + m.b2.data[0])[0]
            assert_allclose(P.scores.data[k], want, atol=1e-10)

    def test_pairs_canonical_and_scored_once(self):
        """Canonical candidates are scored as given, one score per row."""
        params = constant_vgae(6, 3)
        H = nc.Tensor(RNG(7).normal(size=(4, 3)))
        cands = edge_rows({(0, 1), (0, 3), (1, 2)})
        P = vg.score_edges(H, params, cands)
        assert np.array_equal(P.pairs, cands)
        assert P.scores.data.shape == (3,)


class TestSparsify:
    def make_matrix(self, scores, pairs=None):
        scores = np.asarray(scores, dtype=np.float64)
        pairs = edge_rows(pairs or [(0, k + 1) for k in range(len(scores))])
        return vg.SamplingMatrix(pairs=pairs, scores=nc.Tensor(scores),
                                 n_nodes=int(pairs.max()) + 1)

    def test_high_threshold_empties_bounded_scores(self):
        P = self.make_matrix(RNG(13).uniform(-2, 2, size=8))
        assert_edges(vg.sparsify(P, 0.999), set())

    def test_zero_scores_kept_at_half_boundary(self):
        P = self.make_matrix(np.zeros(5))
        assert np.array_equal(vg.sparsify(P, 0.5), P.pairs)

    def test_matches_threshold_oracle(self):
        scores = RNG(14).normal(size=20) * 2
        P = self.make_matrix(scores)
        got = vg.sparsify(P, 0.7)
        want = {tuple(pair) for pair, s in zip(P.pairs.tolist(), scores)
                if 1.0 / (1.0 + np.exp(-s)) >= 0.7}
        assert_edges(got, want)

    def test_binary_symmetric_adjacency(self):
        P = self.make_matrix(RNG(15).normal(size=10))
        edges = vg.sparsify(P, 0.4)
        A = np.zeros((P.n_nodes, P.n_nodes))
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.array_equal(A, A.T)

    def test_threshold_range_enforced(self):
        # the threshold is checked once, where ViewGenConfig is built
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError, match="eps"):
                vg.ViewGenConfig(eps=eps)


def replay_walk_oracle(n_nodes, edges, seeds, cfg, rng):
    """Independent replay of the documented RNG consumption order (``rng``
    is a seed or a generator): per step, one ``rng.integers(0, degrees)``
    over the live walks in seed-major order."""
    rng = RNG(rng)
    nbrs = [[] for _ in range(n_nodes)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    nbrs = [sorted(x) for x in nbrs]
    visited = set(seeds)
    live = [s for s in seeds for _ in range(cfg.walks_per_seed) if nbrs[s]]
    for _ in range(cfg.walk_len):
        draws = rng.integers(0, [len(nbrs[cur]) for cur in live]).tolist()
        live = [nbrs[cur][k] for cur, k in zip(live, draws)]
        visited.update(live)
    return visited


class CountingGenerator:
    """A Generator proxy that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


class TestRandomWalk:
    PATH = edge_rows({(0, 1), (1, 2), (2, 3)})

    def test_zero_length_walk_keeps_seeds_only(self):
        for cfg in (vg.ViewGenConfig(walk_len=0),
                    vg.ViewGenConfig(walks_per_seed=0)):
            rng = RNG(0)
            before = rng.bit_generator.state
            view = vg.random_walk_sample(4, self.PATH, np.array([1, 2]), cfg,
                                         rng)
            assert view.nodes.tolist() == [1, 2]
            assert_edges(view.edges, {(1, 2)})
            assert rng.bit_generator.state == before    # nothing drawn

    def test_isolated_seed_is_singleton(self):
        view = vg.random_walk_sample(3, edge_rows({(0, 1)}), np.array([2]),
                                     vg.ViewGenConfig(), RNG(0))
        assert view.nodes.tolist() == [2]
        assert_edges(view.edges, set())

    def test_path_graph_matches_rng_replay(self):
        cfg = vg.ViewGenConfig(walk_len=2, walks_per_seed=3)
        view = vg.random_walk_sample(4, self.PATH, np.array([0]), cfg,
                                     RNG(21))
        want = replay_walk_oracle(4, self.PATH.tolist(), [0], cfg, 21)
        assert view.nodes.tolist() == sorted(want)

    def test_random_graph_matches_rng_replay(self):
        rng = RNG(23)
        pairs = {tuple(sorted(p)) for p in
                 rng.integers(0, 29, size=(60, 2)).tolist() if p[0] != p[1]}
        edges = edge_rows(pairs)
        cfg = vg.ViewGenConfig(walk_len=5, walks_per_seed=3)
        seeds = [7, 29, 3, 21, 0]                # node 29 is isolated
        walk_rng, oracle_rng = RNG(24), RNG(24)
        view = vg.random_walk_sample(30, edges, np.array(seeds), cfg,
                                     walk_rng)
        want = replay_walk_oracle(30, pairs, seeds, cfg, oracle_rng)
        assert view.nodes.tolist() == sorted(want)
        assert view.seeds.tolist() == seeds
        assert_edges(view.edges, {(u, v) for u, v in pairs
                                  if u in want and v in want})
        # one array draw per step: both streams end in the same state
        assert walk_rng.integers(0, 2 ** 62) \
            == oracle_rng.integers(0, 2 ** 62)

    def test_one_generator_call_per_step(self):
        """However many seeds, a view costs at most ``walk_len`` calls."""
        rng = RNG(25)
        n = 2600
        edges = edge_rows({tuple(sorted(p)) for p in
                           rng.integers(0, n, size=(13000, 2)).tolist()
                           if p[0] != p[1]})
        cfg = vg.ViewGenConfig()
        seeds = rng.choice(n, size=vg.seed_count(cfg, n), replace=False)
        counting = CountingGenerator(RNG(26))
        vg.random_walk_sample(n, edges, seeds, cfg, counting)
        assert len(seeds) == 650
        assert 0 < counting.calls <= cfg.walk_len

    def test_edges_induced_on_visited_nodes(self):
        view = vg.random_walk_sample(4, self.PATH, np.array([0, 3]),
                                     vg.ViewGenConfig(walk_len=5,
                                                      walks_per_seed=4),
                                     RNG(22))
        for u, v in view.edges:
            assert u in view.nodes and v in view.nodes


def tiny_hetero(I=3, T=2, seed=30):
    rng = RNG(seed)
    E = rng.normal(size=(I, 4))
    trips = np.array([(0, I - 1, 0, T - 1), (1, 0, T - 1, T - 1)])
    km = rng.uniform(0.5, 4.0, size=(I, I))
    km = (km + km.T) / 2
    np.fill_diagonal(km, 0.0)
    dm = DistanceMatrix(km=km, centroids=np.zeros((I, 2)))
    return fuse(build_poi_graph(E, 0.2), build_mobility_graph(trips, I, T),
                build_distance_graph(dm, 2.5), I, T)


def assert_same_view(a, b):
    for field in ("nodes", "edges", "seeds"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestCandidatePairs:
    @staticmethod
    def loop_oracle(graph, rng, neg_per_node):
        """One scalar draw per (node, negative), in node order."""
        n = graph.n_nodes
        pairs = {tuple(e) for e in graph.union.tolist()}
        for u in range(n):
            for _ in range(neg_per_node):
                v = int(rng.integers(0, n))
                if v != u:
                    pairs.add((min(u, v), max(u, v)))
        return pairs

    @pytest.mark.parametrize("neg_per_node", [0, 1, 3, 7])
    def test_matches_scalar_draw_loop(self, neg_per_node):
        g = tiny_hetero(I=4, T=3, seed=60)
        got_rng, want_rng = RNG(61), RNG(61)
        got = vg.candidate_pairs(g, got_rng, neg_per_node)
        assert_edges(got, self.loop_oracle(g, want_rng, neg_per_node))
        # the generator is left where the loop leaves it
        assert got_rng.integers(0, 2 ** 62) == want_rng.integers(0, 2 ** 62)


class TestGenerateViews:
    def test_seeds_included_in_both_views(self):
        g = tiny_hetero()
        H = nc.Tensor(RNG(31).normal(size=(g.n_nodes, 3)))
        out = vg.generate_views(g, H, constant_vgae(32, 3),
                                constant_vgae(33, 3),
                                vg.ViewGenConfig(), RNG(34))
        seeds = out.views[0].seeds
        for view in out.views:
            assert set(seeds.tolist()) <= set(view.nodes.tolist())
            assert np.array_equal(view.seeds, seeds)

    def test_zero_sigma_pipeline_deterministic(self):
        g = tiny_hetero()
        H = nc.Tensor(RNG(35).normal(size=(g.n_nodes, 3)))
        cfg = vg.ViewGenConfig(noise_sigma=0.0)

        def run():
            return vg.generate_views(g, H, constant_vgae(36, 3),
                                     constant_vgae(37, 3), cfg, RNG(38))

        a, b = run(), run()
        for va, vb in zip(a.views, b.views):
            assert_same_view(va, vb)
        for pa, pb in zip(a.sampling, b.sampling):
            assert np.array_equal(pa.scores.data, pb.scores.data)

    def test_shared_params_and_noise_give_identical_decoded_graphs(self):
        g = tiny_hetero()
        H = nc.Tensor(RNG(39).normal(size=(g.n_nodes, 3)))
        params = constant_vgae(40, 3)
        cands = vg.candidate_pairs(g, RNG(41), neg_per_node=3)
        noise = RNG(42).normal(size=H.data.shape)
        edges = [vg.sparsify(vg.score_edges(vg.vgae_encode(H, params, noise),
                                            params, cands), 0.5)
                 for _ in range(2)]
        assert np.array_equal(edges[0], edges[1])

    def test_six_node_fixture_matches_stagewise_oracle(self, monkeypatch):
        """generate_views equals the four stages composed by hand with a
        replayed RNG stream."""
        g = tiny_hetero(I=2, T=2, seed=43)       # 6 nodes
        H = nc.Tensor(RNG(44).normal(size=(g.n_nodes, 3)))
        p1, p2 = constant_vgae(45, 3), constant_vgae(46, 3)
        cfg = vg.ViewGenConfig(neg_per_node=2, walk_len=3, walks_per_seed=2,
                               seed_frac=0.5)
        drawn, original = [], vg.candidate_pairs

        def spy(*args):
            drawn.append(original(*args))
            return drawn[-1]
        monkeypatch.setattr(vg, "candidate_pairs", spy)
        got = vg.generate_views(g, H, p1, p2, cfg, RNG(47))
        monkeypatch.undo()

        rng = RNG(47)
        cands = vg.candidate_pairs(g, rng, cfg.neg_per_node)
        n_seeds = max(1, int(round(cfg.seed_frac * g.n_nodes)))
        seeds = rng.choice(g.n_nodes, size=n_seeds, replace=False)
        assert len(drawn) == 1 and np.array_equal(drawn[0], cands)
        for view, P, params in zip(got.views, got.sampling, (p1, p2)):
            noise = RNG(int(rng.integers(0, 2 ** 62))).normal(
                scale=cfg.noise_sigma, size=H.data.shape)
            h_tilde = vg.vgae_encode(H, params, noise)
            P_want = vg.score_edges(h_tilde, params, cands)
            assert_allclose(P.scores.data, P_want.scores.data, atol=1e-12)
            edges = vg.sparsify(P_want, cfg.eps)
            view_want = vg.random_walk_sample(g.n_nodes, edges, seeds,
                                              cfg, rng)
            assert_same_view(view, view_want)


    def test_no_pair_activation_outlives_view_generation(self):
        """Between generate_views and the sampler step only H_tilde's (n, d)
        graph and the (E,) scores stay alive: with E d >> n d, what the call
        leaves behind is less than two (E, d) arrays, where recording the
        pair-MLP graph would keep about seven per sampler."""
        g = tiny_hetero(I=100, T=2)
        d = 16
        tape = nc.GradientTape()
        p1, p2 = (vg.init_vgae(tape, f"vgae{k}", d, RNG(k)) for k in (1, 2))
        H = nc.Tensor(RNG(3).normal(size=(g.n_nodes, d)))
        cfg = vg.ViewGenConfig(neg_per_node=60)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = vg.generate_views(g, H, p1, p2, cfg, RNG(4))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        E = len(out.sampling[0].pairs)
        assert E > 20 * g.n_nodes
        assert all(P.scores.requires_grad for P in out.sampling)
        assert retained < 2 * 8 * E * d


class TestReconstructionLoss:
    def single_pair(self, score):
        return vg.SamplingMatrix(pairs=edge_rows({(0, 1)}),
                                 scores=nc.Tensor(np.array([score])),
                                 n_nodes=2)

    def test_true_edge_saturated_score(self):
        loss = vg.reconstruction_loss(self.single_pair(20.0),
                                      edge_rows({(0, 1)}))
        assert loss.item() < 1e-8

    def test_true_edge_zero_score_is_ln2(self):
        loss = vg.reconstruction_loss(self.single_pair(0.0),
                                      edge_rows({(0, 1)}))
        assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_five_pair_term_by_term_oracle(self):
        rng = RNG(50)
        scores = rng.normal(size=5) * 2
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        true_edges = {(0, 1), (1, 3)}
        P = vg.SamplingMatrix(pairs=edge_rows(pairs),
                              scores=nc.Tensor(scores), n_nodes=4)
        sig = 1.0 / (1.0 + np.exp(-scores))
        want = sum(-np.log(sig[k]) if pairs[k] in true_edges
                   else -np.log(1.0 - sig[k]) for k in range(5))
        assert_allclose(
            vg.reconstruction_loss(P, edge_rows(true_edges)).item(), want,
            atol=1e-12)

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_labels_equal_isin_without_assume_unique(self, seed):
        """At zero scores the gradient on a pair is -1/2 on an edge and
        +1/2 off, which reads the labels back out of the loss."""
        I, T, rng = 30, 6, RNG(seed)
        trips = np.column_stack([rng.integers(0, I, size=(300, 2)),
                                 rng.integers(0, T, size=(300, 2))])
        g = fuse(edge_rows([]), build_mobility_graph(trips, I, T),
                 edge_rows([]), I, T)
        n, union = g.n_nodes, g.union
        cands = vg.candidate_pairs(g, rng, 5)
        # np.isin tabulates keys when their range is at most 6x the two
        # sizes; these keys are spread wider, so it sorts
        union_keys = union[:, 0] * n + union[:, 1]
        assert np.ptp(union_keys) > 6 * (len(cands) + len(union))
        tape = nc.GradientTape()
        P = vg.SamplingMatrix(pairs=cands, n_nodes=n, scores=tape.parameter(
            "s", np.zeros(len(cands))))
        grads = nc.backward(tape, vg.reconstruction_loss(P, union))
        want = np.isin(cands[:, 0] * n + cands[:, 1], union_keys)
        assert 0 < want.sum() < len(want)
        assert np.array_equal(grads["s"] < 0.0, want)

    def test_gradients_reach_all_three_mlps(self):
        g = tiny_hetero()
        tape = nc.GradientTape()
        params = vg.init_vgae(tape, "v1", 3, RNG(51))
        H = nc.Tensor(RNG(52).normal(size=(g.n_nodes, 3)))
        noise = RNG(53).normal(size=H.data.shape)
        P = vg.score_edges(vg.vgae_encode(H, params, noise), params,
                           vg.candidate_pairs(g, RNG(54), 3))
        grads = nc.backward(tape, vg.reconstruction_loss(P, g.union))
        for part in ("mean", "std", "score"):
            assert any(np.any(grads[k] != 0.0) for k in grads
                       if k.startswith(f"v1.{part}")), part

    def test_no_candidates_score_nothing_and_lose_nothing(self):
        """E = 0 takes the checkpointed path: (0,) scores, a 0.0 loss and
        a zero gradient for every sampler parameter."""
        tape = nc.GradientTape()
        params = vg.init_vgae(tape, "v1", 3, RNG(60))
        H = nc.Tensor(RNG(61).normal(size=(4, 3)))
        P = vg.score_edges(vg.vgae_encode(H, params, np.ones((4, 3))),
                           params, edge_rows([]))
        assert P.scores.shape == (0,)
        loss = vg.reconstruction_loss(P, edge_rows([(0, 1)]))
        assert loss.item() == 0.0
        grads = nc.backward(tape, loss)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_finite_difference_through_pipeline(self):
        g = tiny_hetero(I=2, T=1, seed=55)       # 4 nodes
        H = RNG(56).normal(size=(g.n_nodes, 3))
        cands = vg.candidate_pairs(g, RNG(57), 2)
        noise = RNG(58).normal(size=H.shape)
        tape = nc.GradientTape()
        params = vg.init_vgae(tape, "v1", 3, RNG(59))

        def loss_fn():
            P = vg.score_edges(vg.vgae_encode(nc.Tensor(H), params, noise),
                               params, cands)
            return vg.reconstruction_loss(P, g.union)

        assert check_tape_gradients(loss_fn, tape) < 1e-4
