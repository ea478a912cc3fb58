"""Tests for skip-gram category embeddings, pooling/projection, attention.

Oracles: explicit two-term softmax arithmetic for the I=2 attention case,
hand-rolled pooling and perceptron arithmetic for the 3-region fixture, an
independently built two-clique corpus for skip-gram separation, and for the
skip-gram step both a per-pair reference loop and finite differences of its
loss over replayed draws.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regioncl import numcore as nc
from regioncl import poi_embedding as pe
from regioncl.errors import ConfigError, ContractError, DataError
from regioncl.gradcheck import check_tape_gradients, numeric_gradient
from regioncl.region_data import PoiMatrix
from regioncl.trainer import TrainConfig

RNG = np.random.default_rng


def make_poi(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return PoiMatrix(counts, [f"cat_{c}" for c in range(counts.shape[1])])


def constant_mlp(w1, b1, w2, b2):
    return pe.MlpParams(w1=nc.Tensor(w1), b1=nc.Tensor(b1),
                        w2=nc.Tensor(w2), b2=nc.Tensor(b2))


def two_clique_counts():
    rng = RNG(0)
    counts = np.zeros((10, 6), dtype=np.int64)
    counts[:5, :3] = rng.integers(1, 6, size=(5, 3))
    counts[5:, 3:] = rng.integers(1, 6, size=(5, 3))
    return counts


def replay_start(poi, cfg):
    """The skip-gram's draws before its first epoch, its pair list, pair
    weights and unigram^0.75 noise table, rebuilt from the documented
    order: center, then context, then one choice per epoch."""
    rng = RNG(cfg.seed)
    C = poi.n_categories
    center = rng.normal(scale=0.5 / np.sqrt(cfg.d_sg), size=(C, cfg.d_sg))
    context = rng.normal(scale=0.5 / np.sqrt(cfg.d_sg), size=(C, cfg.d_sg))
    M = pe.cooccurrence(poi, cfg.window_cap)
    a_idx, b_idx = np.nonzero(M)
    w = M[a_idx, b_idx] / M.sum()
    noise = np.minimum(poi.counts, cfg.window_cap).sum(axis=0) ** 0.75
    return rng, center, context, a_idx, b_idx, w, noise / noise.sum()


def per_pair_skipgram(poi, cfg):
    """Reference: the skip-gram step built pair by pair, gathering each
    pair's and each negative's rows and scattering their gradients back."""
    rng, center, context, a_idx, b_idx, w, noise = replay_start(poi, cfg)
    C = poi.n_categories
    for _ in range(cfg.epochs):
        u = center[a_idx]
        v = context[b_idx]
        s = nc.expit((u * v).sum(axis=1))
        coef = (w * (s - 1.0))[:, None]
        gu = coef * v
        gv = coef * u
        negs = rng.choice(C, size=(a_idx.size, cfg.negatives), p=noise)
        vn = context[negs]
        sn = nc.expit(np.einsum("pd,pnd->pn", u, vn))
        coef_n = w[:, None] * sn / cfg.negatives
        gu += np.einsum("pn,pnd->pd", coef_n, vn)
        gvn = coef_n[:, :, None] * u[:, None, :]
        np.subtract.at(center, a_idx, cfg.lr * gu)
        np.subtract.at(context, b_idx, cfg.lr * gv)
        np.subtract.at(context, negs.reshape(-1),
                       cfg.lr * gvn.reshape(-1, cfg.d_sg))
    return center


def softplus(x):
    return np.logaddexp(0.0, x)


class TestSkipgramStep:
    @pytest.mark.parametrize("counts,cfg", [
        (two_clique_counts(), pe.SkipgramConfig(d_sg=16, seed=1)),
        (RNG(0).integers(0, 5, size=(6, 4)),
         pe.SkipgramConfig(d_sg=8, epochs=50, seed=3)),
        (RNG(1).integers(0, 5, size=(6, 4)),
         pe.SkipgramConfig(d_sg=8, negatives=0, epochs=50, seed=2)),
    ], ids=["two-cliques", "random", "no-negatives"])
    def test_matches_per_pair_reference(self, counts, cfg):
        poi = make_poi(counts)
        want = per_pair_skipgram(poi, cfg)
        got = pe.train_skipgram(poi, cfg)
        assert_allclose(got, want, rtol=0,
                        atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("negatives", [0, 2])
    def test_epochs_are_gradient_steps(self, negatives):
        """Two epochs equal two steps of -lr times the finite-difference
        gradient of sum pos * softplus(-x) + neg * softplus(x), with
        x = center @ context.T and neg built from the replayed draws."""
        poi = make_poi(RNG(4).integers(0, 4, size=(5, 3)))
        cfg = pe.SkipgramConfig(d_sg=4, negatives=negatives, epochs=2,
                                lr=0.5, seed=7)
        rng, center, context, a_idx, b_idx, w, noise = replay_start(poi, cfg)
        C = poi.n_categories
        pos = np.zeros((C, C))
        pos[a_idx, b_idx] = w
        for _ in range(cfg.epochs):
            negs = rng.choice(C, size=(a_idx.size, negatives), p=noise)
            neg = np.zeros((C, C))
            for p, row in enumerate(negs):
                for c in row:
                    neg[a_idx[p], c] += w[p] / negatives

            def loss(u, v):
                x = u @ v.T
                return np.sum(pos * softplus(-x) + neg * softplus(x))

            g_center = numeric_gradient(lambda u: loss(u, context),
                                        center.copy())
            g_context = numeric_gradient(lambda v: loss(center, v),
                                         context.copy())
            center = center - cfg.lr * g_center
            context = context - cfg.lr * g_context
        assert_allclose(pe.train_skipgram(poi, cfg), center, rtol=0,
                        atol=1e-9)


class TestSkipgram:
    def test_zero_negatives_and_zero_epochs_allowed(self):
        poi = make_poi([[2, 1]])
        untrained = pe.train_skipgram(poi, pe.SkipgramConfig(d_sg=4, epochs=0,
                                                             seed=5))
        assert np.array_equal(untrained, RNG(5).normal(scale=0.25,
                                                       size=(2, 4)))
        positives_only = pe.train_skipgram(
            poi, pe.SkipgramConfig(d_sg=4, negatives=0, epochs=3))
        assert np.all(np.isfinite(positives_only))

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DataError, match="empty POI corpus"):
            pe.train_skipgram(make_poi(np.zeros((3, 4))),
                              pe.SkipgramConfig(d_sg=8))

    def test_degenerate_single_token_corpus(self):
        """One region, one category, count 1: no pairs, table still finite."""
        table = pe.train_skipgram(make_poi([[1]]), pe.SkipgramConfig(d_sg=8))
        assert table.shape == (1, 8)
        assert np.all(np.isfinite(table))

    def test_single_region_single_category_trains(self):
        table = pe.train_skipgram(make_poi([[5]]), pe.SkipgramConfig(d_sg=8))
        assert table.shape == (1, 8)
        assert np.all(np.isfinite(table))

    def test_same_seed_identical(self):
        poi = make_poi(RNG(0).integers(0, 5, size=(6, 4)))
        cfg = pe.SkipgramConfig(d_sg=8, epochs=20, seed=3)
        assert np.array_equal(pe.train_skipgram(poi, cfg),
                              pe.train_skipgram(poi, cfg))

    def test_disjoint_cliques_separate(self):
        """Categories co-occurring only within cliques embed closer together."""
        table = pe.train_skipgram(make_poi(two_clique_counts()),
                                  pe.SkipgramConfig(d_sg=16, seed=1))

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        intra, inter = [], []
        for a in range(6):
            for b in range(a + 1, 6):
                bucket = intra if (a < 3) == (b < 3) else inter
                bucket.append(cos(table[a], table[b]))
        assert np.mean(intra) > np.mean(inter)

    def test_cooccurrence_pair_counts(self):
        """Sentence 'a a b' yields: aa pairs 2, ab 2, ba 2, bb 0."""
        M = pe.cooccurrence(make_poi([[2, 1]]), window_cap=20)
        assert_allclose(M, [[2.0, 2.0], [2.0, 0.0]])

    def test_window_cap_limits_repeats(self):
        M_capped = pe.cooccurrence(make_poi([[100, 1]]), window_cap=3)
        assert_allclose(M_capped, [[6.0, 3.0], [3.0, 0.0]])


class TestProjection:
    def test_single_category_pooling_ignores_count(self):
        table = RNG(1).normal(size=(3, 4))
        for k in (1, 7):
            pooled = pe.pooled_vectors(table, make_poi([[0, k, 0]]))
            assert_allclose(pooled[0], table[1], atol=1e-12)

    def test_zero_poi_region_pools_to_zero(self):
        table = RNG(2).normal(size=(2, 4))
        pooled = pe.pooled_vectors(table, make_poi([[0, 0], [1, 1]]))
        assert_allclose(pooled[0], np.zeros(4))

    def test_identity_mlp_passes_pooled_through(self):
        """With identity weights the perceptron is a no-op on non-negative
        pooled vectors (relu sits between the layers)."""
        table = np.abs(RNG(3).normal(size=(3, 4)))
        poi = make_poi([[1, 2, 0], [0, 0, 3]])
        mlp = constant_mlp(np.eye(4), np.zeros((1, 4)),
                           np.eye(4), np.zeros((1, 4)))
        out = pe.project_regions(table, poi, mlp)
        assert_allclose(out.data, pe.pooled_vectors(table, poi), atol=1e-12)

    def test_three_region_fixture_matches_hand_oracle(self):
        rng = RNG(4)
        table = rng.normal(size=(3, 4))
        counts = np.array([[1, 2, 0], [0, 0, 5], [2, 2, 2]])
        w1, b1 = rng.normal(size=(5, 4)), rng.normal(size=(1, 5))
        w2, b2 = rng.normal(size=(2, 5)), rng.normal(size=(1, 2))

        want = np.zeros((3, 2))
        for i in range(3):
            total = counts[i].sum()
            pooled = sum(counts[i, c] * table[c] for c in range(3)) / total
            h = np.maximum(w1 @ pooled + b1[0], 0.0)
            want[i] = w2 @ h + b2[0]

        out = pe.project_regions(table, make_poi(counts),
                                 constant_mlp(w1, b1, w2, b2))
        assert_allclose(out.data, want, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        mlp = constant_mlp(np.eye(3), np.zeros((1, 3)),
                           np.eye(3), np.zeros((1, 3)))
        with pytest.raises(ContractError):
            pe.project_regions(RNG(0).normal(size=(2, 4)),
                               make_poi([[1, 1]]), mlp)


def random_attention(d, heads, seed):
    tape = nc.GradientTape()
    params = pe.init_attention(tape, "attn", d, heads, RNG(seed))
    return tape, params


class TestAttention:
    def test_single_region_closed_form(self):
        tape, params = random_attention(d=4, heads=1, seed=5)
        e = RNG(6).normal(size=(1, 4))
        out = pe.self_attention(nc.Tensor(e), params)
        want = params.v[0].data @ e[0] + e[0]
        assert_allclose(out.data[0], want, atol=1e-12)

    def test_identical_rows_give_uniform_attention(self):
        tape, params = random_attention(d=6, heads=2, seed=7)
        e = np.tile(RNG(8).normal(size=(1, 6)), (5, 1))
        for alpha in pe.attention_weights(nc.Tensor(e), params):
            assert_allclose(alpha.data, np.full((5, 5), 0.2), atol=1e-12)

    def test_two_region_single_head_matches_softmax_oracle(self):
        tape, params = random_attention(d=4, heads=1, seed=9)
        q, k, v = params.q[0].data, params.k[0].data, params.v[0].data
        e = RNG(10).normal(size=(2, 4))

        want = np.zeros((2, 4))
        for i in range(2):
            s = np.array([(q @ e[i]) @ (k @ e[j]) / np.sqrt(4.0)
                          for j in range(2)])
            a0 = np.exp(s[0]) / (np.exp(s[0]) + np.exp(s[1]))
            want[i] = a0 * (v @ e[0]) + (1 - a0) * (v @ e[1]) + e[i]

        out = pe.self_attention(nc.Tensor(e), params)
        assert_allclose(out.data, want, atol=1e-10)

    def test_rows_sum_to_one_nonnegative(self):
        tape, params = random_attention(d=8, heads=4, seed=11)
        e = RNG(12).normal(size=(7, 8)) * 3
        for alpha in pe.attention_weights(nc.Tensor(e), params):
            assert_allclose(alpha.data.sum(axis=1), np.ones(7), atol=1e-9)
            assert np.all(alpha.data >= 0)

    def test_permutation_equivariance(self):
        tape, params = random_attention(d=6, heads=3, seed=13)
        e = RNG(14).normal(size=(6, 6))
        perm = RNG(15).permutation(6)
        out = pe.self_attention(nc.Tensor(e), params).data
        out_perm = pe.self_attention(nc.Tensor(e[perm]), params).data
        assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_indivisible_heads_rejected(self):
        # d % heads is checked once, where TrainConfig is built
        with pytest.raises(ConfigError, match="heads"):
            TrainConfig(d=7, heads=2)

    def test_gradients_through_full_stack(self):
        """Finite differences through pooling, perceptron, and attention."""
        table = RNG(16).normal(size=(3, 4))
        poi = make_poi([[1, 0, 2], [3, 1, 0], [0, 2, 2], [1, 1, 1]])
        init_rng = RNG(17)
        tape = nc.GradientTape()
        mlp = pe.init_mlp(tape, "mlp", 4, 5, 6, init_rng)
        attn = pe.init_attention(tape, "attn", 6, 2, init_rng)

        def loss_fn():
            out = pe.self_attention(pe.project_regions(table, poi, mlp), attn)
            proj = nc.Tensor(np.linspace(-1, 1, out.data.size)
                             .reshape(out.data.shape))
            return nc.tsum(nc.mul(out, proj))

        assert check_tape_gradients(loss_fn, tape) < 1e-4
