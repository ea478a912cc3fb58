"""Tests for contrastive losses, rewards, and the sampler objective.

The central oracle is a literal double loop over node pairs computing
cosines and softmax terms with python floats, written without reference to
the tensor implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import assert_edges, edge_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import losses as ls
from regioncl import numcore as nc
from regioncl.errors import ConfigError
from regioncl.gradcheck import check_tape_gradients

RNG = np.random.default_rng


def cos(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def double_loop_nce(A, B, tau):
    """Per-node -log softmax sums, python floats all the way."""
    total = 0.0
    for i in range(len(A)):
        num = math.exp(cos(A[i], B[i]) / tau)
        den = sum(math.exp(cos(A[i], B[j]) / tau) for j in range(len(B)))
        total += -math.log(num / den)
    return total


def aligned_views(A, B):
    n = len(A)
    return ls.ViewEmbeddings(h1=nc.Tensor(A), nodes1=tuple(range(n)),
                             h2=nc.Tensor(B), nodes2=tuple(range(n)))


class TestInfoNce:
    def test_uniform_case_closed_form(self):
        v = np.array([0.3, -1.2, 0.7])
        A = np.tile(v, (4, 1))
        loss = ls.info_nce(aligned_views(A, A.copy()), tau=0.5)
        assert_allclose(loss.item(), 4.0 * np.log(4.0), atol=1e-9)

    def test_three_nodes_matches_double_loop(self):
        rng = RNG(0)
        A, B = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        loss = ls.info_nce(aligned_views(A, B), tau=0.5)
        assert_allclose(loss.item(), double_loop_nce(A, B, 0.5), atol=1e-10)

    def test_nonnegative_on_random_inputs(self):
        rng = RNG(1)
        for _ in range(5):
            A, B = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
            assert ls.info_nce(aligned_views(A, B), tau=0.7).item() >= 0.0

    def test_alignment_uses_shared_ids_not_positions(self):
        rng = RNG(2)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        views = ls.ViewEmbeddings(h1=nc.Tensor(h1), nodes1=(5, 2, 9),
                                  h2=nc.Tensor(h2), nodes2=(9, 5, 7))
        ids, idx1, idx2 = views.shared()
        # shared ids {5, 9}: id 5 sits at row 0 of view 1 and row 1 of
        # view 2; id 9 at row 2 of view 1 and row 0 of view 2
        assert [a.tolist() for a in (ids, idx1, idx2)] \
            == [[5, 9], [0, 2], [1, 0]]
        loss = ls.info_nce(views, tau=0.5)
        want = double_loop_nce(h1[[0, 2]], h2[[1, 0]], 0.5)
        assert_allclose(loss.item(), want, atol=1e-10)

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_scale_invariance(self, factor):
        rng = RNG(3)
        A, B = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        base = ls.info_nce(aligned_views(A, B), tau=0.5).item()
        scaled = ls.info_nce(aligned_views(factor * A, factor * B),
                             tau=0.5).item()
        assert_allclose(scaled, base, atol=1e-9)


class TestDropEdges:
    PAIRS = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)}
    EDGES = edge_rows(PAIRS)

    def test_zero_rate_keeps_all(self):
        assert_edges(ls.drop_edges(self.EDGES, 0.0, RNG(0)), self.PAIRS)

    def test_empty_edge_set(self):
        assert_edges(ls.drop_edges(edge_rows([]), 0.5, RNG(0)), set())

    def test_half_rate_matches_rng_replay(self):
        got = ls.drop_edges(self.EDGES, 0.5, RNG(7))
        ordered = sorted(self.PAIRS)
        dropped = set(RNG(7).choice(len(ordered), size=4,
                                    replace=False).tolist())
        want = {e for i, e in enumerate(ordered) if i not in dropped}
        assert_edges(got, want)
        assert len(got) == 4

    def test_bad_rate_rejected(self):
        # the rate is checked once, where LossConfig is built
        with pytest.raises(ConfigError, match="infobn_drop"):
            ls.LossConfig(infobn_drop=1.0)


class TestInfoBn:
    def test_uniform_case_closed_form(self):
        v = np.array([1.0, 2.0])
        H = np.tile(v, (3, 1))
        t = nc.Tensor
        loss = ls.info_bn(t(H), t(H.copy()), t(H.copy()), t(H.copy()),
                          tau=0.5)
        assert_allclose(loss.item(), 2.0 * 3.0 * np.log(3.0), atol=1e-9)

    def test_two_node_orthogonal_hand_value(self):
        """View 1: two orthogonal unit rows against themselves; view 2 is a
        single node contributing zero. Per row: -ln(e^2 / (e^2 + 1))."""
        H1 = np.eye(2)
        single = np.array([[0.4, 0.6]])
        loss = ls.info_bn(nc.Tensor(H1), nc.Tensor(H1.copy()),
                          nc.Tensor(single), nc.Tensor(single.copy()),
                          tau=0.5)
        want = 2.0 * math.log(1.0 + math.exp(-2.0))
        assert_allclose(loss.item(), want, atol=1e-10)

    def test_matches_double_loop_on_random_views(self):
        rng = RNG(4)
        H1, H1a = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        H2, H2a = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        loss = ls.info_bn(nc.Tensor(H1), nc.Tensor(H1a),
                          nc.Tensor(H2), nc.Tensor(H2a), tau=0.4)
        want = double_loop_nce(H1, H1a, 0.4) + double_loop_nce(H2, H2a, 0.4)
        assert_allclose(loss.item(), want, atol=1e-10)

    def test_nonnegative(self):
        rng = RNG(5)
        H1, H2 = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        loss = ls.info_bn(nc.Tensor(H1), nc.Tensor(rng.normal(size=(3, 4))),
                          nc.Tensor(H2), nc.Tensor(rng.normal(size=(6, 4))),
                          tau=0.5)
        assert loss.item() >= 0.0

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_scale_invariance(self, factor):
        rng = RNG(6)
        mats = [rng.normal(size=(4, 3)) for _ in range(4)]
        base = ls.info_bn(*[nc.Tensor(m) for m in mats], tau=0.5).item()
        scaled = ls.info_bn(*[nc.Tensor(factor * m) for m in mats],
                            tau=0.5).item()
        assert_allclose(scaled, base, atol=1e-9)


class TestOverallLoss:
    def test_endpoints_and_mix(self):
        nce, bn = nc.Tensor(2.0), nc.Tensor(10.0)
        assert ls.overall_loss(nce, bn, 1.0).item() == 2.0
        assert ls.overall_loss(nce, bn, 0.0).item() == 10.0
        assert_allclose(ls.overall_loss(nce, bn, 0.1).item(), 9.2, atol=1e-12)

    def test_bad_beta_rejected(self):
        # beta is checked once, where LossConfig is built
        with pytest.raises(ConfigError, match="beta"):
            ls.LossConfig(beta=1.5)


def floor_rows(kind: str, m: int, rng) -> tuple:
    """Two (m, 3) operands of one ``_nce_sum``. "adversarial": a_i = a_0
    for every i, b_0 = a_0 and b_j = -a_0 for j != 0, so row 0 meets every
    logit bound; "zeros": random rows with every third row zero."""
    if kind == "adversarial":
        u = rng.normal(size=3)
        return np.tile(u, (m, 1)), np.vstack([u, np.tile(-u, (m - 1, 1))])
    A, B = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
    if kind == "zeros":
        A[::3] = 0.0
        B[1::3] = 0.0
    return A, B


class TestOverallLossFloor:
    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(2, 90), n2=st.integers(2, 90),
           shared=st.floats(0.0, 1.0), tau=st.floats(0.05, 50.0),
           beta=st.floats(0.0, 1.0),
           kind=st.sampled_from(["random", "adversarial", "zeros"]),
           seed=st.integers(0, 2 ** 16))
    def test_floor_is_at_most_the_computed_loss(self, n1, n2, shared, tau,
                                                 beta, kind, seed):
        rng = RNG(seed)
        ms = 2 + round(shared * (min(n1, n2) - 2))
        # view 2 starts at view 1's last ms nodes, so they share ms nodes
        h1, h1_aug = floor_rows(kind, n1, rng)
        h2, h2_aug = floor_rows(kind, n2, rng)
        views = ls.ViewEmbeddings(h1=nc.Tensor(h1), nodes1=np.arange(n1),
                                  h2=nc.Tensor(h2),
                                  nodes2=np.arange(n1 - ms, n1 - ms + n2))
        with nc.no_grad():
            loss = ls.overall_loss(
                ls.info_nce(views, tau),
                ls.info_bn(views.h1, nc.Tensor(h1_aug), views.h2,
                           nc.Tensor(h2_aug), tau), beta).item()
        assert ls.overall_loss_floor(ms, (n1, n2), tau, beta) <= loss

    def test_adversarial_pair_sits_on_the_bound(self):
        """Two antipodal rows meet every logit bound at once: each row costs
        log(1 + e^(-2/tau)), which the floor's log 2 - 2/tau approaches as
        tau grows; the floor stays below it by its slack and more."""
        A = np.array([[1.0], [-1.0]])
        tau = 1e3
        cost = ls._nce_sum(nc.Tensor(A), nc.Tensor(A.copy()), tau).item()
        assert cost == pytest.approx(2 * math.log1p(math.exp(-2 / tau)))
        floor = ls.overall_loss_floor(2, (2, 2), tau, 1.0)
        assert 0.0 < floor < cost
        assert cost - floor < 2 * (2 / tau)

    def test_closed_form_and_the_55_row_threshold(self):
        """f(m) = m max(0, log m - 2/tau) less the slack, mixed by beta; at
        tau = 0.5 and the default bar 1.2, views of 55 rows stay under it
        and views of 56 rows clear it."""
        def f(m, tau):
            rho = ls.FLOOR_SLACK
            return m * (math.log(m) * (1 - rho) - 2 / tau * (1 + rho))

        assert ls.overall_loss_floor(300, (310, 320), 0.5, 0.1) \
            == pytest.approx(0.1 * f(300, 0.5)
                             + 0.9 * (f(310, 0.5) + f(320, 0.5)), rel=1e-12)
        assert ls.overall_loss_floor(36, (36, 36), 0.5, 0.1) == 0.0
        bar = ls.LossConfig().eps_prime
        assert ls.overall_loss_floor(55, (55, 55), 0.5, 0.1) < bar
        assert ls.overall_loss_floor(56, (56, 56), 0.5, 0.1) > bar


class TestRewards:
    def test_r1_boundary_is_small_reward(self):
        assert ls.reward_r1(1.2, eps_prime=1.2, xi=0.1) == 0.1
        assert ls.reward_r1(1.21, eps_prime=1.2, xi=0.1) == 1.0

    def test_r1_two_valued_over_sweep(self):
        values = {ls.reward_r1(x, 1.2, 0.1) for x in np.linspace(0, 3, 50)}
        assert values == {0.1, 1.0}

    def test_r2_identical_embeddings_zero(self):
        A = RNG(7).normal(size=(4, 3))
        assert_allclose(ls.reward_r2(aligned_views(A, A.copy())), 0.0,
                        atol=1e-12)

    def test_r2_orthogonal_rows_one(self):
        A = np.eye(4)
        B = np.roll(np.eye(4), 1, axis=1)
        assert_allclose(ls.reward_r2(aligned_views(A, B)), 1.0, atol=1e-12)

    def test_r2_mixed_cosines_half(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert_allclose(ls.reward_r2(aligned_views(A, B)), 0.5, atol=1e-12)

    def test_combined_reward_arithmetic(self):
        assert ls.combined_reward(1.0, 0.7, 1.0) == 1.0
        assert ls.combined_reward(1.0, 0.0, 0.5) == 0.5
        assert_allclose(ls.combined_reward(0.1, 0.3, 0.5), 0.2, atol=1e-12)

    def test_combined_reward_bounds(self):
        w1, xi = 0.5, 0.1
        lo, hi = w1 * xi, w1 * 1.0 + (1 - w1) * 2.0
        for r1 in (xi, 1.0):
            for r2 in np.linspace(0.0, 2.0, 9):
                r = ls.combined_reward(r1, float(r2), w1)
                assert lo - 1e-12 <= r <= hi + 1e-12


class TestSamplerObjective:
    def build(self, reward):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
        lrec1 = nc.tsum(nc.softplus(x))
        lrec2 = nc.tsum(nc.mul(x, x))
        obj = ls.sampler_objective(reward, lrec1, lrec2)
        return tape, obj

    def test_zero_reward_zero_gradients(self):
        tape, obj = self.build(0.0)
        assert obj.item() == 0.0
        grads = nc.backward(tape, obj)
        assert_allclose(grads["x"], np.zeros((2, 2)))

    def test_unit_reward_matches_plain_sum(self):
        tape, obj = self.build(1.0)
        g1 = nc.backward(tape, obj)["x"]
        tape2 = nc.GradientTape()
        x = tape2.parameter("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
        plain = nc.add(nc.tsum(nc.softplus(x)), nc.tsum(nc.mul(x, x)))
        g2 = nc.backward(tape2, plain)["x"]
        assert_allclose(g1, g2, atol=1e-15)

    def test_gradient_proportional_to_reward(self):
        tape_h, obj_h = self.build(0.5)
        g_half = nc.backward(tape_h, obj_h)["x"]
        tape_1, obj_1 = self.build(1.0)
        g_one = nc.backward(tape_1, obj_1)["x"]
        assert_allclose(g_half, 0.5 * g_one, atol=1e-15)


class TestGradients:
    def test_finite_differences_through_losses(self):
        rng = RNG(8)
        tape = nc.GradientTape()
        h1, h1a, h2, h2a = (tape.parameter(name, rng.normal(size=(4, 3)))
                            for name in ("h1", "h1a", "h2", "h2a"))

        def loss_fn():
            views = ls.ViewEmbeddings(h1=h1, nodes1=(0, 1, 2, 3),
                                      h2=h2, nodes2=(0, 1, 2, 3))
            nce = ls.info_nce(views, tau=0.5)
            bn = ls.info_bn(h1, h1a, h2, h2a, tau=0.5)
            return ls.overall_loss(nce, bn, 0.1)

        assert check_tape_gradients(loss_fn, tape) < 1e-4


def composed_nce(A, B, tau):
    """-sum log diag softmax_rows(cos/tau) with the (n, n) matrix in full."""
    sims = nc.matmul(nc.normalize_rows(A), nc.transpose(nc.normalize_rows(B)))
    probs = nc.softmax_rows(nc.scale(sims, 1.0 / tau))
    eye = nc.Tensor(np.eye(A.data.shape[0]))
    return nc.scale(nc.tsum(nc.mul(nc.log(probs), eye)), -1.0)


class TestScale:
    """Cosine logits whose dense (n, n) matrix would take 1,099 MiB."""

    N = 12_000
    SLICE = 600

    def test_nce_sum_never_holds_the_similarity_matrix(self):
        rng = RNG(12)
        A0, B0 = rng.normal(size=(self.N, 4)), rng.normal(size=(self.N, 4))
        tape = nc.GradientTape()
        A, B = tape.parameter("A", A0), tape.parameter("B", B0)
        tracemalloc.start()
        try:
            loss = ls._nce_sum(A, B, tau=0.5)
            grads = nc.backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"traced peak {peak / 2**20:.0f} MB"
        assert np.isfinite(loss.item())
        assert all(np.all(np.isfinite(g)) for g in grads.values())

        # the streamed op against the composed one on a slice that still
        # crosses block boundaries, value and gradient
        k = self.SLICE
        tape = nc.GradientTape()
        a, b = tape.parameter("a", A0[:k]), tape.parameter("b", B0[:k])
        streamed = ls._nce_sum(a, b, tau=0.5)
        g_streamed = nc.backward(tape, streamed)
        composed = composed_nce(a, b, tau=0.5)
        g_composed = nc.backward(tape, composed)
        assert_allclose(streamed.item(), composed.item(), rtol=1e-12)
        for name in ("a", "b"):
            assert_allclose(g_streamed[name], g_composed[name], rtol=0,
                            atol=1e-12)
