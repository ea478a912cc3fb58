"""Tests for the tensor/autodiff substrate.

Oracles used here:
  * matmul against an explicit triple loop;
  * spmm against the dense product of the same matrix;
  * dot_cross_entropy against the composed -sum log diag softmax(c a b^T);
  * every op's gradient against central finite differences;
  * Adam against an independent reference implementation of the published
    update rule (bias-corrected moments, decoupled weight decay).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import numcore as nc
from regioncl.errors import ContractError, TrainingAborted
from regioncl.gradcheck import check_tape_gradients, numeric_gradient, relative_error

RNG = np.random.default_rng


def csr(dense):
    """The CsrMatrix holding the nonzeros of a dense 2-d array."""
    rows, cols = np.nonzero(dense)
    counts = np.bincount(rows, minlength=dense.shape[0])
    return nc.CsrMatrix(np.concatenate([[0], np.cumsum(counts)]), cols,
                        dense[rows, cols], dense.shape)


# symmetric, with an all-zero row and a zero diagonal entry
SYM = np.array([[1.0, 0.0, 2.0],
                [0.0, 0.0, 0.0],
                [2.0, 0.0, -1.5]])


def scalar_loss(t):
    """Reduce any tensor to a scalar with a fixed projection for grad checks."""
    if t.data.shape == ():
        return t
    proj = nc.Tensor(np.linspace(0.3, 1.7, t.data.size).reshape(t.data.shape))
    flat = nc.reshape(nc.mul(t, proj), (t.data.size,))
    return nc.tsum(flat)


class TestForward:
    def test_matmul_matches_triple_loop(self):
        rng = RNG(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = nc.matmul(nc.Tensor(a), nc.Tensor(b)).data
        assert_allclose(got, want, atol=1e-12)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ContractError):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))

    def test_add_bias_row_broadcasts(self):
        x = np.arange(6.0).reshape(2, 3)
        b = np.array([[10.0, 20.0, 30.0]])
        out = nc.add(nc.Tensor(x), nc.Tensor(b)).data
        assert_allclose(out, x + b)

    def test_add_rejects_other_broadcasts(self):
        """Only a (1, n) row broadcasts: a column or an (n,) vector is
        refused."""
        for shape in ((2, 1), (3,)):
            with pytest.raises(ContractError):
                nc.add(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones(shape)))

    def test_relu_clamps_negatives(self):
        out = nc.relu(nc.Tensor(np.array([-2.0, 0.0, 3.0]))).data
        assert_allclose(out, [0.0, 0.0, 3.0])

    def test_relu_bits_match_a_positive_mask_and_nan_propagates(self):
        """max(a, 0) has the bits of where(a > 0, a, 0) for every finite or
        infinite input, -0.0 included (both give +0.0); a NaN input stays
        NaN, and its gradient is 0."""
        x = np.array([[-0.0, 0.0, -2.5, 3.0, np.inf, -np.inf, 5e-324,
                       -5e-324, np.nan]])
        tape = nc.GradientTape()
        p = tape.parameter("x", x)
        out = nc.relu(p)
        finite = out.data[:, :-1]
        assert finite.tobytes() == np.where(x > 0, x, 0.0)[:, :-1].tobytes()
        assert np.isnan(out.data[0, -1])
        grads = nc.backward(tape, nc.tsum(nc.mul(out, nc.constant(
            np.where(np.isnan(x), 0.0, 1.0)))))
        assert grads["x"].tolist() == [[0, 0, 0, 1, 1, 0, 1, 0, 0]]

    def test_sigmoid_extremes_are_finite(self):
        out = nc.expit(np.array([-800.0, 0.0, 800.0]))
        assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softplus_matches_log1p_exp(self):
        x = np.array([-700.0, -2.0, 0.0, 2.0, 700.0])
        out = nc.softplus(nc.Tensor(x)).data
        # direct formula underflows/overflows at the extremes; check the
        # moderate region exactly and the extremes by their asymptotes
        assert_allclose(out[1:4], np.log1p(np.exp(x[1:4])), atol=1e-12)
        assert 0.0 <= out[0] < 1e-300
        assert_allclose(out[4], 700.0)

    def test_softmax_rows_sum_to_one(self):
        x = RNG(1).normal(size=(5, 7)) * 50
        s = nc.softmax_rows(nc.Tensor(x)).data
        assert_allclose(s.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_uniform_on_constant_rows(self):
        s = nc.softmax_rows(nc.Tensor(np.full((2, 4), 9.0))).data
        assert_allclose(s, np.full((2, 4), 0.25), atol=1e-15)

    def test_normalize_rows_zero_row_stays_zero(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        y = nc.normalize_rows(nc.Tensor(x)).data
        assert_allclose(y[0], [0.6, 0.8], atol=1e-15)
        assert_allclose(y[1], [0.0, 0.0])

    def test_rows_gathers(self):
        x = np.arange(12.0).reshape(4, 3)
        out = nc.rows(nc.Tensor(x), [2, 0, 2]).data
        assert_allclose(out, x[[2, 0, 2]])

    def test_rows_backward_equals_add_at_bit_for_bit(self):
        """The bincount scatter adds in np.add.at's order: repeated rows
        sum, and unused rows (the last one here) stay 0."""
        rng = RNG(7)
        cases = [((5, 3), rng.integers(0, 4, size=12)),
                 ((40, 8), rng.integers(0, 39, size=300)),
                 ((1, 2), np.zeros(4, dtype=np.int64)),
                 ((6, 3), np.zeros(0, dtype=np.int64))]
        for shape, idx in cases:
            g = rng.normal(size=(idx.size, shape[1]))
            want = np.zeros(shape)
            np.add.at(want, idx, g)
            (got,) = nc.rows(nc.Tensor(rng.normal(size=shape)), idx).vjp(g)
            assert got.shape == shape
            assert np.array_equal(got, want), shape

    def test_concat_cols(self):
        a, b = np.ones((2, 2)), np.zeros((2, 3))
        out = nc.concat_cols([nc.Tensor(a), nc.Tensor(b)]).data
        assert out.shape == (2, 5)
        assert_allclose(out[:, :2], a)

    def test_csr_toarray_round_trips(self):
        assert np.array_equal(csr(SYM).toarray(), SYM)
        assert csr(SYM).values.size == 4

    def test_spmm_matches_dense_product(self):
        rng = RNG(3)
        dense = rng.normal(size=(7, 7)) * (rng.random((7, 7)) < 0.4)
        dense = dense + dense.T
        dense[4] = dense[:, 4] = 0.0
        H = rng.normal(size=(7, 5))
        got = nc.spmm(csr(dense), nc.Tensor(H)).data
        assert_allclose(got, dense @ H, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1, 2], [-1, 0]),        # would read x[-1], the last row
        ([0, 1, 2], [0, 2]),         # column 2 of a 2-column matrix
        ([1, 1, 2], [0, 1]),         # would drop the first nonzero
        ([0, 2, 1, 2], [0, 1]),      # a row of length -1
    ])
    def test_csr_rejects_malformed_arrays(self, indptr, indices):
        shape = (len(indptr) - 1, 2)
        with pytest.raises(ContractError):
            nc.CsrMatrix(indptr, indices, np.ones(len(indices)), shape)

    def test_spmm_shape_mismatch(self):
        with pytest.raises(ContractError):
            nc.spmm(csr(SYM), nc.Tensor(np.ones((4, 2))))

    def test_spmm_differentiates_only_the_dense_operand(self):
        tape = nc.GradientTape()
        h = tape.parameter("h", RNG(4).normal(size=(3, 2)))
        out = nc.spmm(csr(SYM), h)
        assert out.parents == (h,)
        grads = nc.backward(tape, nc.tsum(out))
        assert_allclose(grads["h"], SYM.T @ np.ones((3, 2)), atol=1e-12)

    @staticmethod
    def _check_against_composition(n, c, A=None, B=None):
        """A and B default to standard normal (n, 5) draws."""
        if A is None:
            rng = RNG(20 + n)
            A, B = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
        tape = nc.GradientTape()
        a = tape.parameter("a", A)
        b = tape.parameter("b", B)
        fused = nc.dot_cross_entropy(a, b, c)
        g_fused = nc.backward(tape, fused)
        probs = nc.softmax_rows(nc.scale(nc.matmul(a, nc.transpose(b)), c))
        composed = nc.scale(nc.tsum(nc.mul(nc.log(probs),
                                           nc.Tensor(np.eye(n)))), -1.0)
        g_composed = nc.backward(tape, composed)
        assert_allclose(fused.item(), composed.item(), rtol=1e-12, atol=1e-12)
        for name in ("a", "b"):
            assert_allclose(g_fused[name], g_composed[name], rtol=0,
                            atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_dot_cross_entropy_matches_softmax_composition(self, n):
        """Row counts on both sides of every block edge up to 600."""
        self._check_against_composition(n, 2.0)

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_dot_cross_entropy_matches_composition_off_power_of_two(self, n):
        """c = 1/0.3 scales a's rows before the slab product, which rounds
        differently from scaling the slab; the result must still agree."""
        self._check_against_composition(n, 1 / 0.3)

    @pytest.mark.parametrize("n", [255, 257])
    @pytest.mark.parametrize("bound", [0.99 * 600, 1.01 * 600])
    def test_dot_cross_entropy_matches_composition_at_the_shift_bound(
            self, n, bound):
        """c max|a_i| max|b_j| just below 600 exponentiates the slabs
        unshifted, just above it shifts their row maxima out; both agree
        with the composition. Every row is one direction plus a small
        perturbation, so each row's own logit stays near its row max and
        no probability of the reference underflows. The small c keeps both
        gradients, c (sum_j p_ij b_j - b_i) and its transpose, near unit
        size, so the atol of 1e-12 acts as a relative tolerance."""
        rng = RNG(70 + n)
        c = 1e-4
        A = rng.normal(size=5) + 0.003 * rng.normal(size=(n, 5))
        B = A + 0.003 * rng.normal(size=(n, 5))
        r = np.sqrt(bound / c)
        A *= r / np.linalg.norm(A, axis=1).max()
        B *= r / np.linalg.norm(B, axis=1).max()
        self._check_against_composition(n, c, A, B)

    def test_dot_cross_entropy_large_logits_stay_finite(self):
        S = np.array([[800.0, -800.0], [0.0, 900.0]])
        loss = nc.dot_cross_entropy(nc.Tensor(S), nc.Tensor(np.eye(2)))
        # each row's own logit dominates its row by >= 900: loss ~ 0
        assert_allclose(loss.item(), 0.0, atol=1e-12)
        assert all(np.all(np.isfinite(g)) for g in loss.vjp(np.ones(())))

    def test_dot_cross_entropy_off_diagonal_top_logit_stays_finite(self):
        """Row 0's top logit is 900 above its own: the bound is past 600,
        so the slab is shifted and its loss of about 900 stays finite."""
        S = np.array([[0.0, 900.0], [0.0, 900.0]])
        loss = nc.dot_cross_entropy(nc.Tensor(S), nc.Tensor(np.eye(2)))
        assert_allclose(loss.item(), 900.0, rtol=1e-15)
        assert all(np.all(np.isfinite(g)) for g in loss.vjp(np.ones(())))

    def test_dot_cross_entropy_rejects_shape_mismatch(self):
        with pytest.raises(ContractError):
            nc.dot_cross_entropy(nc.Tensor(np.ones((2, 3))),
                                 nc.Tensor(np.ones((3, 3))))


@st.composite
def sparse_and_dense(draw):
    """A random sparse (rows, cols) matrix and a dense (cols, d) operand."""
    rows, cols, d = (draw(st.integers(1, 9)) for _ in range(3))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)
    rng = RNG(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(rows, cols)) * mask, rng.normal(size=(cols, d))


def _staircase():
    """Every row a different length, from 0 to all 5 columns, out of order."""
    lengths = np.array([3, 0, 5, 1, 4, 2])
    dense = (np.arange(5) < lengths[:, None]) * RNG(9).normal(size=(6, 5))
    return dense, RNG(10).normal(size=(5, 3))


class TestCsrDot:
    @settings(max_examples=200, deadline=None)
    @given(sparse_and_dense())
    @example((np.zeros((3, 4)), RNG(1).normal(size=(4, 2))))          # nnz 0
    @example((np.array([[2.5]]), np.array([[-1.0, 3.0]])))             # n = 1
    @example((SYM, RNG(2).normal(size=(3, 4))))                 # empty row
    @example((RNG(3).normal(size=(3, 7)), RNG(4).normal(size=(7, 2))))  # full
    @example(_staircase())
    def test_dot_matches_dense_product(self, case):
        dense, x = case
        A = csr(dense)
        got = A.dot(x)
        assert got.shape == (dense.shape[0], x.shape[1])
        assert_allclose(got, dense @ x, rtol=0, atol=1e-12)
        assert got.tobytes() == A.dot(x).tobytes()
        # the same bits as one scatter per row-length group
        lengths = np.diff(A.indptr)
        want = np.zeros_like(got)
        for k in np.unique(lengths[lengths > 0]):
            grp = np.flatnonzero(lengths == k)
            pos = A.indptr[grp, None] + np.arange(k)
            want[grp] = np.matmul(A.values[pos][:, None, :],
                                  x[A.indices[pos]])[:, 0]
        assert np.array_equal(got, want)


def _peak_bytes(fn):
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoGrad:
    def _ops(self, a, b):
        """One tensor from each kind of op, built from leaves a and b."""
        return {
            "matmul": nc.matmul(a, nc.transpose(b)),
            "spmm": nc.spmm(csr(SYM), a),
            "add": nc.add(a, b),
            "mul": nc.mul(a, b),
            "relu": nc.relu(a),
            "softplus": nc.softplus(a),
            "softmax_rows": nc.softmax_rows(a),
            "rows": nc.rows(a, [2, 0, 2]),
            "normalize_rows": nc.normalize_rows(a),
            "concat_cols": nc.concat_cols([a, b]),
            "tsum": nc.tsum(a),
            "dot_cross_entropy": nc.dot_cross_entropy(a, b, 2.0),
        }

    def _leaves(self):
        tape = nc.GradientTape()
        rng = RNG(30)
        return (tape.parameter("a", rng.normal(size=(3, 4))),
                tape.parameter("b", rng.normal(size=(3, 4))))

    def test_ops_inside_record_no_parents_and_no_vjp(self):
        a, b = self._leaves()
        with nc.no_grad():
            ops = self._ops(a, b)
        for name, out in ops.items():
            assert out.parents == () and out.vjp is None, name
            assert not out.requires_grad, name
        # the same ops outside the block record as usual
        for name, out in self._ops(a, b).items():
            assert out.parents and out.vjp is not None, name
            assert out.requires_grad, name

    def test_recording_resumes_on_exit_also_when_nested(self):
        a, b = self._leaves()
        with nc.no_grad():
            with nc.no_grad():
                pass
            assert nc.add(a, b).vjp is None
        assert nc.add(a, b).parents == (a, b)

    def test_recording_resumes_after_an_exception(self):
        a, b = self._leaves()
        with pytest.raises(ContractError):
            with nc.no_grad():
                nc.dot_cross_entropy(a, nc.transpose(b))
        out = nc.dot_cross_entropy(a, b)
        assert out.parents == (a, b) and out.vjp is not None

    @pytest.mark.parametrize("n", [1, 257, 600])
    def test_dot_cross_entropy_value_is_bit_identical(self, n):
        rng = RNG(40 + n)
        A, B = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        tape = nc.GradientTape()
        recorded = nc.dot_cross_entropy(tape.parameter("a", A),
                                        tape.parameter("b", B), 3.0)
        with nc.no_grad():
            bare = nc.dot_cross_entropy(nc.Tensor(A), nc.Tensor(B), 3.0)
        assert recorded.data.tobytes() == bare.data.tobytes()

    def test_dot_cross_entropy_allocates_no_gradient_buffers(self):
        """Recording holds the slab and three (n, d) arrays at its peak (dA,
        dB and the diagonal's product). no_grad holds two slabs while a
        block's product runs, and one slab and the diagonal's product after
        the loop; at n = 1024 and d = 256 a slab is as large as an (n, d)
        array, so both stay under one slab and two (n, d) arrays."""
        n, d = 1024, 256
        rng = RNG(50)
        a, b = nc.Tensor(rng.normal(size=(n, d))), nc.Tensor(rng.normal(size=(n, d)))
        slab, buf = 8 * nc.DOT_CE_BLOCK * n, 8 * n * d

        def bare():
            with nc.no_grad():
                nc.dot_cross_entropy(a, b)

        assert _peak_bytes(bare) < slab + 2 * buf
        assert _peak_bytes(lambda: nc.dot_cross_entropy(a, b)) > slab + 2 * buf

    def test_dot_cross_entropy_vjp_scales_and_can_repeat(self):
        rng = RNG(60)
        out = nc.dot_cross_entropy(nc.Tensor(rng.normal(size=(300, 4))),
                                   nc.Tensor(rng.normal(size=(300, 4))), 2.0)
        first = out.vjp(np.ones(()))
        again = out.vjp(np.ones(()))
        half = out.vjp(np.array(0.5))
        for g1, g2, gh in zip(first, again, half):
            assert np.array_equal(g1, g2)
            assert_allclose(gh, 0.5 * g1, rtol=1e-15, atol=0)


class TestCheckpoint:
    U, V = [0, 2, 2, 3, 1], [1, 3, 4, 4, 4]

    def _fn(self, h, w):
        """rows(h, u) * rows(h, v) -> relu MLP: reads h twice."""
        prod = nc.mul(nc.rows(h, self.U), nc.rows(h, self.V))
        return nc.reshape(nc.relu(nc.matmul(prod, w)), (len(self.U),))

    def _run(self, through_checkpoint):
        """Loss and gradients of every leaf, where h has its own upstream
        graph so the outer backward continues past the checkpoint."""
        rng = RNG(70)
        tape = nc.GradientTape()
        x = nc.Tensor(rng.normal(size=(5, 3)))
        a = tape.parameter("a", rng.normal(size=(3, 4)))
        b = tape.parameter("b", rng.normal(size=(1, 4)))
        w = tape.parameter("w", rng.normal(size=(4, 1)))
        h = nc.add(nc.matmul(x, a), b)
        out = (nc.checkpoint(self._fn, h, w) if through_checkpoint
               else self._fn(h, w))
        loss = nc.tsum(nc.softplus(out))
        return out, loss, nc.backward(tape, loss), (h, w)

    def test_value_and_gradients_bit_identical_to_recording(self):
        out, loss, grads, _ = self._run(True)
        ref_out, ref_loss, ref_grads, _ = self._run(False)
        assert np.array_equal(out.data, ref_out.data)
        assert np.array_equal(loss.data, ref_loss.data)
        assert sorted(grads) == ["a", "b", "w"]
        for name, g in grads.items():
            assert np.any(g != 0), name
            assert np.array_equal(g, ref_grads[name]), name

    def test_parents_are_exactly_the_inputs(self):
        out, _, _, inputs = self._run(True)
        assert len(out.parents) == len(inputs)
        assert all(p is q for p, q in zip(out.parents, inputs))

    def test_constant_input_gets_no_gradient(self):
        rng = RNG(71)
        h = nc.Tensor(rng.normal(size=(5, 4)))
        w = nc.GradientTape().parameter("w", rng.normal(size=(4, 1)))
        out = nc.checkpoint(self._fn, h, w)
        g_h, g_w = out.vjp(np.ones(len(self.U)))
        assert g_h is None and g_w.shape == (4, 1)

    def test_no_grad_records_no_parents_and_no_vjp(self):
        _, _, _, (h, w) = self._run(True)
        with nc.no_grad():
            out = nc.checkpoint(self._fn, h, w)
        assert out.parents == () and out.vjp is None
        assert not out.requires_grad
        assert np.array_equal(out.data, self._fn(h, w).data)

    def test_input_changed_before_backward_is_rejected(self):
        """An optimizer step between the forward and the backward would
        make the recompute differentiate at the new parameters."""
        rng = RNG(72)
        tape = nc.GradientTape()
        h = tape.parameter("h", rng.normal(size=(5, 4)))
        w = tape.parameter("w", rng.normal(size=(4, 1)))
        loss = nc.tsum(nc.softplus(nc.checkpoint(self._fn, h, w)))
        grads = nc.backward(tape, loss)
        assert all(np.any(g != 0) for g in grads.values())
        # the graph is still alive, so a second backward recomputes again
        w.data += 1e-3
        with pytest.raises(ContractError, match="checkpoint"):
            nc.backward(tape, loss)


def _away_from_kinks(x, margin=0.05):
    """Shift values near 0 so finite differences do not straddle a kink."""
    return x + np.sign(x + 1e-12) * margin


def _params(*keys):
    """A case's parameter arrays: the point's arrays under the same keys."""
    return lambda c: {k: c[k] for k in keys}


# name -> (parameter arrays of a point, loss over the parameters p and the
# point's arrays c)
GRAD_CASES = {
    "matmul": (_params("a", "b"),
               lambda p, c: scalar_loss(nc.matmul(p["a"], p["b"]))),
    "add": (_params("a", "a2"),
            lambda p, c: scalar_loss(nc.add(p["a"], p["a2"]))),
    "add_bias": (_params("a", "bias"),
                 lambda p, c: scalar_loss(nc.add(p["a"], p["bias"]))),
    "mul": (_params("a", "a2"),
            lambda p, c: scalar_loss(nc.mul(p["a"], p["a2"]))),
    "scale": (_params("a"), lambda p, c: scalar_loss(nc.scale(p["a"], -2.5))),
    "relu": (lambda c: {"k": _away_from_kinks(c["a"])},
             lambda p, c: scalar_loss(nc.relu(p["k"]))),
    "softplus": (_params("a"), lambda p, c: scalar_loss(nc.softplus(p["a"]))),
    "softmax_rows": (_params("a"),
                     lambda p, c: scalar_loss(nc.softmax_rows(p["a"]))),
    "log": (lambda c: {"pos": np.abs(c["a"]) + 0.5},
            lambda p, c: scalar_loss(nc.log(p["pos"]))),
    "sum_all": (_params("a"), lambda p, c: nc.tsum(p["a"])),
    "transpose": (_params("a"),
                  lambda p, c: scalar_loss(nc.transpose(p["a"]))),
    "reshape": (_params("a"), lambda p, c: scalar_loss(
        nc.reshape(p["a"], (c["a"].size,)))),
    "rows": (_params("a"),
             lambda p, c: scalar_loss(nc.rows(p["a"], [1, 0, 1, 2]))),
    "spmm": (_params("a"),
             lambda p, c: scalar_loss(nc.spmm(csr(SYM), p["a"]))),
    "dot_cross_entropy": (_params("a", "a2"), lambda p, c:
                          nc.dot_cross_entropy(p["a"], p["a2"], 2.0)),
    "concat_cols": (_params("a", "a2"), lambda p, c: scalar_loss(
        nc.concat_cols([p["a"], p["a2"]]))),
    "normalize_rows": (_params("a"),
                       lambda p, c: scalar_loss(nc.normalize_rows(p["a"]))),
    # both biases start from one array: each must be perturbed on its own
    "chain_mlp": (
        lambda c: {"w1": c["w1"], "b1": c["bias"], "w2": c["w2"],
                   "b2": c["bias"]},
        lambda p, c: scalar_loss(nc.add(nc.matmul(nc.relu(nc.add(
            nc.matmul(nc.Tensor(c["x"]), p["w1"]), p["b1"])), p["w2"]),
            p["b2"]))),
}


class TestGradients:
    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    def test_matches_finite_differences(self, name):
        """Every op's backward agrees with central differences at 3 points."""
        params_of, loss_of = GRAD_CASES[name]
        for point in range(3):
            rng = RNG(100 + point)
            consts = {
                "a": rng.normal(size=(3, 4)),
                "a2": rng.normal(size=(3, 4)),
                "b": rng.normal(size=(4, 2)),
                "bias": rng.normal(size=(1, 4)),
                "x": rng.normal(size=(3, 4)),
                "w1": rng.normal(size=(4, 4)),
                "w2": rng.normal(size=(4, 4)),
            }
            tape = nc.GradientTape()
            p = {k: tape.parameter(k, arr)
                 for k, arr in params_of(consts).items()}
            err = check_tape_gradients(lambda: loss_of(p, consts), tape)
            assert err < 1e-4, f"{name} point {point}: rel err {err:.3e}"

    def test_relu_gradient_is_zero_at_zero(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([[0.0, 1.0, -1.0]]))
        grads = nc.backward(tape, nc.tsum(nc.relu(x)))
        assert_allclose(grads["x"], [[0.0, 1.0, 0.0]])

    def test_sum_gradient_is_ones(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", RNG(2).normal(size=(3, 5)))
        grads = nc.backward(tape, nc.tsum(x))
        assert_allclose(grads["x"], np.ones((3, 5)))

    def test_unused_parameter_gets_zero_gradient(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.ones((2, 2)))
        tape.parameter("unused", np.ones(3))
        grads = nc.backward(tape, nc.tsum(x))
        assert_allclose(grads["unused"], np.zeros(3))

    def test_backward_rejects_nonscalar(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.ones((2, 2)))
        with pytest.raises(ContractError):
            nc.backward(tape, nc.relu(x))

    def test_fanout_accumulates(self):
        """d/dx of x*x via two references to the same node is 2x."""
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([[3.0]]))
        grads = nc.backward(tape, nc.tsum(nc.mul(x, x)))
        assert_allclose(grads["x"], [[6.0]])

    def test_no_grad_value_blocks_gradient(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([[2.0]]))
        with nc.no_grad():
            constant_x = nc.scale(x, 1.0)
        y = nc.mul(constant_x, x)
        grads = nc.backward(tape, nc.tsum(y))
        assert_allclose(grads["x"], [[2.0]])

    def test_backward_is_deterministic(self):
        def run():
            tape = nc.GradientTape()
            x = tape.parameter("x", np.linspace(-1, 1, 12).reshape(3, 4))
            w = tape.parameter("w", np.linspace(0.5, 2, 16).reshape(4, 4))
            loss = nc.tsum(nc.softmax_rows(nc.matmul(nc.relu(x), w)))
            return nc.backward(tape, loss)

        g1, g2 = run(), run()
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_spent_gradients_are_freed(self):
        """Down a chain of 40 scales, each intermediate gradient is dropped
        once its VJP has read it: about 2 arrays live at a time, not 41."""
        tape = nc.GradientTape()
        x = tape.parameter("x", np.ones((500, 200)))
        y = x
        for _ in range(40):
            y = nc.scale(y, 1.01)
        loss = nc.tsum(y)
        grads = {}
        peak = _peak_bytes(lambda: grads.update(nc.backward(tape, loss)))
        assert_allclose(grads["x"], np.full((500, 200), 1.01 ** 40))
        assert peak / x.data.nbytes < 3.0


def reference_adam(x0, grad_seq, lr, weight_decay=0.0,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with bias correction; decay applied before the update."""
    x = np.asarray(x0, dtype=np.float64).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace = []
    for t, g in enumerate(grad_seq, start=1):
        x = x - lr * weight_decay * x
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(x.copy())
    return trace


class TestAdam:
    def test_matches_reference_trace(self):
        rng = RNG(7)
        x0 = rng.normal(size=(3, 2))
        grad_seq = [rng.normal(size=(3, 2)) for _ in range(25)]
        want = reference_adam(x0, grad_seq, lr=0.05, weight_decay=0.01)

        tape = nc.GradientTape()
        p = tape.parameter("p", x0)
        state = nc.AdamState(lr=0.05, weight_decay=0.01)
        for step, g in enumerate(grad_seq):
            nc.adam_step(state, tape.params, {"p": g})
            assert_allclose(p.data, want[step], rtol=1e-12, atol=1e-15)

    def test_first_step_is_signed_lr(self):
        """With bias correction the first update is lr * g/(|g|+eps)."""
        tape = nc.GradientTape()
        p = tape.parameter("p", np.array([5.0]))
        nc.adam_step(nc.AdamState(lr=0.25), tape.params,
                     {"p": np.array([3.0])})
        assert_allclose(p.data, [4.75], atol=1e-8)

    def test_zero_gradient_is_noop_without_decay(self):
        tape = nc.GradientTape()
        p = tape.parameter("p", np.array([1.0, -2.0]))
        nc.adam_step(nc.AdamState(lr=0.1), tape.params, {"p": np.zeros(2)})
        assert_allclose(p.data, [1.0, -2.0])

    def test_decay_shrinks_even_with_zero_gradient(self):
        tape = nc.GradientTape()
        p = tape.parameter("p", np.array([10.0]))
        nc.adam_step(nc.AdamState(lr=0.1, weight_decay=0.5), tape.params,
                     {"p": np.zeros(1)})
        assert_allclose(p.data, [9.5])

    def test_converges_on_quadratic(self):
        tape = nc.GradientTape()
        p = tape.parameter("p", np.zeros(()))
        state = nc.AdamState(lr=0.1)
        for _ in range(200):
            loss = nc.tsum(nc.mul(nc.add(p, nc.Tensor(-3.0)),
                                  nc.add(p, nc.Tensor(-3.0))))
            nc.adam_step(state, tape.params, nc.backward(tape, loss))
        assert abs(p.data - 3.0) < 0.05

    def test_nonfinite_gradient_aborts(self):
        tape = nc.GradientTape()
        tape.parameter("p", np.ones(2))
        with pytest.raises(TrainingAborted, match="p"):
            nc.adam_step(nc.AdamState(lr=0.1), tape.params,
                         {"p": np.array([1.0, np.nan])})

    def test_missing_gradient_rejected(self):
        tape = nc.GradientTape()
        tape.parameter("p", np.ones(2))
        with pytest.raises(ContractError):
            nc.adam_step(nc.AdamState(lr=0.1), tape.params, {})


class TestTape:
    def test_duplicate_name_rejected(self):
        tape = nc.GradientTape()
        tape.parameter("w", np.ones(2))
        with pytest.raises(ContractError):
            tape.parameter("w", np.ones(2))

    def test_parameter_holds_its_own_copy(self):
        arr = np.ones((2, 2))
        tape = nc.GradientTape()
        w = tape.parameter("w", arr)
        assert not np.shares_memory(w.data, arr)
        nc.adam_step(nc.AdamState(lr=0.1), tape.params,
                     {"w": np.ones((2, 2))})
        assert np.array_equal(arr, np.ones((2, 2)))
        assert_allclose(w.data, np.full((2, 2), 0.9))

    def test_item_requires_single_element(self):
        with pytest.raises(ContractError):
            nc.Tensor(np.ones(3)).item()


class TestNumericGradientUtils:
    def test_numeric_gradient_on_quadratic(self):
        g = numeric_gradient(lambda x: float((x ** 2).sum()),
                             np.array([1.0, -2.0, 0.5]))
        assert_allclose(g, [2.0, -4.0, 1.0], atol=1e-8)

    def test_relative_error_scales(self):
        a = np.array([1000.0, 0.0])
        assert relative_error(a, a) == 0.0
        assert relative_error(np.array([1.0]), np.array([1.0 + 1e-5])) < 2e-5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_softmax_row_sums_property(values):
    s = nc.softmax_rows(nc.Tensor(np.array([values]))).data
    assert abs(s.sum() - 1.0) < 1e-9

