"""Tests for the tensor/autodiff substrate.

Oracles used here:
  * matmul against an explicit triple loop;
  * spmm against the dense product of the same matrix;
  * diag_cross_entropy against the composed -sum log diag softmax;
  * every op's gradient against central finite differences;
  * Adam against an independent reference implementation of the published
    update rule (bias-corrected moments, decoupled weight decay).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import numcore as nc
from regioncl.errors import ContractError, ShapeError, TrainingAborted
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
        with pytest.raises(ShapeError):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))

    def test_add_bias_row_broadcasts(self):
        x = np.arange(6.0).reshape(2, 3)
        b = np.array([[10.0, 20.0, 30.0]])
        out = nc.add(nc.Tensor(x), nc.Tensor(b)).data
        assert_allclose(out, x + b)

    def test_add_rejects_other_broadcasts(self):
        with pytest.raises(ShapeError):
            nc.add(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 1))))

    def test_relu_clamps_negatives(self):
        out = nc.relu(nc.Tensor(np.array([-2.0, 0.0, 3.0]))).data
        assert_allclose(out, [0.0, 0.0, 3.0])

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
        sum, unused rows (the last one here) stay 0, negatives wrap."""
        rng = RNG(7)
        cases = [((5, 3), rng.integers(0, 4, size=12)),
                 ((40, 8), rng.integers(0, 39, size=300)),
                 ((1, 2), np.zeros(4, dtype=np.int64)),
                 ((6, 3), np.zeros(0, dtype=np.int64)),
                 ((7,), np.array([-1, 2, 2, -7, 0, 2]))]
        for shape, idx in cases:
            g = rng.normal(size=idx.shape + shape[1:])
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
        assert csr(SYM).nnz == 4

    def test_spmm_matches_dense_product(self):
        rng = RNG(3)
        dense = rng.normal(size=(7, 7)) * (rng.random((7, 7)) < 0.4)
        dense = dense + dense.T
        dense[4] = dense[:, 4] = 0.0
        H = rng.normal(size=(7, 5))
        got = nc.spmm(csr(dense), nc.Tensor(H)).data
        assert_allclose(got, dense @ H, rtol=0, atol=1e-12)

    def test_spmm_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nc.spmm(csr(SYM), nc.Tensor(np.ones((4, 2))))

    def test_spmm_differentiates_only_the_dense_operand(self):
        tape = nc.GradientTape()
        h = tape.parameter("h", RNG(4).normal(size=(3, 2)))
        out = nc.spmm(csr(SYM), h)
        assert out.parents == (h,)
        grads = nc.backward(tape, nc.tsum(out))
        assert_allclose(grads["h"], SYM.T @ np.ones((3, 2)), atol=1e-12)

    def test_diag_cross_entropy_matches_softmax_composition(self):
        for seed in range(5):
            S = RNG(20 + seed).normal(size=(6, 6)) * 3.0
            tape = nc.GradientTape()
            a = tape.parameter("a", S)
            fused = nc.diag_cross_entropy(a, 2.0)
            g_fused = nc.backward(tape, fused)["a"]
            probs = nc.softmax_rows(nc.scale(a, 2.0))
            composed = nc.neg(nc.tsum(nc.mul(nc.log(probs),
                                             nc.Tensor(np.eye(6)))))
            g_composed = nc.backward(tape, composed)["a"]
            assert abs(fused.item() - composed.item()) < 1e-12
            assert_allclose(g_fused, g_composed, rtol=0, atol=1e-12)

    def test_diag_cross_entropy_large_logits_stay_finite(self):
        S = np.array([[800.0, -800.0], [0.0, 900.0]])
        loss = nc.diag_cross_entropy(nc.Tensor(S))
        # each row's own logit dominates its row by >= 900: loss ~ 0
        assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_diag_cross_entropy_rejects_non_square(self):
        with pytest.raises(ShapeError):
            nc.diag_cross_entropy(nc.Tensor(np.ones((2, 3))))

    def test_diag_cross_entropy_gradient_is_single_use(self):
        loss = nc.diag_cross_entropy(nc.Tensor(np.eye(3)))
        loss.vjp(np.ones(()))
        with pytest.raises(ContractError):
            loss.vjp(np.ones(()))


def _away_from_kinks(x, margin=0.05):
    """Shift values near 0 so finite differences do not straddle a kink."""
    return x + np.sign(x + 1e-12) * margin


GRAD_CASES = {
    "matmul": lambda tape, c: scalar_loss(
        nc.matmul(tape.parameter("a", c["a"]), tape.parameter("b", c["b"]))),
    "add": lambda tape, c: scalar_loss(
        nc.add(tape.parameter("a", c["a"]), tape.parameter("a2", c["a2"]))),
    "add_bias": lambda tape, c: scalar_loss(
        nc.add(tape.parameter("a", c["a"]), tape.parameter("bias", c["bias"]))),
    "mul": lambda tape, c: scalar_loss(
        nc.mul(tape.parameter("a", c["a"]), tape.parameter("a2", c["a2"]))),
    "scale": lambda tape, c: scalar_loss(nc.scale(tape.parameter("a", c["a"]), -2.5)),
    "relu": lambda tape, c: scalar_loss(
        nc.relu(tape.parameter("k", _away_from_kinks(c["a"])))),
    "softplus": lambda tape, c: scalar_loss(nc.softplus(tape.parameter("a", c["a"]))),
    "softmax_rows": lambda tape, c: scalar_loss(
        nc.softmax_rows(tape.parameter("a", c["a"]))),
    "log": lambda tape, c: scalar_loss(
        nc.log(tape.parameter("pos", np.abs(c["a"]) + 0.5))),
    "sum_all": lambda tape, c: nc.tsum(tape.parameter("a", c["a"])),
    "sum_axis0": lambda tape, c: scalar_loss(
        nc.tsum(tape.parameter("a", c["a"]), axis=0)),
    "sum_axis1": lambda tape, c: scalar_loss(
        nc.tsum(tape.parameter("a", c["a"]), axis=1)),
    "transpose": lambda tape, c: scalar_loss(nc.transpose(tape.parameter("a", c["a"]))),
    "reshape": lambda tape, c: scalar_loss(
        nc.reshape(tape.parameter("a", c["a"]), (c["a"].size,))),
    "rows": lambda tape, c: scalar_loss(
        nc.rows(tape.parameter("a", c["a"]), [1, 0, 1, 2])),
    "spmm": lambda tape, c: scalar_loss(
        nc.spmm(csr(SYM), tape.parameter("a", c["a"]))),
    "diag_cross_entropy": lambda tape, c: nc.diag_cross_entropy(
        tape.parameter("sq", c["sq"]), 2.0),
    "concat_cols": lambda tape, c: scalar_loss(
        nc.concat_cols([tape.parameter("a", c["a"]), tape.parameter("a2", c["a2"])])),
    "normalize_rows": lambda tape, c: scalar_loss(
        nc.normalize_rows(tape.parameter("a", c["a"]))),
    "chain_mlp": lambda tape, c: scalar_loss(
        nc.add(nc.matmul(nc.relu(nc.add(nc.matmul(nc.Tensor(c["x"]),
                                                  tape.parameter("w1", c["w1"])),
                                        tape.parameter("b1", c["bias"]))),
                         tape.parameter("w2", c["w2"])),
               tape.parameter("b2", c["bias"]))),
}


class TestGradients:
    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    def test_matches_finite_differences(self, name):
        """Every op's backward agrees with central differences at 3 points."""
        build = GRAD_CASES[name]
        for point in range(3):
            rng = RNG(100 + point)
            consts = {
                "a": rng.normal(size=(3, 4)),
                "a2": rng.normal(size=(3, 4)),
                "b": rng.normal(size=(4, 2)),
                "bias": rng.normal(size=(1, 4)),
                "sq": rng.normal(size=(4, 4)),
                "x": rng.normal(size=(3, 4)),
                "w1": rng.normal(size=(4, 4)),
                "w2": rng.normal(size=(4, 4)),
            }
            captured = {}

            def build_loss(tape, _build=build, _c=consts):
                cap_tape = _TapeRecorder(tape, captured)
                return _build(cap_tape, _c)

            err = check_tape_gradients(build_loss, _probe_arrays(build, consts))
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

    def test_detach_blocks_gradient(self):
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([[2.0]]))
        y = nc.mul(x.detach(), x)
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


class _TapeRecorder:
    """Pass-through that lets GRAD_CASES declare params without pre-listing."""

    def __init__(self, tape, captured):
        self._tape = tape
        self._captured = captured

    def parameter(self, name, array):
        self._captured[name] = np.asarray(array, dtype=np.float64)
        if name in self._tape:
            return self._tape[name]
        return self._tape.parameter(name, array)


def _probe_arrays(build, consts):
    """Run the builder once against a scratch tape to learn its param set."""
    captured = {}
    build(_TapeRecorder(nc.GradientTape(), captured), consts)
    return captured


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

