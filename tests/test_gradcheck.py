"""Finite-difference harness: the metric, the probe loop, the stage table."""

import numpy as np
import pytest

from regioncl import stagechecks
from regioncl.gradcheck import (DEFAULT_TOLERANCE, check_tape_gradients,
                                numeric_gradient, relative_error,
                                run_gradcheck)
from regioncl.numcore import Tensor
from regioncl import numcore as nc
from regioncl.view_generator import init_vgae


class TestNumericGradient:
    def test_exact_on_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        g = numeric_gradient(lambda a: float(np.sum(a * a)), x)
        assert np.allclose(g, 2.0 * x, atol=1e-9)

    def test_matches_cos_on_sin(self):
        x = np.array([[0.3, -1.1], [2.0, 0.0]])
        g = numeric_gradient(lambda a: float(np.sum(np.sin(a))), x)
        assert np.allclose(g, np.cos(x), atol=1e-9)

    def test_input_left_unmodified(self):
        x = np.array([1.0, 2.0])
        keep = x.copy()
        numeric_gradient(lambda a: float(np.sum(a)), x)
        assert np.array_equal(x, keep)

    def test_non_contiguous_input(self):
        x = np.arange(6.0).reshape(2, 3).T
        g = numeric_gradient(lambda a: float(np.sum(a * a)), x)
        assert np.allclose(g, 2.0 * x, atol=1e-9)


class TestRelativeError:
    def test_zero_for_equal(self):
        g = np.array([1.0, 2.0])
        assert relative_error(g, g) == 0.0

    def test_scaled_by_magnitude(self):
        g = np.array([100.0])
        assert relative_error(g, np.array([101.0])) == pytest.approx(1 / 101)

    def test_small_gradients_use_unit_denominator(self):
        a = np.array([1e-8])
        b = np.array([3e-8])
        assert relative_error(a, b) == pytest.approx(2e-8)

    def test_flags_percent_level_disagreement(self):
        g = np.array([0.5, -2.0, 1.5])
        assert relative_error(g * 1.01, g) > 1e-4


class TestCheckTapeGradients:
    def test_clean_composite_passes(self):
        tape = nc.GradientTape()
        w = tape.parameter("w", np.array([[0.3, -0.7], [1.2, 0.4]]))
        b = tape.parameter("b", np.array([[0.1, -0.2]]))

        def loss_fn():
            y = nc.add(nc.matmul(w, nc.transpose(w)),
                       nc.matmul(nc.transpose(b), b))
            return nc.tsum(nc.softplus(y))

        assert check_tape_gradients(loss_fn, tape) < 1e-8

    def test_inconsistent_loss_is_caught(self):
        # a non-deterministic loss_fn violates the probe contract; the
        # harness must report a large error rather than silently pass
        tape = nc.GradientTape()
        x = tape.parameter("x", np.array([1.0, 2.0, 3.0]))
        calls = [0]

        def loss_fn():
            calls[0] += 1
            scale = 1.0 if calls[0] == 1 else 2.0
            return nc.tsum(nc.scale(nc.mul(x, x), scale))

        assert check_tape_gradients(loss_fn, tape) > 0.1

    def test_parameters_left_bit_identical(self):
        # (x + h) - h rounds back to x unless |x| is well below h, so half
        # of the scalars are made tiny to catch a restore by arithmetic
        for name, builder in stagechecks.STAGES.items():
            loss_fn, tape = builder(np.random.default_rng(3))
            for t in tape.params.values():
                t.data.reshape(-1)[::2] *= 1e-7
            before = {k: t.data.copy() for k, t in tape.params.items()}
            check_tape_gradients(loss_fn, tape)
            for k, t in tape.params.items():
                assert np.array_equal(t.data, before[k]), (name, k)


class TestStageTable:
    def test_expected_stages_present(self):
        assert list(stagechecks.STAGES) == [
            "attention", "hgnn_encoder", "vgae_encode",
            "reconstruction_loss", "info_nce", "info_bn", "overall_loss"]

    def test_builders_deterministic_given_rng(self):
        for name, builder in stagechecks.STAGES.items():
            loss_a, a = builder(np.random.default_rng(5))
            loss_b, b = builder(np.random.default_rng(5))
            assert list(a.params) == list(b.params), name
            for key in a.params:
                assert np.array_equal(a[key].data, b[key].data), (name, key)
            assert loss_a().item() == loss_b().item(), name

    @staticmethod
    def _reached(builder, seed, points):
        """Parameter name -> whether any of the points gives it a nonzero
        analytic gradient, the points drawn as ``run_gradcheck`` draws them."""
        rng = np.random.default_rng(seed)
        reached = {}
        for _ in range(points):
            loss_fn, tape = builder(rng)
            for key, g in nc.backward(tape, loss_fn()).items():
                reached[key] = reached.get(key, False) or bool(np.any(g != 0))
        return reached

    def test_loss_reaches_every_live_parameter(self):
        # a loss_fn that closes over copies of its parameters would give zero
        # analytic and zero numeric gradients, which agree; a relu layer of
        # these tiny stages can be dead at one point, so a parameter counts
        # as reached if any of three points gives it a gradient
        for name, builder in stagechecks.STAGES.items():
            reached = self._reached(builder, seed=7, points=3)
            assert all(reached.values()), (name, sorted(
                k for k, hit in reached.items() if not hit))

    @pytest.mark.parametrize("stage", list(stagechecks.STAGES))
    def test_criterion_points_reach_the_spmm_backward(self, stage):
        """At criterion 1's 20 points (seed 0) each registered parameter of
        every stage is checked against a nonzero gradient at least once, not
        only as 0 against 0; an encoder's weights below its last layer get
        theirs through spmm's backward."""
        reached = self._reached(stagechecks.STAGES[stage], seed=0, points=20)
        assert all(reached.values()), sorted(k for k, v in reached.items()
                                             if not v)

    @pytest.mark.parametrize("read", [("mean", "std"), ("score",)])
    def test_vgae_stages_draw_as_init_vgae(self, read):
        """The unread MLPs are drawn, not skipped, so each registered one
        holds init_vgae's values and the stream ends where init_vgae's
        does."""
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        tape, ref = nc.GradientTape(), nc.GradientTape()
        stagechecks._vgae(tape, 4, rng, read)
        init_vgae(ref, "vg", 4, ref_rng)
        assert list(tape.params) == [k for k in ref.params
                                     if k.split(".")[1] in read]
        for key, t in tape.params.items():
            assert np.array_equal(t.data, ref[key].data), key
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)

    def test_loss_fn_returns_scalar(self):
        for name, builder in stagechecks.STAGES.items():
            loss_fn, tape = builder(np.random.default_rng(2))
            out = loss_fn()
            assert isinstance(out, Tensor), name
            assert out.data.shape == (), name


class TestRunGradcheck:
    def test_all_stages_pass_at_few_points(self):
        report = run_gradcheck(n_points=3, seed=1)
        assert report.passed, "\n".join(report.lines())
        assert len(report.stages) == 7
        assert all(s.points == 3 for s in report.stages)

    def test_overall_loss_passes_at_seed_1(self):
        """At seed 1's points 3, 12 and 17 the POI MLP's hidden layer is all
        dead; with a zero output bias every region's projection was exactly
        0, where normalize_rows has no derivative, and the check failed on
        correct gradients."""
        rng = np.random.default_rng(1)
        worst = max(check_tape_gradients(*stagechecks.stage_overall(rng))
                    for _ in range(20))
        assert worst < DEFAULT_TOLERANCE

    def test_lines_carry_status(self):
        report = run_gradcheck(n_points=1, seed=4)
        lines = report.lines()
        assert len(lines) == 7
        for line, name in zip(lines, stagechecks.STAGES):
            assert line.startswith(name)
            assert line.endswith("ok") or line.endswith("FAIL")
