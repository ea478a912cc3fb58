"""Finite-difference harness: the metric, the probe loop, the stage table."""

import numpy as np
import pytest

from regioncl import stagechecks
from regioncl.gradcheck import (check_tape_gradients, numeric_gradient,
                                relative_error, run_gradcheck)
from regioncl.numcore import Tensor
from regioncl import numcore as nc


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
        arrays = {"w": np.array([[0.3, -0.7], [1.2, 0.4]]),
                  "b": np.array([[0.1, -0.2]])}

        def build_loss(tape):
            y = nc.add(nc.matmul(tape["w"], nc.transpose(tape["w"])),
                       nc.matmul(nc.transpose(tape["b"]), tape["b"]))
            return nc.tsum(nc.softplus(y))

        assert check_tape_gradients(build_loss, arrays) < 1e-8

    def test_inconsistent_loss_is_caught(self):
        # a non-deterministic build_loss violates the probe contract; the
        # harness must report a large error rather than silently pass
        arrays = {"x": np.array([1.0, 2.0, 3.0])}
        calls = [0]

        def build_loss(tape):
            calls[0] += 1
            scale = 1.0 if calls[0] == 1 else 2.0
            return nc.tsum(nc.scale(nc.mul(tape["x"], tape["x"]), scale))

        assert check_tape_gradients(build_loss, arrays) > 0.1


class TestStageTable:
    def test_expected_stages_present(self):
        assert list(stagechecks.STAGES) == [
            "attention", "hgnn_encoder", "vgae_encode",
            "reconstruction_loss", "info_nce", "info_bn", "overall_loss"]

    def test_builders_deterministic_given_rng(self):
        for name, builder in stagechecks.STAGES.items():
            _, a = builder(np.random.default_rng(5))
            _, b = builder(np.random.default_rng(5))
            assert set(a) == set(b), name
            for key in a:
                assert np.array_equal(a[key], b[key]), (name, key)

    def test_build_loss_returns_scalar(self):
        from regioncl.numcore import GradientTape
        for name, builder in stagechecks.STAGES.items():
            build_loss, arrays = builder(np.random.default_rng(2))
            tape = GradientTape()
            for key, arr in arrays.items():
                tape.parameter(key, arr.copy())
            out = build_loss(tape)
            assert isinstance(out, Tensor), name
            assert out.data.shape == (), name


class TestRunGradcheck:
    def test_all_stages_pass_at_few_points(self):
        report = run_gradcheck(n_points=3, seed=1)
        assert report.passed, "\n".join(report.lines())
        assert len(report.stages) == 7
        assert all(s.points == 3 for s in report.stages)

    def test_lines_carry_status(self):
        report = run_gradcheck(n_points=1, seed=4)
        lines = report.lines()
        assert len(lines) == 7
        for line, name in zip(lines, stagechecks.STAGES):
            assert line.startswith(name)
            assert line.endswith("ok") or line.endswith("FAIL")
