"""Finite-difference verification of the reverse-mode gradients.

Central differences with step h=1e-5 against the analytic gradients from
``backward``. The error metric is the max-norm of the difference scaled by
max(1, max-norm of either gradient), so it is meaningful for both tiny and
large gradients.

A check takes a loss closure and the tape of the parameters it closes over:
``check_tape_gradients(loss_fn, tape)`` differentiates ``loss_fn()`` once,
then perturbs each parameter scalar where it lives, re-runs ``loss_fn()``
under ``numcore.no_grad()`` and restores the scalar exactly. The full harness
re-checks every differentiated stage of the model at several random points;
it backs the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numcore import GradientTape, backward, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def numeric_gradient(f, x: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    Each scalar of ``x`` is perturbed in place, through ``x.flat`` so that any
    memory layout works, and restored to its exact original value.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.shape)
    for k in range(x.size):
        orig = x.flat[k]
        x.flat[k] = orig + h
        fp = f(x)
        x.flat[k] = orig - h
        fm = f(x)
        x.flat[k] = orig
        g.flat[k] = (fp - fm) / (2.0 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.max(np.abs(analytic - numeric)) if analytic.size else 0.0
    denom = max(1.0,
                np.max(np.abs(analytic)) if analytic.size else 0.0,
                np.max(np.abs(numeric)) if numeric.size else 0.0)
    return float(diff / denom)


def check_tape_gradients(loss_fn, tape: GradientTape,
                         h: float = DEFAULT_STEP) -> float:
    """Worst relative error across all parameters of one loss.

    ``loss_fn()`` must return a scalar Tensor computed from the parameters
    on ``tape``, and nothing else that changes between calls: it is re-run
    for every finite-difference probe. Every parameter is left bit-identical.
    """
    analytic = backward(tape, loss_fn())

    def loss_value(_):
        with no_grad():
            return loss_fn().item()

    return max((relative_error(analytic[name],
                               numeric_gradient(loss_value, p.data, h=h))
                for name, p in tape.params.items()), default=0.0)


@dataclass
class StageReport:
    """One gradient-checked model stage: worst error over its random points."""
    stage: str
    points: int
    max_rel_error: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


@dataclass
class GradCheckReport:
    stages: list[StageReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)

    def lines(self) -> list[str]:
        out = []
        for s in self.stages:
            status = "ok" if s.passed else "FAIL"
            out.append(f"{s.stage:24s} points={s.points:3d} "
                       f"max_rel_err={s.max_rel_error:.3e}  {status}")
        return out


def run_gradcheck(n_points: int = 20, seed: int = 0,
                  tolerance: float = DEFAULT_TOLERANCE) -> GradCheckReport:
    """Gradient-check every differentiated stage of the model.

    Stages run at reduced width so the finite-difference loop stays fast; the
    gradient code is dimension-independent. Each stage draws ``n_points``
    random parameter settings and reports the worst relative error seen.
    """
    from . import stagechecks

    report = GradCheckReport()
    for stage_name, builder in stagechecks.STAGES.items():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_points):
            worst = max(worst, check_tape_gradients(*builder(rng)))
        report.stages.append(StageReport(stage=stage_name, points=n_points,
                                         max_rel_error=worst,
                                         tolerance=tolerance))
    return report
