"""Session fixtures and result reporting for the acceptance gate.

Everything downstream of a seed is deterministic, so the expensive model
builds behind the convergence and ablation criteria run once per session
and are shared between tests. Criterion verdicts are queued through
record_criterion and echoed in the terminal summary, where pytest's
output capture cannot swallow them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from regioncl.eval_harness import density_table, run_arms
from regioncl.poi_embedding import SkipgramConfig, train_skipgram
from regioncl.region_data import SynthConfig, synth_dataset
from regioncl.trainer import TrainConfig, train
from regioncl.view_generator import ViewGenConfig

ACCEPT_SEEDS = (0, 1, 2, 3, 4)

# Clean 3-cluster city for the convergence criterion; the noisy 6-cluster
# variant (30% of trips rewired at random) for the augmentation-value and
# robustness criteria. Chosen so the learned views have noise to prune.
CLEAN_SYNTH = SynthConfig(n_regions=60, n_categories=12, n_slots=4,
                          n_trips=4000, noise_rate=0.0, n_clusters=3, seed=0)
NOISY_SYNTH = SynthConfig(n_regions=60, n_categories=12, n_slots=4,
                          n_trips=2000, noise_rate=0.3, n_clusters=6, seed=0)

ABLATION_VARIANTS = ("FULL", "RANDOM_AUG", "NO_INFOMIN")


def edge_rows(pairs) -> np.ndarray:
    """A collection of (u, v) pairs as the (E, 2) int64 array the library
    takes, rows in sorted order and each pair oriented as given."""
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def assert_edges(got, want_pairs) -> None:
    """``got`` is the canonical int64 (E, 2) array of the (u, v), u < v,
    pairs in ``want_pairs``: every row unique, rows sorted."""
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == (len(want_pairs), 2)
    assert got.tolist() == [list(p) for p in sorted(want_pairs)]


def accept_cfg(seed: int, epochs: int, variant: str = "FULL") -> TrainConfig:
    """Acceptance-run hyperparameters: a step size large enough to move the
    encoder in tens of full-batch epochs, and a permissive sparsify
    threshold so early views keep most candidates and cover every node."""
    return TrainConfig(epochs=epochs, lr=0.005, d=32, heads=2, n_layers=3,
                       skipgram=SkipgramConfig(d_sg=32, seed=11),
                       view=ViewGenConfig(eps=0.3), seed=seed,
                       variant=variant)


@pytest.fixture(scope="session")
def clean_runs():
    """Loss histories for 5 seeds on the clean fixture, plus wall time."""
    t0 = time.perf_counter()
    ds = synth_dataset(CLEAN_SYNTH)
    table = train_skipgram(ds.poi, SkipgramConfig(d_sg=32, seed=11))
    histories = {seed: train(ds, accept_cfg(seed, epochs=50),
                             table=table).history
                 for seed in ACCEPT_SEEDS}
    return histories, time.perf_counter() - t0


@pytest.fixture(scope="session")
def noisy_eval():
    """Every ablation arm on the noisy fixture, trained and probed by
    ``run_arms`` as ``regioncl ablate`` does (it sets each arm's variant
    and seed): the (variant, seed) -> probe results, and the seed-averaged
    crime metrics per density bin for each variant."""
    ds = synth_dataset(NOISY_SYNTH)
    arms = run_arms(ds, ABLATION_VARIANTS, ACCEPT_SEEDS,
                    accept_cfg(0, epochs=30))
    return {"arms": arms, "bins": density_table(ds, arms)}


_CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _CRITERION_LINES.append((number, f"criterion {number}: {verdict}  {detail}"))


def record_note(number: int, detail: str) -> None:
    _CRITERION_LINES.append((number, f"criterion {number}: note  {detail}"))


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES, key=lambda item: item[0]):
        terminalreporter.write_line(line)
