"""Lasso probes, metrics, ablation arms, density slicing."""

import csv
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from conftest import NOISY_SYNTH
from hypothesis import given, settings
from hypothesis import strategies as st

from regioncl.errors import ConfigError, ContractError
from regioncl.eval_harness import (DENSITY_BINS, AblationRow, EvalConfig,
                                   Metrics, ablation_rows, bin_regions,
                                   cv_folds, density_table, lasso_fit,
                                   metrics, pair_similarity, probe_all,
                                   probe_task, run_arms, task_targets,
                                   write_ablation_csv, write_robustness_csv)
from regioncl.poi_embedding import SkipgramConfig
from regioncl.region_data import SynthConfig, synth_dataset
from regioncl.trainer import TrainConfig, region_embeddings, train


def small_cfg(**overrides):
    kw = dict(epochs=2, d=8, heads=2, n_layers=2,
              skipgram=SkipgramConfig(d_sg=8, epochs=40, seed=3), seed=7)
    kw.update(overrides)
    return TrainConfig(**kw)


@pytest.fixture(scope="module")
def ds10():
    return synth_dataset(SynthConfig(n_regions=10, n_categories=6, n_slots=4,
                                     n_trips=200, n_clusters=2, seed=4))


class TestLassoFit:
    def test_negative_lambda_rejected(self):
        # lambda is checked once, where EvalConfig is built
        with pytest.raises(ConfigError, match="lam"):
            EvalConfig(lam=-0.1)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ContractError):
            lasso_fit(np.ones((1, 2)), np.ones(1), 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            lasso_fit(np.ones((4, 2)), np.ones(3), 0.0)

    def test_lambda_zero_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = X @ np.array([1.5, -2.0, 0.0, 3.0, 0.25]) \
            + 0.7 + rng.normal(scale=0.1, size=40)
        model = lasso_fit(X, y, 0.0)
        Xc = X - X.mean(axis=0)
        w_ols = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)[0]
        assert np.max(np.abs(model.weights - w_ols)) < 1e-6
        assert model.intercept == pytest.approx(
            y.mean() - X.mean(axis=0) @ w_ols, abs=1e-6)

    def test_huge_lambda_gives_intercept_only(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = lasso_fit(X, y, 1e6)
        assert np.all(model.weights == 0.0)
        assert model.intercept == pytest.approx(y.mean())
        assert np.allclose(model.predict(X), y.mean())

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.3, 2.0])
    def test_single_feature_soft_threshold_closed_form(self, lam):
        # X = [1,2,3]^T, y = 2x: centered rho = 4/3, column scale 2/3,
        # hence w(lam) = max(4/3 - lam, 0) * 3/2 and b = 4 - 2w
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = lasso_fit(X, y, lam)
        expected_w = max(4.0 / 3.0 - lam, 0.0) * 1.5
        assert model.weights[0] == pytest.approx(expected_w, abs=1e-12)
        assert model.intercept == pytest.approx(4.0 - 2.0 * expected_w,
                                                abs=1e-12)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        model = lasso_fit(X, y, 0.1)
        hist = model.objective_history
        assert len(hist) >= 1
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-12

    def test_constant_column_absorbed_by_intercept(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.full(10, 7.0), rng.normal(size=10)])
        y = 2.0 * X[:, 1] + 5.0
        model = lasso_fit(X, y, 0.0)
        assert model.weights[0] == 0.0
        assert model.weights[1] == pytest.approx(2.0, abs=1e-7)


def reference_lasso(X, y, lam, max_sweeps=10_000, tol=1e-8):
    """Per-row coordinate descent: (weights, objective, sweeps).

    Each coordinate update reads its centered column against the n-row
    residual, and sweeps stop once the largest update is below ``tol``.
    """
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    resid = y - y.mean()
    col_sq = (Xc * Xc).mean(axis=0)
    w = np.zeros(d)
    for sweep in range(1, max_sweeps + 1):
        largest = 0.0
        for j in range(d):
            if col_sq[j] <= 0.0:
                continue
            rho = (Xc[:, j] @ resid) / n + col_sq[j] * w[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != w[j]:
                resid += Xc[:, j] * (w[j] - new)
                largest = max(largest, abs(new - w[j]))
                w[j] = new
        if largest < tol:
            break
    return w, float(resid @ resid / (2 * n) + lam * np.abs(w).sum()), sweep


def lasso_design(kind, seed):
    """Correlated columns (one shared factor) with a sparse true signal."""
    rng = np.random.default_rng(seed)
    n, d = {"correlated": (160, 32), "wide": (20, 32),
            "constant": (40, 8)}[kind]
    X = rng.normal(size=(n, d)) + 1.5 * rng.normal(size=(n, 1))
    if kind == "constant":
        # 40 rows of 0.1 sum to a mean that is not exactly 0.1
        X[:, 3] = 0.1
    beta = rng.normal(size=d) * (rng.random(d) < 0.5)
    return X, X @ beta + 0.5 * rng.normal(size=n) + 3.0


def kkt_violation(X, y, w, lam):
    """Largest breach of q_j = lam*sign(w_j) on the support and |q_j| <= lam
    off it, with q = Xc'(yc - Xc w)/n, over non-constant columns."""
    Xc = X - X.mean(axis=0)
    q = Xc.T @ (y - y.mean() - Xc @ w) / X.shape[0]
    on = w != 0.0
    varying = np.ptp(X, axis=0) > 0.0
    return max(np.abs(q[on] - lam * np.sign(w[on])).max(initial=0.0),
               (np.abs(q[~on & varying]) - lam).max(initial=0.0))


def degenerate_design(kind):
    """(X, y, reference sweep budget) for columns not in general position.

    "counts" is the noisy fixture's raw mobility block: the 48 training
    rows of the first fold, each region's trip counts to and from every
    (region, slot) node (480 columns, 29 constant and 37 repeats), against
    house price. The reference needs 480 column updates a sweep and, at lam > 0,
    does not converge within 10,000 sweeps, so it gets a small budget.
    """
    if kind == "counts":
        ds = synth_dataset(NOISY_SYNTH)
        I, T = ds.n_regions, ds.T
        src, dst, t0, t1 = ds.trajectories.T
        rows = np.zeros((I, 2, I * T))
        np.add.at(rows, (src, 0, dst * T + t1), 1.0)
        np.add.at(rows, (dst, 1, src * T + t0), 1.0)
        rest = np.setdiff1d(np.arange(I), cv_folds(I, 5, 1234)[0])
        y = task_targets(ds)["house_price"]
        return rows.reshape(I, -1)[rest], y[rest], 100
    if kind == "binary":
        rng = np.random.default_rng(0)
        X = (rng.random(size=(40, 16)) < 0.3).astype(np.float64)
        return X, X @ rng.normal(size=16) + 0.3 * rng.normal(size=40), 10_000
    X, y = lasso_design("correlated", 0)
    extra = X[:, :4] if kind == "duplicated" else X[:, :1] + X[:, 1:2]
    return np.hstack([X, extra]), y, 10_000


class TestLassoSolver:
    CASES = [("correlated", 0), ("correlated", 1), ("wide", 2),
             ("constant", 3)]

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("kind,seed", CASES)
    def test_matches_reference_and_satisfies_kkt(self, kind, seed, lam):
        X, y = lasso_design(kind, seed)
        model = lasso_fit(X, y, lam)
        w_ref, f_ref, _ = reference_lasso(X, y, lam)
        f = model.objective_history[-1]
        w = model.weights
        resid = y - model.predict(X)
        assert f == pytest.approx(
            float(resid @ resid) / (2 * len(y)) + lam * np.abs(w).sum(),
            rel=1e-12)
        if kind == "wide" and lam == 0.0:
            # n < d without a penalty: every interpolant is a minimizer and
            # the minimum is 0, so compare against the null objective and
            # hold KKT to the coordinate-descent stop
            null = float(np.var(y)) / 2
            assert abs(f - f_ref) <= 1e-9 * null and f <= 1e-9 * null
            assert kkt_violation(X, y, w, lam) < 1e-6
        else:
            assert f == pytest.approx(f_ref, rel=1e-9)
            assert kkt_violation(X, y, w, lam) <= 1e-9
        if kind == "constant":
            assert w[3] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("kind", ["counts", "duplicated", "summed",
                                      "binary"])
    def test_degenerate_designs_reach_the_minimum(self, kind, lam):
        X, y, budget = degenerate_design(kind)
        model = lasso_fit(X, y, lam)
        assert kkt_violation(X, y, model.weights, lam) <= 1e-9
        assert len(model.objective_history) < 10_000
        _, f_ref, sweeps = reference_lasso(X, y, lam, max_sweeps=budget)
        if sweeps < budget:
            null = float(np.var(y)) / 2
            assert abs(model.objective_history[-1] - f_ref) <= 1e-9 * null

    def test_path_steps_fewer_than_reference_sweeps(self):
        X, y = lasso_design("correlated", 0)
        model = lasso_fit(X, y, 0.01)
        assert len(model.objective_history) \
            < reference_lasso(X, y, 0.01)[2]

    def test_max_sweeps_caps_history(self):
        X, y = lasso_design("correlated", 0)
        full = lasso_fit(X, y, 0.01).objective_history
        assert len(full) > 3
        capped = lasso_fit(X, y, 0.01, max_sweeps=3).objective_history
        assert capped == full[:3]


class TestMetrics:
    def test_perfect_prediction_is_zero(self):
        m = metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert (m.mae, m.mape, m.rmse) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        truth = np.array([1.0, 3.0, 10.0])
        m = metrics(truth + 1.0, truth)
        assert m.mae == pytest.approx(1.0)
        assert m.rmse == pytest.approx(1.0)

    def test_guarded_mape_fixture(self):
        # diffs [1,2,2]; guards max(|truth|,1) = [1,4,2] -> terms [1,.5,1]
        m = metrics(np.array([1.0, 2.0, 0.0]), np.array([0.0, 4.0, 2.0]))
        assert m.mae == pytest.approx(5.0 / 3.0)
        assert m.mape == pytest.approx(2.5 / 3.0)
        assert m.rmse == pytest.approx(np.sqrt(3.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            metrics(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            metrics(np.ones(0), np.ones(0))

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rmse_at_least_mae(self, pairs):
        pred = np.array([p for p, _ in pairs])
        truth = np.array([t for _, t in pairs])
        m = metrics(pred, truth)
        assert m.rmse >= m.mae - 1e-9
        assert m.mae >= 0.0 and m.mape >= 0.0


class TestCvFolds:
    def test_partition_properties(self):
        folds = cv_folds(23, 5, seed=9)
        assert len(folds) == 5
        joined = np.concatenate(folds)
        assert sorted(joined) == list(range(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = cv_folds(17, 4, seed=2)
        b = cv_folds(17, 4, seed=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_k_clamped_to_n(self):
        folds = cv_folds(3, 10, seed=0)
        assert len(folds) == 3


class TestProbe:
    def test_recovers_exact_linear_signal(self):
        rng = np.random.default_rng(5)
        E = rng.normal(size=(20, 4))
        y = E @ np.array([2.0, -1.0, 0.5, 3.0]) + 4.0
        pred, m = probe_task(E, y, EvalConfig(lam=0.0))
        assert m.mae < 1e-5
        assert np.max(np.abs(pred - y)) < 1e-4

    def test_task_targets_sums_slots(self, ds10):
        targets = task_targets(ds10)
        assert np.array_equal(targets["crime"],
                              ds10.targets["crime"].sum(axis=1))
        assert np.array_equal(targets["house_price"],
                              ds10.targets["house_price"])

    def test_probe_all_covers_every_task(self, ds10):
        E = np.random.default_rng(0).normal(size=(ds10.n_regions, 6))
        out = probe_all(E, ds10, EvalConfig())
        assert set(out) == set(ds10.targets)


class TestEvalConfig:
    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(lam=-0.5)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ConfigError):
            EvalConfig(folds=1)


def probe_metrics(probes: dict) -> dict:
    return {task: m for task, (_, m) in probes.items()}


class TestAblation:
    def test_full_is_bit_identical_to_plain_pipeline(self, ds10):
        cfg = small_cfg()
        eval_cfg = EvalConfig()
        arms = run_arms(ds10, ("FULL",), (cfg.seed,), cfg, eval_cfg)
        model = train(ds10, cfg)
        plain = probe_all(region_embeddings(model), ds10, eval_cfg)
        assert list(arms) == [("FULL", cfg.seed)]
        via_arms = arms["FULL", cfg.seed]
        assert probe_metrics(via_arms) == probe_metrics(plain)
        for task, (pred, _) in plain.items():
            assert np.array_equal(via_arms[task][0], pred), task

    def test_unknown_variant_rejected(self, ds10):
        with pytest.raises(ConfigError):
            run_arms(ds10, ("HALF",), (0,), small_cfg())

    @pytest.mark.parametrize("variants,seeds", [(("FULL", "FULL"), (0,)),
                                                (("FULL",), (1, 0, 1))])
    def test_arm_named_twice_rejected(self, ds10, variants, seeds):
        # arms are keyed by (variant, seed), so a repeat would be dropped
        with pytest.raises(ConfigError, match="named twice"):
            run_arms(ds10, variants, seeds, small_cfg())

    def test_no_gp_is_noop_when_poi_graph_empty(self, ds10):
        # cosine never exceeds 1, so this threshold empties the POI view
        cfg = small_cfg(eps_p=1.5)
        arms = run_arms(ds10, ("FULL", "NO_GP"), (cfg.seed,), cfg)
        assert probe_metrics(arms["FULL", cfg.seed]) \
            == probe_metrics(arms["NO_GP", cfg.seed])

    def test_run_arms_rows_complete_and_sorted(self, ds10):
        rows = ablation_rows(run_arms(ds10, ("RANDOM_AUG", "FULL"), (1, 0),
                                      small_cfg()))
        tasks = sorted(ds10.targets)
        assert len(rows) == 2 * 2 * len(tasks)
        keys = [(r.variant, r.task, r.seed) for r in rows]
        assert keys == sorted(keys)
        assert all(np.isfinite((r.mae, r.mape, r.rmse)).all() for r in rows)


class TestDensityBins:
    def test_boundaries(self):
        density = np.array([0.0, 0.2, 0.25, 0.26, 0.5, 0.7, 1.0])
        bins = bin_regions(density)
        assert list(bins["(0.00,0.25]"]) == [1, 2]
        assert list(bins["(0.25,0.50]"]) == [3, 4]
        assert list(bins["(0.50,1.00]"]) == [5, 6]

    def test_one_region_per_low_bin(self):
        bins = bin_regions(np.array([0.2, 0.4]))
        assert list(bins["(0.00,0.25]"]) == [0]
        assert list(bins["(0.25,0.50]"]) == [1]
        assert "(0.50,1.00]" not in bins

    def test_all_zero_densities_give_no_bins(self):
        assert bin_regions(np.zeros(5)) == {}


def seed_mean(scores) -> Metrics:
    """Field-wise mean of per-seed Metrics."""
    return Metrics(*np.mean([astuple(m) for m in scores], axis=0).tolist())


def density_oracle(ds, arms) -> dict:
    """``density_table`` by hand: each region's share of slots with any
    crime counted in a loop, binned by comparison, and each bin's crime
    metrics averaged over the variant's seeds."""
    y = ds.targets["crime"].sum(axis=1)
    share = [sum(1 for v in row if v != 0) / len(row)
             for row in ds.targets["crime"].tolist()]
    preds = {}
    for (variant, _), probes in arms.items():
        preds.setdefault(variant, []).append(probes["crime"][0])
    out = {variant: {} for variant in preds}
    for variant, seed_preds in preds.items():
        for label, lo, hi in DENSITY_BINS:
            members = [i for i, d in enumerate(share) if lo < d <= hi]
            if members:
                out[variant][label] = seed_mean(
                    metrics(p[members], y[members]) for p in seed_preds)
    return out


def random_arms(ds, variants=("FULL", "RANDOM_AUG"), seeds=(0, 1)) -> dict:
    """A hand-built ``run_arms`` result holding random crime predictions,
    so the density table is checked without training."""
    rng = np.random.default_rng(5)
    return {(v, s): {"crime": (rng.normal(scale=5.0, size=ds.n_regions),
                               None)}
            for v in variants for s in seeds}


class TestRobustness:
    @pytest.fixture()
    def handcrafted(self, ds10):
        # densities by row: 0, 1/4, 2/4, 3/4, 1, then zeros
        crime = np.zeros_like(ds10.targets["crime"])
        for region in range(1, 5):
            crime[region, :region] = region + 1.0
        ds10.targets["crime"][:] = crime
        yield ds10
        # module-scoped dataset: restore is not needed, later tests use sums

    def test_matches_filter_then_metrics_oracle(self, handcrafted):
        ds = handcrafted
        y = ds.targets["crime"].sum(axis=1)
        arms = random_arms(ds)
        bins = {"(0.00,0.25]": [1], "(0.25,0.50]": [2],
                "(0.50,1.00]": [3, 4]}
        table = density_table(ds, arms)
        assert sorted(table) == ["FULL", "RANDOM_AUG"]
        for variant, per_bin in table.items():
            assert list(per_bin) == list(bins)
            for label, members in bins.items():
                assert per_bin[label] == seed_mean(
                    metrics(arms[variant, s]["crime"][0][members], y[members])
                    for s in (0, 1))

    def test_zero_density_regions_excluded(self, handcrafted):
        ds = handcrafted
        pred = ds.targets["crime"].sum(axis=1)
        # wrong only for the regions whose slots saw no crime
        pred[[0, 5, 6, 7, 8, 9]] += 100.0
        table = density_table(ds, {("FULL", 0): {"crime": (pred, None)}})
        assert len(table["FULL"]) == 3
        assert all(m == Metrics(0.0, 0.0, 0.0)
                   for m in table["FULL"].values())

    def test_end_to_end_on_synthetic(self):
        ds = synth_dataset(SynthConfig(n_regions=12, n_categories=6,
                                       n_slots=4, n_trips=300, n_clusters=3,
                                       seed=6))
        arms = random_arms(ds)
        table = density_table(ds, arms)
        assert sorted(table) == ["FULL", "RANDOM_AUG"]
        for per_bin in table.values():
            assert per_bin, "synthetic crime data should populate some bin"
        assert table == density_oracle(ds, arms)


class TestPairSimilarity:
    def test_self_pair_is_one(self):
        E = np.random.default_rng(0).normal(size=(4, 3))
        assert pair_similarity(E, [(2, 2)])[0] == pytest.approx(1.0)
        # unclipped, rounding puts 53 of these 200 cosines just above 1
        E = np.random.default_rng(0).normal(size=(200, 8))
        cos = pair_similarity(E, [(i, i) for i in range(200)])
        assert cos.max() <= 1.0
        assert cos == pytest.approx(np.ones(200))

    def test_orthogonal_pair_is_zero(self):
        E = np.array([[1.0, 0.0], [0.0, 5.0]])
        assert pair_similarity(E, [(0, 1)])[0] == pytest.approx(0.0)

    def test_zero_row_compares_as_zero(self):
        E = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert pair_similarity(E, [(0, 1)])[0] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            pair_similarity(np.ones((3, 2)), [(0, 3)])

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(1)
        E = rng.normal(size=(7, 5))
        E[4] = 0.0
        pairs = [(i, j) for i in range(7) for j in range(7)]
        expected = []
        for i, j in pairs:
            na, nb = np.linalg.norm(E[i]), np.linalg.norm(E[j])
            expected.append(E[i] @ E[j] / (na * nb)
                            if na > 0 and nb > 0 else 0.0)
        got = pair_similarity(E, pairs)
        assert got.shape == (len(pairs),)
        assert np.max(np.abs(got - np.array(expected))) < 1e-12
        assert np.all(got[[k for k, p in enumerate(pairs) if 4 in p]] == 0.0)

    def test_out_of_range_anywhere_rejected(self):
        E = np.ones((3, 2))
        for bad in ([(0, 1), (2, 3)], [(-1, 0)], [(1, 1), (5, 0)]):
            with pytest.raises(ContractError, match="out of range"):
                pair_similarity(E, bad)

    def test_non_integer_pairs_rejected(self):
        with pytest.raises(ContractError, match="integers"):
            pair_similarity(np.ones((3, 2)), [(0, 1.5)])

    def test_no_pairs(self):
        assert pair_similarity(np.ones((3, 2)), []).shape == (0,)


class TestCsv:
    def test_ablation_csv_layout(self, tmp_path):
        rows = [AblationRow("FULL", "crime", 0, 1.0, 0.5, 2.0),
                AblationRow("NO_GP", "crime", 1, 1.5, 0.25, 2.5)]
        path = str(tmp_path / "ablation.csv")
        write_ablation_csv(rows, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "variant,task,seed,mae,mape,rmse"
        assert lines[1] == "FULL,crime,0,1.0,0.5,2.0"
        assert len(lines) == 3

    def test_robustness_csv_ordered_by_bin(self, tmp_path):
        table = {"RANDOM_AUG": {"(0.00,0.25]": Metrics(5.0, 0.5, 6.0)},
                 "FULL": {"(0.50,1.00]": Metrics(3.0, 0.3, 4.0),
                          "(0.00,0.25]": Metrics(1.0, 0.1, 2.0)}}
        path = str(tmp_path / "robustness.csv")
        write_robustness_csv(table, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "variant,bin,task,mae,mape,rmse"
        assert lines[1].startswith('FULL,"(0.00,0.25]",crime,1.0,')
        assert lines[2].startswith('FULL,"(0.50,1.00]",crime,3.0,')
        assert lines[3].startswith('RANDOM_AUG,"(0.00,0.25]",crime,5.0,')
        assert len(lines) == 4

    def test_robustness_csv_reads_back_one_field_per_column(self, tmp_path):
        # every bin label holds a comma, so a reader must see it quoted
        labels = ["(0.00,0.25]", "(0.25,0.50]", "(0.50,1.00]"]
        per_bin = {label: Metrics(1.0 + k, 0.1 * k, 2.0 + k)
                   for k, label in enumerate(labels)}
        path = str(tmp_path / "robustness.csv")
        write_robustness_csv({"FULL": per_bin}, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["variant", "bin", "task", "mae", "mape",
                                     "rmse"]
        assert [len(r) for r in rows] == [6, 6, 6]
        assert [r["variant"] for r in rows] == ["FULL"] * 3
        assert [r["bin"] for r in rows] == labels
        assert [r["task"] for r in rows] == ["crime"] * 3
        assert [float(r["rmse"]) for r in rows] == [2.0, 3.0, 4.0]
