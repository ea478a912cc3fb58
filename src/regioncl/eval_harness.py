"""Linear probes, ablation arms, and robustness slicing over embeddings.

Downstream quality is measured with Lasso probes: out-of-fold predictions
from k-fold cross-validation over regions, scored with MAE / MAPE / RMSE.
Slotted targets (crime, traffic) are totaled over time slots so every task
is a per-region regression. ``run_arms`` trains and probes every
(variant, seed) arm; density robustness slices each arm's crime predictions
by how many slots saw any incident.

MAPE uses the denominator max(|truth|, 1): crime targets contain zeros and
a bare percentage error is undefined there.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .numcore import row_cosine
from .poi_embedding import train_skipgram
from .region_data import SLOT_TASKS, TARGETS_FILE, Dataset, write_csv
from .trainer import TrainConfig, region_embeddings, train

DENSITY_BINS = (("(0.00,0.25]", 0.0, 0.25),
                ("(0.25,0.50]", 0.25, 0.50),
                ("(0.50,1.00]", 0.50, 1.00))


@dataclass(frozen=True)
class EvalConfig:
    lam: float = 0.01
    folds: int = 5
    cv_seed: int = 1234

    def __post_init__(self):
        if self.lam < 0.0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {self.folds}")
        if self.cv_seed < 0:
            raise ConfigError(f"cv_seed must be >= 0, got {self.cv_seed}")


@dataclass(frozen=True)
class Metrics:
    mae: float
    mape: float
    rmse: float


@dataclass
class LassoModel:
    weights: np.ndarray
    intercept: float
    objective_history: list

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept


def lasso_fit(X: np.ndarray, y: np.ndarray, lam: float,
              max_sweeps: int = 10_000) -> LassoModel:
    """Minimize (1/2n)||y - Xw - b||^2 + lam * ||w||_1.

    The intercept is unpenalized and handled by centering. The solver is the
    lasso homotopy (LARS-lasso; Efron, Hastie, Johnstone & Tibshirani, Ann.
    Statist. 2004) on the Gram matrix G = Xc'Xc/n and c = Xc'yc/n. It
    follows the solution path down from w = 0 at level max|c|. On the
    support S the gradient q = c - Gw equals level * s for the signs s, and
    off it |q_j| <= level; each step moves the active weights along
    G_SS^-1 s while the level falls. A step ends where an inactive |q_j|
    reaches the level (j joins), an active weight reaches 0 (it leaves), or
    the level reaches ``lam``, where the weights are the exact solve
    G_SS w_S = c_S - lam * s. A column in the span of the active ones never
    joins, so G_SS stays nonsingular and at most n - 1 columns are active.
    ``objective_history`` holds the objective after each path step, and
    ``max_sweeps`` caps the number of steps. Constant columns are absorbed
    by the intercept and keep weight 0.
    """
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ContractError(f"design {X.shape} incompatible with "
                            f"targets {y.shape}")
    n, d = X.shape
    if n < 2:
        raise ContractError(f"need at least 2 rows to fit, got {n}")

    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    # a constant column is absorbed by the intercept; zeroing it keeps the
    # rounding error of its mean out of the fit
    Xc[:, np.ptp(X, axis=0) == 0.0] = 0.0
    yc = y - y_mean
    G = Xc.T @ Xc / n
    c = Xc.T @ yc / n
    diag = np.diag(G)
    sides = np.array([[1.0], [-1.0]])

    def objective(w):
        r = yc - Xc @ w
        return float(r @ r) / (2 * n) + lam * float(np.abs(w).sum())

    w = np.zeros(d)
    sign = np.zeros(d)
    level = float(np.abs(c[diag > 0.0]).max(initial=0.0))
    banned = None
    history = []
    while level > lam and len(history) < max_sweeps:
        S = np.flatnonzero(sign)
        sol = np.linalg.solve(G[np.ix_(S, S)],
                              np.column_stack([sign[S], G[S]]))
        step = sol[:, 0]
        q = c - G[:, S] @ w[S]
        # a column in the span of the active ones (no residual against
        # them) keeps |q_j| in step with the level, so it never joins; any
        # threshold from 1e-13 to 1e-7 gives the same fits on the tests
        free = (sign == 0.0) & (diag - np.einsum("ij,ij->j", G[S], sol[:, 1:])
                                > 1e-10 * diag)
        rates = 1.0 - sides * (G[:, S] @ step)
        roots = np.full((3, d), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            # rows 0 and 1: j joins where q_j reaches +level or -level
            roots[:2] = np.where(free & (rates > 0.0),
                                 np.maximum(level - sides * q, 0.0) / rates,
                                 np.inf)
            # row 2: an active weight moving against its sign reaches 0
            roots[2, S] = np.where(sign[S] * step < 0.0, -w[S] / step, np.inf)
        if banned is not None:
            # a column that has just left sits on the level on its old side
            roots[banned] = np.inf
        kind, j = divmod(int(np.argmin(roots)), d)
        gamma = roots[kind, j]
        if gamma >= level - lam:
            level = lam
            break
        w[S] += gamma * step
        level -= gamma
        banned = None
        if kind < 2:
            sign[j] = 1.0 - 2.0 * kind
        else:
            banned = (int(sign[j] < 0.0), j)
            w[j] = sign[j] = 0.0
        history.append(objective(w))
    if level <= lam:
        S = np.flatnonzero(sign)
        w_S = np.linalg.solve(G[np.ix_(S, S)], c[S] - lam * sign[S])
        w = np.zeros(d)
        # at a tie a weight that the path holds at 0 may round to either side
        w[S] = np.where(np.sign(w_S) == sign[S], w_S, 0.0)
        history.append(objective(w))
    return LassoModel(weights=w, intercept=float(y_mean - x_mean @ w),
                      objective_history=history)


def metrics(pred: np.ndarray, truth: np.ndarray) -> Metrics:
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ContractError(f"prediction shape {pred.shape} vs "
                            f"truth {truth.shape}")
    if pred.size < 1:
        raise ContractError("cannot score an empty prediction vector")
    diff = np.abs(pred - truth)
    return Metrics(mae=float(diff.mean()),
                   mape=float((diff / np.maximum(np.abs(truth), 1.0)).mean()),
                   rmse=float(np.sqrt((diff * diff).mean())))


def cv_folds(n: int, k: int, seed: int) -> list:
    """Deterministic shuffled split into k near-equal folds."""
    k = min(k, n)
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(order[i::k]) for i in range(k)]


def probe_task(E: np.ndarray, y: np.ndarray, cfg: EvalConfig):
    """Out-of-fold Lasso predictions for every region; returns (pred, Metrics)."""
    pred = np.empty_like(y)
    for fold in cv_folds(y.size, cfg.folds, cfg.cv_seed):
        rest = np.setdiff1d(np.arange(y.size), fold, assume_unique=True)
        model = lasso_fit(E[rest], y[rest], cfg.lam)
        pred[fold] = model.predict(E[fold])
    return pred, metrics(pred, y)


def task_targets(dataset: Dataset) -> dict:
    """Per-region target vector per task; slotted tasks total their slots.
    A dataset without targets has nothing to probe and is refused."""
    if not dataset.targets:
        raise DataError(f"no task targets to probe: the bundle's "
                        f"{TARGETS_FILE} is missing or empty")
    out = {}
    for task, values in dataset.targets.items():
        out[task] = values.sum(axis=1) if task in SLOT_TASKS \
            else values.copy()
    return out


def check_probe_folds(n: int, cfg: EvalConfig) -> None:
    """Refuse n regions when some fold of ``cv_folds`` would leave the
    lasso fewer than the 2 training rows it needs."""
    rest = min(n - len(fold) for fold in cv_folds(n, cfg.folds, cfg.cv_seed))
    if rest < 2:
        raise DataError(f"{n} regions are too few to probe: with "
                        f"eval.folds={cfg.folds} a fold leaves {rest} "
                        f"training rows, and the lasso needs 2")


def probe_all(E: np.ndarray, dataset: Dataset, cfg: EvalConfig) -> dict:
    return {task: probe_task(E, y, cfg)
            for task, y in sorted(task_targets(dataset).items())}


def bin_regions(density: np.ndarray) -> dict:
    """Region indices per density bin; empty bins are absent, zeros excluded."""
    out = {}
    for label, lo, hi in DENSITY_BINS:
        members = np.where((density > lo) & (density <= hi))[0]
        if members.size:
            out[label] = members
    return out


def mean_metrics(rows) -> Metrics:
    """Mean MAE, MAPE and RMSE over rows that each carry those three fields."""
    return Metrics(mae=float(np.mean([r.mae for r in rows])),
                   mape=float(np.mean([r.mape for r in rows])),
                   rmse=float(np.mean([r.rmse for r in rows])))


def pair_similarity(E: np.ndarray, pairs) -> np.ndarray:
    """Cosine per (i, j) region pair, clipped to [-1, 1]; zero rows compare
    as orthogonal."""
    E = np.asarray(E, dtype=np.float64)
    idx = np.asarray(pairs).reshape(-1, 2)
    if idx.size and idx.dtype.kind not in "iu":
        raise ContractError(f"region pairs must be integers, got {idx.dtype}")
    idx = idx.astype(np.int64)
    outside = ((idx < 0) | (idx >= E.shape[0])).any(axis=1)
    if outside.any():
        i, j = idx[outside][0]
        raise ContractError(f"region pair ({i}, {j}) out of range "
                            f"for {E.shape[0]} regions")
    # rounding can carry a self-pair's cosine just past 1
    return np.clip(row_cosine(E[idx[:, 0]], E[idx[:, 1]]), -1.0, 1.0)


# ---------------------------------------------------------------------------
# multi-arm drivers and CSV emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    variant: str
    task: str
    seed: int
    mae: float
    mape: float
    rmse: float


def run_arms(dataset: Dataset, variants, seeds, train_cfg: TrainConfig,
             eval_cfg: EvalConfig = EvalConfig()) -> dict:
    """Train every (variant, seed) arm and probe it; returns
    (variant, seed) -> ``probe_all``'s task -> (predictions, Metrics).

    The skip-gram table depends only on the POI corpus, so it is shared.
    """
    for what, names in (("variant", variants), ("seed", seeds)):
        if len(set(names)) != len(names):
            raise ConfigError(f"a {what} is named twice in {list(names)}")
    # each arm's TrainConfig checks its variant and seed before any training
    cfgs = {(v, s): replace(train_cfg, variant=v, seed=s)
            for v in variants for s in seeds}
    task_targets(dataset)  # refuses a dataset with no task to probe
    check_probe_folds(dataset.n_regions, eval_cfg)
    table = train_skipgram(dataset.poi, train_cfg.skipgram)
    arms = {}
    for arm, cfg in cfgs.items():
        model = train(dataset, cfg, table=table)
        arms[arm] = probe_all(region_embeddings(model), dataset, eval_cfg)
    return arms


def ablation_rows(arms: dict) -> list:
    """``run_arms``'s result as AblationRows sorted by variant, task, seed."""
    return sorted((AblationRow(variant, task, seed, *astuple(m))
                   for (variant, seed), probes in arms.items()
                   for task, (_, m) in probes.items()),
                  key=lambda r: (r.variant, r.task, r.seed))


def density_table(dataset: Dataset, arms: dict) -> dict:
    """variant -> crime Metrics per density bin, averaged over its seeds.

    A region's density is the share of its slots with any crime; the bins
    depend on the dataset alone, so every arm is scored on the same ones.
    """
    crime = dataset.targets["crime"]
    y = crime.sum(axis=1)
    bins = bin_regions(np.count_nonzero(crime, axis=1) / dataset.T)
    preds = {}
    for (variant, _), probes in arms.items():
        preds.setdefault(variant, []).append(probes["crime"][0])
    return {variant: {label: mean_metrics([metrics(p[members], y[members])
                                           for p in seed_preds])
                      for label, members in bins.items()}
            for variant, seed_preds in preds.items()}


def write_ablation_csv(rows, path: str) -> None:
    write_csv(path, [f.name for f in fields(AblationRow)], map(astuple, rows))


def write_robustness_csv(table: dict, path: str) -> None:
    """One row per variant and populated bin, variants sorted, bins in
    order; ``table`` is ``density_table``'s variant -> bin -> Metrics."""
    write_csv(path, ["variant", "bin", "task", "mae", "mape", "rmse"],
              ([variant, label, "crime", *astuple(per_bin[label])]
               for variant, per_bin in sorted(table.items())
               for label, _, _ in DENSITY_BINS if label in per_bin))
