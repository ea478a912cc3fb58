"""Raw data model: POI counts, trip array, centroid distances, task targets.

Three input sources describe I regions: an I x C matrix of point-of-interest
category counts, an (N, 4) int64 array of (source, dest, t_start, t_end)
trips over T time slots, and per-region centroids from which a haversine
distance matrix is derived. Targets for the downstream probes (crime counts
and traffic volume per slot, house price as a static scalar) ride along in
the same bundle.

Everything is loadable from plain CSV and synthesizable from a seeded config;
the synthesizer plants latent clusters so probe quality is measurable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

EARTH_RADIUS_KM = 6371.0

SLOT_TASKS = ("crime", "traffic")
STATIC_TASKS = ("house_price",)
TASKS = SLOT_TASKS + STATIC_TASKS

POI_FILE = "poi.csv"
TRAJ_FILE = "trajectories.csv"
TRAJ_COLUMNS = {"src": int, "dst": int, "t_start": int, "t_end": int}
CENTROID_FILE = "centroids.csv"
CENTROID_COLUMNS = {"region": int, "lat": float, "lon": float}
TARGETS_FILE = "targets.csv"
TARGETS_COLUMNS = {"region": int, "task": str, "slot": int, "value": float}


@dataclass
class PoiMatrix:
    counts: np.ndarray                  # (I, C) non-negative int64
    category_names: list[str]

    @property
    def n_regions(self) -> int:
        return self.counts.shape[0]

    @property
    def n_categories(self) -> int:
        return self.counts.shape[1]


@dataclass
class DistanceMatrix:
    km: np.ndarray                      # (I, I) symmetric, zero diagonal
    centroids: np.ndarray               # (I, 2) latitude, longitude degrees


@dataclass
class Dataset:
    poi: PoiMatrix
    trajectories: np.ndarray            # (N, 4) int64 trip rows
    dist: DistanceMatrix
    T: int
    targets: dict[str, np.ndarray] = field(default_factory=dict)
    # targets: "crime"/"traffic" -> (I, T) float; "house_price" -> (I,) float

    @property
    def n_regions(self) -> int:
        return self.poi.n_regions


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle km between degree coordinates; arrays broadcast."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def distance_matrix(centroids: np.ndarray) -> DistanceMatrix:
    """All-pairs haversine distances; the upper triangle is mirrored, so
    the matrix is exactly symmetric with an exactly zero diagonal."""
    lat, lon = centroids[:, :1], centroids[:, 1:]
    upper = np.triu(haversine_km(lat, lon, lat.T, lon.T), k=1)
    return DistanceMatrix(km=upper + upper.T, centroids=centroids)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def _read_table(path: str, columns: dict | None = None):
    """A bundle file's header, the line numbers of its non-blank rows, their
    fields as an (n, columns) object array of strings, and those fields as
    Python values of their column's type, so that a number past int64
    reaches the range checks whole. Without ``columns``, the POI file's:
    ``region`` and at least one more column, all integers."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: cannot decode the file as "
                            f"{e.encoding}: {e.reason}") from None
        except csv.Error as e:
            raise DataError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise DataError(f"{path}:1: empty file")
    header = rows.pop(0)
    if columns is None:
        ok = len(header) >= 2 and header[0] == "region"
        want = "region,cat_0,..."
        columns = {"region": int} | {f"cat_{c}": int
                                     for c in range(len(header) - 1)}
    else:
        ok, want = header == list(columns), ",".join(columns)
    if not ok:
        raise DataError(f"{path}:1: expected header {want!r}, got "
                        f"{','.join(header)!r}")
    lines = [lineno for lineno, row in enumerate(rows, start=2) if row]
    rows = [row for row in rows if row]
    width = np.array([len(row) for row in rows], dtype=int)
    _check_rows(path, lines, [(width != len(header), lambda k: f"expected "
                               f"{len(header)} fields, got {width[k]}")])
    fields = np.array(rows, dtype=object).reshape(len(rows), len(header))
    try:
        return header, lines, fields, np.array([
            list(map(kind, fields[:, j]))
            for j, kind in enumerate(columns.values())], dtype=object).T.copy()
    except ValueError:
        for lineno, row in zip(lines, rows):
            for text, (name, kind) in zip(row, columns.items()):
                try:
                    kind(text)
                except ValueError:
                    noun = "integer" if kind is int else "number"
                    raise DataError(f"{path}:{lineno}: bad {noun} for "
                                    f"{name}: {text!r}") from None
        raise


def _check_rows(path: str, lines: list, rules) -> None:
    """Raise a DataError naming the first row that breaks a rule, and the
    first of ``rules`` that it breaks. A rule pairs a row mask, true where
    the row breaks it, with a function of the row index that words it."""
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if broken.any():
        k = int(np.argmax(broken))
        fault = next(words for mask, words in rules if mask[k])
        raise DataError(f"{path}:{lines[k]}: {fault(k)}")


def _repeats(keys: np.ndarray):
    """The stable sort order of ``keys`` and a row mask, true where a key
    equals one on an earlier row."""
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return order, repeat


def _in_range(region: np.ndarray, I: int):
    """The rule that each region id indexes [0, I)."""
    return ((region < 0) | (region >= I),
            lambda k: f"region index out of range: {region[k]} (I={I})")


def _region_order(path: str, lines: list, region: np.ndarray, rule):
    """Check that no id of a region file repeats, that each indexes the
    file's rows, and ``rule``; return the order that sorts the ids."""
    order, repeat = _repeats(region)
    _check_rows(path, lines, [
        (repeat, lambda k: f"duplicate region {region[k]}"),
        _in_range(region, len(region)), rule])
    return order


def load_dataset(poi_path: str, traj_path: str, centroid_path: str,
                 targets_path: str | None = None) -> Dataset:
    """Read the CSV bundle; every fact is checked once, here, and a bad one
    raises a DataError naming its file, and its line where it has one: in
    each file, a field that does not parse first, then the first row that
    breaks a rule, with the first rule it breaks.

    T is one past the largest slot of the slotted targets when there are
    any, and a trip slot at or beyond it is an error; without them T is
    inferred from the trips. Each task the targets name must give a value
    for every region, and for every slot 0..T-1 when it is slotted.
    """
    header, lines, _, values = _read_table(poi_path)
    I = len(lines)
    if I == 0:
        raise DataError(f"{poi_path}: no region rows")
    counts = values[:, 1:]
    bad = (counts < 0) | (counts >= 2 ** 63)        # int64 counts
    order = _region_order(poi_path, lines, values[:, 0], (
        bad.any(axis=1), lambda k: f"POI count {counts[k][bad[k]][0]} is "
                                   f"negative or too large for int64"))
    counts = counts[order].astype(np.int64)

    _, trip_lines, _, trips = _read_table(traj_path, TRAJ_COLUMNS)
    src, dst, ts, te = trips.T
    _check_rows(traj_path, trip_lines, [
        _in_range(src, I), _in_range(dst, I),
        ((ts < 0) | (te < ts) | (te >= 2 ** 63),    # int64 slots
         lambda k: f"bad slot range ({ts[k]}, {te[k]})")])
    trajectories = trips.astype(np.int64)

    _, lines, fields, values = _read_table(centroid_path, CENTROID_COLUMNS)
    centroids = values[:, 1:].astype(float)
    # NaN fails the comparison, so a NaN or infinite latitude is caught
    order = _region_order(centroid_path, lines, values[:, 0], (
        ~((np.abs(centroids[:, 0]) <= 90.0) & np.isfinite(centroids[:, 1])),
        lambda k: f"centroid needs a latitude in [-90, 90] and a finite "
                  f"longitude, got ({fields[k, 1]}, {fields[k, 2]})"))
    if len(lines) != I:
        raise DataError(f"{centroid_path}: {poi_path} has {I} regions but "
                        f"this file has {len(lines)}")
    centroids = centroids[order]

    T = int(trajectories[:, 3].max(initial=0)) + 1
    targets: dict[str, np.ndarray] = {}
    if targets_path is not None:
        _, lines, fields, values = _read_table(targets_path, TARGETS_COLUMNS)
        region, task, slot, value = values.T
        value = value.astype(float)
        index = np.select([task == name for name in TASKS],  # into TASKS
                          list(range(len(TASKS))), -1)
        static = index >= len(SLOT_TASKS)
        slotted = (index >= 0) & ~static
        # slotted targets fix T: a trip past them is a typo, not a longer day
        T = max(slot[slotted], default=T - 1) + 1
        # each row that keeps the other rules has a key of its own: its
        # task, then its cell, numbered region-major over the task's grid,
        # in Python ints so that a slot past int64 stays exact
        cell = np.where(static, region, region * T + slot)
        key = index.astype(object) * (I * T) + cell
        order, repeat = _repeats(key)
        _check_rows(targets_path, lines, [
            _in_range(region, I),
            (index < 0, lambda k: f"unknown task {task[k]!r} (expected one "
                                  f"of {list(TASKS)})"),
            (~np.isfinite(value), lambda k: f"non-finite value "
             f"{fields[k, 3]!r} for task {task[k]!r}"),
            (static & (slot != -1), lambda k: f"static task {task[k]!r} "
             f"requires slot=-1, got {slot[k]}"),
            (slotted & (slot < 0), lambda k: f"slotted task {task[k]!r} "
             f"requires slot >= 0, got {slot[k]}"),
            (repeat, lambda k: f"region {region[k]} task {task[k]!r} slot "
             f"{slot[k]} already set on line "
             f"{lines[np.argmax(key == key[k])]}")])
        _check_rows(traj_path, trip_lines, [(
            trajectories[:, 3] >= T,
            lambda k: f"trip slot {trajectories[k, 3]} is beyond the T={T} "
                      f"slots of {targets_path}")])

        # every cell is in range and none repeats, so a task covers its
        # grid exactly when it has one cell per grid point; its sorted cells
        # then run 0, 1, 2, ..., and its first gap is the first they skip
        for i, name in enumerate(TASKS):
            rows = order[index[order] == i]
            width = 1 if name in STATIC_TASKS else T
            if 0 < len(rows) < I * width:
                skips = cell[rows] != np.arange(len(rows))
                r, t = divmod(int(np.append(skips, True).argmax()), width)
                where = f"region {r}" if name in STATIC_TASKS else \
                    f"region {r} slot {t} of the T={T} slots the targets imply"
                raise DataError(f"{targets_path}: task {name!r} has no "
                                f"value for {where}")
            if len(rows):
                targets[name] = value[rows] if name in STATIC_TASKS else \
                    value[rows].reshape(I, T)

    return Dataset(poi=PoiMatrix(counts, header[1:]),
                   trajectories=trajectories,
                   dist=distance_matrix(centroids),
                   T=T, targets=targets)


def load_dataset_dir(data_dir: str) -> Dataset:
    """Load the standard four-file bundle written by write_dataset."""
    targets = os.path.join(data_dir, TARGETS_FILE)
    return load_dataset(os.path.join(data_dir, POI_FILE),
                        os.path.join(data_dir, TRAJ_FILE),
                        os.path.join(data_dir, CENTROID_FILE),
                        targets if os.path.exists(targets) else None)


def write_dataset(ds: Dataset, data_dir: str) -> None:
    """Serialize to the CSV bundle; float formatting round-trips exactly.
    A bundle without targets removes any ``targets.csv`` in ``data_dir``."""
    os.makedirs(data_dir, exist_ok=True)
    write_csv(os.path.join(data_dir, POI_FILE),
              ["region"] + list(ds.poi.category_names),
              ([r] + row for r, row in enumerate(ds.poi.counts.tolist())))
    write_csv(os.path.join(data_dir, TRAJ_FILE), list(TRAJ_COLUMNS),
              ds.trajectories.tolist())
    write_csv(os.path.join(data_dir, CENTROID_FILE), list(CENTROID_COLUMNS),
              ([r, lat, lon] for r, (lat, lon)
               in enumerate(ds.dist.centroids.tolist())))
    targets_path = os.path.join(data_dir, TARGETS_FILE)
    if ds.targets:
        # long format, region-major; a static task has the one slot -1
        rows = []
        for task in sorted(ds.targets):
            slots = [-1] if task in STATIC_TASKS else range(ds.T)
            values = ds.targets[task].reshape(ds.n_regions, -1).tolist()
            for r, row in enumerate(values):
                rows += ([r, task, t, v] for t, v in zip(slots, row))
        write_csv(targets_path, list(TARGETS_COLUMNS), rows)
    elif os.path.exists(targets_path):  # an earlier bundle's targets
        os.remove(targets_path)


def write_csv(path: str, header, rows) -> None:
    """The package's one CSV dialect, for every table it writes.

    Lines end in a bare newline; a field is quoted only when it holds a
    comma, quote or line break; a float (numpy's included) is written as
    its repr, which reads back to the same value.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_regions: int = 60
    n_categories: int = 12
    n_slots: int = 4
    n_trips: int = 4000
    noise_rate: float = 0.0
    skew_exponent: float = 1.0
    n_clusters: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_clusters <= self.n_regions:
            raise ConfigError(f"need n_regions >= n_clusters >= 1, got "
                              f"n_regions={self.n_regions} "
                              f"n_clusters={self.n_clusters}")
        for name, low in (("n_categories", 1), ("n_slots", 1),
                          ("n_trips", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"synth {name} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError(f"noise_rate must be in [0,1], "
                              f"got {self.noise_rate}")
        if self.skew_exponent < 0.0:
            raise ConfigError(f"skew_exponent must be >= 0, "
                              f"got {self.skew_exponent}")


def cluster_assignment(n_regions: int, n_clusters: int) -> np.ndarray:
    """Contiguous, balanced latent clusters (region i -> i*K // I)."""
    return (np.arange(n_regions) * n_clusters) // n_regions


def synth_dataset(cfg: SynthConfig) -> Dataset:
    """Seeded synthetic city with latent clusters.

    Structure planted so every view carries cluster signal: POI category
    preferences, mostly intra-cluster trips, and spatially separated cluster
    centroids with sub-kilometre jitter. Targets are linear in the latent
    cluster plus Gaussian noise; crime is sparse with a cluster-dependent
    non-zero rate so density-stratified evaluation has populated bins.
    """
    rng = np.random.default_rng(cfg.seed)
    I, C, T, K = cfg.n_regions, cfg.n_categories, cfg.n_slots, cfg.n_clusters
    cluster = cluster_assignment(I, K)

    # POI counts: low base rate everywhere, strong lift on a per-cluster band
    offset = np.arange(C) - (cluster[:, None] * C) // K
    rates = np.where((offset >= 0) & (offset < max(1, C // K)), 4.5, 0.5)
    counts = rng.poisson(rates).astype(np.int64)

    # centroids: well separated cluster centers, ~0.8 km jitter within
    centers = np.stack([40.0 + 0.18 * (np.arange(K) // 4),
                        -74.0 + 0.18 * (np.arange(K) % 4)], axis=1)
    centroids = centers[cluster] + rng.normal(scale=0.007, size=(I, 2))

    # trips: power-law source popularity over a random region ranking
    ranking = rng.permutation(I)
    weights = np.power(np.arange(1, I + 1, dtype=np.float64),
                       -cfg.skew_exponent)
    source_p = np.empty(I)
    source_p[ranking] = weights / weights.sum()
    sources = rng.choice(I, size=cfg.n_trips, p=source_p)
    sizes = np.bincount(cluster, minlength=K)   # clusters are contiguous
    home = cluster[sources]
    dests = (np.cumsum(sizes) - sizes)[home] + rng.integers(0, sizes[home])
    n_rewire = int(round(cfg.noise_rate * cfg.n_trips))
    if n_rewire:
        rewire = rng.choice(cfg.n_trips, size=n_rewire, replace=False)
        dests[rewire] = rng.integers(0, I, size=n_rewire)
    t_starts = rng.integers(0, T, size=cfg.n_trips)
    t_ends = np.minimum(t_starts + rng.integers(0, 2, size=cfg.n_trips), T - 1)
    trajectories = np.stack([sources, dests, t_starts, t_ends], axis=1,
                            dtype=np.int64)

    # targets linear in the latent cluster; coefficients fixed by the seed
    price_base = rng.uniform(80.0, 120.0)
    price_step = rng.uniform(40.0, 60.0)
    house_price = price_base + price_step * cluster + rng.normal(scale=5.0,
                                                                 size=I)
    traffic_base = rng.uniform(15.0, 25.0)
    traffic_step = rng.uniform(8.0, 12.0)
    traffic = np.clip(traffic_base + traffic_step * cluster[:, None]
                      + rng.normal(scale=2.0, size=(I, T)), 0.0, None)
    # non-zero rate spread across clusters populates all density bins
    q = 0.2 + (0.5 * cluster / max(1, K - 1) if K > 1 else np.zeros(I))
    nonzero = rng.random(size=(I, T)) < q[:, None]
    magnitude = 1.0 + rng.poisson(1.0 + 2.0 * cluster[:, None],
                                  size=(I, T))
    crime = np.where(nonzero, magnitude.astype(np.float64), 0.0)

    return Dataset(
        poi=PoiMatrix(counts=counts,
                      category_names=[f"cat_{c}" for c in range(C)]),
        trajectories=trajectories,
        dist=distance_matrix(centroids),
        T=T,
        targets={"crime": crime, "traffic": traffic,
                 "house_price": house_price})
