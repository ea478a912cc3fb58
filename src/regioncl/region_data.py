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
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

EARTH_RADIUS_KM = 6371.0

SLOT_TASKS = ("crime", "traffic")
STATIC_TASKS = ("house_price",)
TASKS = SLOT_TASKS + STATIC_TASKS

POI_FILE = "poi.csv"
TRAJ_FILE = "trajectories.csv"
CENTROID_FILE = "centroids.csv"
TARGETS_FILE = "targets.csv"


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

def _read_rows(path: str, expected_header: list[str] | None = None):
    """Return the header and the (line_number, row) pairs of the non-blank
    rows, each with one field per header column.

    Without ``expected_header`` the header must be ``region`` and at least
    one more column, as the POI file's is.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}:1: empty file") from None
        if expected_header is None:
            ok = len(header) >= 2 and header[0] == "region"
            want = "region,cat_0,..."
        else:
            ok, want = header == expected_header, ",".join(expected_header)
        if not ok:
            raise DataError(f"{path}:1: expected header {want!r}, got "
                            f"{','.join(header)!r}")
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2)
                if row]
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} "
                            f"fields, got {len(row)}")
    return header, rows


def _to_int(path: str, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad integer for {what}: "
                        f"{text!r}") from None


def _to_float(path: str, lineno: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad number for {what}: "
                        f"{text!r}") from None


def _region_table(path: str, rows) -> dict[int, tuple[int, list[str]]]:
    """Map region id -> (lineno, fields) enforcing dense coverage of [0, I)."""
    table: dict[int, tuple[int, list[str]]] = {}
    for lineno, row in rows:
        r = _to_int(path, lineno, row[0], "region")
        if r in table:
            raise DataError(f"{path}:{lineno}: duplicate region {r}")
        table[r] = (lineno, row)
    n = len(table)
    for r in table:
        if not 0 <= r < n:
            raise DataError(f"{path}:{table[r][0]}: region index out of "
                            f"range: {r} (I={n})")
    return table


def load_dataset(poi_path: str, traj_path: str, centroid_path: str,
                 targets_path: str | None = None) -> Dataset:
    """Read the CSV bundle; every fact is checked once, here, and a bad one
    raises a DataError naming its file, and its line where it has one.

    T is one past the largest slot of the slotted targets when there are
    any, and a trip slot at or beyond it is an error; without them T is
    inferred from the trips. Each task the targets name must give a value
    for every region, and for every slot 0..T-1 when it is slotted.
    """
    header, rows = _read_rows(poi_path)
    category_names = header[1:]
    table = _region_table(poi_path, rows)
    I = len(table)
    if I == 0:
        raise DataError(f"{poi_path}: no region rows")
    counts = np.zeros((I, len(category_names)), dtype=np.int64)
    for r, (lineno, row) in table.items():
        for c, text in enumerate(row[1:]):
            v = _to_int(poi_path, lineno, text, f"cat_{c}")
            if not 0 <= v < 2 ** 63:                # int64 counts
                raise DataError(f"{poi_path}:{lineno}: POI count {v} is "
                                f"negative or too large for int64")
            counts[r, c] = v

    _, rows = _read_rows(traj_path, ["src", "dst", "t_start", "t_end"])
    trips, trip_lines = [], []
    for lineno, row in rows:
        src = _to_int(traj_path, lineno, row[0], "src")
        dst = _to_int(traj_path, lineno, row[1], "dst")
        ts = _to_int(traj_path, lineno, row[2], "t_start")
        te = _to_int(traj_path, lineno, row[3], "t_end")
        for r in (src, dst):
            if not 0 <= r < I:
                raise DataError(f"{traj_path}:{lineno}: region index out of "
                                f"range: {r} (I={I})")
        if ts < 0 or te < ts or te >= 2 ** 63:     # int64 slots
            raise DataError(f"{traj_path}:{lineno}: bad slot range "
                            f"({ts}, {te})")
        trips.append((src, dst, ts, te))
        trip_lines.append(lineno)
    trajectories = np.array(trips, dtype=np.int64).reshape(-1, 4)

    _, rows = _read_rows(centroid_path, ["region", "lat", "lon"])
    ctable = _region_table(centroid_path, rows)
    if len(ctable) != I:
        raise DataError(f"{centroid_path}: {poi_path} has {I} regions but "
                        f"this file has {len(ctable)}")
    centroids = np.zeros((I, 2))
    for r, (lineno, row) in ctable.items():
        lat = _to_float(centroid_path, lineno, row[1], "lat")
        lon = _to_float(centroid_path, lineno, row[2], "lon")
        # NaN fails both comparisons, so a NaN or infinite value is caught
        if not (-90.0 <= lat <= 90.0 and math.isfinite(lon)):
            raise DataError(f"{centroid_path}:{lineno}: centroid needs a "
                            f"latitude in [-90, 90] and a finite longitude, "
                            f"got ({row[1]}, {row[2]})")
        centroids[r] = lat, lon

    # (region, task, slot) -> (line, value): one entry per target cell
    cells: dict[tuple[int, str, int], tuple[int, float]] = {}
    if targets_path is not None:
        _, rows = _read_rows(targets_path, ["region", "task", "slot", "value"])
        for lineno, row in rows:
            r = _to_int(targets_path, lineno, row[0], "region")
            if not 0 <= r < I:
                raise DataError(f"{targets_path}:{lineno}: region index out "
                                f"of range: {r} (I={I})")
            task = row[1]
            if task not in TASKS:
                raise DataError(f"{targets_path}:{lineno}: unknown task "
                                f"{task!r} (expected one of {list(TASKS)})")
            slot = _to_int(targets_path, lineno, row[2], "slot")
            value = _to_float(targets_path, lineno, row[3], "value")
            if not math.isfinite(value):
                raise DataError(f"{targets_path}:{lineno}: non-finite value "
                                f"{row[3]!r} for task {task!r}")
            static = task in STATIC_TASKS
            if static and slot != -1:
                raise DataError(f"{targets_path}:{lineno}: static task "
                                f"{task!r} requires slot=-1, got {slot}")
            if not static and slot < 0:
                raise DataError(f"{targets_path}:{lineno}: slotted task "
                                f"{task!r} requires slot >= 0, got {slot}")
            first = cells.setdefault((r, task, slot), (lineno, value))[0]
            if first != lineno:
                raise DataError(f"{targets_path}:{lineno}: region {r} task "
                                f"{task!r} slot {slot} already set on line "
                                f"{first}")

    target_slots = [slot for _, task, slot in cells if task in SLOT_TASKS]
    if target_slots:
        # slotted targets fix T: a trip past them is a typo, not a longer day
        T = max(target_slots) + 1
        late = np.flatnonzero(trajectories[:, 3] >= T)
        if late.size:
            k = late[0]
            raise DataError(f"{traj_path}:{trip_lines[k]}: trip slot "
                            f"{trajectories[k, 3]} is beyond the T={T} slots "
                            f"of {targets_path}")
    else:
        T = int(trajectories[:, 3].max(initial=0)) + 1

    # every cell is in range and none repeats, so a task covers its grid
    # exactly when it has one cell per grid point; only a short task's grid
    # is walked, and only up to its first gap
    n_cells = Counter(task for _, task, _ in cells)
    for task in TASKS:
        static = task in STATIC_TASKS
        if 0 < n_cells[task] < I * (1 if static else T):
            slots = [-1] if static else range(T)
            r, t = next((r, t) for r in range(I) for t in slots
                        if (r, task, t) not in cells)
            where = f"region {r}" if static else \
                f"region {r} slot {t} of the T={T} slots the targets imply"
            raise DataError(f"{targets_path}: task {task!r} has no value "
                            f"for {where}")

    targets: dict[str, np.ndarray] = {}
    for (r, task, slot), (_, value) in cells.items():
        if task not in targets:
            targets[task] = np.zeros(I if task in STATIC_TASKS else (I, T))
        # a static task's one slot is -1
        targets[task][r if slot < 0 else (r, slot)] = value

    return Dataset(poi=PoiMatrix(counts, category_names),
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
    write_csv(os.path.join(data_dir, TRAJ_FILE),
              ["src", "dst", "t_start", "t_end"], ds.trajectories.tolist())
    write_csv(os.path.join(data_dir, CENTROID_FILE), ["region", "lat", "lon"],
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
        write_csv(targets_path, ["region", "task", "slot", "value"], rows)
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
