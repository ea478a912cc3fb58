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

    @property
    def n_categories(self) -> int:
        return self.poi.n_categories


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
    centroids = np.asarray(centroids, dtype=np.float64)
    lat, lon = centroids[:, :1], centroids[:, 1:]
    upper = np.triu(haversine_km(lat, lon, lat.T, lon.T), k=1)
    return DistanceMatrix(km=upper + upper.T, centroids=centroids)


def validate(ds: Dataset) -> None:
    """Cross-consistency checks shared by the loader and the synthesizer."""
    I = ds.poi.n_regions
    if I < 1 or ds.poi.n_categories < 1:
        raise DataError(f"need at least one region and one category, "
                        f"got {ds.poi.counts.shape}")
    if np.any(ds.poi.counts < 0):
        raise DataError("negative POI count")
    if ds.dist.km.shape != (I, I):
        raise DataError(f"POI matrix has {I} regions but distance matrix "
                        f"is {ds.dist.km.shape[0]}x{ds.dist.km.shape[1]}")
    if ds.T < 1:
        raise DataError(f"T must be >= 1, got {ds.T}")
    trips = ds.trajectories
    if trips.ndim != 2 or trips.shape[1] != 4:
        raise DataError(f"trajectories must be an (N, 4) array, "
                        f"got shape {trips.shape}")
    ends = trips[:, :2]
    bad = ends[(ends < 0) | (ends >= I)]
    if bad.size:
        raise DataError(f"region index out of range: {bad[0]} (I={I})")
    ts, te = trips[:, 2], trips[:, 3]
    bad = np.flatnonzero((ts < 0) | (te < ts) | (te >= ds.T))
    if bad.size:
        k = bad[0]
        raise DataError(f"bad slot range ({ts[k]}, {te[k]}) with T={ds.T}")
    for task, arr in ds.targets.items():
        if task not in TASKS:
            raise DataError(f"unknown task {task!r}")
        want = (I,) if task in STATIC_TASKS else (I, ds.T)
        if arr.shape != want:
            raise DataError(f"targets[{task}] has shape {arr.shape}, "
                            f"expected {want} for I={I}, T={ds.T}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"targets[{task}] contains non-finite values")


def crime_density(ds: Dataset, region: int) -> float:
    """Fraction of time slots in which the region records any crime."""
    if "crime" not in ds.targets:
        raise DataError("crime targets not present in dataset")
    if not 0 <= region < ds.n_regions:
        raise DataError(f"region index out of range: {region} "
                        f"(I={ds.n_regions})")
    row = ds.targets["crime"][region]
    return float(np.count_nonzero(row) / row.shape[0])


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def _read_rows(path: str, expected_header: list[str] | None = None):
    """Yield (line_number, row) pairs, validating the header line."""
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
        if expected_header is not None and header != expected_header:
            raise DataError(f"{path}:1: expected header "
                            f"{','.join(expected_header)!r}, got "
                            f"{','.join(header)!r}")
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2)
                if row]
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


def _region_table(path: str, rows, n_fields: int) -> dict[int, tuple[int, list[str]]]:
    """Map region id -> (lineno, fields) enforcing dense coverage of [0, I)."""
    table: dict[int, tuple[int, list[str]]] = {}
    for lineno, row in rows:
        if len(row) != n_fields:
            raise DataError(f"{path}:{lineno}: expected {n_fields} fields, "
                            f"got {len(row)}")
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
    """Read the CSV bundle; T is inferred from trips and slotted targets."""
    header, rows = _read_rows(poi_path)
    if len(header) < 2 or header[0] != "region":
        raise DataError(f"{poi_path}:1: expected header "
                        f"'region,cat_0,...', got {','.join(header)!r}")
    category_names = header[1:]
    table = _region_table(poi_path, rows, len(header))
    I = len(table)
    counts = np.zeros((I, len(category_names)), dtype=np.int64)
    for r, (lineno, row) in table.items():
        for c, text in enumerate(row[1:]):
            v = _to_int(poi_path, lineno, text, f"cat_{c}")
            if v < 0:
                raise DataError(f"{poi_path}:{lineno}: negative POI count {v}")
            counts[r, c] = v

    _, rows = _read_rows(traj_path, ["src", "dst", "t_start", "t_end"])
    trips = []
    for lineno, row in rows:
        if len(row) != 4:
            raise DataError(f"{traj_path}:{lineno}: expected 4 fields, "
                            f"got {len(row)}")
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
    trajectories = np.array(trips, dtype=np.int64).reshape(-1, 4)

    _, rows = _read_rows(centroid_path, ["region", "lat", "lon"])
    ctable = _region_table(centroid_path, rows, 3)
    if len(ctable) != I:
        raise DataError(f"POI matrix has {I} regions but centroids file has "
                        f"{len(ctable)}")
    centroids = np.zeros((I, 2))
    for r, (lineno, row) in ctable.items():
        centroids[r, 0] = _to_float(centroid_path, lineno, row[1], "lat")
        centroids[r, 1] = _to_float(centroid_path, lineno, row[2], "lon")

    raw_targets = []
    if targets_path is not None:
        _, rows = _read_rows(targets_path, ["region", "task", "slot", "value"])
        for lineno, row in rows:
            if len(row) != 4:
                raise DataError(f"{targets_path}:{lineno}: expected 4 "
                                f"fields, got {len(row)}")
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
            static = task in STATIC_TASKS
            if static and slot != -1:
                raise DataError(f"{targets_path}:{lineno}: static task "
                                f"{task!r} requires slot=-1, got {slot}")
            if not static and slot < 0:
                raise DataError(f"{targets_path}:{lineno}: slotted task "
                                f"{task!r} requires slot >= 0, got {slot}")
            raw_targets.append((r, task, slot, value))

    max_slot = max([int(trajectories[:, 3].max(initial=0))]
                   + [slot for _, task, slot, _ in raw_targets
                      if task in SLOT_TASKS])
    T = max_slot + 1

    targets: dict[str, np.ndarray] = {}
    for r, task, slot, value in raw_targets:
        if task in STATIC_TASKS:
            targets.setdefault(task, np.zeros(I))[r] = value
        else:
            targets.setdefault(task, np.zeros((I, T)))[r, slot] = value

    ds = Dataset(poi=PoiMatrix(counts=counts, category_names=category_names),
                 trajectories=trajectories,
                 dist=distance_matrix(centroids),
                 T=T, targets=targets)
    validate(ds)
    return ds


def load_dataset_dir(data_dir: str) -> Dataset:
    """Load the standard four-file bundle written by write_dataset."""
    targets = os.path.join(data_dir, TARGETS_FILE)
    return load_dataset(os.path.join(data_dir, POI_FILE),
                        os.path.join(data_dir, TRAJ_FILE),
                        os.path.join(data_dir, CENTROID_FILE),
                        targets if os.path.exists(targets) else None)


def write_dataset(ds: Dataset, data_dir: str) -> None:
    """Serialize to the CSV bundle; float formatting round-trips exactly."""
    os.makedirs(data_dir, exist_ok=True)
    _write_csv(os.path.join(data_dir, POI_FILE),
               ["region"] + list(ds.poi.category_names),
               ([r] + row for r, row in enumerate(ds.poi.counts.tolist())))
    _write_csv(os.path.join(data_dir, TRAJ_FILE),
               ["src", "dst", "t_start", "t_end"], ds.trajectories.tolist())
    _write_csv(os.path.join(data_dir, CENTROID_FILE), ["region", "lat", "lon"],
               ([r, repr(lat), repr(lon)] for r, (lat, lon)
                in enumerate(ds.dist.centroids.tolist())))
    if ds.targets:
        # long format, region-major; a static task has the one slot -1
        rows = []
        for task in sorted(ds.targets):
            slots = [-1] if task in STATIC_TASKS else range(ds.T)
            values = ds.targets[task].reshape(ds.n_regions, -1).tolist()
            for r, row in enumerate(values):
                rows += ([r, task, t, repr(v)] for t, v in zip(slots, row))
        _write_csv(os.path.join(data_dir, TARGETS_FILE),
                   ["region", "task", "slot", "value"], rows)


def _write_csv(path: str, header: list, rows) -> None:
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
    if not 1 <= cfg.n_clusters <= cfg.n_regions:
        raise ConfigError(f"need I >= n_clusters >= 1, got I={cfg.n_regions} "
                          f"n_clusters={cfg.n_clusters}")
    if cfg.n_categories < 1 or cfg.n_slots < 1 or cfg.n_trips < 0:
        raise ConfigError(f"bad sizes: C={cfg.n_categories} T={cfg.n_slots} "
                          f"n_trips={cfg.n_trips}")
    if not 0.0 <= cfg.noise_rate <= 1.0:
        raise ConfigError(f"noise_rate must be in [0,1], got {cfg.noise_rate}")
    if cfg.skew_exponent < 0.0:
        raise ConfigError(f"skew_exponent must be >= 0, "
                          f"got {cfg.skew_exponent}")

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
    members = {k: np.flatnonzero(cluster == k) for k in range(K)}
    dests = np.array([rng.choice(members[cluster[s]]) for s in sources],
                     dtype=np.int64) if cfg.n_trips else np.zeros(0, np.int64)
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

    ds = Dataset(
        poi=PoiMatrix(counts=counts,
                      category_names=[f"cat_{c}" for c in range(C)]),
        trajectories=trajectories,
        dist=distance_matrix(centroids),
        T=T,
        targets={"crime": crime, "traffic": traffic,
                 "house_price": house_price})
    validate(ds)
    return ds
