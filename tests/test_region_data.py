"""Tests for data loading, validation, synthesis, and distances.

The equator-arc haversine value below was computed independently as
R * pi/180 with R = 6371.0 before being frozen here. The Gini coefficient
oracle is the mean-absolute-difference formula, implemented in this file
without reference to the package. ``reference_load`` states the loader's
checks one row at a time, as plain loops, for the vectorized loader to
match.
"""

import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import region_data as rd
from regioncl.eval_harness import DENSITY_BINS, density_table
from regioncl.errors import ConfigError, DataError

EQUATOR_DEGREE_KM = 111.19492664455873


def reference_load(poi_path, traj_path, centroid_path, targets_path=None):
    """The loader's checks one row at a time: in each file the first field
    that does not parse, then the first row that breaks a rule, with the
    first rule it breaks; then the checks across files. Headers and row
    widths are taken as valid."""
    def parse(path, kinds=None):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        names = header if kinds else \
            ["region"] + [f"cat_{c}" for c in range(len(header) - 1)]
        table = []
        for line, row in enumerate(rows, start=2):
            values = []
            for text, name, kind in zip(row, names,
                                        kinds or [int] * len(header)):
                try:
                    values.append(kind(text))
                except ValueError:
                    noun = "integer" if kind is int else "number"
                    raise DataError(f"{path}:{line}: bad {noun} for {name}: "
                                    f"{text!r}") from None
            if row:
                table.append((line, row, values))
        return header, table

    def fail(path, line, message):
        raise DataError(f"{path}:{line}: {message}")

    def check_region(path, line, r, n, seen):
        if r in seen:
            fail(path, line, f"duplicate region {r}")
        seen.add(r)
        if not 0 <= r < n:
            fail(path, line, f"region index out of range: {r} (I={n})")

    header, poi = parse(poi_path)
    I = len(poi)
    if I == 0:
        raise DataError(f"{poi_path}: no region rows")
    counts, seen = np.zeros((I, len(header) - 1), dtype=np.int64), set()
    for line, _, (r, *row) in poi:
        check_region(poi_path, line, r, I, seen)
        for v in row:
            if not 0 <= v < 2 ** 63:
                fail(poi_path, line, f"POI count {v} is negative or too "
                                     f"large for int64")
        counts[r] = row

    _, trips = parse(traj_path, [int] * 4)
    for line, _, (src, dst, ts, te) in trips:
        for r in (src, dst):
            if not 0 <= r < I:
                fail(traj_path, line, f"region index out of range: {r} "
                                      f"(I={I})")
        if ts < 0 or te < ts or te >= 2 ** 63:
            fail(traj_path, line, f"bad slot range ({ts}, {te})")
    trajectories = np.array([v for _, _, v in trips],
                            dtype=np.int64).reshape(-1, 4)

    _, rows = parse(centroid_path, [int, float, float])
    centroids, seen = np.zeros((max(I, len(rows)), 2)), set()
    for line, row, (r, lat, lon) in rows:
        check_region(centroid_path, line, r, len(rows), seen)
        if not (-90.0 <= lat <= 90.0 and math.isfinite(lon)):
            fail(centroid_path, line, f"centroid needs a latitude in "
                                      f"[-90, 90] and a finite longitude, "
                                      f"got ({row[1]}, {row[2]})")
        centroids[r] = lat, lon
    if len(rows) != I:
        raise DataError(f"{centroid_path}: {poi_path} has {I} regions but "
                        f"this file has {len(rows)}")

    cells = {}
    for line, row, (r, task, slot, value) in (
            parse(targets_path, [int, str, int, float])[1]
            if targets_path else []):
        if not 0 <= r < I:
            fail(targets_path, line, f"region index out of range: {r} "
                                     f"(I={I})")
        if task not in rd.TASKS:
            fail(targets_path, line, f"unknown task {task!r} (expected one "
                                     f"of {list(rd.TASKS)})")
        if not math.isfinite(value):
            fail(targets_path, line, f"non-finite value {row[3]!r} for "
                                     f"task {task!r}")
        if task in rd.STATIC_TASKS and slot != -1:
            fail(targets_path, line, f"static task {task!r} requires "
                                     f"slot=-1, got {slot}")
        if task in rd.SLOT_TASKS and slot < 0:
            fail(targets_path, line, f"slotted task {task!r} requires "
                                     f"slot >= 0, got {slot}")
        first = cells.setdefault((r, task, slot), (line, value))[0]
        if first != line:
            fail(targets_path, line, f"region {r} task {task!r} slot {slot} "
                                     f"already set on line {first}")

    slots = [slot for _, task, slot in cells if task in rd.SLOT_TASKS]
    T = max(slots, default=int(trajectories[:, 3].max(initial=0))) + 1
    for line, _, (_, _, _, te) in trips:
        if te >= T:
            fail(traj_path, line, f"trip slot {te} is beyond the T={T} "
                                  f"slots of {targets_path}")
    targets = {}
    for task in rd.TASKS:
        static = task in rd.STATIC_TASKS
        if not any(key[1] == task for key in cells):
            continue
        grid = ((r, t) for r in range(I) for t in ([-1] if static
                                                    else range(T)))
        gap = next((g for g in grid if (g[0], task, g[1]) not in cells),
                   None)
        if gap is not None:
            where = f"region {gap[0]}" if static else \
                f"region {gap[0]} slot {gap[1]} of the T={T} slots the " \
                f"targets imply"
            raise DataError(f"{targets_path}: task {task!r} has no value "
                            f"for {where}")
        targets[task] = np.zeros(I if static else (I, T))
        for (r, name, slot), (_, value) in cells.items():
            if name == task:
                targets[task][r if static else (r, slot)] = value
    return rd.Dataset(poi=rd.PoiMatrix(counts, header[1:]),
                      trajectories=trajectories,
                      dist=rd.distance_matrix(centroids), T=T,
                      targets=targets)


def write(path, text):
    path.write_text(text)
    return str(path)


def two_region_files(tmp_path, traj="src,dst,t_start,t_end\n0,1,0,0\n"):
    poi = write(tmp_path / "poi.csv", "region,cat_0,cat_1,cat_2\n0,1,2,3\n1,0,4,0\n")
    trj = write(tmp_path / "traj.csv", traj)
    cen = write(tmp_path / "cen.csv", "region,lat,lon\n0,0.0,0.0\n1,0.0,1.0\n")
    return poi, trj, cen


class TestHaversine:
    def test_equator_degree_frozen_value(self):
        got = rd.haversine_km(0.0, 0.0, 0.0, 1.0)
        assert_allclose(got, EQUATOR_DEGREE_KM, atol=1e-9)

    def test_same_point_is_zero(self):
        assert rd.haversine_km(40.7, -74.0, 40.7, -74.0) == 0.0

    def test_matrix_is_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        cents = np.column_stack([rng.uniform(-60, 60, 8),
                                 rng.uniform(-180, 180, 8)])
        dm = rd.distance_matrix(cents)
        assert np.max(np.abs(dm.km - dm.km.T)) == 0.0
        assert_allclose(np.diagonal(dm.km), np.zeros(8))

    def test_matrix_matches_scalar_pair_loop(self):
        """The broadcast matrix against one scalar haversine_km per pair;
        array and scalar sin/cos may differ in the last ulp."""
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            n = int(rng.integers(1, 40))
            cents = np.column_stack([rng.uniform(-80, 80, n),
                                     rng.uniform(-180, 180, n)])
            want = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        want[i, j] = rd.haversine_km(*cents[i], *cents[j])
            assert_allclose(rd.distance_matrix(cents).km, want,
                            rtol=1e-12, atol=0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        cents = np.column_stack([rng.uniform(-60, 60, 6),
                                 rng.uniform(-180, 180, 6)])
        km = rd.distance_matrix(cents).km
        n = len(cents)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert km[i, j] <= km[i, k] + km[k, j] + 1e-6


class TestLoad:
    def test_two_region_fixture_echoes_inputs(self, tmp_path):
        ds = rd.load_dataset(*two_region_files(tmp_path))
        assert ds.n_regions == 2
        assert ds.poi.n_categories == 3
        assert len(ds.trajectories) == 1
        assert ds.trajectories.tolist() == [[0, 1, 0, 0]]
        assert ds.poi.counts[0].tolist() == [1, 2, 3]
        assert ds.T == 1
        assert_allclose(ds.dist.km[0, 1], EQUATOR_DEGREE_KM, atol=1e-9)

    def test_region_out_of_range(self, tmp_path):
        files = two_region_files(tmp_path,
                                 traj="src,dst,t_start,t_end\n0,2,0,0\n")
        with pytest.raises(DataError, match="region index out of range"):
            rd.load_dataset(*files)

    def test_parse_error_has_line_number(self, tmp_path):
        files = two_region_files(tmp_path,
                                 traj="src,dst,t_start,t_end\n0,1,0,0\n0,x,1,1\n")
        with pytest.raises(DataError, match=r":3:"):
            rd.load_dataset(*files)

    def test_slot_beyond_int64_has_line_number(self, tmp_path):
        files = two_region_files(
            tmp_path, traj="src,dst,t_start,t_end\n0,1,0,0\n0,1,0,"
                           "100000000000000000000\n")
        with pytest.raises(DataError, match=r":3: bad slot range"):
            rd.load_dataset(*files)

    def test_header_mismatch_rejected(self, tmp_path):
        poi, trj, _ = two_region_files(tmp_path)
        bad = write(tmp_path / "bad.csv", "region,latitude,lon\n0,0,0\n1,0,1\n")
        with pytest.raises(DataError, match="expected header"):
            rd.load_dataset(poi, trj, bad)

    def test_centroid_count_mismatch_names_both(self, tmp_path):
        poi, trj, _ = two_region_files(tmp_path)
        one = write(tmp_path / "one.csv", "region,lat,lon\n0,0.0,0.0\n")
        with pytest.raises(DataError, match="2 regions.*1"):
            rd.load_dataset(poi, trj, one)

    def test_t_inferred_from_trips_and_targets(self, tmp_path):
        poi, trj, cen = two_region_files(
            tmp_path, traj="src,dst,t_start,t_end\n0,1,1,2\n")
        crime = "".join(f"{r},crime,{t},{2.0 if (r, t) == (0, 5) else 0.0}\n"
                        for r in range(2) for t in range(6))
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n" + crime +
                    "0,house_price,-1,90.0\n1,house_price,-1,100.0\n")
        ds = rd.load_dataset(poi, trj, cen, tgt)
        assert ds.T == 6
        assert ds.targets["crime"][0, 5] == 2.0
        assert ds.targets["house_price"][1] == 100.0

    @pytest.mark.parametrize("slot", [4, 1000000000000000])
    def test_trip_slot_beyond_slotted_targets_names_file_and_line(
            self, tmp_path, slot):
        poi, trj, cen = two_region_files(
            tmp_path, traj=f"src,dst,t_start,t_end\n0,1,0,3\n"
                           f"0,1,0,{slot}\n1,0,9,9\n")
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n0,crime,3,2.0\n"
                    "1,house_price,-1,100.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{trj}:3: trip slot {slot} is beyond the T=4 "
                f"slots of {tgt}")):
            rd.load_dataset(poi, trj, cen, tgt)

    def test_static_targets_leave_t_to_the_trips(self, tmp_path):
        poi, trj, cen = two_region_files(
            tmp_path, traj="src,dst,t_start,t_end\n0,1,1,7\n")
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n0,house_price,-1,90.0\n"
                    "1,house_price,-1,100.0\n")
        assert rd.load_dataset(poi, trj, cen, tgt).T == 8

    def test_synthetic_bundle_takes_t_from_its_targets(self, tmp_path):
        """Without its last-slot trips, a synthetic bundle still loads with
        every array unchanged: T comes from the slotted targets."""
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=12, n_slots=5,
                                             n_trips=200, n_clusters=2,
                                             seed=3))
        ds.trajectories = ds.trajectories[ds.trajectories[:, 3] < 3]
        rd.write_dataset(ds, str(tmp_path))
        back = rd.load_dataset_dir(str(tmp_path))
        assert back.T == ds.T == 5
        assert np.array_equal(back.trajectories, ds.trajectories)
        for task in ds.targets:
            assert np.array_equal(back.targets[task], ds.targets[task]), task

    def test_unknown_task_rejected(self, tmp_path):
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n0,rainfall,0,1.0\n")
        with pytest.raises(DataError, match="unknown task"):
            rd.load_dataset(poi, trj, cen, tgt)

    def test_static_task_requires_slot_minus_one(self, tmp_path):
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n0,house_price,0,1.0\n")
        with pytest.raises(DataError, match="slot=-1"):
            rd.load_dataset(poi, trj, cen, tgt)

    @pytest.mark.parametrize("rows", [
        "0,house_price,-1,100.0\n0,house_price,-1,200.0\n",
        "0,crime,1,2.0\n1,crime,1,3.0\n0,crime,1,2.0\n",
    ])
    def test_repeated_target_cell_names_both_lines(self, tmp_path, rows):
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv", "region,task,slot,value\n" + rows)
        last = 1 + rows.count("\n")
        with pytest.raises(DataError, match=re.escape(
                f"{tgt}:{last}: region 0 task")) as err:
            rd.load_dataset(poi, trj, cen, tgt)
        assert str(err.value).endswith("already set on line 2")

    @pytest.mark.parametrize("lat,lon", [
        ("nan", "1.0"), ("inf", "1.0"), ("-inf", "1.0"), ("90.5", "1.0"),
        ("-91", "1.0"), ("0.0", "nan"), ("0.0", "inf")])
    def test_bad_centroid_names_file_and_line(self, tmp_path, lat, lon):
        poi, trj, _ = two_region_files(tmp_path)
        cen = write(tmp_path / "cen.csv",
                    f"region,lat,lon\n0,0.0,0.0\n1,{lat},{lon}\n")
        with pytest.raises(DataError, match=re.escape(f"{cen}:3: centroid")):
            rd.load_dataset(poi, trj, cen)

    def test_poles_and_any_finite_longitude_load(self, tmp_path):
        poi, trj, _ = two_region_files(tmp_path)
        cen = write(tmp_path / "cen.csv",
                    "region,lat,lon\n0,-90,540.0\n1,90,-200.0\n")
        ds = rd.load_dataset(poi, trj, cen)
        assert ds.dist.centroids.tolist() == [[-90.0, 540.0], [90.0, -200.0]]

    @pytest.mark.parametrize("index", range(4), ids=[
        "poi", "trajectories", "centroids", "targets"])
    def test_short_row_names_file_and_line(self, tmp_path, index):
        files = [*two_region_files(tmp_path), write(
            tmp_path / "tgt.csv", "region,task,slot,value\n"
                                  "0,house_price,-1,90.0\n"
                                  "1,house_price,-1,100.0\n")]
        lines = Path(files[index]).read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        write(Path(files[index]), "\n".join(lines) + "\n")
        width = lines[0].count(",") + 1
        with pytest.raises(DataError, match=re.escape(
                f"{files[index]}:{len(lines)}: expected {width} fields, "
                f"got {width - 1}")):
            rd.load_dataset(*files)

    @pytest.mark.parametrize("trip,message", [
        ("0,2,0,0", "region index out of range: 2 (I=2)"),
        ("-1,0,0,0", "region index out of range: -1 (I=2)"),
        ("0,1,1,0", "bad slot range (1, 0)"),
        ("0,1,-1,0", "bad slot range (-1, 0)"),
    ], ids=["dst-too-high", "src-negative", "end-before-start",
            "start-negative"])
    def test_first_bad_trip_names_file_and_line(self, tmp_path, trip,
                                                message):
        poi, trj, cen = two_region_files(
            tmp_path, traj=f"src,dst,t_start,t_end\n0,1,0,0\n{trip}\n"
                           f"5,0,0,0\n")
        with pytest.raises(DataError, match=re.escape(f"{trj}:3: {message}")):
            rd.load_dataset(poi, trj, cen)

    def test_poi_file_without_regions_names_it(self, tmp_path):
        poi, trj, cen = two_region_files(tmp_path)
        write(Path(poi), "region,cat_0,cat_1,cat_2\n")
        with pytest.raises(DataError, match=re.escape(f"{poi}: no region")):
            rd.load_dataset(poi, trj, cen)

    @pytest.mark.parametrize("count", [
        "-1", "9223372036854775808", "100000000000000000000"])
    def test_poi_count_outside_int64_names_file_and_line(self, tmp_path,
                                                         count):
        poi, trj, cen = two_region_files(tmp_path)
        write(Path(poi), f"region,cat_0,cat_1,cat_2\n0,1,2,3\n"
                              f"1,0,{count},0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{poi}:3: POI count {count} is negative or too large")):
            rd.load_dataset(poi, trj, cen)

    def test_poi_count_at_int64_max_loads(self, tmp_path):
        poi, trj, cen = two_region_files(tmp_path)
        write(Path(poi), f"region,cat_0\n0,{2 ** 63 - 1}\n1,0\n")
        assert rd.load_dataset(poi, trj, cen).poi.counts[0, 0] == 2 ** 63 - 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_target_names_file_and_line(self, tmp_path, value):
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv",
                    f"region,task,slot,value\n0,house_price,-1,90.0\n"
                    f"1,house_price,-1,{value}\n")
        with pytest.raises(DataError, match=re.escape(
                f"{tgt}:3: non-finite value {value!r}")):
            rd.load_dataset(poi, trj, cen, tgt)

    @pytest.mark.parametrize("dropped,message", [
        (["1,house_price,-1,"], "task 'house_price' has no value for "
                                "region 1"),
        (["2,traffic,3,"], "task 'traffic' has no value for region 2 slot 3 "
                           "of the T=4 slots"),
        (["0,crime,0,", "1,house_price,-1,"], "task 'crime' has no value for "
                                              "region 0 slot 0 of the T=4"),
    ], ids=["static", "slotted", "first-task-named"])
    def test_target_gap_names_task_and_first_missing_cell(
            self, tmp_path, dropped, message):
        """A cell the targets omit used to load as 0.0. The check counts
        cells, so it holds in any row order."""
        rd.write_dataset(rd.synth_dataset(rd.SynthConfig(
            n_regions=3, n_slots=4, n_trips=20, n_clusters=1, seed=0)),
            str(tmp_path))
        path = tmp_path / rd.TARGETS_FILE
        header, *rows = path.read_text().splitlines()
        rows = [row for row in rows if not row.startswith(tuple(dropped))]
        for order in (rows, rows[::-1]):
            write(path, "\n".join([header, *order]) + "\n")
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: {message}")):
                rd.load_dataset_dir(str(tmp_path))

    def test_far_target_slot_is_a_gap_not_an_allocation(self, tmp_path):
        """One far slot implies T = 10**11 + 1; the gap is named without
        allocating the I x T grid."""
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv", "region,task,slot,value\n"
                                          "0,crime,0,1.0\n"
                                          "0,crime,100000000000,1.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{tgt}: task 'crime' has no value for region 0 slot 1 of "
                f"the T=100000000001 slots")):
            rd.load_dataset(poi, trj, cen, tgt)

    def test_target_slot_past_int64_is_a_gap(self, tmp_path):
        """A slot past int64 is a valid slot number: it sets T and leaves
        a gap, and is not taken for a negative or wrapped one."""
        poi, trj, cen = two_region_files(tmp_path)
        tgt = write(tmp_path / "tgt.csv", "region,task,slot,value\n"
                    "0,crime,100000000000000000000,1.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"{tgt}: task 'crime' has no value for region 0 slot 0 of "
                f"the T=100000000000000000001 slots")):
            rd.load_dataset(poi, trj, cen, tgt)

    @pytest.mark.parametrize("index,row,message", [
        (0, "1,0,x,0", "bad integer for cat_1: 'x'"),
        (0, "0,0,4,0", "duplicate region 0"),
        (1, "0,y,0,0", "bad integer for dst: 'y'"),
        (2, "1,north,1.0", "bad number for lat: 'north'"),
        (2, "0,0.0,1.0", "duplicate region 0"),
        (3, "1,crime,0.5,1.0", "bad integer for slot: '0.5'"),
        (3, "1,house_price,-1,abc", "bad number for value: 'abc'"),
    ], ids=["poi-count", "poi-duplicate", "trip-dst", "centroid-lat",
            "centroid-duplicate", "target-slot", "target-value"])
    def test_bad_last_row_names_file_line_and_fault(self, tmp_path, index,
                                                    row, message):
        files = [*two_region_files(tmp_path), write(
            tmp_path / "tgt.csv", "region,task,slot,value\n"
                                  "0,house_price,-1,90.0\n"
                                  "1,house_price,-1,100.0\n")]
        lines = Path(files[index]).read_text().splitlines()
        lines[-1] = row
        write(Path(files[index]), "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"{files[index]}:{len(lines)}: {message}")):
            rd.load_dataset(*files)

    @pytest.mark.parametrize("poi,centroids,message", [
        ("0,-1\n1,0\n1,0\n", "0,0,0\n1,0,0\n2,0,0\n",
         "poi.csv:2: POI count -1 is negative"),
        ("0,0\n1,0\n", "0,95,0\n5,0,0\n", "cen.csv:2: centroid needs"),
        ("0,0\n1,0\n", "0,0,0\n5,0,0\n0,0,0\n",
         "cen.csv:3: region index out of range: 5 (I=3)"),
        ("0,0\n1,0\n", "0,0,0\n1,nan,0\n2,0,0\n", "cen.csv:3: centroid needs"),
    ], ids=["count-before-duplicate", "latitude-before-range",
            "range-before-duplicate", "coordinate-before-count-mismatch"])
    def test_first_bad_row_of_a_region_file_is_named(self, tmp_path, poi,
                                                     centroids, message):
        """Each row is checked against every rule of its file, and the
        first row that breaks one is named."""
        _, trj, _ = two_region_files(tmp_path)
        files = (write(tmp_path / "poi.csv", "region,cat_0\n" + poi), trj,
                 write(tmp_path / "cen.csv", "region,lat,lon\n" + centroids))
        with pytest.raises(DataError, match=re.escape(message)):
            rd.load_dataset(*files)

    @pytest.mark.parametrize("name,text,message", [
        ("traj.csv", "src,dst,t_start,t_end\n0,5,0,0\n0,x,0,0\n",
         "traj.csv:3: bad integer for dst: 'x'"),
        ("tgt.csv", "region,task,slot,value\n0,rainfall,0,1.0\n"
                    "1,crime,0,high\n", "tgt.csv:3: bad number for value"),
        ("tgt.csv", "region,task,slot,value\n0,rainfall,one,1.0\n",
         "tgt.csv:2: bad integer for slot: 'one'"),
    ], ids=["trip", "target", "target-same-row"])
    def test_unparsable_field_beats_an_earlier_bad_row(self, tmp_path, name,
                                                       text, message):
        files = [*two_region_files(tmp_path), None]
        files[1 if name == "traj.csv" else 3] = write(tmp_path / name, text)
        with pytest.raises(DataError, match=re.escape(message)):
            rd.load_dataset(*files)

    def test_permuted_rows_load_to_the_same_dataset(self, tmp_path):
        """Row order carries no meaning but the trips' own order: a bundle
        with every file's rows shuffled loads to the same arrays, and to
        the trips in their shuffled order."""
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=12, n_slots=5,
                                             n_trips=200, n_clusters=2,
                                             seed=3))
        rd.write_dataset(ds, str(tmp_path))
        rng = np.random.default_rng(0)
        orders = {}
        for name in (rd.POI_FILE, rd.TRAJ_FILE, rd.CENTROID_FILE,
                     rd.TARGETS_FILE):
            header, *rows = (tmp_path / name).read_text().splitlines()
            orders[name] = rng.permutation(len(rows))
            write(tmp_path / name, "\n".join(
                [header, *(rows[i] for i in orders[name])]) + "\n")
        assert not np.array_equal(orders[rd.TARGETS_FILE],
                                  np.arange(len(orders[rd.TARGETS_FILE])))
        back = rd.load_dataset_dir(str(tmp_path))
        assert back.T == ds.T
        assert np.array_equal(back.poi.counts, ds.poi.counts)
        assert np.array_equal(back.trajectories,
                              ds.trajectories[orders[rd.TRAJ_FILE]])
        assert np.array_equal(back.dist.centroids, ds.dist.centroids)
        assert np.array_equal(back.dist.km, ds.dist.km)
        assert sorted(back.targets) == sorted(ds.targets)
        for task in ds.targets:
            assert np.array_equal(back.targets[task], ds.targets[task]), task

    def test_mutated_bundles_load_as_the_row_by_row_reference(self, tmp_path):
        """Seeded edits of a valid bundle: a field replaced by a token that
        breaks some rule or none, a row repeated, a row dropped, up to three
        per bundle. The loader gives the reference's error text, or its
        arrays, byte for byte."""
        tokens = ["x", "-1", "0", "1", "2", "5", "-91", "95", "0.5", "1e999",
                  "nan", "inf", "9223372036854775808", "100000000000000000000",
                  "+1", " 2", "1_0", "crime", "traffic", "house_price",
                  "rainfall"]
        names = [rd.POI_FILE, rd.TRAJ_FILE, rd.CENTROID_FILE, rd.TARGETS_FILE]
        rng = np.random.default_rng(0)
        outcomes = set()
        for case in range(300):
            data = tmp_path / str(case)
            rd.write_dataset(rd.synth_dataset(rd.SynthConfig(
                n_regions=3, n_categories=2, n_slots=2, n_trips=4,
                n_clusters=1, seed=case)), str(data))
            for _ in range(rng.integers(1, 4)):
                path = data / names[rng.integers(4)]
                header, *rows = path.read_text().splitlines()
                i, edit = rng.integers(len(rows)), rng.integers(5)
                if edit < 3:
                    fields = rows[i].split(",")
                    fields[rng.integers(len(fields))] = \
                        tokens[rng.integers(len(tokens))]
                    rows[i] = ",".join(fields)
                elif edit == 3:
                    rows.insert(rng.integers(len(rows) + 1), rows[i])
                elif len(rows) > 1:
                    del rows[i]
                write(path, "\n".join([header, *rows]) + "\n")
            files = [str(data / name) for name in names]
            if case % 4 == 0:
                files[3] = None
            try:
                want = reference_load(*files)
            except DataError as e:
                with pytest.raises(DataError) as err:
                    rd.load_dataset(*files)
                assert str(err.value) == str(e), case
                outcomes.add(" ".join(re.sub(r"\S*\.csv\S*|\d+", "",
                                             str(e)).split()[:2]))
                continue
            got = rd.load_dataset(*files)
            assert got.T == want.T, case
            for a, b in [(got.poi.counts, want.poi.counts),
                         (got.trajectories, want.trajectories),
                         (got.dist.km, want.dist.km),
                         *((got.targets[t], want.targets[t])
                           for t in want.targets)]:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
            assert got.targets.keys() == want.targets.keys(), case
            outcomes.add("loaded")
        assert len(outcomes) >= 12, outcomes


class TestCrimeDensity:
    """``density_table`` bins each region by the share of its slots with
    any crime; with predictions that miss one region by 1, only that
    region's bin has a nonzero MAE."""

    @staticmethod
    def bins_of(ds, region):
        y = ds.targets["crime"].sum(axis=1)
        pred = y.copy()
        pred[region] += 1.0
        table = density_table(ds, {("FULL", 0): {"crime": (pred, None)}})
        return [label for label, m in table["FULL"].items() if m.mae > 0]

    def test_handcrafted_sequences(self):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=4, n_clusters=1,
                                             n_trips=10, n_slots=4, seed=0))
        ds.targets["crime"] = np.array([[1.0, 0.0, 3.0, 0.0],
                                        [0.0, 0.0, 0.0, 0.0],
                                        [2.0, 2.0, 2.0, 2.0],
                                        [0.0, 0.0, 0.0, 1.0]])
        # densities 0.5, 0, 1 and 0.25
        assert self.bins_of(ds, 0) == ["(0.25,0.50]"]
        assert self.bins_of(ds, 1) == []
        assert self.bins_of(ds, 2) == ["(0.50,1.00]"]
        assert self.bins_of(ds, 3) == ["(0.00,0.25]"]

    def test_matches_direct_count_oracle(self):
        ds = rd.synth_dataset(rd.SynthConfig(seed=5))
        for r in range(ds.n_regions):
            share = sum(1 for v in ds.targets["crime"][r] if v != 0) / ds.T
            want = [label for label, lo, hi in DENSITY_BINS
                    if lo < share <= hi]
            assert self.bins_of(ds, r) == want, r


def gini(x):
    """Mean absolute difference Gini, independent of the package."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


class TestSynth:
    def test_shapes_and_validation(self):
        cfg = rd.SynthConfig(n_regions=30, n_categories=8, n_slots=5,
                             n_trips=500, n_clusters=3, seed=2)
        ds = rd.synth_dataset(cfg)
        assert ds.poi.counts.shape == (30, 8)
        assert ds.T == 5
        assert len(ds.trajectories) == 500
        assert ds.targets["crime"].shape == (30, 5)
        assert ds.targets["traffic"].shape == (30, 5)
        assert ds.targets["house_price"].shape == (30,)

    def test_no_skew_gives_near_uniform_sources(self):
        cfg = rd.SynthConfig(n_regions=50, n_trips=10000, noise_rate=0.0,
                             skew_exponent=0.0, n_clusters=1, seed=0)
        ds = rd.synth_dataset(cfg)
        counts = np.bincount(ds.trajectories[:, 0], minlength=50)
        assert counts.max() / counts.min() < 3.0

    def test_skew_gives_high_gini(self):
        cfg = rd.SynthConfig(n_regions=50, n_trips=10000, skew_exponent=1.5,
                             n_clusters=3, seed=0)
        ds = rd.synth_dataset(cfg)
        counts = np.bincount(ds.trajectories[:, 0], minlength=50)
        assert gini(counts) > 0.4

    def test_clean_trips_stay_in_their_cluster(self):
        """At noise_rate=0 every trip ends in its source's planted cluster
        (region i is in cluster i*K // I), and with enough trips every
        region of each uneven cluster is reached."""
        cfg = rd.SynthConfig(n_regions=25, n_trips=3000, noise_rate=0.0,
                             n_clusters=4, seed=1)
        traj = rd.synth_dataset(cfg).trajectories
        cluster = np.arange(25) * 4 // 25
        assert np.array_equal(cluster[traj[:, 1]], cluster[traj[:, 0]])
        assert set(traj[:, 1]) == set(range(25))

    def test_same_seed_byte_identical_serialization(self, tmp_path):
        cfg = rd.SynthConfig(seed=9)
        for d in ("a", "b"):
            rd.write_dataset(rd.synth_dataset(cfg), str(tmp_path / d))
        for name in (rd.POI_FILE, rd.TRAJ_FILE, rd.CENTROID_FILE,
                     rd.TARGETS_FILE):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_roundtrip_through_csv(self, tmp_path):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=12, n_trips=200,
                                             n_clusters=2, seed=3))
        rd.write_dataset(ds, str(tmp_path))
        back = rd.load_dataset_dir(str(tmp_path))
        assert np.array_equal(back.poi.counts, ds.poi.counts)
        assert np.array_equal(back.trajectories, ds.trajectories)
        assert np.array_equal(back.dist.centroids, ds.dist.centroids)
        assert back.T == ds.T
        for task in ds.targets:
            assert np.array_equal(back.targets[task], ds.targets[task]), task

    @pytest.mark.parametrize("n_trips", [0, 1, 300])
    def test_trip_array_round_trips_exactly(self, tmp_path, n_trips):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=12, n_trips=n_trips,
                                             n_clusters=2, seed=4))
        assert ds.trajectories.shape == (n_trips, 4)
        assert ds.trajectories.dtype == np.int64
        rd.write_dataset(ds, str(tmp_path))
        back = rd.load_dataset_dir(str(tmp_path))
        assert back.trajectories.dtype == np.int64
        assert back.trajectories.shape == (n_trips, 4)
        assert np.array_equal(back.trajectories, ds.trajectories)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            rd.synth_dataset(rd.SynthConfig(n_regions=2, n_clusters=3))
        with pytest.raises(ConfigError):
            rd.synth_dataset(rd.SynthConfig(noise_rate=1.5))
        with pytest.raises(ConfigError):
            rd.synth_dataset(rd.SynthConfig(skew_exponent=-0.1))

    def test_trips_mostly_intra_cluster_without_noise(self):
        cfg = rd.SynthConfig(n_regions=30, n_trips=2000, noise_rate=0.0,
                             n_clusters=3, seed=4)
        ds = rd.synth_dataset(cfg)
        cl = rd.cluster_assignment(30, 3)
        intra = sum(1 for s, d, _, _ in ds.trajectories if cl[s] == cl[d])
        assert intra == len(ds.trajectories)

    def test_noise_rewires_some_trips(self):
        cfg = rd.SynthConfig(n_regions=30, n_trips=2000, noise_rate=0.3,
                             n_clusters=3, seed=4)
        ds = rd.synth_dataset(cfg)
        cl = rd.cluster_assignment(30, 3)
        inter = sum(1 for s, d, _, _ in ds.trajectories if cl[s] != cl[d])
        # 30% rewired uniformly over 3 clusters -> ~20% land outside
        assert 0.10 < inter / len(ds.trajectories) < 0.30

    def test_slot_ordering_invariant(self):
        ds = rd.synth_dataset(rd.SynthConfig(seed=6))
        for _, _, t_start, t_end in ds.trajectories:
            assert 0 <= t_start <= t_end < ds.T


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-89, max_value=89),
       st.floats(min_value=-179, max_value=179),
       st.floats(min_value=-89, max_value=89),
       st.floats(min_value=-179, max_value=179))
def test_haversine_symmetric_nonnegative(lat1, lon1, lat2, lon2):
    d1 = rd.haversine_km(lat1, lon1, lat2, lon2)
    d2 = rd.haversine_km(lat2, lon2, lat1, lon1)
    assert d1 >= 0.0
    assert abs(d1 - d2) < 1e-9
