"""Tests for data loading, validation, synthesis, and distances.

The equator-arc haversine value below was computed independently as
R * pi/180 with R = 6371.0 before being frozen here. The Gini coefficient
oracle is the mean-absolute-difference formula, implemented in this file
without reference to the package.
"""

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
