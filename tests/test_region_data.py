"""Tests for data loading, validation, synthesis, and distances.

The equator-arc haversine value below was computed independently as
R * pi/180 with R = 6371.0 before being frozen here. The Gini coefficient
oracle is the mean-absolute-difference formula, implemented in this file
without reference to the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from regioncl import region_data as rd
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
        assert ds.n_categories == 3
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
        tgt = write(tmp_path / "tgt.csv",
                    "region,task,slot,value\n0,crime,5,2.0\n"
                    "1,house_price,-1,100.0\n")
        ds = rd.load_dataset(poi, trj, cen, tgt)
        assert ds.T == 6
        assert ds.targets["crime"][0, 5] == 2.0
        assert ds.targets["house_price"][1] == 100.0

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


class TestValidate:
    @pytest.mark.parametrize("trip,message", [
        ((0, 2, 0, 0), r"^region index out of range: 2 \(I=2\)$"),
        ((-1, 0, 0, 0), r"^region index out of range: -1 \(I=2\)$"),
        ((0, 1, 1, 0), r"^bad slot range \(1, 0\) with T=3$"),
        ((0, 1, -1, 0), r"^bad slot range \(-1, 0\) with T=3$"),
        ((0, 1, 0, 3), r"^bad slot range \(0, 3\) with T=3$"),
    ])
    def test_bad_trip_named_in_message(self, trip, message):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=2, n_slots=3,
                                             n_trips=5, n_clusters=1, seed=0))
        ds.trajectories = np.vstack([ds.trajectories, [trip, (1, 1, 2, 2)]])
        with pytest.raises(DataError, match=message):
            rd.validate(ds)

    def test_first_bad_trip_is_named(self):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=3, n_slots=2,
                                             n_trips=0, n_clusters=1, seed=0))
        ds.trajectories = np.array([[0, 1, 0, 1], [1, 7, 0, 0],
                                    [5, 0, 0, 0]])
        with pytest.raises(DataError, match=r"out of range: 7 \(I=3\)"):
            rd.validate(ds)

    def test_trips_must_have_four_columns(self):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=2, n_trips=3,
                                             n_clusters=1, seed=0))
        ds.trajectories = ds.trajectories[:, :3]
        with pytest.raises(DataError, match=r"\(N, 4\) array"):
            rd.validate(ds)


class TestCrimeDensity:
    def test_handcrafted_sequences(self):
        ds = rd.synth_dataset(rd.SynthConfig(n_regions=4, n_clusters=1,
                                             n_trips=10, n_slots=4, seed=0))
        ds.targets["crime"] = np.array([[1.0, 0.0, 3.0, 0.0],
                                        [0.0, 0.0, 0.0, 0.0],
                                        [2.0, 2.0, 2.0, 2.0],
                                        [0.0, 0.0, 0.0, 1.0]])
        assert rd.crime_density(ds, 0) == 0.5
        assert rd.crime_density(ds, 1) == 0.0
        assert rd.crime_density(ds, 2) == 1.0
        assert rd.crime_density(ds, 3) == 0.25

    def test_matches_direct_count_oracle(self):
        ds = rd.synth_dataset(rd.SynthConfig(seed=5))
        for r in range(ds.n_regions):
            want = sum(1 for v in ds.targets["crime"][r] if v != 0) / ds.T
            assert rd.crime_density(ds, r) == want

    def test_missing_targets_rejected(self):
        ds = rd.synth_dataset(rd.SynthConfig(seed=1))
        ds.targets.pop("crime")
        with pytest.raises(DataError, match="crime targets not present"):
            rd.crime_density(ds, 0)


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
        rd.validate(ds)

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
