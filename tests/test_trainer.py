"""Training loop: determinism, variants, export format."""

import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from regioncl import trainer, view_generator
from regioncl.errors import ConfigError, DataError, TrainingAborted
from regioncl.hetero_graph import (RelationType, build_mobility_graph,
                                   canonical_edges, normalized_adjacency)
from regioncl.numcore import Tensor
from regioncl.poi_embedding import SkipgramConfig
from regioncl.region_data import SynthConfig, synth_dataset
from regioncl.trainer import (TrainConfig, config_hash, export_embeddings,
                              load_embeddings, region_embeddings, train,
                              write_loss_csv)
from regioncl.view_generator import ViewGenConfig


@pytest.fixture(scope="module")
def ds8():
    return synth_dataset(SynthConfig(n_regions=8, n_categories=6, n_slots=2,
                                     n_trips=120, n_clusters=2, seed=1))


@pytest.fixture(scope="module")
def ds72():
    """72 nodes: its views have about 70 rows, so at tau = 0.5 the loss
    floor (about 35) clears the reward bar; ds8's views (about 20 rows)
    have a floor of 0."""
    return synth_dataset(SynthConfig(n_regions=24, n_categories=6, n_slots=2,
                                     n_trips=400, n_clusters=2, seed=1))


def small_cfg(**overrides):
    kw = dict(epochs=3, d=8, heads=2, n_layers=2,
              skipgram=SkipgramConfig(d_sg=8, epochs=40, seed=3), seed=7)
    kw.update(overrides)
    return TrainConfig(**kw)


@pytest.fixture(scope="module")
def model8(ds8):
    return train(ds8, small_cfg())


def spy_adam_steps(monkeypatch) -> list:
    """(Adam state, parameter-name prefixes) of every trainer Adam step."""
    steps, original = [], trainer.adam_step

    def spy(state, params, grads):
        steps.append((state, {name.split(".")[0] for name in params}))
        return original(state, params, grads)
    monkeypatch.setattr(trainer, "adam_step", spy)
    return steps


ENCODER = {"poi_mlp", "attn", "hgnn"}
SAMPLERS = {"vgae1", "vgae2"}


class TestConfigValidation:
    def test_epochs_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_lr_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    def test_distance_threshold_must_be_positive(self):
        # rejected when built, not after skip-gram training in build_graph
        for eps_d in (0.0, -1.0):
            with pytest.raises(ConfigError, match="eps_d"):
                TrainConfig(eps_d=eps_d)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            TrainConfig(variant="BOGUS")

    def test_fewer_than_two_view_seeds_rejected_before_any_work(
            self, monkeypatch):
        # n = 2 * (1 + 2) = 6 nodes: round(0.1 * 6) = 1 shared seed
        ds = synth_dataset(SynthConfig(n_regions=2, n_categories=4,
                                       n_slots=2, n_trips=30, n_clusters=2,
                                       seed=2))
        few = small_cfg(epochs=1, view=ViewGenConfig(seed_frac=0.1))

        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        with monkeypatch.context() as m:
            m.setattr("regioncl.trainer.train_skipgram", no_work)
            m.setattr("regioncl.trainer.build_graph", no_work)
            with pytest.raises(ConfigError, match="seed_frac"):
                train(ds, few)
        # RANDOM_AUG views share every node, so seed_frac does not matter
        aug = small_cfg(epochs=1, view=ViewGenConfig(seed_frac=0.1),
                        variant="RANDOM_AUG")
        assert len(train(ds, aug).history) == 1

    def test_city_without_mobility_edges_rejected_before_any_work(
            self, monkeypatch):
        # one slot and every trip inside its region: no mobility edge, while
        # round(0.5 * 4) = 2 shared seeds pass the view check
        ds = synth_dataset(SynthConfig(n_regions=2, n_categories=4,
                                       n_slots=1, n_trips=30, n_clusters=2,
                                       seed=2))
        graph = build_mobility_graph(ds.trajectories, ds.n_regions, ds.T)
        assert len(ds.trajectories) and graph.shape == (0, 2)
        cfg = small_cfg(epochs=1, view=ViewGenConfig(seed_frac=0.5))

        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        with monkeypatch.context() as m:
            m.setattr("regioncl.trainer.train_skipgram", no_work)
            m.setattr("regioncl.trainer.build_graph", no_work)
            for variant in ("FULL", "RANDOM_AUG"):
                with pytest.raises(DataError, match="mobility"):
                    train(ds, replace(cfg, variant=variant))


class TestTrainLoop:
    def test_history_length_matches_epochs(self, model8):
        assert len(model8.history) == 3
        assert [r.epoch for r in model8.history] == [1, 2, 3]

    def test_losses_finite_and_positive(self, model8):
        for r in model8.history:
            for value in (r.l_nce, r.l_bn, r.loss, r.l_rec1, r.l_rec2):
                assert np.isfinite(value)
            assert r.loss > 0.0

    def test_loss_is_stated_mixture(self, model8):
        beta = model8.cfg.loss.beta
        for r in model8.history:
            assert r.loss == pytest.approx(
                beta * r.l_nce + (1.0 - beta) * r.l_bn, rel=1e-12)

    def test_deterministic_bit_identical(self, ds8, model8):
        again = train(ds8, small_cfg())
        assert np.array_equal(model8.H, again.H)
        assert model8.history == again.history
        for name, t in model8.tape.params.items():
            assert np.array_equal(t.data, again.tape[name].data)

    def test_seed_changes_result(self, ds8, model8):
        other = train(ds8, small_cfg(seed=8))
        assert not np.array_equal(model8.H, other.H)

    def test_one_epoch_on_six_node_dataset(self):
        ds = synth_dataset(SynthConfig(n_regions=2, n_categories=4,
                                       n_slots=2, n_trips=30, n_clusters=2,
                                       seed=2))
        model = train(ds, small_cfg(epochs=1))
        assert model.graph.n_nodes == 6
        assert len(model.history) == 1

    def test_both_optimizers_step_every_epoch(self, ds8, monkeypatch):
        steps = spy_adam_steps(monkeypatch)
        train(ds8, small_cfg())
        assert [groups for _, groups in steps] == [ENCODER, SAMPLERS] * 3
        encoder_opt, sampler_opt = steps[0][0], steps[1][0]
        assert encoder_opt is not sampler_opt
        assert encoder_opt.step_count == sampler_opt.step_count == 3

    def test_parameter_groups_partition_tape(self, model8):
        names = set(model8.tape.params)
        enc = {n for n in names if n.split(".")[0] in ENCODER}
        smp = {n for n in names if n.split(".")[0] in SAMPLERS}
        assert enc | smp == names
        assert not enc & smp
        assert enc and smp

    def test_precomputed_table_matches_internal(self, ds8, model8):
        reused = train(ds8, small_cfg(), table=model8.table)
        assert np.array_equal(model8.H, reused.H)

    def test_nan_loss_aborts_with_diagnostics(self, ds8, monkeypatch):
        monkeypatch.setattr("regioncl.trainer.info_nce",
                            lambda views, tau: Tensor(np.nan))
        with pytest.raises(TrainingAborted, match=r"epoch 1.*L_NCE"):
            train(ds8, small_cfg(epochs=1))


def assert_canonical(edges, n_nodes):
    """An int64 (E, 2) array of in-range rows u < v, strictly increasing in
    lexicographic order (so unique and sorted)."""
    assert isinstance(edges, np.ndarray) and edges.dtype == np.int64
    assert edges.ndim == 2 and edges.shape[1] == 2
    u, v = edges[:, 0], edges[:, 1]
    assert np.all(0 <= u) and np.all(u < v) and np.all(v < n_nodes)
    a, b = edges[:-1], edges[1:]
    assert np.all((a[:, 0] < b[:, 0])
                  | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1])))


class TestEdgeArrays:
    # calls of one epoch: FULL samples two views from one candidate set and
    # drops InfoBN edges from each; RANDOM_AUG makes each of its two views
    # with one drop as well
    CALLS = {"FULL": {"candidate_pairs": 1, "sparsify": 2,
                      "random_walk_sample": 2, "drop_edges": 2},
             "RANDOM_AUG": {"_random_aug_views": 1, "drop_edges": 4}}

    @pytest.mark.parametrize("variant", sorted(CALLS))
    def test_every_edge_array_is_canonical(self, ds8, monkeypatch, variant):
        outputs = {name: [] for name in self.CALLS[variant]}
        owners = {"candidate_pairs": view_generator,
                  "sparsify": view_generator,
                  "random_walk_sample": view_generator,
                  "drop_edges": trainer, "_random_aug_views": trainer}

        def spy(name):
            original = getattr(owners[name], name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                outputs[name].append(out)
                return out
            monkeypatch.setattr(owners[name], name, wrapper)

        for name in outputs:
            spy(name)
        model = train(ds8, small_cfg(epochs=1, variant=variant))
        n = model.graph.n_nodes

        assert {k: len(v) for k, v in outputs.items()} \
            == self.CALLS[variant]
        views = (outputs.get("random_walk_sample", [])
                 + [v for pair in outputs.get("_random_aug_views", [])
                    for v in pair])
        assert len(views) == 2
        arrays = (list(model.graph.edges.values())
                  + [model.graph.union]
                  + outputs.get("candidate_pairs", [])
                  + outputs.get("sparsify", [])
                  + outputs["drop_edges"] + [v.edges for v in views])
        for edges in arrays:
            assert_canonical(edges, n)
        for view in views:
            assert view.nodes.dtype == np.int64
            assert np.all(np.diff(view.nodes) > 0)
            assert np.isin(view.edges, view.nodes).all()


class TestViewAdjacency:
    """A view's edges reach its Â through the rank of each endpoint."""

    N = 40

    def view(self, seed):
        rng = np.random.default_rng(seed)
        nodes = np.flatnonzero(rng.random(self.N) < 0.6)
        edges = canonical_edges(rng.choice(nodes, size=(3 * self.N, 2)),
                                self.N)
        return nodes, edges

    def test_adjacency_equals_searchsorted_remap(self):
        for seed in range(5):
            nodes, edges = self.view(seed)
            got = trainer.view_adjacency(self.N, nodes, edges)
            want = normalized_adjacency(len(nodes),
                                        np.searchsorted(nodes, edges))
            for field in ("indptr", "indices", "values"):
                assert getattr(got, field).tobytes() \
                    == getattr(want, field).tobytes()

    def test_endpoint_outside_view_rejected(self):
        nodes, edges = self.view(5)
        outside = np.setdiff1d(np.arange(self.N), nodes)[0]
        stray = np.concatenate([edges, [[nodes[0], outside]]])
        with pytest.raises(DataError, match="out of range"):
            trainer.view_adjacency(self.N, nodes, stray)


class TestVariants:
    def test_no_gp_removes_poi_edges_and_weights(self, ds8):
        model = train(ds8, small_cfg(variant="NO_GP", epochs=1))
        assert len(model.graph.edges[RelationType.POI]) == 0
        assert len(model.graph.edges[RelationType.MOBILITY]) > 0
        assert "hgnn.l0.poi" not in model.tape.params
        assert "hgnn.l0.mobility" in model.tape.params
        assert RelationType.POI not in model.graph.adj

    def test_no_gd_removes_distance_edges_and_weights(self, ds8):
        model = train(ds8, small_cfg(variant="NO_GD", epochs=1))
        assert len(model.graph.edges[RelationType.DISTANCE]) == 0
        assert "hgnn.l0.distance" not in model.tape.params
        assert RelationType.DISTANCE not in model.graph.adj

    def test_no_infomin_pins_reward(self, ds8, monkeypatch):
        steps = spy_adam_steps(monkeypatch)
        model = train(ds8, small_cfg(variant="NO_INFOMIN"))
        assert all(r.reward == 1.0 for r in model.history)
        # samplers still train, on the unweighted reconstruction loss
        assert [groups for _, groups in steps] == [ENCODER, SAMPLERS] * 3
        assert steps[1][0].step_count == 3

    def test_random_aug_has_no_samplers(self, ds8, monkeypatch):
        steps = spy_adam_steps(monkeypatch)
        model = train(ds8, small_cfg(variant="RANDOM_AUG"))
        assert [groups for _, groups in steps] == [ENCODER] * 3
        assert not any(n.startswith("vgae") for n in model.tape.params)
        for r in model.history:
            assert r.reward == 1.0
            assert r.l_rec1 == 0.0 and r.l_rec2 == 0.0

    def test_full_differs_from_ablations(self, ds8, model8):
        for variant in ("NO_GP", "NO_GD", "RANDOM_AUG"):
            other = train(ds8, small_cfg(variant=variant))
            assert not np.array_equal(model8.H, other.H)


class TestRewardFloor:
    def test_floor_path_gives_the_full_reward_forwards_bits(self, ds72,
                                                            monkeypatch):
        """On ds72 the loss floor decides R1, so the reward skips its
        contrastive_loss; with the floor pinned to 0 it runs it. History
        and embeddings carry the same bits either way."""
        calls, contrastive_loss = [], trainer.contrastive_loss

        def spy(*args):
            calls.append(args)
            return contrastive_loss(*args)

        monkeypatch.setattr(trainer, "contrastive_loss", spy)
        floored = train(ds72, small_cfg())
        assert len(calls) == 3
        monkeypatch.setattr(trainer, "overall_loss_floor", lambda *a: 0.0)
        full = train(ds72, small_cfg())
        assert len(calls) == 3 + 6

        def bits(model):
            return np.array([astuple(r) for r in model.history]).tobytes()

        assert bits(floored) == bits(full)
        assert floored.H.tobytes() == full.H.tobytes()


class TestForwardOnlyPasses:
    # per encode call of a one-epoch run, in order, whether it keeps a graph:
    # the full-graph encode for the samplers (not under RANDOM_AUG, which
    # never reads it), 4 view encodes for the step, those for the reward
    # (only with InfoMin: 4, or the 2 plain views where the loss floor
    # decides R1, as on ds72), and the export
    RECORDED = {"FULL": [False] + [True] * 4 + [False] * 4 + [False],
                "FULL-floor": [False] + [True] * 4 + [False] * 2 + [False],
                "NO_INFOMIN": [False] + [True] * 4 + [False],
                "RANDOM_AUG": [True] * 4 + [False]}

    @staticmethod
    def run(case, ds8, ds72, epochs):
        variant, _, floor = case.partition("-")
        return train(ds72 if floor else ds8,
                     small_cfg(epochs=epochs, variant=variant))

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_only_the_encoder_step_keeps_a_graph(self, ds8, ds72,
                                                  monkeypatch, case):
        recorded = []

        def spy(*args, **kwargs):
            out = encode(*args, **kwargs)
            recorded.append(out.vjp is not None)
            return out

        encode = trainer.encode
        monkeypatch.setattr(trainer, "encode", spy)
        self.run(case, ds8, ds72, epochs=1)
        assert recorded == self.RECORDED[case]

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_no_graph_outlives_its_step(self, ds8, ds72, monkeypatch, case):
        """Each sampler graph (its edge scores) is gone when the next views
        are drawn, and each loss graph (its root) when the next backward
        starts or the next views are drawn."""
        scores, roots, verdicts = [], [], []

        def audit(*groups):
            verdicts.append([ref() is not None
                             for refs in groups for ref in refs])
            for refs in groups:
                refs.clear()

        def views_spy(make):
            def spy(*args, **kwargs):
                audit(scores, roots)
                out = make(*args, **kwargs)
                if hasattr(out, "sampling"):
                    scores.extend(weakref.ref(P.scores.data)
                                  for P in out.sampling)
                return out
            return spy

        def backward_spy(tape, loss):
            audit(roots)
            roots.append(weakref.ref(loss.data))
            return backward(tape, loss)

        backward = trainer.backward
        monkeypatch.setattr(trainer, "backward", backward_spy)
        for name in ("generate_views", "_random_aug_views"):
            monkeypatch.setattr(trainer, name,
                                views_spy(getattr(trainer, name)))
        self.run(case, ds8, ds72, epochs=3)
        steps = 2 if case != "RANDOM_AUG" else 1
        assert len(verdicts) == 3 * (1 + steps)
        assert not any(any(v) for v in verdicts), verdicts


class TestEmbeddings:
    def test_region_embeddings_are_base_rows(self, model8, ds8):
        emb = region_embeddings(model8)
        assert emb.shape == (ds8.n_regions, model8.cfg.d)
        assert np.array_equal(emb, model8.H[:ds8.n_regions])

    def test_export_load_round_trip(self, model8, tmp_path):
        path = str(tmp_path / "emb.bin")
        export_embeddings(model8, path)
        matrix, header = load_embeddings(path)
        assert np.array_equal(matrix, region_embeddings(model8))
        assert header["I"] == model8.I
        assert header["d"] == model8.cfg.d
        assert header["config_hash"] == config_hash(model8.cfg)
        assert header["version"] == 1

    def test_corrupted_payload_rejected(self, model8, tmp_path):
        path = str(tmp_path / "emb.bin")
        export_embeddings(model8, path)
        blob = bytearray(Path(path).read_bytes())
        blob[-5] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_embeddings(path)

    def test_truncated_file_rejected(self, model8, tmp_path):
        path = str(tmp_path / "emb.bin")
        export_embeddings(model8, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_bad_magic_rejected(self, model8, tmp_path):
        path = str(tmp_path / "emb.bin")
        export_embeddings(model8, path)
        blob = bytearray(Path(path).read_bytes())
        blob[:4] = b"XXXX"
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_embeddings(path)

    def test_config_hash_sensitive_to_config(self):
        assert config_hash(small_cfg()) != config_hash(small_cfg(seed=8))
        assert config_hash(small_cfg()) == config_hash(small_cfg())


class TestLossCsv:
    def test_round_trips_history_exactly(self, model8, tmp_path):
        path = str(tmp_path / "loss.csv")
        write_loss_csv(model8.history, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "epoch,L_NCE,L_BN,L,reward,L_Rec1,L_Rec2"
        assert len(lines) == 1 + len(model8.history)
        for line, rec in zip(lines[1:], model8.history):
            cells = line.split(",")
            assert int(cells[0]) == rec.epoch
            assert float(cells[1]) == rec.l_nce
            assert float(cells[3]) == rec.loss
            assert float(cells[6]) == rec.l_rec2
