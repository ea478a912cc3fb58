"""Flat config namespace: defaults, parsing, precedence, materialization."""

import dataclasses
import gc
import warnings

import pytest

from regioncl.config import (DEFAULTS, apply_assignment, assigned,
                             build_eval_config, build_synth_config,
                             build_train_config, cast_value, defaults_lines,
                             load_config_file, resolve)
from regioncl.errors import ConfigError
from regioncl.trainer import TrainConfig


class TestDefaults:
    def test_expected_sections_present(self):
        sections = {key.split(".")[0] for key in DEFAULTS}
        assert sections == {"synth", "poi", "graph", "model", "view",
                            "loss", "train", "eval"}

    def test_spot_check_documented_defaults(self):
        assert DEFAULTS["model.d"] == 96
        assert DEFAULTS["model.n_layers"] == 3
        assert DEFAULTS["train.lr"] == 0.0005
        assert DEFAULTS["train.weight_decay"] == 0.01
        assert DEFAULTS["loss.beta"] == 0.1
        assert DEFAULTS["loss.xi"] == 0.1
        assert DEFAULTS["loss.w1"] == 0.5
        assert DEFAULTS["graph.eps_p"] == 0.5
        assert DEFAULTS["graph.eps_d"] == 2.5
        assert DEFAULTS["train.variant"] == "FULL"

    def test_defaults_lines_round_trip(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text("\n".join(defaults_lines()) + "\n")
        parsed = load_config_file(str(path))
        assert parsed == DEFAULTS

    def test_defaults_match_dataclass_fields(self):
        t = TrainConfig()
        assert DEFAULTS["train.epochs"] == t.epochs
        assert DEFAULTS["model.heads"] == t.heads
        assert DEFAULTS["poi.d_sg"] == t.skipgram.d_sg
        assert DEFAULTS["view.seed_frac"] == t.view.seed_frac
        assert DEFAULTS["eval.folds"] == 5


class TestCasting:
    def test_int_key(self):
        assert cast_value("model.d", " 32 ") == 32

    def test_float_key(self):
        assert cast_value("loss.tau", "0.25") == 0.25

    def test_str_key(self):
        assert cast_value("train.variant", "NO_GP") == "NO_GP"

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            cast_value("bogus.key", "1")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="model.d"):
            cast_value("model.d", "1.5")

    @pytest.mark.parametrize("key,raw", [
        ("graph.eps_d", "nan"), ("graph.eps_p", "NaN"), ("train.lr", "nan"),
        ("loss.tau", "inf"), ("eval.lam", "nan"), ("view.noise_sigma", "-inf"),
        ("train.weight_decay", "1e999"), ("synth.skew_exponent", "nan")])
    def test_non_finite_float_rejected_by_name(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            cast_value(key, raw)


class TestConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nmodel.d = 16\n  loss.beta =0.3\n")
        assert load_config_file(str(path)) == {"model.d": 16,
                                               "loss.beta": 0.3}

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.d = 16\nnot an assignment\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            load_config_file(str(path))

    def test_malformed_line_names_its_place_once(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model.d = 16\nbogus line\n")
        with pytest.raises(ConfigError) as caught:
            load_config_file(str(path))
        assert str(caught.value) == \
            f"{path}:2: expected key=value, got 'bogus line'"

    def test_unknown_key_carries_line_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nope.nope = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*nope\.nope"):
            load_config_file(str(path))

    def test_file_is_closed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.d = 16\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_config_file(str(path))
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file("/nonexistent/run.cfg")

    def test_assignment_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_assignment({}, "model.d 16")


class TestResolve:
    def test_precedence_file_then_sets_then_seed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.d = 16\ntrain.seed = 3\nsynth.seed = 3\n")
        values = resolve(assigned(str(path), ["model.d=32"], seed=11))
        assert values["model.d"] == 32          # --set beats file
        assert values["train.seed"] == 11       # --seed beats both
        assert values["synth.seed"] == 11
        assert values["model.heads"] == DEFAULTS["model.heads"]

    def test_no_inputs_gives_defaults(self):
        assert resolve({}) == DEFAULTS

    def test_assigned_keeps_keys_set_to_their_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.variant = FULL\n")
        assert assigned(str(path), ["train.seed=0"]) == {
            "train.variant": "FULL", "train.seed": 0}
        assert assigned(seed=0) == {"train.seed": 0, "synth.seed": 0}
        assert assigned() == {}


def resolved(*assignments) -> dict:
    """The defaults under the given --set assignments."""
    return resolve(assigned(assignments=assignments))


class TestMaterialization:
    def test_train_config_reads_all_sections(self):
        values = resolved("model.d=24", "model.heads=3", "graph.eps_d=9.0",
                          "poi.d_sg=12", "view.walk_len=5", "loss.tau=0.7",
                          "train.epochs=4", "train.variant=NO_GD")
        cfg = build_train_config(values)
        assert cfg.d == 24 and cfg.heads == 3
        assert cfg.eps_d == 9.0
        assert cfg.skipgram.d_sg == 12
        assert cfg.view.walk_len == 5
        assert cfg.loss.tau == 0.7
        assert cfg.epochs == 4
        assert cfg.variant == "NO_GD"

    def test_synth_config(self):
        values = resolved("synth.n_regions=17", "synth.noise_rate=0.4")
        cfg = build_synth_config(values)
        assert cfg.n_regions == 17
        assert cfg.noise_rate == 0.4

    def test_eval_config(self):
        values = resolved("eval.lam=0.2", "eval.folds=3")
        cfg = build_eval_config(values)
        assert cfg.lam == 0.2 and cfg.folds == 3

    def test_invalid_materialized_value_still_validated(self):
        values = resolved("train.epochs=0")
        with pytest.raises(ConfigError):
            build_train_config(values)

    @pytest.mark.parametrize("section,name,value", [
        ("view", "eps", "2.0"), ("view", "eps", "0.0"),
        ("view", "noise_sigma", "-1"), ("view", "neg_per_node", "-1"),
        ("model", "d", "0"),
        ("model", "heads", "0"), ("model", "heads", "5"),
        ("model", "n_layers", "0"), ("model", "n_layers", "-2"),
        ("train", "weight_decay", "-0.1"), ("poi", "d_sg", "0"),
        ("poi", "window_cap", "0"), ("poi", "negatives", "-1"),
        ("poi", "epochs", "-1"), ("poi", "lr", "0.0"),
        ("loss", "beta", "1.5"), ("loss", "xi", "1.0"), ("loss", "w1", "-0.1"),
        ("loss", "infobn_drop", "1.0"), ("graph", "eps_d", "0"),
        ("train", "seed", "-1"), ("poi", "seed", "-1")])
    def test_bad_model_settings_rejected_at_build(self, section, name, value):
        values = resolved(f"{section}.{name}={value}")
        with pytest.raises(ConfigError, match=name):
            build_train_config(values)

    @pytest.mark.parametrize("section,name,value", [
        ("synth", "n_clusters", "0"), ("synth", "n_slots", "0"),
        ("synth", "noise_rate", "1.5"), ("synth", "skew_exponent", "-0.1"),
        ("synth", "seed", "-1"), ("eval", "lam", "-0.5"),
        ("eval", "folds", "1"), ("eval", "cv_seed", "-1")])
    def test_bad_data_and_probe_settings_rejected_at_build(self, section,
                                                           name, value):
        build = {"synth": build_synth_config, "eval": build_eval_config}
        values = resolved(f"{section}.{name}={value}")
        with pytest.raises(ConfigError, match=name):
            build[section](values)

    def test_every_default_materializes(self):
        # guards against a key existing in the namespace but feeding nothing
        values = dict(DEFAULTS)
        build_synth_config(values)
        cfg = build_train_config(values)
        build_eval_config(values)
        used = set()
        for f in dataclasses.fields(type(cfg.skipgram)):
            used.add(f"poi.{f.name}")
        for f in dataclasses.fields(type(cfg.view)):
            used.add(f"view.{f.name}")
        for f in dataclasses.fields(type(cfg.loss)):
            used.add(f"loss.{f.name}")
        used |= {k for k in DEFAULTS if k.split(".")[0] in
                 {"synth", "eval", "graph", "model", "train"}}
        assert used == set(DEFAULTS)
