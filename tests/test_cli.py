"""Command-line behavior: pipelines, reproducibility, error reporting."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from regioncl import errors
from regioncl.cli import _CLI_ERRORS, main
from regioncl.config import load_config_file
from regioncl.eval_harness import (DENSITY_BINS, mean_metrics, metrics,
                                   run_arms)
from regioncl.gradcheck import STAGES
from regioncl.region_data import (SynthConfig, load_dataset_dir,
                                  synth_dataset, write_dataset)
from regioncl.trainer import load_embeddings

REPO = Path(__file__).resolve().parents[1]

SMALL = ["--set", "model.d=8", "--set", "model.heads=2",
         "--set", "model.n_layers=2", "--set", "poi.d_sg=8",
         "--set", "poi.epochs=40", "--set", "train.epochs=2",
         "--set", "synth.n_regions=10", "--set", "synth.n_slots=2",
         "--set", "synth.n_trips=150"]


def file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def set_field(row: str, k: int, text: str) -> str:
    fields = row.split(",")
    fields[k] = text
    return ",".join(fields)


def drop_last_field(rows: list) -> list:
    return rows[:-1] + [rows[-1].rsplit(",", 1)[0]]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    assert main(["synth", "--seed", "7", "--out", out] + SMALL) == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("model"))
    assert main(["train", "--data", data_dir, "--out", out,
                 "--seed", "7"] + SMALL) == 0
    return out


class TestSynth:
    def test_writes_bundle_and_record(self, data_dir):
        names = set(os.listdir(data_dir))
        assert {"poi.csv", "trajectories.csv", "centroids.csv",
                "targets.csv", "run.json"} <= names
        record = json.loads(Path(data_dir, "run.json").read_text())
        assert record["command"] == "synth"
        assert record["config"]["synth.seed"] == 7

    def test_seeded_rerun_is_checksummed_identical(self, data_dir, tmp_path):
        again = str(tmp_path / "again")
        assert main(["synth", "--seed", "7", "--out", again] + SMALL) == 0
        for name in ("poi.csv", "trajectories.csv", "centroids.csv",
                     "targets.csv"):
            assert file_hash(os.path.join(again, name)) \
                == file_hash(os.path.join(data_dir, name))

    def test_missing_out_fails_cleanly(self, capsys):
        assert main(["synth"] + SMALL) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestIngest:
    def test_normalizing_copy_is_byte_identical(self, data_dir, tmp_path):
        out = str(tmp_path / "ingested")
        assert main(["ingest",
                     "--poi", os.path.join(data_dir, "poi.csv"),
                     "--traj", os.path.join(data_dir, "trajectories.csv"),
                     "--centroids", os.path.join(data_dir, "centroids.csv"),
                     "--targets", os.path.join(data_dir, "targets.csv"),
                     "--out", out]) == 0
        for name in ("poi.csv", "trajectories.csv", "centroids.csv",
                     "targets.csv"):
            assert file_hash(os.path.join(out, name)) \
                == file_hash(os.path.join(data_dir, name))

    @pytest.mark.parametrize("name,edit,needle", [
        ("poi.csv", drop_last_field, "fields"),
        ("trajectories.csv", drop_last_field, "fields"),
        ("centroids.csv", drop_last_field, "fields"),
        ("targets.csv", drop_last_field, "fields"),
        ("poi.csv", lambda rows: [], "no region rows"),
        ("poi.csv", lambda rows: [set_field(rows[0], 1, "1" + "0" * 20)]
         + rows[1:], "too large for int64"),
        ("targets.csv", lambda rows: [set_field(rows[0], 3, "nan")]
         + rows[1:], "non-finite value"),
        ("targets.csv", lambda rows: rows[:-1], "has no value for region"),
        ("targets.csv", lambda rows: rows + ["0,crime,100000000000,1.0"],
         "T=100000000001"),
        # "\udcff" is written as the lone byte 0xff, which is not UTF-8
        ("targets.csv", lambda rows: [set_field(rows[0], 3, "\udcff")]
         + rows[1:], "cannot decode"),
        ("centroids.csv", lambda rows: [set_field(rows[0], 2, "1" * 200_000)]
         + rows[1:], ":2: field larger than field limit"),
    ], ids=["short-poi-row", "short-trip-row", "short-centroid-row",
            "short-target-row", "poi-without-regions", "poi-count-past-int64",
            "non-finite-target", "missing-target-cell", "far-target-slot",
            "non-utf8-target", "oversized-centroid-field"])
    def test_malformed_bundle_is_one_error_line_naming_the_file(
            self, data_dir, tmp_path, capsys, name, edit, needle):
        paths = {}
        for f in ("poi.csv", "trajectories.csv", "centroids.csv",
                  "targets.csv"):
            header, *rows = Path(data_dir, f).read_text().splitlines()
            paths[f] = tmp_path / f
            paths[f].write_bytes(("\n".join([header, *(
                edit(rows) if f == name else rows)]) + "\n").encode(
                    "utf-8", "surrogateescape"))
        out = tmp_path / "out"
        assert main(["ingest", "--poi", str(paths["poi.csv"]),
                     "--traj", str(paths["trajectories.csv"]),
                     "--centroids", str(paths["centroids.csv"]),
                     "--targets", str(paths["targets.csv"]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {paths[name]}")
        assert needle in err[0]
        assert not out.exists()

    def test_bundle_without_targets_drops_an_earlier_targets_file(
            self, data_dir, tmp_path):
        """Ingest into a directory that holds another bundle: the earlier
        targets.csv goes, so the bundle loads without targets."""
        out = tmp_path / "bundle"
        shutil.copytree(data_dir, out)
        assert main(["ingest",
                     "--poi", os.path.join(data_dir, "poi.csv"),
                     "--traj", os.path.join(data_dir, "trajectories.csv"),
                     "--centroids", os.path.join(data_dir, "centroids.csv"),
                     "--out", str(out)]) == 0
        assert not (out / "targets.csv").exists()
        assert load_dataset_dir(str(out)).targets == {}

    def test_missing_input_file_reports_error(self, tmp_path, capsys):
        assert main(["ingest", "--poi", "/nonexistent.csv",
                     "--traj", "/n.csv", "--centroids", "/n.csv",
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBuildGraph:
    def test_emits_jsonl_and_stats(self, data_dir, tmp_path):
        out = str(tmp_path / "graph")
        assert main(["build-graph", "--data", data_dir,
                     "--out", out] + SMALL) == 0
        stats = json.loads(Path(out, "graph_stats.json").read_text())
        assert stats["I"] == 10 and stats["T"] == 2
        assert stats["n_nodes"] == 30
        lines = Path(out, "graph.jsonl").read_text().splitlines()
        assert len(lines) == sum(stats["edges"].values())
        first = json.loads(lines[0])
        assert {"relation", "u_kind", "u_region", "u_slot",
                "v_kind", "v_region", "v_slot"} <= set(first)


class TestTrain:
    def test_outputs_present(self, model_dir):
        assert os.path.exists(os.path.join(model_dir, "embeddings.bin"))
        loss_lines = Path(model_dir, "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,L_NCE,L_BN,L,reward,L_Rec1,L_Rec2"
        assert len(loss_lines) == 3  # header + 2 epochs
        record = json.loads(Path(model_dir, "run.json").read_text())
        assert "config_hash" in record

    def test_seeded_retrain_bit_identical(self, data_dir, model_dir,
                                          tmp_path):
        again = str(tmp_path / "again")
        assert main(["train", "--data", data_dir, "--out", again,
                     "--seed", "7"] + SMALL) == 0
        assert file_hash(os.path.join(again, "embeddings.bin")) \
            == file_hash(os.path.join(model_dir, "embeddings.bin"))
        assert file_hash(os.path.join(again, "loss.csv")) \
            == file_hash(os.path.join(model_dir, "loss.csv"))

    @pytest.mark.parametrize("section,name,value", [
        ("view", "eps", "2.0"), ("model", "heads", "3"),
        ("view", "noise_sigma", "-1"), ("poi", "d_sg", "0"),
        ("poi", "negatives", "-1"), ("poi", "window_cap", "-1"),
        ("poi", "epochs", "-1"), ("poi", "lr", "-1"),
        ("model", "n_layers", "0"), ("model", "n_layers", "-2"),
        ("train", "weight_decay", "-0.5")])
    def test_bad_setting_rejected_before_any_work(self, data_dir, tmp_path,
                                                  monkeypatch, capsys,
                                                  section, name, value):
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("regioncl.cli.train", no_work)
        out = str(tmp_path / "bad")
        assert main(["train", "--data", data_dir, "--out", out] + SMALL
                    + ["--set", f"{section}.{name}={value}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert name in err[0]
        assert not os.path.exists(out)

    def test_bad_config_key_fails_with_name(self, data_dir, tmp_path,
                                            capsys):
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "x"),
                     "--set", "trian.epochs=2"]) == 1
        assert "trian.epochs" in capsys.readouterr().err


class TestEveryCommandChecksItsConfig:
    """Commands that build no config section still refuse an unknown key,
    a value that does not cast, and an unreadable --config: one error line,
    and no output written. They check no range."""

    @pytest.mark.parametrize("argv,needle", [
        (["embed", "--set", "no.such.key=1"],
         "unknown config key 'no.such.key'"),
        (["embed", "--config", "MISSING"], "cannot read config file"),
        (["case", "--pairs", "0:1", "--set", "model.d=nan"],
         "config key 'model.d' expects int, got 'nan'"),
        (["gradcheck", "--points", "1", "--set", "no.such=1"],
         "unknown config key 'no.such'"),
    ], ids=["embed-key", "embed-config", "case", "gradcheck"])
    def test_one_error_line(self, model_dir, tmp_path, capsys, argv, needle):
        argv = [str(tmp_path / "missing.cfg") if a == "MISSING" else a
                for a in argv]
        if argv[0] != "gradcheck":
            argv += ["--model", model_dir]
        out = str(tmp_path / "x")
        assert main(argv + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert needle in err[0]
        assert not os.path.exists(out)


def test_every_package_error_is_one_error_line():
    """Each exception class the package defines is caught by main."""
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined and defined <= set(_CLI_ERRORS), \
        sorted(c.__name__ for c in defined - set(_CLI_ERRORS))


RECORD_ARGV = {
    "synth": SMALL,
    "ingest": ["--poi", "DATA/poi.csv", "--traj", "DATA/trajectories.csv",
               "--centroids", "DATA/centroids.csv"],
    "build-graph": ["--data", "DATA"] + SMALL,
    "train": ["--data", "DATA"] + SMALL,
    "eval": ["--data", "DATA", "--model", "MODEL"],
    "ablate": ["--data", "DATA", "--variants", "FULL", "--seeds", "0"] + SMALL,
    "sweep": ["--data", "DATA", "--param", "loss.beta", "--values", "0.1"]
    + SMALL,
    "embed": ["--model", "MODEL"],
    "case": ["--model", "MODEL", "--pairs", "0:1"],
    "gradcheck": ["--points", "1"],
}


class TestRunRecord:
    """main writes run.json into the --out directory of each command that
    writes one: the command's name and its resolved config, --set
    overrides included. embed and case write one file, gradcheck none,
    so none of them writes a record."""

    @pytest.mark.parametrize("command", list(RECORD_ARGV))
    def test_directory_commands_record_their_run(self, data_dir, model_dir,
                                                 tmp_path, command):
        argv = [a.replace("DATA", data_dir).replace("MODEL", model_dir)
                for a in RECORD_ARGV[command]]
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out),
                     "--set", "eval.lam=0.05"]) == 0
        records = list(tmp_path.rglob("run.json"))
        if command in ("embed", "case", "gradcheck"):
            assert records == []
        else:
            assert records == [out / "run.json"]
            record = json.loads(records[0].read_text())
            assert record["command"] == command
            assert record["config"]["eval.lam"] == 0.05


class TestEmbedAndEval:
    def test_embed_csv_matches_binary(self, model_dir, tmp_path):
        out = str(tmp_path / "emb.csv")
        assert main(["embed", "--model", model_dir, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        matrix, header = load_embeddings(
            os.path.join(model_dir, "embeddings.bin"))
        assert lines[0] == "region," + ",".join(
            f"e{k}" for k in range(header["d"]))
        assert len(lines) == 1 + header["I"]
        row0 = lines[1].split(",")
        assert int(row0[0]) == 0
        assert np.array_equal(np.array([float(x) for x in row0[1:]]),
                              matrix[0])

    def test_eval_writes_metrics_per_task(self, data_dir, model_dir,
                                          tmp_path):
        out = str(tmp_path / "eval")
        assert main(["eval", "--model", model_dir, "--data", data_dir,
                     "--out", out] + SMALL) == 0
        lines = Path(out, "eval.csv").read_text().splitlines()
        assert lines[0] == "task,mae,mape,rmse"
        tasks = [line.split(",")[0] for line in lines[1:]]
        assert tasks == ["crime", "house_price", "traffic"]

    def test_eval_missing_model_fails(self, data_dir, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path), "--data", data_dir,
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_of_another_citys_model_fails(self, model_dir, tmp_path,
                                               capsys):
        """The one check that embedding rows match the bundle's regions."""
        other = str(tmp_path / "other")
        write_dataset(synth_dataset(SynthConfig(
            n_regions=12, n_slots=2, n_trips=150)), other)
        out = str(tmp_path / "x")
        assert main(["eval", "--model", model_dir, "--data", other,
                     "--out", out]) == 1
        assert capsys.readouterr().err == \
            "error: embeddings cover 10 regions, dataset has 12\n"
        assert not os.path.exists(out)


class TestAblate:
    def test_rows_and_thread_determinism(self, data_dir, tmp_path):
        out = str(tmp_path / "ablate")
        assert main(["ablate", "--data", data_dir, "--variants",
                     "FULL,RANDOM_AUG", "--seeds", "0,1", "--out", out]
                    + SMALL) == 0
        lines = Path(out, "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,task,seed,mae,mape,rmse"
        assert len(lines) == 1 + 2 * 2 * 3  # variants x seeds x tasks

    def test_unknown_variant_fails(self, data_dir, tmp_path, capsys):
        assert main(["ablate", "--data", data_dir, "--variants", "PARTIAL",
                     "--out", str(tmp_path / "x")] + SMALL) == 1
        assert "PARTIAL" in capsys.readouterr().err


class TestRobustness:
    """ablate writes robustness.csv next to ablation.csv from the same
    arms, whenever the bundle has crime targets."""

    def test_emits_bins(self, data_dir, tmp_path, monkeypatch):
        arms = {}

        def recording_run_arms(*args, **kwargs):
            arms.update(run_arms(*args, **kwargs))
            return arms

        monkeypatch.setattr("regioncl.cli.run_arms", recording_run_arms)
        out = str(tmp_path / "rob")
        assert main(["ablate", "--data", data_dir, "--variants",
                     "FULL,RANDOM_AUG", "--seeds", "0,1", "--out", out]
                    + SMALL) == 0
        with open(os.path.join(out, "robustness.csv"), newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["variant", "bin", "task", "mae", "mape", "rmse"]
        ds = load_dataset_dir(data_dir)
        crime = ds.targets["crime"]
        y = crime.sum(axis=1)
        share = np.count_nonzero(crime, axis=1) / ds.T
        bins = {label: np.flatnonzero((share > lo) & (share <= hi))
                for label, lo, hi in DENSITY_BINS}
        bins = {label: members for label, members in bins.items()
                if members.size}
        assert bins
        assert [r[:3] for r in rows] == [[v, label, "crime"]
                                         for v in ("FULL", "RANDOM_AUG")
                                         for label in bins]
        full = [mean_metrics([metrics(arms["FULL", s]["crime"][0][members],
                                      y[members]) for s in (0, 1)])
                for members in bins.values()]
        assert [r[3:] for r in rows if r[0] == "FULL"] \
            == [[repr(x) for x in astuple(m)] for m in full]

    @pytest.fixture
    def no_crime(self, data_dir, tmp_path) -> str:
        bundle = tmp_path / "no_crime"
        shutil.copytree(data_dir, bundle)
        targets = (bundle / "targets.csv").read_text().splitlines(True)
        (bundle / "targets.csv").write_text(
            "".join(line for line in targets if ",crime," not in line))
        return str(bundle)

    def test_no_crime_targets_no_table(self, no_crime, tmp_path):
        out = tmp_path / "ablate"
        assert main(["ablate", "--data", no_crime, "--variants", "FULL",
                     "--seeds", "0", "--out", str(out)] + SMALL) == 0
        assert sorted(os.listdir(out)) == ["ablation.csv", "run.json"]

    def test_rerun_without_crime_drops_the_earlier_table(
            self, data_dir, no_crime, tmp_path):
        out = tmp_path / "ablate"
        argv = ["ablate", "--variants", "FULL", "--seeds", "0",
                "--out", str(out)] + SMALL
        assert main(argv + ["--data", data_dir]) == 0
        assert (out / "robustness.csv").exists()
        assert main(argv + ["--data", no_crime]) == 0
        assert sorted(os.listdir(out)) == ["ablation.csv", "run.json"]


class TestCase:
    def test_self_pair_cosine_one(self, model_dir, tmp_path):
        out = str(tmp_path / "case.csv")
        assert main(["case", "--model", model_dir, "--pairs", "3:3,0:5",
                     "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "region_a,region_b,cosine"
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0)
        assert -1.0 - 1e-12 <= float(lines[2].split(",")[2]) <= 1.0 + 1e-12

    def test_malformed_pairs_fail(self, model_dir, tmp_path, capsys):
        assert main(["case", "--model", model_dir, "--pairs", "3-4",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestNegativeSeedsRejected:
    """A negative seed is rejected when its config is built: one error line
    naming its key, and no output written."""

    @pytest.mark.parametrize("argv,needle", [
        (["synth", "--seed", "-1"], "synth seed must be >= 0, got -1"),
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--set", "poi.seed=-1"],
         "skip-gram seed must be >= 0, got -1"),
        (["eval", "--set", "eval.cv_seed=-1"], "cv_seed must be >= 0, got -1"),
        (["gradcheck", "--seed", "-1"], "gradcheck needs --seed >= 0, got -1"),
    ], ids=["synth", "train", "poi", "eval", "gradcheck"])
    def test_one_error_line(self, data_dir, model_dir, tmp_path, monkeypatch,
                            capsys, argv, needle):
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("regioncl.cli.train", no_work)
        inputs = {"train": ["--data", data_dir],
                  "eval": ["--data", data_dir, "--model", model_dir]}
        out = str(tmp_path / "x")
        assert main(argv + inputs.get(argv[0], []) + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {needle}\n"
        assert not os.path.exists(out)


class TestGradcheckCommand:
    def test_prints_stage_lines_and_passes(self, capsys):
        assert main(["gradcheck", "--points", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == len(STAGES) == 7
        for line, name in zip(out, STAGES):
            assert line.startswith(name)
            assert line.endswith("ok")

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--points", "1", "--tol", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_rejected_before_any_stage(self, capsys, points):
        assert main(["gradcheck", "--points", points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gradcheck needs --points >= 1, " \
                               f"got {points}\n"

    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("-1", "-1.0"),
                                            ("inf", "inf")])
    def test_bad_tolerance_rejected_before_any_stage(self, capsys, tol,
                                                     shown):
        assert main(["gradcheck", "--points", "1", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gradcheck needs a finite --tol > 0, " \
                               f"got {shown}\n"


class TestSweep:
    def test_one_row_per_grid_value(self, data_dir, tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--data", data_dir, "--param", "loss.beta",
                     "--values", "0.0,0.1,0.3,0.5", "--task", "crime",
                     "--out", out] + SMALL) == 0
        lines = Path(out, "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,task,mae,mape,rmse"
        assert len(lines) == 5
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [0.0, 0.1, 0.3, 0.5]
        assert all(line.split(",")[0] == "loss.beta" for line in lines[1:])

    def test_dataset_params_rejected(self, data_dir, tmp_path, capsys):
        assert main(["sweep", "--data", data_dir, "--param",
                     "synth.n_regions", "--values", "5,6",
                     "--out", str(tmp_path / "x")] + SMALL) == 1
        assert "synth.n_regions" in capsys.readouterr().err

    @pytest.mark.parametrize("param,values", [("train.seed", "1,2"),
                                              ("train.variant",
                                               "NO_GP,NO_GD")])
    def test_run_arms_overrides_rejected(self, data_dir, tmp_path, capsys,
                                         param, values):
        out = str(tmp_path / "x")
        assert main(["sweep", "--data", data_dir, "--param", param,
                     "--values", values, "--out", out] + SMALL) == 1
        assert param in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_swept_eval_setting_reaches_the_probe(self, data_dir, tmp_path,
                                                  monkeypatch):
        """Each grid point probes with its own eval config, so a swept
        eval.lam gives one row per lambda, not one row three times."""
        seen = []

        def recording_run_arms(ds, variants, seeds, train_cfg, eval_cfg):
            seen.append(eval_cfg.lam)
            return run_arms(ds, variants, seeds, train_cfg, eval_cfg)

        monkeypatch.setattr("regioncl.cli.run_arms", recording_run_arms)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--data", data_dir, "--param", "eval.lam",
                     "--values", "0.001,0.01,0.1", "--out", out]
                    + SMALL) == 0
        assert seen == [0.001, 0.01, 0.1]
        rows = Path(out, "sweep.csv").read_text().splitlines()[1:]
        maes = [float(row.split(",")[3]) for row in rows]
        assert len(set(maes)) == 3, maes


ARM_COMMANDS = {
    "ablate": ["ablate", "--variants", "FULL", "--seeds", "0"],
    "sweep": ["sweep", "--param", "loss.beta", "--values", "0.1",
              "--seeds", "0"],
}


CONFIG_TEXT = {"config": "train.variant = NO_GD\n",
               "default-config": "train.variant = FULL\n"}


class TestRunArmOverrides:
    """ablate and sweep set train.variant and train.seed per run from
    their own flags, so any other source of either is refused, even one
    that sets the default value."""

    @pytest.mark.parametrize("command", sorted(ARM_COMMANDS))
    @pytest.mark.parametrize("key,source", [
        ("train.variant", ["--set", "train.variant=NO_GP"]),
        ("train.seed", ["--set", "train.seed=3"]),
        ("train.seed", ["--seed", "3"]),
        ("train.variant", "config"),
        ("train.seed", ["--seed", "0", "--seeds", "1"]),
        ("train.seed", ["--set", "train.seed=0"]),
        ("train.variant", ["--set", "train.variant=FULL"]),
        ("train.variant", "default-config"),
    ])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                      command, key, source):
        def no_work(*args, **kwargs):
            raise AssertionError("data loaded or arm trained")

        monkeypatch.setattr("regioncl.cli.load_dataset_dir", no_work)
        monkeypatch.setattr("regioncl.eval_harness.train", no_work)
        if isinstance(source, str):
            path = tmp_path / "run.cfg"
            path.write_text(CONFIG_TEXT[source])
            source = ["--config", str(path)]
        out = str(tmp_path / "x")
        assert main(ARM_COMMANDS[command] + ["--data", str(tmp_path),
                                             "--out", out] + source) == 1
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)


    @pytest.mark.parametrize("command", sorted(ARM_COMMANDS))
    def test_config_file_read_once(self, data_dir, tmp_path, monkeypatch,
                                   command):
        """The arm-key check reads the keys ``main`` already resolved."""
        reads = []

        def counting_load(path):
            reads.append(path)
            return load_config_file(path)

        monkeypatch.setattr("regioncl.config.load_config_file",
                            counting_load)
        path = tmp_path / "c.cfg"
        path.write_text("loss.tau = 0.7\n")
        assert main(ARM_COMMANDS[command]
                    + ["--data", data_dir, "--config", str(path),
                       "--out", str(tmp_path / "x")] + SMALL) == 0
        assert reads == [str(path)]


class TestStudyRequestsRejectedUpFront:
    """A --seeds or --variants that names nothing, a variant, seed or sweep
    value named twice, a bad value at any sweep point, a sweep --task the
    bundle lacks, a bundle without targets and a city too small for the
    probe's folds are refused before any arm trains."""

    @staticmethod
    def refusal(argv, out, monkeypatch, capsys) -> str:
        """Run argv with training stubbed out; return its one error line."""
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("regioncl.eval_harness.train", no_work)
        assert main(argv + ["--out", out] + SMALL) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not os.path.exists(out)
        return err[0]

    @pytest.mark.parametrize("argv,needle", [
        (["ablate", "--seeds", ""], "--seeds"),
        (["ablate", "--seeds", ",", "--variants", "FULL"], "--seeds"),
        (["ablate", "--seeds", "0,1,0"], "seed is named twice"),
        (["ablate", "--variants", "FULL,NO_GP,FULL"], "variant is named twice"),
        (["sweep", "--seeds", "", "--param", "loss.beta", "--values", "0.1"],
         "--seeds"),
        (["sweep", "--seeds", "0,1", "--task", "rainfall",
          "--param", "loss.beta", "--values", "0.1"], "'rainfall'"),
        (["ablate", "--variants", ""], "--variants: names no variant"),
        (["sweep", "--param", "loss.beta", "--values", "0.1,0.3,0.10"],
         "a value is named twice in [0.1, 0.3, 0.1]"),
        (["ablate", "--variants", "FULL", "--seeds", "0,-1"],
         "seed must be >= 0, got -1"),
        (["sweep", "--seeds", "0,1", "--param", "loss.beta",
          "--values", "0.1,0.3,1.5"], "beta must be in [0,1], got 1.5"),
        (["sweep", "--param", "eval.cv_seed", "--values", "1,-1"],
         "cv_seed must be >= 0, got -1"),
    ])
    def test_no_arm_trains(self, data_dir, tmp_path, monkeypatch, capsys,
                           argv, needle):
        assert needle in self.refusal(argv + ["--data", data_dir],
                                      str(tmp_path / "x"), monkeypatch, capsys)

    @pytest.mark.parametrize("argv", [
        ["ablate", "--variants", "FULL,RANDOM_AUG", "--seeds", "0,1"],
        ["sweep", "--param", "loss.beta", "--values", "0.1,0.3"],
        ["eval"],
    ], ids=["ablate", "sweep", "eval"])
    def test_city_too_small_for_the_probe(self, tmp_path, monkeypatch,
                                          capsys, argv):
        """Two regions in two folds leave one training row per fold;
        ``eval`` of a model of that city says so as ``ablate`` does."""
        tiny = str(tmp_path / "tiny")
        write_dataset(synth_dataset(SynthConfig(
            n_regions=2, n_slots=2, n_trips=20, n_clusters=1)), tiny)
        if argv[0] == "eval":
            model = str(tmp_path / "model")
            assert main(["train", "--data", tiny, "--out", model] + SMALL) == 0
            argv = argv + ["--model", model]
        err = self.refusal(argv + ["--data", tiny], str(tmp_path / "x"),
                           monkeypatch, capsys)
        assert err == ("error: 2 regions are too few to probe: with "
                       "eval.folds=5 a fold leaves 1 training rows, and the "
                       "lasso needs 2")

    @pytest.fixture
    def untargeted(self, data_dir, tmp_path) -> str:
        bundle = tmp_path / "untargeted"
        shutil.copytree(data_dir, bundle)
        (bundle / "targets.csv").unlink()
        return str(bundle)

    @pytest.mark.parametrize("argv", [
        ["ablate", "--variants", "FULL,RANDOM_AUG", "--seeds", "0"],
        ["eval"],
    ], ids=["ablate", "eval"])
    def test_bundle_without_targets(self, untargeted, model_dir, tmp_path,
                                    monkeypatch, capsys, argv):
        if argv[0] == "eval":
            argv = argv + ["--model", model_dir]
        err = self.refusal(argv + ["--data", untargeted],
                           str(tmp_path / "x"), monkeypatch, capsys)
        assert "no task targets" in err and "targets.csv" in err


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        """The `regioncl` script declared in pyproject.toml resolves and,
        called with no argv the way a console script calls it, dispatches.

        The script is written from the declaration, as an installer would
        write it, so no install is needed."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts.get("regioncl") == "regioncl.cli:main"
        module, attr = scripts["regioncl"].split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "regioncl"
        script.write_text(f"#!{sys.executable}\n"
                          "import sys\n"
                          f"from {module} import {attr}\n"
                          f"sys.exit({attr}())\n")
        script.chmod(0o755)
        env = dict(os.environ,
                   PATH=os.pathsep.join([str(bin_dir),
                                         os.environ.get("PATH", "")]),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(["regioncl", "--help"], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "regioncl", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout

    @pytest.mark.skipif(shutil.which("regioncl") is None,
                        reason="regioncl console script not installed "
                               "(pip install -e .)")
    def test_installed_console_script_on_path(self):
        proc = subprocess.run(["regioncl", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
