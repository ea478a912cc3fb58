"""Command-line behavior: pipelines, reproducibility, error reporting."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regioncl.cli import main
from regioncl.trainer import load_embeddings

REPO = Path(__file__).resolve().parents[1]

SMALL = ["--set", "model.d=8", "--set", "model.heads=2",
         "--set", "model.n_layers=2", "--set", "poi.d_sg=8",
         "--set", "poi.epochs=40", "--set", "train.epochs=2",
         "--set", "synth.n_regions=10", "--set", "synth.n_slots=2",
         "--set", "synth.n_trips=150"]


def file_hash(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


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
        record = json.load(open(os.path.join(data_dir, "run.json")))
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
        stats = json.load(open(os.path.join(out, "graph_stats.json")))
        assert stats["I"] == 10 and stats["T"] == 2
        assert stats["n_nodes"] == 30
        lines = open(os.path.join(out, "graph.jsonl")).read().splitlines()
        assert len(lines) == sum(stats["edges"].values())
        first = json.loads(lines[0])
        assert {"relation", "u_kind", "u_region", "u_slot",
                "v_kind", "v_region", "v_slot"} <= set(first)


class TestTrain:
    def test_outputs_present(self, model_dir):
        assert os.path.exists(os.path.join(model_dir, "embeddings.bin"))
        loss_lines = open(os.path.join(model_dir, "loss.csv")).read() \
            .splitlines()
        assert loss_lines[0] == "epoch,L_NCE,L_BN,L,reward,L_Rec1,L_Rec2"
        assert len(loss_lines) == 3  # header + 2 epochs
        record = json.load(open(os.path.join(model_dir, "run.json")))
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
        ("view", "noise_sigma", "-1")])
    def test_bad_setting_rejected_before_any_work(self, data_dir, tmp_path,
                                                  monkeypatch, capsys,
                                                  section, name, value):
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("regioncl.cli.train", no_work)
        out = str(tmp_path / "bad")
        assert main(["train", "--data", data_dir, "--out", out] + SMALL
                    + ["--set", f"{section}.{name}={value}"]) == 1
        assert name in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bad_config_key_fails_with_name(self, data_dir, tmp_path,
                                            capsys):
        assert main(["train", "--data", data_dir,
                     "--out", str(tmp_path / "x"),
                     "--set", "trian.epochs=2"]) == 1
        assert "trian.epochs" in capsys.readouterr().err


class TestEmbedAndEval:
    def test_embed_csv_matches_binary(self, model_dir, tmp_path):
        out = str(tmp_path / "emb.csv")
        assert main(["embed", "--model", model_dir, "--out", out]) == 0
        lines = open(out).read().splitlines()
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
        lines = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert lines[0] == "task,mae,mape,rmse"
        tasks = [line.split(",")[0] for line in lines[1:]]
        assert tasks == ["crime", "house_price", "traffic"]

    def test_eval_missing_model_fails(self, data_dir, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path), "--data", data_dir,
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err


class TestAblate:
    def test_rows_and_thread_determinism(self, data_dir, tmp_path):
        out = str(tmp_path / "ablate")
        assert main(["ablate", "--data", data_dir, "--variants",
                     "FULL,RANDOM_AUG", "--seeds", "0,1", "--out", out]
                    + SMALL) == 0
        lines = open(os.path.join(out, "ablation.csv")).read() \
            .splitlines()
        assert lines[0] == "variant,task,seed,mae,mape,rmse"
        assert len(lines) == 1 + 2 * 2 * 3  # variants x seeds x tasks

    def test_unknown_variant_fails(self, data_dir, tmp_path, capsys):
        assert main(["ablate", "--data", data_dir, "--variants", "PARTIAL",
                     "--out", str(tmp_path / "x")] + SMALL) == 1
        assert "PARTIAL" in capsys.readouterr().err


class TestRobustness:
    def test_emits_bins(self, data_dir, tmp_path):
        out = str(tmp_path / "rob")
        assert main(["robustness", "--data", data_dir, "--seeds", "0",
                     "--out", out] + SMALL) == 0
        lines = open(os.path.join(out, "robustness.csv")).read().splitlines()
        assert lines[0] == "bin,task,mae,mape,rmse"
        assert len(lines) >= 2
        assert all(",crime," in line for line in lines[1:])


class TestCase:
    def test_self_pair_cosine_one(self, model_dir, tmp_path):
        out = str(tmp_path / "case.csv")
        assert main(["case", "--model", model_dir, "--pairs", "3:3,0:5",
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "region_a,region_b,cosine"
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0)
        assert -1.0 - 1e-12 <= float(lines[2].split(",")[2]) <= 1.0 + 1e-12

    def test_malformed_pairs_fail(self, model_dir, tmp_path, capsys):
        assert main(["case", "--model", model_dir, "--pairs", "3-4",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_prints_stage_lines_and_passes(self, capsys):
        assert main(["gradcheck", "--points", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 7
        assert all(line.endswith("ok") for line in out)

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--points", "1", "--tol", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err


class TestSweep:
    def test_one_row_per_grid_value(self, data_dir, tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--data", data_dir, "--param", "loss.beta",
                     "--values", "0.0,0.1,0.3,0.5", "--task", "crime",
                     "--out", out] + SMALL) == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
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


ARM_COMMANDS = {
    "ablate": ["ablate", "--variants", "FULL", "--seeds", "0"],
    "robustness": ["robustness", "--seeds", "0"],
    "sweep": ["sweep", "--param", "loss.beta", "--values", "0.1",
              "--seeds", "0"],
}


class TestRunArmOverrides:
    """ablate, robustness and sweep set train.variant and train.seed per
    run from their own flags, so any other source of either is refused."""

    @pytest.mark.parametrize("command", sorted(ARM_COMMANDS))
    @pytest.mark.parametrize("key,source", [
        ("train.variant", ["--set", "train.variant=NO_GP"]),
        ("train.seed", ["--set", "train.seed=3"]),
        ("train.seed", ["--seed", "3"]),
        ("train.variant", "config"),
    ])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                      command, key, source):
        def no_work(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr("regioncl.cli.load_dataset_dir", no_work)
        if source == "config":
            path = tmp_path / "run.cfg"
            path.write_text("train.variant = NO_GD\n")
            source = ["--config", str(path)]
        out = str(tmp_path / "x")
        assert main(ARM_COMMANDS[command] + ["--data", str(tmp_path),
                                             "--out", out] + source) == 1
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)


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

    @pytest.mark.skipif(shutil.which("regioncl") is None,
                        reason="regioncl console script not installed "
                               "(pip install -e .)")
    def test_installed_console_script_on_path(self):
        proc = subprocess.run(["regioncl", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
