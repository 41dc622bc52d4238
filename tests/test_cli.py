"""End-to-end command-line tests: every subcommand exercised in-process
through main(argv), with exit codes, artifact bytes, and env overrides."""

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skyalign import binio
from skyalign.cli import main
from skyalign.errors import NonFiniteLoss
from skyalign.model import init, load_checkpoint
from skyalign.retrieval_eval import EmbeddingSet

from oracles import record_write_embeddings

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("SKYALIGN_"):
            monkeypatch.delenv(key)


def write_gen_cfg(path, *, n=20, views=3, latent=8, sigma=0.3, fail=0.0,
                  seed=7, bins=8):
    path.write_text(
        f"n_buildings = {n}\nviews_per_building = {views}\n"
        f"latent_dim = {latent}\nnoise_sigma = {sigma}\nfail_prob = {fail}\n"
        f"seed = {seed}\nbins = {bins}\n",
        encoding="utf-8",
    )
    return str(path)


def write_train_cfg(path, *, lr=0.01, epochs=2, batch=8, seed=3,
                    mode="classification", extra=""):
    path.write_text(
        f"peak_lr = {lr}\nepochs = {epochs}\nbatch_size = {batch}\n"
        f"seed = {seed}\nhidden_dim = 16\nembed_dim = 16\n"
        f"orientation_mode = {mode}\nbins = 8\n{extra}",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full gen-data -> train -> embed -> eval -> ensemble run."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = write_gen_cfg(root / "gen.cfg")
    data = str(root / "data")
    assert main(["gen-data", "--config", gen_cfg, "--out", data]) == 0

    train_cfg = write_train_cfg(root / "train.cfg")
    run = str(root / "run")
    assert main(["train", "--config", train_cfg, "--data", data, "--out", run]) == 0

    train_cfg2 = write_train_cfg(root / "train2.cfg", seed=4)
    run2 = str(root / "run2")
    assert main(["train", "--config", train_cfg2, "--data", data, "--out", run2]) == 0

    emb = {}
    for kind in ("sat", "drone"):
        emb[kind] = str(root / f"emb_{kind}.bin")
        assert main(["embed", "--checkpoint", f"{run}/checkpoint.ckpt",
                     "--features", f"{data}/features.bin",
                     "--kind", kind, "--out", emb[kind]]) == 0
    emb2_sat = str(root / "emb2_sat.bin")
    emb2_drone = str(root / "emb2_drone.bin")
    assert main(["embed", "--checkpoint", f"{run2}/checkpoint.ckpt",
                 "--features", f"{data}/features.bin", "--kind", "sat",
                 "--out", emb2_sat]) == 0
    assert main(["embed", "--checkpoint", f"{run2}/checkpoint.ckpt",
                 "--features", f"{data}/features.bin", "--kind", "drone",
                 "--out", emb2_drone]) == 0

    metrics = str(root / "metrics.csv")
    scores = str(root / "scores.csv")
    assert main(["eval", "--gallery", emb["sat"], "--queries", emb["drone"],
                 "--relevance", f"{data}/relevance_drone2sat.csv",
                 "--k", "1,5", "--out", metrics, "--dump-scores", scores]) == 0
    scores2 = str(root / "scores2.csv")
    assert main(["eval", "--gallery", emb2_sat, "--queries", emb2_drone,
                 "--relevance", f"{data}/relevance_drone2sat.csv",
                 "--k", "1,5", "--out", str(root / "metrics2.csv"),
                 "--dump-scores", scores2]) == 0
    return {
        "root": root, "gen_cfg": gen_cfg, "data": data,
        "train_cfg": train_cfg, "run": run, "run2": run2,
        "emb": emb, "metrics": metrics, "scores": scores, "scores2": scores2,
    }


def test_cli_import_leaves_out_subprocess_and_thread_pools():
    # only the sweeps start processes (by fork) and only top_k(workers > 1) threads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import skyalign.cli; "
            "print(sorted({'subprocess', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestUsageAndExitCodes:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_buildings = many\n", encoding="utf-8")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        write_gen_cfg(cfg)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("wibble = 3\n")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "wibble" in capsys.readouterr().err

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        code = main(["gen-labels", "--manifest", str(tmp_path / "nope.csv"),
                     "--bins", "8", "--out", str(tmp_path / "labels.csv")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_malformed_manifest_reports_line_number(self, tmp_path, capsys):
        manifest = tmp_path / "poses.csv"
        manifest.write_text(
            "view_id,building_id,kind,x,y,z,status\n"
            "s0,b0,sat,0.0,0.0,0.0,ok\n"
            "d0,b0,zeppelin,1.0,1.0,1.0,ok\n",
            encoding="utf-8",
        )
        code = main(["gen-labels", "--manifest", str(manifest), "--bins", "8",
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 3
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("EPOCHS", "0"),
        ("HIDDEN_DIM", "0"),
        ("EMBED_DIM", "0"),
        ("BETA1", "1.0"),
        ("BETA1", "-0.1"),
        ("BETA2", "1.0"),
        ("ADAM_EPS", "0"),
        ("WEIGHT_DECAY", "nan"),
        ("PEAK_LR", "nan"),
        ("TEMPERATURE", "inf"),
        ("TEMPERATURE", "nan"),
        ("ORIENTATION_WEIGHT", "nan"),
        ("SEED", "x"),
        ("SEED", "-3"),
        ("ORIENTATION_MODE", "bogus"),
    ])
    def test_bad_train_config_value_exits_2(self, pipeline, tmp_path, monkeypatch, capsys,
                                            key, value):
        monkeypatch.setenv(f"SKYALIGN_{key}", value)
        code = main(["train", "--config", pipeline["train_cfg"], "--data", pipeline["data"],
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("env,argv", [
        ({"SKYALIGN_NOISE_SIGMA": "nan"}, ["gen-data"]),
        ({"SKYALIGN_SEED": "x"}, ["gen-data"]),
        ({}, ["gen-labels", "--bins", "0"]),
        ({}, ["gen-labels", "--bins", "1"]),
        ({}, ["ablate-bins", "--bins", "4,1"]),
        ({}, ["ablate-dim", "--dims", "0"]),
        ({}, ["gen-data", "--seed", "-1"]),
        ({"SKYALIGN_SEED": "-3"}, ["gen-data"]),
        ({}, ["train", "--seed", "-2"]),
        ({}, ["ablate-bins", "--seeds=-1"]),
        ({}, ["ablate-dim", "--seeds=0,-1"]),
    ], ids=["gen-data-noise-nan", "gen-data-seed-x", "gen-labels-bins-0",
            "gen-labels-bins-1", "ablate-bins-1", "ablate-dim-0", "gen-data-seed-flag-neg",
            "gen-data-seed-env-neg", "train-seed-flag-neg", "ablate-bins-seeds-neg",
            "ablate-dim-seeds-neg"])
    def test_bad_value_for_other_commands_exits_2(self, pipeline, tmp_path, monkeypatch,
                                                  capsys, env, argv):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        inputs = {
            "gen-data": ["--config", pipeline["gen_cfg"]],
            "gen-labels": ["--manifest", os.path.join(pipeline["data"], "manifest.csv")],
            "train": ["--config", pipeline["train_cfg"], "--data", pipeline["data"]],
            "ablate-bins": ["--config", pipeline["train_cfg"], "--data", pipeline["data"],
                            "--seeds", "0"],
            "ablate-dim": ["--config", pipeline["train_cfg"], "--data", pipeline["data"],
                           "--seeds", "0"],
        }[argv[0]]
        out = tmp_path / "out"
        code = main(argv[:1] + inputs + argv[1:] + ["--out", str(out)])  # argv's flags win
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "0"],
        ["eval", "--k", "1,-5"],
        ["eval", "--dim", "0"],
        ["ensemble", "--k", "0"],
        ["ensemble", "--weights", "0.5,nan"],
        ["ensemble", "--weights", "0.5,inf"],
        ["ensemble", "--weights", "0.5,nan", "--fusion", "reciprocal-rank"],
        ["ensemble", "--weights", "0.5,inf", "--fusion", "reciprocal-rank"],
    ])
    def test_bad_retrieval_option_exits_2(self, pipeline, tmp_path, capsys, argv):
        rel = os.path.join(pipeline["data"], "relevance_drone2sat.csv")
        inputs = {
            "eval": ["--gallery", pipeline["emb"]["sat"], "--queries", pipeline["emb"]["drone"]],
            "ensemble": ["--scores", pipeline["scores"], pipeline["scores2"]],
        }[argv[0]]
        code = main(argv + inputs + ["--relevance", rel, "--out", str(tmp_path / "m.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_negative_seed_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = write_gen_cfg(tmp_path / "gen.cfg", seed=-1)
        code = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "d").exists()

    def test_non_finite_features_exit_3(self, pipeline, tmp_path, capsys):
        ids, kinds, vectors, azimuths, masked = binio.read_features(
            os.path.join(pipeline["data"], "features.bin"))
        vectors[5, 0] = np.nan
        data = tmp_path / "data"
        data.mkdir()
        binio.write_features(data / "features.bin", ids, kinds, vectors, azimuths, masked)
        shutil.copy(os.path.join(pipeline["data"], "manifest.csv"), data)
        code = main(["train", "--config", pipeline["train_cfg"], "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert f"{data / 'features.bin'}: record 5: vector is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_features_without_latent_block_exit_3(self, pipeline, tmp_path, capsys, dim):
        views = binio.read_features(os.path.join(pipeline["data"], "features.bin"))
        data = tmp_path / "data"
        data.mkdir()
        binio.write_features(data / "features.bin", *views._replace(vectors=views.vectors[:, :dim]))
        shutil.copy(os.path.join(pipeline["data"], "manifest.csv"), data)
        code = main(["train", "--config", pipeline["train_cfg"], "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: feature vectors have {dim} columns; need a latent block "
            f"and 2 orientation columns\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-labels", "train"])
    @pytest.mark.parametrize("line", [2, 3], ids=["sat", "drone"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_manifest_coordinate_exits_3(self, pipeline, tmp_path, capsys,
                                                    command, line, value):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(os.path.join(pipeline["data"], "features.bin"), data)
        rows = Path(pipeline["data"], "manifest.csv").read_text(encoding="utf-8").split("\n")
        cells = rows[line - 1].split(",")
        assert cells[-1] == "ok"
        cells[3] = value
        rows[line - 1] = ",".join(cells)
        manifest = data / "manifest.csv"
        manifest.write_text("\n".join(rows), encoding="utf-8")
        argv = {
            "gen-labels": ["gen-labels", "--manifest", str(manifest), "--bins", "8"],
            "train": ["train", "--config", pipeline["train_cfg"], "--data", str(data)],
        }[command]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {manifest}:{line}: coordinate is not finite\n"


    @pytest.mark.parametrize("argv,code", [
        (["gen-data", "--config", "{bin}", "--out", "{tmp}/d"], 2),
        (["train", "--config", "{bin}", "--data", "{data}", "--out", "{tmp}/r"], 2),
        (["gen-labels", "--manifest", "{bin}", "--bins", "8", "--out", "{tmp}/l.csv"], 3),
        (["train", "--config", "{cfg}", "--data", "{tmp}/bad", "--out", "{tmp}/r"], 3),
        (["eval", "--gallery", "{sat}", "--queries", "{drone}", "--relevance", "{bin}",
          "--out", "{tmp}/m.csv"], 3),
        (["ensemble", "--scores", "{scores}", "{bin}", "--relevance", "{rel}",
          "--out", "{tmp}/m.csv"], 3),
    ], ids=["gen-data-config", "train-config", "gen-labels-manifest", "train-manifest",
            "eval-relevance", "ensemble-scores"])
    def test_non_utf8_text_input_exits_cleanly(self, pipeline, tmp_path, capsys, argv, code):
        features = os.path.join(pipeline["data"], "features.bin")
        bad = tmp_path / "bad"  # a data directory whose manifest is binary
        bad.mkdir()
        shutil.copy(features, bad / "features.bin")
        shutil.copy(features, bad / "manifest.csv")
        names = {"bin": features, "tmp": str(tmp_path), "data": pipeline["data"],
                 "cfg": pipeline["train_cfg"], "sat": pipeline["emb"]["sat"],
                 "drone": pipeline["emb"]["drone"], "scores": pipeline["scores"],
                 "rel": os.path.join(pipeline["data"], "relevance_drone2sat.csv")}
        assert main([a.format(**names) for a in argv]) == code
        err = capsys.readouterr().err
        prefix = "config error: " if code == 2 else "data error: "
        assert err.startswith(prefix) and err.endswith(": not UTF-8 text\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,target,reason", [
        (["eval", "--out", "{tmp}/missing/m.csv"], "{tmp}/missing/m.csv",
         "No such file or directory"),
        (["eval", "--out", "{tmp}/m.csv", "--dump-scores", "{tmp}/missing/s.csv"],
         "{tmp}/missing/s.csv", "No such file or directory"),
        (["eval", "--out", "{tmp}"], "{tmp}", "Is a directory"),
        (["eval", "--out", "{tmp}/m.csv", "--dump-scores", "{tmp}"], "{tmp}", "Is a directory"),
        (["ensemble", "--out", "{tmp}/missing/f.csv"], "{tmp}/missing/f.csv",
         "No such file or directory"),
        (["ensemble", "--out", "{tmp}"], "{tmp}", "Is a directory"),
        (["embed", "--out", "{tmp}/missing/x.bin"], "{tmp}/missing/x.bin",
         "No such file or directory"),
        (["gen-labels", "--out", "{tmp}/missing/l.csv"], "{tmp}/missing/l.csv",
         "No such file or directory"),
        (["ablate-dim", "--out", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv",
         "No such file or directory"),
        (["ablate-bins", "--out", "{tmp}/missing/x.csv"], "{tmp}/missing/x.csv",
         "No such file or directory"),
        (["train", "--out", "{cfg}"], "{cfg}", "File exists"),
    ], ids=["eval-out", "eval-dump-scores", "eval-out-directory", "eval-dump-scores-directory",
            "ensemble-out", "ensemble-out-directory", "embed-out", "gen-labels-out",
            "ablate-dim-out", "ablate-bins-out", "train-out-file"])
    def test_unwritable_output_exits_3(self, pipeline, tmp_path, capsys, monkeypatch, argv,
                                       target, reason):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before checking the output path")

        for name in ["skyalign.cli.train", "skyalign.ablations.score_jobs",
                     "skyalign.cli.evaluate", "skyalign.cli.score_table",
                     "skyalign.cli.ScoreTable.load", "skyalign.cli.fuse"]:
            monkeypatch.setattr(name, no_work)
        data = pipeline["data"]
        inputs = {
            "eval": ["--gallery", pipeline["emb"]["sat"], "--queries", pipeline["emb"]["drone"],
                     "--relevance", os.path.join(data, "relevance_drone2sat.csv")],
            "embed": ["--checkpoint", os.path.join(pipeline["run"], "checkpoint.ckpt"),
                      "--features", os.path.join(data, "features.bin")],
            "gen-labels": ["--manifest", os.path.join(data, "manifest.csv"), "--bins", "8"],
            "ablate-dim": ["--config", pipeline["train_cfg"], "--data", data,
                           "--dims", "8", "--seeds", "0"],
            "ablate-bins": ["--config", pipeline["train_cfg"], "--data", data,
                            "--bins", "8", "--seeds", "0"],
            "train": ["--config", pipeline["train_cfg"], "--data", data],
            "ensemble": ["--scores", pipeline["scores"], pipeline["scores2"],
                         "--relevance", os.path.join(data, "relevance_drone2sat.csv")],
        }[argv[0]]
        names = {"tmp": str(tmp_path), "cfg": pipeline["train_cfg"]}
        code = main(argv[:1] + inputs + [a.format(**names) for a in argv[1:]])
        assert code == 3
        assert capsys.readouterr().err == f"io error: {reason}: {target.format(**names)}\n"
        assert os.listdir(tmp_path) == []  # a file the check created is gone again


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_gen_cfg(tmp_path / "gen.cfg")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-data", "--config", cfg, "--out", a]) == 0
        assert main(["gen-data", "--config", cfg, "--out", b]) == 0
        for name in ("features.bin", "manifest.csv",
                     "relevance_drone2sat.csv", "relevance_sat2drone.csv"):
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), name

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_gen_cfg(tmp_path / "gen.cfg")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-data", "--config", cfg, "--out", a]) == 0
        assert main(["gen-data", "--config", cfg, "--seed", "99", "--out", b]) == 0
        assert not filecmp.cmp(os.path.join(a, "features.bin"),
                               os.path.join(b, "features.bin"), shallow=False)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_gen_cfg(tmp_path / "gen.cfg")
        a, b, c = (str(tmp_path / d) for d in "abc")
        assert main(["gen-data", "--config", cfg, "--seed", "42", "--out", a]) == 0
        monkeypatch.setenv("SKYALIGN_SEED", "42")
        assert main(["gen-data", "--config", cfg, "--out", b]) == 0
        assert filecmp.cmp(os.path.join(a, "features.bin"),
                           os.path.join(b, "features.bin"), shallow=False)
        # explicit flag still wins over the environment
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", c]) == 0
        assert not filecmp.cmp(os.path.join(a, "features.bin"),
                               os.path.join(c, "features.bin"), shallow=False)

    def test_counts_reported(self, tmp_path, capsys):
        cfg = write_gen_cfg(tmp_path / "gen.cfg", n=5, views=2)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "15 views" in out  # 5 sats + 10 drones
        assert "5 buildings" in out


class TestGenLabels:
    def test_fixture_byte_identity(self, tmp_path):
        out = tmp_path / "labels.csv"
        assert main(["gen-labels", "--manifest",
                     os.path.join(FIXTURES, "poses_small.csv"),
                     "--bins", "8", "--out", str(out)]) == 0
        expected = os.path.join(FIXTURES, "labels_small_b8.csv")
        assert out.read_bytes() == Path(expected).read_bytes()

    def test_all_failed_means_all_masked(self, tmp_path):
        cfg = write_gen_cfg(tmp_path / "gen.cfg", n=4, views=2, fail=1.0)
        data = str(tmp_path / "data")
        assert main(["gen-data", "--config", cfg, "--out", data]) == 0
        out = tmp_path / "labels.csv"
        assert main(["gen-labels", "--manifest", f"{data}/manifest.csv",
                     "--bins", "8", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        assert lines and all(line.endswith(",true") for line in lines)


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        assert os.path.isfile(os.path.join(pipeline["run"], "checkpoint.ckpt"))
        assert os.path.isfile(os.path.join(pipeline["run"], "train_log.csv"))

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = str(tmp_path / "again")
        assert main(["train", "--config", pipeline["train_cfg"],
                     "--data", pipeline["data"], "--out", out]) == 0
        for name in ("checkpoint.ckpt", "train_log.csv"):
            assert filecmp.cmp(os.path.join(pipeline["run"], name),
                               os.path.join(out, name), shallow=False), name

    def test_zero_lr_checkpoint_equals_init(self, pipeline, tmp_path):
        cfg = write_train_cfg(tmp_path / "train.cfg", lr=0.0, seed=5)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", pipeline["data"],
                     "--out", out]) == 0
        params = load_checkpoint(os.path.join(out, "checkpoint.ckpt"))
        expected = init(np.random.default_rng([5, 1]), 8, 16, 16, 8)
        for name in ("W1", "b1", "W2", "b2", "head_W", "head_b"):
            got = getattr(params, name)
            want = getattr(expected, name).astype(np.float32).astype(np.float64)
            assert np.array_equal(got, want), name

    def test_mode_none_logs_zero_orientation(self, pipeline, tmp_path):
        cfg = write_train_cfg(tmp_path / "train.cfg", mode="none")
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", pipeline["data"],
                     "--out", out]) == 0
        lines = Path(out, "train_log.csv").read_text(encoding="utf-8")
        rows = [line.split(",") for line in lines.strip().split("\n")[1:]]
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_env_config_override(self, pipeline, tmp_path, monkeypatch):
        # SKYALIGN_EPOCHS shortens the run without touching the file
        monkeypatch.setenv("SKYALIGN_EPOCHS", "1")
        out = str(tmp_path / "run")
        assert main(["train", "--config", pipeline["train_cfg"],
                     "--data", pipeline["data"], "--out", out]) == 0
        lines = Path(out, "train_log.csv").read_text(encoding="utf-8")
        n_rows = len(lines.strip().split("\n")) - 1
        assert n_rows == 3  # ceil(20/8) = 3 batches, 1 epoch

    @pytest.mark.parametrize("temperature", ["false", "true"], ids=["tau-fixed", "tau-trained"])
    def test_parameters_beyond_float32_exit_4(self, pipeline, tmp_path, capsys, temperature):
        # one step at lr 1e39 moves every weight past float32's range
        cfg = write_train_cfg(tmp_path / "train.cfg", lr=1e39, epochs=1, batch=20,
                              extra=f"train_temperature = {temperature}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", pipeline["data"],
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1, err
        assert "not finite as float32" in err
        assert not (out / "checkpoint.ckpt").exists()
        assert not (out / "train_log.csv").exists()

    @pytest.mark.parametrize("argv", [["train"], ["ablate-bins", "--bins", "8", "--seeds", "0"],
                                      ["ablate-dim", "--dims", "16", "--seeds", "0"]],
                             ids=["train", "ablate-bins", "ablate-dim"])
    def test_diverging_run_reports_one_line(self, pipeline, tmp_path, capsys, argv):
        # numpy overflow warnings would be errors here (filterwarnings), so
        # passing shows the run reports only through the loss check
        cfg = write_train_cfg(tmp_path / "train.cfg", lr=1e200)
        out = str(tmp_path / ("run" if argv == ["train"] else "sweep.csv"))
        assert main([*argv, "--config", cfg, "--data", pipeline["data"], "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: loss terms not finite: "), err
        assert err.count("\n") == 1, err


class TestEmbed:
    def test_unit_norms_and_counts(self, pipeline):
        es = EmbeddingSet.load(pipeline["emb"]["sat"])
        assert len(es.ids) == 20
        np.testing.assert_allclose(
            np.linalg.norm(es.matrix.astype(np.float64), axis=1), 1.0, atol=1e-6)
        es_d = EmbeddingSet.load(pipeline["emb"]["drone"])
        assert len(es_d.ids) == 60

    def test_kind_filter_contents(self, pipeline):
        sat_ids = set(EmbeddingSet.load(pipeline["emb"]["sat"]).ids)
        drone_ids = set(EmbeddingSet.load(pipeline["emb"]["drone"]).ids)
        assert not sat_ids & drone_ids
        ids, kinds, _, _, _ = binio.read_features(
            os.path.join(pipeline["data"], "features.bin"))
        want_sat = {i for i, k in zip(ids, kinds) if k == binio.KIND_SAT_CODE}
        assert sat_ids == want_sat

    def test_kind_all_is_union(self, pipeline, tmp_path):
        out = str(tmp_path / "emb_all.bin")
        assert main(["embed", "--checkpoint",
                     os.path.join(pipeline["run"], "checkpoint.ckpt"),
                     "--features", os.path.join(pipeline["data"], "features.bin"),
                     "--out", out]) == 0
        assert len(EmbeddingSet.load(out).ids) == 80

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        out = str(tmp_path / "emb.bin")
        assert main(["embed", "--checkpoint",
                     os.path.join(pipeline["run"], "checkpoint.ckpt"),
                     "--features", os.path.join(pipeline["data"], "features.bin"),
                     "--kind", "sat", "--out", out]) == 0
        assert filecmp.cmp(pipeline["emb"]["sat"], out, shallow=False)

    def test_dim_mismatch_exits_3(self, pipeline, tmp_path, capsys):
        cfg = write_gen_cfg(tmp_path / "gen.cfg", latent=12)
        other = str(tmp_path / "other")
        assert main(["gen-data", "--config", cfg, "--out", other]) == 0
        code = main(["embed", "--checkpoint",
                     os.path.join(pipeline["run"], "checkpoint.ckpt"),
                     "--features", os.path.join(other, "features.bin"),
                     "--out", str(tmp_path / "emb.bin")])
        assert code == 3
        assert "dim" in capsys.readouterr().err


class TestEval:
    def test_metrics_file_shape(self, pipeline):
        lines = Path(pipeline["metrics"]).read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "metric,k,value"
        assert lines[1].startswith("recall,1,")
        assert lines[2].startswith("recall,5,")
        assert lines[3].startswith("ap,,")

    def test_self_retrieval_is_perfect(self, pipeline, tmp_path, capsys):
        rel = tmp_path / "self.csv"
        ids = EmbeddingSet.load(pipeline["emb"]["sat"]).ids
        rel.write_text("query_id,gallery_id\n" +
                       "".join(f"{i},{i}\n" for i in ids), encoding="utf-8")
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["sat"],
                     "--relevance", str(rel), "--k", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[1] == "recall,1,1.0"
        assert lines[2] == "ap,,1.0"

    def test_dim_flag_matches_in_process_truncation(self, pipeline, tmp_path):
        from skyalign.retrieval_eval import (evaluate, read_relevance,
                                             truncate_dim, write_metrics)
        out = tmp_path / "metrics_d8.csv"
        assert main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--dim", "8", "--out", str(out)]) == 0
        gallery = truncate_dim(EmbeddingSet.load(pipeline["emb"]["sat"]), 8)
        queries = truncate_dim(EmbeddingSet.load(pipeline["emb"]["drone"]), 8)
        rel = read_relevance(os.path.join(pipeline["data"], "relevance_drone2sat.csv"))
        rows = evaluate(queries, gallery, rel, [1])
        expected = tmp_path / "expected.csv"
        write_metrics(rows, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_non_finite_embedding_exits_4(self, pipeline, tmp_path, capsys):
        ids, matrix = binio.read_embeddings(pipeline["emb"]["drone"])
        matrix[3, 1] = np.nan
        bad = tmp_path / "drone_nan.bin"
        binio.write_embeddings(bad, ids, matrix)
        code = main(["eval", "--gallery", pipeline["emb"]["sat"], "--queries", str(bad),
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--out", str(tmp_path / "m.csv")])
        assert code == 4
        assert "row 3 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["--queries", "--gallery"])
    @pytest.mark.parametrize("dim", [None, 1], ids=["whole", "dim-1"])
    def test_zero_row_names_file_and_dim(self, pipeline, tmp_path, capsys, role, dim):
        ids, matrix = binio.read_embeddings(pipeline["emb"]["drone" if role == "--queries"
                                                           else "sat"])
        matrix[1] = 0.0 if dim is None else np.r_[0.0, np.ones(matrix.shape[1] - 1)]
        bad = tmp_path / "zero_row.bin"
        binio.write_embeddings(bad, ids, matrix)
        args = {"--gallery": pipeline["emb"]["sat"], "--queries": pipeline["emb"]["drone"],
                role: str(bad)}
        flags = [] if dim is None else ["--dim", str(dim)]
        out = tmp_path / "m.csv"
        code = main(["eval", *(x for kv in args.items() for x in kv), "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", *flags, "--out", str(out)])
        assert code == 4
        where = str(bad) if dim is None else f"{bad} with --dim {dim}"
        assert capsys.readouterr().err == (f"numeric error: {where}: "
                                           f"embedding row 1 has norm 0.000e+00\n")
        assert not out.exists()

    def test_oversized_dim_exits_3(self, pipeline, tmp_path, capsys):
        code = main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--dim", "500",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 3

    @pytest.mark.parametrize("empty_gallery", [False, True], ids=["queries", "both"])
    @pytest.mark.parametrize("dump", [False, True], ids=["metrics", "dump-scores"])
    def test_empty_query_set_exits_3(self, pipeline, tmp_path, capsys, empty_gallery, dump):
        dim = EmbeddingSet.load(pipeline["emb"]["sat"]).dim
        empty = tmp_path / "empty.bin"
        binio.write_embeddings(empty, [], np.zeros((0, dim), dtype=np.float32))
        out = tmp_path / "m.csv"
        argv = ["eval", "--gallery", str(empty) if empty_gallery else pipeline["emb"]["sat"],
                "--queries", str(empty), "--relevance",
                os.path.join(pipeline["data"], "relevance_drone2sat.csv"), "--out", str(out)]
        if dump:
            argv += ["--dump-scores", str(tmp_path / "s.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: {empty}: no query embeddings\n"
        assert not out.exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("role", ["--queries", "--gallery"])
    def test_zero_width_embeddings_exit_3(self, pipeline, tmp_path, capsys, role):
        ids = EmbeddingSet.load(pipeline["emb"]["drone" if role == "--queries" else "sat"]).ids
        flat = tmp_path / "flat.bin"
        record_write_embeddings(flat, ids, np.zeros((len(ids), 0), dtype=np.float32))
        args = {"--gallery": pipeline["emb"]["sat"], "--queries": pipeline["emb"]["drone"],
                role: str(flat)}
        out = tmp_path / "m.csv"
        assert main(["eval", *(x for kv in args.items() for x in kv), "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: {flat}: embedding dim 0 must be >= 1\n"
        assert not out.exists()

    def test_bad_k_list_exits_2(self, pipeline, tmp_path):
        code = main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1,banana", "--out", str(tmp_path / "m.csv")])
        assert code == 2


class TestEnsemble:
    def test_single_table_rejected(self, pipeline, tmp_path):
        code = main(["ensemble", "--scores", pipeline["scores"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_duplicate_table_matches_single_model_eval(self, pipeline, tmp_path):
        out = tmp_path / "fused.csv"
        assert main(["ensemble", "--scores", pipeline["scores"], pipeline["scores"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1,5", "--out", str(out)]) == 0
        assert out.read_bytes() == Path(pipeline["metrics"]).read_bytes()

    def test_two_model_fusion_runs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "fused.csv"
        assert main(["ensemble", "--scores", pipeline["scores"], pipeline["scores2"],
                     "--weights", "0.7,0.3",
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--out", str(out)]) == 0
        assert "recall@1" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").startswith("metric,k,value")

    def test_reciprocal_rank_fusion_runs(self, pipeline, tmp_path):
        out = tmp_path / "fused.csv"
        assert main(["ensemble", "--scores", pipeline["scores"], pipeline["scores2"],
                     "--fusion", "reciprocal-rank",
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--out", str(out)]) == 0

    def test_non_finite_score_exits_3(self, pipeline, tmp_path, capsys):
        lines = Path(pipeline["scores"]).read_text(encoding="utf-8").split("\n")
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)
        bad = tmp_path / "scores_nan.csv"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["ensemble", "--scores", pipeline["scores"], str(bad),
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert f"{bad}:4: score is not finite" in capsys.readouterr().err

    def test_header_only_table_exits_3(self, pipeline, tmp_path, capsys):
        header = Path(pipeline["scores"]).read_text(encoding="utf-8").split("\n")[0]
        bad = tmp_path / "scores_empty.csv"
        bad.write_text(header + "\n", encoding="utf-8")
        code = main(["ensemble", "--scores", pipeline["scores"], str(bad),
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 3
        assert capsys.readouterr().err == \
            f"data error: {bad}: no query rows or no gallery columns\n"

    def test_weight_count_mismatch_exits_2(self, pipeline, tmp_path):
        code = main(["ensemble", "--scores", pipeline["scores"], pipeline["scores2"],
                     "--weights", "1.0",
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2


class TestAblations:
    def test_ablate_bins_sweep(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bins.csv"
        assert main(["ablate-bins", "--config", pipeline["train_cfg"],
                     "--data", pipeline["data"], "--bins", "4,none",
                     "--seeds", "0", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "bins,seed,recall_at_1,ap"
        assert len(lines) == 3
        assert lines[1].startswith("4,0,")
        assert lines[2].startswith("none,0,")
        assert "bins=none" in capsys.readouterr().out

    def test_ablate_dim_sweep(self, pipeline, tmp_path):
        out = tmp_path / "dims.csv"
        assert main(["ablate-dim", "--config", pipeline["train_cfg"],
                     "--data", pipeline["data"], "--dims", "8,16",
                     "--seeds", "0,1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "embed_dim,seed,recall_at_1,ap"
        assert len(lines) == 5

    @pytest.mark.parametrize("argv", [["ablate-bins", "--bins", "8"],
                                      ["ablate-dim", "--dims", "8"]],
                             ids=["ablate-bins", "ablate-dim"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_failed_sweep_leaves_out_as_it_was(self, pipeline, tmp_path, capsys, monkeypatch,
                                               argv, existing):
        def diverged(*args, **kwargs):
            raise NonFiniteLoss("loss is not finite at step 1")

        monkeypatch.setattr("skyalign.ablations.score_jobs", diverged)
        out = tmp_path / "sweep.csv"
        if existing:
            out.write_bytes(b"earlier,contents\r\n")
        code = main([*argv, "--config", pipeline["train_cfg"], "--data", pipeline["data"],
                     "--seeds", "0", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == "numeric error: loss is not finite at step 1\n"
        if existing:
            assert out.read_bytes() == b"earlier,contents\r\n"
        else:
            assert not out.exists()
