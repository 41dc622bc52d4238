"""End-to-end command-line tests: every subcommand exercised in-process
through main(argv), with exit codes, artifact bytes, and env overrides."""

import errno
import filecmp
import importlib.util
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skyalign import binio, retrieval_eval
from skyalign.cli import build_parser, main
from skyalign.errors import NonFiniteLoss
from skyalign.model import init, load_checkpoint
from skyalign.retrieval_eval import EmbeddingSet

from oracles import record_write_embeddings, record_write_features

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


def with_inputs(pipeline, argv, out):
    """argv with the pipeline's inputs for its command after its first word
    and --out out at its end; argv's own flags follow the inputs, so they win."""
    inputs = {
        "gen-data": ["--config", pipeline["gen_cfg"]],
        "gen-labels": ["--manifest", os.path.join(pipeline["data"], "manifest.csv")],
        "train": ["--config", pipeline["train_cfg"], "--data", pipeline["data"]],
        "ablate-bins": ["--config", pipeline["train_cfg"], "--data", pipeline["data"],
                        "--seeds", "0"],
        "ablate-dim": ["--config", pipeline["train_cfg"], "--data", pipeline["data"],
                       "--seeds", "0"],
    }[argv[0]]
    return argv[:1] + inputs + argv[1:] + ["--out", str(out)]


def _views_where(views, keep):
    keep = np.asarray(keep)
    return binio.Views([i for i, k in zip(views.ids, keep) if k], views.kinds[keep],
                       views.vectors[keep], views.azimuths[keep], views.masked[keep])


def _drones_only(views):
    return _views_where(views, views.kinds == binio.KIND_DRONE_CODE)


def _sats_only(views):
    return _views_where(views, views.kinds == binio.KIND_SAT_CODE)


def _b0000_without_drones(views):
    return _views_where(views, [k == binio.KIND_SAT_CODE or not i.startswith("b0000_")
                                for i, k in zip(views.ids, views.kinds)])


def _b0000_with_two_sats(views):
    kinds = views.kinds.copy()
    kinds[views.ids.index("b0000_d00")] = binio.KIND_SAT_CODE
    return views._replace(kinds=kinds)


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
    # only the sweeps start processes (by fork), and no command needs a thread pool
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import skyalign.cli; "
            "print(sorted({'subprocess', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_benchmark_tracer_resolves_every_target():
    # perfbench/tracing.py wraps skyalign functions by name, so a rename under
    # src/ breaks every traced benchmark pass; a fresh interpreter, because
    # install rebinds module globals
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import skyalign.cli; "
            "import skyalign.retrieval_eval; import tracing; "
            "sky = {n: sys.modules['skyalign.' + n] for n in tracing.MODULES}; "
            "print(len(tracing._targets(sky)), tracing.install(tracing.Tracer()))")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"),
                           os.path.join(root, "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    targets, bindings = map(int, proc.stdout.split())
    assert bindings >= targets >= 1  # each target rebinds at least where it is defined


def _load_module(monkeypatch, name, path):
    """Execute path as module name, registered in sys.modules for this test only."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench/run.py loaded as a module, in the repo root, from which it
    reads its configs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.chdir(root)
    bench = os.path.join(root, "perfbench")
    for name in ("reference", "tracing"):
        _load_module(monkeypatch, name, os.path.join(bench, f"{name}.py"))
    return _load_module(monkeypatch, "perfbench_run", os.path.join(bench, "run.py"))


def test_benchmark_command_lines_parse(bench_run, tmp_path):
    # perfbench/run.py drives the CLI by argv, so a renamed flag or command
    # fails here rather than in the benchmark
    run = bench_run
    parser = build_parser()
    for workload in (run.Desk(), run.Scale()):
        workload.prepare(str(tmp_path), 1)
        for command in workload.commands(str(tmp_path)):
            try:
                parser.parse_args(command.argv)
            except SystemExit:
                pytest.fail(f"{workload.name}: {command.argv} does not parse")
    # the search workload calls top_k with workers=, and times the package's blocks
    assert retrieval_eval.DEFAULT_QUERY_BLOCK >= 1 and retrieval_eval.DEFAULT_GALLERY_BLOCK >= 1
    rng = np.random.default_rng(0)
    gallery = EmbeddingSet.from_rows([f"g{i}" for i in range(30)],
                                     rng.standard_normal((30, 8), dtype=np.float32))
    queries = EmbeddingSet.from_rows([f"q{i}" for i in range(4)],
                                     rng.standard_normal((4, 8), dtype=np.float32))
    ranked = retrieval_eval.top_k(gallery, queries, run.SEARCH_SHAPE[3], workers=1)
    assert [len(r.gallery_ids) for r in ranked] == [run.SEARCH_SHAPE[3]] * 4


def test_benchmark_outputs_pass_its_checks(bench_run, tmp_path, capsys):
    # the benchmark refuses a change whose outputs fail reference.py's
    # checks: the desk commands, with their sweeps shrunk, and a small search
    desk = bench_run.Desk()
    desk.bins, desk.dims, desk.sweep_seeds = ["8", "none"], ["32"], [0]
    d = str(tmp_path)
    desk.prepare(d, 1)
    for command in desk.commands(d):
        assert main(command.argv) == 0, (command.argv, capsys.readouterr().err)
    assert {name: problems for name, problems in desk.check(d) if problems} == {}

    ref = sys.modules["reference"]
    rng = np.random.default_rng(1)
    gallery = rng.standard_normal((300, 24), dtype=np.float32)
    queries = rng.standard_normal((12, 24), dtype=np.float32)
    k = bench_run.SEARCH_SHAPE[3]
    ranked = retrieval_eval.top_k(
        EmbeddingSet.from_rows([f"g{i:06d}" for i in range(300)], gallery),
        EmbeddingSet.from_rows([f"q{i:04d}" for i in range(12)], queries), k, workers=1)
    ids = np.array([[int(g[1:]) for g in r.gallery_ids] for r in ranked], dtype=np.int64)
    scores = np.array([r.scores for r in ranked])
    ref_ids, ref_scores = ref.search_reference(gallery, queries, k)
    assert ref.check_search(gallery, queries, ref_ids, ref_scores, ids, scores, k) == []


def test_scale_benchmark_outputs_pass_its_checks(bench_run, tmp_path, capsys):
    # the scale workload's commands as the benchmark runs them (1 000
    # buildings, batch 512), so its output checks hold for train, embed and eval
    scale = bench_run.Scale()
    d = str(tmp_path)
    scale.prepare(d, 1)
    for command in scale.commands(d):
        assert main(command.argv) == 0, (command.argv, capsys.readouterr().err)
    assert {name: problems for name, problems in scale.check(d) if problems} == {}


class TestUsageAndExitCodes:
    @pytest.mark.parametrize("argv", [
        ["gen-labels", "--manifest", "m.csv", "--bins", "8", "--out", "l.csv"],
        ["embed", "--checkpoint", "c.ckpt", "--features", "f.bin", "--out", "e.bin"],
        ["eval", "--gallery", "g.bin", "--queries", "q.bin", "--relevance", "r.csv",
         "--out", "m.csv"],
        ["ensemble", "--scores", "a.csv", "b.csv", "--relevance", "r.csv", "--out", "m.csv"],
        ["ablate-bins", "--config", "t.cfg", "--data", "d", "--out", "s.csv"],
        ["ablate-dim", "--config", "t.cfg", "--data", "d", "--out", "s.csv"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_unknown_outside_gen_data_and_train(self, tmp_path, monkeypatch, capsys,
                                                        argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 1\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,stage", [
        (["gen-data", "--config", "{gen}", "--out", "{tmp}/data"], "skyalign.cli.generate"),
        (["eval", "--gallery", "{sat}", "--queries", "{drone}", "--relevance", "{rel}",
          "--out", "{tmp}/m.csv", "--dump-scores", "{tmp}/s.csv"], "skyalign.cli.evaluate"),
        (["ablate-dim", "--config", "{train}", "--data", "{data}", "--dims", "8", "--seeds", "0",
          "--out", "{tmp}/sweep.csv"], "skyalign.ablations.score_jobs"),
    ], ids=["gen-data", "eval", "ablate-dim"])
    def test_out_of_memory_exits_4_with_one_line(self, pipeline, tmp_path, capsys, monkeypatch,
                                                 argv, stage):
        # raised, not provoked: under overcommit a real oversized allocation
        # can succeed and then be killed
        message = ("Unable to allocate 373. GiB for an array with shape (99999999999, 500) "
                   "and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(stage, out_of_memory)
        names = {"tmp": tmp_path, "gen": pipeline["gen_cfg"], "train": pipeline["train_cfg"],
                 "data": pipeline["data"], "sat": pipeline["emb"]["sat"],
                 "drone": pipeline["emb"]["drone"],
                 "rel": os.path.join(pipeline["data"], "relevance_drone2sat.csv")}
        assert main([a.format(**names) for a in argv]) == 4
        assert capsys.readouterr().err == f"memory error: {message}\n"
        assert os.listdir(tmp_path) == []

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
        out = tmp_path / "out"
        code = main(with_inputs(pipeline, argv, out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("env,argv,error", [
        ({"SKYALIGN_N_BUILDINGS": str(2**62)}, ["gen-data"], "memory"),
        ({"SKYALIGN_LATENT_DIM": str(10**20)}, ["gen-data"], "memory"),
        ({"SKYALIGN_VIEWS_PER_BUILDING": str(10**20)}, ["gen-data"], "memory"),
        ({"SKYALIGN_BINS": str(10**20)}, ["gen-data"], "config"),
        ({"SKYALIGN_NOISE_SIGMA": "1e300"}, ["gen-data"], "numeric"),
        ({"SKYALIGN_HIDDEN_DIM": str(10**20)}, ["train"], "memory"),
        ({"SKYALIGN_EMBED_DIM": str(10**20)}, ["train"], "memory"),
        ({"SKYALIGN_HIDDEN_DIM": str(2**62)}, ["train"], "memory"),
        ({"SKYALIGN_EMBED_DIM": str(2**62)}, ["train"], "memory"),
        ({"SKYALIGN_BINS": str(10**20)}, ["train"], "config"),
        ({}, ["gen-labels", "--bins", str(10**20)], "config"),
        ({}, ["ablate-bins", "--bins", str(10**20)], "config"),
        ({}, ["ablate-dim", "--dims", str(10**20)], "memory"),
    ], ids=["gen-data-buildings-2**62", "gen-data-latent-1e20", "gen-data-views-1e20",
            "gen-data-bins-1e20", "gen-data-noise-1e300", "train-hidden-1e20",
            "train-embed-1e20", "train-hidden-2**62", "train-embed-2**62", "train-bins-1e20",
            "gen-labels-bins-1e20", "ablate-bins-1e20", "ablate-dim-1e20"])
    def test_oversized_value_exits_with_one_line_and_no_output(self, pipeline, tmp_path,
                                                               monkeypatch, capsys, env, argv,
                                                               error):
        # numpy refuses such shapes with ValueError or OverflowError, so the
        # sizes are checked before it is asked; a huge noise overflows float32
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "out"
        code = main(with_inputs(pipeline, argv, out))
        err = capsys.readouterr().err
        assert code == (2 if error == "config" else 4)
        assert err.startswith(f"{error} error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command,last_write", [
        ("gen-data", "skyalign.cli.write_relevance"),
        ("train", "skyalign.cli.write_train_log"),
    ])
    def test_failed_run_removes_only_an_out_directory_it_made(self, pipeline, tmp_path, capsys,
                                                              monkeypatch, command, last_write,
                                                              existing):
        # the command fails at its last write, when its other files are
        # written; an existing --out holds an earlier run's artefacts, which
        # stay as they were, with none of the failed run's beside them
        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(args[-1]))

        out = tmp_path / "parent" / "out"
        if existing:
            assert main(with_inputs(pipeline, [command], out)) == 0
            (out / "keep.txt").write_text("kept", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        capsys.readouterr()
        monkeypatch.setattr(last_write, disk_full)
        assert main(with_inputs(pipeline, [command, "--seed", "11"], out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"io error: No space left on device: {out}") and err.count("\n") == 1
        if existing:
            assert (out / "keep.txt").read_text(encoding="utf-8") == "kept"
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,bad,code,err", [
        (["train", "--config", "{train}", "--data", "{data}"], ("features", _drones_only), 3,
         "data error: no satellite views in feature set"),
        (["train", "--config", "{train}", "--data", "{data}"], ("features", _sats_only), 3,
         "data error: no drone views in feature set"),
        (["train", "--config", "{train}", "--data", "{data}"],
         ("features", _b0000_without_drones), 3,
         "data error: building 'b0000' has no drone views"),
        (["train", "--config", "{train}", "--data", "{data}"],
         ("features", _b0000_with_two_sats), 3,
         "data error: building 'b0000' has two satellite views"),
        (["gen-labels", "--manifest", "{bad}", "--bins", "8"],
         ("manifest", lambda b: b.replace(b"b0000_sat,", b"b0000_sat,,", 1)), 3,
         "data error: {bad}:2: expected 7 fields, got 8"),
        (["eval", "--gallery", "{sat}", "--queries", "{drone}", "--relevance", "{bad}"],
         ("rel", lambda b: b.replace(b"b0000_d00,", b"b0000_d00,x,", 1)), 3,
         "data error: {bad}:2: expected 2 fields"),
        (["gen-data", "--config", "{bad}"], ("gen", lambda b: b + b"seed 1\n"), 2,
         "config error: {bad}:8: expected key = value"),
        (["gen-data", "--config", "{bad}"], ("gen", lambda b: b + b" = 1\n"), 2,
         "config error: {bad}:8: empty key"),
        (["gen-data", "--config", "{bad}"], ("gen", lambda b: b + b"seed = 1\n"), 2,
         "config error: {bad}:8: duplicate key 'seed'"),
        (["gen-data", "--config", "{bad}"], ("gen", lambda b: b.split(b"\n")[0]), 2,
         "config error: {bad}: missing keys: views_per_building, latent_dim, noise_sigma, "
         "fail_prob, seed, bins"),
        (["ensemble", "--scores", "{scores}", "{bad}", "--relevance", "{rel}"],
         ("scores2", lambda b: b.replace(b"\nb0000_d00,", b"\nb0000_d00,x", 1)), 3,
         "data error: {bad}:2: score is not a number"),
        (["ensemble", "--scores", "{scores}", "{scores2}", "--weights", "a,b",
          "--relevance", "{rel}"], None, 2,
         "config error: expected comma-separated numbers, got 'a,b'"),
        (["ablate-dim", "--config", "{train}", "--data", "{data}", "--seeds", ""], None, 2,
         "config error: need at least one seed"),
        (["ablate-bins", "--config", "{train}", "--data", "{data}", "--bins", "x",
          "--seeds", "0"], None, 2, "config error: bad bins entry 'x'"),
        (["embed", "--checkpoint", "{ckpt}", "--features", "{features}", "--kind", "sat"],
         ("features", _drones_only), 3, "data error: no views of kind 'sat' in {features}"),
        (["embed", "--checkpoint", "{bad}", "--features", "{features}"],
         ("ckpt", lambda b: b + b"\0"), 3, "data error: {bad}: trailing bytes after temperature"),
        (["train", "--config", "{bad}", "--data", "{data}"],
         ("train", lambda b: b.replace(b"peak_lr = 0.01", b"peak_lr = -1")), 2,
         "config error: peak_lr must be >= 0"),
        # both loss terms are finite, but their weighted sum overflows
        (["train", "--config", "{bad}", "--data", "{data}"],
         ("train", lambda b: b + b"orientation_weight = 1e308\n"), 4,
         "numeric error: loss inf at step 0"),
    ], ids=["dataset-no-sats", "dataset-no-drones", "dataset-building-no-drones",
            "dataset-two-sats", "manifest-fields", "relevance-fields", "config-no-equals",
            "config-empty-key", "config-duplicate-key", "config-missing-gen-keys",
            "score-not-a-number", "weights-not-numbers", "seeds-empty", "bins-not-a-number",
            "embed-no-views-of-kind", "checkpoint-trailing-byte", "peak-lr-negative",
            "loss-sum-overflows"])
    def test_bad_input_exits_with_one_line_and_no_output(self, pipeline, tmp_path, capsys,
                                                         argv, bad, code, err):
        data = pipeline["data"]
        names = {"gen": pipeline["gen_cfg"], "train": pipeline["train_cfg"], "data": data,
                 "features": os.path.join(data, "features.bin"),
                 "manifest": os.path.join(data, "manifest.csv"),
                 "rel": os.path.join(data, "relevance_drone2sat.csv"),
                 "ckpt": os.path.join(pipeline["run"], "checkpoint.ckpt"),
                 "sat": pipeline["emb"]["sat"], "drone": pipeline["emb"]["drone"],
                 "scores": pipeline["scores"], "scores2": pipeline["scores2"]}
        if bad is not None and bad[0] == "features":  # a data directory with edited views
            names["data"] = str(tmp_path / "data")
            os.mkdir(names["data"])
            views = bad[1](binio.read_features(names["features"]))
            names["features"] = os.path.join(names["data"], "features.bin")
            binio.write_features(names["features"], *views)
            shutil.copy(names["manifest"], names["data"])
        elif bad is not None:  # an edited copy of one input file
            names["bad"] = str(tmp_path / "bad")
            Path(names["bad"]).write_bytes(bad[1](Path(names[bad[0]]).read_bytes()))
        out = tmp_path / "out"
        assert main([a.format(**names) for a in argv] + ["--out", str(out)]) == code
        assert capsys.readouterr().err == err.format(**names) + "\n"
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
        record_write_features(data / "features.bin", ids, kinds, vectors, azimuths, masked)
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

    @pytest.mark.parametrize("command", ["eval", "ensemble", "gen-labels", "train"])
    def test_field_over_csv_limit_exits_3(self, pipeline, tmp_path, capsys, command):
        # csv refuses a field over csv.field_size_limit() (131 072 characters)
        data = pipeline["data"]
        bad = tmp_path / "inputs"
        bad.mkdir()
        shutil.copy(os.path.join(data, "features.bin"), bad)
        long_id = "x" * 200_000
        text = {
            "eval": f"query_id,gallery_id\r\n{long_id},s0\r\n",
            "ensemble": f"query_id,g0\r\n{long_id},0.5\r\n",
            "gen-labels": f"view_id,building_id,kind,x,y,z,status\r\n{long_id},b,drone,0,0,1,ok\r\n",
            "train": f"view_id,building_id,kind,x,y,z,status\r\n{long_id},b,drone,0,0,1,ok\r\n",
        }[command]
        path = bad / ("manifest.csv" if command in ("gen-labels", "train") else "input.csv")
        path.write_text(text, encoding="utf-8")
        rel = os.path.join(data, "relevance_drone2sat.csv")
        argv = {
            "eval": ["eval", "--gallery", pipeline["emb"]["sat"], "--queries",
                     pipeline["emb"]["drone"], "--relevance", str(path)],
            "ensemble": ["ensemble", "--scores", str(path), pipeline["scores"],
                         "--relevance", rel],
            "gen-labels": ["gen-labels", "--manifest", str(path), "--bins", "8"],
            "train": ["train", "--config", pipeline["train_cfg"], "--data", str(bad)],
        }[command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            f"data error: {path}: field larger than field limit (131072)\n"
        assert not out.exists()

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
                     "skyalign.cli.ScoreTable.load", "skyalign.cli.fused_metrics"]:
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

    @pytest.mark.parametrize("command", ["embed", "gen-labels"])
    def test_unusable_out_reported_before_a_corrupt_input(self, pipeline, tmp_path, capsys,
                                                          command):
        # the checkpoint or manifest is unreadable too, so the io error shows
        # that --out was checked before the input was read
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00corrupt\xff\n")
        argv = {
            "embed": ["embed", "--checkpoint", str(bad),
                      "--features", os.path.join(pipeline["data"], "features.bin")],
            "gen-labels": ["gen-labels", "--manifest", str(bad), "--bins", "8"],
        }[command]
        out = tmp_path / "missing" / "out"
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"io error: No such file or directory: {out}\n"
        assert sorted(os.listdir(tmp_path)) == ["bad"]

    @pytest.mark.parametrize("command,writer", [
        ("embed", "skyalign.binio.write_embeddings"),
        ("gen-labels", "skyalign.cli.write_labels"),
    ])
    def test_failed_write_leaves_no_file(self, pipeline, tmp_path, capsys, monkeypatch,
                                         command, writer):
        # the writer writes the whole file, then fails as a full disk would
        module, name = writer.rsplit(".", 1)
        write = getattr(sys.modules[module], name)

        def write_then_fail(*args):
            write(*args)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out))

        monkeypatch.setattr(writer, write_then_fail)
        argv = {
            "embed": ["embed", "--checkpoint", os.path.join(pipeline["run"], "checkpoint.ckpt"),
                      "--features", os.path.join(pipeline["data"], "features.bin")],
            "gen-labels": ["gen-labels", "--manifest",
                           os.path.join(pipeline["data"], "manifest.csv"), "--bins", "8"],
        }[command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"io error: No space left on device: {out}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["gen-labels", "eval"])
    def test_full_disk_error_names_no_file(self, pipeline, tmp_path, capsys, command):
        # a write to /dev/full fails with ENOSPC and no file name
        data = pipeline["data"]
        argv = {
            "gen-labels": ["gen-labels", "--manifest", os.path.join(data, "manifest.csv"),
                           "--bins", "8", "--out", "/dev/full"],
            "eval": ["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance", os.path.join(data, "relevance_drone2sat.csv"),
                     "--out", str(tmp_path / "m.csv"), "--dump-scores", "/dev/full"],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == "io error: No space left on device\n"

    def test_eval_score_table_failure_leaves_out_as_it_was(self, pipeline, tmp_path, capsys,
                                                          monkeypatch):
        # the dump's table is built before --out is written, so a table that
        # does not fit leaves an earlier --out untouched
        def out_of_memory(*args):
            raise MemoryError("no room for the score table")

        monkeypatch.setattr("skyalign.cli.score_table", out_of_memory)
        out = tmp_path / "m.csv"
        out.write_bytes(b"earlier metrics\r\n")
        data = pipeline["data"]
        assert main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance", os.path.join(data, "relevance_drone2sat.csv"),
                     "--out", str(out), "--dump-scores", str(tmp_path / "s.csv")]) == 4
        assert capsys.readouterr().err == "memory error: no room for the score table\n"
        assert out.read_bytes() == b"earlier metrics\r\n"
        assert os.listdir(tmp_path) == ["m.csv"]


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

    def test_temperature_below_one_exp_range_trains(self, pipeline, tmp_path):
        # tau = 0.001 takes InfoNCE's per-row and per-column shifts
        cfg = write_train_cfg(tmp_path / "train.cfg", extra="temperature = 0.001\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", pipeline["data"],
                     "--out", str(out)]) == 0
        lines = (out / "train_log.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
        assert lines and all(math.isfinite(float(v)) for line in lines for v in line.split(","))

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


    @pytest.mark.parametrize("argv,repeated", [
        (["ablate-bins", "--bins", "4,8,none,8", "--seeds", "0"], "--bins repeats 8"),
        (["ablate-bins", "--bins", "none,4,none", "--seeds", "0"], "--bins repeats none"),
        (["ablate-bins", "--bins", "8,08", "--seeds", "0"], "--bins repeats 8"),
        (["ablate-dim", "--dims", "8,16,8", "--seeds", "0"], "--dims repeats 8"),
        (["ablate-bins", "--bins", "8,none", "--seeds", "0,0"], "--seeds repeats 0"),
        (["ablate-dim", "--dims", "8,16,8", "--seeds", "1,2,1"], "--seeds repeats 1"),
    ], ids=["bins-count", "bins-none", "bins-same-int", "dims", "bins-seeds", "dims-seeds-first"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_repeated_setting_or_seed_exits_2_before_training(self, pipeline, tmp_path, capsys,
                                                              monkeypatch, argv, repeated,
                                                              existing):
        def trained(*args, **kwargs):
            raise AssertionError("a sweep with a repeated value trained")

        monkeypatch.setattr("skyalign.ablations.score_jobs", trained)
        monkeypatch.setattr("skyalign.ablations.train_and_score", trained)
        out = tmp_path / "sweep.csv"
        if existing:
            out.write_bytes(b"earlier,contents\r\n")
        code = main([*argv, "--config", pipeline["train_cfg"], "--data", pipeline["data"],
                     "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"config error: {repeated}\n")
        if existing:
            assert out.read_bytes() == b"earlier,contents\r\n"
        else:
            assert os.listdir(tmp_path) == []

    def test_base_bin_count_and_none_are_two_settings(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        # the pipeline's train config has bins = 8
        monkeypatch.setattr("skyalign.ablations.score_jobs",
                            lambda jobs: [{"recall@1": 0.25, "ap": 0.5}] * len(jobs))
        out = tmp_path / "bins.csv"
        assert main(["ablate-bins", "--config", pipeline["train_cfg"], "--data", pipeline["data"],
                     "--bins", "8,none", "--seeds", "0,1", "--out", str(out)]) == 0
        assert out.read_bytes() == (b"bins,seed,recall_at_1,ap\r\n8,0,0.25,0.5\r\n8,1,0.25,0.5\r\n"
                                    b"none,0,0.25,0.5\r\nnone,1,0.25,0.5\r\n")
        assert capsys.readouterr().out == ("bins=8: mean R@1 = 0.2500\n"
                                           "bins=none: mean R@1 = 0.2500\n"
                                           f"wrote sweep to {out}\n")


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

    @pytest.mark.parametrize("role", ["--queries", "--gallery"])
    def test_duplicate_id_names_file_and_id(self, pipeline, tmp_path, capsys, role):
        ids, matrix = binio.read_embeddings(pipeline["emb"]["drone" if role == "--queries"
                                                           else "sat"])
        ids[2], ids[4] = ids[1], ids[0]  # ids[1] repeats first, at row 2
        bad = tmp_path / "dup.bin"
        binio.write_embeddings(bad, ids, matrix)
        args = {"--gallery": pipeline["emb"]["sat"], "--queries": pipeline["emb"]["drone"],
                role: str(bad)}
        out = tmp_path / "m.csv"
        code = main(["eval", *(x for kv in args.items() for x in kv), "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (f"data error: {bad}: duplicate id {ids[1]!r} "
                                           f"in embedding set\n")
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

    @pytest.mark.parametrize("dump", ["same.csv", "./same.csv", "{tmp}/same.csv"])
    def test_out_and_dump_scores_naming_one_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                                          dump):
        # the check comes before any input is read: these inputs do not exist
        monkeypatch.chdir(tmp_path)
        code = main(["eval", "--gallery", "g.bin", "--queries", "q.bin", "--relevance", "r.csv",
                     "--out", "same.csv", "--dump-scores", dump.format(tmp=tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("config error: --out and --dump-scores name the "
                                           "same file: same.csv\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["eval", "ensemble"])
    @pytest.mark.parametrize("k,err", [("1,1", "--k repeats 1"), ("5,1,5", "--k repeats 5"),
                                       ("", "need at least one k"),
                                       (",", "need at least one k")])
    def test_repeated_or_empty_k_exits_2(self, tmp_path, capsys, monkeypatch, command, k, err):
        # the check comes before any input is read: these inputs do not exist
        monkeypatch.chdir(tmp_path)
        inputs = {"eval": ["--gallery", "g.bin", "--queries", "q.bin"],
                  "ensemble": ["--scores", "a.csv", "b.csv"]}[command]
        assert main([command, *inputs, "--relevance", "r.csv", "--k", k,
                     "--out", "m.csv"]) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert os.listdir(tmp_path) == []

    def test_bad_k_list_exits_2(self, pipeline, tmp_path):
        code = main(["eval", "--gallery", pipeline["emb"]["sat"],
                     "--queries", pipeline["emb"]["drone"],
                     "--relevance",
                     os.path.join(pipeline["data"], "relevance_drone2sat.csv"),
                     "--k", "1,banana", "--out", str(tmp_path / "m.csv")])
        assert code == 2

    # every input of every file-output command, each named by one of its
    # outputs; each input file is named after its flag
    CLASH_ARGV = {
        "gen-labels": ["--manifest", "manifest", "--bins", "8"],
        "embed": ["--checkpoint", "checkpoint", "--features", "features"],
        "eval": ["--gallery", "gallery", "--queries", "queries", "--relevance", "relevance"],
        "ensemble": ["--scores", "scores", "scores2", "--relevance", "relevance"],
        "ablate-bins": ["--config", "config", "--data", "data", "--seeds", "0"],
        "ablate-dim": ["--config", "config", "--data", "data", "--seeds", "0"],
    }

    @pytest.mark.parametrize("command,out_flag,in_flag,name", [
        ("gen-labels", "--out", "--manifest", "manifest"),
        ("embed", "--out", "--checkpoint", "checkpoint"),
        ("embed", "--out", "--features", "features"),
        *(("eval", out_flag, f"--{name}", name)
          for out_flag in ("--out", "--dump-scores")
          for name in ("gallery", "queries", "relevance")),
        ("ensemble", "--out", "--scores", "scores"),
        ("ensemble", "--out", "--scores", "scores2"),
        ("ensemble", "--out", "--relevance", "relevance"),
        *((command, "--out", in_flag, name)
          for command in ("ablate-bins", "ablate-dim")
          for in_flag, name in (("--config", "config"),
                                ("--data features.bin", "data/features.bin"),
                                ("--data manifest.csv", "data/manifest.csv"))),
    ])
    @pytest.mark.parametrize("link", ["same", "hard link"])
    def test_output_naming_an_input_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                            out_flag, in_flag, name, link):
        # the check comes before any input is read, so the inputs need not parse
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        names = ["manifest", "checkpoint", "features", "gallery", "queries", "relevance",
                 "scores", "scores2", "config", "data/features.bin", "data/manifest.csv"]
        for n in names:
            (tmp_path / n).write_bytes(f"input {n}\n".encode())
        target = name
        if link == "hard link":
            target = "linked"
            os.link(tmp_path / name, tmp_path / target)
        argv = [command, *self.CLASH_ARGV[command]]
        outputs = {"--out": "out.csv", **({"--dump-scores": "dump.csv"} if command == "eval"
                                          else {})}
        outputs[out_flag] = target
        listing = sorted(os.listdir(tmp_path))
        assert main([*argv, *(x for kv in outputs.items() for x in kv)]) == 2
        assert capsys.readouterr().err == (f"config error: {out_flag} and {in_flag} name the "
                                           f"same file: {target}\n")
        for n in names:
            assert (tmp_path / n).read_bytes() == f"input {n}\n".encode()
        assert sorted(os.listdir(tmp_path)) == listing


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

    @pytest.mark.parametrize("weights,relevance,message", [
        ("1e308,1e308", "relevance_drone2sat.csv",
         "weights must sum to a positive finite value, got inf"),
        ("0,0", "relevance_drone2sat.csv", "weights must sum to a positive finite value, got 0.0"),
        ("0.5,0.5", "missing.csv", "no such file: {data}/missing.csv"),
    ], ids=["sum-inf", "sum-zero", "missing-relevance"])
    def test_weights_summing_to_inf_exit_3(self, pipeline, tmp_path, capsys, monkeypatch,
                                           weights, relevance, message):
        # refused before either score table is parsed
        def no_load(*args, **kwargs):
            raise AssertionError("parsed a score table before checking the inputs")

        monkeypatch.setattr("skyalign.cli.ScoreTable.load", no_load)
        out = tmp_path / "m.csv"
        code = main(["ensemble", "--scores", pipeline["scores"], pipeline["scores2"],
                     "--weights", weights, "--relevance",
                     os.path.join(pipeline["data"], relevance), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == \
            f"data error: {message.format(data=pipeline['data'])}\n"
        assert not out.exists()

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
