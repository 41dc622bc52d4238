"""The sweeps' worker processes: the rows of training each job in turn in
this process, whatever the worker count; a sweep started from a process that
found skyalign only through sys.path; and every way a worker or its job can
fail, with no worker left behind."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from skyalign import ablations, configio
from skyalign.cli import main
from skyalign.dataset import CrossViewDataset
from skyalign.errors import BatchTooLarge, NonFiniteLoss
from skyalign.pose_geometry import read_manifest

from oracles import loop_ablate_bins, loop_ablate_dim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps")
    gen = root / "gen.cfg"
    gen.write_text("n_buildings = 20\nviews_per_building = 3\nlatent_dim = 8\n"
                   "noise_sigma = 0.3\nfail_prob = 0.1\nseed = 7\nbins = 8\n", encoding="utf-8")
    train = root / "train.cfg"
    train.write_text("peak_lr = 0.01\nepochs = 2\nbatch_size = 8\nseed = 3\nhidden_dim = 16\n"
                     "embed_dim = 16\norientation_mode = classification\nbins = 8\n",
                     encoding="utf-8")
    out = root / "data"
    assert main(["gen-data", "--config", str(gen), "--out", str(out)]) == 0
    return {"features": str(out / "features.bin"),
            "manifest": read_manifest(str(out / "manifest.csv")),
            "cfg": configio.load_train_config(str(train), {}),
            "train_cfg": str(train), "dir": str(out)}


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("sweep,settings,seeds", [
    ("bins", ["4", "none", "16"], [0, 1]),
    ("dim", [8, 64, 16], [2]),  # the jobs differ in cost, so the workers finish out of order
])
def test_worker_rows_equal_in_process_loop(data, tmp_path, monkeypatch, cpus, sweep,
                                           settings, seeds):
    use_cpus(monkeypatch, cpus)
    run, loop = {"bins": (ablations.ablate_bins, loop_ablate_bins),
                 "dim": (ablations.ablate_dim, loop_ablate_dim)}[sweep]
    args = (data["features"], data["manifest"], data["cfg"], settings, seeds)
    rows, want = run(*args), loop(*args)
    assert rows == want  # float == float: the same bits, NaN aside
    assert all(np.isfinite([r["recall_at_1"], r["ap"]]).all() for r in rows)
    fields = list(want[0])
    ablations.write_sweep_csv(rows, fields, tmp_path / "workers.csv")
    ablations.write_sweep_csv(want, fields, tmp_path / "loop.csv")
    assert (tmp_path / "workers.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_sweep_from_a_process_that_found_skyalign_on_sys_path(data, tmp_path):
    # as a benchmark child does: no PYTHONPATH, another cwd, src put on sys.path
    out = tmp_path / "dims.csv"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from skyalign.cli import main; "
              "sys.exit(main(sys.argv[2:]))")
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH" and not k.startswith("SKYALIGN_")}
    proc = subprocess.run([sys.executable, "-c", script, SRC, "ablate-dim",
                           "--config", data["train_cfg"], "--data", data["dir"],
                           "--dims", "8,16", "--seeds", "0", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    want = loop_ablate_dim(data["features"], data["manifest"], data["cfg"], [8, 16], [0])
    ablations.write_sweep_csv(want, list(want[0]), tmp_path / "loop.csv")
    assert out.read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("code,status", [
    ("import sys; sys.exit(3)", "exited with status 3"),
    ("import sys; sys.stdin.buffer.read(1); sys.exit(0)", "exited with status 0"),
    ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", "was killed by signal 9"),
    ("import os, sys; sys.stdout.buffer.write(b'\\x80\\x05'); sys.stdout.flush(); os._exit(7)",
     "exited with status 7"),
], ids=["exit-3", "exit-0-without-results", "killed", "exit-7-mid-results"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_worker_that_ends_early_exits_4(data, tmp_path, capsys, monkeypatch, code, status,
                                        existing):
    monkeypatch.setattr(ablations, "WORKER_CODE", code)
    out = tmp_path / "sweep.csv"
    if existing:
        out.write_bytes(b"earlier,contents\r\n")
    assert main(["ablate-dim", "--config", data["train_cfg"], "--data", data["dir"],
                 "--dims", "8,16", "--seeds", "0,1", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (f"numeric error: sweep worker {status} "
                                       f"before sending its results\n")
    if existing:
        assert out.read_bytes() == b"earlier,contents\r\n"
    else:
        assert not out.exists()


def test_worker_gone_before_its_share_is_written_exits_4(data, tmp_path, capsys, monkeypatch):
    # each worker has exited before the parent writes to it: a broken pipe
    popen = subprocess.Popen

    def started_and_ended(*args, **kwargs):
        proc = popen(*args, **kwargs)
        proc.wait()
        return proc

    monkeypatch.setattr(ablations, "WORKER_CODE", "import sys; sys.exit(3)")
    monkeypatch.setattr(subprocess, "Popen", started_and_ended)
    out = tmp_path / "sweep.csv"
    assert main(["ablate-bins", "--config", data["train_cfg"], "--data", data["dir"],
                 "--bins", "4,8", "--seeds", "0", "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numeric error: sweep worker exited with status 3 "
                                       "before sending its results\n")
    assert not out.exists()


@pytest.mark.parametrize("order", ["batch-first", "loss-first"])
def test_first_failing_job_in_job_order_is_raised(data, monkeypatch, order):
    # two workers: jobs 0 and 2 on one, 1 and 3 on the other
    use_cpus(monkeypatch, 2)
    dataset = CrossViewDataset.load(data["features"], data["manifest"], data["cfg"].loss.bins)
    good = data["cfg"]
    too_large = replace(good, batch_size=dataset.n_buildings + 1)
    diverging = replace(good, peak_lr=1e200)
    bad = [too_large, diverging] if order == "batch-first" else [diverging, too_large]
    jobs = [(cfg, dataset) for cfg in [good, *bad, good]]
    error = BatchTooLarge if order == "batch-first" else NonFiniteLoss
    with pytest.raises(error):
        ablations.score_jobs(jobs)


def test_interrupted_sweep_leaves_no_worker(data, monkeypatch):
    # the autouse fixture fails the test if a worker is left running or unreaped
    def interrupted(proc):
        raise KeyboardInterrupt

    monkeypatch.setattr(ablations, "_share_results", interrupted)
    dataset = CrossViewDataset.load(data["features"], data["manifest"], data["cfg"].loss.bins)
    with pytest.raises(KeyboardInterrupt):
        ablations.score_jobs([(data["cfg"], dataset)] * 2)


def test_workers_get_one_blas_thread_and_this_package(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = ablations._worker_env()
    assert all(env[name] == "1" for name in ablations.BLAS_THREAD_VARS)
    first, rest = env["PYTHONPATH"].split(os.pathsep)
    assert (os.path.realpath(first), rest) == (os.path.realpath(SRC), "elsewhere")
    changed = {k for k in env if env[k] != os.environ.get(k)}
    assert changed <= {"PYTHONPATH", *ablations.BLAS_THREAD_VARS}
