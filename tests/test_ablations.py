"""The sweep engine and its forked worker processes: the rows of training
each job in turn in this process, whatever the worker count, with one
dataset per distinct bin count; a sweep started from a process that found
skyalign only through sys.path; one OpenBLAS thread per worker; and every
way a worker or its job can fail, with no worker left behind."""

import ctypes
import os
import pickle
import signal
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
    key, loop = {"bins": ("bins", loop_ablate_bins), "dim": ("embed_dim", loop_ablate_dim)}[sweep]
    args = (data["features"], data["manifest"], data["cfg"])
    rows, want = ablations.sweep(*args, key, settings, seeds), loop(*args, settings, seeds)
    assert rows == want  # float == float: the same bits, NaN aside
    assert all(np.isfinite([r["recall_at_1"], r["ap"]]).all() for r in rows)
    fields = list(want[0])
    ablations.write_sweep_csv(rows, fields, tmp_path / "workers.csv")
    ablations.write_sweep_csv(want, fields, tmp_path / "loop.csv")
    assert (tmp_path / "workers.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_base_bin_count_and_none_equal_the_loop(data, monkeypatch):
    # "8" is the base bin count, so "8" and "none" train on one dataset
    use_cpus(monkeypatch, 2)
    args = (data["features"], data["manifest"], data["cfg"])
    settings = [8, "none", 4]
    assert (ablations.sweep(*args, "bins", settings, [0, 1])
            == loop_ablate_bins(*args, settings, [0, 1]))


@pytest.mark.parametrize("key,settings,built", [
    ("bins", [4, 8, "none", 16], [4, 8, 16]),
    ("bins", ["none", 8], [8]),
    ("bins", ["none", 4], [8, 4]),
    ("embed_dim", [8, 64, 16], [8]),
])
def test_one_dataset_per_distinct_bin_count(data, monkeypatch, key, settings, built):
    bins_built, reads, jobs_run = [], [], []

    class Counted(CrossViewDataset):
        def __init__(self, views, manifest, bins):
            bins_built.append(bins)
            super().__init__(views, manifest, bins)
            self.bins = bins

    def read_features(path):
        reads.append(path)
        return read(path)

    def scored(jobs):
        jobs_run.extend(jobs)
        return [{"recall@1": 0.0, "ap": 0.0}] * len(jobs)

    read = ablations.binio.read_features
    monkeypatch.setattr(ablations, "CrossViewDataset", Counted)
    monkeypatch.setattr(ablations.binio, "read_features", read_features)
    monkeypatch.setattr(ablations, "score_jobs", scored)
    rows = ablations.sweep(data["features"], data["manifest"], data["cfg"], key, settings, [0, 1])
    assert bins_built == built and reads == [data["features"]]
    assert [(row[key], row["seed"]) for row in rows] == [
        (str(s) if key == "bins" else s, seed) for s in settings for seed in (0, 1)]
    datasets = {id(dataset): dataset for _, dataset in jobs_run}
    assert sorted(d.bins for d in datasets.values()) == sorted(built)
    for (cfg, dataset), row in zip(jobs_run, rows):
        assert cfg.seed == row["seed"] and cfg.loss.bins == dataset.bins
        if key == "embed_dim":
            assert (cfg.embed_dim, cfg.loss) == (row[key], data["cfg"].loss)
        elif row[key] == "none":
            assert (cfg.loss.orientation_mode, cfg.loss.bins) == ("none", data["cfg"].loss.bins)
        else:
            assert (cfg.loss.orientation_mode, cfg.loss.bins) == ("classification", int(row[key]))


def test_sweep_of_another_key_is_refused(data):
    with pytest.raises(ValueError, match="cannot sweep 'peak_lr'"):
        ablations.sweep(data["features"], data["manifest"], data["cfg"], "peak_lr", [0.1], [0])


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


def exit_3(cfg, dataset):
    os._exit(3)


def exit_0(cfg, dataset):
    os._exit(0)


def killed(cfg, dataset):
    os.kill(os.getpid(), signal.SIGKILL)


JOBS_TAKEN = []  # each worker inherits it empty: this process never runs a job


def exit_7_after_a_result(cfg, dataset):
    JOBS_TAKEN.append(cfg)
    if len(JOBS_TAKEN) > 1:
        os._exit(7)
    return {"recall@1": 0.5, "ap": 0.5}


TEST_PROCESS, DUMP = os.getpid(), pickle.dump


def dump_part_then_exit_7(obj, fh, **kwargs):
    # some result bytes come back, but the exit status is not 0
    if os.getpid() == TEST_PROCESS:
        return DUMP(obj, fh, **kwargs)
    fh.write(pickle.dumps(obj)[:2])
    fh.flush()
    os._exit(7)


@pytest.mark.parametrize("owner,name,patch,status", [
    (ablations, "train_and_score", exit_3, "exited with status 3"),
    (ablations, "train_and_score", exit_0, "exited with status 0"),
    (ablations, "train_and_score", killed, "was killed by signal 9"),
    (ablations.pickle, "dump", dump_part_then_exit_7, "exited with status 7"),
    (ablations, "train_and_score", exit_7_after_a_result, "exited with status 7"),
], ids=["exit-3", "exit-0-without-results", "killed", "exit-7-mid-results",
        "exit-7-after-a-result"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_worker_that_ends_early_exits_4(data, tmp_path, capsys, monkeypatch, owner, name, patch,
                                        status, existing):
    use_cpus(monkeypatch, 2)  # four jobs on two workers: one of them takes a second job
    monkeypatch.setattr(owner, name, patch)
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


def test_worker_that_exits_before_it_takes_a_job_exits_4(data, tmp_path, capsys, monkeypatch):
    # each worker has exited before the next is forked, so writing the job
    # indices meets a pipe with no reader left
    fork = os.fork

    def forked_and_ended():
        pid = fork()
        if pid:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    monkeypatch.setattr(ablations, "blas_thread_setter", lambda: lambda n: os._exit(3))
    monkeypatch.setattr(os, "fork", forked_and_ended)
    use_cpus(monkeypatch, 2)
    out = tmp_path / "sweep.csv"
    assert main(["ablate-bins", "--config", data["train_cfg"], "--data", data["dir"],
                 "--bins", "4,8", "--seeds", "0", "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numeric error: sweep worker exited with status 3 "
                                       "before sending its results\n")
    assert not out.exists()


@pytest.mark.parametrize("raised", [SystemExit, KeyboardInterrupt])
def test_job_raising_exit_or_interrupt_ends_only_its_worker(data, tmp_path, capsys, monkeypatch,
                                                           raised):
    def raising(cfg, dataset):
        raise raised

    monkeypatch.setattr(ablations, "train_and_score", raising)
    parent = os.getpid()
    try:
        code = main(["ablate-dim", "--config", data["train_cfg"], "--data", data["dir"],
                     "--dims", "8,16", "--seeds", "0", "--out", str(tmp_path / "sweep.csv")])
    finally:
        if os.getpid() != parent:  # a worker got past score_jobs: its status tells
            os._exit(99)
    assert code == 4
    assert capsys.readouterr().err == ("numeric error: sweep worker exited with status 1 "
                                       "before sending its results\n")


@pytest.mark.parametrize("order", ["batch-first", "loss-first"])
def test_first_failing_job_in_job_order_is_raised(data, monkeypatch, order):
    # two workers take the four jobs from one queue
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
    def interrupted(pid, read_fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(ablations, "_share_results", interrupted)
    dataset = CrossViewDataset.load(data["features"], data["manifest"], data["cfg"].loss.bins)
    with pytest.raises(KeyboardInterrupt):
        ablations.score_jobs([(data["cfg"], dataset)] * 2)


def blas_threads() -> int:
    """This process's OpenBLAS thread count, read through the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                return getattr(lib, name)()
    pytest.skip("numpy's BLAS here is not OpenBLAS")


def test_a_worker_runs_one_blas_thread_and_the_parent_keeps_its_count(monkeypatch):
    before = blas_threads()
    set_threads = ablations.blas_thread_setter()
    set_threads(2)
    try:
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(ablations, "train_and_score",
                            lambda cfg, dataset: {"threads": blas_threads()})
        assert ablations.score_jobs([(None, None)] * 4) == [{"threads": 1}] * 4
        assert blas_threads() == 2
    finally:
        set_threads(before)


def test_without_a_blas_setter_one_worker_gives_the_loop_rows(data, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(ablations, "blas_thread_setter", lambda: None)
    monkeypatch.setattr(os, "fork", counted_fork)
    args = (data["features"], data["manifest"], data["cfg"])
    assert (ablations.sweep(*args, "embed_dim", [8, 16], [0, 1])
            == loop_ablate_dim(*args, [8, 16], [0, 1]))
    assert len(forks) == 1


def test_more_job_indices_than_a_pipe_holds(monkeypatch):
    # 20 000 indices are 80 000 bytes, more than a pipe buffer; four workers
    # share two CPUs.  SIGALRM ends a hang as a failure.
    def timed_out(signum, frame):
        raise TimeoutError("the sweep hung")

    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(ablations, "train_and_score", lambda j, _: {"recall@1": j, "ap": 0.0})
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(120)
    try:
        scores = ablations.score_jobs([(j, None) for j in range(20_000)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert scores == [{"recall@1": j, "ap": 0.0} for j in range(20_000)]
