"""Sweep runners: train/evaluate grids over orientation bin counts and
embedding dimensions, reporting Drone2Sat retrieval quality per seed.

Each sweep's train-and-score jobs run in worker processes forked from this
one, one per usable CPU, each with its OpenBLAS capped at one thread through
the library's own setter; without a setter, one worker runs them all.  The
workers inherit the jobs and take their indices from a pipe, and send their
scores back pickled; the rows are the ones that training the jobs one by one
in this process would give."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import os
import pickle
import select
import signal
import traceback
from dataclasses import replace
from typing import NoReturn

import numpy as np

from . import binio
from .dataset import CrossViewDataset
from .errors import WorkerDied
from .model import ModelParams, encode
from .objectives import MODE_CLASSIFICATION, MODE_NONE
from .pose_geometry import PoseRecord
from .retrieval_eval import EmbeddingSet, evaluate
from .trainer import TrainConfig, train

BINS_NONE = "none"


def drone2sat_metrics(params: ModelParams, dataset: CrossViewDataset,
                      ks: list[int] | None = None) -> dict[str, float]:
    """Retrieve each drone view against the satellite gallery.

    Returns {"recall@k": ..., "ap": ...} with every drone view as a query
    and its building's satellite view as the single relevant item.
    """
    ks = ks or [1]
    gallery = EmbeddingSet.from_rows(dataset.sat_view_ids, encode(params, dataset.sat_inputs))
    queries = EmbeddingSet.from_rows(dataset.drone_view_ids, encode(params, dataset.drone_inputs))
    relevance = {
        did: {dataset.sat_view_ids[dataset.drone_building_idx[i]]}
        for i, did in enumerate(dataset.drone_view_ids)
    }
    return {f"recall@{k}" if metric == "recall" else "ap": value
            for metric, k, value in evaluate(queries, gallery, relevance, ks)}


def train_and_score(cfg: TrainConfig, dataset: CrossViewDataset) -> dict[str, float]:
    params, _ = train(cfg, dataset)
    return drone2sat_metrics(params, dataset)


BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads")


def blas_thread_setter():
    """The thread-count setter of an OpenBLAS mapped into this process, or
    None.  numpy loads its BLAS with local symbols, so it is found by path."""
    with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
        paths = sorted({line.split(maxsplit=5)[-1].rstrip("\n") for line in fh if "blas" in line})
    for path in paths:
        with contextlib.suppress(OSError):  # not a library, or deleted since it was mapped
            lib = ctypes.CDLL(path)
            for setter in (getattr(lib, name, None) for name in BLAS_THREAD_SETTERS):
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    return setter
    return None


def _work(jobs, queue: tuple[int, int], write_fd: int, set_blas_threads) -> NoReturn:
    """A forked worker: train_and_score the jobs whose 4-byte indices it takes
    from the queue pipe and write the pickled (index, scores) pairs to
    write_fd; a job that raises ends the list with its exception, noted with
    the worker's traceback.  Whatever is raised, it never returns into the
    caller and never flushes inherited stdio: os._exit(1)."""
    status = 1
    try:
        os.close(queue[1])  # else the queue never ends
        if set_blas_threads is not None:
            set_blas_threads(1)
        results = []
        with open(queue[0], "rb", buffering=0) as indices:
            while index := indices.read(4):
                j = int.from_bytes(index, "little")
                try:
                    results.append((j, train_and_score(*jobs[j])))
                except Exception as exc:
                    exc.__notes__ = [*getattr(exc, "__notes__", ()),
                                     "in a sweep worker:\n" + traceback.format_exc()]
                    results.append((j, exc))
                    break
        with open(write_fd, "wb") as fh:
            pickle.dump(results, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _share_results(pid: int, read_fd: int) -> list:
    with open(read_fd, "rb", closefd=False) as fh:
        data = fh.read()
    info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # score_jobs reaps it
    if info.si_code == os.CLD_EXITED and info.si_status == 0 and data:
        return pickle.loads(data)
    how = (f"exited with status {info.si_status}" if info.si_code == os.CLD_EXITED
           else f"was killed by signal {info.si_status}")
    raise WorkerDied(f"sweep worker {how} before sending its results")


def score_jobs(jobs: list[tuple[TrainConfig, CrossViewDataset]]) -> list[dict[str, float]]:
    """train_and_score for every (cfg, dataset) job, in W workers forked from
    this process, which take job indices from one pipe: one worker per usable
    CPU and at most one per job, or only one if blas_thread_setter finds none.
    Returns the scores in job order, or raises the exception of the first
    job, in job order, that raised.

    OpenBLAS quiesces its thread pool across fork (pthread_atfork), so a
    worker's cap of one thread leaves this process's count as it was.  SIGINT
    is blocked across each fork and stays blocked in the worker; this process
    kills and reaps every worker on any exit."""
    set_blas_threads = blas_thread_setter()
    n_workers = min(len(jobs), len(os.sched_getaffinity(0)) if set_blas_threads else 1)
    indices = np.arange(len(jobs), dtype="<u4").tobytes()
    workers: dict[int, int] = {}  # pid -> read end of its results pipe
    queue = os.pipe()
    with open(queue[1], "wb", buffering=0) as put, open(queue[0], "rb", buffering=0) as take:
        try:
            for _ in range(n_workers):
                read_fd, write_fd = os.pipe()
                try:
                    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                    if (pid := os.fork()) == 0:
                        _work(jobs, queue, write_fd, set_blas_threads)
                    workers[pid] = read_fd
                except BaseException:
                    os.close(read_fd)
                    raise
                finally:  # before the next fork, so that a dead worker's EOF shows at once
                    os.close(write_fd)
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            take.close()
            with contextlib.suppress(BrokenPipeError):  # every worker gone: reported below
                for at in range(0, len(indices), select.PIPE_BUF):  # whole writes split no index
                    put.write(indices[at:at + select.PIPE_BUF])
            put.close()
            results = dict(pair for pid, read_fd in workers.items()
                           for pair in _share_results(pid, read_fd))
        finally:
            for pid, read_fd in workers.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_fd)
    for j in range(len(jobs)):  # indices are taken in order: all before a failure were run
        if isinstance(results[j], Exception):
            raise results[j]
    return [results[j] for j in range(len(jobs))]


def _sweep_rows(key: str, jobs: list[tuple[str | int, TrainConfig, CrossViewDataset]]
                ) -> list[dict]:
    """One CSV row per (setting, cfg, dataset) job, in job order."""
    scores = score_jobs([(cfg, dataset) for _, cfg, dataset in jobs])
    return [{key: setting, "seed": cfg.seed, "recall_at_1": s["recall@1"], "ap": s["ap"]}
            for (setting, cfg, _), s in zip(jobs, scores)]


def ablate_bins(features_path, manifest: list[PoseRecord], base: TrainConfig,
                bins_list: list, seeds: list[int]) -> list[dict]:
    """Sweep orientation supervision: integer bin counts, or "none" for the
    contrastive-only baseline.  The feature file is read once and the
    dataset re-binned per setting."""
    views = binio.read_features(features_path)
    jobs = []
    for setting in bins_list:
        if setting == BINS_NONE:
            dataset = CrossViewDataset(views, manifest, base.loss.bins)
            loss = replace(base.loss, orientation_mode=MODE_NONE)
        else:
            bins = int(setting)
            dataset = CrossViewDataset(views, manifest, bins)
            loss = replace(base.loss, orientation_mode=MODE_CLASSIFICATION, bins=bins)
        jobs += [(str(setting), replace(base, seed=seed, loss=loss), dataset) for seed in seeds]
    return _sweep_rows("bins", jobs)


def ablate_dim(features_path, manifest: list[PoseRecord], base: TrainConfig,
               dims: list[int], seeds: list[int]) -> list[dict]:
    """Sweep the embedding width on a fixed dataset."""
    dataset = CrossViewDataset.load(features_path, manifest, base.loss.bins)
    return _sweep_rows("embed_dim", [(int(dim), replace(base, seed=seed, embed_dim=int(dim)),
                                      dataset) for dim in dims for seed in seeds])


def summarize(rows: list[dict], group_key: str) -> dict:
    """Mean recall_at_1 per distinct group value."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[group_key], []).append(row["recall_at_1"])
    return {k: float(np.mean(v)) for k, v in groups.items()}


def write_sweep_csv(rows: list[dict], fieldnames: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
