"""Sweep runners: train/evaluate grids over orientation bin counts and
embedding dimensions, reporting Drone2Sat retrieval quality per seed.

Each sweep's train-and-score jobs run in worker processes, one per usable
CPU, each with one BLAS thread.  A worker gets its share of the jobs pickled
on stdin and sends their scores back pickled on stdout; the rows are the
ones that training the jobs one by one in this process would give."""

from __future__ import annotations

import contextlib
import csv
import os
import pickle
import signal
import subprocess
import sys
import traceback
from dataclasses import replace

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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# run with -c, not -m, so that what the worker pickles is named skyalign.*
WORKER_CODE = "from skyalign.ablations import work; work()"


def work() -> None:
    """A worker's body: read a pickled list of (cfg, dataset) jobs from stdin
    and write back the pickled list of their score dicts.  A job that raises
    ends the list with its exception, which carries the worker's traceback
    as a note."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    results = []
    for cfg, dataset in pickle.load(sys.stdin.buffer):
        try:
            results.append(train_and_score(cfg, dataset))
        except Exception as exc:
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             "in a sweep worker:\n" + traceback.format_exc()]
            results.append(exc)
            break
    pickle.dump(results, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()


def _worker_env() -> dict[str, str]:
    """This process's environment with one BLAS thread, and the directory
    that holds this skyalign package first on PYTHONPATH."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _share_results(proc: subprocess.Popen) -> list:
    data = proc.stdout.read()
    status = proc.wait()
    if status != 0 or not data:
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise WorkerDied(f"sweep worker {how} before sending its results")
    return pickle.loads(data)


def score_jobs(jobs: list[tuple[TrainConfig, CrossViewDataset]]) -> list[dict[str, float]]:
    """train_and_score for every (cfg, dataset) job, in W worker processes
    (one per usable CPU, at most one per job); job j runs on worker j % W.
    Returns the scores in job order, or raises the exception of the first
    job, in job order, that raised."""
    n_workers = min(len(jobs), len(os.sched_getaffinity(0)))
    env = _worker_env()
    workers: list[subprocess.Popen] = []
    try:
        for _ in range(n_workers):
            workers.append(subprocess.Popen([sys.executable, "-c", WORKER_CODE], env=env,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        # every share is written before any result is read, so the workers overlap
        for w, proc in enumerate(workers):
            with contextlib.suppress(BrokenPipeError), proc.stdin:  # a dead worker shows below
                pickle.dump(jobs[w::n_workers], proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        shares = [_share_results(proc) for proc in workers]
    finally:
        for proc in workers:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    scores = []
    for j in range(len(jobs)):
        result = shares[j % n_workers][j // n_workers]
        if isinstance(result, Exception):
            raise result
        scores.append(result)
    return scores


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
