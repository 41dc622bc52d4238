"""skyalign benchmark: end-to-end and per-layer timings of three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk|scale|search|all --seed N \
        --seconds S --trace 0|1

"all" runs the three workloads one after another, each printing its own
report and result line.

Workloads (each a closed loop: one pass at a time, one command at a time,
every pass in a fresh child process so peak RSS and set-up are per pass):

  desk    the README quick start on the shipped configs: gen-data,
          gen-labels, two trainings, embeds, three evals (two dumping the
          dense score tables), both ensemble fusions and both sweeps.
  scale   1 000 buildings (10 000 drone views), batch 512, 50 epochs;
          embed both kinds, Drone2Sat and Sat2Drone eval, no score dump.
  search  retrieval_eval.top_k over a 160 000 x 384 gallery, 1 000
          queries, k = 10, workers = 1.

The workload seed seeds gen-data and the search draw; the program sees
only the generated files and arrays.  Passes repeat until --seconds have
elapsed (at least two, so same-seed passes can be compared byte for byte).
Every output is checked against the references in reference.py; the
operations and checks attempted and failed are reported.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced passes with traced ones, which wrap skyalign's public
functions from outside the package (tracing.py), reports per-layer metrics
plus the tracing overhead, and writes every span to
.perfbench_work/<workload>-<seed>.spans.json.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report and the run record (versions, thread
settings, seed, command lines).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference as ref
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
MIN_PASSES = 2
SETUPS = 7           # set-up samples wanted per run: pass start-ups plus set-up-only children
SETUP_PROBE_S = 3.0  # but spend no more than this on set-up-only children
RUN_LIMIT_S = 150    # stop starting passes past this, whatever --seconds says
KS = [1, 5, 10]
SEARCH_SHAPE = (160_000, 1_000, 384, 10)  # gallery, queries, dim, k
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Guarded metrics, reported by every workload.  The stage throughputs the
# report also prints (eval, train, ensemble, search) are not guarded: they
# do not exist on every workload, and on a 2-core x86-64 VM the desk eval
# stage (about 2 s a pass) spread by 17-22 % between runs; wall_s covers
# those stages.  failed_share is printed, and carried by the attempted and
# failed counts, rather than guarded, because it is 0 on correct code.
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def read_flat_config(path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    return out


# --- workloads ---------------------------------------------------------------

@dataclass
class Command:
    """One CLI invocation; stage and units feed the throughput metrics."""

    argv: list[str]
    stage: str | None = None
    units: int = 0


class CliWorkload:
    kind = "cli"

    def __init__(self, name, gen_cfg, train_cfg):
        self.name, self.gen_cfg, self.train_cfg = name, gen_cfg, train_cfg
        gen, train = read_flat_config(gen_cfg), read_flat_config(train_cfg)
        self.n_buildings = int(gen["n_buildings"])
        self.n_drones = self.n_buildings * int(gen["views_per_building"])
        self.steps = ref.expected_steps(self.n_buildings, int(train["batch_size"]),
                                        int(train["epochs"]))
        self.pairs = int(train["epochs"]) * self.n_buildings  # every building once an epoch

    def prepare(self, run_dir, seed) -> None:
        self.seed = seed

    def _eval(self, d, gallery, queries, relevance, out, queries_n, dump=None):
        argv = ["eval", "--gallery", f"{d}/{gallery}", "--queries", f"{d}/{queries}",
                "--relevance", f"{d}/data/{relevance}", "--k", "1,5,10",
                "--out", f"{d}/{out}"]
        if dump:
            argv += ["--dump-scores", f"{d}/{dump}"]
        return Command(argv, "eval", queries_n)

    def _gen_data(self, d):
        return Command(["gen-data", "--config", self.gen_cfg, "--out", f"{d}/data/",
                        "--seed", str(self.seed)])

    def _train_embed(self, d, run):
        seed = [] if run == 0 else ["--seed", str(run)]
        cmds = [Command(["train", "--config", self.train_cfg, *seed, "--data", f"{d}/data/",
                         "--out", f"{d}/run{run}/"], "train", self.pairs)]
        for kind in ("sat", "drone"):
            cmds.append(Command(["embed", "--checkpoint", f"{d}/run{run}/checkpoint.ckpt",
                                 "--features", f"{d}/data/features.bin", "--kind", kind,
                                 "--out", f"{d}/{kind}{run}.bin"]))
        return cmds

    def check_common(self, d) -> list[tuple[str, list[str]]]:
        checks = [("feature count", [] if ref.fea1_count(f"{d}/data/features.bin")
                   == self.n_buildings + self.n_drones else ["wrong view count"])]
        for run in self.runs:
            checks.append((f"train log run{run}",
                           ref.check_train_log(f"{d}/run{run}/train_log.csv", self.steps)))
        return checks

    def check_eval(self, d, gallery, queries, relevance, metrics):
        gids, gmat = ref.read_emb1(f"{d}/{gallery}")
        qids, qmat = ref.read_emb1(f"{d}/{queries}")
        rel = ref.read_relevance(f"{d}/data/{relevance}")
        scores = ref.dense_scores(gmat, qmat)
        bounds = ref.metric_bounds(scores, qids, gids, rel, KS, ref.SCORE_EPS)
        return ref.check_metrics(ref.read_metrics(f"{d}/{metrics}"), bounds), (qids, gids, scores)


class Desk(CliWorkload):
    runs = (0, 1)
    bins, dims, sweep_seeds = ["4", "8", "16", "32", "none"], ["32", "64", "128"], [0, 1, 2, 3, 4]

    def __init__(self):
        super().__init__("desk", "configs/gen_default.cfg", "configs/train_default.cfg")

    def commands(self, d):
        cmds = [self._gen_data(d)]
        cmds.append(Command(["gen-labels", "--manifest", f"{d}/data/manifest.csv",
                             "--bins", "8", "--out", f"{d}/labels.csv"]))
        for run in self.runs:
            cmds += self._train_embed(d, run)
        for run in self.runs:
            cmds.append(self._eval(d, f"sat{run}.bin", f"drone{run}.bin",
                                   "relevance_drone2sat.csv", f"metrics{run}.csv",
                                   self.n_drones, dump=f"scores{run}.csv"))
        cmds.append(self._eval(d, "drone0.bin", "sat0.bin", "relevance_sat2drone.csv",
                               "metrics_s2d.csv", self.n_buildings))
        for fusion in ("score-mean", "reciprocal-rank"):
            cmds.append(Command(["ensemble", "--scores", f"{d}/scores0.csv", f"{d}/scores1.csv",
                                 "--weights", "0.5,0.5", "--relevance",
                                 f"{d}/data/relevance_drone2sat.csv", "--k", "1,5,10",
                                 "--out", f"{d}/fused_{fusion}.csv", "--fusion", fusion],
                                "ensemble", self.n_drones))
        sweep = ["--config", self.train_cfg, "--data", f"{d}/data/"]
        seeds = ",".join(map(str, self.sweep_seeds))
        cmds.append(Command(["ablate-bins", *sweep, "--bins", ",".join(self.bins),
                             "--seeds", seeds, "--out", f"{d}/bins_sweep.csv"]))
        cmds.append(Command(["ablate-dim", *sweep, "--dims", ",".join(self.dims),
                             "--seeds", seeds, "--out", f"{d}/dim_sweep.csv"]))
        return cmds

    def check(self, d):
        checks = self.check_common(d)
        labels = ref.csv_rows(f"{d}/labels.csv")
        checks.append(("label count", [] if len(labels) - 1 == self.n_drones
                       else [f"{len(labels) - 1} labels"]))
        tables = {}
        for run in self.runs:
            problems, (qids, gids, scores) = self.check_eval(
                d, f"sat{run}.bin", f"drone{run}.bin", "relevance_drone2sat.csv",
                f"metrics{run}.csv")
            checks.append((f"eval run{run} drone2sat", problems))
            tqids, tgids, table = ref.read_score_table(f"{d}/scores{run}.csv")
            order = np.argsort(np.array(tgids, dtype=object), kind="stable")
            ok = tqids == qids and sorted(tgids) == sorted(gids)
            diff = np.abs(table - scores[:, [gids.index(g) for g in tgids]]).max() if ok else np.inf
            checks.append((f"score dump run{run}", [] if diff <= ref.SCORE_EPS
                           else [f"score table differs by {diff}"]))
            tables[run] = (tqids, [tgids[j] for j in order], table[:, order])
        problems, _ = self.check_eval(d, "drone0.bin", "sat0.bin", "relevance_sat2drone.csv",
                                      "metrics_s2d.csv")
        checks.append(("eval run0 sat2drone", problems))
        qids, gids, _ = tables[0]
        rel = ref.read_relevance(f"{d}/data/relevance_drone2sat.csv")
        if tables[1][0] != qids or tables[1][1] != gids:
            checks.append(("ensemble alignment", ["score tables disagree on ids"]))
        for fusion in ("score-mean", "reciprocal-rank"):
            fused = ref.fuse([tables[r][2] for r in self.runs], [0.5, 0.5], fusion)
            bounds = ref.metric_bounds(fused, qids, gids, rel, KS, 1e-12)
            checks.append((f"ensemble {fusion}",
                           ref.check_metrics(ref.read_metrics(f"{d}/fused_{fusion}.csv"), bounds)))
        checks.append(("bins sweep", ref.check_sweep(f"{d}/bins_sweep.csv", "bins",
                                                     self.bins, self.sweep_seeds)))
        checks.append(("dim sweep", ref.check_sweep(f"{d}/dim_sweep.csv", "embed_dim",
                                                    self.dims, self.sweep_seeds)))
        return checks


class Scale(CliWorkload):
    runs = (0,)

    def __init__(self):
        super().__init__("scale", "perfbench/configs/gen_scale.cfg",
                         "perfbench/configs/train_scale.cfg")

    def commands(self, d):
        cmds = [self._gen_data(d)] + self._train_embed(d, 0)
        cmds.append(self._eval(d, "sat0.bin", "drone0.bin", "relevance_drone2sat.csv",
                               "metrics0.csv", self.n_drones))
        cmds.append(self._eval(d, "drone0.bin", "sat0.bin", "relevance_sat2drone.csv",
                               "metrics_s2d.csv", self.n_buildings))
        return cmds

    def check(self, d):
        checks = self.check_common(d)
        problems, _ = self.check_eval(d, "sat0.bin", "drone0.bin", "relevance_drone2sat.csv",
                                      "metrics0.csv")
        checks.append(("eval drone2sat", problems))
        problems, _ = self.check_eval(d, "drone0.bin", "sat0.bin", "relevance_sat2drone.csv",
                                      "metrics_s2d.csv")
        checks.append(("eval sat2drone", problems))
        return checks


class Search:
    kind = "search"
    name = "search"

    def prepare(self, run_dir, seed) -> None:
        n_gallery, n_queries, dim, k = SEARCH_SHAPE
        rng = np.random.default_rng(seed)
        gallery = rng.standard_normal((n_gallery, dim), dtype=np.float32)
        queries = rng.standard_normal((n_queries, dim), dtype=np.float32)
        self.gallery_path = os.path.join(run_dir, "gallery.npy")
        self.queries_path = os.path.join(run_dir, "queries.npy")
        np.save(self.gallery_path, gallery)
        np.save(self.queries_path, queries)
        self.queries = queries
        self.ref_ids, self.ref_scores = ref.search_reference(gallery, queries, k)

    def commands(self, d):
        return []

    def spec(self, d):
        return {"gallery": self.gallery_path, "queries": self.queries_path,
                "k": SEARCH_SHAPE[3], "workers": 1, "out": f"{d}/topk.npz"}

    def check(self, d):
        if not os.path.exists(f"{d}/topk.npz"):
            return [("top-k reference", ["no result written"])]
        got = np.load(f"{d}/topk.npz")
        gallery = np.load(self.gallery_path, mmap_mode="r")
        return [("top-k reference", ref.check_search(
            gallery, self.queries, self.ref_ids, self.ref_scores,
            got["ids"], got["scores"], SEARCH_SHAPE[3]))]


WORKLOADS = {"desk": Desk, "scale": Scale, "search": Search}


# --- passes ------------------------------------------------------------------

def child_env() -> dict:
    """The parent's environment minus SKYALIGN_* overrides, which would
    change the workload; BLAS thread variables pass through untouched."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SKYALIGN_")}


def run_child(root, run_dir, tag, workload, d, trace, setup_only, deadline, kind=None):
    spec = {"root": root, "kind": kind or workload.kind, "trace": trace, "setup_only": setup_only,
            "result": os.path.join(run_dir, f"{tag}.result.json"),
            "commands": [c.argv for c in workload.commands(d)]}
    if workload.kind == "search":
        spec["search"] = workload.spec(d)
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                          cwd=root, env=child_env(), capture_output=True, text=True,
                          timeout=max(5.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise RuntimeError(f"pass child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["import_done"] - t_spawn + result.get("from_rows_s", 0.0)
    return result


def artefact_hashes(d) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(d):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, d)] = ref.sha256(path)
    return out


# --- metrics -------------------------------------------------------------------

def stage_rate(workload, result, stage) -> float:
    """Units of work per second over the commands of one stage."""
    cmds = workload.commands("")
    units = sum(c.units for c in cmds if c.stage == stage)
    secs = sum(r["s"] for c, r in zip(cmds, result["commands"]) if c.stage == stage)
    return units / secs if secs > 0 else 0.0


def end_to_end(workload, passes, setups):
    """name -> (value, unit, samples) for every metric the report prints."""
    out = {"wall_s": [p["wall_s"] for p in passes],
           "setup_s": setups,
           "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    if workload.kind == "search":
        out["search_queries_per_s"] = [SEARCH_SHAPE[1] / p["wall_s"] for p in passes]
    else:
        out["eval_queries_per_s"] = [stage_rate(workload, p, "eval") for p in passes]
        out["train_pairs_per_s"] = [stage_rate(workload, p, "train") for p in passes]
        if workload.name == "desk":
            out["ensemble_queries_per_s"] = [stage_rate(workload, p, "ensemble") for p in passes]
    units = {"search_queries_per_s": "queries/s", "eval_queries_per_s": "queries/s",
             "train_pairs_per_s": "pairs/s", "ensemble_queries_per_s": "queries/s", **END_TO_END}
    return {k: (statistics.median(v), units[k], len(v)) for k, v in out.items()}


PER_LAYER = {  # name -> unit; values from layer_values
    **{f"cli.{c}_s": "s" for c in ("gen_data", "gen_labels", "train", "embed", "eval",
                                   "ensemble", "ablate_bins", "ablate_dim")},
    "cli.import_s": "s",
    "dataset.generate_s": "s", "dataset.load_self_s": "s",
    "dataset.sample_batch_s": "s", "dataset.sample_batch_calls": "count",
    "dataset.rotation_s": "s", "dataset.rotation_calls": "count",
    "pose_geometry.generate_labels_s": "s", "pose_geometry.generate_labels_calls": "count",
    "pose_geometry.manifest_io_s": "s",
    "objectives.infonce_s": "s", "objectives.infonce_calls": "count",
    "objectives.orientation_s": "s",
    "model.forward_backward_self_s": "s", "model.encode_s": "s", "model.checkpoint_io_s": "s",
    "trainer.adamw_s": "s", "trainer.train_self_s": "s", "trainer.steps": "count",
    "trainer.step_ms_p50": "ms", "trainer.step_ms_tail": "ms", "trainer.step_tail_pct": "%",
    "trainer.pairs_per_s": "pairs/s",
    "retrieval_eval.top_k_s": "s", "retrieval_eval.top_k_queries": "count",
    "retrieval_eval.matmul_ref_s": "s", "retrieval_eval.score_gflop": "GFLOP",
    "retrieval_eval.score_mbytes": "MB", "retrieval_eval.metrics_s": "s",
    "retrieval_eval.ranked_entries": "count", "retrieval_eval.ranked_used_ratio": "ratio",
    "retrieval_eval.score_table_save_s": "s", "retrieval_eval.score_table_load_s": "s",
    "retrieval_eval.ensemble_s": "s", "retrieval_eval.score_table_mbytes": "MB",
    "retrieval_eval.ensemble_queries_per_s": "queries/s",
    "retrieval_eval.eval_queries_per_s": "queries/s",
    "retrieval_eval.top_k_queries_per_s": "queries/s",
    "retrieval_eval.embeddings_io_s": "s", "retrieval_eval.relevance_io_s": "s",
    "retrieval_eval.from_rows_s": "s",
    "binio.read_features_s": "s", "binio.read_features_calls": "count",
    "binio.features_mbytes": "MB", "binio.write_features_s": "s",
    "ablations.drone2sat_metrics_s": "s",
    "trace.overhead_s": "s",
}

TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_values(workload, result):
    """Per-layer values of one traced pass (step percentiles and overhead
    are filled in across passes by per_layer)."""
    summary = tracing.summarize(result["spans"])
    layers = summary["layers"]

    def get(name, field="s"):
        return layers.get(name, {}).get(field, 0.0)

    def count(name, key):
        return layers.get(name, {}).get("counts", {}).get(key, 0)

    def rate(stage, span):
        units = sum(c.units for c in workload.commands("") if c.stage == stage)
        return units / get(span) if get(span) > 0 else 0.0

    v = {f"cli.{c}_s": get(f"cli.{c}") for c in ("gen_data", "gen_labels", "train", "embed",
                                                 "eval", "ensemble", "ablate_bins", "ablate_dim")}
    used, seen = count("retrieval_eval.metrics", "used"), count("retrieval_eval.metrics", "entries")
    v.update({
        "cli.import_s": result["import_s"],
        "dataset.generate_s": get("dataset.generate"),
        "dataset.load_self_s": get("dataset.load", "self_s"),
        "dataset.sample_batch_s": get("dataset.sample_batch"),
        "dataset.sample_batch_calls": get("dataset.sample_batch", "calls"),
        "dataset.rotation_s": get("dataset.rotation"),
        "dataset.rotation_calls": get("dataset.rotation", "calls"),
        "pose_geometry.generate_labels_s": get("pose_geometry.generate_labels"),
        "pose_geometry.generate_labels_calls": get("pose_geometry.generate_labels", "calls"),
        "pose_geometry.manifest_io_s": get("pose_geometry.manifest_io"),
        "objectives.infonce_s": get("objectives.infonce"),
        "objectives.infonce_calls": get("objectives.infonce", "calls"),
        "objectives.orientation_s": get("objectives.orientation"),
        "model.forward_backward_self_s": get("model.forward_backward", "self_s"),
        "model.encode_s": get("model.encode"),
        "model.checkpoint_io_s": get("model.checkpoint_io"),
        "trainer.adamw_s": get("trainer.adamw"),
        "trainer.train_self_s": get("trainer.train", "self_s"),
        "trainer.steps": len(summary["step_s"]),
        "trainer.pairs_per_s": rate("train", "cli.train"),
        "retrieval_eval.top_k_s": get("retrieval_eval.top_k"),
        "retrieval_eval.top_k_queries": count("retrieval_eval.top_k", "queries"),
        "retrieval_eval.matmul_ref_s": result.get("matmul_ref_s", 0.0),
        "retrieval_eval.score_gflop": count("retrieval_eval.top_k", "flop") / 1e9,
        "retrieval_eval.score_mbytes": count("retrieval_eval.top_k", "bytes") / 1e6,
        "retrieval_eval.metrics_s": get("retrieval_eval.metrics"),
        "retrieval_eval.ranked_entries": count("retrieval_eval.top_k", "entries")
        + count("retrieval_eval.ensemble", "entries"),
        "retrieval_eval.ranked_used_ratio": used / seen if seen else 0.0,
        "retrieval_eval.score_table_save_s": get("retrieval_eval.score_table_save"),
        "retrieval_eval.score_table_load_s": get("retrieval_eval.score_table_load"),
        "retrieval_eval.ensemble_s": get("retrieval_eval.ensemble"),
        "retrieval_eval.score_table_mbytes": count("retrieval_eval.score_table_load", "bytes") / 1e6,
        "retrieval_eval.ensemble_queries_per_s": rate("ensemble", "cli.ensemble"),
        "retrieval_eval.eval_queries_per_s": rate("eval", "cli.eval"),
        "retrieval_eval.top_k_queries_per_s": count("retrieval_eval.top_k", "queries")
        / get("retrieval_eval.top_k") if get("retrieval_eval.top_k") > 0 else 0.0,
        "retrieval_eval.embeddings_io_s": get("retrieval_eval.embeddings_io"),
        "retrieval_eval.relevance_io_s": get("retrieval_eval.relevance_io"),
        "retrieval_eval.from_rows_s": get("retrieval_eval.from_rows"),
        "binio.read_features_s": get("binio.read_features"),
        "binio.read_features_calls": get("binio.read_features", "calls"),
        "binio.features_mbytes": count("binio.read_features", "bytes") / 1e6,
        "binio.write_features_s": get("binio.write_features"),
        "ablations.drone2sat_metrics_s": get("ablations.drone2sat_metrics"),
    })
    return v, summary["step_s"]


def per_layer(workload, traced, untraced):
    """name -> (value, unit, samples): medians over traced passes, step
    percentiles over every traced step, overhead = traced - untraced wall."""
    values, steps = [], []
    for result in traced:
        v, s = layer_values(workload, result)
        values.append(v)
        steps += s
    out = {k: (statistics.median(v[k] for v in values), PER_LAYER[k], len(values))
           for k in values[0]}
    steps_ms = np.array(steps) * 1e3
    pct = next((p for p in TAIL_PCTS if round(len(steps_ms) * (100 - p) / 100, 6) >= 10), None)
    out["trainer.step_ms_p50"] = (float(np.percentile(steps_ms, 50)) if len(steps_ms) else 0.0,
                                  "ms", len(steps_ms))
    out["trainer.step_ms_tail"] = (float(np.percentile(steps_ms, pct)) if pct else 0.0,
                                   "ms", len(steps_ms))
    out["trainer.step_tail_pct"] = (pct or 0.0, "%", len(steps_ms))
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    return out


def write_spans(path, traced) -> None:
    """Every span of the traced passes, one list per span:
    [pass, name, start, end, parent, command, counts]."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[i, *span] for i, result in enumerate(traced) for span in result["spans"]], fh)


# --- run record ----------------------------------------------------------------

def run_record(args, workload, root) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "retrieval_workers": 1,
        "env_removed_for_passes": sorted(k for k in os.environ if k.startswith("SKYALIGN_")),
        "machine": platform.machine(),
        "commands": [["skyalign", *c.argv] for c in workload.commands(f"{WORK}/<run>/p<i>")],
    }


# --- main ------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True,
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    for needed in ("src/skyalign/cli.py", "configs/gen_default.cfg",
                   "configs/train_default.cfg"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a skyalign checkout",
                  file=sys.stderr)
            return 2
    for name in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        start = time.monotonic()
        workload = WORKLOADS[name]()
        run_dir = os.path.join(root, WORK, f"{name}-{args.seed}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            measure(args, root, run_dir, workload, start, start + 170.0)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def measure(args, root, run_dir, workload, start, deadline) -> None:
    workload.prepare(run_dir, args.seed)
    run_info = run_record(args, workload, root)
    # compile bytecode once so every measured start-up finds it cached
    run_child(root, run_dir, "warm", workload, run_dir, False, True, deadline, kind="cli")

    tally = {"attempted": 0, "failed": 0}
    problems_seen: list[str] = []

    def record(pass_index, label, problems):
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            problems_seen.append(f"pass {pass_index}: {label}: {'; '.join(problems)}")

    untraced, traced, setups, hashes, costs, walls = [], [], [], None, [], []
    t_measure = time.monotonic()
    while True:
        i = len(untraced) + len(traced)
        trace = bool(args.trace) and i % 2 == 1  # traced runs alternate, untraced first
        d = os.path.join(WORK, os.path.basename(run_dir), f"p{i}")
        os.makedirs(os.path.join(root, d))
        t0 = time.monotonic()
        result = run_child(root, run_dir, f"p{i}", workload, d, trace, False, deadline)
        for c in result["commands"]:
            record(i, "command", [] if c["rc"] == 0 else [f"exit {c['rc']}: {c['error']}"])
        # the first pass is checked against the references once the timed
        # passes are over; every later pass must reproduce its artefacts
        digest = artefact_hashes(d)
        if hashes is None:
            hashes, first_dir = digest, d
        else:
            record(i, "same-seed artefacts identical", [] if digest == hashes else
                   [f"differ: {sorted(k for k in digest if digest[k] != hashes.get(k))}"])
            shutil.rmtree(os.path.join(root, d), ignore_errors=True)
        (traced if trace else untraced).append(result)
        walls.append(f"{result['wall_s']:.3f}{'t' if trace else ''}")
        if not trace:
            setups.append(result["setup_s"])
        costs.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_measure
        if i + 1 >= MIN_PASSES and (elapsed + statistics.median(costs) > args.seconds
                                    or time.monotonic() - start > RUN_LIMIT_S):
            break
    try:
        checks = workload.check(first_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # e.g. a file not written
        checks = [("reference checks", [f"{type(exc).__name__}: {exc}"])]
    for label, problems in checks:
        record(0, label, problems)
    probe_end = time.monotonic() + SETUP_PROBE_S
    while len(setups) < SETUPS and not args.trace and time.monotonic() < probe_end:
        setups.append(run_child(root, run_dir, f"s{len(setups)}", workload, run_dir,
                                False, True, deadline)["setup_s"])

    e2e = end_to_end(workload, untraced, setups)
    print(f"perfbench {workload.name} seed={args.seed} untraced passes={len(untraced)} "
          f"traced passes={len(traced)} in {time.monotonic() - t_measure:.1f}s")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<10} n={n}")
    print("  pass wall_s (t = traced): " + " ".join(walls))
    attempted, failed = tally["attempted"], tally["failed"]
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} {'ratio':<10} "
          f"n={attempted} (failed {failed} of {attempted} attempted)")
    for problem in problems_seen:
        print(f"  FAILED {problem}")
    if args.trace:
        write_spans(os.path.join(root, WORK, f"{workload.name}-{args.seed}.spans.json"), traced)
        layers = per_layer(workload, traced, untraced)
        for name, (value, unit, n) in layers.items():
            print(f"  {name:<40} {value:>14.6g} {unit:<10} n={n}")
        metrics = {k: {"value": layers[k][0], "unit": layers[k][1]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    print("run record " + json.dumps(run_info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
