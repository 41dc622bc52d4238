"""Span tracing of skyalign's public functions, installed from outside the
package.

Modules inside skyalign bind each other's functions with ``from .x import
y``, so a caller looks a function up in its own namespace.  ``install``
therefore replaces every binding of a target function in every skyalign
module (and the method on its class), not only the defining one.

A span is ``[name, start, end, parent, command, counts]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``command`` the index of
the CLI command (or search call) it ran under, and ``counts`` an optional
dict of work counts taken from the call's arguments and result.  Spans stay
in memory until the pass ends; ``summarize`` reduces them.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

MODULES = ("ablations", "binio", "cli", "configio", "dataset", "model",
           "objectives", "pose_geometry", "retrieval_eval", "trainer")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.command, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            rec[5] = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced


# --- work counts taken at layer boundaries -------------------------------

def _read_features_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _score_load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[-1])}


def _top_k_counts(args, kwargs, result):
    """Work of the blocked scoring, computed from the shapes: 2*Q*G*d flops;
    bytes = the gallery read once per query block, the queries read once and
    the Q x G float32 scores written once."""
    gallery, queries = args[0], args[1]
    qb = kwargs.get("query_block", sys.modules["skyalign.retrieval_eval"].DEFAULT_QUERY_BLOCK)
    q, g, d = len(queries.ids), len(gallery.ids), gallery.dim
    return {"queries": q, "flop": 2 * q * g * d,
            "bytes": 4 * (-(-q // qb) * g * d + q * d + q * g),
            "entries": sum(len(r.gallery_ids) for r in result)}


def _ensemble_counts(args, kwargs, result):
    return {"queries": len(result), "entries": sum(len(r.gallery_ids) for r in result)}


def _metrics_counts(args, kwargs, result):
    rankings, relevance, ks = args[0], args[1], args[2]
    top = max(ks) if ks else 0
    used = sum(min(len(r.gallery_ids), top + len(relevance[r.query_id])) for r in rankings)
    return {"used": used, "entries": sum(len(r.gallery_ids) for r in rankings)}


def _targets(sky):
    """(span name, owner, attribute, count hook) for every traced entry point."""
    ds, pg, ob = sky["dataset"], sky["pose_geometry"], sky["objectives"]
    md, tr, re = sky["model"], sky["trainer"], sky["retrieval_eval"]
    return [
        ("dataset.generate", ds, "generate", None),
        ("dataset.load", ds.CrossViewDataset, "load", None),
        ("dataset.sample_batch", ds.BatchSampler, "sample_batch", None),
        ("dataset.rotation", ds, "apply_aligned_rotation", None),
        ("pose_geometry.generate_labels", pg, "generate_labels", None),
        ("pose_geometry.manifest_io", pg, "read_manifest", None),
        ("pose_geometry.manifest_io", pg, "write_manifest", None),
        ("pose_geometry.manifest_io", pg, "write_labels", None),
        ("objectives.infonce", ob, "infonce_with_grad", None),
        ("objectives.orientation", ob, "orientation_ce_with_grad", None),
        ("objectives.orientation", ob, "orientation_mse_with_grad", None),
        ("model.forward_backward", md, "forward_backward", None),
        ("model.encode", md, "encode", None),
        ("model.checkpoint_io", md, "save_checkpoint", None),
        ("model.checkpoint_io", md, "load_checkpoint", None),
        ("trainer.adamw", tr, "adamw_step", None),
        ("trainer.train", tr, "train", None),
        ("retrieval_eval.top_k", re, "top_k", _top_k_counts),
        ("retrieval_eval.metrics", re, "metrics_from_rankings", _metrics_counts),
        ("retrieval_eval.ensemble", re, "ensemble", _ensemble_counts),
        ("retrieval_eval.score_table_save", re.ScoreTable, "save", None),
        ("retrieval_eval.score_table_load", re.ScoreTable, "load", _score_load_counts),
        ("retrieval_eval.embeddings_io", re.EmbeddingSet, "load", None),
        ("retrieval_eval.embeddings_io", re.EmbeddingSet, "save", None),
        ("retrieval_eval.from_rows", re.EmbeddingSet, "from_rows", None),
        ("retrieval_eval.relevance_io", re, "read_relevance", None),
        ("retrieval_eval.relevance_io", re, "write_relevance", None),
        ("binio.read_features", sky["binio"], "read_features", _read_features_counts),
        ("binio.write_features", sky["binio"], "write_features", None),
        ("ablations.drone2sat_metrics", sky["ablations"], "drone2sat_metrics", None),
    ]


def install(tracer: Tracer) -> int:
    """Wrap every target at each name a caller looks it up by.

    Returns the number of bindings replaced.
    """
    sky = {name: sys.modules["skyalign." + name] for name in MODULES}
    replaced = 0
    for span, owner, attr, count in _targets(sky):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(span, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(span, raw, count))
            replaced += 1
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(span, original, count)
        for module in sky.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)
                    replaced += 1
    return replaced


# --- reduction -------------------------------------------------------------

def summarize(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, self seconds, calls and summed
    counts; plus the duration of every training step.

    Self time is a span's duration minus that of its direct children; the
    tracer is single-threaded, so children never overlap.  A training step
    runs from a ``dataset.sample_batch`` span inside ``trainer.train`` to the
    end of the last child span before the next one.
    """
    child_s = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            children.setdefault(parent, []).append(i)
    layers: dict[str, dict] = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        entry = layers.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s[i]
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    step_s = []
    for i, rec in enumerate(spans):
        if rec[0] != "trainer.train":
            continue
        step_start = step_end = None
        for c in children.get(i, []):
            name, start, end = spans[c][0], spans[c][1], spans[c][2]
            if name == "dataset.sample_batch":
                if step_start is not None:
                    step_s.append(step_end - step_start)
                step_start = start
            step_end = end
        if step_start is not None:
            step_s.append(step_end - step_start)
    return {"layers": layers, "step_s": step_s}
