"""One benchmark pass, in a process of its own.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout root, the pass kind ("cli" or "search"), whether
to trace, and where to write the result.  The pass imports skyalign from
``<root>/src`` and nothing else, so it measures the checked-out code.  It
never runs in the benchmark's parent process, so its peak resident set is
its own.  The result file holds the CLOCK_MONOTONIC time at which imports
finished (the parent subtracts its spawn time to get interpreter start-up),
per-command timings and exit codes, the wall time, the peak RSS and, when
traced, every span.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _import_skyalign(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import skyalign.cli  # noqa: F401  (loads every module the CLI uses)
    import skyalign.retrieval_eval
    where = os.path.realpath(skyalign.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"skyalign imported from {where}, not from {src}")
    return skyalign


def _run_cli(spec, sky, tracer, result) -> None:
    cli = sky.cli
    commands = []
    t0 = time.perf_counter()
    for index, argv in enumerate(spec["commands"]):
        out, err = io.StringIO(), io.StringIO()
        c0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.command = index
                    rc = tracer.call("cli." + argv[0].replace("-", "_"), cli.main, (argv,))
        except Exception as exc:  # one failed command must not hide the rest
            rc, error = None, f"{type(exc).__name__}: {exc}"
        commands.append({"rc": rc, "s": time.perf_counter() - c0,
                         "error": error or err.getvalue().strip()[-500:]})
    result["wall_s"] = time.perf_counter() - t0
    result["commands"] = commands


def _peak_rss_mb() -> float:
    """This process's own peak resident set.  ru_maxrss is not used: Linux
    carries the parent's peak across fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def _load_search_inputs(spec):
    import numpy as np
    s = spec["search"]
    gallery = np.load(s["gallery"])
    queries = np.load(s["queries"])
    gallery_ids = [f"g{i:06d}" for i in range(gallery.shape[0])]
    query_ids = [f"q{i:04d}" for i in range(queries.shape[0])]
    return gallery_ids, gallery, query_ids, queries


def _build_sets(sky, inputs):
    es = sky.retrieval_eval.EmbeddingSet
    gallery_ids, gallery, query_ids, queries = inputs
    t0 = time.perf_counter()
    g, q = es.from_rows(gallery_ids, gallery), es.from_rows(query_ids, queries)
    return g, q, time.perf_counter() - t0


def _matmul_reference(sky, gallery, queries) -> float:
    """Seconds for the blocked ``q @ g.T`` scoring alone, with the package's
    block sizes and no selection."""
    re = sky.retrieval_eval
    gmat, qmat = gallery.matrix, queries.matrix
    t0 = time.perf_counter()
    for q0 in range(0, qmat.shape[0], re.DEFAULT_QUERY_BLOCK):
        qb = qmat[q0:q0 + re.DEFAULT_QUERY_BLOCK]
        for g0 in range(0, gmat.shape[0], re.DEFAULT_GALLERY_BLOCK):
            qb @ gmat[g0:g0 + re.DEFAULT_GALLERY_BLOCK].T
    return time.perf_counter() - t0


def _run_search(spec, sky, tracer, result, gallery, queries) -> None:
    import numpy as np
    s = spec["search"]
    top_k = sky.retrieval_eval.top_k
    t0 = time.perf_counter()
    error = None
    if tracer is not None:
        tracer.command = 0
    try:
        ranked = top_k(gallery, queries, s["k"], workers=s["workers"])
    except Exception as exc:  # reported as a failed operation
        ranked, error = None, f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - t0
    result["commands"] = [{"rc": 0 if error is None else None,
                           "s": result["wall_s"], "error": error}]
    if ranked is not None:
        ids = np.array([[int(g[1:]) for g in r.gallery_ids] for r in ranked], dtype=np.int64)
        scores = np.array([r.scores for r in ranked], dtype=np.float32)
        np.savez(s["out"], ids=ids, scores=scores)
    if tracer is not None:
        result["matmul_ref_s"] = _matmul_reference(sky, gallery, queries)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(spec["root"])
    i0 = time.perf_counter()
    sky = _import_skyalign(spec["root"])
    result = {"import_done": time.monotonic(), "import_s": time.perf_counter() - i0}
    tracer = None
    if spec["trace"] and not spec["setup_only"]:
        import tracing
        tracer = tracing.Tracer()
        result["bindings_traced"] = tracing.install(tracer)
    if spec["kind"] == "search":
        inputs = _load_search_inputs(spec)
        gallery, queries, result["from_rows_s"] = _build_sets(sky, inputs)
        del inputs
        if not spec["setup_only"]:
            _run_search(spec, sky, tracer, result, gallery, queries)
    elif not spec["setup_only"]:
        _run_cli(spec, sky, tracer, result)
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
