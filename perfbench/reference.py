"""Independent numpy references for checking the pipeline's outputs.

Nothing here imports skyalign: files are parsed from their documented
formats and every metric is recomputed from first principles.

Retrieval metrics come from the rank of each relevant gallery item: the
number of items scoring strictly higher, plus the number scoring equal
with a smaller gallery id, plus one.  Because the package computes float32
dot products with another blocking than this module, scores may differ in
the last bits; each check therefore brackets the metric between the
ranks it would have if every score within ``eps`` broke in the query's
favour and against it, and accepts any value in that bracket.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct

import numpy as np

EMB_MAGIC = b"EMB1"
FEA_MAGIC = b"FEA1"
SCORE_EPS = 1e-5  # float32 dot products of unit vectors agree to ~1e-7


# --- file readers ----------------------------------------------------------

def read_emb1(path):
    """EMB1: magic, u32 count, u32 dim, float32 rows, then u16-prefixed ids."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != EMB_MAGIC:
        raise ValueError(f"{path}: not an EMB1 file")
    n, dim = struct.unpack_from("<II", raw, 4)
    end = 12 + 4 * n * dim
    matrix = np.frombuffer(raw[12:end], dtype="<f4").reshape(n, dim)
    ids, pos = [], end
    for _ in range(n):
        (length,) = struct.unpack_from("<H", raw, pos)
        ids.append(raw[pos + 2:pos + 2 + length].decode("utf-8"))
        pos += 2 + length
    if pos != len(raw):
        raise ValueError(f"{path}: trailing bytes")
    return ids, matrix


def fea1_count(path) -> int:
    with open(path, "rb") as fh:
        head = fh.read(12)
    if head[:4] != FEA_MAGIC:
        raise ValueError(f"{path}: not a FEA1 file")
    return struct.unpack_from("<I", head, 4)[0]


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def read_relevance(path) -> dict[str, set[str]]:
    rows = csv_rows(path)
    if rows[0] != ["query_id", "gallery_id"]:
        raise ValueError(f"{path}: bad relevance header")
    rel: dict[str, set[str]] = {}
    for qid, gid in rows[1:]:
        rel.setdefault(qid, set()).add(gid)
    return rel


def read_metrics(path) -> dict[str, float]:
    """metrics.csv -> {"recall@1": ..., "ap": ...}."""
    rows = csv_rows(path)
    if rows[0] != ["metric", "k", "value"]:
        raise ValueError(f"{path}: bad metrics header")
    return {(f"{m}@{k}" if k else m): float(v) for m, k, v in rows[1:]}


def read_score_table(path):
    """Dense score CSV -> (query ids, gallery ids, float64 scores)."""
    rows = csv_rows(path)
    if rows[0][0] != "query_id":
        raise ValueError(f"{path}: bad score table header")
    scores = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return [row[0] for row in rows[1:]], rows[0][1:], scores


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- retrieval metrics -----------------------------------------------------

def unit_rows(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def dense_scores(gallery_emb, query_emb):
    """Cosine scores of every query against every gallery item, float32."""
    return unit_rows(query_emb) @ unit_rows(gallery_emb).T


def _metrics_from_ranks(ranks: list[np.ndarray], ks) -> dict[str, float]:
    out = {f"recall@{k}": float(np.mean([r.min() <= k for r in ranks])) for k in ks}
    aps = []
    for r in ranks:
        r = np.sort(r)
        aps.append(float(np.mean(np.arange(1, r.size + 1) / r)))
    out["ap"] = float(np.mean(aps))
    return out


def metric_bounds(scores, query_ids, gallery_ids, relevance, ks, eps):
    """(exact, low, high) metric dicts for a dense score matrix.

    exact uses the tie rule (equal scores rank by ascending gallery id);
    low and high bracket every metric over score perturbations below eps.
    """
    col = {g: j for j, g in enumerate(gallery_ids)}
    id_order = np.empty(len(gallery_ids), dtype=np.int64)
    id_order[np.argsort(np.array(gallery_ids, dtype=object), kind="stable")] = np.arange(len(gallery_ids))
    exact, best, worst = [], [], []
    for i, qid in enumerate(query_ids):
        row = scores[i]
        rel = np.array(sorted(col[g] for g in relevance[qid]), dtype=np.int64)
        s = row[rel][:, None]
        exact.append(1 + (row > s).sum(axis=1)
                     + ((row == s) & (id_order < id_order[rel][:, None])).sum(axis=1))
        best.append(1 + (row > s + eps).sum(axis=1))
        worst.append((row >= s - eps).sum(axis=1))
    return (_metrics_from_ranks(exact, ks), _metrics_from_ranks(worst, ks),
            _metrics_from_ranks(best, ks))


def check_metrics(got: dict, bounds, slack: float = 1e-9) -> list[str]:
    """Problems found comparing reported metrics with a bracket."""
    exact, low, high = bounds
    problems = []
    if set(got) != set(exact):
        problems.append(f"metric names {sorted(got)} != {sorted(exact)}")
    for name in exact:
        value = got.get(name, math.nan)
        if not low[name] - slack <= value <= high[name] + slack:
            problems.append(f"{name} = {value!r}, reference {exact[name]!r} "
                            f"in [{low[name]!r}, {high[name]!r}]")
    return problems


def id_rank_matrix(scores: np.ndarray) -> np.ndarray:
    """1-based ranks per row: descending score, ties to the lower column."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, scores.shape[1] + 1),
                                                    order.shape), axis=1)
    return ranks


def fuse(tables, weights, mode):
    """Fuse aligned score matrices: weighted mean, or sum of w / (60 + rank)."""
    total = float(sum(weights))
    if mode == "score-mean":
        return sum((w / total) * t for t, w in zip(tables, weights))
    return sum(w / (60.0 + id_rank_matrix(t)) for t, w in zip(tables, weights))


# --- top-k search ----------------------------------------------------------

def search_reference(gallery, queries, k, block=16384, spare=10):
    """Candidate top-(k + spare) ids per query, by blocked float32 scoring.

    Returns (candidate ids, their float64 scores) sorted by descending
    float64 score; the spare candidates let check_search tell a real miss
    from a near-tie at the k-th place.
    """
    q64 = queries.astype(np.float64)
    q64 /= np.linalg.norm(q64, axis=1, keepdims=True)
    q32 = q64.astype(np.float32)
    keep = k + spare
    best_s = np.full((q32.shape[0], 0), -np.inf, dtype=np.float32)
    best_i = np.zeros((q32.shape[0], 0), dtype=np.int64)
    for g0 in range(0, gallery.shape[0], block):
        g = gallery[g0:g0 + block].astype(np.float64)
        g32 = (g / np.linalg.norm(g, axis=1, keepdims=True)).astype(np.float32)
        s = q32 @ g32.T
        part = np.argpartition(-s, keep - 1, axis=1)[:, :keep]
        best_s = np.hstack([best_s, np.take_along_axis(s, part, axis=1)])
        best_i = np.hstack([best_i, part + g0])
        top = np.argpartition(-best_s, keep - 1, axis=1)[:, :keep]
        best_s = np.take_along_axis(best_s, top, axis=1)
        best_i = np.take_along_axis(best_i, top, axis=1)
    exact = exact_scores(gallery, q64, best_i)
    order = np.argsort(-exact, axis=1, kind="stable")
    return np.take_along_axis(best_i, order, axis=1), np.take_along_axis(exact, order, axis=1)


def exact_scores(gallery, q64, ids):
    """float64 cosine of each query with the gallery rows named in ids."""
    g = gallery[ids.ravel()].astype(np.float64)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g = g.reshape(ids.shape + (gallery.shape[1],))
    return np.einsum("qd,qkd->qk", q64, g)


def check_search(gallery, queries, ref_ids, ref_scores, ids, scores, k) -> list[str]:
    """Problems with a returned top-k against the brute-force candidates."""
    problems = []
    nq = queries.shape[0]
    if ids.shape != (nq, k) or scores.shape != (nq, k):
        return [f"result shape {ids.shape} != {(nq, k)}"]
    q64 = queries.astype(np.float64)
    q64 /= np.linalg.norm(q64, axis=1, keepdims=True)
    got = exact_scores(gallery, q64, ids)
    if np.abs(got - scores).max() > SCORE_EPS:
        problems.append(f"returned scores off by {np.abs(got - scores).max():.2e}")
    if (np.diff(scores, axis=1) > 0).any():
        problems.append("returned scores not non-increasing")
    kth = ref_scores[:, k - 1:k]
    if (got < kth - SCORE_EPS).any():
        problems.append(f"{int((got < kth - SCORE_EPS).sum())} returned items below the k-th score")
    if (ref_scores[:, -1:] >= kth - SCORE_EPS).any():
        problems.append("reference candidates too few to decide near-ties")
    for i in range(nq):
        if len(set(ids[i].tolist())) != k:
            problems.append(f"query {i}: duplicate ids")
            break
        must = set(ref_ids[i][ref_scores[i] > got[i].min() + SCORE_EPS].tolist())
        if not must <= set(ids[i].tolist()):
            problems.append(f"query {i}: missed ids {sorted(must - set(ids[i].tolist()))[:3]}")
            break
    return problems


# --- training and sweep artefacts -------------------------------------------

def expected_steps(n_buildings: int, batch: int, epochs: int) -> int:
    """Batches per epoch: ceil(n / batch), a singleton tail folded in."""
    chunks = -(-n_buildings // batch)
    if chunks > 1 and n_buildings % batch == 1:
        chunks -= 1
    return epochs * chunks


def check_train_log(path, steps: int) -> list[str]:
    rows = csv_rows(path)
    if rows[0] != ["step", "lr", "loss_total", "loss_contrastive", "loss_orientation"]:
        return [f"{path}: bad header {rows[0]}"]
    body = rows[1:]
    problems = []
    if [int(r[0]) for r in body] != list(range(steps)):
        problems.append(f"{path}: {len(body)} steps, expected {steps}")
    if not all(math.isfinite(float(v)) for r in body for v in r[1:]):
        problems.append(f"{path}: non-finite value")
    return problems


def check_sweep(path, key: str, settings, seeds) -> list[str]:
    rows = csv_rows(path)
    if rows[0] != [key, "seed", "recall_at_1", "ap"]:
        return [f"{path}: bad header {rows[0]}"]
    problems = []
    cells = sorted((r[0], int(r[1])) for r in rows[1:])
    if cells != sorted((str(s), seed) for s in settings for seed in seeds):
        problems.append(f"{path}: rows {len(cells)}, expected {len(settings) * len(seeds)}")
    if not all(0.0 <= float(v) <= 1.0 for r in rows[1:] for v in r[2:]):
        problems.append(f"{path}: metric outside [0, 1]")
    return problems
