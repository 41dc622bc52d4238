"""Exact brute-force cosine retrieval over large galleries, Recall@K and
mean Average Precision, dimension truncation, and score ensembling.

Scores are plain dot products on unit-norm rows.  Retrieval is exact: the
gallery is scanned in column blocks, each block's candidate top-k is
selected with precise tie handling, and candidates are merged so the final
result is independent of block size and worker count.  Ties are always
broken by ascending gallery id.

A block's candidates come from np.argpartition.  Only the rows where a
score equal to the k-th lies outside the chosen k go through the exact tie
rule (strictly greater scores, then the first equal ones by gallery id).

Once a query block's running list holds k entries per row, each later
gallery block is reduced to the scores strictly above the row's running
k-th, and only the rows with such a hit are merged.  This is exact: blocks
arrive in ascending gallery id, so a later score equal to the k-th has a
larger id than every running entry and loses the tie, and a smaller one
cannot enter.  A block with more than k hits per row (a gallery whose scores
rise with id) goes through argpartition whole, which bounds the cost.

At 160 000 x 384 gallery rows, 1 000 queries and k = 10, the benchmark's
search pass took 1.18 s against 1.77 s with argpartition on every block
(medians of 10 seeds; 2-vCPU x86-64 VM, OpenBLAS threads unset).  Traced,
selection beyond the bare blocked matmul fell from 1.01 s to 0.41 s.

Every EmbeddingSet is built through _renormalize, which splits its row
chunks over the usable CPUs from 2**22 values on; from_rows and load check
the ids before the normalized rows exist.  Building that benchmark's
160 000 x 384 gallery and 1 000 queries took 0.21-0.23 s against 0.40-0.55 s
with one thread and numpy's temporaries (traced, seed 7; same VM).

R@K and AP come from the rank of each relevant item: 1 + the scores above
it + the equal ones in earlier (lower-id) columns.  One scan, _scan_metrics,
counts those ranks block by block in score rows its two callers supply and
keeps only the ranks.  evaluate scores the queries in blocks of at most
max(DEFAULT_QUERY_BLOCK, 2**20 // gallery size) rows into one reused
buffer, so its memory grows with the gallery, not with the query count,
and for at most DEFAULT_QUERY_BLOCK queries the buffer is the whole table.
fused_metrics fuses the tables with fuse's kernel (_fuser) in blocks of at
most min(DEFAULT_QUERY_BLOCK, 2**20 // gallery size) rows, at least one,
into two reused buffers, so no dense fused table or rank matrix exists.

evaluate, fused_metrics, model.encode, and top_k under its query_block
cap, split their rows into equal blocks, sizes differing by at most 1
(_equal_blocks).  For matrix products that matters, because the BLAS
kernel can depend on the block's row count: a lone 1-row block would go
through gemv, whose scores differ in the last bits from the dense product
(and so did AP, at a 160 000 x 384 gallery), while blocks of 2 to 30 rows
gave the dense product's bits.  With equal blocks, each is at least half
the row cap when there are several, so a 1-row block comes only from a
single row, whose dense product is one row too.  At 160 000 x 384 gallery
rows and 1 000 queries, evaluate's tracemalloc peak is 170 MB against
685 MB for the dense table.

A block's ranks are counted one of two ways, by its shape (_count_ranks),
in at most 2**18 scores of scratch.  A block whose every row holds one
relevant item (every Drone2Sat block) is compared in place with those
items' scores.  Every other block is sorted a row at a time in one reused
copy, and each relevant score is found in it by binary search, so R items
cost one sort, not R passes (Sat2Drone: 10 a row in the scale benchmark,
54 in University-1652).  Microseconds per row, one compare pass per
relevant item against one sort (float32 rows, best of 5; 2-vCPU x86-64 VM,
numpy 2.4.6):

    G = 1 000     R = 1: 4 vs 23    R = 3: 14 vs 25      R = 4: 18 vs 26
                  R = 5: 23 vs 29   R = 10: 47 vs 29     R = 54: 256 vs 40
    G = 10 000    R = 1: 32 vs 74   R = 3: 86 vs 86      R = 4: 115 vs 85
                  R = 10: 266 vs 90 R = 54: 1 461 vs 108
    G = 160 000   R = 1: 533 vs 1 270  R = 3: 1 420 vs 1 306  R = 4: 1 891 vs 1 297

One pass beats a sort only at R = 1.  Rows of 2 or 3 items, which no
workload and neither paper direction has, sort too: 1 000 x 1 000 float32
with R = 2 took 12.7 ms against 5.3 ms compared once per item.  Both ways
give the same ranks for any scores, ties, signed zeros and NaN included.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import (
    DataError,
    DimMismatch,
    DimTooLarge,
    DuplicateId,
    IdMismatch,
    NormDegenerate,
    UnknownQuery,
    open_text,
    write_csv,
)

DEFAULT_GALLERY_BLOCK = 8192
DEFAULT_QUERY_BLOCK = 256
_BLOCK_VALUES = 1 << 20  # scores per fused_metrics block; an evaluate block may hold more
_SORT_VALUES = 1 << 18  # scores per _count_ranks chunk or sorted copy, held beside a score block


@dataclass
class EmbeddingSet:
    """Unique ids paired with unit-norm float32 rows."""

    ids: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.ids) != self.matrix.shape[0]:
            raise DataError("id count does not match embedding rows")
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            repeat = next(i for i in self.ids if i in seen or seen.add(i))  # first id seen twice
            raise DuplicateId(f"duplicate id {repeat!r} in embedding set")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_rows(cls, ids: list[str], matrix: np.ndarray) -> "EmbeddingSet":
        """The ids are checked before the normalized rows exist, so the id set
        and the new matrix are never live at once.  Rows are normalized in
        place when the float32 conversion made a copy; a caller's float32
        array is never written."""
        rows = np.asarray(matrix, dtype=np.float32)
        owned = rows is not matrix and rows.base is None
        es = cls(list(ids), rows)
        es.matrix = _renormalize(rows, out=rows if owned else None)
        return es

    @classmethod
    def load(cls, path) -> "EmbeddingSet":
        """The rows read are normalized in place, after the ids are checked."""
        es = cls(*binio.read_embeddings(path))
        _renormalize(es.matrix, out=es.matrix)
        return es

    def save(self, path) -> None:
        binio.write_embeddings(path, self.ids, self.matrix)


def _renormalize(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows divided by their float64 norms, rounded to float32, into out (new
    by default; out=matrix works in place).  The norms are np.linalg.norm's
    pairwise add.reduce of the squares, so a row's bits do not depend on its
    chunk.  Chunks are dealt round-robin to shares that _map_threads runs on
    this thread and one helper per further usable CPU, up to one thread per
    2**22 values.  160 000 x 384 took
    0.20 s on 2 CPUs and 0.34 s on one, against 0.39 s for a chunked astype,
    np.linalg.norm and divide (medians of 9; 2-vCPU x86-64 VM, numpy 2.4.6).
    Desk and scale sets (at most 10 000 x 64) stay on one thread: at 20 000 x
    64 a second one saved 1.7 ms (5.1 against 6.8 ms)."""
    n, dim = matrix.shape
    out = np.empty(matrix.shape, dtype=np.float32) if out is None else out
    norms = np.empty((n, 1))
    step = max(1, min(n, (1 << 15) // max(1, dim)))  # rows per chunk: 2**15 values
    n_threads = max(1, min(len(os.sched_getaffinity(0)), matrix.size >> 22))
    scratch = np.empty((n_threads, 2, step, dim))  # two float64 buffers a thread
    shares = [(matrix, out, norms, range(t * step, n, n_threads * step), scratch[t])
              for t in range(n_threads)]
    _map_threads(lambda share: _normalize_chunks(*share), shares, n_threads)
    if not np.isfinite(norms).all():
        row = int(np.argmin(np.isfinite(norms)))
        raise NormDegenerate(f"embedding row {row} is not finite")
    if n and norms.min() < 1e-12:
        row = int(np.argmin(norms))
        raise NormDegenerate(f"embedding row {row} has norm {norms.min():.3e}")
    return out


def _map_threads(fn, items, threads: int) -> list:
    """[fn(item) for item in items], item i on thread i % min(threads, items):
    thread 0 is this one, the others are helpers joined before this returns.
    A thread stops at its first exception; the first in item order is raised.
    Not concurrent.futures: its import raised search peak RSS by 0.36 MB."""
    n = max(1, min(threads, len(items)))
    results, errors = [None] * len(items), {}

    def run(t):
        try:
            for i in range(t, len(items), n):
                results[i] = fn(items[i])
        except BaseException as exc:  # re-raised below, once every helper is joined
            errors[i] = exc

    helpers = [threading.Thread(target=run, args=(t,)) for t in range(1, n)]
    try:
        for thread in helpers:
            thread.start()
        run(0)
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _normalize_chunks(matrix, out, norms, starts, scratch) -> None:
    """_renormalize's row chunks at starts, in scratch's two float64 buffers."""
    step = scratch.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # per thread; bad rows are reported by the caller
        for s in starts:
            k = min(step, len(matrix) - s)
            buf, sq, nrm = scratch[0, :k], scratch[1, :k], norms[s:s + k]
            np.copyto(buf, matrix[s:s + k])
            np.multiply(buf, buf, out=sq)  # exact: float32 squares fit in float64
            np.sqrt(np.add.reduce(sq, axis=1, keepdims=True, out=nrm), out=nrm)
            np.copyto(out[s:s + k], np.divide(buf, nrm, out=buf), casting="same_kind")


@dataclass
class RankedList:
    query_id: str
    gallery_ids: list[str]
    scores: np.ndarray  # non-increasing


def _exact_candidates(scores: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """The block's exact top-k columns, ascending: the entries strictly above
    the k-th score, then the first (by column, i.e. by gallery id) equal ones."""
    gt = scores > kth
    eq = scores == kth
    need = k - gt.sum(axis=1, keepdims=True)
    keep = gt | (eq & (np.cumsum(eq, axis=1) <= need))
    return np.nonzero(keep)[1].reshape(-1, k)


def _block_candidates(scores: np.ndarray, offset: int, k: int):
    """Top-k of one score block with exact ties, columns ascending.

    argpartition picks k columns per row.  Only where a score equal to the
    k-th lies outside them is that pick ambiguous; those rows are picked again
    by _exact_candidates."""
    nq, nb = scores.shape
    if nb <= k:
        idx = np.broadcast_to(np.arange(offset, offset + nb), (nq, nb))
        return scores, idx
    cols = np.argpartition(scores, nb - k, axis=1)[:, nb - k:]
    kth = np.take_along_axis(scores, cols, axis=1).min(axis=1, keepdims=True)
    tied = np.flatnonzero((scores >= kth).sum(axis=1, dtype=np.int32) > k)
    if tied.size:
        cols[tied] = _exact_candidates(scores[tied], kth[tied], k)
    cols.sort(axis=1)
    return np.take_along_axis(scores, cols, axis=1), cols + offset


def _merge(run_s, run_i, cand_s, cand_i, k: int):
    """Merge running and candidate top-k.  Stable sort on negated scores
    preserves position order among ties, and positions are arranged in
    ascending gallery index, so ties resolve to the smaller index."""
    all_s = np.hstack([run_s, cand_s])
    all_i = np.hstack([run_i, cand_i])
    order = np.argsort(-all_s, axis=1, kind="stable")[:, :min(k, all_s.shape[1])]
    return np.take_along_axis(all_s, order, axis=1), np.take_along_axis(all_i, order, axis=1)


def _hits_above(scores: np.ndarray, kth: np.ndarray, k: int):
    """Flat indices of the scores strictly above their row's kth, or None
    when they number more than k a row.  The leading eighth of the rows is
    counted first, so a block that fails the count costs little to test."""
    lead = -(-scores.shape[0] // 8)
    if np.count_nonzero(scores[:lead] > kth[:lead]) > k * lead:
        return None
    above = scores > kth
    if np.count_nonzero(above) > k * scores.shape[0]:
        return None
    return np.flatnonzero(above)


def _hit_candidates(scores: np.ndarray, hits: np.ndarray, offset: int):
    """The rows holding a hit (flat indices into scores, ascending), and each
    such row's hits padded with (-inf, -1) to one width, columns ascending."""
    rows, cols = np.divmod(hits, scores.shape[1])
    hit_rows, slot_row = np.unique(rows, return_inverse=True)
    slot = np.arange(hits.size) - np.searchsorted(rows, rows)
    cand_s = np.full((hit_rows.size, slot.max() + 1), -np.inf, dtype=scores.dtype)
    cand_i = np.full(cand_s.shape, -1, dtype=np.int64)
    cand_s[slot_row, slot] = scores.ravel()[hits]
    cand_i[slot_row, slot] = cols + offset
    return hit_rows, cand_s, cand_i


def _topk_query_block(qmat, gmat, k: int, gallery_block: int):
    """Once every row holds k entries, a later block can only contribute
    scores strictly above the row's k-th (an equal one has a larger gallery
    id and loses the tie), so only those hits are merged.  A block whose hit
    count exceeds k per row goes through _block_candidates whole."""
    nq = qmat.shape[0]
    run_s = np.empty((nq, 0), dtype=qmat.dtype)
    run_i = np.empty((nq, 0), dtype=np.int64)
    for c0 in range(0, gmat.shape[0], gallery_block):
        scores = qmat @ gmat[c0:c0 + gallery_block].T
        if run_s.shape[1] == k:
            hits = _hits_above(scores, run_s[:, -1:], k)
            if hits is not None:
                if hits.size:
                    rows, cand_s, cand_i = _hit_candidates(scores, hits, c0)
                    run_s[rows], run_i[rows] = _merge(run_s[rows], run_i[rows],
                                                      cand_s, cand_i, k)
                continue
        cand_s, cand_i = _block_candidates(scores, c0, k)
        run_s, run_i = _merge(run_s, run_i, cand_s, cand_i, k)
    return run_s, run_i


def _equal_blocks(n: int, cap: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest blocks of at most cap rows that cover n
    rows, their sizes differing by at most 1 (see the module docstring)."""
    count = -(-n // cap)
    return [(b * n // count, (b + 1) * n // count) for b in range(count)]


def _block_rows(width: int) -> int:
    """Rows of at most DEFAULT_QUERY_BLOCK and _BLOCK_VALUES scores, at least
    one: a fused_metrics block, and ScoreTable.load's first capacity."""
    return max(1, min(DEFAULT_QUERY_BLOCK, _BLOCK_VALUES // max(1, width)))


def _id_ordered(gallery: EmbeddingSet) -> tuple[list[str], np.ndarray]:
    """Gallery ids ascending and the C-contiguous rows in that order; rows
    whose ids are already sorted are not copied."""
    ids = gallery.ids
    if all(map(operator.lt, ids, ids[1:])):
        return list(ids), np.ascontiguousarray(gallery.matrix)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], gallery.matrix[order]


def top_k(gallery: EmbeddingSet, queries: EmbeddingSet, k: int, *,
          gallery_block: int = DEFAULT_GALLERY_BLOCK,
          query_block: int = DEFAULT_QUERY_BLOCK,
          workers: int = 1) -> list[RankedList]:
    """Exact top-k by dot product, ties broken by ascending gallery id.

    The gallery is pre-sorted by id so that column order equals id order;
    the block selection and merge then need only preserve column order
    among equal scores.  Query blocks run here and on workers - 1 helper
    threads (_map_threads).
    """
    if gallery.dim != queries.dim:
        raise DimMismatch(f"gallery dim {gallery.dim} != query dim {queries.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    gids, gmat = _id_ordered(gallery)

    qmat = queries.matrix
    blocks = _equal_blocks(qmat.shape[0], query_block)

    parts = _map_threads(lambda b: _topk_query_block(qmat[b[0]:b[1]], gmat, k, gallery_block),
                         blocks, workers)

    results = []
    row = 0
    for part_s, part_i in parts:
        for r in range(part_s.shape[0]):
            results.append(RankedList(
                query_id=queries.ids[row],
                gallery_ids=[gids[j] for j in part_i[r]],
                scores=part_s[r].copy(),
            ))
            row += 1
    return results


def recall_at_k(ranked: RankedList, relevant: set[str], k: int) -> float:
    """1.0 iff any relevant id appears among the first k results."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 if any(g in relevant for g in ranked.gallery_ids[:k]) else 0.0


def average_precision(ranked: RankedList, relevant: set[str]) -> float:
    """Mean of precision at each relevant item's rank; needs a full ranking."""
    if not relevant:
        raise DataError(f"query {ranked.query_id!r}: empty relevant set")
    missing = relevant.difference(ranked.gallery_ids)
    if missing:
        raise DataError(
            f"query {ranked.query_id!r}: relevant ids not in ranking: {sorted(missing)[:3]}"
        )
    hits = 0
    total = 0.0
    for pos, gid in enumerate(ranked.gallery_ids, start=1):
        if gid in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def truncate_dim(embeddings: EmbeddingSet, d: int) -> EmbeddingSet:
    """Keep the first d coordinates and re-normalize rows."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > embeddings.dim:
        raise DimTooLarge(f"requested dim {d} > embedding dim {embeddings.dim}")
    return EmbeddingSet.from_rows(embeddings.ids, embeddings.matrix[:, :d])


@dataclass
class ScoreTable:
    """Dense query-by-gallery score matrix, the ensemble interchange unit."""

    query_ids: list[str]
    gallery_ids: list[str]
    scores: np.ndarray

    def save(self, path) -> None:
        """A query_id header row, then one row per query.  Only the header
        and the ids go through csv.writer, which quotes them; the scores of a
        row are joined from tolist(), whose floats repr as float(v) does."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id"] + self.gallery_ids)
            cell = io.StringIO()
            lead = csv.writer(cell)
            for qid, row in zip(self.query_ids, self.scores):
                row = row.tolist()  # one row at a time: a list of floats is 8x the array
                cell.seek(0)
                cell.truncate()
                lead.writerow([qid, ""] if row else [qid])  # "<id>,\r\n" or "<id>\r\n"
                fh.write(cell.getvalue()[:-2] + ",".join(map(repr, row)) + "\r\n")

    @classmethod
    def load(cls, path) -> "ScoreTable":
        """Each row is parsed into one float64 array that starts at
        _block_rows(gallery size) rows, doubles when full and is cut to the
        rows read at the end (ndarray.resize reallocates), so no list of rows
        is stacked."""
        with open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "query_id":
                raise DataError(f"{path}: bad score table header")
            gallery_ids = header[1:]
            query_ids = []
            scores = np.empty((_block_rows(len(gallery_ids)), len(gallery_ids)))
            for rec in reader:
                if len(rec) != len(header):
                    raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields")
                n = len(query_ids)
                if n == len(scores):
                    scores.resize((2 * n, len(gallery_ids)), refcheck=False)
                try:
                    scores[n] = np.fromiter(map(float, rec[1:]), np.float64, len(gallery_ids))
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: score is not a number") from None
                if not np.isfinite(scores[n]).all():
                    raise DataError(f"{path}:{reader.line_num}: score is not finite")
                query_ids.append(rec[0])
        if not query_ids or not gallery_ids:
            raise DataError(f"{path}: no query rows or no gallery columns")
        if len(set(query_ids)) < len(query_ids) or len(set(gallery_ids)) < len(gallery_ids):
            raise DataError(f"{path}: duplicate query or gallery ids")
        scores.resize((len(query_ids), len(gallery_ids)), refcheck=False)
        return cls(query_ids, gallery_ids, scores)


def score_table(gallery: EmbeddingSet, queries: EmbeddingSet) -> ScoreTable:
    """All pairwise scores, gallery columns in ascending id order."""
    if gallery.dim != queries.dim:
        raise DimMismatch(f"gallery dim {gallery.dim} != query dim {queries.dim}")
    gids, gmat = _id_ordered(gallery)
    return ScoreTable(list(queries.ids), gids, queries.matrix @ gmat.T)


FUSION_SCORE_MEAN = "score-mean"
FUSION_RECIPROCAL_RANK = "reciprocal-rank"
_RRF_OFFSET = 60.0


def _rank_matrix(scores: np.ndarray) -> np.ndarray:
    """1-based ranks per row, descending score, ties to the lower column."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, scores.shape[1] + 1)[None, :], axis=1)
    return ranks


def check_weights(weights: list[float], n_tables: int) -> float:
    """The sum of one weight per table; DataError unless every weight and
    the sum are finite and the sum is positive."""
    if len(weights) != n_tables:
        raise DataError(f"{len(weights)} weights for {n_tables} tables")
    if not np.isfinite(weights).all():
        raise DataError(f"weights must be finite, got {weights}")
    wsum = float(sum(weights))
    if not 0 < wsum < np.inf:  # an infinite sum would fuse every w / wsum to 0
        raise DataError(f"weights must sum to a positive finite value, got {wsum}")
    return wsum


def _positions(ids: list[str], order: list[str]) -> np.ndarray:
    """The index in ids of each id of order."""
    pos = {x: i for i, x in enumerate(ids)}
    return np.array([pos[x] for x in order], dtype=np.intp)


def _fuser(tables: list[ScoreTable], weights: list[float] | None, fusion: str):
    """Check and align the tables once for fuse: (query ids, gallery ids in
    id order, fill), where fill(q0, q1, out, term) writes the fused scores of
    query rows q0:q1 into out, using term as scratch of out's shape, and
    returns out.  Every score is fused as the whole table would fuse it."""
    if len(tables) < 1:
        raise ValueError("need at least one score table")
    if weights is None:
        weights = [1.0] * len(tables)
    wsum = check_weights(weights, len(tables))
    if fusion not in (FUSION_SCORE_MEAN, FUSION_RECIPROCAL_RANK):
        raise ValueError(f"unknown fusion {fusion!r}")
    qids, gids = tables[0].query_ids, sorted(tables[0].gallery_ids)
    qsorted = sorted(qids)
    parts = []  # (scores, row positions or None, column positions or None, weight)
    for tab, w in zip(tables, weights):
        if sorted(tab.query_ids) != qsorted or sorted(tab.gallery_ids) != gids:
            raise IdMismatch("score tables cover different query/gallery ids")
        rows = None if tab.query_ids == qids else _positions(tab.query_ids, qids)
        cols = None if tab.gallery_ids == gids else _positions(tab.gallery_ids, gids)
        parts.append((tab.scores, rows, cols, w / wsum if fusion == FUSION_SCORE_MEAN else w))

    def fill(q0: int, q1: int, out: np.ndarray, term: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        for scores, rows, cols, w in parts:
            block = scores[q0:q1] if rows is None else scores[rows[q0:q1]]
            if cols is not None:
                block = block[:, cols]
            if fusion == FUSION_SCORE_MEAN:
                np.multiply(w, block, out=term)
            else:
                np.divide(w, np.add(_RRF_OFFSET, _rank_matrix(block), out=term), out=term)
            out += term
        return out

    return qids, gids, fill


def fuse(tables: list[ScoreTable], weights: list[float] | None = None,
         fusion: str = FUSION_SCORE_MEAN) -> ScoreTable:
    """Fuse per-model score tables into one, gallery columns in id order.

    score-mean averages the raw scores (weighted); reciprocal-rank sums
    w/(60+rank).  All tables must cover identical query and gallery id
    sets; columns and rows are aligned by id before fusing.  This is
    fused_metrics' block kernel (_fuser) applied to all rows at once.
    """
    qids, gids, fill = _fuser(tables, weights, fusion)
    fused = np.empty((len(qids), len(gids)))
    return ScoreTable(list(qids), gids, fill(0, len(qids), fused, np.empty_like(fused)))


def ensemble(tables: list[ScoreTable], weights: list[float] | None = None,
             fusion: str = FUSION_SCORE_MEAN) -> list[RankedList]:
    """One full ranking per query by the scores of fuse."""
    fused = fuse(tables, weights, fusion)
    order = np.argsort(-fused.scores, axis=1, kind="stable")
    return [RankedList(qid, [fused.gallery_ids[j] for j in o], row[o].copy())
            for qid, row, o in zip(fused.query_ids, fused.scores, order)]


def read_relevance(path) -> dict[str, set[str]]:
    """CSV of query_id,gallery_id pairs -> query id to relevant-set map."""
    rel: dict[str, set[str]] = {}
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["query_id", "gallery_id"]:
            raise DataError(f"{path}: bad relevance header {header!r}")
        for rec in reader:
            if not rec:
                continue
            if len(rec) != 2:
                raise DataError(f"{path}:{reader.line_num}: expected 2 fields")
            rel.setdefault(rec[0], set()).add(rec[1])
    if not rel:
        raise DataError(f"{path}: no relevance pairs")
    return rel


def write_relevance(rel: dict[str, set[str]], path) -> None:
    write_csv(path, ["query_id", "gallery_id"],
              ([qid, gid] for qid in sorted(rel) for gid in sorted(rel[qid])))


def metrics_from_rankings(rankings: list[RankedList], relevance: dict[str, set[str]],
                          ks: list[int]) -> list[tuple[str, str, float]]:
    """Mean R@k per requested k plus mean AP, as (metric, k, value) rows.

    Rankings must be full-length (AP needs every relevant item's rank).
    """
    for ranked in rankings:
        if ranked.query_id not in relevance:
            raise UnknownQuery(f"query {ranked.query_id!r} missing from relevance map")
    rows: list[tuple[str, str, float]] = []
    for k in ks:
        mean = float(np.mean([
            recall_at_k(r, relevance[r.query_id], k) for r in rankings
        ]))
        rows.append(("recall", str(k), mean))
    mean_ap = float(np.mean([
        average_precision(r, relevance[r.query_id]) for r in rankings
    ]))
    rows.append(("ap", "", mean_ap))
    return rows


def _relevant_pairs(query_ids: list[str], gallery_ids: list[str],
                    relevance: dict[str, set[str]], ks: list[int]):
    """(query row, gallery column) of every relevant pair, rows ascending."""
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    if not query_ids:
        raise DataError("no queries to score")
    col = dict(zip(gallery_ids, range(len(gallery_ids))))
    pairs = []
    for i, qid in enumerate(query_ids):
        if qid not in relevance:
            raise UnknownQuery(f"query {qid!r} missing from relevance map")
        cols = [col.get(g, -1) for g in relevance[qid]]
        if not cols or -1 in cols:
            raise DataError(f"query {qid!r}: relevant set empty or not in gallery")
        pairs += [(i, c) for c in cols]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T  # unpacks as qrow, rcol


def _count_ranks(scores: np.ndarray, qrow: np.ndarray, rcol: np.ndarray,
                 out: np.ndarray) -> None:
    """out[i] = the rank of column rcol[i] in score row qrow[i], with qrow
    ascending: 1 + the scores above it + the equal ones in earlier columns.
    When every row holds exactly one pair, each row is compared with its
    pair's score in place, _SORT_VALUES scores at a time, and only rows
    holding another equal score count the equal ones in earlier columns.
    Any other block goes to _sorted_ranks."""
    if not np.array_equal(qrow, np.arange(len(scores))):
        return _sorted_ranks(scores, qrow, rcol, out)
    step = max(1, _SORT_VALUES // max(1, scores.shape[1]))
    pos = np.arange(scores.shape[1])
    for s in range(0, len(scores), step):
        block, c = scores[s:s + step], rcol[s:s + step, None]
        v = np.take_along_axis(block, c, axis=1)
        above = (block > v).sum(axis=1)
        out[s:s + step] = 1 + above
        tied = np.flatnonzero((block >= v).sum(axis=1) - above > 1)
        out[s + tied] += ((block[tied] == v[tied]) & (pos < c[tied])).sum(axis=1)


def _sorted_ranks(scores: np.ndarray, qrow: np.ndarray, rcol: np.ndarray,
                  out: np.ndarray) -> None:
    """_count_ranks by sorting each row once, _SORT_VALUES scores at a time
    in one reused copy: the scores above a pair's are those past its right
    insertion point, short of any NaN, and only when the insertion points
    show another equal score are the equal ones in earlier columns counted
    in the row itself."""
    rows, first = np.unique(qrow, return_index=True)
    v = scores[qrow, rcol]
    bounds = np.append(first, len(qrow))
    step = max(1, _SORT_VALUES // max(1, scores.shape[1]))
    buf = np.empty((min(step, len(rows)), scores.shape[1]), scores.dtype)
    for s in range(0, len(rows), step):  # mode "clip" fills buf; "raise" would copy first
        block = np.take(scores, rows[s:s + step], axis=0, out=buf[:len(rows) - s], mode="clip")
        block.sort(axis=1)
        for p0, p1, row in zip(bounds[s:], bounds[s + 1:], block):
            left, right = row.searchsorted(v[p0:p1], "left"), row.searchsorted(v[p0:p1], "right")
            out[p0:p1] = 1 + np.maximum(row.searchsorted(np.nan) - right, 0)
            for p in p0 + np.flatnonzero(right - left > 1):
                out[p] += np.count_nonzero(scores[qrow[p], :rcol[p]] == v[p])


def _scan_metrics(qrow: np.ndarray, rcol: np.ndarray, blocks: list[tuple[int, int]],
                  score_rows, ks: list[int]) -> list[tuple[str, str, float]]:
    """R@k per k and mean AP from the rank of each relevant pair (score row
    qrow[i], column rcol[i], qrow ascending), counted by _count_ranks block by
    block in the rows q0:q1 that score_rows(q0, q1) returns for each (q0, q1)
    of blocks, which cover every query row in order.  Every query row holds a
    pair, so a block is ranked in place iff each of its rows holds one."""
    rank = np.empty(len(qrow), dtype=np.int64)
    for q0, q1 in blocks:
        p0, p1 = np.searchsorted(qrow, [q0, q1])
        _count_ranks(score_rows(q0, q1), qrow[p0:p1] - q0, rcol[p0:p1], rank[p0:p1])
    rank = rank[np.lexsort((rank, qrow))]
    hit = np.arange(len(qrow)) - np.searchsorted(qrow, qrow)
    prec = np.zeros((blocks[-1][1], hit.max(initial=0) + 1))
    prec[qrow, hit] = (hit + 1) / rank  # summed in rank order, as average_precision does
    ap = np.cumsum(prec, axis=1)[:, -1] / np.bincount(qrow, minlength=len(prec))
    rows = [("recall", str(k), float(np.mean(rank[hit == 0] <= k))) for k in ks]
    return rows + [("ap", "", float(np.mean(ap)))]


def fused_metrics(tables: list[ScoreTable], relevance: dict[str, set[str]], ks: list[int],
                  weights: list[float] | None = None,
                  fusion: str = FUSION_SCORE_MEAN) -> list[tuple[str, str, float]]:
    """metrics_from_rankings(ensemble(tables, weights, fusion), relevance,
    ks), fused and ranked in equal query blocks of at most _block_rows(gallery
    size) rows in two reused buffers, so no dense fused table is built."""
    qids, gids, fill = _fuser(tables, weights, fusion)
    qrow, rcol = _relevant_pairs(qids, gids, relevance, ks)
    nq = len(qids)
    blocks = _equal_blocks(nq, _block_rows(len(gids)))
    out, term = np.empty((2, -(-nq // len(blocks)), len(gids)))  # the largest block's rows
    return _scan_metrics(qrow, rcol, blocks,
                         lambda q0, q1: fill(q0, q1, out[:q1 - q0], term[:q1 - q0]), ks)


def evaluate(queries: EmbeddingSet, gallery: EmbeddingSet,
             relevance: dict[str, set[str]], ks: list[int]) -> list[tuple[str, str, float]]:
    """metrics_from_rankings(top_k(gallery, queries, len(gallery.ids)),
    relevance, ks), scored in equal query blocks into one reused buffer;
    only the ranks are kept."""
    if gallery.dim != queries.dim:
        raise DimMismatch(f"gallery dim {gallery.dim} != query dim {queries.dim}")
    gids, gmat = _id_ordered(gallery)
    qrow, rcol = _relevant_pairs(queries.ids, gids, relevance, ks)
    nq = len(queries.ids)
    blocks = _equal_blocks(nq, max(DEFAULT_QUERY_BLOCK, _BLOCK_VALUES // max(1, len(gids))))
    buf = np.empty((-(-nq // len(blocks)), len(gids)),  # the largest block's rows
                   dtype=np.result_type(queries.matrix, gmat))
    return _scan_metrics(qrow, rcol, blocks, lambda q0, q1: np.matmul(
        queries.matrix[q0:q1], gmat.T, out=buf[:q1 - q0]), ks)


def write_metrics(rows: list[tuple[str, str, float]], path) -> None:
    write_csv(path, ["metric", "k", "value"],
              ([metric, k, repr(float(value))] for metric, k, value in rows))
