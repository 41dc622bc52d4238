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

R@K and AP come from the rank of each relevant item: 1 + the scores above
it + the equal ones in earlier (lower-id) columns.  table_metrics counts
ranks in a dense ScoreTable.  evaluate scores the queries in blocks of at
most max(DEFAULT_QUERY_BLOCK, 2**20 // gallery size) rows into one reused
buffer and keeps only each relevant pair's rank, so its memory is bounded
by that buffer: it grows with the gallery, not with the query count, and
for at most DEFAULT_QUERY_BLOCK queries the buffer is the whole table.
Both count ranks by gathering 2**20 scores at a time.  The queries are split into equal
blocks, sizes differing by at most 1, because the BLAS kernel can depend on
the block's row count: a lone 1-row block would go through gemv, whose
scores differ in the last bits from the dense product (and so did AP, at a
160 000 x 384 gallery), while blocks of 2 to 30 rows gave the dense
product's bits.  With equal blocks, each is at least half the row cap when
there are several, so a 1-row block comes only from a single query, whose
dense product is one row too.  At 160 000 x 384 gallery rows and 1 000
queries, evaluate's tracemalloc peak is 170 MB against 685 MB for the dense
table.

A rank is counted one of two ways, chosen per call by the relevant pairs
per query row (_count_ranks).  Below _SORT_FROM = 4 on average, each pair's
row is gathered and compared with its score: one pass over the row per
relevant item.  From 4 on, each row is sorted once and every relevant score
is found in it by binary search, so R relevant items cost one sort instead
of R passes.  Drone2Sat has one relevant item per query and Sat2Drone one
per drone view of the building (10 in the scale benchmark, 54 in
University-1652).  Microseconds per row, compare against sort (float32
rows, best of 5; 2-vCPU x86-64 VM, numpy 2.4.6):

    G = 1 000     R = 1: 4 vs 23    R = 3: 14 vs 25      R = 4: 18 vs 26
                  R = 5: 23 vs 29   R = 10: 47 vs 29     R = 54: 256 vs 40
    G = 10 000    R = 1: 32 vs 74   R = 3: 86 vs 86      R = 4: 115 vs 85
                  R = 10: 266 vs 90 R = 54: 1 461 vs 108
    G = 160 000   R = 1: 533 vs 1 270  R = 3: 1 420 vs 1 306  R = 4: 1 891 vs 1 297

The crossover is near 3 for large galleries and near 5 for small ones.
Both paths give the same ranks for any scores, ties, signed zeros and NaN
included.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import (
    DataError,
    DimMismatch,
    DimTooLarge,
    IdMismatch,
    NormDegenerate,
    UnknownQuery,
    open_text,
)

DEFAULT_GALLERY_BLOCK = 8192
DEFAULT_QUERY_BLOCK = 256
_BLOCK_VALUES = 1 << 20  # scores per rank gather; an evaluate block holds max(this, DEFAULT_QUERY_BLOCK rows)
_SORT_FROM = 4  # relevant pairs per score row from which _count_ranks sorts each row once


@dataclass
class EmbeddingSet:
    """Unique ids paired with unit-norm float32 rows."""

    ids: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.ids) != self.matrix.shape[0]:
            raise DataError("id count does not match embedding rows")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate ids in embedding set")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_rows(cls, ids: list[str], matrix: np.ndarray) -> "EmbeddingSet":
        return cls(list(ids), _renormalize(np.asarray(matrix, dtype=np.float32)))

    @classmethod
    def load(cls, path) -> "EmbeddingSet":
        ids, matrix = binio.read_embeddings(path)
        return cls(ids, _renormalize(matrix))

    def save(self, path) -> None:
        binio.write_embeddings(path, self.ids, self.matrix)


def _renormalize(matrix: np.ndarray) -> np.ndarray:
    """Rows divided by their float64 norms, rounded to float32.  Row chunks
    keep the float64 temporaries small; each row's result does not depend on
    the chunking."""
    out = np.empty(matrix.shape, dtype=np.float32)
    norms = np.empty((matrix.shape[0], 1))
    step = max(1, (1 << 18) // max(1, matrix.shape[1]))  # rows converted at once
    with np.errstate(divide="ignore", invalid="ignore"):  # bad rows are reported below
        for s in range(0, matrix.shape[0], step):
            rows = matrix[s:s + step].astype(np.float64)
            norms[s:s + step] = np.linalg.norm(rows, axis=1, keepdims=True)
            out[s:s + step] = rows / norms[s:s + step]
    if not np.isfinite(norms).all():
        row = int(np.argmin(np.isfinite(norms)))
        raise NormDegenerate(f"embedding row {row} is not finite")
    if matrix.shape[0] and norms.min() < 1e-12:
        row = int(np.argmin(norms))
        raise NormDegenerate(f"embedding row {row} has norm {norms.min():.3e}")
    return out


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
    among equal scores.
    """
    if gallery.dim != queries.dim:
        raise DimMismatch(f"gallery dim {gallery.dim} != query dim {queries.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    gids, gmat = _id_ordered(gallery)

    qmat = queries.matrix
    blocks = [(s, min(s + query_block, qmat.shape[0]))
              for s in range(0, qmat.shape[0], query_block)]

    def run(span):
        return _topk_query_block(qmat[span[0]:span[1]], gmat, k, gallery_block)

    if workers <= 1 or len(blocks) <= 1:
        parts = [run(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # not imported on every CLI start

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))

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
    return EmbeddingSet(list(embeddings.ids), _renormalize(embeddings.matrix[:, :d]))


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
        with open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "query_id":
                raise DataError(f"{path}: bad score table header")
            gallery_ids = header[1:]
            query_ids = []
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    rows.append(np.fromiter(map(float, rec[1:]), np.float64, len(gallery_ids)))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: score is not a number") from None
                if not np.isfinite(rows[-1]).all():
                    raise DataError(f"{path}:{lineno}: score is not finite")
                query_ids.append(rec[0])
        if not query_ids or not gallery_ids:
            raise DataError(f"{path}: no query rows or no gallery columns")
        if len(set(query_ids)) < len(query_ids) or len(set(gallery_ids)) < len(gallery_ids):
            raise DataError(f"{path}: duplicate query or gallery ids")
        return cls(query_ids, gallery_ids, np.stack(rows))


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


def fuse(tables: list[ScoreTable], weights: list[float] | None = None,
         fusion: str = FUSION_SCORE_MEAN) -> ScoreTable:
    """Fuse per-model score tables into one, gallery columns in id order.

    score-mean averages the raw scores (weighted); reciprocal-rank sums
    w/(60+rank).  All tables must cover identical query and gallery id
    sets; columns and rows are aligned by id before fusing.
    """
    if len(tables) < 1:
        raise ValueError("need at least one score table")
    if weights is None:
        weights = [1.0] * len(tables)
    if len(weights) != len(tables):
        raise DataError(f"{len(weights)} weights for {len(tables)} tables")
    if not np.isfinite(weights).all():
        raise DataError(f"weights must be finite, got {weights}")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise DataError("weights must sum to a positive value")
    base = tables[0]
    gorder = sorted(range(len(base.gallery_ids)), key=base.gallery_ids.__getitem__)
    gids = [base.gallery_ids[i] for i in gorder]
    qids = base.query_ids
    fused = np.zeros((len(qids), len(gids)))
    term = np.empty_like(fused)
    for tab, w in zip(tables, weights):
        if sorted(tab.query_ids) != sorted(qids) or sorted(tab.gallery_ids) != sorted(gids):
            raise IdMismatch("score tables cover different query/gallery ids")
        aligned = tab.scores
        if tab.query_ids != qids or tab.gallery_ids != gids:
            qpos = {q: i for i, q in enumerate(tab.query_ids)}
            gpos = {g: j for j, g in enumerate(tab.gallery_ids)}
            aligned = aligned[np.ix_([qpos[q] for q in qids], [gpos[g] for g in gids])]
        if fusion == FUSION_SCORE_MEAN:
            np.multiply(w / wsum, aligned, out=term)
        elif fusion == FUSION_RECIPROCAL_RANK:
            np.divide(w, np.add(_RRF_OFFSET, _rank_matrix(aligned), out=term), out=term)
        else:
            raise ValueError(f"unknown fusion {fusion!r}")
        fused += term
    return ScoreTable(list(qids), gids, fused)


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
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 fields")
            rel.setdefault(rec[0], set()).add(rec[1])
    if not rel:
        raise DataError(f"{path}: no relevance pairs")
    return rel


def write_relevance(rel: dict[str, set[str]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "gallery_id"])
        for qid in sorted(rel):
            for gid in sorted(rel[qid]):
                writer.writerow([qid, gid])


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
    qrow, rcol = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return qrow, rcol


def _count_ranks(scores: np.ndarray, qrow: np.ndarray, rcol: np.ndarray,
                 out: np.ndarray) -> None:
    """out[i] = the rank of column rcol[i] in score row qrow[i], with qrow
    ascending: 1 + the scores above it + the equal ones in earlier columns.

    With fewer than _SORT_FROM pairs a row on average, the rows are gathered
    _BLOCK_VALUES scores at a time, one row per pair, and compared with the
    pair's score.  Otherwise each row is sorted once, _BLOCK_VALUES scores at
    a time, and each of its pairs' scores is found in it by binary search:
    the scores above it are those past its right insertion point (short of
    any NaN, which is neither above nor equal), and only when the two
    insertion points show another equal score are the equal ones in earlier
    columns counted in the row itself."""
    step = max(1, _BLOCK_VALUES // max(1, scores.shape[1]))
    rows, first = np.unique(qrow, return_index=True)
    if len(qrow) < _SORT_FROM * len(rows):
        pos = np.arange(scores.shape[1])
        for s in range(0, len(qrow), step):
            block, c = scores[qrow[s:s + step]], rcol[s:s + step, None]
            v = np.take_along_axis(block, c, axis=1)
            out[s:s + step] = 1 + ((block > v) | (block == v) & (pos < c)).sum(axis=1)
        return
    v = scores[qrow, rcol]
    bounds = np.append(first, len(qrow))
    for s in range(0, len(rows), step):
        block = scores[rows[s:s + step]]
        block.sort(axis=1)
        for p0, p1, row in zip(bounds[s:], bounds[s + 1:], block):
            left, right = row.searchsorted(v[p0:p1], "left"), row.searchsorted(v[p0:p1], "right")
            out[p0:p1] = 1 + np.maximum(row.searchsorted(np.nan) - right, 0)
            for p in p0 + np.flatnonzero(right - left > 1):
                out[p] += np.count_nonzero(scores[qrow[p], :rcol[p]] == v[p])


def _rank_metrics(qrow: np.ndarray, rank: np.ndarray, n_queries: int,
                  ks: list[int]) -> list[tuple[str, str, float]]:
    """R@k per k and mean AP from each relevant pair's rank."""
    rank = rank[np.lexsort((rank, qrow))]
    hit = np.arange(len(qrow)) - np.searchsorted(qrow, qrow)
    prec = np.zeros((n_queries, hit.max(initial=0) + 1))
    prec[qrow, hit] = (hit + 1) / rank  # summed in rank order, as average_precision does
    ap = np.cumsum(prec, axis=1)[:, -1] / np.bincount(qrow, minlength=len(prec))
    rows = [("recall", str(k), float(np.mean(rank[hit == 0] <= k))) for k in ks]
    return rows + [("ap", "", float(np.mean(ap)))]


def table_metrics(table: ScoreTable, relevance: dict[str, set[str]],
                  ks: list[int]) -> list[tuple[str, str, float]]:
    """metrics_from_rankings' rows from the rank of each relevant item: 1 +
    the items scoring higher + the equal-scoring ones in earlier columns, which
    is top_k's tie rule when gallery columns are in ascending id order."""
    qrow, rcol = _relevant_pairs(table.query_ids, table.gallery_ids, relevance, ks)
    rank = np.empty(len(qrow), dtype=np.int64)
    _count_ranks(table.scores, qrow, rcol, rank)
    return _rank_metrics(qrow, rank, len(table.query_ids), ks)


def evaluate(queries: EmbeddingSet, gallery: EmbeddingSet,
             relevance: dict[str, set[str]], ks: list[int]) -> list[tuple[str, str, float]]:
    """table_metrics(score_table(gallery, queries), relevance, ks), scored in
    equal query blocks into one reused buffer; only the ranks are kept."""
    if gallery.dim != queries.dim:
        raise DimMismatch(f"gallery dim {gallery.dim} != query dim {queries.dim}")
    gids, gmat = _id_ordered(gallery)
    qrow, rcol = _relevant_pairs(queries.ids, gids, relevance, ks)
    nq = len(queries.ids)
    n_blocks = -(-nq // max(DEFAULT_QUERY_BLOCK, _BLOCK_VALUES // max(1, len(gids))))
    edges = [b * nq // n_blocks for b in range(n_blocks + 1)]  # sizes differ by at most 1
    buf = np.empty((-(-nq // n_blocks), len(gids)),
                   dtype=np.result_type(queries.matrix, gmat))
    rank = np.empty(len(qrow), dtype=np.int64)
    for q0, q1 in zip(edges, edges[1:]):
        p0, p1 = np.searchsorted(qrow, [q0, q1])
        scores = np.matmul(queries.matrix[q0:q1], gmat.T, out=buf[:q1 - q0])
        _count_ranks(scores, qrow[p0:p1] - q0, rcol[p0:p1], rank[p0:p1])
    return _rank_metrics(qrow, rank, nq, ks)


def write_metrics(rows: list[tuple[str, str, float]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "k", "value"])
        for metric, k, value in rows:
            writer.writerow([metric, k, repr(float(value))])
