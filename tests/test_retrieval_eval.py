"""Retrieval tests: blocked exact top-k against an exhaustive oracle,
metric hand values, score tables, and ensemble fusion.

Cross-blocking equality cases use embeddings drawn from the dyadic grid
i/64 with dim <= 16: every product is a multiple of 1/4096 and partial
sums stay below 2^24 quanta, so float32 and float64 accumulate the same
exact values in any order.  Results are then independent of block size,
thread count, and BLAS kernel, and ties are exact rather than ulp-close.
"""

import ctypes
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skyalign import ablations, binio, retrieval_eval
from skyalign.errors import (
    DataError,
    DimMismatch,
    DimTooLarge,
    IdMismatch,
    NormDegenerate,
    UnknownQuery,
)
from skyalign.retrieval_eval import (
    EmbeddingSet,
    _id_ordered,
    _renormalize,
    RankedList,
    ScoreTable,
    average_precision,
    ensemble,
    evaluate,
    fuse,
    fused_metrics,
    metrics_from_rankings,
    read_relevance,
    recall_at_k,
    score_table,
    top_k,
    truncate_dim,
    write_metrics,
    write_relevance,
)

from oracles import (
    compare_count_ranks,
    csv_writer_save,
    dense_evaluate,
    dense_table_metrics,
    naive_average_precision,
    naive_recall_at_k,
    naive_topk,
    whole_block_topk,
)


def dyadic_set(rng, n, dim, prefix):
    """Embeddings on the exact grid i/64, i in [-64, 64], no zero rows."""
    grid = rng.integers(-64, 65, size=(n, dim))
    zero = ~grid.any(axis=1)
    grid[zero, 0] = 1
    ids = [f"{prefix}{i:04d}" for i in range(n)]
    return EmbeddingSet(ids, (grid / 64.0).astype(np.float32))


def one_shot_reference(m):
    """_renormalize's reference: every row at once in float64."""
    return (m / np.linalg.norm(m.astype(np.float64), axis=1, keepdims=True)).astype(np.float32)


def ranking_tuples(ranked):
    return [(r.gallery_ids, [float(s) for s in r.scores]) for r in ranked]


class TestEmbeddingSet:
    def test_from_rows_renormalizes(self):
        rows = np.array([[3.0, 4.0], [0.0, 2.0]])
        es = EmbeddingSet.from_rows(["a", "b"], rows)
        np.testing.assert_allclose(np.linalg.norm(es.matrix, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(es.matrix[0], [0.6, 0.8], atol=1e-6)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(["a", "a"], np.eye(2, dtype=np.float32))

    def test_unsorted_duplicate_ids_rejected_naming_first_repeat(self):
        # not ascending, so the set check runs; "c" repeats before "a" does
        with pytest.raises(DataError, match="^duplicate id 'c' in embedding set$"):
            EmbeddingSet(["c", "a", "b", "c", "a"], np.eye(5, dtype=np.float32))
        assert EmbeddingSet(["c", "a", "b"], np.eye(3, dtype=np.float32)).ids == ["c", "a", "b"]
        with pytest.raises(DataError, match="^duplicate id 'a'"):  # ids are checked before rows
            EmbeddingSet.from_rows(["a", "a"], np.zeros((2, 3)))

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            EmbeddingSet(["a"], np.eye(2, dtype=np.float32))

    def test_zero_row_rejected(self):
        with pytest.raises(NormDegenerate):
            EmbeddingSet.from_rows(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        es = EmbeddingSet.from_rows(["q1", "q2", "q3"], rng.normal(size=(3, 5)))
        path = tmp_path / "emb.bin"
        es.save(path)
        back = EmbeddingSet.load(path)
        assert back.ids == es.ids
        np.testing.assert_array_equal(back.matrix, es.matrix)

    def test_load_renormalizes_scaled_rows(self, tmp_path):
        path = tmp_path / "emb.bin"
        binio.write_embeddings(path, ["a"], np.array([[6.0, 8.0]], dtype=np.float32))
        es = EmbeddingSet.load(path)
        np.testing.assert_allclose(es.matrix[0], [0.6, 0.8], atol=1e-6)

    def test_renormalize_in_chunks_equals_one_shot(self):
        # 3000 x 300 spans several of _renormalize's row chunks
        rng = np.random.default_rng(13)
        m = (rng.standard_normal((3000, 300)) * rng.uniform(0.1, 10, (3000, 1))).astype(np.float32)
        assert _renormalize(m).tobytes() == one_shot_reference(m).tobytes()
        m[2500] = 0.0
        with pytest.raises(NormDegenerate, match="row 2500 has norm"):
            _renormalize(m)
        m[2999, 7] = np.inf  # non-finite is reported before a zero norm
        with pytest.raises(NormDegenerate, match="row 2999 is not finite"):
            _renormalize(m)

    def test_owned_rows_normalized_in_place_with_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((700, 33)) * rng.uniform(0.1, 10, (700, 1))
        ref = _renormalize(m.astype(np.float32))
        rows = m.astype(np.float32)
        assert _renormalize(rows, out=rows) is rows
        assert rows.tobytes() == ref.tobytes()
        assert EmbeddingSet.from_rows(range(700), m).matrix.tobytes() == ref.tobytes()
        path = tmp_path / "emb.bin"
        binio.write_embeddings(path, [str(i) for i in range(700)], m.astype(np.float32))
        assert EmbeddingSet.load(path).matrix.tobytes() == ref.tobytes()

    def test_from_rows_leaves_callers_float32_rows_unchanged(self):
        rows = np.random.default_rng(16).standard_normal((50, 8)).astype(np.float32) * 3
        before = rows.copy()
        es = EmbeddingSet.from_rows(range(50), rows)
        assert rows.tobytes() == before.tobytes()
        assert es.matrix.tobytes() == _renormalize(before).tobytes()
        view = rows[::2, 1:]  # a float32 view is not the caller's to write either
        EmbeddingSet.from_rows(range(25), view)
        assert rows.tobytes() == before.tobytes()

    def test_load_peak_is_about_one_matrix(self, tmp_path):
        n, dim = 20_000, 384
        path = tmp_path / "emb.bin"
        rows = np.random.default_rng(17).standard_normal((n, dim)).astype(np.float32)
        binio.write_embeddings(path, [f"v{i:05d}" for i in range(n)], rows)
        del rows
        tracemalloc.start()
        try:
            es = EmbeddingSet.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert es.matrix.shape == (n, dim)
        assert peak < 1.5 * es.matrix.nbytes  # a second matrix would make it 2

    def test_renormalize_strided_views_equal_contiguous_copies(self):
        # truncate_dim hands _renormalize a column slice without copying it
        rng = np.random.default_rng(14)
        for _ in range(300):
            n, dim = int(rng.integers(1, 400)), int(rng.integers(1, 1_500))
            m = rng.standard_normal((n, dim)).astype(np.float32) + 0.5
            view = m[::int(rng.integers(1, 4)), :int(rng.integers(1, dim + 1)):int(rng.integers(1, 3))]
            assert _renormalize(view).tobytes() == \
                _renormalize(np.ascontiguousarray(view)).tobytes()


class TestThreadedRenormalize:
    """Sets of 2 * 2**22 values, which _renormalize splits over two threads
    when at least two CPUs are usable (the four_cpus fixture claims four)."""

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(retrieval_eval.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(18)
        return (rng.standard_normal((1 << 17, 128)) * rng.uniform(0.1, 10, ((1 << 17), 1))
                ).astype(np.float32)

    def shares(self, monkeypatch, m):
        """{True: the caller's chunk starts, False: the helper's}."""
        seen = {}
        real = retrieval_eval._normalize_chunks

        def spy(matrix, out, norms, starts, scratch):
            seen[threading.current_thread() is threading.main_thread()] = starts
            real(matrix, out, norms, starts, scratch)

        monkeypatch.setattr(retrieval_eval, "_normalize_chunks", spy)
        _renormalize(m)
        monkeypatch.setattr(retrieval_eval, "_normalize_chunks", real)
        return seen

    def test_contiguous_and_strided_equal_one_shot(self, four_cpus, rows, monkeypatch):
        for m in (np.ascontiguousarray(rows[:, :64]), rows[:, ::2], rows[::2]):
            assert m.size >= 2 << 22
            assert set(self.shares(monkeypatch, m)) == {True, False}
            assert _renormalize(m).tobytes() == one_shot_reference(m).tobytes()

    def test_lowest_bad_row_reported_non_finite_first(self, four_cpus, rows, monkeypatch):
        m = np.ascontiguousarray(rows[:, :64])
        share = self.shares(monkeypatch, m)
        helper = share[False][0] + 1  # a row of the helper's first chunk
        caller = next(s for s in share[True] if s > helper) + 3  # a later row of the caller's
        m[[helper, caller]] = 0.0
        with pytest.raises(NormDegenerate, match=f"^embedding row {helper} has norm 0.000e"):
            _renormalize(m)
        m[caller + 1, 5] = np.nan
        with pytest.raises(NormDegenerate, match=f"^embedding row {caller + 1} is not finite$"):
            _renormalize(m)
        m[helper + 2, 0] = -np.inf
        with pytest.raises(NormDegenerate, match=f"^embedding row {helper + 2} is not finite$"):
            _renormalize(m)

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_helper_exception_reaches_caller_and_no_thread_is_left(
            self, four_cpus, rows, monkeypatch, error):
        real = retrieval_eval._normalize_chunks

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error("helper failed")
            real(*args)

        monkeypatch.setattr(retrieval_eval, "_normalize_chunks", failing)
        before = threading.active_count()
        with pytest.raises(error, match="helper failed"):
            _renormalize(rows[:, :64])
        assert threading.active_count() == before

    def test_more_threads_than_cores_give_one_threads_bytes(self, rows, monkeypatch):
        # 2**24 values: four threads under a short switch interval
        monkeypatch.setattr(retrieval_eval.os, "sched_getaffinity", lambda pid: {0})
        ref = _renormalize(rows)
        monkeypatch.setattr(retrieval_eval.os, "sched_getaffinity", lambda pid: set(range(8)))
        started = []
        real_thread = threading.Thread

        def counted(*args, **kwargs):
            started.append(real_thread(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(retrieval_eval.threading, "Thread", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _renormalize(rows)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 3 and not any(t.is_alive() for t in started)
        assert out.tobytes() == ref.tobytes()

    def test_one_usable_cpu_starts_no_thread(self, rows, monkeypatch):
        m = rows[:, :64]
        ref = one_shot_reference(m)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(retrieval_eval.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(retrieval_eval.threading, "Thread", no_thread)
        assert _renormalize(m).tobytes() == ref.tobytes()


class TestMapThreads:
    def test_first_error_in_item_order_after_every_call_ends(self):
        ended = []
        slow_started = threading.Event()

        def call(item):
            if item == 0:  # fails while item 1 still runs
                slow_started.wait(5)
                raise ValueError("item 0")
            if item == 1:
                slow_started.set()
                time.sleep(0.2)
            elif item == 2:
                raise KeyError("item 2")
            ended.append(item)
            return item

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 0"):
            retrieval_eval._map_threads(call, [0, 1, 2, 3], 3)
        assert 1 in ended and threading.active_count() == before

    def test_results_in_item_order(self):
        assert retrieval_eval._map_threads(lambda i: i * i, [3, 1, 2], 2) == [9, 1, 4]
        assert retrieval_eval._map_threads(lambda i: i * i, [3, 1, 2], 1) == [9, 1, 4]
        assert retrieval_eval._map_threads(lambda i: i, [], 4) == []

    def test_top_k_workers_give_one_workers_bytes(self):
        rng = np.random.default_rng(23)
        gallery = EmbeddingSet.from_rows([f"g{i:04d}" for i in range(700)],
                                         rng.standard_normal((700, 48)))
        queries = EmbeddingSet.from_rows([f"q{i:03d}" for i in range(90)],
                                         rng.standard_normal((90, 48)))

        def run(workers):  # five or more query blocks of at most 16 rows
            ranked = top_k(gallery, queries, 7, gallery_block=128, query_block=16,
                           workers=workers)
            return [(r.query_id, r.gallery_ids, r.scores.tobytes()) for r in ranked]

        assert len(retrieval_eval._equal_blocks(90, 16)) >= 5
        ref = run(1)
        for workers in (2, 3):
            assert run(workers) == ref


class TestTopKExactness:
    def test_matches_oracle_across_blocks_and_workers(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n_g = int(rng.integers(5, 120))
            n_q = int(rng.integers(1, 30))
            dim = int(rng.integers(2, 17))
            k = int(rng.integers(1, n_g + 1))
            gallery = dyadic_set(rng, n_g, dim, "g")
            queries = dyadic_set(rng, n_q, dim, "q")
            expected = [
                naive_topk(gallery.ids, [list(map(float, r)) for r in gallery.matrix],
                           list(map(float, queries.matrix[i])), k)
                for i in range(n_q)
            ]
            for gallery_block in (1, 7, 64, 4096):
                for workers in (1, 4):
                    got = top_k(gallery, queries, k, gallery_block=gallery_block,
                                query_block=8, workers=workers)
                    for r, exp in zip(got, expected):
                        assert r.gallery_ids == [gid for gid, _ in exp]
                        assert [float(s) for s in r.scores] == [s for _, s in exp]

    def test_blockings_agree_bit_for_bit(self):
        rng = np.random.default_rng(7)
        gallery = dyadic_set(rng, 200, 12, "g")
        queries = dyadic_set(rng, 40, 12, "q")
        reference = ranking_tuples(top_k(gallery, queries, 10))
        for gallery_block in (1, 7, 64, 4096):
            for query_block in (1, 16, 1024):
                for workers in (1, 4):
                    got = top_k(gallery, queries, 10, gallery_block=gallery_block,
                                query_block=query_block, workers=workers)
                    assert ranking_tuples(got) == reference

    def test_exact_ties_break_by_ascending_id(self):
        # three identical gallery rows; ranks must come back in id order
        row = np.array([0.5, 0.25, 0.0], dtype=np.float32)
        gallery = EmbeddingSet(["g2", "g0", "g1"], np.vstack([row, row, row]))
        queries = EmbeddingSet(["q"], row[None, :])
        got = top_k(gallery, queries, 3, gallery_block=1)
        assert got[0].gallery_ids == ["g0", "g1", "g2"]
        assert len(set(map(float, got[0].scores))) == 1

    def test_tie_straddling_block_boundary(self):
        # equal-score columns land in different gallery blocks; the merge
        # must still prefer the smaller id even though it arrives later
        rows = np.array([
            [1.0, 0.0],    # g0, score 0.5
            [0.0, 1.0],    # g1, score 0.25
            [1.0, 0.0],    # g2, score 0.5 (ties g0)
        ], dtype=np.float32)
        gallery = EmbeddingSet(["g0", "g1", "g2"], rows)
        queries = EmbeddingSet(["q"], np.array([[0.5, 0.25]], dtype=np.float32))
        for gallery_block in (1, 2):
            got = top_k(gallery, queries, 2, gallery_block=gallery_block)
            assert got[0].gallery_ids == ["g0", "g2"]

    def test_k_of_one_and_full_sort(self):
        rng = np.random.default_rng(3)
        gallery = dyadic_set(rng, 30, 8, "g")
        queries = dyadic_set(rng, 5, 8, "q")
        full = top_k(gallery, queries, 30)
        one = top_k(gallery, queries, 1)
        for f, o in zip(full, one):
            assert o.gallery_ids == f.gallery_ids[:1]
            assert list(f.scores) == sorted(f.scores, reverse=True)
            assert len(f.gallery_ids) == 30

    def test_k_larger_than_gallery_returns_everything(self):
        rng = np.random.default_rng(4)
        gallery = dyadic_set(rng, 6, 4, "g")
        queries = dyadic_set(rng, 2, 4, "q")
        got = top_k(gallery, queries, 50)
        for r in got:
            assert sorted(r.gallery_ids) == sorted(gallery.ids)

    def test_self_retrieval(self):
        mat = np.eye(12, dtype=np.float32)
        ids = [f"v{i:02d}" for i in range(12)]
        es = EmbeddingSet(ids, mat)
        got = top_k(es, es, 1)
        assert [r.gallery_ids[0] for r in got] == ids

    def test_dim_mismatch_rejected(self):
        a = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        b = EmbeddingSet(["b"], np.ones((1, 4), dtype=np.float32))
        with pytest.raises(DimMismatch):
            top_k(a, b, 1)

    def test_bad_k_rejected(self):
        es = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            top_k(es, es, 0)

    def test_partition_and_tie_fallback_share_a_block(self, monkeypatch):
        # queries that copy a twelve-fold gallery row have more equal k-th
        # scores than k, so the exact rule must pick among them; the random
        # queries do not, and keep the argpartition pick
        rng = np.random.default_rng(5)
        n_g, dim, k = 120, 6, 5
        grid = rng.integers(-64, 65, size=(n_g, dim))
        templates = rng.integers(-2, 3, size=(3, dim)) * 32
        templates[~templates.any(axis=1), 0] = 64
        grid[:36] = np.repeat(templates, 12, axis=0)
        rows = (grid / 64.0).astype(np.float32)
        perm = rng.permutation(n_g)
        gallery = EmbeddingSet([f"g{i:04d}" for i in perm], rows)  # ids not in row order
        qrows = np.vstack([rows[:36:12], dyadic_set(rng, 9, dim, "q").matrix])
        queries = EmbeddingSet([f"q{i:02d}" for i in range(len(qrows))], qrows)
        expected = [naive_topk(gallery.ids, [list(map(float, r)) for r in gallery.matrix],
                               list(map(float, q)), k) for q in queries.matrix]

        tied_rows = []
        exact = retrieval_eval._exact_candidates

        def counting(scores, kth, k):
            tied_rows.append(scores.shape[0])
            return exact(scores, kth, k)

        monkeypatch.setattr(retrieval_eval, "_exact_candidates", counting)
        for gallery_block in (1, 7, 64, 4096):
            tied_rows.clear()
            got = top_k(gallery, queries, k, gallery_block=gallery_block, query_block=64)
            for r, exp in zip(got, expected):
                assert r.gallery_ids == [gid for gid, _ in exp]
                assert [float(s) for s in r.scores] == [s for _, s in exp]
            if gallery_block == 4096:  # one block holds every row
                assert 3 <= sum(tied_rows) < len(qrows)

    @pytest.mark.parametrize("n_queries", [257, 513])
    def test_scores_keep_the_dense_products_bits(self, n_queries):
        # 257 and 513 rows over blocks of at most 256: a lone 1-row block
        # would go through gemv, whose scores differ in the last bits
        rng = np.random.default_rng(0)
        gallery = EmbeddingSet.from_rows([f"g{i:04d}" for i in range(5000)],
                                         rng.standard_normal((5000, 64)))
        queries = EmbeddingSet.from_rows([f"q{i:03d}" for i in range(n_queries)],
                                         rng.standard_normal((n_queries, 64)))
        dense = score_table(gallery, queries)
        column = {gid: j for j, gid in enumerate(dense.gallery_ids)}
        for ranked, row in zip(top_k(gallery, queries, 10), dense.scores):
            assert ranked.scores.tobytes() == \
                row[[column[gid] for gid in ranked.gallery_ids]].tobytes()

    def test_sorted_ids_skip_the_copy_and_match_shuffled_ids(self):
        rng = np.random.default_rng(9)
        in_order = dyadic_set(rng, 150, 8, "g")  # ids ascend with the rows
        perm = rng.permutation(150)
        shuffled = EmbeddingSet([in_order.ids[i] for i in perm], in_order.matrix[perm])
        queries = dyadic_set(rng, 20, 8, "q")
        gids, gmat = _id_ordered(in_order)
        assert gids == in_order.ids and np.shares_memory(gmat, in_order.matrix)
        for gallery_block in (7, 4096):
            a = top_k(in_order, queries, 10, gallery_block=gallery_block)
            b = top_k(shuffled, queries, 10, gallery_block=gallery_block)
            assert [r.gallery_ids for r in a] == [r.gallery_ids for r in b]
            assert [r.scores.tobytes() for r in a] == [r.scores.tobytes() for r in b]
        ta, tb = score_table(in_order, queries), score_table(shuffled, queries)
        assert ta.gallery_ids == tb.gallery_ids and ta.scores.tobytes() == tb.scores.tobytes()


def eighths(ids, rows):
    """An embedding set of small-integer rows scaled by 1/8: exact scores."""
    return EmbeddingSet(list(ids), (np.asarray(rows, dtype=float) / 8).astype(np.float32))


def assert_exact(gallery, queries, k, gallery_block, **kw):
    """top_k equals the exhaustive oracle and, bit for bit, the unfiltered
    block selection (which calls the helpers block_paths does not count)."""
    got = top_k(gallery, queries, k, gallery_block=gallery_block, **kw)
    for r, q in zip(got, queries.matrix):
        exp = naive_topk(gallery.ids, [list(map(float, g)) for g in gallery.matrix],
                         list(map(float, q)), k)
        assert r.gallery_ids == [gid for gid, _ in exp]
        assert [float(s) for s in r.scores] == [s for _, s in exp]
    assert [(r.gallery_ids, r.scores.tobytes()) for r in got] == \
        whole_block_topk(gallery, queries, k, gallery_block)
    return got


@pytest.fixture
def block_paths(monkeypatch):
    """Calls of each selection path: 'whole' blocks through
    _block_candidates, 'hits' blocks merged from their threshold hits."""
    calls = {"whole": [], "hits": []}
    whole, hits = retrieval_eval._block_candidates, retrieval_eval._hit_candidates

    def count_whole(*args):
        calls["whole"].append(1)  # list.append is atomic across worker threads
        return whole(*args)

    def count_hits(*args):
        calls["hits"].append(1)
        return hits(*args)

    monkeypatch.setattr(retrieval_eval, "_block_candidates", count_whole)
    monkeypatch.setattr(retrieval_eval, "_hit_candidates", count_hits)
    return calls


@pytest.mark.parametrize("workers", [1, 4])
class TestThresholdFilter:
    """After a query block's running list holds k entries, later gallery
    blocks are reduced to the scores strictly above each row's k-th."""

    def test_scores_equal_to_the_kth_do_not_enter(self, block_paths, workers):
        # q0 scores the first coordinate, q1 the second; after block 0 both
        # rows' k-th is 1/8, and blocks 1-2 reach it but never pass it
        a = [4, 1, 3, 1, 1, 1, 0, 1, 1, 0, 1, 1]
        b = [1, 3, 3, 0, 1, 0, 1, 1, 0, 0, 1, 0]
        gallery = eighths([f"g{i:02d}" for i in range(12)], list(zip(a, b)))
        queries = eighths(["q0", "q1"], [[1, 0], [0, 1]])
        got = assert_exact(gallery, queries, 3, 4, query_block=1, workers=workers)
        assert [r.gallery_ids for r in got] == [["g00", "g02", "g01"], ["g01", "g02", "g00"]]
        assert len(block_paths["whole"]) == 2 and not block_paths["hits"]

    def test_row_with_more_than_k_hits_in_a_late_block(self, block_paths, workers):
        # block 2 gives the last query five hits, four of them tied at 2/8,
        # of which only the two smallest ids fit; the other rows get none
        a = [1, 1, 1, 0, 0, 0] + [0] * 6 + [2, 3, 2, 2, 0, 2]
        b = [1, 1, 1, 1, 0, 0] + [0] * 12
        gallery = eighths([f"g{i:02d}" for i in range(18)], list(zip(a, b)))
        queries = eighths([f"q{i}" for i in range(4)], [[0, 1]] * 3 + [[1, 0]])
        got = assert_exact(gallery, queries, 3, 6, workers=workers)
        assert got[3].gallery_ids == ["g13", "g12", "g14"]
        assert len(block_paths["whole"]) == 1 and len(block_paths["hits"]) == 1

    @pytest.mark.parametrize("quiet_lead", [False, True])
    def test_rising_scores_take_the_whole_block_path(self, block_paths, workers, quiet_lead):
        # scores rise with gallery id, so every block passes the k-th of
        # every row; with quiet_lead the first rows tie at 0 and only the
        # count over all rows sees the overflow
        gallery = eighths([f"g{i:02d}" for i in range(48)], [[i + 1, 0] for i in range(48)])
        qrows = [[1, 0]] * 16
        if quiet_lead:
            qrows[:2] = [[0, 1]] * 2
        queries = eighths([f"q{i:02d}" for i in range(16)], qrows)
        assert_exact(gallery, queries, 2, 8, workers=workers)
        assert len(block_paths["whole"]) == 6 and not block_paths["hits"]

    @pytest.mark.parametrize("k,gallery_block", [(5, 1), (5, 2), (50, 7), (61, 4096)])
    def test_short_blocks_and_k_beyond_the_gallery(self, block_paths, workers, k, gallery_block):
        rng = np.random.default_rng(11)
        gallery = eighths([f"g{i:02d}" for i in rng.permutation(60)],
                          rng.integers(-2, 3, size=(60, 3)))
        queries = eighths([f"q{i:02d}" for i in range(9)], rng.integers(-2, 3, size=(9, 3)))
        assert_exact(gallery, queries, k, gallery_block, query_block=4, workers=workers)
        n_blocks = -(-60 // gallery_block)
        if k > 60:  # the running list never fills, so no block is filtered
            assert len(block_paths["whole"]) == 3 * n_blocks and not block_paths["hits"]
        else:  # each of the 3 query blocks fills after ceil(k / gallery_block) blocks
            assert len(block_paths["whole"]) == 3 * -(-k // gallery_block)
            assert block_paths["hits"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_threshold_filter_matches_oracle_on_tie_heavy_galleries(data):
    n_g = data.draw(st.integers(1, 40), "n_g")
    n_q = data.draw(st.integers(1, 8), "n_q")
    dim = data.draw(st.integers(1, 3), "dim")
    cells = st.integers(-2, 2)
    grows = data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                               min_size=n_g, max_size=n_g), "gallery")
    qrows = data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                               min_size=n_q, max_size=n_q), "queries")
    order = data.draw(st.permutations(range(n_g)), "gallery ids")
    gallery = eighths([f"g{i:02d}" for i in order], grows)
    queries = eighths([f"q{i}" for i in range(n_q)], qrows)
    assert_exact(gallery, queries, data.draw(st.integers(1, 12), "k"),
                 data.draw(st.integers(1, 16), "gallery_block"),
                 query_block=data.draw(st.integers(1, 8), "query_block"))


def ranked(ids, scores=None):
    if scores is None:
        scores = np.linspace(1.0, 0.0, num=len(ids))
    return RankedList("q", list(ids), np.asarray(scores, dtype=float))


class TestMetrics:
    def test_recall_rank_six(self):
        r = ranked([f"g{i}" for i in range(10)])
        assert recall_at_k(r, {"g5"}, 5) == 0.0   # relevant sits at rank 6
        assert recall_at_k(r, {"g5"}, 10) == 1.0

    def test_recall_rank_one(self):
        r = ranked(["hit", "x", "y"])
        assert recall_at_k(r, {"hit"}, 1) == 1.0

    def test_recall_bad_k(self):
        with pytest.raises(ValueError):
            recall_at_k(ranked(["a"]), {"a"}, 0)

    def test_ap_single_relevant_rank_three(self):
        r = ranked(["a", "b", "c", "d"])
        assert average_precision(r, {"c"}) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ap_perfect_prefix(self):
        r = ranked(["a", "b", "c", "d"])
        assert average_precision(r, {"a", "b"}) == 1.0

    def test_ap_ranks_two_and_five(self):
        # (1/2 + 2/5) / 2 = 0.45
        r = ranked(["x1", "r1", "x2", "x3", "r2"])
        assert average_precision(r, {"r1", "r2"}) == pytest.approx(0.45, abs=1e-15)

    def test_ap_empty_relevant_rejected(self):
        with pytest.raises(DataError):
            average_precision(ranked(["a"]), set())

    def test_ap_requires_full_ranking(self):
        with pytest.raises(DataError):
            average_precision(ranked(["a", "b"]), {"missing"})

    def test_ap_matches_oracle_on_two_relevant_layouts(self):
        ids = [f"g{i}" for i in range(8)]
        for pos in itertools.combinations(range(8), 2):
            relevant = {ids[pos[0]], ids[pos[1]]}
            mine = average_precision(ranked(ids), relevant)
            theirs = naive_average_precision(ids, relevant)
            assert mine == pytest.approx(theirs, abs=1e-15)
            expected = (1 / (pos[0] + 1) + 2 / (pos[1] + 1)) / 2
            assert mine == pytest.approx(expected, abs=1e-15)

    def test_recall_matches_oracle_on_permutations(self):
        ids = ["a", "b", "c", "d"]
        for perm in itertools.permutations(ids):
            for k in (1, 2, 3, 4):
                assert recall_at_k(ranked(perm), {"c"}, k) == naive_recall_at_k(perm, {"c"}, k)


class TestTruncateDim:
    def test_full_width_is_identity_on_unit_rows(self):
        es = EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        out = truncate_dim(es, 2)
        np.testing.assert_array_equal(out.matrix, es.matrix)

    def test_single_dim_gives_signs(self):
        rows = np.array([[0.6, 0.8], [-0.6, 0.8]], dtype=np.float32)
        out = truncate_dim(EmbeddingSet(["a", "b"], rows), 1)
        np.testing.assert_allclose(out.matrix[:, 0], [1.0, -1.0], atol=1e-6)

    def test_too_large_rejected(self):
        es = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        with pytest.raises(DimTooLarge):
            truncate_dim(es, 4)

    def test_bad_dim_rejected(self):
        es = EmbeddingSet(["a"], np.ones((1, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            truncate_dim(es, 0)

    def test_equals_renormalized_slice(self):
        # truncation is slice-then-renormalize, nothing else
        rng = np.random.default_rng(11)
        g = dyadic_set(rng, 40, 12, "g")
        gt = truncate_dim(g, 5)
        manual = EmbeddingSet.from_rows(list(g.ids), g.matrix[:, :5])
        assert gt.ids == manual.ids
        np.testing.assert_array_equal(gt.matrix, manual.matrix)


class TestScoreTable:
    def test_columns_sorted_by_gallery_id(self):
        g = EmbeddingSet(["g2", "g0", "g1"], np.eye(3, dtype=np.float32))
        q = EmbeddingSet(["q0"], np.array([[0.25, 0.5, 0.125]], dtype=np.float32))
        tab = score_table(g, q)
        assert tab.gallery_ids == ["g0", "g1", "g2"]
        np.testing.assert_allclose(tab.scores[0], [0.5, 0.125, 0.25])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = dyadic_set(rng, 7, 6, "g")
        q = dyadic_set(rng, 3, 6, "q")
        tab = score_table(g, q)
        path = tmp_path / "scores.csv"
        tab.save(path)
        back = ScoreTable.load(path)
        assert back.query_ids == tab.query_ids
        assert back.gallery_ids == tab.gallery_ids
        np.testing.assert_array_equal(back.scores, np.asarray(tab.scores, dtype=float))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("nope,g0\nq0,1.0\n", encoding="utf-8")
        with pytest.raises(DataError):
            ScoreTable.load(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("query_id,g0,g1\nq0,1.0\n", encoding="utf-8")
        with pytest.raises(DataError):
            ScoreTable.load(path)

    @pytest.mark.parametrize("text", ["query_id,g0,g1\n", "query_id\nq0\n", "query_id\n"])
    def test_no_rows_or_no_columns_rejected(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="no query rows or no gallery columns"):
            ScoreTable.load(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_matches_csv_writer_bytes(self, tmp_path, dtype):
        # ids that csv.writer must quote, an empty id (written bare when other
        # cells follow) and scores of both dtypes a table can hold
        odd = ["", "a,b", 'say "hi"', "two\nlines", " lead", "plain"]
        rng = np.random.default_rng(3)
        tab = ScoreTable(odd, [f"g{g}" for g in odd],
                         rng.standard_normal((len(odd), len(odd))).astype(dtype))
        tab.save(tmp_path / "fast.csv")
        csv_writer_save(tab, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = ScoreTable.load(tmp_path / "fast.csv")
        assert back.query_ids == odd and back.gallery_ids == tab.gallery_ids
        np.testing.assert_array_equal(back.scores, tab.scores.astype(float))

    def test_save_converts_one_row_at_a_time(self, tmp_path):
        # 200 x 5 000 scores as one list of Python floats would take about
        # 32 MB; save's peak beyond the table must stay near one row's list
        tab = ScoreTable([f"q{i}" for i in range(200)], [f"g{j}" for j in range(5_000)],
                         np.random.default_rng(4).random((200, 5_000), dtype=np.float32))
        tracemalloc.start()
        try:
            tab.save(tmp_path / "scores.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_load_parses_one_row_at_a_time(self, tmp_path):
        # 200 x 5 000 scores as lists of Python floats would take about 32 MB
        # beside the 8 MB table; load may hold the parsed rows and their stack
        tab = ScoreTable([f"q{i}" for i in range(200)], [f"g{j}" for j in range(5_000)],
                         np.random.default_rng(4).random((200, 5_000)))
        tab.save(tmp_path / "scores.csv")
        tracemalloc.start()
        try:
            back = ScoreTable.load(tmp_path / "scores.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.scores.tobytes() == tab.scores.tobytes()
        assert peak < 2.5 * tab.scores.nbytes

    def test_load_keeps_no_second_copy(self, tmp_path):
        # rows parsed into one array, not a list of rows and their stack:
        # 200 x 5 000 fits the first capacity (209 rows), so load's peak is
        # that array plus one row's fields
        tab = ScoreTable([f"q{i}" for i in range(200)], [f"g{j}" for j in range(5_000)],
                         np.random.default_rng(4).random((200, 5_000)))
        tab.save(tmp_path / "scores.csv")
        tracemalloc.start()
        try:
            back = ScoreTable.load(tmp_path / "scores.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.scores.tobytes() == tab.scores.tobytes()
        assert peak < 1.5 * tab.scores.nbytes

    @pytest.mark.parametrize("first_rows", [None, 3])
    def test_load_grows_past_its_first_capacity(self, tmp_path, monkeypatch, first_rows):
        # the first capacity is DEFAULT_QUERY_BLOCK = 256 rows here; 3 makes
        # the 700-row table grow eight times
        if first_rows is not None:
            monkeypatch.setattr(retrieval_eval, "DEFAULT_QUERY_BLOCK", first_rows)
        rng = np.random.default_rng(8)
        tab = ScoreTable([f"q{i}" for i in range(700)], ["g0", "g1", "g2"],
                         rng.standard_normal((700, 3)))
        tab.save(tmp_path / "scores.csv")
        back = ScoreTable.load(tmp_path / "scores.csv")
        assert back.query_ids == tab.query_ids and back.gallery_ids == tab.gallery_ids
        assert back.scores.shape == (700, 3) and back.scores.flags.c_contiguous
        assert back.scores.tobytes() == tab.scores.tobytes()

    @pytest.mark.parametrize("cell,message", [("nan", "score is not finite"),
                                              ("x", "score is not a number"),
                                              (None, "expected 4 fields")])
    def test_load_error_line_after_growth(self, tmp_path, monkeypatch, cell, message):
        monkeypatch.setattr(retrieval_eval, "DEFAULT_QUERY_BLOCK", 2)
        lines = ["query_id,g0,g1,g2"] + [f"q{i},0.5,0.25,0.125" for i in range(40)]
        lines[37] = "q36,0.5,0.25" if cell is None else f"q36,0.5,{cell},0.125"
        path = tmp_path / "scores.csv"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            ScoreTable.load(path)
        assert str(exc.value) == f"{path}:38: {message}"

    def test_load_error_names_the_file_line_after_a_quoted_newline(self, tmp_path):
        # the first query id spans lines 2-3, so the third row is line 5
        path = tmp_path / "scores.csv"
        path.write_text('query_id,g0\r\n"a\nb",0.5\r\nq1,0.25\r\nq2,nan\r\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as exc:
            ScoreTable.load(path)
        assert str(exc.value) == f"{path}:5: score is not finite"

    def test_save_without_gallery_columns_matches_csv_writer_bytes(self, tmp_path):
        tab = ScoreTable(["", "q,1", "q2"], [], np.zeros((3, 0), dtype=np.float32))
        tab.save(tmp_path / "fast.csv")
        csv_writer_save(tab, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("text", ["query_id,g0,g0\nq0,1.0,0.5\n",
                                      "query_id,g0\nq0,1.0\nq0,0.5\n"])
    def test_duplicate_ids_rejected(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            ScoreTable.load(path)


def table(qids, gids, scores):
    return ScoreTable(list(qids), list(gids), np.asarray(scores, dtype=float))


class TestEnsemble:
    def test_idempotent_on_identical_tables(self):
        t = table(["q0", "q1"], ["g0", "g1"], [[0.5, 0.25], [0.125, 0.75]])
        fused = ensemble([t, t, t])
        single = ensemble([t])
        assert ranking_tuples(fused) == ranking_tuples(single)
        np.testing.assert_allclose(fused[0].scores, [0.5, 0.25], atol=1e-15)

    def test_degenerate_weights_pick_one_table(self):
        t1 = table(["q"], ["g0", "g1"], [[0.9, 0.1]])
        t2 = table(["q"], ["g0", "g1"], [[0.0, 1.0]])
        fused = ensemble([t1, t2], weights=[1.0, 0.0])
        assert fused[0].gallery_ids == ["g0", "g1"]
        np.testing.assert_allclose(fused[0].scores, [0.9, 0.1], atol=1e-15)

    def test_hand_fusion_example(self):
        # equal weights: (0.9+0.2)/2 = 0.55, (0.1+0.8)/2 = 0.45
        t1 = table(["q"], ["g0", "g1"], [[0.9, 0.1]])
        t2 = table(["q"], ["g0", "g1"], [[0.2, 0.8]])
        fused = ensemble([t1, t2])
        assert fused[0].gallery_ids == ["g0", "g1"]
        np.testing.assert_allclose(fused[0].scores, [0.55, 0.45], atol=1e-12)

    def test_alignment_by_id_not_position(self):
        t1 = table(["q"], ["g0", "g1"], [[1.0, 0.0]])
        t2 = table(["q"], ["g1", "g0"], [[0.0, 1.0]])  # same content, permuted
        fused = ensemble([t1, t2])
        np.testing.assert_allclose(fused[0].scores, [1.0, 0.0], atol=1e-15)
        assert fused[0].gallery_ids == ["g0", "g1"]

    def test_query_row_alignment(self):
        t1 = table(["q0", "q1"], ["g0", "g1"], [[1.0, 0.0], [0.0, 1.0]])
        t2 = table(["q1", "q0"], ["g0", "g1"], [[0.0, 1.0], [1.0, 0.0]])
        fused = ensemble([t1, t2])
        by_q = {r.query_id: r for r in fused}
        assert by_q["q0"].gallery_ids[0] == "g0"
        assert by_q["q1"].gallery_ids[0] == "g1"

    def test_id_mismatch_rejected(self):
        t1 = table(["q"], ["g0", "g1"], [[1.0, 0.0]])
        t2 = table(["q"], ["g0", "gX"], [[1.0, 0.0]])
        with pytest.raises(IdMismatch):
            ensemble([t1, t2])

    def test_weight_count_mismatch_rejected(self):
        t = table(["q"], ["g0"], [[1.0]])
        with pytest.raises(DataError):
            ensemble([t, t], weights=[1.0])

    def test_nonpositive_weight_sum_rejected(self):
        t = table(["q"], ["g0"], [[1.0]])
        with pytest.raises(DataError):
            ensemble([t, t], weights=[1.0, -1.0])

    @pytest.mark.parametrize("fusion", ["score-mean", "reciprocal-rank"])
    def test_overflowing_weight_sum_rejected(self, fusion):
        # finite weights whose sum is inf would fuse every w / sum to 0
        t = table(["q"], ["g0", "g1"], [[1.0, 0.0]])
        with pytest.raises(DataError, match="positive finite value, got inf"):
            fuse([t, t], weights=[1e308, 1e308], fusion=fusion)

    @pytest.mark.parametrize("fusion", ["score-mean", "reciprocal-rank"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, fusion, bad):
        t = table(["q"], ["g0", "g1"], [[1.0, 0.0]])
        with pytest.raises(DataError, match="finite"):
            fuse([t, t], weights=[0.5, bad], fusion=fusion)

    def test_unknown_fusion_rejected(self):
        t = table(["q"], ["g0"], [[1.0]])
        with pytest.raises(ValueError):
            ensemble([t], fusion="geometric")

    def test_reciprocal_rank_agreeing_tables(self):
        # both tables rank g1 first, so RRF must as well, with score
        # 2/(60+1) for g1 and 2/(60+2) for g0
        t1 = table(["q"], ["g0", "g1"], [[0.2, 0.9]])
        t2 = table(["q"], ["g0", "g1"], [[0.1, 0.5]])
        fused = ensemble([t1, t2], fusion="reciprocal-rank")
        assert fused[0].gallery_ids == ["g1", "g0"]
        np.testing.assert_allclose(fused[0].scores, [2 / 61.0, 2 / 62.0], atol=1e-15)

    def test_reciprocal_rank_outvotes_one_extreme_score(self):
        # score-mean follows the huge margin in table 1; RRF follows the
        # 2-vs-1 rank majority instead
        t1 = table(["q"], ["g0", "g1"], [[1.0, 0.0]])
        t2 = table(["q"], ["g0", "g1"], [[0.4, 0.6]])
        t3 = table(["q"], ["g0", "g1"], [[0.45, 0.55]])
        mean = ensemble([t1, t2, t3])
        rrf = ensemble([t1, t2, t3], fusion="reciprocal-rank")
        assert mean[0].gallery_ids[0] == "g0"
        assert rrf[0].gallery_ids[0] == "g1"


class TestRelevanceAndMetricsIO:
    def test_relevance_round_trip(self, tmp_path):
        rel = {"q0": {"g1", "g2"}, "q1": {"g0"}}
        path = tmp_path / "rel.csv"
        write_relevance(rel, path)
        assert read_relevance(path) == rel

    def test_relevance_bad_header(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("a,b\nq,g\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_relevance(path)

    def test_relevance_empty_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("query_id,gallery_id\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_relevance(path)

    def test_relevance_error_names_the_file_line_after_a_quoted_newline(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text('query_id,gallery_id\n"a\nb",g0\nq1,g1\nq2\n', encoding="utf-8")
        with pytest.raises(DataError) as exc:
            read_relevance(path)
        assert str(exc.value) == f"{path}:5: expected 2 fields"

    def test_metrics_rows_and_unknown_query(self):
        rankings = [ranked(["a", "b", "c"])]
        rows = metrics_from_rankings(rankings, {"q": {"b"}}, [1, 2])
        assert rows == [("recall", "1", 0.0), ("recall", "2", 1.0), ("ap", "", 0.5)]
        with pytest.raises(UnknownQuery):
            metrics_from_rankings(rankings, {"other": {"b"}}, [1])

    def test_write_metrics_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics([("recall", "1", 0.25), ("ap", "", 1.0 / 3.0)], path)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "metric,k,value"
        assert lines[1] == "recall,1,0.25"
        assert lines[2] == f"ap,,{1.0 / 3.0!r}"

    def test_evaluate_self_retrieval_is_perfect(self):
        mat = np.eye(10, dtype=np.float32)
        ids = [f"v{i}" for i in range(10)]
        es = EmbeddingSet(ids, mat)
        rel = {i: {i} for i in ids}
        rows = evaluate(es, es, rel, [1, 5])
        assert rows == [("recall", "1", 1.0), ("recall", "5", 1.0), ("ap", "", 1.0)]


class TestRankOfRelevantMetrics:
    """evaluate and fused_metrics must give exactly the rows of
    metrics_from_rankings over full rankings.  A coarse dyadic grid (values
    in {-2..2}/64, dim <= 4) makes tied scores common, including ties that
    straddle relevant and non-relevant items."""

    KS = [1, 2, 3, 5, 10]

    @staticmethod
    def coarse_set(rng, n, dim, prefix):
        grid = rng.integers(-2, 3, size=(n, dim))
        grid[~grid.any(axis=1), 0] = 1
        ids = [f"{prefix}{i:04d}" for i in rng.permutation(n)]  # ids not in row order
        return EmbeddingSet(ids, (grid / 64.0).astype(np.float32))

    def random_case(self, rng):
        n_gallery = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 5))
        gallery = self.coarse_set(rng, n_gallery, dim, "g")
        queries = self.coarse_set(rng, int(rng.integers(1, 20)), dim, "q")
        rel = {q: set(rng.choice(gallery.ids, size=min(n_gallery, int(rng.integers(1, 6))),
                                 replace=False).tolist())
               for q in queries.ids}
        return gallery, queries, rel

    def test_evaluate_equals_full_ranking_metrics(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            gallery, queries, rel = self.random_case(rng)
            full = top_k(gallery, queries, len(gallery.ids))
            assert evaluate(queries, gallery, rel, self.KS) == \
                metrics_from_rankings(full, rel, self.KS)

    @pytest.mark.parametrize("fusion", ["score-mean", "reciprocal-rank"])
    def test_fused_table_equals_ensemble_rankings(self, fusion):
        rng = np.random.default_rng(12)
        for _ in range(100):
            gallery, queries, rel = self.random_case(rng)
            other = self.coarse_set(rng, len(gallery.ids), gallery.dim, "x")
            t1 = score_table(gallery, queries)
            t2 = score_table(EmbeddingSet(gallery.ids, other.matrix), queries)
            # reversed columns, so fuse must realign them by id
            t2 = ScoreTable(t2.query_ids, t2.gallery_ids[::-1], t2.scores[:, ::-1])
            tables, weights = [t1, t2], [0.75, 0.25]
            rows = metrics_from_rankings(ensemble(tables, weights, fusion), rel, self.KS)
            assert dense_table_metrics(fuse(tables, weights, fusion), rel, self.KS) == rows
            assert fused_metrics(tables, rel, self.KS, weights, fusion) == rows

    def test_unknown_query_rejected(self):
        es = EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        with pytest.raises(UnknownQuery):
            evaluate(es, es, {"a": {"a"}}, [1])

    def test_relevant_id_outside_gallery_rejected(self):
        es = EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        with pytest.raises(DataError, match="'b'"):
            evaluate(es, es, {"a": {"a"}, "b": {"zz"}}, [1])

    def test_empty_relevant_set_rejected(self):
        es = EmbeddingSet(["a"], np.eye(1, dtype=np.float32))
        with pytest.raises(DataError):
            evaluate(es, es, {"a": set()}, [1])

    def test_bad_k_rejected(self):
        es = EmbeddingSet(["a"], np.eye(1, dtype=np.float32))
        with pytest.raises(ValueError):
            evaluate(es, es, {"a": {"a"}}, [0])


class TestStreamingEvaluate:
    """evaluate scores equal query blocks into one buffer and keeps only the
    ranks; it must give exactly the rows of the dense-table path and of
    metrics_from_rankings(top_k(...)).
    The coarse dyadic grid makes ties common and every summation order exact,
    so any block layout gives the same bits."""

    KS = [1, 2, 3, 5, 10]

    def random_case(self, rng):
        n_gallery = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 5))
        coarse = TestRankOfRelevantMetrics.coarse_set
        gallery = coarse(rng, n_gallery, dim, "g")
        queries = coarse(rng, int(rng.integers(1, 30)), dim, "q")
        rel = {q: set(rng.choice(gallery.ids, size=min(n_gallery, int(rng.integers(1, 13))),
                                 replace=False).tolist())
               for q in queries.ids}
        return gallery, queries, rel

    # (DEFAULT_QUERY_BLOCK, _BLOCK_VALUES): one row a block; uneven 2- and
    # 3-row blocks; blocks sized by the gallery term
    @pytest.mark.parametrize("query_block,block_values", [(1, 1), (3, 1), (2, 7), (1, 100),
                                                          (4, 90), (256, 1 << 20)])
    def test_equals_dense_path_over_block_layouts(self, monkeypatch, query_block,
                                                  block_values):
        monkeypatch.setattr(retrieval_eval, "DEFAULT_QUERY_BLOCK", query_block)
        monkeypatch.setattr(retrieval_eval, "_BLOCK_VALUES", block_values)
        blocks = []
        matmul = np.matmul

        def spy(a, b, out):
            blocks.append(out.shape[0])
            return matmul(a, b, out=out)

        monkeypatch.setattr(retrieval_eval.np, "matmul", spy)
        rng = np.random.default_rng(21)
        several = 0
        for _ in range(60):
            gallery, queries, rel = self.random_case(rng)
            blocks.clear()
            rows = evaluate(queries, gallery, rel, self.KS)
            assert sum(blocks) == len(queries.ids)
            assert max(blocks) - min(blocks) <= 1
            several += len(blocks) > 1
            assert rows == dense_evaluate(queries, gallery, rel, self.KS)
            full = top_k(gallery, queries, len(gallery.ids))
            assert rows == metrics_from_rankings(full, rel, self.KS)
            self.check_fused_blocks(monkeypatch, gallery, queries, rel)
        assert several > 0 or query_block == 256

    def check_fused_blocks(self, monkeypatch, gallery, queries, rel):
        """fused_metrics ranks equal blocks of at most _block_rows rows and
        gives the rows of the dense-table path over the dense fused table."""
        t1 = score_table(gallery, queries)
        t2 = score_table(EmbeddingSet(gallery.ids, gallery.matrix[::-1].copy()), queries)
        t2 = ScoreTable(t2.query_ids[::-1], t2.gallery_ids[::-1], t2.scores[::-1, ::-1])
        blocks = []
        count_ranks = retrieval_eval._count_ranks

        def spy(scores, *args):
            blocks.append(len(scores))
            return count_ranks(scores, *args)

        for fusion in ("score-mean", "reciprocal-rank"):
            blocks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(retrieval_eval, "_count_ranks", spy)
                rows = fused_metrics([t1, t2], rel, self.KS, [0.75, 0.25], fusion)
            assert sum(blocks) == len(queries.ids)
            assert max(blocks) - min(blocks) <= 1
            assert max(blocks) <= retrieval_eval._block_rows(len(gallery.ids))
            assert rows == dense_table_metrics(fuse([t1, t2], [0.75, 0.25], fusion), rel,
                                               self.KS)

    def test_equals_dense_product_on_random_float32(self, monkeypatch):
        # The module docstring's equal-blocks rationale: blocks of two or more
        # rows give the dense product's bits on real float32 data, so eval
        # prints the same metrics as the dense-table path of the dumped table.
        # With the default constants 3 000 queries x 1 000 gallery items split
        # into three 1 000-row blocks.
        blocks = []
        matmul = np.matmul

        def spy(a, b, out):
            blocks.append(matmul(a, b, out=out).copy())
            return out

        monkeypatch.setattr(retrieval_eval.np, "matmul", spy)
        rng = np.random.default_rng(24)
        gallery = EmbeddingSet.from_rows([f"g{i:04d}" for i in range(1_000)],
                                         rng.standard_normal((1_000, 384)))
        queries = EmbeddingSet.from_rows([f"q{i:04d}" for i in range(3_000)],
                                         rng.standard_normal((3_000, 384)))
        rel = {q: set(rng.choice(gallery.ids, size=int(rng.integers(1, 4)),
                                 replace=False).tolist())
               for q in queries.ids}
        rows = evaluate(queries, gallery, rel, self.KS)
        assert [len(b) for b in blocks] == [1_000] * 3
        dense = score_table(gallery, queries)
        assert np.vstack(blocks).tobytes() == dense.scores.tobytes()
        assert rows == dense_table_metrics(dense, rel, self.KS)

    def test_fused_metrics_equals_dense_path_on_float64_tables(self):
        # one table fuses to itself exactly (score-mean weight 1.0)
        rng = np.random.default_rng(22)
        for _ in range(40):
            gallery, queries, rel = self.random_case(rng)
            tab = score_table(gallery, queries)
            tab = ScoreTable(tab.query_ids, tab.gallery_ids,
                             np.round(rng.standard_normal(tab.scores.shape), 1))
            assert fused_metrics([tab], rel, self.KS) == dense_table_metrics(tab, rel, self.KS)

    def test_peak_memory_is_a_fraction_of_the_dense_table(self):
        # 2 000 x 20 000 float32 scores would take 160 MB
        rng = np.random.default_rng(23)
        gallery = EmbeddingSet.from_rows([f"g{i:05d}" for i in range(20_000)],
                                         rng.standard_normal((20_000, 8)))
        queries = EmbeddingSet.from_rows([f"q{i:04d}" for i in range(2_000)],
                                         rng.standard_normal((2_000, 8)))
        rel = {q: {gallery.ids[i * 10]} for i, q in enumerate(queries.ids)}
        tracemalloc.start()
        try:
            evaluate(queries, gallery, rel, [1, 5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160e6 / 4

    @pytest.mark.parametrize("fusion", ["score-mean", "reciprocal-rank"])
    def test_fused_peak_memory_is_a_fraction_of_the_dense_table(self, monkeypatch, fusion):
        # beyond its two tables, fused_metrics holds 16-row blocks; fuse
        # would build the 2 000 x 1 000 float64 table (16 MB) and a scratch
        # one, and align the reversed table in a third
        monkeypatch.setattr(retrieval_eval, "DEFAULT_QUERY_BLOCK", 16)
        rng = np.random.default_rng(25)
        qids, gids = [f"q{i:04d}" for i in range(2_000)], [f"g{j:04d}" for j in range(1_000)]
        t1 = ScoreTable(qids, gids, rng.standard_normal((2_000, 1_000)))
        t2 = ScoreTable(qids, gids[::-1], rng.standard_normal((2_000, 1_000)))
        rel = {q: {gids[i % 1_000]} for i, q in enumerate(qids)}
        tracemalloc.start()
        try:
            fused_metrics([t1, t2], rel, [1, 5], [0.5, 0.5], fusion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t1.scores.nbytes / 8

    @pytest.mark.parametrize("case", ["dim-k-unknown", "k-unknown", "unknown-then-missing",
                                      "missing-then-unknown"])
    def test_error_precedence_as_dense_path(self, case):
        # DimMismatch first, then k < 1, then the first bad query in row order
        es = EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        wide = EmbeddingSet(["a", "b"], np.eye(2, 3, dtype=np.float32))
        gallery, ks, rel, err = {
            "dim-k-unknown": (wide, [0], {}, DimMismatch),
            "k-unknown": (es, [0], {}, ValueError),
            "unknown-then-missing": (es, [1], {"b": {"zz"}}, UnknownQuery),
            "missing-then-unknown": (es, [1], {"a": {"zz"}}, DataError),
        }[case]
        for route in (evaluate, dense_evaluate):
            with pytest.raises(err):
                route(es, gallery, rel, ks)

    def test_empty_query_set_rejected(self):
        es = EmbeddingSet(["a"], np.eye(1, dtype=np.float32))
        none = EmbeddingSet([], np.zeros((0, 1), dtype=np.float32))
        for gallery in (es, none):
            with pytest.raises(DataError, match="no queries"):
                evaluate(none, gallery, {"a": {"a"}}, [1])


class TestSortedRowRanks:
    """_count_ranks compares a block in place when each of its rows holds
    exactly one pair, and sorts each row of any other block.  Both paths,
    reached by the pairs' shape, must give the per-pair compare path's ranks
    (oracles.compare_count_ranks) exactly, on tie-heavy rows with -0.0
    beside 0.0, and with NaN and inf."""

    @staticmethod
    def scores(rng, n_rows, g, dtype, odd=False):
        scores = (rng.integers(-3, 4, (n_rows, g)) / 4).astype(dtype)
        scores[(scores == 0) & (rng.random(scores.shape) < 0.5)] = -0.0
        if odd:
            scores.flat[rng.choice(scores.size, 3 * n_rows)] = rng.choice(
                [np.nan, np.inf, -np.inf], 3 * n_rows)
        return scores

    @staticmethod
    def pairs(rng, rows, g, counts):
        qrow = np.repeat(rows, counts)
        rcol = np.concatenate([rng.permutation(g)[:c] for c in counts])
        return qrow, rcol

    def check(self, scores, qrow, rcol):
        got = np.zeros(len(qrow), dtype=np.int64)
        want = np.zeros(len(qrow), dtype=np.int64)
        retrieval_eval._count_ranks(scores, qrow, rcol, got)
        compare_count_ranks(scores, qrow, rcol, want)
        assert np.array_equal(got, want)

    @pytest.fixture
    def sorted_blocks(self, monkeypatch):
        """The row counts of the blocks _count_ranks sends to _sorted_ranks."""
        blocks = []
        sorted_ranks = retrieval_eval._sorted_ranks

        def spy(scores, *args):
            blocks.append(len(scores))
            return sorted_ranks(scores, *args)

        monkeypatch.setattr(retrieval_eval, "_sorted_ranks", spy)
        return blocks

    # 7 scores: one row a chunk or sorted copy; 150: 2 rows at 60 columns
    @pytest.mark.parametrize("sort_values", [7, 150, 1 << 18])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 10, 54])
    @pytest.mark.parametrize("rows_left_out", [False, True], ids=["every-row", "rows-left-out"])
    def test_equal_relevant_counts(self, monkeypatch, sorted_blocks, sort_values, r,
                                   rows_left_out):
        # only one pair on every row is compared in place
        monkeypatch.setattr(retrieval_eval, "_SORT_VALUES", sort_values)
        rng = np.random.default_rng(r)
        for dtype, g, odd in [(np.float32, 60, False), (np.float64, 60, True),
                              (np.float32, 700, True)]:
            n_rows = 9
            rows = np.arange(2 * n_rows)
            if rows_left_out:
                rows = np.sort(rng.choice(2 * n_rows, n_rows, replace=False))
            scores = self.scores(rng, 2 * n_rows, g, dtype, odd)
            sorted_blocks.clear()
            self.check(scores, *self.pairs(rng, rows, g, [min(r, g)] * len(rows)))
            assert sorted_blocks == ([] if r == 1 and not rows_left_out else [2 * n_rows])

    @pytest.mark.parametrize("sort_values", [7, 150, 1 << 18])
    def test_mixed_relevant_counts_in_one_call(self, monkeypatch, sorted_blocks, sort_values):
        monkeypatch.setattr(retrieval_eval, "_SORT_VALUES", sort_values)
        rng = np.random.default_rng(31)
        for _ in range(40):
            n_rows, g = int(rng.integers(1, 12)), int(rng.integers(1, 80))
            counts = np.minimum(rng.choice([1, 1, 2, 3, 5, 10, 54], n_rows), g)
            scores = self.scores(rng, n_rows, g, rng.choice([np.float32, np.float64]),
                                 bool(rng.integers(2)))
            sorted_blocks.clear()
            self.check(scores, *self.pairs(rng, np.arange(n_rows), g, counts))
            assert sorted_blocks == ([] if (counts == 1).all() else [n_rows])

    @pytest.mark.parametrize("sort_values", [7, 1 << 18])
    def test_one_pair_a_row_with_odd_scores_and_ties(self, monkeypatch, sorted_blocks,
                                                     sort_values):
        # the pair's own score is NaN, inf, -inf, 0.0 or -0.0; then rows
        # where every score ties with it
        monkeypatch.setattr(retrieval_eval, "_SORT_VALUES", sort_values)
        rng = np.random.default_rng(36)
        for dtype in (np.float32, np.float64):
            scores = self.scores(rng, 40, 50, dtype, odd=True)
            rows, rcol = np.arange(40), rng.integers(0, 50, 40)
            scores[rows[:10], rcol[:10]] = [np.nan, np.inf, -np.inf, 0.0, -0.0] * 2
            scores[10:20] = scores[rows[10:20], rcol[10:20], None]
            scores[15:20, ::2] = -scores[15:20, ::2]  # 0.0 beside -0.0
            self.check(scores, rows, rcol)
        assert sorted_blocks == []

    def test_one_pair_block_peak_memory(self):
        # scale's Drone2Sat evaluate block: 1 000 rows of 1 000 float32 scores
        # (4 MB), one relevant item a row; a gathered copy of the rows alone
        # would be 4 MB
        rng = np.random.default_rng(37)
        scores = rng.standard_normal((1_000, 1_000)).astype(np.float32)
        qrow, rcol = np.arange(1_000), rng.integers(0, 1_000, 1_000)
        got = np.zeros(len(qrow), dtype=np.int64)
        tracemalloc.start()
        try:
            retrieval_eval._count_ranks(scores, qrow, rcol, got)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"in-place path peaked at {peak / 2**20:.2f} MiB"
        want = np.zeros(len(qrow), dtype=np.int64)
        compare_count_ranks(scores, qrow, rcol, want)
        assert np.array_equal(got, want)

    def test_evaluate_paths_follow_the_relevance_shape(self, monkeypatch, sorted_blocks):
        # 30 buildings of one satellite view and ten drone views, in blocks
        # of 30 (Drone2Sat) and 7 or 8 (Sat2Drone) queries: every Drone2Sat
        # block is compared in place, every Sat2Drone block is sorted
        monkeypatch.setattr(retrieval_eval, "DEFAULT_QUERY_BLOCK", 8)
        monkeypatch.setattr(retrieval_eval, "_BLOCK_VALUES", 1_000)
        count_ranks, blocks = retrieval_eval._count_ranks, []

        def spy(scores, *args):
            blocks.append(len(scores))
            return count_ranks(scores, *args)

        monkeypatch.setattr(retrieval_eval, "_count_ranks", spy)
        rng = np.random.default_rng(38)
        sats = EmbeddingSet.from_rows([f"b{b:02d}_s" for b in range(30)],
                                      rng.standard_normal((30, 16)))
        drones = EmbeddingSet.from_rows([f"b{b:02d}_d{d}" for b in range(30) for d in range(10)],
                                        rng.standard_normal((300, 16)))
        d2s = {d: {d[:3] + "_s"} for d in drones.ids}
        s2d = {s: {d for d in drones.ids if d[:3] == s[:3]} for s in sats.ids}
        for queries, gallery, rel, sorts in [(drones, sats, d2s, False),
                                             (sats, drones, s2d, True)]:
            blocks.clear()
            sorted_blocks.clear()
            assert evaluate(queries, gallery, rel, [1, 5]) == \
                dense_evaluate(queries, gallery, rel, [1, 5])
            assert len(blocks) > 1
            assert sorted_blocks == (blocks if sorts else [])

    def test_evaluate_equals_dense_path_with_ten_relevant_a_query(self):
        # the Sat2Drone shape: every query has ten relevant gallery items
        rng = np.random.default_rng(32)
        gallery = EmbeddingSet.from_rows([f"g{i:04d}" for i in range(3_000)],
                                         rng.standard_normal((3_000, 32)))
        queries = EmbeddingSet.from_rows([f"q{i:03d}" for i in range(300)],
                                         rng.standard_normal((300, 32)))
        rel = {q: {gallery.ids[10 * i + j] for j in range(10)}
               for i, q in enumerate(queries.ids)}
        assert evaluate(queries, gallery, rel, [1, 5, 10]) == \
            dense_evaluate(queries, gallery, rel, [1, 5, 10])


class TestSortedRankGather:
    """The sorted path copies at most _SORT_VALUES scores at a time."""

    @pytest.mark.parametrize("sort_values", [7, 150, 1 << 18])
    def test_ranks_over_gather_sizes(self, monkeypatch, sort_values):
        # 1 and 2 rows a copy at 60 columns, with a part-filled last copy
        monkeypatch.setattr(retrieval_eval, "_SORT_VALUES", sort_values)
        rng = np.random.default_rng(33)
        for dtype, odd in [(np.float32, False), (np.float64, True)]:
            scores = TestSortedRowRanks.scores(rng, 18, 60, dtype, odd)
            rows = np.sort(rng.choice(18, 9, replace=False))
            qrow, rcol = TestSortedRowRanks.pairs(rng, rows, 60, [5] * 9)
            TestSortedRowRanks().check(scores, qrow, rcol)

    def test_sat2drone_block_peak_memory(self):
        # one evaluate block at the scale benchmark's Sat2Drone shape: 104
        # rows of 10 000 float32 scores (4.2 MB), 10 relevant items a row
        rng = np.random.default_rng(34)
        scores = rng.standard_normal((104, 10_000)).astype(np.float32)
        qrow = np.repeat(np.arange(104), 10)
        rcol = np.concatenate([rng.choice(10_000, 10, replace=False) for _ in range(104)])
        got = np.zeros(len(qrow), dtype=np.int64)
        tracemalloc.start()
        try:
            retrieval_eval._count_ranks(scores, qrow, rcol, got)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, f"sorted path peaked at {peak / 2**20:.2f} MiB"
        want = np.zeros(len(qrow), dtype=np.int64)
        compare_count_ranks(scores, qrow, rcol, want)
        assert np.array_equal(got, want)


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def blas_thread_getter(setter):
    """The thread-count getter of the library that holds setter, or None."""
    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)
    if dladdr is None:
        return None
    dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    info = _DlInfo()
    if not dladdr(ctypes.cast(setter, ctypes.c_void_p), ctypes.byref(info)):
        return None
    lib = ctypes.CDLL(info.dli_fname.decode())
    getter = getattr(lib, setter.__name__.replace("_set_", "_get_"), None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


class TestBlasThreadCount:
    """Scoring runs at the process's BLAS thread count (only sweep workers
    drop to one), so its bytes must not depend on that count."""

    @pytest.mark.parametrize("nq,dim,ng", [(257, 64, 5_000), (250, 384, 20_000)])
    def test_scoring_bytes_same_at_one_and_two_threads(self, nq, dim, ng):
        setter = ablations.blas_thread_setter()
        getter = None if setter is None else blas_thread_getter(setter)
        if getter is None:
            pytest.skip("no BLAS thread setter and getter found")
        rng = np.random.default_rng(dim)
        gallery = EmbeddingSet.from_rows([f"g{i:05d}" for i in range(ng)],
                                         rng.standard_normal((ng, dim), dtype=np.float32))
        queries = EmbeddingSet.from_rows([f"q{i:03d}" for i in range(nq)],
                                         rng.standard_normal((nq, dim), dtype=np.float32))
        relevance = {qid: {f"g{j:05d}" for j in rng.integers(ng, size=3)}
                     for qid in queries.ids}
        found = getter()
        outputs = []
        try:
            for threads in (1, 2):
                setter(threads)
                if getter() != threads:
                    pytest.skip(f"the BLAS runs {getter()} threads when set to {threads}")
                ranked = top_k(gallery, queries, 10)
                outputs.append((np.array([r.scores for r in ranked]).tobytes(),
                                [r.gallery_ids for r in ranked],
                                repr(evaluate(queries, gallery, relevance, [1, 5, 10]))))
        finally:
            setter(found)
        assert getter() == found
        assert outputs[0] == outputs[1]
