"""Retrieval tests: blocked exact top-k against an exhaustive oracle,
metric hand values, score tables, and ensemble fusion.

Cross-blocking equality cases use embeddings drawn from the dyadic grid
i/64 with dim <= 16: every product is a multiple of 1/4096 and partial
sums stay below 2^24 quanta, so float32 and float64 accumulate the same
exact values in any order.  Results are then independent of block size,
thread count, and BLAS kernel, and ties are exact rather than ulp-close.
"""

import itertools

import numpy as np
import pytest

from skyalign import binio, retrieval_eval
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
    metrics_from_rankings,
    read_relevance,
    recall_at_k,
    score_table,
    table_metrics,
    top_k,
    truncate_dim,
    write_metrics,
    write_relevance,
)

from oracles import naive_average_precision, naive_recall_at_k, naive_topk


def dyadic_set(rng, n, dim, prefix):
    """Embeddings on the exact grid i/64, i in [-64, 64], no zero rows."""
    grid = rng.integers(-64, 65, size=(n, dim))
    zero = ~grid.any(axis=1)
    grid[zero, 0] = 1
    ids = [f"{prefix}{i:04d}" for i in range(n)]
    return EmbeddingSet(ids, (grid / 64.0).astype(np.float32))


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
        ref = (m / np.linalg.norm(m.astype(np.float64), axis=1, keepdims=True)).astype(np.float32)
        assert _renormalize(m).tobytes() == ref.tobytes()
        m[2500] = 0.0
        with pytest.raises(NormDegenerate, match="row 2500 has norm"):
            _renormalize(m)
        m[2999, 7] = np.inf  # non-finite is reported before a zero norm
        with pytest.raises(NormDegenerate, match="row 2999 is not finite"):
            _renormalize(m)


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
    """table_metrics (and evaluate through it) must give exactly the rows of
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
            assert table_metrics(fuse(tables, weights, fusion), rel, self.KS) == \
                metrics_from_rankings(ensemble(tables, weights, fusion), rel, self.KS)

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
