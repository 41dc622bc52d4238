"""Round-trips and corruption handling for the three binary formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from skyalign import binio
from skyalign.errors import FormatError
from skyalign.model import _checkpoint_shapes

from oracles import (
    read_outcome,
    record_read_embeddings,
    record_read_features,
    record_write_embeddings,
    record_write_features,
    same_read,
)


class TestFeatures:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = ["b0_sat", "b0_d00", "vue_élévation"]  # non-ascii id allowed
        kinds = [binio.KIND_SAT_CODE, binio.KIND_DRONE_CODE, binio.KIND_DRONE_CODE]
        vectors = rng.standard_normal((3, 6)).astype(np.float32)
        azimuths = [0.0, 123.25, 359.5]
        masked = [False, False, True]
        path = tmp_path / "f.bin"
        binio.write_features(path, ids, kinds, vectors, azimuths, masked)
        r_ids, r_kinds, r_vecs, r_az, r_masked = binio.read_features(path)
        assert r_ids == ids
        assert list(r_kinds) == kinds
        assert np.array_equal(r_vecs, vectors)
        assert np.array_equal(r_az, np.array(azimuths, dtype=np.float32))
        assert list(r_masked) == masked

    def test_deterministic_bytes(self, tmp_path):
        vectors = np.arange(8, dtype=np.float32).reshape(2, 4)
        args = (["a", "b"], [0, 1], vectors, [1.5, 2.5], [False, True])
        binio.write_features(tmp_path / "a.bin", *args)
        binio.write_features(tmp_path / "b.bin", *args)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            binio.read_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_features(path, ["a", "b"], [0, 1],
                             np.zeros((2, 3), dtype=np.float32), [0.0, 0.0], [False, False])
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="truncated"):
            binio.read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_features(path, ["a", "b"], [0, 1],
                             np.zeros((2, 3), dtype=np.float32), [0.0, 0.0], [False, False])
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            binio.read_features(path)

    def test_bad_kind_code(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_features(path, ["a", "b"], [0, 1],
                             np.zeros((2, 1), dtype=np.float32), [0.0, 0.0], [False, False])
        raw = bytearray(path.read_bytes())
        # first record: magic(4) + header(8) + idlen(2) + id(1) -> kind byte
        raw[15] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad kind code"):
            binio.read_features(path)

    @pytest.mark.parametrize("field,value", [("vector", np.nan), ("azimuth", np.inf)])
    def test_non_finite_rejected(self, tmp_path, field, value):
        vectors = np.zeros((3, 2), dtype=np.float32)
        azimuths = [0.0, 90.0, 180.0]
        if field == "vector":
            vectors[1, 1] = value
        else:
            azimuths[1] = value
        path = tmp_path / "f.bin"
        binio.write_features(path, ["a", "b", "c"], [0, 1, 1], vectors, azimuths,
                             [False, False, True])
        with pytest.raises(FormatError, match=f"f.bin: record 1: {field} is not finite"):
            binio.read_features(path)

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            binio.write_features(tmp_path / "f.bin", ["only-one"], [0, 1],
                                 np.zeros((2, 3), dtype=np.float32), [0.0, 0.0], [False, False])


class TestOversizedHeaders:
    """Headers that claim more data than the file holds fail before any
    allocation, and ids that are not UTF-8 fail as format errors."""

    def test_features_count_and_dim_2_31(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(binio.FEA_MAGIC + struct.pack("<II", 2**31, 2**31))
        with pytest.raises(FormatError, match="truncated"):
            binio.read_features(path)

    def test_embeddings_count_and_dim_2_31(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(binio.EMB_MAGIC + struct.pack("<II", 2**31, 2**31))
        with pytest.raises(FormatError, match="truncated"):
            binio.read_embeddings(path)

    def test_checkpoint_dims_2_32_minus_1(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(binio.CKP_MAGIC + struct.pack("<I", binio.CKP_VERSION)
                         + struct.pack("<IIII", *[2**32 - 1] * 4))
        with pytest.raises(FormatError, match="truncated"):
            binio.read_checkpoint(path, TestCheckpoint._shapes)

    def test_non_utf8_feature_id(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_features(path, ["a"], [0], np.zeros((1, 2), dtype=np.float32),
                             [0.0], [False])
        raw = bytearray(path.read_bytes())
        raw[14] = 0xFF  # the id's one byte, after magic, header and length
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            binio.read_features(path)

    def test_non_utf8_embedding_id(self, tmp_path):
        path = tmp_path / "e.bin"
        binio.write_embeddings(path, ["a"], np.ones((1, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[-1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            binio.read_embeddings(path)


class TestEmbeddings:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ids = [f"q{i}" for i in range(5)]
        matrix = rng.standard_normal((5, 7)).astype(np.float32)
        path = tmp_path / "e.bin"
        binio.write_embeddings(path, ids, matrix)
        r_ids, r_mat = binio.read_embeddings(path)
        assert r_ids == ids
        assert np.array_equal(r_mat, matrix)

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "e.bin"
        binio.write_embeddings(path, ["x"], np.array([[1.0, -2.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"EMB1"
        count, dim = struct.unpack("<II", raw[4:12])
        assert (count, dim) == (1, 2)
        assert struct.unpack("<ff", raw[12:20]) == (1.0, -2.0)
        assert struct.unpack("<H", raw[20:22]) == (1,)
        assert raw[22:23] == b"x"

    def test_truncated_id_block(self, tmp_path):
        path = tmp_path / "e.bin"
        binio.write_embeddings(path, ["ab", "cd"], np.zeros((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated"):
            binio.read_embeddings(path)


    @pytest.mark.parametrize("n", [0, 2])
    def test_zero_dim_rejected(self, tmp_path, n):
        # the package writer refuses dim 0, so the file comes from the reference writer
        path = tmp_path / "e.bin"
        record_write_embeddings(path, [f"r{i}" for i in range(n)], np.zeros((n, 0)))
        with pytest.raises(FormatError, match="e.bin: embedding dim 0 must be >= 1"):
            binio.read_embeddings(path)

    @pytest.mark.parametrize("n", [0, 2])
    def test_zero_dim_not_written(self, tmp_path, n):
        path = tmp_path / "e.bin"
        with pytest.raises(ValueError, match="embedding dim 0 must be >= 1"):
            binio.write_embeddings(path, [f"r{i}" for i in range(n)], np.zeros((n, 0)))
        assert not path.exists()


def feature_columns(rng, n, dim):
    ids = (["", "vue_élévation", "x" * 300] + [f"b{i}_d{i % 7:02d}" for i in range(n)])[:n]
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    vectors[:, :1] = -0.0
    return (ids, rng.integers(0, 2, n).tolist(), vectors,
            (rng.random(n) * 360).tolist(), (rng.random(n) < 0.3).tolist())


class TestTableAtATime:
    """FEA1 and EMB1 read and written a table at a time: the same bytes,
    fields and error messages as the record-by-record references."""

    @pytest.mark.parametrize("n,dim", [(0, 0), (0, 3), (1, 0), (1, 1), (7, 5), (40, 2)])
    def test_same_bytes_and_fields_as_record_by_record(self, tmp_path, n, dim):
        rng = np.random.default_rng(n * 10 + dim)
        cols = feature_columns(rng, n, dim)
        binio.write_features(tmp_path / "f.bin", *cols)
        record_write_features(tmp_path / "ref.bin", *cols)
        assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        assert same_read(binio.read_features(tmp_path / "f.bin"),
                         record_read_features(tmp_path / "f.bin"))
        if dim:
            binio.write_embeddings(tmp_path / "e.bin", cols[0], cols[2])
            record_write_embeddings(tmp_path / "eref.bin", cols[0], cols[2])
            assert (tmp_path / "e.bin").read_bytes() == (tmp_path / "eref.bin").read_bytes()
            assert same_read(binio.read_embeddings(tmp_path / "e.bin"),
                             record_read_embeddings(tmp_path / "e.bin"))

    @pytest.mark.parametrize("fmt", ["features", "embeddings"])
    def test_every_cut_and_byte_fails_as_record_by_record(self, tmp_path, fmt):
        # every prefix, every byte set to each of a few values, and one more
        # byte; the last id is long enough that the header's size check lets
        # every cut inside the last record through
        cols = feature_columns(np.random.default_rng(5), 3, 2)
        cols = (["", "é", "a-longer-last-id"],) + cols[1:]
        path = tmp_path / "f.bin"
        if fmt == "features":
            binio.write_features(path, *cols)
            read, ref = binio.read_features, record_read_features
        else:
            binio.write_embeddings(path, cols[0], cols[2])
            read, ref = binio.read_embeddings, record_read_embeddings
        good = path.read_bytes()
        variants = [good[:cut] for cut in range(len(good))] + [good + b"\x00"]
        variants += [good[:i] + bytes([b]) + good[i + 1:]
                     for i in range(len(good)) for b in (0, 1, 2, 0x80, 0xFF)]
        for data in variants:
            path.write_bytes(data)
            got, want = read_outcome(read, path), read_outcome(ref, path)
            if fmt == "embeddings" and data[8:12] == bytes(4) and data[:4] == binio.EMB_MAGIC:
                want = f"FormatError: {path}: embedding dim 0 must be >= 1"
            assert same_read(got, want), (data, got, want)

    def test_bad_kind_reported_before_a_later_truncation(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_features(path, ["aaaa", "bbbb"], [0, 1],
                             np.zeros((2, 1), dtype=np.float32), [0.0, 0.0], [False, False])
        raw = bytearray(path.read_bytes())
        raw[18] = 9  # magic(4) + header(8) + idlen(2) + id(4) -> the first kind byte
        path.write_bytes(bytes(raw[:-3]))
        with pytest.raises(FormatError, match="record 0: bad kind code 9"):
            binio.read_features(path)

    def test_read_temporaries_stay_near_the_returned_arrays(self, tmp_path):
        # beyond what it returns, the reader holds about the file and a byte
        # mask over it; an n x record-width int64 index would be 8x the records
        rng = np.random.default_rng(6)
        n, dim = 4_000, 64
        ids = [f"b{i // 11:04d}_d{i % 11:02d}" for i in range(n)]
        binio.write_features(tmp_path / "f.bin", ids, rng.integers(0, 2, n),
                             rng.standard_normal((n, dim)), rng.random(n), rng.random(n) < 0.1)
        tracemalloc.start()
        try:
            views = binio.read_features(tmp_path / "f.bin")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in views[1:])
        assert peak - kept < 3 * arrays


class TestCheckpoint:
    @staticmethod
    def _shapes(dims):
        m, h, e, hr = dims
        return [(h, m + 2), (h,), (e, h), (e,), (hr, 2 * e), (hr,)]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        dims = (4, 5, 3, 8)
        arrays = [rng.standard_normal(s).astype(np.float32) for s in self._shapes(dims)]
        path = tmp_path / "c.bin"
        binio.write_checkpoint(path, dims, arrays, 0.07)
        r_dims, r_arrays, r_tau = binio.read_checkpoint(path, self._shapes)
        assert r_dims == dims
        for a, b in zip(arrays, r_arrays):
            assert np.array_equal(a, b)
        assert r_tau == np.float32(0.07)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "c.bin"
        binio.write_checkpoint(path, (1, 1, 1, 1),
                               [np.zeros(s, dtype=np.float32) for s in self._shapes((1, 1, 1, 1))],
                               1.0)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            binio.read_checkpoint(path, self._shapes)

    @pytest.mark.parametrize("which", range(7))  # the six arrays, then the temperature
    def test_non_finite_rejected(self, tmp_path, which):
        dims = (2, 3, 2, 4)
        arrays = [np.ones(s, dtype=np.float32) for s in self._shapes(dims)]
        tau = 0.07
        if which < len(arrays):
            arrays[which].flat[-1] = np.nan
        else:
            tau = np.inf
        path = tmp_path / "c.bin"
        binio.write_checkpoint(path, dims, arrays, tau)
        what = f"array {which}" if which < len(arrays) else "temperature"
        with pytest.raises(FormatError, match=f"c.bin: {what}.* is not finite"):
            binio.read_checkpoint(path, self._shapes)

    @pytest.mark.parametrize("which", range(4), ids=["m", "h", "e", "head_rows"])
    def test_zero_dim_rejected(self, tmp_path, which):
        # the body is complete for the dims, so only the dim rule rejects it
        dims = [3, 4, 5, 8]
        dims[which] = 0
        path = tmp_path / "c.bin"
        binio.write_checkpoint(path, dims,
                               [np.ones(s, dtype=np.float32) for s in self._shapes(dims)], 0.07)
        with pytest.raises(FormatError, match=r"dims .* must all be >= 1"):
            binio.read_checkpoint(path, _checkpoint_shapes)
