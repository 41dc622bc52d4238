"""Round-trips and corruption handling for the three binary formats."""

import struct

import numpy as np
import pytest

from skyalign import binio
from skyalign.errors import FormatError


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
