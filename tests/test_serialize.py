"""Serialization round-trip tests for the REncoder family.

The ``TestHostileInput``/``TestTruncation`` classes are the negative
side: ``loads`` must answer every malformed buffer — truncated at any
byte, bad magic, unknown class, hostile metadata, payload-length lies —
with a typed :class:`FilterError`, never an ``IndexError``/``KeyError``
or a huge allocation.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    FilterCorruptionError,
    FilterError,
    TruncatedError,
)
from repro.core.rencoder import REncoder
from repro.core.serialize import MAGIC, checksum, dumps, loads
from repro.core.two_stage import TwoStageREncoder
from repro.core.variants import REncoderPO, REncoderSE, REncoderSS
from repro.workloads.queries import uniform_range_queries


def _repack(blob: bytes, **meta_overrides) -> bytes:
    """Rewrite a v2 blob's metadata and recompute the CRC.

    Setting a field to ``None`` deletes it.  The checksum is valid, so
    ``loads`` gets past the CRC and must reject the *content*.
    """
    _, meta_len = struct.unpack_from("<HI", blob, 4)
    meta = json.loads(blob[10 : 10 + meta_len])
    for key, value in meta_overrides.items():
        if value is None:
            meta.pop(key, None)
        else:
            meta[key] = value
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    body = (
        MAGIC
        + struct.pack("<HI", 2, len(meta_blob))
        + meta_blob
        + blob[10 + meta_len : -4]
    )
    return body + struct.pack("<I", checksum(body))


def _assert_equivalent(original, restored, keys, queries):
    for k in keys[:100]:
        assert restored.query_point(int(k)) == original.query_point(int(k))
    for lo, hi in queries:
        assert restored.query_range(lo, hi) == original.query_range(lo, hi)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cls", [REncoder, REncoderSS, REncoderPO]
    )
    def test_variants(self, uniform_keys, cls):
        filt = cls(uniform_keys, bits_per_key=16, seed=3)
        restored = loads(dumps(filt))
        assert type(restored) is cls
        assert restored.stored_levels == filt.stored_levels
        assert restored.size_in_bits() == filt.size_in_bits()
        queries = uniform_range_queries(uniform_keys, 200, seed=4)
        _assert_equivalent(filt, restored, uniform_keys, queries)

    def test_se_round_trip(self, uniform_keys):
        filt = REncoderSE(
            uniform_keys, bits_per_key=16, sample_queries=[(5, 10)]
        )
        restored = loads(dumps(filt))
        assert restored.l_kq == filt.l_kq
        queries = uniform_range_queries(uniform_keys, 100, seed=5)
        _assert_equivalent(filt, restored, uniform_keys, queries)

    def test_two_stage_round_trip(self):
        rng = np.random.default_rng(6)
        values = sorted(set(float(v) for v in rng.lognormal(0, 3, 400)))
        filt = TwoStageREncoder(values, bits_per_key=24)
        restored = loads(dumps(filt))
        assert restored.offset == filt.offset
        for v in values[:100]:
            v32 = float(np.float32(v))
            assert restored.query_float(v32) == filt.query_float(v32)

    def test_metadata_preserved(self, uniform_keys):
        filt = REncoder(uniform_keys, bits_per_key=16, rmax=32, k=3,
                        seed=9)
        restored = loads(dumps(filt))
        assert restored.rmax == 32
        assert restored.rbf.k == 3
        assert restored.n_keys == filt.n_keys


class TestFormat:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads(b"XXXX" + b"\x00" * 32)

    def test_wrong_type(self, uniform_keys):
        from repro.filters.bloom import BloomFilter

        with pytest.raises(TypeError):
            dumps(BloomFilter(uniform_keys, bits_per_key=8))

    def test_truncated_payload(self, uniform_keys):
        blob = dumps(REncoder(uniform_keys, bits_per_key=16))
        with pytest.raises(Exception):
            loads(blob[: len(blob) // 2])

    def test_blob_is_compact(self, uniform_keys):
        filt = REncoder(uniform_keys, bits_per_key=16)
        blob = dumps(filt)
        # Metadata overhead stays under a KiB beyond the raw array.
        assert len(blob) < filt.size_in_bits() // 8 + 1024

    def test_v1_blob_without_trailer_still_loads(self, uniform_keys):
        filt = REncoder(uniform_keys, bits_per_key=16)
        blob = dumps(filt)
        v1 = b"RENC" + struct.pack("<H", 1) + blob[6:-4]
        restored = loads(v1)
        assert restored.stored_levels == filt.stored_levels
        for k in uniform_keys[:50]:
            assert restored.query_point(int(k))


def _forbid_rbf_allocation(monkeypatch):
    """Fail the test if ``loads`` gets as far as allocating the RBF."""

    def refuse(*args, **kwargs):
        raise AssertionError("loads allocated an RBF for a rejected blob")

    monkeypatch.setattr("repro.core.serialize.RangeBloomFilter", refuse)


@pytest.fixture(scope="module")
def small_blob():
    keys = np.unique(
        np.random.default_rng(7).integers(0, 1 << 32, 60, dtype=np.uint64)
    )
    return dumps(REncoder(keys, bits_per_key=8))


class TestTruncation:
    def test_every_truncation_length_is_typed(self, small_blob):
        """Cut the blob at *every* byte boundary: always a FilterError."""
        for cut in range(len(small_blob)):
            with pytest.raises(FilterError):
                loads(small_blob[:cut])

    def test_short_header_names_the_field(self, small_blob):
        with pytest.raises(TruncatedError, match="header"):
            loads(small_blob[:7])
        with pytest.raises(TruncatedError, match="metadata"):
            loads(small_blob[:12])

    def test_missing_checksum_is_truncation(self, small_blob):
        with pytest.raises(TruncatedError, match="checksum"):
            loads(small_blob[:-2])

    def test_empty_buffer(self):
        with pytest.raises(TruncatedError):
            loads(b"")


class TestHostileInput:
    def test_bad_magic_is_typed(self):
        with pytest.raises(FilterCorruptionError, match="magic"):
            loads(b"XXXX" + b"\x00" * 32)

    def test_unsupported_version(self, small_blob):
        body = MAGIC + struct.pack("<H", 9) + small_blob[6:-4]
        blob = body + struct.pack("<I", checksum(body))
        with pytest.raises(FilterCorruptionError, match="version"):
            loads(blob)

    def test_v3_record_rejected_before_allocation(
        self, small_blob, monkeypatch
    ):
        """Version 3 was the retired blocked-layout record; a reader
        that no longer builds that placement must refuse it up front."""
        _forbid_rbf_allocation(monkeypatch)
        blob = _repack(small_blob, layout="blocked")
        body = blob[:4] + struct.pack("<H", 3) + blob[6:-4]
        blob = body + struct.pack("<I", checksum(body))
        with pytest.raises(FilterCorruptionError, match="version 3"):
            loads(blob)

    @pytest.mark.parametrize("layout", ["blocked", "Flat", "", 0])
    def test_non_flat_layout_rejected_before_allocation(
        self, small_blob, monkeypatch, layout
    ):
        _forbid_rbf_allocation(monkeypatch)
        with pytest.raises(FilterCorruptionError, match="layout"):
            loads(_repack(small_blob, layout=layout))

    def test_explicit_flat_layout_loads(self, small_blob):
        assert loads(_repack(small_blob, layout="flat")).n_keys > 0

    def test_trailing_garbage_rejected(self, small_blob):
        with pytest.raises(FilterCorruptionError, match="trailing"):
            loads(small_blob + b"\x00")

    def test_unknown_class_is_typed_not_keyerror(self, small_blob):
        with pytest.raises(FilterCorruptionError, match="unknown filter"):
            loads(_repack(small_blob, **{"class": "EvilFilter"}))
        with pytest.raises(FilterCorruptionError):
            loads(_repack(small_blob, **{"class": None}))

    def test_undecodable_metadata(self, small_blob):
        _, meta_len = struct.unpack_from("<HI", small_blob, 4)
        body = (
            MAGIC
            + struct.pack("<HI", 2, meta_len)
            + b"\xff" * meta_len
            + small_blob[10 + meta_len : -4]
        )
        blob = body + struct.pack("<I", checksum(body))
        with pytest.raises(FilterCorruptionError, match="metadata"):
            loads(blob)

    def test_metadata_not_an_object(self, small_blob):
        meta_blob = b"[1, 2, 3]"
        body = (
            MAGIC
            + struct.pack("<HI", 2, len(meta_blob))
            + meta_blob
            + struct.pack("<I", 0)
        )
        blob = body + struct.pack("<I", checksum(body))
        with pytest.raises(FilterCorruptionError):
            loads(blob)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("group_bits", 0),       # would divide by zero downstream
            ("group_bits", 10),      # beyond the RBF's supported range
            ("group_bits", "4"),
            ("key_bits", 0),
            ("key_bits", 65),
            ("k", 0),
            ("k", 65),
            ("k", True),             # bool masquerading as int
            ("seed", -1),
            ("rmax", 0),
            ("n_keys", -5),
            ("levels_per_round", 0),
            ("max_expansion", -1),
            ("bits", 1 << 60),       # would be a huge allocation
            ("bits", 63),
            ("bits", None),          # missing entirely
            ("target_p1", 0.0),
            ("target_p1", 1.5),
            ("target_p1", "high"),
            ("stored_levels", []),
            ("stored_levels", [0]),
            ("stored_levels", [1, 999]),
            ("stored_levels", "all"),
            ("stored_levels", [True]),
            ("l_kk", -1),
            ("precision", "half"),
        ],
    )
    def test_hostile_metadata_is_typed(self, small_blob, field, value):
        with pytest.raises(FilterCorruptionError):
            loads(_repack(small_blob, **{field: value}))

    def test_bits_inconsistent_with_payload(self, small_blob):
        # In-range bits that disagree with the actual payload length must
        # be rejected before the RBF is allocated.
        with pytest.raises(FilterCorruptionError, match="geometry"):
            loads(_repack(small_blob, bits=1 << 20))

    def test_patched_payload_length_rejected(self, small_blob):
        _, meta_len = struct.unpack_from("<HI", small_blob, 4)
        pos = 10 + meta_len
        (payload_len,) = struct.unpack_from("<I", small_blob, pos)
        for lie in (payload_len + 8, payload_len - 8, 0):
            raw = bytearray(small_blob)
            struct.pack_into("<I", raw, pos, lie)
            body = bytes(raw[:-4])
            with pytest.raises(FilterError):
                loads(body + struct.pack("<I", checksum(body)))

    @given(junk=st.binary(max_size=256))
    @settings(max_examples=80, deadline=None)
    def test_fuzz_raw_bytes_never_escape_typed_errors(self, junk):
        for data in (junk, MAGIC + junk):
            try:
                loads(data)
            except FilterError:
                pass

    def test_error_messages_are_informative(self, small_blob):
        with pytest.raises(FilterCorruptionError) as exc:
            loads(_repack(small_blob, group_bits=77))
        assert "group_bits" in str(exc.value)
        assert "77" in str(exc.value)
