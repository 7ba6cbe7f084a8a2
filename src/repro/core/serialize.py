r"""Serialization for the REncoder family and the RBF.

An LSM-tree persists its per-SSTable filters next to the table so they
can be loaded into memory on restart without a rebuild.  This module
provides a compact, versioned binary format:

* header: magic, version, class name, key geometry (key_bits, group_bits,
  k, seed, rmax), the stored-level bitmap, and key count;
* payload: the raw RBF words;
* trailer (v2): a CRC32 over header **and** payload, so any torn write
  or bit flip anywhere in the blob is detected at load time.

v2 layout (all integers little-endian)::

    +------+---------+----------+------------+-------------+---------+--------+
    | RENC | version | meta_len |   meta     | payload_len | payload |  crc32 |
    | 4 B  |  u16=2  |   u32    | JSON bytes |     u32     |  words  |  u32   |
    +------+---------+----------+------------+-------------+---------+--------+
    \________________________ crc32 covers this span ________________/

``dumps``/``loads`` round-trip every variant (base, SS, SE, PO and the
Two-Stage float filter) bit-exactly: a loaded filter answers every query
identically to the original, which the tests verify.

Every RBF places its ``k`` windows independently at bit-granular
offsets (the paper's layout), so the record carries no layout field.
Version 3 and any ``layout`` metadata other than ``"flat"`` are
rejected: they name a placement this reader would misinterpret.

``loads`` is strict: every field is bounds-checked *before* it is used,
so hostile or damaged input raises a typed error from
:mod:`repro.core.errors` — :class:`TruncatedError` when the buffer ends
early, :class:`FilterCorruptionError` for everything else (bad magic,
checksum mismatch, unknown class, metadata outside the ranges the
constructors accept) — never an ``IndexError``/``KeyError``, a huge
allocation, or a silently wrong filter.  v1 blobs (no trailer) are still
readable with the same validation minus the checksum.
"""

from __future__ import annotations

import json
import struct
import time
import zlib

import numpy as np

from repro.core.errors import (
    FilterCorruptionError,
    TruncatedError,
)
from repro.core.rbf import RangeBloomFilter
from repro.core.rencoder import REncoder
from repro.core.two_stage import TwoStageREncoder
from repro.core.variants import REncoderPO, REncoderSE, REncoderSS
from repro.telemetry.registry import global_registry
from repro.telemetry.tracing import current_span

__all__ = ["dumps", "loads", "checksum", "MAGIC", "VERSION"]

MAGIC = b"RENC"
VERSION = 2

#: group_bits bound mirrors RangeBloomFilter's constructor check.
_MAX_GROUP_BITS = 9
_MAX_K = 64
_U64 = 1 << 64

_CLASSES = {
    cls.__name__: cls
    for cls in (REncoder, REncoderSS, REncoderSE, REncoderPO,
                TwoStageREncoder)
}


def checksum(data: bytes) -> int:
    """The CRC32 used by the v2 format (and the SSTable manifest)."""
    return zlib.crc32(data) & 0xFFFF_FFFF


def _observe_codec_ns(op: str, start_ns: int, nbytes: int) -> None:
    """Record one encode/decode timing on the global registry + trace."""
    elapsed = time.perf_counter_ns() - start_ns  # lint: allow[wall-clock-in-simulated-path]
    global_registry().histogram(
        f"serialize_{op}_ns",
        help=f"wall time of serialize.{op} per call",
        labels={"component": "serialize"},
    ).observe(elapsed)
    sp = current_span()
    if sp is not None:
        sp.add(f"serialize_{op}_ns", elapsed)
        sp.add(f"serialize_{op}_bytes", nbytes)


def dumps(filt: REncoder) -> bytes:
    """Serialize a built REncoder-family filter to bytes (v2, checksummed)."""
    start_ns = time.perf_counter_ns()  # lint: allow[wall-clock-in-simulated-path] — codec telemetry
    if type(filt).__name__ not in _CLASSES:
        raise TypeError(
            f"cannot serialize {type(filt).__name__}; expected one of "
            f"{sorted(_CLASSES)}"
        )
    meta = {
        "class": type(filt).__name__,
        "key_bits": filt.key_bits,
        "group_bits": filt.group_bits,
        "k": filt.rbf.k,
        "seed": filt.rbf.seed,
        "rmax": filt.rmax,
        "n_keys": filt.n_keys,
        "target_p1": filt.target_p1,
        "levels_per_round": filt.levels_per_round,
        "max_expansion": filt.max_expansion,
        "ancestor_checks": filt.ancestor_checks,
        "stored_levels": filt.stored_levels,
        "bits": filt.rbf.bits,
    }
    for attr in ("l_kk", "l_kq", "t_exp", "exp_bits", "offset", "precision"):
        if hasattr(filt, attr):
            meta[attr] = getattr(filt, attr)
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    payload = filt.rbf._array.astype("<u8").tobytes()
    body = b"".join(
        [
            MAGIC,
            struct.pack("<HI", VERSION, len(meta_blob)),
            meta_blob,
            struct.pack("<I", len(payload)),
            payload,
        ]
    )
    blob = body + struct.pack("<I", checksum(body))
    _observe_codec_ns("dumps", start_ns, len(blob))
    return blob


# ----------------------------------------------------------------------
# strict decoding helpers
# ----------------------------------------------------------------------
def _need(data: bytes, offset: int, count: int, what: str) -> None:
    """Bounds check: the next ``count`` bytes must exist."""
    if offset + count > len(data):
        raise TruncatedError(
            f"truncated blob: need {count} byte(s) for {what} at offset "
            f"{offset}, have {len(data) - offset}"
        )


def _meta_int(meta: dict, key: str, lo: int, hi: int) -> int:
    """A required integer metadata field within ``[lo, hi]``."""
    value = meta.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FilterCorruptionError(
            f"metadata field {key!r} must be an integer, got {value!r}"
        )
    if not lo <= value <= hi:
        raise FilterCorruptionError(
            f"metadata field {key!r}={value} outside [{lo}, {hi}]"
        )
    return value


def _meta_number(meta: dict, key: str) -> float:
    value = meta.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FilterCorruptionError(
            f"metadata field {key!r} must be a number, got {value!r}"
        )
    return float(value)


def _validate_meta(meta: dict) -> type:
    """Range-check every metadata field; return the filter class.

    Runs *before* any allocation, so hostile metadata (``group_bits=0``
    divide-by-zero, ``bits=2**60`` huge allocation, negative counts)
    is rejected while the only memory held is the raw input buffer.
    """
    if not isinstance(meta, dict):
        raise FilterCorruptionError(
            f"metadata must be a JSON object, got {type(meta).__name__}"
        )
    name = meta.get("class")
    cls = _CLASSES.get(name)
    if cls is None:
        raise FilterCorruptionError(
            f"unknown filter class {name!r}; expected one of "
            f"{sorted(_CLASSES)}"
        )
    key_bits = _meta_int(meta, "key_bits", 1, 64)
    _meta_int(meta, "group_bits", 1, _MAX_GROUP_BITS)
    _meta_int(meta, "k", 1, _MAX_K)
    _meta_int(meta, "seed", 0, _U64 - 1)
    _meta_int(meta, "rmax", 1, _U64 - 1)
    _meta_int(meta, "n_keys", 0, _U64 - 1)
    _meta_int(meta, "levels_per_round", 1, 64)
    _meta_int(meta, "max_expansion", 0, _U64 - 1)
    _meta_int(meta, "bits", 64, 1 << 50)
    target_p1 = _meta_number(meta, "target_p1")
    if not 0.0 < target_p1 <= 1.0:
        raise FilterCorruptionError(
            f"metadata field 'target_p1'={target_p1} outside (0, 1]"
        )
    levels = meta.get("stored_levels")
    if (
        not isinstance(levels, list)
        or not levels
        or not all(
            isinstance(l, int) and not isinstance(l, bool)
            and 1 <= l <= key_bits
            for l in levels
        )
    ):
        raise FilterCorruptionError(
            "metadata field 'stored_levels' must be a non-empty list of "
            f"levels in [1, {key_bits}], got {levels!r}"
        )
    for key in ("l_kk", "l_kq", "exp_bits"):
        if key in meta:
            _meta_int(meta, key, 0, 64)
    for key in ("t_exp", "offset"):
        if key in meta:
            _meta_number(meta, key)
    if "precision" in meta and meta["precision"] not in ("single", "double"):
        raise FilterCorruptionError(
            f"metadata field 'precision' must be 'single' or 'double', "
            f"got {meta['precision']!r}"
        )
    if meta.get("layout", "flat") != "flat":
        raise FilterCorruptionError(
            f"metadata field 'layout' must be 'flat', got {meta['layout']!r}"
        )
    return cls


def _expected_payload_bytes(bits: int, group_bits: int) -> int:
    """Serialized RBF array size implied by the metadata geometry.

    Mirrors :class:`RangeBloomFilter.__init__`: ``nwords`` data words
    plus the single pad word, 8 bytes each.
    """
    words_per_block = max(1, (1 << (group_bits + 1)) // 64)
    nwords = max(words_per_block, bits // 64)
    return (nwords + 1) * 8


def loads(data: bytes) -> REncoder:
    """Reconstruct a filter serialized by :func:`dumps`.

    Raises :class:`TruncatedError` if ``data`` ends before the declared
    fields do, :class:`FilterCorruptionError` on bad magic, checksum
    mismatch, hostile metadata, or geometry/payload inconsistencies.
    """
    start_ns = time.perf_counter_ns()  # lint: allow[wall-clock-in-simulated-path] — codec telemetry
    data = bytes(data)
    _need(data, 0, 10, "header")
    if data[:4] != MAGIC:
        raise FilterCorruptionError(
            "not a serialized REncoder (bad magic "
            f"{data[:4]!r}, expected {MAGIC!r})"
        )
    version, meta_len = struct.unpack_from("<HI", data, 4)
    if version not in (1, VERSION):
        raise FilterCorruptionError(
            f"unsupported version {version} (supported: 1, {VERSION})"
        )
    offset = 10
    _need(data, offset, meta_len, "metadata")
    try:
        meta = json.loads(data[offset : offset + meta_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FilterCorruptionError(f"undecodable metadata: {exc}") from exc
    offset += meta_len
    _need(data, offset, 4, "payload length")
    (payload_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    _need(data, offset, payload_len, "payload")
    payload_end = offset + payload_len
    trailer = len(data) - payload_end
    if version >= 2:
        if trailer < 4:
            raise TruncatedError(
                "truncated blob: need 4 byte(s) for checksum at offset "
                f"{payload_end}, have {trailer}"
            )
        if trailer > 4:
            raise FilterCorruptionError(
                f"{trailer - 4} trailing byte(s) after checksum"
            )
        (stored_crc,) = struct.unpack_from("<I", data, payload_end)
        actual_crc = checksum(data[:payload_end])
        if stored_crc != actual_crc:
            raise FilterCorruptionError(
                f"checksum mismatch: stored {stored_crc:#010x}, "
                f"computed {actual_crc:#010x}"
            )
    elif trailer:
        raise FilterCorruptionError(
            f"{trailer} trailing byte(s) after v1 payload"
        )

    cls = _validate_meta(meta)
    expected = _expected_payload_bytes(meta["bits"], meta["group_bits"])
    if payload_len != expected:
        raise FilterCorruptionError(
            f"payload length {payload_len} does not match filter geometry "
            f"(bits={meta['bits']}, group_bits={meta['group_bits']} "
            f"implies {expected} bytes)"
        )
    words = np.frombuffer(data[offset:payload_end], dtype="<u8").astype(
        np.uint64
    )

    # Rebuild the object field-by-field; construction must not re-run
    # (the keys are gone — only the RBF payload survives).
    filt = cls.__new__(cls)
    filt.key_bits = meta["key_bits"]
    filt.n_keys = meta["n_keys"]
    filt.rmax = meta["rmax"]
    filt.target_p1 = meta["target_p1"]
    filt.levels_per_round = meta["levels_per_round"]
    filt.max_expansion = meta["max_expansion"]
    filt.ancestor_checks = meta.get("ancestor_checks", True)
    from repro.core.bitmap_tree import BitmapTreeCodec
    from repro.hashing.mix64 import seeds_for

    filt.codec = BitmapTreeCodec(meta["group_bits"])
    filt.group_bits = meta["group_bits"]
    filt.num_groups = (
        meta["key_bits"] + meta["group_bits"] - 1
    ) // meta["group_bits"]
    filt._group_tags = seeds_for(
        filt.num_groups + 2, meta["seed"] ^ 0x7461_6773
    )
    filt._zero_bt = np.zeros(filt.codec.words, dtype=np.uint64)
    filt._zero_bt.setflags(write=False)
    filt.rbf = RangeBloomFilter(
        meta["bits"], meta["k"], meta["group_bits"], meta["seed"]
    )
    if len(words) != len(filt.rbf._array):
        raise FilterCorruptionError(
            "payload length does not match filter geometry"
        )
    filt.rbf._array[:] = words
    filt._stored = np.zeros(meta["key_bits"] + 1, dtype=bool)
    for level in meta["stored_levels"]:
        filt._stored[level] = True
    filt._finalise_levels()
    filt.final_p1 = filt.rbf.p1
    for attr in ("l_kk", "l_kq", "t_exp", "exp_bits", "offset", "precision"):
        if attr in meta:
            setattr(filt, attr, meta[attr])
    if cls is REncoderSE:
        filt._sample_queries = []
    if cls is TwoStageREncoder:
        from repro.core.two_stage import double_to_key, float_to_key

        filt._encode = (
            float_to_key if meta.get("precision", "single") == "single"
            else double_to_key
        )
    filt.verify_invariants()
    _observe_codec_ns("loads", start_ns, len(data))
    return filt
