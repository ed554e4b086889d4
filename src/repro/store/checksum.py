"""CRC32C (Castagnoli) checksums for the store formats — no C extension.

Every payload byte the store writes is covered by a CRC32C (the polynomial
used by iSCSI, ext4 and leveldb/rocksdb manifests; hardware-accelerated on
most CPUs, which keeps the choice future-proof even though this
implementation is pure Python + numpy).  Three pieces:

:func:`crc32c`
    ``zlib.crc32``-compatible call shape: ``crc32c(b, crc32c(a)) ==
    crc32c(a + b)``.  Small buffers run a table-driven byte loop; large
    buffers take the *lane* path below.

lane-parallel bulk path
    A CRC is sequential in its input, but GF(2)-linear: the CRC of a
    concatenation is ``shift(crc_a, len_b) ^ crc_b`` where ``shift`` is a
    32x32 bit-matrix (the zlib ``crc32_combine`` construction).  So a large
    buffer is split into ``L`` equal contiguous lanes, all lane CRCs are
    advanced *together* with one vectorized table lookup per byte position
    (``L``-wide numpy gather, ``n / L`` Python-level iterations), and the
    lane results are folded left-to-right with one precomputed shift matrix.
    ~100 MB/s instead of the ~5 MB/s of a per-byte loop — the scrub pass
    runs at this speed.

:func:`crc32c_combine`
    The fold primitive, exposed because the segmented store uses it to
    derive whole-file checksums from already-known piece checksums.

Correctness is pinned by ``tests/store/test_checksum.py``: the standard
check vector (``crc32c(b"123456789") == 0x1E2_...E3069283``), lane-vs-scalar
parity on random buffers of awkward sizes, and the combine property.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = ["crc32c", "crc32c_combine", "crc32c_hex", "crc32c_rows", "ALGORITHM"]

#: Name recorded in headers next to the checksum values.
ALGORITHM = "crc32c"

#: Reflected CRC32C (Castagnoli) polynomial.
_POLY = 0x82F63B78

_MASK = 0xFFFFFFFF


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE: List[int] = _build_table()
_TABLE_NP = np.asarray(_TABLE, dtype=np.uint32)

#: Buffers below this take the plain byte loop (lane setup costs more).
_LANE_THRESHOLD = 2048

#: Bounds on the lane count: enough lanes to amortise the per-iteration
#: numpy dispatch, few enough that the GF(2) fold stays negligible.
_MIN_LANES = 16
_MAX_LANES = 1024


def _crc_bytes(data: bytes, state: int) -> int:
    """Advance the raw (pre/post-xor already applied) CRC state per byte."""
    table = _TABLE
    for byte in data:
        state = table[(state ^ byte) & 0xFF] ^ (state >> 8)
    return state


# -- GF(2) shift operators (the zlib crc32_combine construction) ----------------


def _gf2_times(matrix: Sequence[int], vec: int) -> int:
    total = 0
    index = 0
    while vec:
        if vec & 1:
            total ^= matrix[index]
        vec >>= 1
        index += 1
    return total


def _gf2_square(matrix: Sequence[int]) -> List[int]:
    return [_gf2_times(matrix, matrix[i]) for i in range(32)]


@lru_cache(maxsize=256)
def _zero_operator(nbytes: int) -> Tuple[int, ...]:
    """32x32 GF(2) matrix advancing a CRC over ``nbytes`` zero bytes.

    ``matrix[i]`` is the image of basis vector ``1 << i``; built by binary
    exponentiation of the one-byte shift operator (all powers of one matrix
    commute, so composition order is free).  Memoised: the lane path and
    :func:`crc32c_combine` ask for the same few lengths over and over.
    """
    # One zero *bit*, then square twice: 1 -> 2 -> 4 bits.
    matrix = [_POLY] + [1 << (n - 1) for n in range(1, 32)]
    matrix = _gf2_square(_gf2_square(matrix))
    result: List[int] | None = None
    n = int(nbytes)
    while n:
        matrix = _gf2_square(matrix)  # 8, 16, 32, ... zero bits
        if n & 1:
            result = (
                list(matrix) if result is None
                else [_gf2_times(matrix, result[i]) for i in range(32)]
            )
        n >>= 1
    return tuple(result if result is not None else [1 << i for i in range(32)])


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC of ``A + B`` from ``crc32c(A)``, ``crc32c(B)`` and ``len(B)``."""
    if len2 <= 0:
        return crc1 & _MASK
    return (_gf2_times(_zero_operator(len2), crc1 & _MASK) ^ crc2) & _MASK


# -- public entry points ---------------------------------------------------------


def _as_uint8(data: Union[bytes, bytearray, memoryview, np.ndarray]) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"expected a uint8 array, got dtype {data.dtype}")
        return np.ascontiguousarray(data).ravel()
    return np.frombuffer(data, dtype=np.uint8)


def crc32c(data: Union[bytes, bytearray, memoryview, np.ndarray], value: int = 0) -> int:
    """CRC32C of ``data``, continuing from ``value`` (``zlib.crc32`` shape)."""
    arr = _as_uint8(data)
    n = int(arr.size)
    if n == 0:
        return value & _MASK
    if n < _LANE_THRESHOLD:
        return (_crc_bytes(arr.tobytes(), (value & _MASK) ^ _MASK) ^ _MASK) & _MASK
    lanes = min(_MAX_LANES, max(_MIN_LANES, n // _LANE_THRESHOLD))
    width = n // lanes
    body = arr[: lanes * width]
    # Transposed copy: iteration ``j`` reads one contiguous row of every
    # lane's j-th byte, so the per-byte-position update is a single gather.
    columns = np.ascontiguousarray(body.reshape(lanes, width).T)
    state = np.full(lanes, _MASK, dtype=np.uint32)
    table = _TABLE_NP
    for j in range(width):
        state = table[(state ^ columns[j]) & np.uint32(0xFF)] ^ (state >> np.uint32(8))
    lane_crcs = (state ^ np.uint32(_MASK)).tolist()
    shift = _zero_operator(width)
    total = value & _MASK
    for lane_crc in lane_crcs:
        total = (_gf2_times(shift, total) ^ lane_crc) & _MASK
    tail = arr[lanes * width:]
    if tail.size:
        total = (_crc_bytes(tail.tobytes(), total ^ _MASK) ^ _MASK) & _MASK
    return total


def crc32c_rows(matrix: np.ndarray) -> np.ndarray:
    """CRC32C of every row of a 2-D uint8 array, vectorized across rows.

    The store's multi-column verifier: checking thousands of equal-width
    columns runs the same per-byte-position update as the lane path, except
    each row is an independent message — no fold needed, one ``uint32`` CRC
    per row comes straight out of the state vector.
    """
    arr = np.asarray(matrix)
    if arr.dtype != np.uint8 or arr.ndim != 2:
        raise TypeError(f"expected a 2-D uint8 array, got {arr.dtype} ndim={arr.ndim}")
    n_rows, width = arr.shape
    if n_rows == 0 or width == 0:
        return np.zeros(n_rows, dtype=np.uint32)
    if n_rows < _MIN_LANES:
        return np.asarray([crc32c(arr[i]) for i in range(n_rows)], dtype=np.uint32)
    columns = np.ascontiguousarray(arr.T)
    state = np.full(n_rows, _MASK, dtype=np.uint32)
    table = _TABLE_NP
    for j in range(width):
        state = table[(state ^ columns[j]) & np.uint32(0xFF)] ^ (state >> np.uint32(8))
    return state ^ np.uint32(_MASK)


def crc32c_hex(value: int) -> str:
    """Fixed-width lowercase hex rendering used in manifests and messages."""
    return f"{value & _MASK:08x}"
