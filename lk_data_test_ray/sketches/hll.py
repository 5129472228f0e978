"""HyperLogLog cardinality sketch (Flajolet et al. 2007, + small-range bias
correction per the original paper). Mergeable (register-wise max), fixed seed,
numpy-vectorized update path.

Reference analog: exact set cardinalities computed in memory
(``curation/check_fackel_references.py:63-72``,
``check_authors_exist_in_listperson.py:12,19``) — exact at toy scale, a sketch
at 10^12 rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import hash_arrow_strings, hash_strings64


class HyperLogLog:
    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def update_hashes(self, hashes: np.ndarray) -> None:
        """Add pre-hashed uint64 values (vectorized)."""
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of remaining bits + 1
        lz = np.zeros(h.size, dtype=np.uint8)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        alive = np.ones(h.size, dtype=bool)
        for _ in range(64 - self.p + 1):
            top = (cur & mask) != 0
            done = alive & top
            alive &= ~top
            if not alive.any():
                break
            lz[alive] += 1
            cur = cur << np.uint64(1)
        rank = lz + 1
        np.maximum.at(self.registers, idx, rank)

    def update_strings(self, values) -> None:
        self.update_hashes(
            pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)
        )

    def update_arrow(self, arr) -> np.ndarray:
        """Add every row of an Arrow string column, nulls included, and
        return the row hashes: ``hash_strings64(arr.to_pandas())``, so this
        equals ``update_strings(arr.to_pandas())``. One native pass over the
        column's buffers (``hashing.hash_arrow_strings``); the pandas path
        when that is unavailable or the column is not string or binary."""
        h = hash_arrow_strings(arr, self.registers)
        if h is None:
            h = hash_strings64(arr.to_pandas())
            self.update_hashes(h)
        return h

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    @classmethod
    def merge_bytes(cls, blobs: "list[bytes]") -> "HyperLogLog":
        """The merge of many ``to_bytes`` sketches of one ``p``: their
        registers stacked into one array and reduced by one ``max``."""
        p = blobs[0][0]
        if any(b[0] != p for b in blobs):
            raise ValueError("HyperLogLog merge needs one precision")
        regs = np.frombuffer(b"".join(b[1:] for b in blobs), np.uint8)
        return cls(p, regs.reshape(len(blobs), 1 << p).max(axis=0))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * np.log(m / zeros)
        return float(e)

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        p = b[0]
        return cls(p, np.frombuffer(b[1:], dtype=np.uint8).copy())
