"""t-digest quantile sketch (Dunning & Ertl 2019) — simplified merging variant.

Mergeable, bounded size (~2*delta centroids), vectorized batch updates.
Reference analog: none (reference computes nothing distributional beyond exact
counters); mandated by the north_star's per-partition column stats.

The greedy k1 loop of ``_compress`` runs in ``tdcompress.c`` (built and
loaded by ``native.compile_library``; the stats merge at the end of a run
spent about 95% of its time in the Python loop). ``_compress_loop`` stays as
the reference and as the fallback when the build fails, and the two produce
the same bytes. Any edit to ``_compress_loop`` needs the same edit in
``tdcompress.c``; ``tests/test_sketches.py`` fuzzes one against the other.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from ..native import compile_library, load_or_warn

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "tdcompress.c")


def _build_compress():
    """Build ``tdcompress.c`` (``native.compile_library``) and bind its
    entry point."""
    fn = compile_library(_C_SOURCE).td_compress
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_double, ctypes.c_double]
    fn.restype = ctypes.c_int64
    return fn


@functools.cache
def native_compress():
    """The native compress loop, or None (after one WARNING) when it cannot
    be built or loaded in this process."""
    return load_or_warn(
        _build_compress, "t-digest compress unavailable, the Python loop "
        "runs")


def _compress_loop(m: np.ndarray, c: np.ndarray, total, delta: int):
    """Greedy merge of sorted centroids under the k1 (asin-based) scale
    function's size limit. ``tdcompress.c`` mirrors it operation for
    operation."""
    out_m, out_c = [], []
    cum = 0.0
    cur_m, cur_c = m[0], c[0]
    for i in range(1, m.size):
        q = (cum + cur_c + c[i] / 2) / total
        size_limit = 4 * total * max(q * (1 - q), 1e-9) / delta
        if cur_c + c[i] <= size_limit:
            cur_m = (cur_m * cur_c + m[i] * c[i]) / (cur_c + c[i])
            cur_c += c[i]
        else:
            out_m.append(cur_m); out_c.append(cur_c)
            cum += cur_c
            cur_m, cur_c = m[i], c[i]
    out_m.append(cur_m); out_c.append(cur_c)
    return np.array(out_m), np.array(out_c)


class TDigest:
    __slots__ = ("delta", "means", "counts", "_buf", "_compressed")

    def __init__(self, delta: int = 100,
                 means: np.ndarray | None = None,
                 counts: np.ndarray | None = None):
        self.delta = delta
        self.means = means if means is not None else np.empty(0, dtype=np.float64)
        self.counts = counts if counts is not None else np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []
        # the centroids are a compress output with nothing buffered since:
        # compressing them again gives the same bytes (fuzzed in
        # tests/test_sketches.py), so it is skipped
        self._compressed = False

    # -- update ---------------------------------------------------------------
    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size:
            self._buf.append(v)
            self._compressed = False
        if sum(b.size for b in self._buf) > 32 * self.delta:
            self._compress()

    def _compress(self) -> None:
        if self._compressed:
            return
        self._compressed = True
        if self._buf:
            new_means = np.concatenate([self.means] + self._buf)
            new_counts = np.concatenate(
                [self.counts] + [np.ones(b.size) for b in self._buf])
            self._buf = []
        else:
            new_means, new_counts = self.means, self.counts
        if new_means.size == 0:
            return
        order = np.argsort(new_means, kind="stable")
        m, c = new_means[order], new_counts[order]
        total = c.sum()  # numpy's pairwise sum: the C side must not re-sum
        fn = native_compress()
        if fn is None or m.dtype != np.float64 or c.dtype != np.float64:
            self.means, self.counts = _compress_loop(m, c, total, self.delta)
            return
        # m and c are fresh copies (fancy indexing): compressed in place
        k = fn(m.size, m.ctypes.data, c.ctypes.data, float(total),
               float(self.delta))
        self.means, self.counts = m[:k].copy(), c[:k].copy()

    # -- merge ----------------------------------------------------------------
    def merge(self, other: "TDigest") -> "TDigest":
        return TDigest.merge_many([self, other])

    @classmethod
    def merge_many(cls, digests: "list[TDigest]") -> "TDigest":
        """One-shot merge of many digests: concatenate ALL centroids, compress
        ONCE — a fold of pairwise merges compresses O(n) times and dominated
        the driver's stats-merge wall time at 160 partition partials."""
        if not digests:
            return cls()
        for d in digests:
            d._compress()
        # the compress sort is stable, so tied means keep concatenation
        # order: concatenate in one canonical order of the digests, and the
        # result depends only on which digests merge, not on their order
        digests = sorted(digests, key=lambda d: (d.means.tobytes(),
                                                 d.counts.tobytes()))
        out = cls(digests[0].delta,
                  np.concatenate([d.means for d in digests]),
                  np.concatenate([d.counts for d in digests]))
        out._compress()
        return out

    # -- query ----------------------------------------------------------------
    def quantile(self, q: float) -> float:
        self._compress()
        if self.means.size == 0:
            return float("nan")
        total = self.counts.sum()
        target = q * total
        cum = np.cumsum(self.counts) - self.counts / 2
        return float(np.interp(target, cum, self.means))

    def count(self) -> float:
        self._compress()
        return float(self.counts.sum())

    # -- serialization --------------------------------------------------------
    def to_bytes(self) -> bytes:
        self._compress()
        n = self.means.size
        return (self.delta.to_bytes(4, "little") + n.to_bytes(4, "little")
                + self.means.tobytes() + self.counts.tobytes())

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        delta = int.from_bytes(b[:4], "little")
        n = int.from_bytes(b[4:8], "little")
        means = np.frombuffer(b[8:8 + 8 * n], dtype=np.float64).copy()
        counts = np.frombuffer(b[8 + 8 * n:8 + 16 * n], dtype=np.float64).copy()
        out = cls(delta, means, counts)
        out._compressed = True  # to_bytes compressed it
        return out
