"""Stable, process-independent hashing helpers.

Everything here must be deterministic across Python processes and workers
(``hash()`` is salted per process and is never used). Vectorized paths use
``pandas.util.hash_array`` (SipHash with a fixed key — stable across processes
and pandas versions by contract) and numpy.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os

import numpy as np
import pandas as pd

from ..native import compile_library, load_or_warn

_MERSENNE61 = (1 << 61) - 1


def stable_hash64(s: str | bytes) -> int:
    """Stable 64-bit hash of one string (blake2b-8)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")


def hash_strings64(values) -> np.ndarray:
    """Vectorized stable uint64 hash of an array of strings.

    Used to shuffle 8-byte url hashes instead of full urls in the C1
    uniqueness check — ~10x shuffle-volume reduction on typical urls.
    """
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


_STRHASH_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "strhash.c")


def _build_strhash():
    """Build ``strhash.c`` (``native.compile_library``) and bind its entry
    point."""
    fn = compile_library(_STRHASH_SOURCE).str_hash_hll
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
    fn.restype = None
    return fn


@functools.cache
def strhash_kernel():
    """The native string hash, or None (after one WARNING) when it cannot
    be built or loaded in this process."""
    return load_or_warn(
        _build_strhash, "string hash kernel unavailable, pandas hashes "
        "every row")


_EMPTY = ctypes.create_string_buffer(1)  # data of an all-empty column


def hash_arrow_strings(arr, registers: np.ndarray) -> np.ndarray | None:
    """``hash_strings64(arr.to_pandas())`` of an Arrow string or binary
    column (nulls hash as ``"None"``), read straight from its buffers by
    ``strhash.c``, and the same hashes added to ``registers``, the uint8
    registers of a HyperLogLog with ``2**p`` of them, in the same pass. No
    Python object per row. None, with ``registers`` untouched, when the
    kernel is unavailable or the column has another type: the caller then
    runs the pandas reference."""
    import pyarrow as pa

    fn = strhash_kernel()
    t = arr.type
    if fn is None or not (pa.types.is_string(t) or pa.types.is_binary(t)
                          or pa.types.is_large_string(t)
                          or pa.types.is_large_binary(t)):
        return None
    p = int(registers.size).bit_length() - 1
    wide = int(pa.types.is_large_string(t) or pa.types.is_large_binary(t))
    out, base = np.empty(len(arr), np.uint64), 0
    chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
    for c in chunks:
        if len(c):
            valid, offs, data = c.buffers()[:3]
            fn(len(c), valid.address if valid is not None and c.null_count
               else None, c.offset, offs.address, wide,
               data.address if data is not None
               else ctypes.addressof(_EMPTY),
               out[base:].ctypes.data, registers.ctypes.data, p)
        base += len(c)
    return out


_MD5_CON = None  # per-process cached DuckDB connection (workers are 1-thread)


def _md5_con():
    global _MD5_CON
    if _MD5_CON is None:
        import duckdb

        _MD5_CON = duckdb.connect()
    return _MD5_CON


def _duck_exec(sql: str, tbl, view: str):
    """Run one query on the cached connection, surviving stale interrupts.

    Ray cancels straggler/obsolete tasks by raising KeyboardInterrupt
    inside the worker; when one lands while (or just before) the cached
    DuckDB connection is executing, the connection's interrupt flag can
    outlive the cancelled task and abort the NEXT task's query on the
    REUSED worker with ``RuntimeError: Query interrupted`` — observed as
    a mid-bench flake on ``md5_hex_ints``. Interrupt-shaped errors
    therefore discard the cached connection and retry once on a fresh
    one; real errors propagate."""
    global _MD5_CON
    for attempt in (0, 1):
        con = _md5_con()
        con.register(view, tbl)
        try:
            return con.execute(sql).arrow()
        except Exception as ex:
            if attempt or "interrupt" not in str(ex).lower():
                raise
            try:
                con.close()
            except Exception:
                pass
            _MD5_CON = None
        finally:
            try:
                con.unregister(view)
            except Exception:
                pass


def md5_hex(values) -> np.ndarray:
    """Vectorized md5 hex digests (matches DuckDB/hashlib ``md5(text)``).

    md5 is the engine-neutral deterministic-sampling-key spec on the
    ``td_shuffle_shards``/``o_stratified_sample`` scale paths, so the hot
    path computes it with DuckDB's C kernel over a zero-copy Arrow column
    (~3x the hashlib loop, zero per-row Python); a hashlib fallback keeps
    the function importable without duckdb. NULLs stay NULL both ways."""
    import pyarrow as pa

    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(values), pa.string())
    try:
        _md5_con()
    except ImportError:
        return np.array(
            [None if v is None else hashlib.md5(v.encode("utf-8")).hexdigest()
             for v in arr.to_pylist()],
            dtype=object)
    out = _duck_exec("SELECT md5(v) AS h FROM _md5_in",
                     pa.table({"v": arr}), "_md5_in")
    return np.asarray(out.column("h").to_pandas(), dtype=object)


def md5_hex_ints(ids) -> np.ndarray:
    """md5 hex of each integer's decimal string — the common sampling-key
    shape ``md5(str(id))`` — without materializing Python strings: the
    int64 array goes to DuckDB as-is and the VARCHAR cast + md5 both run
    in its C kernels. Equal to ``md5_hex([str(i) for i in ids])``."""
    import pyarrow as pa

    a = np.asarray(ids, np.int64)
    if not len(a):
        return np.empty(0, dtype=object)
    try:
        _md5_con()
    except ImportError:
        return np.array([hashlib.md5(str(i).encode()).hexdigest()
                         for i in a], dtype=object)
    out = _duck_exec("SELECT md5(CAST(v AS VARCHAR)) AS h FROM _md5_in",
                     pa.table({"v": pa.array(a)}), "_md5_in")
    return np.asarray(out.column("h").to_pandas(), dtype=object)


def md5_sum_mod(values, mod: int = (1 << 61) - 1) -> tuple[int, int]:
    """Order-independent content partial over one string column: the sum of
    each row's 60-bit md5 prefix, reduced mod a Mersenne prime — the
    mergeable per-block unit behind ``v_table_fingerprint``. Two tables are
    byte-equal as SETS of canonical rows iff (n, fingerprint) match (modulo
    the 2^-60-scale collision/cancellation odds). Engine-neutral spec:
    DuckDB's ``sum(('0x' || substr(md5(v), 1, 15))::BIGINT) % mod``; the
    hot path runs the md5 + hex-prefix cast in DuckDB's C kernels over a
    zero-copy Arrow column (hashlib fallback keeps it importable).
    Returns ``(n_non_null_rows, partial_sum_mod)``."""
    import pyarrow as pa

    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(values), pa.string())
    try:
        _md5_con()
    except ImportError:
        hs = [int(hashlib.md5(v.encode("utf-8")).hexdigest()[:15], 16)
              for v in arr.to_pylist() if v is not None]
        return len(hs), sum(hs) % mod
    out = _duck_exec(
        "SELECT count(v) AS n, coalesce(sum(CAST(('0x' || substr(md5(v), 1, "
        "15)) AS BIGINT)), 0) AS s FROM _md5_in",
        pa.table({"v": arr}), "_md5_in")
    return int(out.column("n")[0].as_py()), int(out.column("s")[0].as_py()) % mod


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Winnowing-style document fingerprint: min of rolling polynomial hashes.

    A content-derived document identity robust to position (used by the
    fingerprinting text-analysis stage; exact-dup detection uses md5).
    """
    if not text:
        return 0
    data = text.encode("utf-8")
    if len(data) <= window:
        return stable_hash64(data)
    base = 257
    h = 0
    pw = pow(base, window - 1, _MERSENNE61)
    best = _MERSENNE61
    for i, b in enumerate(data):
        h = (h * base + b) % _MERSENNE61
        if i >= window:
            h = (h - data[i - window] * pw * base) % _MERSENNE61
        if i >= window - 1 and h < best:
            best = h
    return best


def minhash_signature(tokens: list[str], num_perm: int, seed: int = 7) -> np.ndarray:
    """MinHash signature over a token set (vectorized over permutations AND
    tokens).

    Universal hashing ``(a*x + b) mod p`` over a base 64-bit token hash;
    a/b drawn from a seeded RNG and the base hash from ``pd.util.hash_array``
    (SipHash, fixed key) — stable across processes, one vectorized call per
    document instead of a Python blake2b per shingle (~10x per-doc).
    """
    params = _minhash_params(num_perm, seed)
    if not tokens:
        return np.full(num_perm, _MERSENNE61 - 1, dtype=np.uint64)
    uniq = np.array(sorted(set(tokens)), dtype=object)
    base = pd.util.hash_array(uniq, categorize=False) % np.uint64(_MERSENNE61)
    a, b = params
    # (num_perm, n_tokens) — fine for doc-sized token sets
    vals = (a[:, None] * base[None, :] + b[:, None]) % _MERSENNE61
    return vals.min(axis=1)


def minhash_signatures_batch(shingle_lists: "list[list[str]]",
                             num_perm: int, seed: int = 7) -> np.ndarray:
    """MinHash signatures for a BATCH of documents in one shot: one
    ``hash_array`` call over all shingles + per-permutation segmented
    ``np.minimum.reduceat`` — removes the per-document pandas call overhead
    (~30µs/doc) of mapping ``minhash_signature`` over a batch. Exactly equal
    to the scalar function (min is order- and duplicate-insensitive, and the
    uint64 wraparound arithmetic is identical); property-tested.
    """
    params = _minhash_params(num_perm, seed)
    n = len(shingle_lists)
    out = np.full((n, num_perm), _MERSENNE61 - 1, dtype=np.uint64)
    counts = np.array([len(s) for s in shingle_lists], dtype=np.int64)
    live = counts > 0
    if not live.any():
        return out
    flat = np.array([s for lst in shingle_lists for s in lst], dtype=object)
    base = pd.util.hash_array(flat, categorize=False) % np.uint64(_MERSENNE61)
    offsets = np.concatenate([[0], np.cumsum(counts[live])[:-1]])
    a, b = params
    sigs = np.empty((int(live.sum()), num_perm), dtype=np.uint64)
    for p in range(num_perm):
        v = (a[p] * base + b[p]) % _MERSENNE61
        sigs[:, p] = np.minimum.reduceat(v, offsets)
    out[live] = sigs
    return out


_PARAM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _minhash_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    if key not in _PARAM_CACHE:
        rng = np.random.default_rng(seed)
        a = rng.integers(1, _MERSENNE61, size=num_perm, dtype=np.uint64)
        b = rng.integers(0, _MERSENNE61, size=num_perm, dtype=np.uint64)
        _PARAM_CACHE[key] = (a, b)
    return _PARAM_CACHE[key]


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token multiset (near-dup by Hamming distance)."""
    if not tokens:
        return 0
    hashes = pd.util.hash_array(np.asarray(tokens, dtype=object), categorize=False)
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    votes = (2 * bits - 1).sum(axis=0)
    return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def minhash_from_token_hashes(tok_hashes: np.ndarray, counts: np.ndarray,
                              num_perm: int, seed: int = 7) -> np.ndarray:
    """MinHash signatures for a batch from PRE-HASHED tokens — the
    zero-string-materialization path for 2-gram word shingles.

    ``minhash_signatures_batch`` hashes one Python string per shingle
    (~600M string constructions per 4.8M-doc corpus — the measured hot spot
    of the LSH dedup stage). Here a shingle's hash is an FNV-style fold of
    its two consecutive token hashes, fully vectorized; hash VALUES differ
    from the string path (both are uniform 61-bit), so candidate sets are
    statistically identical but not bitwise — fine for the no-oracle LSH
    family, asserted by the recall tests.

    Short docs follow the string path's semantics: one token → one
    "shingle" (fold of that token alone); zero tokens → sentinel signature.
    """
    n = len(counts)
    out = np.full((n, num_perm), _MERSENNE61 - 1, dtype=np.uint64)
    total = int(counts.sum())
    if total == 0:
        return out
    offs = np.concatenate([[0], np.cumsum(counts)])
    FNV, P = np.uint64(0xCBF29CE484222325), np.uint64(0x100000001B3)
    th = tok_hashes.astype(np.uint64, copy=False)
    f1 = (FNV ^ th) * P                      # fold of one token
    nxt = np.empty(total, dtype=np.uint64)   # token hash at pos+1
    nxt[:-1] = th[1:]
    nxt[-1] = 0
    f2 = (f1 ^ nxt) * P                      # fold of two consecutive tokens
    scnt = np.where(counts == 0, 0, np.maximum(counts - 1, 1))
    live = scnt > 0
    soffs = np.concatenate([[0], np.cumsum(scnt)])
    gidx = (np.repeat(offs[:-1], scnt)
            + (np.arange(int(soffs[-1])) - np.repeat(soffs[:-1], scnt)))
    vals = f2[gidx]
    singles = np.flatnonzero(counts == 1)
    if len(singles):
        # their single gathered f2 folded across a doc boundary — replace
        # with the fold of just their own token
        vals[soffs[singles]] = f1[offs[singles]]
    base = vals % np.uint64(_MERSENNE61)
    a, b = _minhash_params(num_perm, seed)
    red_offs = soffs[:-1][live]
    sigs = np.empty((int(live.sum()), num_perm), dtype=np.uint64)
    for p in range(num_perm):
        v = (a[p] * base + b[p]) % _MERSENNE61
        sigs[:, p] = np.minimum.reduceat(v, red_offs)
    out[live] = sigs
    return out


def simhash64_batch(tok_hashes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SimHash for a batch of documents from the pre-hashed flat token
    stream — bitwise EQUAL to mapping ``simhash64`` over the docs (the
    per-token hash is the same elementwise ``pd.util.hash_array``; the bit
    vote is order-insensitive), but one vectorized bit-expand + segmented
    sum instead of a Python call per document. Zero-token docs → 0."""
    n = len(counts)
    out = np.zeros(n, dtype=np.uint64)
    total = int(counts.sum())
    if total == 0:
        return out
    th = tok_hashes.astype(np.uint64, copy=False)
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int32)
    offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
    live = counts > 0
    sums = np.add.reduceat(bits, offs[live], axis=0)  # ones per bit per doc
    votes = 2 * sums - counts[live][:, None]          # ones - zeros
    packed = ((votes > 0).astype(np.uint64)
              << np.arange(64, dtype=np.uint64)[None, :]).sum(
                  axis=1, dtype=np.uint64)
    out[live] = packed
    return out


def rolling_fingerprints_batch(strings, window: int = 16) -> np.ndarray:
    """Batch ``rolling_fingerprint`` over an Arrow string array — bitwise
    EQUAL to the scalar (property-tested), zero-copy over the utf-8 buffer.

    The scalar walks every byte in Python (~len(text) big-int ops per doc —
    a hot-path row loop). Here every window hash of every document is
    computed in ``window`` vectorized passes over the flat byte buffer:
    Mersenne-61 modular arithmetic stays in uint64 via a split multiply
    (×257 = rot53(hi·257) + lo·257, since ×2^53 mod 2^61−1 is a 61-bit
    rotation) and one shift-add reduction per pass. Only the rare short doc
    (≤ window bytes → blake2b path) costs a Python call; nulls → 0.
    """
    import pyarrow as pa

    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    n = len(strings)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    odtype = (np.int64 if pa.types.is_large_string(strings.type)
              or pa.types.is_large_binary(strings.type) else np.int32)
    offs = np.frombuffer(strings.buffers()[1], dtype=odtype)[
        strings.offset:strings.offset + n + 1].astype(np.int64)
    data = np.frombuffer(strings.buffers()[2], dtype=np.uint8)
    lens = offs[1:] - offs[:-1]

    M = np.uint64(_MERSENNE61)
    long = lens > window
    if long.any():
        nw = np.where(long, lens - window + 1, 0)
        tot = int(nw.sum())
        doc_rep = np.repeat(np.arange(n), nw)
        w_off = np.zeros(n + 1, np.int64)
        np.cumsum(nw, out=w_off[1:])
        starts = (offs[:-1][doc_rep]
                  + (np.arange(tot) - w_off[:-1][doc_rep]))
        h = np.zeros(tot, np.uint64)
        lo_mask = np.uint64((1 << 53) - 1)
        for j in range(window):
            hi257 = (h >> np.uint64(53)) * np.uint64(257)
            t1 = (hi257 >> np.uint64(8)) + ((hi257 & np.uint64(0xFF))
                                            << np.uint64(53))
            s = (t1 + (h & lo_mask) * np.uint64(257)
                 + data[starts + j].astype(np.uint64))
            s = (s & M) + (s >> np.uint64(61))
            h = np.where(s >= M, s - M, s)
        out[long] = np.minimum.reduceat(h, w_off[:-1][long])
    # short non-empty docs: blake2b of the raw bytes (scalar path semantics)
    short = (lens > 0) & ~long
    for i in np.nonzero(short)[0]:
        out[i] = stable_hash64(data[offs[i]:offs[i + 1]].tobytes())
    # null/empty rows stay 0 (scalar: ``text or ""`` → 0)
    return out


def gram_hash_pairs(tok_hashes: np.ndarray, counts: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """128-bit k-gram hashes from PRE-HASHED tokens, fully vectorized.

    For each row (``counts[i]`` consecutive token hashes in ``tok_hashes``)
    emits one (h1, h2) uint64 pair per k-token window — two independent
    FNV-style folds over the window, O(k) vectorized passes total, zero
    per-gram Python/string work. Two grams collide only if BOTH 64-bit
    folds collide (~2^-128 per pair): the constant-width exchange key that
    replaces gram strings in span-level dedup at scale.

    Returns ``(h1, h2, row_of_gram)``; rows with fewer than k tokens emit
    no grams (``max(counts - k + 1, 0)`` per row, same as
    ``word_ngrams_batch``).
    """
    counts = counts.astype(np.int64, copy=False)
    offs = np.concatenate([[0], np.cumsum(counts)])
    gcnt = np.maximum(counts - k + 1, 0)
    G = int(gcnt.sum())
    grow = np.repeat(np.arange(len(counts), dtype=np.int64), gcnt)
    if G == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.uint64), grow)
    goffs = np.concatenate([[0], np.cumsum(gcnt)])
    gstart = (np.arange(G, dtype=np.int64)
              - np.repeat(goffs[:-1], gcnt) + offs[grow])
    th = tok_hashes.astype(np.uint64, copy=False)
    FNV1 = np.uint64(0xCBF29CE484222325)
    P1 = np.uint64(0x100000001B3)
    FNV2 = np.uint64(0x9E3779B97F4A7C15)
    P2 = np.uint64(0xC2B2AE3D27D4EB4F)
    h1 = np.full(G, FNV1, dtype=np.uint64)
    h2 = np.full(G, FNV2, dtype=np.uint64)
    for j in range(k):
        t = th[gstart + j]
        h1 = (h1 ^ t) * P1
        h2 = (h2 + t) * P2 + np.uint64(j)
    return h1, h2, grow


def hash64_arrow(values) -> np.ndarray:
    """uint64 hash per string row via DuckDB's vectorized ``hash()`` C
    kernel — zero Python string objects (the input stays an Arrow array
    end-to-end), ~5x the ``hash_strings64`` object-array path on gram-scale
    columns. Deterministic across processes for one DuckDB build, which is
    all the callers need: the value is a WITHIN-JOB exchange/factorize key
    (shingle identity in ``shingle_jaccard_pairs_matmul``), never persisted.
    Falls back to ``hash_strings64`` without duckdb."""
    import pyarrow as pa

    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(values), pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, np.uint64)
    try:
        _md5_con()
    except ImportError:
        return hash_strings64(
            np.asarray(arr.to_numpy(zero_copy_only=False), dtype=object))
    out = _duck_exec("SELECT hash(v) AS h FROM _h64_in",
                     pa.table({"v": arr}), "_h64_in")
    return out.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)


def md5_int32(values) -> np.ndarray:
    """``int(md5(v)[:8], 16)`` per row, vectorized via the DuckDB C
    kernel (same connection cache as ``md5_hex``) — the engine-neutral
    deterministic CHOICE value for walk/shard sampling: any engine can
    reproduce it as ``CAST('0x' || substr(md5(v), 1, 8) AS BIGINT)``.
    hashlib fallback keeps the function importable without duckdb."""
    import pyarrow as pa

    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(values), pa.string())
    try:
        _md5_con()
    except ImportError:
        return np.array(
            [int(hashlib.md5(v.encode()).hexdigest()[:8], 16)
             for v in arr.to_pylist()], dtype=np.int64)
    out = _duck_exec(
        "SELECT CAST(('0x' || substr(md5(v), 1, 8)) AS BIGINT) AS h"
        " FROM _md5i_in", pa.table({"v": arr}), "_md5i_in")
    return out.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
