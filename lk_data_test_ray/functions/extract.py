"""Deterministic HTML → text extraction (the C6 byte-identical invariant).

The reference's extraction is ``normalize_string(" ".join(node.xpath(".//text()")))``
(reference ``scripts/make_texts.py:377,392`` — strip markup, join text nodes,
collapse whitespace). This module is the new engine's equivalent: a **pure
function of the html bytes** — no locale, no library-version dependence, no
randomness — so that extracted text is byte-identical per url across workers,
runs and cluster sizes (BASELINE.json ``input_hint``).

Do not edit the regexes or entity table without bumping EXTRACT_VERSION: the
generator stamps `text = extract_text(html)` at generation time and check C6
re-derives it, so both sides must agree forever.

C6 runs on every row, so it first goes through ``c6scan.c``: a one-pass C
scanner that mirrors ``_STRIP``'s precedence and ``re.I | re.S`` semantics,
the entity table and the ASCII whitespace collapse of
``extract_core_bytes``, and returns only the rows whose text differs
(``c6_candidates``). It is compiled with ``gcc`` into the user cache dir on
first use; without it every row re-extracts here. ``tests/test_c6scan.py``
fuzzes the scanner against ``extract_core_bytes`` row for row. Any edit to
``_STRIP`` or ``_ENTITIES`` needs the same edit in ``c6scan.c`` and an
EXTRACT_VERSION bump.
"""

from __future__ import annotations

import ctypes
import functools
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..native import compile_library, load_or_warn

EXTRACT_VERSION = 3

# v2: ONE fused pass removes script/style blocks (with content), comments and
# tags — alternation order resolves overlaps (script-block, then comment,
# then bare tag at the same position). ~2.6x faster than the v1 sequential
# passes. Fixture caches are keyed by EXTRACT_VERSION.
# v3: the pass runs at the BYTES level (the hot path hands in zero-copy
# memoryviews of the Arrow buffer — no bytes-object allocation, no full-
# document utf-8 decode; only the extracted text is decoded at the end).
# Byte-visible semantic change vs v2: whitespace collapse is ASCII
# (bytes.split) rather than unicode (str.split) — hence the version bump.
_STRIP = re.compile(
    rb"<(script|style)\b[^>]*>.*?</\1\s*>|<!--.*?-->|<[^>]*>", re.I | re.S)
# _TAG/_WS remain for anchor-text cleanup in extract_links.
_TAG = re.compile(r"<[^>]*>")
_WS = re.compile(r"\s+")

# Minimal, fixed entity table (deterministic — deliberately NOT html.unescape,
# whose table can grow across Python versions).
_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&apos;": "'",
    "&nbsp;": " ",
}
_ENTITIES_B = {k.encode(): v.encode() for k, v in _ENTITIES.items()}
_ENTITY_RE = re.compile(b"|".join(re.escape(k) for k in _ENTITIES_B))

# href + anchor extraction for the links child table.
_A_RE = re.compile(
    r"""<a\b[^>]*\bhref\s*=\s*["']([^"']*)["'][^>]*>(.*?)</a\s*>""", re.I | re.S
)


def extract_core_bytes(html_bytes) -> bytes:
    """Bytes-level extraction core: accepts bytes / memoryview (zero-copy
    Arrow buffer slice), returns the extracted text as raw utf-8 bytes —
    no decode at all (the C6 equality check compares these directly against
    the text column's utf-8 buffer)."""
    s = _STRIP.sub(b" ", html_bytes)
    # entity pass only when an ampersand survives the strip (memchr-fast;
    # most documents carry no entities, saving a full regex scan)
    if b"&" in s:
        s = _ENTITY_RE.sub(lambda m: _ENTITIES_B[m.group(0)], s)
    return b" ".join(s.split())


def extract_text_bytes(html_bytes) -> str:
    """Bytes-level extraction, decoded (only the extracted text decodes)."""
    return extract_core_bytes(html_bytes).decode("utf-8", errors="replace")


def extract_text(html) -> str | None:
    """Pure, deterministic text extraction. None in → None out."""
    if html is None:
        return None
    if isinstance(html, str):
        html = html.encode("utf-8", errors="surrogatepass")
    return extract_text_bytes(html)


def _large(t: pa.DataType) -> bool:
    """Whether a binary/string type has 64-bit offsets."""
    return pa.types.is_large_binary(t) or pa.types.is_large_string(t)


def binary_views(arr, rows=None) -> list:
    """Zero-copy per-row memoryviews of an Arrow binary array (None for null
    rows), of every row or of the ascending row indices ``rows`` only.
    Avoids ``to_pylist``'s per-row bytes allocation — measured at ~1/3 of
    the row-phase cost on cold buffers — and never concatenates chunks."""
    chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
    rows = (np.arange(len(arr)) if rows is None
            else np.asarray(rows, dtype=np.int64))
    out, base = [], 0
    for c in chunks:
        lo, hi = np.searchsorted(rows, [base, base + len(c)])
        sel = rows[lo:hi] - base
        base += len(c)
        if not sel.size:
            continue
        bufs = c.buffers()
        off_t = np.int64 if _large(c.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=off_t,
                             count=c.offset + len(c) + 1)
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        at = sel + c.offset
        views = [data[s:e] for s, e in zip(offs[at].tolist(),
                                           offs[at + 1].tolist())]
        if c.null_count:
            valid = c.is_valid().to_numpy(zero_copy_only=False)[sel]
            views = [v if ok else None for v, ok in zip(views, valid.tolist())]
        out += views
    return out


_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "c6scan.c")


def _build_scanner():
    """Build ``c6scan.c`` (``native.compile_library``) and bind its entry
    point."""
    scan = compile_library(_C_SOURCE).c6_scan
    column = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
              ctypes.c_int, ctypes.c_void_p]
    scan.argtypes = [ctypes.c_int64, *column, *column, ctypes.c_void_p]
    scan.restype = ctypes.c_int64
    return scan


@functools.cache
def c6_scanner():
    """The native C6 scanner, or None (after one WARNING) when it cannot be
    built or loaded in this process."""
    return load_or_warn(
        _build_scanner, "C6 scanner unavailable, every row re-extracts in "
        "Python")


_EMPTY = pa.py_buffer(b"\0")


def _column_args(arr: pa.Array) -> tuple:
    """(validity, offset, offsets, 64-bit offsets?, data) of one binary or
    string array, as ``c6_scan`` takes them."""
    valid, offs, data = arr.buffers()[:3]
    return (valid.address if valid is not None and arr.null_count else None,
            arr.offset, offs.address, int(_large(arr.type)),
            (data if data is not None else _EMPTY).address)


def c6_candidates(html, text) -> np.ndarray:
    """Row indices C6 must check in Python: where html and text are both
    present and ``text != extract_core_bytes(html)`` byte for byte. Without
    the native scanner every row with both present is a candidate."""
    for col in (html, text):
        if not (pa.types.is_binary(col.type) or pa.types.is_string(col.type)
                or _large(col.type)):
            raise TypeError(f"C6 needs binary or string columns, not "
                            f"{col.type}")
    if len(html) != len(text):
        raise ValueError(f"html has {len(html)} rows, text {len(text)}")
    scan = c6_scanner()
    if scan is None:
        both = pc.and_(pc.is_valid(html), pc.is_valid(text))
        return np.flatnonzero(both.to_numpy(zero_copy_only=False))
    hc = html.chunks if isinstance(html, pa.ChunkedArray) else [html]
    tc = text.chunks if isinstance(text, pa.ChunkedArray) else [text]
    if [len(c) for c in hc] != [len(c) for c in tc]:
        hc = [pa.chunked_array(hc, html.type).combine_chunks()]
        tc = [pa.chunked_array(tc, text.type).combine_chunks()]
    out, base = [np.empty(0, np.int64)], 0
    for h, t in zip(hc, tc):
        if len(h):
            idx = np.empty(len(h), np.int64)
            k = scan(len(h), *_column_args(h), *_column_args(t),
                     idx.ctypes.data)
            out.append(idx[:k] + base)
        base += len(h)
    return np.concatenate(out)


def extract_links(html) -> list[tuple[str, str]]:
    """All (href, normalized anchor text) pairs in document order.

    Ordinals assigned by the caller are within-document positions — stable and
    content-derived, unlike the reference's iteration-order ordinals
    (``scripts/make_texts.py:375,393``).
    """
    if html is None:
        return []
    if isinstance(html, (bytes, bytearray, memoryview)):
        s = bytes(html).decode("utf-8", errors="replace")
    else:
        s = html
    out = []
    for m in _A_RE.finditer(s):
        href = m.group(1)
        anchor = _WS.sub(" ", _TAG.sub(" ", m.group(2))).strip()
        out.append((href, anchor))
    return out
