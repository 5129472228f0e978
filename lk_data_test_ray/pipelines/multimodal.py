"""Multimodal (binary-payload) stages: sniff / decode / feature-extract /
frame-sample as actor-pool ``map_batches`` stages.

No reference analog (the reference is text/XML only) — this is the 'Beyond
the reference' multimodal component. Media columns are opaque ``binary`` with
typed metadata. Decode is REAL for formats expressible with stdlib + numpy:
PPM P6 (raw bytes), PNG (stdlib zlib inflate + per-scanline unfilter, all 5
filter types), RIFF/WAVE PCM (header walk). JPEG/WebM genuinely need codec
libraries not in this container and are skipped-with-kind — the ``DECODERS``
registry is the seam where a deployment plugs them in (once per actor).
``fake=True`` keeps a deterministic stub decoder for plumbing tests.

Scale notes: large payloads ⇒ SMALL ``batch_size`` (a batch × concurrency
must fit the worker heap); payload bytes stay zero-copy Arrow buffers until
the (vectorized) sniff; decoded features drop the payload column so the heavy
bytes never flow downstream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

# magic-byte prefixes → media kind (deterministic sniff table)
MAGIC = [
    (b"P6", "image/ppm"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"GIF8", "image/gif"),
    (b"RIFF", "audio/wav"),
    (b"ID3", "audio/mp3"),
    (b"\x1aE\xdf\xa3", "video/webm"),
    (b"<html", "text/html"),
    (b"<!doc", "text/html"),
    (b"<!DOC", "text/html"),
]

MEDIA_META_SCHEMA = pa.schema([
    pa.field("url", pa.string()),
    pa.field("kind", pa.string()),
    pa.field("n_bytes", pa.int64()),
])


def sniff_kind(payload_prefixes: list[bytes | None]) -> list[str]:
    # null payload → sentinel string (group keys must be non-null: Ray's
    # sort-based groupby cannot order None against str)
    out = []
    for p in payload_prefixes:
        if p is None:
            out.append("none/missing")
            continue
        kind = "application/octet-stream"
        for magic, k in MAGIC:
            if p[: len(magic)] == magic:
                kind = k
                break
        out.append(kind)
    return out


def sniff_kind_batch(payload) -> pa.Array:
    """Vectorized sniff: one 8-byte slice + one equality pass per magic.

    No two MAGIC entries can match the same prefix (none is a prefix of
    another), so match order is irrelevant and a flat if_else chain equals
    the scalar first-match loop (property-tested in tests/test_multimodal).
    """
    if isinstance(payload, pa.ChunkedArray):
        payload = payload.combine_chunks()
    prefix = pc.binary_slice(payload, 0, 8)
    kind = pa.nulls(len(prefix), pa.string())
    kind = pc.fill_null(kind, "application/octet-stream")
    for magic, k in MAGIC:
        hit = pc.fill_null(
            pc.equal(pc.binary_slice(prefix, 0, len(magic)),
                     pa.scalar(magic, type=prefix.type)), False)
        kind = pc.if_else(hit, pa.scalar(k, pa.string()), kind)
    return pc.if_else(pc.is_null(payload), pa.scalar("none/missing"),
                      kind)


def payload_meta_table(batch: pa.Table, id_col: str = "url",
                       payload_col: str = "html") -> pa.Table:
    """(id, kind, n_bytes) rows for one Arrow slab — fully vectorized."""
    n_bytes = pc.coalesce(
        pc.binary_length(batch[payload_col]), pa.scalar(0)).cast(pa.int64())
    return pa.table({
        "url": batch[id_col].cast(pa.string()),
        "kind": sniff_kind_batch(batch[payload_col]).cast(pa.string()),
        "n_bytes": n_bytes,
    }, schema=MEDIA_META_SCHEMA)


class DecodeStage:
    """Actor-pool decode → feature-extract stage over a binary media column.

    Output schema: (url, kind, width, height, n_channels, feat: list<float>).
    A real deployment replaces ``_decode_real`` with a PIL/ffmpeg call; setup
    (model/codec load) belongs in ``__init__``, once per actor.
    """

    FEAT_DIM = 8

    def __init__(self, id_col: str = "url", payload_col: str = "html",
                 fake: bool = False, target_size: tuple[int, int] = (64, 64)):
        # fake=False decodes RAW formats (PPM P6) for REAL — pure bytes +
        # numpy, no codec library; payloads in codec formats (jpeg/png/...)
        # are skipped with their kind intact (a deployment registers their
        # decoders here, once per actor). fake=True keeps the deterministic
        # stub that treats any payload's bytes as pixels.
        self.fake = fake
        self.id_col, self.payload_col = id_col, payload_col
        self.target_size = target_size

    def _decode_fake(self, payload: bytes) -> np.ndarray:
        """Deterministic fake decode: payload bytes → small 'pixel' array."""
        h = np.frombuffer(payload, dtype=np.uint8)
        side = int(np.sqrt(len(h))) or 1
        img = h[: side * side].reshape(side, side).astype(np.float64)
        return img

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, kinds, ws, hs, chans, feats = [], [], [], [], [], []
        prefixes = [None if v is None else bytes(v)[:8]
                    for v in batch[self.payload_col].to_pylist()]
        kind_list = sniff_kind(prefixes)
        for rid, payload, kind in zip(
                batch[self.id_col].to_pylist(),
                batch[self.payload_col].to_pylist(), kind_list):
            if payload is None:
                continue
            if self.fake:
                img = self._decode_fake(bytes(payload))
                nch = 1
                pooled = mean_pool(img[:, :, None], self.target_size)
            elif kind in DECODERS:
                try:
                    img = DECODERS[kind](bytes(payload))  # REAL decode
                except (ValueError, IndexError, KeyError):
                    # Corrupt/truncated payloads are routine at web scale:
                    # skip the row, never the task. Truncation inside the
                    # gif/jpeg header walks surfaces as IndexError (and a
                    # missing Huffman table as KeyError), not just ValueError.
                    continue
                nch = img.shape[2]
                pooled = mean_pool(img, self.target_size)
                img = img.mean(axis=2)  # gray for the histogram feature
            else:
                continue  # codec format: no decoder in this container
            urls.append(str(rid))
            kinds.append(kind)
            ws.append(img.shape[1])
            hs.append(img.shape[0])
            chans.append(nch)
            # feature extract: fixed-dim histogram over the POOLED pixels
            hist, _ = np.histogram(pooled.mean(axis=2), bins=self.FEAT_DIM,
                                   range=(0, 256))
            feats.append((hist / max(pooled[:, :, 0].size, 1))
                         .astype(np.float32))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "n_channels": pa.array(chans, pa.int32()),
            "feat": pa.array([f.tolist() for f in feats],
                             pa.list_(pa.float32())),
        })


def decode_features(ds: rd.Dataset, id_col: str = "url",
                    payload_col: str = "html", fake: bool = True,
                    batch_size: int = 256, concurrency=2) -> rd.Dataset:
    """Actor-pool decode/feature stage; small batches for large payloads."""
    return ds.select_columns([id_col, payload_col]).map_batches(
        DecodeStage,
        fn_constructor_kwargs=dict(id_col=id_col, payload_col=payload_col,
                                   fake=fake),
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency,
        max_restarts=0)


class FrameSampleStage:
    """Video frame-sampling stub: emits every-nth 'frame' offsets per payload.

    Real impl would demux with ffmpeg; the stub derives deterministic frame
    boundaries from payload length so the flat-map layout (1 payload → N
    frame rows keyed by (url, frame_idx)) is exercised for real.
    """

    def __init__(self, id_col: str = "url", payload_col: str = "html",
                 every_n: int = 10, fake: bool = False):
        # fake=False REALLY demuxes streams of concatenated P6 frames
        # (header-walk only — pixel bytes untouched); payloads that are
        # not P6 streams are skipped (compressed-video demuxers are not
        # in this container). fake=True keeps the length-derived stub.
        self.fake = fake
        self.id_col, self.payload_col, self.every_n = id_col, payload_col, every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, idxs, offs = [], [], []
        for rid, payload in zip(batch[self.id_col].to_pylist(),
                                batch[self.payload_col].to_pylist()):
            if payload is None:
                continue
            if self.fake:
                n_frames = max(1, len(payload) // 1024)
                for fi in range(0, n_frames, self.every_n):
                    urls.append(str(rid))
                    idxs.append(fi)
                    offs.append(fi * 1024)
                continue
            if bytes(payload[:2]) != b"P6":
                continue  # not an uncompressed P6 stream: no demuxer here
            for fi, off, _w, _h in ppm_stream_frames(bytes(payload)):
                if fi % self.every_n == 0:
                    urls.append(str(rid))
                    idxs.append(fi)
                    offs.append(off)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "byte_offset": pa.array(offs, pa.int64()),
        })


# ---------------------------------------------------------------------------
# REAL raw-format image codec (pure bytes + numpy — no codec library):
# PPM P6. Codec formats (jpeg/png/webm) stay out of scope in this
# container; a deployment adds their decoders in DecodeStage.__init__.
# ---------------------------------------------------------------------------

RAW_DECODABLE = {"image/ppm"}

# kind → REAL decoder fn (payload bytes → uint8 HxWxC). ppm is raw bytes;
# png is stdlib-zlib + numpy unfilter (below). jpeg/webm need codec
# libraries not in this container — a deployment registers them here.
DECODERS: dict = {}


def ppm_encode(img: np.ndarray) -> bytes:
    """uint8 HxWx3 array → binary PPM (P6)."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("ppm_encode expects uint8 HxWx3")
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def _ppm_header(payload: bytes, start: int = 0) -> tuple[int, int, int]:
    """Parse one P6 header at ``start`` → (width, height, data_offset).
    Handles comments and arbitrary header whitespace per the netpbm spec."""
    if payload[start:start + 2] != b"P6":
        raise ValueError("not a P6 PPM")
    # header = magic + 3 ints (w, h, maxval), '#' comments to end-of-line
    fields, i, n = [], start + 2, len(payload)
    while len(fields) < 3:
        while i < n and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < n and payload[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < n and not payload[j:j + 1].isspace():
            j += 1
        fields.append(int(payload[i:j]))
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only maxval=255 PPM supported")
    return w, h, i


def ppm_decode(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) → uint8 HxWx3 array."""
    w, h, i = _ppm_header(payload)
    data = np.frombuffer(payload, dtype=np.uint8, count=w * h * 3, offset=i)
    return data.reshape(h, w, 3).copy()


def ppm_stream_frames(payload: bytes):
    """REAL demux of a stream of concatenated P6 frames (the
    uncompressed-video shape): yields (frame_idx, byte_offset, width,
    height) by walking headers — one header parse per frame, never
    touching pixel bytes."""
    off, idx, n = 0, 0, len(payload)
    while off < n:
        w, h, data_start = _ppm_header(payload, off)
        yield idx, off, w, h
        off = data_start + w * h * 3
        idx += 1


def mean_pool(img: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Deterministic 'resize': block-mean pooling down to ≤ target (crops
    to a factor multiple; a no-op when already at or below target)."""
    th, tw = target
    fh, fw = max(img.shape[0] // th, 1), max(img.shape[1] // tw, 1)
    hh, ww = img.shape[0] // fh * fh, img.shape[1] // fw * fw
    v = img[:hh, :ww].astype(np.float64)
    v = v.reshape(hh // fh, fh, ww // fw, fw, -1).mean(axis=(1, 3))
    return v


# ---------------------------------------------------------------------------
# REAL PNG codec — stdlib zlib + numpy only (no codec library): critical-chunk
# walk, IDAT inflate, per-scanline unfilter per the PNG spec (all 5 filter
# types), 8-bit gray / gray+alpha / RGB / RGBA, no interlace, no palette.
# This moves the "real decode" boundary to cover the most common web image
# format; JPEG/WebM genuinely need codec libraries and stay documented stubs
# (a deployment registers their decoders in DecodeStage.__init__).
# ---------------------------------------------------------------------------

_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # color type → samples per pixel


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


def png_encode(img: np.ndarray, filters: str | int = "cycle",
               compress_level: int = 6) -> bytes:
    """uint8 HxW / HxWxC (C∈{1,2,3,4}) array → PNG bytes.

    ``filters``: per-scanline filter selection — an int fixes one type,
    ``"cycle"`` uses ``y % 5`` so every filter type (None/Sub/Up/Average/
    Paeth) appears in multi-row images; all five are computed vectorized
    from the reconstructed image (left/up/upper-left are just shifts)."""
    import struct
    import zlib

    if img.dtype != np.uint8 or img.ndim not in (2, 3):
        raise ValueError("png_encode expects uint8 HxW or HxWxC")
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ch = img.shape
    colt = {1: 0, 2: 4, 3: 2, 4: 6}[ch]
    bpp = ch
    arr = img.reshape(h, w * ch).astype(np.int16)
    up = np.zeros_like(arr)
    up[1:] = arr[:-1]
    left = np.zeros_like(arr)
    left[:, bpp:] = arr[:, :-bpp]
    ul = np.zeros_like(arr)
    ul[1:, bpp:] = arr[:-1, :-bpp]
    cand = np.empty((5, h, w * ch), np.uint8)
    cand[0] = arr.astype(np.uint8)
    cand[1] = (arr - left).astype(np.uint8)          # Sub
    cand[2] = (arr - up).astype(np.uint8)            # Up
    cand[3] = (arr - ((left + up) >> 1)).astype(np.uint8)  # Average
    p = left + up - ul                                # Paeth predictor
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
    pred = np.where((pa <= pb) & (pa <= pc), left,
                    np.where(pb <= pc, up, ul))
    cand[4] = (arr - pred).astype(np.uint8)
    ftypes = (np.arange(h) % 5 if filters == "cycle"
              else np.full(h, int(filters)))
    raw = np.empty((h, w * ch + 1), np.uint8)
    raw[:, 0] = ftypes
    raw[:, 1:] = cand[ftypes, np.arange(h)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, colt, 0, 0, 0)
    return (_PNG_MAGIC + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT",
                         zlib.compress(raw.tobytes(), compress_level))
            + _png_chunk(b"IEND", b""))


def png_decode(payload: bytes) -> np.ndarray:
    """PNG bytes → uint8 HxWxC array (REAL decode: chunk walk + zlib inflate
    + per-scanline unfilter). None/Sub/Up unfilter vectorized per line (Sub
    is a modular cumsum over per-channel lanes); Average/Paeth carry a
    left-pixel dependency so they run a per-pixel loop vectorized over
    channels — at a 100-TB multimodal curation scale the loop is bounded by
    image width, and the stage parallelism is per-payload anyway."""
    import zlib

    if payload[:8] != _PNG_MAGIC:
        raise ValueError("not a PNG payload")
    i, n = 8, len(payload)
    w = h = ch = None
    idat = []
    while i + 8 <= n:
        ln = int.from_bytes(payload[i:i + 4], "big")
        ctype = payload[i + 4:i + 8]
        data = payload[i + 8:i + 8 + ln]
        if ctype == b"IHDR":
            w = int.from_bytes(data[0:4], "big")
            h = int.from_bytes(data[4:8], "big")
            bitd, colt, _comp, _filt, interlace = data[8:13]
            if bitd != 8 or colt not in _PNG_CHANNELS or interlace != 0:
                raise ValueError(
                    f"unsupported PNG (bitdepth={bitd} colortype={colt} "
                    f"interlace={interlace}); only 8-bit non-interlaced "
                    "gray/GA/RGB/RGBA")
            ch = _PNG_CHANNELS[colt]
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"IEND":
            break
        i += 12 + ln
    if w is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    raw = zlib.decompress(b"".join(idat))
    stride = w * ch
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG scanline data length mismatch")
    raw = np.frombuffer(raw, np.uint8).reshape(h, stride + 1)
    ftypes, lines = raw[:, 0], raw[:, 1:]
    out = np.empty((h, stride), np.uint8)
    prev = np.zeros(stride, np.uint8)
    bpp = ch
    for y in range(h):
        f, line = int(ftypes[y]), lines[y]
        if f == 0:
            rec = line.copy()
        elif f == 1:  # Sub: modular prefix-sum over per-channel lanes
            rec = np.cumsum(line.reshape(w, bpp), axis=0,
                            dtype=np.uint8).reshape(stride)
        elif f == 2:  # Up
            rec = line + prev  # uint8 wraps mod 256 per the spec
        elif f == 3:  # Average: floor((left+up)/2), left-sequential
            rec = np.empty(stride, np.uint8)
            la = np.zeros(bpp, np.int16)
            p16 = prev.astype(np.int16)
            l16 = line.astype(np.int16)
            for x in range(0, stride, bpp):
                la = (l16[x:x + bpp] + ((la + p16[x:x + bpp]) >> 1)) & 0xFF
                rec[x:x + bpp] = la
        elif f == 4:  # Paeth, left-sequential
            rec = np.empty(stride, np.uint8)
            la = np.zeros(bpp, np.int16)
            ua = np.zeros(bpp, np.int16)
            p16 = prev.astype(np.int16)
            l16 = line.astype(np.int16)
            for x in range(0, stride, bpp):
                b = p16[x:x + bpp]
                p = la + b - ua
                pa, pb, pc = np.abs(p - la), np.abs(p - b), np.abs(p - ua)
                pred = np.where((pa <= pb) & (pa <= pc), la,
                                np.where(pb <= pc, b, ua))
                la = (l16[x:x + bpp] + pred) & 0xFF
                ua = b
                rec[x:x + bpp] = la
        else:
            raise ValueError(f"bad PNG filter type {f}")
        out[y] = rec
        prev = rec
    return out.reshape(h, w, ch)


DECODERS["image/ppm"] = ppm_decode
DECODERS["image/png"] = png_decode


# ---------------------------------------------------------------------------
# REAL GIF codec: GIF89a LZW — pure stdlib + numpy, no codec library.
# The decoder is the deployment path (GIF is the third most common web image
# format after JPEG/PNG); the encoder exists to render deterministic
# fixtures, exactly like png_encode. Non-interlaced only (interlaced and
# animated payloads raise with a clear kind — the actor-registry seam).
# ---------------------------------------------------------------------------


def _lzw_encode(indices: np.ndarray, mcs: int) -> bytes:
    """GIF-variant LZW over palette indices → raw code-stream bytes
    (LSB-first bit packing, caller wraps into 255-byte sub-blocks).

    Emits CLEAR first, grows the code width when the next table code would
    no longer fit (mirror of the decoder's ``next == 1<<width`` rule, one
    step ahead), and resets with CLEAR when the table hits 4096 codes."""
    clear, end = 1 << mcs, (1 << mcs) + 1
    out = bytearray()
    acc = n_bits = 0

    def emit(code: int, width: int):
        nonlocal acc, n_bits
        acc |= code << n_bits
        n_bits += width
        while n_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            n_bits -= 8

    width = mcs + 1
    emit(clear, width)
    table: dict = {}
    next_code = end + 1
    px = indices.ravel()
    cur = int(px[0])
    for k in px[1:].tolist():
        key = (cur, k)
        hit = table.get(key)
        if hit is not None:
            cur = hit
            continue
        emit(cur, width)
        if next_code < 4096:
            table[key] = next_code
            next_code += 1
            if next_code == (1 << width) + 1 and width < 12:
                width += 1
        else:  # table full: reset so both sides stay in sync
            emit(clear, width)
            table.clear()
            next_code = end + 1
            width = mcs + 1
        cur = k
    emit(cur, width)
    emit(end, width)
    if n_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes, mcs: int, n_expected: int) -> np.ndarray:
    """GIF-variant LZW code stream → palette indices (uint8 array)."""
    clear, end = 1 << mcs, (1 << mcs) + 1
    # dictionary as (prefix_code, suffix_byte) arrays — materializing each
    # entry's full byte string is O(len) per add; chains stay O(1)
    prefix = np.full(4096, -1, np.int32)
    suffix = np.zeros(4096, np.uint8)
    suffix[:clear] = np.arange(clear, dtype=np.uint8)
    out = np.empty(n_expected + 4096, np.uint8)  # slack for the last entry
    n_out = 0
    width = mcs + 1
    next_code = end + 1
    prev = -1
    acc = n_bits = pos = 0
    buf = np.frombuffer(data, np.uint8)
    scratch = np.empty(4096, np.uint8)

    def expand(code: int) -> int:
        """Write code's byte string into scratch (reversed walk), return len."""
        n = 0
        c = code
        while c >= 0:
            scratch[n] = suffix[c]
            n += 1
            c = prefix[c] if c >= clear else -1
            if c < clear and c >= 0:  # root code: one more byte then stop
                scratch[n] = suffix[c]
                n += 1
                break
        return n

    while n_out < n_expected:
        while n_bits < width:
            if pos >= len(buf):
                raise ValueError("GIF LZW stream truncated")
            acc |= int(buf[pos]) << n_bits
            pos += 1
            n_bits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        n_bits -= width
        if code == clear:
            prefix[:] = -1
            next_code = end + 1
            width = mcs + 1
            prev = -1
            continue
        if code == end:
            break
        if prev < 0:  # first code after clear: a root code
            if code >= clear:
                raise ValueError("GIF LZW: non-root first code")
            out[n_out] = suffix[code]
            n_out += 1
            prev = code
            continue
        if code < next_code:
            n = expand(code)
        elif code == next_code:  # KwKwK case: prev's string + its first byte
            n = expand(prev)
            # scratch holds reversed(prev_string); the entry is
            # prev_string + first_byte, whose reverse is
            # [first_byte] + reversed(prev_string)
            first = scratch[n - 1]
            scratch[1:n + 1] = scratch[:n].copy()
            scratch[0] = first
            n += 1
        else:
            raise ValueError("GIF LZW: code out of range")
        entry_first = scratch[n - 1]  # reversed order: last slot = first byte
        out[n_out:n_out + n] = scratch[:n][::-1]
        n_out += n
        if next_code < 4096:
            prefix[next_code] = prev
            suffix[next_code] = entry_first
            next_code += 1
            if next_code == (1 << width) and width < 12:
                width += 1
        prev = code
    if n_out < n_expected:
        raise ValueError("GIF LZW: decoded fewer pixels than expected")
    return out[:n_expected]


def gif_encode(indices: np.ndarray, palette: np.ndarray) -> bytes:
    """(H, W) uint8 palette indices + (N, 3) uint8 palette → GIF89a bytes
    with a global color table and REAL LZW-compressed image data."""
    import struct

    if indices.dtype != np.uint8 or indices.ndim != 2:
        raise ValueError("gif_encode expects uint8 HxW palette indices")
    h, w = indices.shape
    n_pal = len(palette)
    if indices.max(initial=0) >= n_pal:
        raise ValueError("palette index out of range")
    # color table size: power of two ≥ max(n_pal, 2); field stores log2-1
    bits = max(1, int(np.ceil(np.log2(max(n_pal, 2)))))
    size = 1 << bits
    gct = np.zeros((size, 3), np.uint8)
    gct[:n_pal] = palette
    mcs = max(2, bits)  # spec: LZW min code size ≥ 2
    code_stream = _lzw_encode(indices, mcs)
    blocks = bytearray()
    for i in range(0, len(code_stream), 255):
        chunk = code_stream[i:i + 255]
        blocks.append(len(chunk))
        blocks += chunk
    blocks.append(0)  # block terminator
    return (b"GIF89a"
            + struct.pack("<HHBBB", w, h, 0x80 | (bits - 1), 0, 0)
            + gct.tobytes()
            + b"," + struct.pack("<HHHHB", 0, 0, w, h, 0)
            + bytes([mcs]) + bytes(blocks)
            + b";")


def gif_decode(payload: bytes) -> np.ndarray:
    """GIF bytes → uint8 HxWx3 array (REAL decode: header walk + LZW +
    palette map). First image frame only; non-interlaced; extension blocks
    (graphic control, comments, app) are skipped per spec."""
    if payload[:4] != b"GIF8":
        raise ValueError("not a GIF payload")
    w = int.from_bytes(payload[6:8], "little")
    h = int.from_bytes(payload[8:10], "little")
    packed = payload[10]
    i = 13
    gct = None
    if packed & 0x80:
        size = 2 << (packed & 0x07)
        gct = np.frombuffer(payload[i:i + size * 3],
                            np.uint8).reshape(size, 3)
        i += size * 3
    while i < len(payload):
        b = payload[i]
        if b == 0x21:  # extension: label + sub-blocks
            i += 2
            while payload[i] != 0:
                i += 1 + payload[i]
            i += 1
        elif b == 0x2C:  # image descriptor
            iw = int.from_bytes(payload[i + 5:i + 7], "little")
            ih = int.from_bytes(payload[i + 7:i + 9], "little")
            ipacked = payload[i + 9]
            i += 10
            pal = gct
            if ipacked & 0x80:  # local color table
                size = 2 << (ipacked & 0x07)
                pal = np.frombuffer(payload[i:i + size * 3],
                                    np.uint8).reshape(size, 3)
                i += size * 3
            if ipacked & 0x40:
                raise ValueError("interlaced GIF unsupported")
            if pal is None:
                raise ValueError("GIF image without a color table")
            mcs = payload[i]
            i += 1
            parts = []
            while payload[i] != 0:
                ln = payload[i]
                parts.append(payload[i + 1:i + 1 + ln])
                i += 1 + ln
            idx = _lzw_decode(b"".join(parts), mcs, iw * ih)
            return pal[idx.reshape(ih, iw)]
        elif b == 0x3B:  # trailer
            break
        else:
            raise ValueError(f"unknown GIF block 0x{b:02x}")
    raise ValueError("GIF contains no image data")


DECODERS["image/gif"] = gif_decode


# ---------------------------------------------------------------------------
# REAL baseline JPEG codec (ITU-T T.81 sequential DCT) — pure numpy +
# stdlib, no codec library. The decoder is GENERAL for baseline JPEG: it
# reads quantization and Huffman tables from the stream's own DQT/DHT
# segments (every JPEG carries them), handles restart markers, grayscale
# and 3-component color at 4:4:4 or 4:2:0 sampling. JPEG is lossy, so the
# full-value oracle fixture uses DC-only (per-8x8-constant) blocks, which
# round-trip exactly; arbitrary images round-trip approximately (tested to
# a tolerance). Progressive/arithmetic/12-bit streams raise at the
# documented codec-registry seam.
# ---------------------------------------------------------------------------

_ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int32)


def _dct_basis() -> np.ndarray:
    """8x8 orthonormal DCT-II basis A: block_dct = A @ block @ A.T."""
    x = np.arange(8)
    A = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16) / 2
    A[0] /= np.sqrt(2)
    return A


_DCT_A = _dct_basis()

# fixed canonical Huffman tables for the ENCODER (the decoder always reads
# tables from the stream): 12 DC size categories at 4 bits each; all 256
# AC (run,size) symbols split 128 at 9 bits + 128 at 10 bits (a DHT count
# byte holds ≤255 symbols per length) — valid prefix codes (Kraft 12/16
# and 128/512 + 128/1024), no all-ones code, trivially canonical
_ENC_DC_SYMS = list(range(12))
_ENC_AC_SYMS = list(range(256))
_ENC_AC_LENS = [9] * 128 + [10] * 128


def _canonical_codes(lengths_syms: list[tuple[int, int]]) -> dict:
    """[(bitlength, symbol)] sorted → {symbol: (code, bitlength)}."""
    code = 0
    prev_len = lengths_syms[0][0]
    out = {}
    for ln, sym in lengths_syms:
        code <<= (ln - prev_len)
        prev_len = ln
        out[sym] = (code, ln)
        code += 1
    return out


_ENC_DC_CODES = _canonical_codes([(4, s) for s in _ENC_DC_SYMS])
_ENC_AC_CODES = _canonical_codes(
    list(zip(_ENC_AC_LENS, _ENC_AC_SYMS)))


def _dht_segment(tc_th: int, syms: list[int], lens: list[int]) -> bytes:
    counts = [0] * 16
    for ln in lens:
        counts[ln - 1] += 1
    return (b"\xff\xc4"
            + (2 + 1 + 16 + len(syms)).to_bytes(2, "big")
            + bytes([tc_th]) + bytes(counts) + bytes(syms))


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, code: int, ln: int):
        self.acc = (self.acc << ln) | code
        self.n += ln
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self):
        if self.n:
            pad = 8 - self.n
            self.put((1 << pad) - 1, pad)  # pad with 1s per spec


def _size_cat(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _amp_bits(v: int, size: int) -> int:
    """JPEG amplitude encoding: negatives stored as v-1 in `size` bits."""
    return v if v >= 0 else v + (1 << size) - 1


def _encode_block(wr: "_BitWriter", blk: np.ndarray, q: np.ndarray,
                  dc_prev: list, ci: int):
    coef = _DCT_A @ (blk - 128.0) @ _DCT_A.T
    qc = np.round(coef / q).astype(np.int32).ravel()[_ZIGZAG]
    diff = int(qc[0]) - dc_prev[ci]
    dc_prev[ci] = int(qc[0])
    s = _size_cat(diff)
    code, ln = _ENC_DC_CODES[s]
    wr.put(code, ln)
    if s:
        wr.put(_amp_bits(diff, s), s)
    nz = np.flatnonzero(qc[1:])
    pos = 0
    for i in nz:
        run = int(i) - pos
        while run >= 16:
            zc, zl = _ENC_AC_CODES[0xF0]  # ZRL
            wr.put(zc, zl)
            run -= 16
        v = int(qc[1 + i])
        s = _size_cat(v)
        code, ln = _ENC_AC_CODES[(run << 4) | s]
        wr.put(code, ln)
        wr.put(_amp_bits(v, s), s)
        pos = int(i) + 1
    if pos < 63:
        code, ln = _ENC_AC_CODES[0x00]  # EOB
        wr.put(code, ln)


def _pad_plane(p: np.ndarray, H: int, W: int) -> np.ndarray:
    h, w = p.shape
    pad = np.empty((H, W), np.float64)
    pad[:h, :w] = p
    pad[h:, :w] = p[-1:, :]
    pad[:, w:] = pad[:, w - 1:w]
    return pad


def jpeg_encode(img: np.ndarray, quant: int | np.ndarray = 1,
                subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """uint8 HxW (grayscale) / HxWx3 (RGB) → baseline JPEG bytes.

    ``quant``: scalar fills the 8x8 quantization table (1 = max quality);
    an (8,8) array is used as-is. ``subsample=True`` emits 4:2:0 (Y at
    2x2, chroma 2x2-mean-downsampled — the common web layout);
    ``restart_interval=N`` emits RSTn markers every N MCUs (DRI). The
    encoder exists to render fixtures — tables travel in DQT/DHT like any
    real stream, so ANY baseline decoder reads its output."""
    if img.dtype != np.uint8 or img.ndim not in (2, 3):
        raise ValueError("jpeg_encode expects uint8 HxW or HxWx3")
    gray = img.ndim == 2 or img.shape[2] == 1
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    h, w = img.shape[:2]
    if gray:
        planes = [img.astype(np.float64)]
        samps = [(1, 1)]
    else:
        r, g, b = (img[:, :, i].astype(np.float64) for i in range(3))
        planes = [0.299 * r + 0.587 * g + 0.114 * b,
                  -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0,
                  0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0]
        samps = [(2, 2), (1, 1), (1, 1)] if subsample \
            else [(1, 1), (1, 1), (1, 1)]
    q = (np.full((8, 8), int(quant), np.uint16)
         if np.isscalar(quant) else np.asarray(quant, np.uint16))
    hmax = max(s[0] for s in samps)
    vmax = max(s[1] for s in samps)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    n_comp = len(planes)
    padded = []
    for p, (sh, sv) in zip(planes, samps):
        if sh < hmax or sv < vmax:  # chroma downsample by block mean
            ry, rx = vmax // sv, hmax // sh
            ph = (p.shape[0] + ry - 1) // ry * ry
            pw = (p.shape[1] + rx - 1) // rx * rx
            p = _pad_plane(p, ph, pw)
            p = p.reshape(ph // ry, ry, pw // rx, rx).mean(axis=(1, 3))
        padded.append(_pad_plane(p, mcuy * 8 * sv, mcux * 8 * sh))
    wr = _BitWriter()
    dc_prev = [0] * n_comp
    n_mcu = mcux * mcuy
    rst = 0
    ecs = bytearray()
    for mcu in range(n_mcu):
        if restart_interval and mcu and mcu % restart_interval == 0:
            wr.flush()
            ecs += wr.out
            ecs += bytes([0xFF, 0xD0 + (rst & 7)])
            rst += 1
            wr = _BitWriter()
            dc_prev = [0] * n_comp
        my, mx = divmod(mcu, mcux)
        for ci, (p, (sh, sv)) in enumerate(zip(padded, samps)):
            for by in range(sv):
                for bx in range(sh):
                    y0 = (my * sv + by) * 8
                    x0 = (mx * sh + bx) * 8
                    _encode_block(wr, p[y0:y0 + 8, x0:x0 + 8], q,
                                  dc_prev, ci)
    wr.flush()
    ecs += wr.out
    out = bytearray(b"\xff\xd8")  # SOI
    out += (b"\xff\xdb" + (2 + 65).to_bytes(2, "big") + b"\x00"
            + bytes(q.ravel()[_ZIGZAG].astype(np.uint8)))  # DQT id 0
    sof = bytearray(b"\xff\xc0")
    sof += (8 + 3 * n_comp).to_bytes(2, "big")
    sof += bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big")
    sof += bytes([n_comp])
    for c, (sh, sv) in enumerate(samps):
        sof += bytes([c + 1, (sh << 4) | sv, 0])  # id, sampling, qt 0
    out += sof
    out += _dht_segment(0x00, _ENC_DC_SYMS, [4] * 12)  # DC table 0
    out += _dht_segment(0x10, _ENC_AC_SYMS, _ENC_AC_LENS)  # AC table 0
    if restart_interval:
        out += b"\xff\xdd\x00\x04" + restart_interval.to_bytes(2, "big")
    sos = bytearray(b"\xff\xda")
    sos += (6 + 2 * n_comp).to_bytes(2, "big")
    sos += bytes([n_comp])
    for c in range(n_comp):
        sos += bytes([c + 1, 0x00])  # DC table 0 / AC table 0
    sos += bytes([0, 63, 0])
    out += sos
    out += ecs
    out += b"\xff\xd9"  # EOI
    return bytes(out)


class _BitReader:
    """MSB-first reader over a destuffed entropy-coded segment."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def bits(self, k: int) -> int:
        while self.n < k:
            if self.pos >= len(self.data):
                raise ValueError("JPEG entropy stream truncated")
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.n += 8
        v = (self.acc >> (self.n - k)) & ((1 << k) - 1)
        self.n -= k
        self.acc &= (1 << self.n) - 1
        return v

    def huff(self, table: dict) -> int:
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | self.bits(1)
            sym = table.get((ln, code))
            if sym is not None:
                return sym
        raise ValueError("invalid JPEG Huffman code")


def _receive_extend(r: "_BitReader", s: int) -> int:
    if s == 0:
        return 0
    v = r.bits(s)
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def jpeg_decode(payload: bytes) -> np.ndarray:
    """Baseline JPEG bytes → uint8 HxWxC (REAL decode: marker walk, stream
    DQT/DHT tables, Huffman + amplitude decode, dequantize, de-zigzag,
    IDCT, chroma upsample, YCbCr→RGB). Sampling 4:4:4 / 4:2:0 (and 4:2:2);
    restart markers honored. Progressive (SOF2), arithmetic, hierarchical
    and 12-bit streams raise."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload")
    i = 2
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    comps = None
    h = w = 0
    restart = 0
    n = len(payload)
    while i + 4 <= n:
        if payload[i] != 0xFF:
            raise ValueError(f"bad JPEG marker alignment at {i}")
        m = payload[i + 1]
        if m == 0xD9:  # EOI
            break
        ln = int.from_bytes(payload[i + 2:i + 4], "big")
        seg = payload[i + 4:i + 2 + ln]
        if m == 0xDB:  # DQT (may hold several tables)
            p = 0
            while p < len(seg):
                prec, tid = seg[p] >> 4, seg[p] & 0x0F
                if prec != 0:
                    raise ValueError("16-bit quantization unsupported")
                tbl = np.zeros(64, np.float64)
                tbl[_ZIGZAG] = np.frombuffer(seg[p + 1:p + 65], np.uint8)
                qt[tid] = tbl.reshape(8, 8)
                p += 65
        elif m in (0xC0, 0xC1):  # SOF0/1: baseline sequential
            if seg[0] != 8:
                raise ValueError("only 8-bit JPEG supported")
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            nc = seg[5]
            comps = []
            for c in range(nc):
                cid, samp, tq = seg[6 + 3 * c:9 + 3 * c]
                comps.append({"id": cid, "h": samp >> 4, "v": samp & 0x0F,
                              "tq": tq})
        elif m in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCD, 0xCE, 0xCF):
            raise ValueError("non-baseline JPEG (progressive/arithmetic/"
                             "hierarchical) unsupported")
        elif m == 0xC4:  # DHT (may hold several tables)
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0x0F
                counts = list(seg[p + 1:p + 17])
                syms = seg[p + 17:p + 17 + sum(counts)]
                table = {}
                code, k = 0, 0
                for bl in range(1, 17):
                    for _ in range(counts[bl - 1]):
                        table[(bl, code)] = syms[k]
                        code += 1
                        k += 1
                    code <<= 1
                (huff_dc if tc == 0 else huff_ac)[th] = table
                p += 17 + sum(counts)
        elif m == 0xDD:  # DRI
            restart = int.from_bytes(seg[:2], "big")
        elif m == 0xDA:  # SOS: entropy-coded data follows
            ns = seg[0]
            sel = {}
            for c in range(ns):
                sel[seg[1 + 2 * c]] = (seg[2 + 2 * c] >> 4,
                                       seg[2 + 2 * c] & 0x0F)
            i = i + 2 + ln
            return _decode_scan(payload, i, h, w, comps, sel, qt,
                                huff_dc, huff_ac, restart)
        i += 2 + ln
    raise ValueError("JPEG missing SOS scan")


def _decode_scan(payload, i, h, w, comps, sel, qt, huff_dc, huff_ac,
                 restart) -> np.ndarray:
    # destuff the entropy segment, splitting at restart markers
    segments, cur = [], bytearray()
    n = len(payload)
    while i < n:
        b = payload[i]
        if b == 0xFF:
            m = payload[i + 1] if i + 1 < n else 0xD9
            if m == 0x00:
                cur.append(0xFF)
                i += 2
                continue
            if 0xD0 <= m <= 0xD7:  # RSTn: segment boundary
                segments.append(bytes(cur))
                cur = bytearray()
                i += 2
                continue
            break  # EOI or next marker
        cur.append(b)
        i += 1
    segments.append(bytes(cur))

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if not all(hmax % c["h"] == 0 and vmax % c["v"] == 0 for c in comps):
        raise ValueError("unsupported JPEG sampling factors")
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    planes = []
    for c in comps:
        planes.append(np.zeros((mcuy * 8 * c["v"], mcux * 8 * c["h"]),
                               np.float64))
    A, AT = _DCT_A, _DCT_A.T
    n_mcu = mcux * mcuy
    per_seg = restart if restart else n_mcu
    mcu = 0
    seg_idx = 0
    rd_ = _BitReader(segments[0])
    dc_prev = [0] * len(comps)
    while mcu < n_mcu:
        if restart and mcu and mcu % per_seg == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG restart segments exhausted")
            rd_ = _BitReader(segments[seg_idx])
            dc_prev = [0] * len(comps)
        my, mx = divmod(mcu, mcux)
        for ci, c in enumerate(comps):
            tdc, tac = sel[c["id"]]
            q = qt[c["tq"]]
            for by in range(c["v"]):
                for bx in range(c["h"]):
                    s = rd_.huff(huff_dc[tdc])
                    diff = _receive_extend(rd_, s)
                    dc_prev[ci] += diff
                    zz = np.zeros(64, np.float64)
                    zz[0] = dc_prev[ci]
                    k = 1
                    while k < 64:
                        rs = rd_.huff(huff_ac[tac])
                        r, s = rs >> 4, rs & 0x0F
                        if s == 0:
                            if r == 15:
                                k += 16  # ZRL
                                continue
                            break  # EOB
                        k += r
                        if k > 63:
                            raise ValueError("JPEG AC index overflow")
                        zz[k] = _receive_extend(rd_, s)
                        k += 1
                    coef = np.empty(64, np.float64)
                    coef[_ZIGZAG] = zz
                    blk = AT @ (coef.reshape(8, 8) * q) @ A + 128.0
                    y0 = (my * c["v"] + by) * 8
                    x0 = (mx * c["h"] + bx) * 8
                    planes[ci][y0:y0 + 8, x0:x0 + 8] = blk
        mcu += 1
    # upsample to full resolution and crop
    full = []
    for ci, c in enumerate(comps):
        p = planes[ci]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            p = np.repeat(np.repeat(p, ry, axis=0), rx, axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        out = np.clip(np.round(full[0]), 0, 255).astype(np.uint8)
        return out[:, :, None]
    y, cb, cr = full[0], full[1] - 128.0, full[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136286 * cb - 0.714136286 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


DECODERS["image/jpeg"] = jpeg_decode


# ---------------------------------------------------------------------------
# REAL raw audio codec: RIFF/WAVE PCM 16-bit mono — header walk + numpy
# frombuffer, no audio library.
# ---------------------------------------------------------------------------


def wav_encode(samples: np.ndarray, sr: int) -> bytes:
    """int16 mono samples → RIFF/WAVE PCM bytes."""
    if samples.dtype != np.int16 or samples.ndim != 1:
        raise ValueError("wav_encode expects 1-D int16")
    import struct

    data = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sr, sr * 2, 2, 16)
    out = (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data))
           + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", len(data)) + data)
    return out


def wav_decode(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM bytes → (int16 mono samples, sample_rate). Walks the
    chunk list (fmt may be followed by LIST/fact chunks) per the RIFF
    spec; only PCM 16-bit mono is supported."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    i, n, sr = 12, len(payload), None
    while i + 8 <= n:
        cid = payload[i:i + 4]
        sz = struct.unpack("<I", payload[i + 4:i + 8])[0]
        if cid == b"fmt ":
            afmt, nch, sr, _, _, bits = struct.unpack(
                "<HHIIHH", payload[i + 8:i + 24])
            if (afmt, nch, bits) != (1, 1, 16):
                raise ValueError("only PCM 16-bit mono supported")
        elif cid == b"data":
            if sr is None:
                raise ValueError("data chunk before fmt")
            smp = np.frombuffer(payload, dtype="<i2", count=sz // 2,
                                offset=i + 8)
            return smp.astype(np.int16, copy=True), sr
        i += 8 + sz + (sz & 1)  # chunks are word-aligned
    raise ValueError("no data chunk")


def audio_feature_table(batch: pa.Table, id_col: str = "url",
                        payload_col: str = "html") -> pa.Table:
    """REAL audio feature extraction per payload: parse the WAV header +
    PCM samples, emit (sr, n_samples, duration_ms, rms, zcr). Non-RIFF
    payloads are skipped (compressed-audio codecs are not in this
    container)."""
    urls, srs, ns, durs, rmss, zcrs = [], [], [], [], [], []
    for rid, payload in zip(batch[id_col].to_pylist(),
                            batch[payload_col].to_pylist()):
        if payload is None or bytes(payload[:4]) != b"RIFF":
            continue
        s, sr = wav_decode(bytes(payload))
        sf = s.astype(np.float64)
        urls.append(str(rid))
        srs.append(sr)
        ns.append(len(s))
        durs.append(len(s) * 1000 // sr)
        rmss.append(float(np.sqrt(np.mean(sf * sf))) if len(s) else 0.0)
        zcrs.append(int(np.sum(sf[:-1] * sf[1:] < 0)))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "sr": pa.array(srs, pa.int32()),
        "n_samples": pa.array(ns, pa.int64()),
        "duration_ms": pa.array(durs, pa.int64()),
        "rms": pa.array(np.round(np.array(rmss, np.float64), 6)),
        "zcr": pa.array(zcrs, pa.int64()),
    })


def spectrum_feature_table(batch: pa.Table, id_col: str = "url",
                           payload_col: str = "html") -> pa.Table:
    """REAL spectral analysis per audio payload: decode the RIFF bytes,
    then ONE batched ``np.fft.rfft`` over the stacked (B, N) sample
    matrix — the vectorized shape a 100-TB audio-curation pass needs
    (per-file FFT loops are the row-loop anti-pattern; equal-length
    windows stack). Emits the dominant non-DC bin's frequency and its
    amplitude estimate ``2|X_k|/N`` rounded to the nearest 10 (the int16
    quantization error bound on the estimate is <1, so round-to-10 is
    exact for fixture amplitudes that are multiples of 10). Non-RIFF or
    length-mismatched payloads are skipped per row (web semantics).

    Unequal-length payloads fall back to per-row FFTs in ragged groups;
    the fixture renders equal N so the batched path carries the oracle."""
    urls, srs, lens, samples = [], [], [], []
    for rid, payload in zip(batch[id_col].to_pylist(),
                            batch[payload_col].to_pylist()):
        if payload is None or bytes(payload[:4]) != b"RIFF":
            continue
        try:
            s, sr = wav_decode(bytes(payload))
        except (ValueError, IndexError):
            continue
        urls.append(str(rid))
        srs.append(sr)
        lens.append(len(s))
        samples.append(s)
    if not urls:
        return pa.table({
            "url": pa.array([], pa.string()),
            "sr": pa.array([], pa.int32()),
            "n_samples": pa.array([], pa.int64()),
            "dom_freq_hz": pa.array([], pa.int64()),
            "amp10": pa.array([], pa.int64()),
        })
    freqs = np.empty(len(urls), np.int64)
    amps = np.empty(len(urls), np.float64)
    order = np.argsort(lens, kind="stable")
    pos = 0
    while pos < len(order):
        end = pos
        while end < len(order) and lens[order[end]] == lens[order[pos]]:
            end += 1
        idx = order[pos:end]
        mat = np.stack([samples[i] for i in idx]).astype(np.float64)
        spec = np.abs(np.fft.rfft(mat, axis=1))
        spec[:, 0] = 0.0  # DC is not a tone
        k = np.argmax(spec, axis=1)
        n = mat.shape[1]
        for j, i in enumerate(idx):
            freqs[i] = int(round(k[j] * srs[i] / n))
            amps[i] = 2.0 * spec[j, k[j]] / n
        pos = end
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "sr": pa.array(srs, pa.int32()),
        "n_samples": pa.array(lens, pa.int64()),
        "dom_freq_hz": pa.array(freqs),
        "amp10": pa.array((np.round(amps / 10.0) * 10).astype(np.int64)),
    })


# ---------------------------------------------------------------------------
# image container headers: dimension extraction WITHOUT a codec library
# (the metadata pass a 100-TB multimodal curation pipeline runs before any
# decode: route/size/filter by dimensions while bytes stay opaque)
# ---------------------------------------------------------------------------

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def png_header(width: int, height: int) -> bytes:
    """Minimal valid PNG prelude: magic + IHDR chunk (parser input)."""
    import struct
    ihdr = struct.pack(">II5B", width, height, 8, 2, 0, 0, 0)
    return _PNG_MAGIC + struct.pack(">I", 13) + b"IHDR" + ihdr


def gif_header(width: int, height: int) -> bytes:
    import struct
    return b"GIF89a" + struct.pack("<HH", width, height)


def jpeg_header(width: int, height: int) -> bytes:
    """SOI + APP0 (JFIF) + SOF0 carrying the dimensions."""
    import struct
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00" \
        + struct.pack(">HHBB", 1, 1, 0, 0)
    sof0 = b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, height, width, 3)
    return b"\xff\xd8" + app0 + sof0


def jpeg_dims(payload: bytes) -> tuple[int, int] | None:
    """Walk JPEG markers to the first SOF0–SOF15 and read (width, height).
    Bounded per-row walk over a few header segments — dimension markers sit
    in the first KBs; scan stages slice the prefix before calling."""
    if payload[:2] != b"\xff\xd8":
        return None
    i, n = 2, len(payload)
    while i + 4 <= n:
        if payload[i] != 0xFF:
            return None
        marker = payload[i + 1]
        if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
            if i + 9 > n:
                return None
            h = int.from_bytes(payload[i + 5:i + 7], "big")
            w = int.from_bytes(payload[i + 7:i + 9], "big")
            return (w, h)
        seg_len = int.from_bytes(payload[i + 2:i + 4], "big")
        i += 2 + seg_len
    return None


def image_dims_table(batch: pa.Table, id_col: str = "url",
                     payload_col: str = "html") -> pa.Table:
    """(id, kind, width, height) per image payload. The heavy bytes never
    leave Arrow: ``binary_slice`` takes a 24-byte prefix (64 for the JPEG
    marker walk) BEFORE any Python touches a row, so the per-row parse is
    O(header), not O(payload) — PNG/GIF dims sit at fixed offsets, JPEG
    needs a bounded SOF marker walk. Unknown containers are dropped."""
    payload = batch[payload_col].combine_chunks()
    prefix = pc.binary_slice(payload, 0, 24)
    pref = prefix.to_pylist()
    ids = batch[id_col].to_pylist()
    out_id, out_kind, out_w, out_h = [], [], [], []
    for rid, p in zip(ids, pref):
        if p is None:
            continue
        if p[:8] == _PNG_MAGIC and len(p) >= 24:
            out_id.append(str(rid)); out_kind.append("image/png")
            out_w.append(int.from_bytes(p[16:20], "big"))
            out_h.append(int.from_bytes(p[20:24], "big"))
        elif p[:6] in (b"GIF87a", b"GIF89a") and len(p) >= 10:
            out_id.append(str(rid)); out_kind.append("image/gif")
            out_w.append(int.from_bytes(p[6:8], "little"))
            out_h.append(int.from_bytes(p[8:10], "little"))
    # JPEG: marker walk over a slightly longer prefix, only for JPEG rows
    jpeg_mask = pc.equal(pc.binary_slice(payload, 0, 2), b"\xff\xd8")
    if pc.any(jpeg_mask).as_py():
        jp = pc.binary_slice(payload.filter(jpeg_mask), 0, 64).to_pylist()
        jids = pa.array(ids).filter(jpeg_mask).to_pylist()
        for rid, p in zip(jids, jp):
            d = jpeg_dims(p) if p is not None else None
            if d is not None:
                out_id.append(str(rid)); out_kind.append("image/jpeg")
                out_w.append(d[0]); out_h.append(d[1])
    return pa.table({
        id_col: pa.array(out_id, pa.string()),
        "kind": pa.array(out_kind, pa.string()),
        "width": pa.array(out_w, pa.int64()),
        "height": pa.array(out_h, pa.int64()),
    })
