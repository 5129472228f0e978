/* One-pass C6 scanner: which rows break text == extract_core_bytes(html)?
 *
 * Mirrors lk_data_test_ray/functions/extract.py byte for byte:
 *
 *   1. _STRIP  <(script|style)\b[^>]*>.*?</\1\s*>  |  <!--.*?-->  |  <[^>]*>
 *      (re.I | re.S, bytes pattern), each match replaced by one space. The
 *      alternatives are tried in that order at every '<', and a '<' where
 *      none matches stays literal.
 *   2. the fixed entity table, decoded left to right without re-scanning
 *      the output;
 *   3. b" ".join(s.split()): the six ASCII whitespace bytes \t \n \v \f \r
 *      and space split, runs collapse to one space, both ends are trimmed.
 *
 * Nothing is materialised: the extracted bytes are compared against the
 * text slice as they are produced, and a row stops at its first differing
 * byte. An entity never contains '<' or whitespace, so it always lies in
 * one run of literal html bytes and can be decoded in the same pass.
 *
 * Plain text, the bulk of a page, is compared eight bytes at a time
 * (plain_word) and byte by byte everywhere else.
 *
 * The failed-search memos (no_gt, no_cmt, no_close) keep every row linear:
 * once a forward search for '>', "-->" or a closing tag fails from some
 * position, it fails from every later position too.
 *
 * Built and loaded by extract.py; tests/test_c6scan.py fuzzes it against
 * extract_core_bytes. Any change here or to _STRIP / _ENTITIES needs the
 * other side too and an EXTRACT_VERSION bump.
 */
#include <stdint.h>
#include <string.h>

static const struct { const char *key; uint8_t len, val; } ENTITIES[] = {
    {"&amp;", 5, '&'}, {"&lt;", 4, '<'},  {"&gt;", 4, '>'},
    {"&quot;", 6, '"'}, {"&#39;", 5, '\''}, {"&apos;", 6, '\''},
    {"&nbsp;", 6, ' '},
};

static const char *const NAMES[2] = {"script", "style"};
static const int64_t NAME_LEN[2] = {6, 5};

static inline int is_ws(uint8_t c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

static inline int is_word(uint8_t c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z') || c == '_';
}

/* ASCII case-insensitive compare of s[0..len) with a lower-case name */
static inline int name_at(const uint8_t *s, const char *name, int64_t len) {
    for (int64_t i = 0; i < len; i++)
        if ((s[i] | 0x20) != (uint8_t)name[i]) return 0;
    return 1;
}

static inline int64_t off_at(const void *offs, int wide, int64_t i) {
    return wide ? ((const int64_t *)offs)[i] : ((const int32_t *)offs)[i];
}

static inline int valid_at(const uint8_t *bits, int64_t i) {
    return bits == NULL || ((bits[i >> 3] >> (i & 7)) & 1);
}

#define ONES 0x0101010101010101ULL
#define HIGH 0x8080808080808080ULL

/* 0x80 in each byte of v that is zero, exactly (no borrow between bytes) */
static inline uint64_t zero_bytes(uint64_t v) {
    return ~(((v & ~HIGH) + ~HIGH) | v) & HIGH;
}

/* 1 when the 8 html bytes at h extract to themselves and equal the 8 text
 * bytes at t, with no separator pending before them: no '<', '&' or byte
 * below 0x20 (which covers \t..\r), and every space is a single separator
 * between two token bytes (none doubled, none last, none first at the
 * start of the text). Little-endian: byte 0 sits in the low bits; other
 * byte orders always take the byte path. */
static inline int plain_word(const uint8_t *h, const uint8_t *t, int at_start) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t x, y;
    memcpy(&x, h, 8);
    memcpy(&y, t, 8);
    if (x != y) return 0;
    uint64_t ctrl = ~(((x & ~HIGH) + ONES * (0x80 - 0x20)) | x) & HIGH;
    uint64_t odd = ctrl | zero_bytes(x ^ (ONES * '<'))
                 | zero_bytes(x ^ (ONES * '&'));
    uint64_t sp = zero_bytes(x ^ (ONES * ' '));
    return !odd && !(sp & (sp << 8)) && !(sp >> 63)
        && !(at_start && (sp & 0x80));
#else
    (void)h; (void)t; (void)at_start;
    return 0;
#endif
}

typedef struct {
    const uint8_t *h;
    int64_t n, no_gt, no_cmt, no_close[2];
} row_t;

/* index just past the first '>' at or after `from`, or -1 */
static int64_t past_gt(row_t *r, int64_t from) {
    if (from >= r->no_gt) return -1;
    const uint8_t *g = memchr(r->h + from, '>', (size_t)(r->n - from));
    if (g == NULL) { r->no_gt = from; return -1; }
    return g - r->h + 1;
}

/* end of the first "</name\s*>" at or after `from`, or -1 */
static int64_t past_close(row_t *r, int which, int64_t from) {
    const int64_t len = NAME_LEN[which];
    if (from >= r->no_close[which]) return -1;
    for (int64_t k = from; k + 3 + len <= r->n; k++) {
        const uint8_t *lt = memchr(r->h + k, '<', (size_t)(r->n - k));
        if (lt == NULL) break;
        k = lt - r->h;
        if (k + 3 + len > r->n) break;
        if (r->h[k + 1] != '/' || !name_at(r->h + k + 2, NAMES[which], len))
            continue;
        int64_t e = k + 2 + len;
        while (e < r->n && is_ws(r->h[e])) e++;
        if (e < r->n && r->h[e] == '>') return e + 1;
    }
    r->no_close[which] = from;
    return -1;
}

/* end of the first "-->" at or after `from`, or -1 */
static int64_t past_comment_end(row_t *r, int64_t from) {
    if (from >= r->no_cmt) return -1;
    for (int64_t k = from; k + 3 <= r->n; k++) {
        const uint8_t *d = memchr(r->h + k, '-', (size_t)(r->n - k));
        if (d == NULL) break;
        k = d - r->h;
        if (k + 3 <= r->n && r->h[k + 1] == '-' && r->h[k + 2] == '>')
            return k + 3;
    }
    r->no_cmt = from;
    return -1;
}

/* end of the _STRIP match starting at the '<' at p, or -1 for none */
static int64_t strip_at(row_t *r, int64_t p) {
    const uint8_t *h = r->h;
    for (int which = 0; which < 2; which++) {
        int64_t e = p + 1 + NAME_LEN[which];
        if (e > r->n || !name_at(h + p + 1, NAMES[which], NAME_LEN[which]))
            continue;
        if (e < r->n && is_word(h[e])) break; /* \b fails */
        int64_t body = past_gt(r, e);
        int64_t end = body < 0 ? -1 : past_close(r, which, body);
        if (end >= 0) return end;
        break;
    }
    if (p + 4 <= r->n && h[p + 1] == '!' && h[p + 2] == '-'
        && h[p + 3] == '-') {
        int64_t end = past_comment_end(r, p + 4);
        if (end >= 0) return end;
    }
    return past_gt(r, p + 1);
}

/* 1 when the extraction of h[0..n) equals t[0..tn) */
static int row_matches(const uint8_t *h, int64_t n, const uint8_t *t,
                       int64_t tn) {
    row_t r = {h, n, n + 1, n + 1, {n + 1, n + 1}};
    int64_t o = 0;   /* text bytes matched so far */
    int space = 0;   /* a separator is due before the next token byte */
    int64_t p = 0;
    while (p < n) {
        if (!space && p + 8 <= n && o + 8 <= tn
            && plain_word(h + p, t + o, o == 0)) {
            p += 8;
            o += 8;
            continue;
        }
        uint8_t c = h[p];
        if (c == '<') {
            int64_t end = strip_at(&r, p);
            if (end >= 0) {
                space = o > 0;
                p = end;
                continue;
            }
            p++;
        } else if (c == '&') {
            p++;
            for (size_t i = 0; i < sizeof ENTITIES / sizeof *ENTITIES; i++) {
                int64_t len = ENTITIES[i].len;
                if (p - 1 + len <= n
                    && memcmp(h + p - 1, ENTITIES[i].key, (size_t)len) == 0) {
                    c = ENTITIES[i].val;
                    p += len - 1;
                    break;
                }
            }
        } else {
            p++;
        }
        if (is_ws(c)) {
            space = o > 0;
            continue;
        }
        if (space) {
            if (o >= tn || t[o] != ' ') return 0;
            o++;
            space = 0;
        }
        if (o >= tn || t[o] != c) return 0;
        o++;
    }
    return o == tn;
}

/* Scan rows [0, n) of an html and a text column, both Arrow binary/string
 * arrays given as (validity bitmap or NULL, array offset, offsets buffer,
 * 64-bit offsets?, data buffer). Rows where both are valid and the
 * extraction of html differs from text are written to out (capacity n);
 * returns how many. */
int64_t c6_scan(int64_t n,
                const uint8_t *h_valid, int64_t h_off, const void *h_offs,
                int h_wide, const uint8_t *h_data,
                const uint8_t *t_valid, int64_t t_off, const void *t_offs,
                int t_wide, const uint8_t *t_data, int64_t *out) {
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!valid_at(h_valid, h_off + i) || !valid_at(t_valid, t_off + i))
            continue;
        int64_t hs = off_at(h_offs, h_wide, h_off + i);
        int64_t he = off_at(h_offs, h_wide, h_off + i + 1);
        int64_t ts = off_at(t_offs, t_wide, t_off + i);
        int64_t te = off_at(t_offs, t_wide, t_off + i + 1);
        if (!row_matches(h_data + hs, he - hs, t_data + ts, te - ts))
            out[k++] = i;
    }
    return k;
}
