/* One pass over an Arrow string column: pandas' string hash of every row,
 * and a HyperLogLog of those hashes.
 *
 * Mirrors hashing.hash_strings64(arr.to_pandas()) bit for bit, which is
 * pandas.util.hash_array(categorize=False) over an object array:
 *
 *   1. SipHash-2-4 of the row's utf-8 bytes under the 16-byte key
 *      "0123456789123456" (pandas' default hash_key); a null row (None in
 *      the object array) hashes the four bytes "None";
 *   2. pandas' finalizer: h ^= h >> 30; h *= 0xbf58476d1ce4e5b9;
 *      h ^= h >> 27; h *= 0x94d049bb133111eb; h ^= h >> 31.
 *
 * and HyperLogLog.update_hashes: register h >> (64 - p) takes the max of
 * its value and 1 + the leading zeros of (h << p) | (2^p - 1).
 *
 * Built and loaded by hashing.py; tests/test_strhash.py fuzzes it against
 * hash_strings64 and HyperLogLog.update_hashes.
 */
#include <stdint.h>

static inline uint64_t rotl(uint64_t x, int b) {
    return (x << b) | (x >> (64 - b));
}

static inline uint64_t load_le64(const uint8_t *p) {
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16
        | (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
        | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

#define SIPROUND                                                          \
    do {                                                                  \
        v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);         \
        v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;                            \
        v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;                            \
        v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);         \
    } while (0)

/* k0, k1: "01234567" and "89123456" read little-endian */
#define K0 0x3736353433323130ULL
#define K1 0x3635343332313938ULL

static uint64_t siphash24(const uint8_t *in, int64_t len) {
    uint64_t v0 = 0x736f6d6570736575ULL ^ K0;
    uint64_t v1 = 0x646f72616e646f6dULL ^ K1;
    uint64_t v2 = 0x6c7967656e657261ULL ^ K0;
    uint64_t v3 = 0x7465646279746573ULL ^ K1;
    uint64_t b = (uint64_t)len << 56;
    const uint8_t *end = in + (len - len % 8);
    for (; in != end; in += 8) {
        uint64_t m = load_le64(in);
        v3 ^= m;
        SIPROUND;
        SIPROUND;
        v0 ^= m;
    }
    switch (len & 7) {
    case 7: b |= (uint64_t)in[6] << 48; /* fall through */
    case 6: b |= (uint64_t)in[5] << 40; /* fall through */
    case 5: b |= (uint64_t)in[4] << 32; /* fall through */
    case 4: b |= (uint64_t)in[3] << 24; /* fall through */
    case 3: b |= (uint64_t)in[2] << 16; /* fall through */
    case 2: b |= (uint64_t)in[1] << 8;  /* fall through */
    case 1: b |= (uint64_t)in[0]; break;
    default: break;
    }
    v3 ^= b;
    SIPROUND;
    SIPROUND;
    v0 ^= b;
    v2 ^= 0xff;
    SIPROUND;
    SIPROUND;
    SIPROUND;
    SIPROUND;
    return v0 ^ v1 ^ v2 ^ v3;
}

static inline uint64_t finalize(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/* Rows [0, n) of one string/binary array (Arrow's validity bitmap or NULL,
 * array offset, 32- or 64-bit offsets, data). Writes each row's hash to
 * out[i] and folds it into the 2^p uint8 registers. */
void str_hash_hll(int64_t n, const uint8_t *valid, int64_t off,
                  const void *offs, int wide, const uint8_t *data,
                  uint64_t *out, uint8_t *registers, int p) {
    const uint64_t h_null = finalize(siphash24((const uint8_t *)"None", 4));
    const uint64_t low = ((uint64_t)1 << p) - 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = off + i;
        uint64_t h;
        if (valid && !((valid[j >> 3] >> (j & 7)) & 1)) {
            h = h_null;
        } else {
            int64_t s = wide ? ((const int64_t *)offs)[j]
                             : ((const int32_t *)offs)[j];
            int64_t e = wide ? ((const int64_t *)offs)[j + 1]
                             : ((const int32_t *)offs)[j + 1];
            h = finalize(siphash24(data + s, e - s));
        }
        out[i] = h;
        uint8_t rank = (uint8_t)(__builtin_clzll((h << p) | low) + 1);
        uint8_t *r = registers + (h >> (64 - p));
        if (*r < rank)
            *r = rank;
    }
}
