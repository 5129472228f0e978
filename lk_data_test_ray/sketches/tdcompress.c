/* The greedy k1 loop of TDigest._compress, in place.
 *
 * Mirrors the Python loop in lk_data_test_ray/sketches/tdigest.py operation
 * for operation, so every digest is byte-identical to the reference: the
 * caller passes the centroids already sorted (numpy's stable argsort) and
 * their total weight (numpy's pairwise c.sum(), which a C loop would round
 * differently, so it is not re-summed here). Built with -ffp-contract=off:
 * no multiply-add may be fused.
 *
 * The merged centroids overwrite m[0..k) and c[0..k); k is returned. Slot k
 * is written only after m[i] and c[i] (i > k) have been read.
 *
 * Built and loaded by sketches/tdigest.py; tests/test_sketches.py fuzzes it
 * against the Python loop. Any change here or to the loop needs the other
 * side too.
 */
#include <stdint.h>

int64_t td_compress(int64_t n, double *m, double *c, double total,
                    double delta) {
    int64_t k = 0;
    double cum = 0.0, cur_m = m[0], cur_c = c[0];
    for (int64_t i = 1; i < n; i++) {
        double q = (cum + cur_c + c[i] / 2) / total;
        double v = q * (1 - q);
        /* Python's max(v, 1e-9) keeps v unless 1e-9 is greater (and NaN) */
        if (1e-9 > v) v = 1e-9;
        double size_limit = 4 * total * v / delta;
        if (cur_c + c[i] <= size_limit) {
            cur_m = (cur_m * cur_c + m[i] * c[i]) / (cur_c + c[i]);
            cur_c += c[i];
        } else {
            m[k] = cur_m;
            c[k] = cur_c;
            k++;
            cum += cur_c;
            cur_m = m[i];
            cur_c = c[i];
        }
    }
    m[k] = cur_m;
    c[k] = cur_c;
    return k + 1;
}
