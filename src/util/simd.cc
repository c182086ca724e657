#include "simd.h"

#include <atomic>

#if defined(SLEUTH_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define SLEUTH_AVX2_BODIES 1
#include <immintrin.h>
#else
#define SLEUTH_AVX2_BODIES 0
#endif

namespace sleuth::simd {

namespace {
std::atomic<bool> g_force_scalar{false};
} // namespace

bool
compiledAvx2()
{
    return SLEUTH_AVX2_BODIES != 0;
}

bool
cpuAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported;
#else
    return false;
#endif
}

bool
active()
{
    static const bool available = compiledAvx2() && cpuAvx2();
    return available && !g_force_scalar.load(std::memory_order_relaxed);
}

void
forceScalar(bool on)
{
    g_force_scalar.store(on, std::memory_order_relaxed);
}

const char *
activeIsaName()
{
    return active() ? "avx2" : "scalar";
}

/*
 * Scalar mirrors. Loop shapes deliberately follow the AVX2 lane
 * structure (see simd.h) so the two paths are bitwise identical.
 */
namespace scalar {

void
axpy(double *y, double a, const double *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
add(double *acc, const double *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] += x[i];
}

void
scale(double *x, double s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] *= s;
}

void
div(double *x, double s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] /= s;
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return ((l0 + l1) + (l2 + l3)) + tail;
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t t = 0; t < n; ++t) {
        const double at = a[t];
        s0 += at * b0[t];
        s1 += at * b1[t];
        s2 += at * b2[t];
        s3 += at * b3[t];
    }
    out[0] = s0;
    out[1] = s1;
    out[2] = s2;
    out[3] = s3;
}

void
matmul(const double *a, size_t m, size_t k, const double *b, size_t n,
       double *out)
{
    // The reference formulation: one axpy of b's row t per nonzero
    // a[i][t], rows of the output filled in ascending t.
    for (size_t i = 0; i < m; ++i) {
        double *orow = out + i * n;
        for (size_t j = 0; j < n; ++j)
            orow[j] = 0.0;
        for (size_t t = 0; t < k; ++t) {
            const double ait = a[i * k + t];
            if (ait == 0.0)
                continue;
            const double *brow = b + t * n;
            for (size_t j = 0; j < n; ++j)
                orow[j] += ait * brow[j];
        }
    }
}

double
sortedIntersectMinSum(const uint64_t *ka, const double *wa, size_t na,
                      const uint64_t *kb, const double *wb, size_t nb)
{
    // The block compare is only attempted once the heads already
    // match: disjoint stretches (the common case for traces of
    // different flows) run the tight two-pointer merge with no vector
    // overhead, while near-identical key arrays (same-flow traces)
    // take 4-wide steps.
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    double singles = 0.0;
    size_t i = 0, j = 0;
    while (i < na && j < nb) {
        if (ka[i] < kb[j]) {
            ++i;
            continue;
        }
        if (kb[j] < ka[i]) {
            ++j;
            continue;
        }
        if (i + 4 <= na && j + 4 <= nb && ka[i + 1] == kb[j + 1] &&
            ka[i + 2] == kb[j + 2] && ka[i + 3] == kb[j + 3]) {
            // MINPD semantics: second operand wins ties/NaN.
            l0 += (wa[i] < wb[j]) ? wa[i] : wb[j];
            l1 += (wa[i + 1] < wb[j + 1]) ? wa[i + 1] : wb[j + 1];
            l2 += (wa[i + 2] < wb[j + 2]) ? wa[i + 2] : wb[j + 2];
            l3 += (wa[i + 3] < wb[j + 3]) ? wa[i + 3] : wb[j + 3];
            i += 4;
            j += 4;
            continue;
        }
        singles += (wa[i] < wb[j]) ? wa[i] : wb[j];
        ++i;
        ++j;
    }
    return ((l0 + l1) + (l2 + l3)) + singles;
}


} // namespace scalar

#if SLEUTH_AVX2_BODIES

namespace avx2 {

__attribute__((target("avx2"))) void
axpy(double *y, double a, const double *x, size_t n)
{
    const __m256d va = _mm256_set1_pd(a);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d vy = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(y + i,
                         _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

__attribute__((target("avx2"))) void
add(double *acc, const double *x, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        const __m256d va = _mm256_loadu_pd(acc + i);
        _mm256_storeu_pd(acc + i, _mm256_add_pd(va, vx));
    }
    for (; i < n; ++i)
        acc[i] += x[i];
}

__attribute__((target("avx2"))) void
scale(double *x, double s, size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(x + i, _mm256_mul_pd(vx, vs));
    }
    for (; i < n; ++i)
        x[i] *= s;
}

__attribute__((target("avx2"))) void
div(double *x, double s, size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(x + i, _mm256_div_pd(vx, vs));
    }
    for (; i < n; ++i)
        x[i] /= s;
}

__attribute__((target("avx2"))) double
dotBlocked(const double *a, const double *b, size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) + tail;
}

__attribute__((target("avx2"))) void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    __m256d acc = _mm256_setzero_pd();
    for (size_t t = 0; t < n; ++t) {
        const __m256d va = _mm256_set1_pd(a[t]);
        const __m256d vb = _mm256_set_pd(b3[t], b2[t], b1[t], b0[t]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    _mm256_storeu_pd(out, acc);
}

__attribute__((target("avx2"))) void
matmul(const double *a, size_t m, size_t k, const double *b, size_t n,
       double *out)
{
    // Same per-element operations as the scalar mirror; only the
    // partial sums move from memory into registers. Each output row is
    // covered by 16-column blocks (four accumulators), then 4-column
    // blocks, then single columns, each running the full t loop.
    for (size_t i = 0; i < m; ++i) {
        const double *arow = a + i * k;
        double *orow = out + i * n;
        size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256d c0 = _mm256_setzero_pd();
            __m256d c1 = _mm256_setzero_pd();
            __m256d c2 = _mm256_setzero_pd();
            __m256d c3 = _mm256_setzero_pd();
            for (size_t t = 0; t < k; ++t) {
                if (arow[t] == 0.0)
                    continue;
                const __m256d va = _mm256_set1_pd(arow[t]);
                const double *bt = b + t * n + j;
                c0 = _mm256_add_pd(
                    c0, _mm256_mul_pd(va, _mm256_loadu_pd(bt)));
                c1 = _mm256_add_pd(
                    c1, _mm256_mul_pd(va, _mm256_loadu_pd(bt + 4)));
                c2 = _mm256_add_pd(
                    c2, _mm256_mul_pd(va, _mm256_loadu_pd(bt + 8)));
                c3 = _mm256_add_pd(
                    c3, _mm256_mul_pd(va, _mm256_loadu_pd(bt + 12)));
            }
            _mm256_storeu_pd(orow + j, c0);
            _mm256_storeu_pd(orow + j + 4, c1);
            _mm256_storeu_pd(orow + j + 8, c2);
            _mm256_storeu_pd(orow + j + 12, c3);
        }
        for (; j + 4 <= n; j += 4) {
            __m256d c = _mm256_setzero_pd();
            for (size_t t = 0; t < k; ++t) {
                if (arow[t] == 0.0)
                    continue;
                c = _mm256_add_pd(
                    c, _mm256_mul_pd(_mm256_set1_pd(arow[t]),
                                     _mm256_loadu_pd(b + t * n + j)));
            }
            _mm256_storeu_pd(orow + j, c);
        }
        for (; j < n; ++j) {
            double c = 0.0;
            for (size_t t = 0; t < k; ++t) {
                if (arow[t] == 0.0)
                    continue;
                c += arow[t] * b[t * n + j];
            }
            orow[j] = c;
        }
    }
}

__attribute__((target("avx2"))) double
sortedIntersectMinSum(const uint64_t *ka, const double *wa, size_t na,
                      const uint64_t *kb, const double *wb, size_t nb)
{
    // Mirror of the scalar merge structure: the vector compare is only
    // attempted once the heads already match, so disjoint stretches
    // cost exactly a two-pointer merge and equal runs take 4-wide
    // steps through MINPD.
    __m256d acc = _mm256_setzero_pd();
    double singles = 0.0;
    size_t i = 0, j = 0;
    while (i < na && j < nb) {
        if (ka[i] < kb[j]) {
            ++i;
            continue;
        }
        if (kb[j] < ka[i]) {
            ++j;
            continue;
        }
        if (i + 4 <= na && j + 4 <= nb) {
            const __m256i keya = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ka + i));
            const __m256i keyb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(kb + j));
            const __m256i eq = _mm256_cmpeq_epi64(keya, keyb);
            if (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) == 0xF) {
                const __m256d va = _mm256_loadu_pd(wa + i);
                const __m256d vb = _mm256_loadu_pd(wb + j);
                acc = _mm256_add_pd(acc, _mm256_min_pd(va, vb));
                i += 4;
                j += 4;
                continue;
            }
        }
        singles += (wa[i] < wb[j]) ? wa[i] : wb[j];
        ++i;
        ++j;
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) + singles;
}

} // namespace avx2

#else // !SLEUTH_AVX2_BODIES

/*
 * -DSLEUTH_SIMD=OFF (or a non-x86 target): keep the avx2:: symbols so
 * the equivalence suite links, but run the scalar mirrors.
 */
namespace avx2 {

void
axpy(double *y, double a, const double *x, size_t n)
{
    scalar::axpy(y, a, x, n);
}

void
add(double *acc, const double *x, size_t n)
{
    scalar::add(acc, x, n);
}

void
scale(double *x, double s, size_t n)
{
    scalar::scale(x, s, n);
}

void
div(double *x, double s, size_t n)
{
    scalar::div(x, s, n);
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    return scalar::dotBlocked(a, b, n);
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    scalar::dotRows4(a, b0, b1, b2, b3, n, out);
}

void
matmul(const double *a, size_t m, size_t k, const double *b, size_t n,
       double *out)
{
    scalar::matmul(a, m, k, b, n, out);
}

double
sortedIntersectMinSum(const uint64_t *ka, const double *wa, size_t na,
                      const uint64_t *kb, const double *wb, size_t nb)
{
    return scalar::sortedIntersectMinSum(ka, wa, na, kb, wb, nb);
}

} // namespace avx2

#endif // SLEUTH_AVX2_BODIES

void
axpy(double *y, double a, const double *x, size_t n)
{
    if (active())
        avx2::axpy(y, a, x, n);
    else
        scalar::axpy(y, a, x, n);
}

void
add(double *acc, const double *x, size_t n)
{
    if (active())
        avx2::add(acc, x, n);
    else
        scalar::add(acc, x, n);
}

void
scale(double *x, double s, size_t n)
{
    if (active())
        avx2::scale(x, s, n);
    else
        scalar::scale(x, s, n);
}

void
div(double *x, double s, size_t n)
{
    if (active())
        avx2::div(x, s, n);
    else
        scalar::div(x, s, n);
}

double
dotBlocked(const double *a, const double *b, size_t n)
{
    return active() ? avx2::dotBlocked(a, b, n)
                    : scalar::dotBlocked(a, b, n);
}

void
dotRows4(const double *a, const double *b0, const double *b1,
         const double *b2, const double *b3, size_t n, double out[4])
{
    if (active())
        avx2::dotRows4(a, b0, b1, b2, b3, n, out);
    else
        scalar::dotRows4(a, b0, b1, b2, b3, n, out);
}

void
matmul(const double *a, size_t m, size_t k, const double *b, size_t n,
       double *out)
{
    if (active())
        avx2::matmul(a, m, k, b, n, out);
    else
        scalar::matmul(a, m, k, b, n, out);
}

double
sortedIntersectMinSum(const uint64_t *ka, const double *wa, size_t na,
                      const uint64_t *kb, const double *wb, size_t nb)
{
    return active() ? avx2::sortedIntersectMinSum(ka, wa, na, kb, wb, nb)
                    : scalar::sortedIntersectMinSum(ka, wa, na, kb, wb,
                                                    nb);
}

} // namespace sleuth::simd
