#pragma once

// Vectorized inner loops for the hot kernels (matmul, fused aggregate,
// KNN distances), with a compile-time dispatch:
//
//   - `hg::simd::scalar::*` is the portable reference. It spells out the
//     exact per-element arithmetic (and its order) that the historical
//     serial loops performed, and is always compiled.
//   - The unqualified `hg::simd::*` entry points forward to an AVX2 path
//     when the build enables it (HG_NATIVE=ON implies -march=native, so
//     __AVX2__ is defined on any AVX2 box) and to the scalar reference
//     otherwise.
//
// Bit-identity contract: every AVX2 body uses only per-lane IEEE mul/add/
// sub/div — never FMA, never a horizontal reduction — so each output
// element sees exactly the operation sequence of its scalar counterpart
// and the two paths agree bit-for-bit. The top-level CMakeLists adds
// -ffp-contract=off so the compiler cannot re-introduce contraction into
// the scalar reference either. tests/test_simd.cpp asserts the per-element
// equality for every helper, including odd lengths (remainder lanes).
//
// Loops here never reduce across lanes: order-sensitive reductions into a
// single accumulator (e.g. the rel-norm in gnn::fused_edge_message, a
// dot product accumulated in ascending order) stay scalar in the callers;
// kernels that want SIMD for those shapes restructure so the vector axis
// is the *output* axis (see raw_matmul_a_bt, knn_graph_features).

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define HG_SIMD_AVX2 1
#endif

namespace hg::simd {

namespace scalar {

/// dst[j] += a * src[j]
inline void axpy(float* dst, float a, const float* src, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] += a * src[j];
}

/// dst[j] += src[j]
inline void accumulate(float* dst, const float* src, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] += src[j];
}

/// dst[j] = a[j] - b[j]
inline void sub(float* dst, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] = a[j] - b[j];
}

/// dst[j] /= d
inline void scale_inv(float* dst, float d, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) dst[j] /= d;
}

/// The Max/Min reduce step of gnn::aggregate, one edge at a time:
/// lane j takes msg[j] (and records edge `ei` as the winner) when no edge
/// has claimed it yet (arg[j] < 0) or msg[j] strictly beats out[j].
/// Strict >/< keeps first-winner-on-ties and ignores NaN challengers,
/// matching the historical scalar loop.
inline void extremal_update(float* out, std::int64_t* arg, const float* msg,
                            std::int64_t ei, std::int64_t n, bool is_max) {
  for (std::int64_t j = 0; j < n; ++j) {
    const float mv = msg[j];
    if (arg[j] < 0 || (is_max ? (mv > out[j]) : (mv < out[j]))) {
      out[j] = mv;
      arg[j] = ei;
    }
  }
}

/// dist[j] = (qx-xs[j])^2 + (qy-ys[j])^2 + (qz-zs[j])^2, evaluated
/// left-to-right exactly like graph.cpp's sq_dist3.
inline void sq_dist3(float* dist, float qx, float qy, float qz,
                     const float* xs, const float* ys, const float* zs,
                     std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    const float dx = qx - xs[j], dy = qy - ys[j], dz = qz - zs[j];
    dist[j] = dx * dx + dy * dy + dz * dz;
  }
}

/// dist[j] += (q - row[j])^2 — one feature dimension of a squared
/// Euclidean distance, accumulated per candidate j.
inline void dist_accumulate(float* dist, float q, const float* row,
                            std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    const float diff = q - row[j];
    dist[j] += diff * diff;
  }
}

}  // namespace scalar

#if defined(HG_SIMD_AVX2)

namespace detail {

/// extremal_update with the comparison direction lifted to a template
/// parameter: _mm256_cmp_ps wants its predicate as an immediate.
template <bool IsMax>
inline void extremal_update_avx2(float* out, std::int64_t* arg,
                                 const float* msg, std::int64_t ei,
                                 std::int64_t n) {
  constexpr int kPred = IsMax ? _CMP_GT_OQ : _CMP_LT_OQ;  // quiet on NaN,
                                                          // like scalar >/<
  const __m256i vei = _mm256_set1_epi64x(ei);
  const __m256i zero = _mm256_setzero_si256();
  // Gathers the low 32 bits of each 64-bit mask lane into the low 128
  // bits (the masks are all-ones/all-zeros, so any 32 bits represent
  // the lane).
  const __m256i low32 = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 o = _mm256_loadu_ps(out + j);
    const __m256 mv = _mm256_loadu_ps(msg + j);
    const __m256 better = _mm256_cmp_ps(mv, o, kPred);
    const __m256i alo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arg + j));
    const __m256i ahi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arg + j + 4));
    const __m256i unset_lo = _mm256_cmpgt_epi64(zero, alo);  // arg[j] < 0
    const __m256i unset_hi = _mm256_cmpgt_epi64(zero, ahi);
    const __m256i unset32 = _mm256_permute2x128_si256(
        _mm256_permutevar8x32_epi32(unset_lo, low32),
        _mm256_permutevar8x32_epi32(unset_hi, low32), 0x20);
    const __m256 take = _mm256_or_ps(better, _mm256_castsi256_ps(unset32));
    _mm256_storeu_ps(out + j, _mm256_blendv_ps(o, mv, take));
    const __m256i take32 = _mm256_castps_si256(take);
    const __m256i take_lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(take32));
    const __m256i take_hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(take32, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(arg + j),
                        _mm256_blendv_epi8(alo, vei, take_lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(arg + j + 4),
                        _mm256_blendv_epi8(ahi, vei, take_hi));
  }
  scalar::extremal_update(out + j, arg + j, msg + j, ei, n - j, IsMax);
}

}  // namespace detail

inline void axpy(float* dst, float a, const float* src, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_loadu_ps(dst + j);
    const __m256 s = _mm256_loadu_ps(src + j);
    _mm256_storeu_ps(dst + j, _mm256_add_ps(d, _mm256_mul_ps(va, s)));
  }
  scalar::axpy(dst + j, a, src + j, n - j);
}

inline void accumulate(float* dst, const float* src, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_loadu_ps(dst + j);
    const __m256 s = _mm256_loadu_ps(src + j);
    _mm256_storeu_ps(dst + j, _mm256_add_ps(d, s));
  }
  scalar::accumulate(dst + j, src + j, n - j);
}

inline void sub(float* dst, const float* a, const float* b, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 va = _mm256_loadu_ps(a + j);
    const __m256 vb = _mm256_loadu_ps(b + j);
    _mm256_storeu_ps(dst + j, _mm256_sub_ps(va, vb));
  }
  scalar::sub(dst + j, a + j, b + j, n - j);
}

inline void scale_inv(float* dst, float d, std::int64_t n) {
  const __m256 vd = _mm256_set1_ps(d);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(dst + j);
    _mm256_storeu_ps(dst + j, _mm256_div_ps(v, vd));
  }
  scalar::scale_inv(dst + j, d, n - j);
}

inline void extremal_update(float* out, std::int64_t* arg, const float* msg,
                            std::int64_t ei, std::int64_t n, bool is_max) {
  if (is_max)
    detail::extremal_update_avx2<true>(out, arg, msg, ei, n);
  else
    detail::extremal_update_avx2<false>(out, arg, msg, ei, n);
}

inline void sq_dist3(float* dist, float qx, float qy, float qz,
                     const float* xs, const float* ys, const float* zs,
                     std::int64_t n) {
  const __m256 vqx = _mm256_set1_ps(qx);
  const __m256 vqy = _mm256_set1_ps(qy);
  const __m256 vqz = _mm256_set1_ps(qz);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 dx = _mm256_sub_ps(vqx, _mm256_loadu_ps(xs + j));
    const __m256 dy = _mm256_sub_ps(vqy, _mm256_loadu_ps(ys + j));
    const __m256 dz = _mm256_sub_ps(vqz, _mm256_loadu_ps(zs + j));
    // (dx*dx + dy*dy) + dz*dz — left-to-right like the scalar form.
    const __m256 d = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
    _mm256_storeu_ps(dist + j, d);
  }
  scalar::sq_dist3(dist + j, qx, qy, qz, xs + j, ys + j, zs + j, n - j);
}

inline void dist_accumulate(float* dist, float q, const float* row,
                            std::int64_t n) {
  const __m256 vq = _mm256_set1_ps(q);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 diff = _mm256_sub_ps(vq, _mm256_loadu_ps(row + j));
    const __m256 d = _mm256_loadu_ps(dist + j);
    _mm256_storeu_ps(dist + j,
                     _mm256_add_ps(d, _mm256_mul_ps(diff, diff)));
  }
  scalar::dist_accumulate(dist + j, q, row + j, n - j);
}

#else  // !HG_SIMD_AVX2

using scalar::accumulate;
using scalar::axpy;
using scalar::dist_accumulate;
using scalar::extremal_update;
using scalar::scale_inv;
using scalar::sq_dist3;
using scalar::sub;

#endif

}  // namespace hg::simd
