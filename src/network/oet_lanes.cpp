#include "network/oet_lanes.hpp"

#include <algorithm>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
// gcc on x86-64 builds the AVX2 and AVX-512F variants through target
// attributes; every other build compiles the baseline alone.
#define PRODSORT_OET_X86_VARIANTS 1
#include <immintrin.h>
#endif

namespace prodsort {

namespace {

// oet_line's masked XOR (network/oet_lanes.hpp), applied across the
// lanes of each row pair.
std::int64_t oet_group_scalar(Key* rows, int length, std::size_t lanes,
                              std::size_t stride) {
  std::int64_t swaps = 0;
  int quiet = 0;
  for (int phase = 0; phase < length && quiet < 2; ++phase) {
    std::int64_t phase_swaps = 0;
    for (int i = phase & 1; i + 1 < length; i += 2) {
      Key* const lo = rows + static_cast<std::size_t>(i) * stride;
      Key* const hi = lo + stride;
      for (std::size_t l = 0; l < lanes; ++l) {
        const Key a = lo[l];
        const Key b = hi[l];
        const Key greater = a > b;
        const Key flip = (a ^ b) & -greater;
        phase_swaps += greater;
        lo[l] = a ^ flip;
        hi[l] = b ^ flip;
      }
    }
    swaps += phase_swaps;
    quiet = phase_swaps == 0 ? quiet + 1 : 0;
  }
  return swaps;
}

// Groups of four lanes end their passes independently, as a vector
// variant's registers do, so one unsorted line keeps few others running.
std::int64_t oet_lanes_baseline(Key* rows, int length, std::size_t lanes,
                                std::size_t stride) {
  std::int64_t swaps = 0;
  for (std::size_t c = 0; c < lanes; c += 4)
    swaps += oet_group_scalar(rows + c, length,
                              std::min<std::size_t>(4, lanes - c), stride);
  return swaps;
}

#ifdef PRODSORT_OET_X86_VARIANTS

// The vector variants run each group of adjacent lanes that fills a
// register through its own pass (so each group stops as soon as it is
// sorted) and hand the lanes left over to the baseline.

// One pass over lanes [0, 4) of `rows`; returns the swaps made.
__attribute__((target("avx2"), always_inline)) inline std::int64_t
oet_group4(Key* rows, int length, std::size_t stride) {
  __m256i count = _mm256_setzero_si256();  // minus the swaps, per lane
  int quiet = 0;
  for (int phase = 0; phase < length && quiet < 2; ++phase) {
    __m256i any = _mm256_setzero_si256();
    for (int i = phase & 1; i + 1 < length; i += 2) {
      Key* const lo = rows + static_cast<std::size_t>(i) * stride;
      Key* const hi = lo + stride;
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<__m256i*>(lo));
      const __m256i b = _mm256_loadu_si256(reinterpret_cast<__m256i*>(hi));
      const __m256i greater = _mm256_cmpgt_epi64(a, b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo),
                          _mm256_blendv_epi8(a, b, greater));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi),
                          _mm256_blendv_epi8(b, a, greater));
      count = _mm256_add_epi64(count, greater);
      any = _mm256_or_si256(any, greater);
    }
    quiet = _mm256_testz_si256(any, any) != 0 ? quiet + 1 : 0;
  }
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(count),
                                     _mm256_extracti128_si256(count, 1));
  return -(_mm_cvtsi128_si64(pair) + _mm_extract_epi64(pair, 1));
}

// One pass over lanes [0, 8) of `rows`; returns the swaps made.
__attribute__((target("avx512f"), always_inline)) inline std::int64_t
oet_group8(Key* rows, int length, std::size_t stride) {
  const __m512i one = _mm512_set1_epi64(1);
  __m512i count = _mm512_setzero_si512();  // swaps, per lane
  int quiet = 0;
  for (int phase = 0; phase < length && quiet < 2; ++phase) {
    __mmask8 any = 0;
    for (int i = phase & 1; i + 1 < length; i += 2) {
      Key* const lo = rows + static_cast<std::size_t>(i) * stride;
      Key* const hi = lo + stride;
      const __m512i a = _mm512_loadu_si512(lo);
      const __m512i b = _mm512_loadu_si512(hi);
      const __mmask8 greater = _mm512_cmpgt_epi64_mask(a, b);
      _mm512_storeu_si512(lo, _mm512_mask_blend_epi64(greater, a, b));
      _mm512_storeu_si512(hi, _mm512_mask_blend_epi64(greater, b, a));
      count = _mm512_mask_add_epi64(count, greater, count, one);
      any = static_cast<__mmask8>(any | greater);
    }
    quiet = any == 0 ? quiet + 1 : 0;
  }
  alignas(64) std::int64_t lane_counts[8];
  _mm512_store_si512(lane_counts, count);
  std::int64_t swaps = 0;
  for (const std::int64_t lane_count : lane_counts) swaps += lane_count;
  return swaps;
}

__attribute__((target("avx2"))) std::int64_t oet_lanes_avx2(
    Key* rows, int length, std::size_t lanes, std::size_t stride) {
  std::int64_t swaps = 0;
  std::size_t c = 0;
  for (; c + 4 <= lanes; c += 4) swaps += oet_group4(rows + c, length, stride);
  return swaps + oet_lanes_baseline(rows + c, length, lanes - c, stride);
}

__attribute__((target("avx512f"))) std::int64_t oet_lanes_avx512f(
    Key* rows, int length, std::size_t lanes, std::size_t stride) {
  std::int64_t swaps = 0;
  std::size_t c = 0;
  for (; c + 8 <= lanes; c += 8) swaps += oet_group8(rows + c, length, stride);
  if (c + 4 <= lanes) {
    swaps += oet_group4(rows + c, length, stride);
    c += 4;
  }
  return swaps + oet_lanes_baseline(rows + c, length, lanes - c, stride);
}

#endif  // PRODSORT_OET_X86_VARIANTS

}  // namespace

std::vector<OETLaneKernel> oet_lane_kernels() {
  std::vector<OETLaneKernel> kernels;
#ifdef PRODSORT_OET_X86_VARIANTS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f"))
    kernels.push_back({"avx512f", 4, oet_lanes_avx512f});
  if (__builtin_cpu_supports("avx2"))
    kernels.push_back({"avx2", 4, oet_lanes_avx2});
#endif
  // Two keys fill the 128-bit registers every 64-bit target has.
  kernels.push_back({"baseline", 2, oet_lanes_baseline});
  return kernels;
}

const OETLaneKernel& oet_lane_kernel() {
  static const OETLaneKernel kernel = oet_lane_kernels().front();
  return kernel;
}

}  // namespace prodsort
