// Internal dense-distance kernels shared by the pruned K-means and the
// pairwise-distance/silhouette paths. Exact twins of
// linalg::squared_distance's loop: same operations in the same order, so
// every value they produce matches the library kernel bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

namespace flare::ml::detail {

/// linalg::squared_distance's exact loop over raw row pointers. The hot
/// paths make millions of distance calls on ~18-wide rows, where the span
/// construction, bounds checks and call overhead cost as much as the
/// arithmetic; this inline twin removes that overhead.
inline double dist2_raw(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

/// Two independent dist2_raw evaluations with interleaved accumulators.
/// Each sum performs exactly dist2_raw's operations in dist2_raw's order —
/// both results are bit-identical to two separate calls — but the two FP
/// dependency chains overlap in the pipeline, hiding most of the add
/// latency that makes a single ~18-wide chain latency-bound (the chain
/// cannot be reordered internally without changing the rounding, so pairing
/// independent distances is the only way to buy throughput exactly).
inline void dist2_raw2(const double* a0, const double* b0, const double* a1,
                       const double* b1, std::size_t dim, double& out0,
                       double& out1) {
  double s0 = 0.0;
  double s1 = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d0 = a0[j] - b0[j];
    const double d1 = a1[j] - b1[j];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  out0 = s0;
  out1 = s1;
}

// --- Lane-parallel all-centroid kernel --------------------------------------
//
// One point against every centroid at once. The centroids are stored
// transposed (lane_layout): row j holds coordinate j of every centroid, so a
// SIMD vector loads coordinate j of consecutive centroids. Each lane then
// runs dist2_raw's chain for its own centroid — d = x[j] - c[j]; s += d * d,
// j ascending, from s = 0 — with lane-wise IEEE operations, so every
// distance is bit-identical to dist2_raw's. Nothing is reassociated across
// j; the parallelism is across centroids only. No variant is compiled with
// FMA (see nearest_two), so d * d is never contracted into the add.

/// Lane layout rows are padded to a multiple of this many centroids.
inline constexpr std::size_t kLanePad = 4;

/// Row stride of the lane layout: k rounded up to whole kLanePad groups.
inline std::size_t lane_stride(std::size_t k) {
  return (k + kLanePad - 1) / kLanePad * kLanePad;
}

/// Transposes `k` row-major centroids of `dim` coordinates into the lane
/// layout: dim rows of lane_stride(k) doubles, padding lanes zero.
inline std::vector<double> lane_layout(const double* centroids, std::size_t k,
                                       std::size_t dim) {
  const std::size_t stride = lane_stride(k);
  std::vector<double> lanes(dim * stride, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < dim; ++j) {
      lanes[j * stride + c] = centroids[c * dim + j];
    }
  }
  return lanes;
}

/// The nearest centroid (lowest index among exact ties, as the naive
/// ascending scan picks it) and the exact second-smallest distance over all
/// k centroids (equal to `best` when the minimum is tied).
struct NearestTwo {
  double best = std::numeric_limits<double>::max();
  std::size_t best_c = 0;
  double second = std::numeric_limits<double>::max();
};

/// A SIMD vector of W doubles (GCC vector extension; unaligned loads). One
/// specialization per width: GCC drops a vector_size attribute whose size
/// depends on an alias template's parameter.
template <std::size_t W>
struct LaneVecOf;
template <>
struct LaneVecOf<2> {
  using type = double __attribute__((vector_size(16), aligned(sizeof(double))));
};
template <>
struct LaneVecOf<4> {
  using type = double __attribute__((vector_size(32), aligned(sizeof(double))));
};
template <std::size_t W>
using LaneVec = typename LaneVecOf<W>::type;

/// Squared distances from `point` to the V·W centroids whose lane columns
/// start at `lanes`, into `out`. V independent accumulators keep V add
/// chains in flight per coordinate.
template <std::size_t W, std::size_t V>
[[gnu::always_inline]] inline void lane_block(const double* point,
                                              const double* lanes,
                                              std::size_t dim,
                                              std::size_t stride, double* out) {
  LaneVec<W> acc[V] = {};
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t v = 0; v < V; ++v) {
      LaneVec<W> c;
      std::memcpy(&c, lanes + j * stride + v * W, sizeof c);
      const LaneVec<W> d = point[j] - c;
      acc[v] += d * d;
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// The kernel body over vectors of W doubles; W must be a vector width the
/// target ISA holds in registers (a wider GCC vector is kept in memory and
/// runs several times slower). Distances are computed 16 centroids at a
/// time and folded into the lexicographic (d, c) minimum in ascending c,
/// with a strict < — the naive scan's winner.
template <std::size_t W>
[[gnu::always_inline]] inline NearestTwo nearest_two_lanes(const double* point,
                                                           const double* lanes,
                                                           std::size_t dim,
                                                           std::size_t k) {
  static_assert(kLanePad % W == 0, "lane rows must hold whole vectors");
  static_assert(sizeof(LaneVec<W>) == W * sizeof(double));
  constexpr std::size_t kBlock = 16;
  const std::size_t stride = lane_stride(k);
  NearestTwo r;
  double d[kBlock] = {};
  for (std::size_t c0 = 0; c0 < k; c0 += kBlock) {
    const double* block = lanes + c0;
    switch (std::min(kBlock, stride - c0)) {
      case 16: lane_block<W, 16 / W>(point, block, dim, stride, d); break;
      case 12: lane_block<W, 12 / W>(point, block, dim, stride, d); break;
      case 8: lane_block<W, 8 / W>(point, block, dim, stride, d); break;
      default: lane_block<W, 4 / W>(point, block, dim, stride, d); break;
    }
    const std::size_t m = std::min(kBlock, k - c0);
    for (std::size_t l = 0; l < m; ++l) {
      if (d[l] < r.best) {
        r.second = r.best;
        r.best = d[l];
        r.best_c = c0 + l;
      } else if (d[l] < r.second) {
        r.second = d[l];
      }
    }
  }
  return r;
}

/// nearest_two_lanes compiled for the baseline ISA with 2-double vectors
/// (SSE2 on x86-64).
NearestTwo nearest_two_baseline(const double* point, const double* lanes,
                                std::size_t dim, std::size_t k);

#if defined(__x86_64__) || defined(__i386__)
/// nearest_two_lanes compiled for AVX2 with 4-double vectors. Only callable
/// on a CPU with AVX2. FMA is deliberately not enabled: a fused d * d + s
/// rounds once where dist2_raw rounds twice.
NearestTwo nearest_two_avx2(const double* point, const double* lanes,
                            std::size_t dim, std::size_t k);
#endif

/// The widest variant this CPU runs, chosen once at first use. `lanes` is
/// lane_layout(centroids, k, dim); k >= 1.
NearestTwo nearest_two(const double* point, const double* lanes,
                       std::size_t dim, std::size_t k);

}  // namespace flare::ml::detail
