#include "ml/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/detail/dense_kernels.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {

namespace detail {

NearestTwo nearest_two_baseline(const double* point, const double* lanes,
                                std::size_t dim, std::size_t k) {
  return nearest_two_lanes<2>(point, lanes, dim, k);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] NearestTwo nearest_two_avx2(const double* point,
                                                    const double* lanes,
                                                    std::size_t dim,
                                                    std::size_t k) {
  return nearest_two_lanes<4>(point, lanes, dim, k);
}
#endif

NearestTwo nearest_two(const double* point, const double* lanes,
                       std::size_t dim, std::size_t k) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (avx2) return nearest_two_avx2(point, lanes, dim, k);
#endif
  return nearest_two_baseline(point, lanes, dim, k);
}

}  // namespace detail

namespace {

using detail::dist2_raw;
using detail::dist2_raw2;
using linalg::Matrix;
using linalg::squared_distance;

/// Skip margin for the triangle-inequality prunes (the k-means++ D² refresh
/// and assign_points' s(c) test): centroid c provably cannot beat the
/// current best when d(best_c, c) >= 2·d(x, best_c), i.e. cdist2 >= 4·best
/// in squared terms. The 1e-9 relative slack dwarfs the ~1e-15 rounding
/// error of squared_distance, so every skip is proven *strictly* — a skipped
/// candidate's true distance always exceeds `best`, never ties it — and
/// pruned results match the naive scan bit for bit.
constexpr double kPruneMargin = 4.0 + 1e-9;

/// Picks initial centroids with the k-means++ D² distribution (optionally
/// weighted by per-point importance). With `prune`, the D² refresh skips
/// points whose nearest centroid already proves the new centroid is farther
/// (min unchanged), leaving every d2 value — and thus the sampling
/// distribution — exactly as in the naive refresh.
///
/// `seed_hint_out`, when given, receives each point's nearest centroid among
/// the first k-1 picks (the last pick never runs a refresh). run_lloyd's
/// first pruned pass seeds its scans with it: a near-optimal anchor makes
/// the triangle skips fire immediately, where seeding everything at centroid
/// 0 forces the first pass to compute most of the k candidate distances.
/// It is only a hint — every assignment is still proven exactly — so it
/// changes no output.
Matrix init_kmeanspp(const Matrix& data, std::size_t k,
                     const std::vector<double>& weights, stats::Rng& rng,
                     bool prune,
                     std::vector<std::size_t>* seed_hint_out = nullptr) {
  const std::size_t n = data.rows();
  Matrix centroids(k, data.cols());
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  std::vector<std::size_t> nearest(n, 0);  ///< argmin centroid behind d2
  Matrix cdist2(k, k);                     ///< centroid–centroid, grown per pick
  const auto w = [&](std::size_t i) { return weights.empty() ? 1.0 : weights[i]; };

  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  const double* cents = centroids.data().data();

  std::size_t first = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  if (!weights.empty()) first = rng.weighted_index(weights);
  centroids.set_row(0, data.row(first));
  for (std::size_t c = 1; c < k; ++c) {
    const std::size_t fresh = c - 1;  // centroid added by the previous round
    const double* fresh_row = cents + fresh * dim;
    if (prune) {
      for (std::size_t p = 0; p < fresh; ++p) {
        const double d = dist2_raw(cents + p * dim, fresh_row, dim);
        cdist2(p, fresh) = d;
        cdist2(fresh, p) = d;
      }
    }
    double total = 0.0;
    if (prune) {
      // Refresh pass first, totals after: per-point updates are independent,
      // so splitting the loops changes no value and lets two surviving
      // points' distance chains run interleaved (dist2_raw2).
      std::size_t pending = n;  ///< first survivor of an unfinished pair
      for (std::size_t i = 0; i < n; ++i) {
        if (fresh > 0 && cdist2(nearest[i], fresh) >= d2[i] * kPruneMargin) {
          continue;  // nearest centroid proves the fresh one is farther
        }
        if (pending == n) {
          pending = i;
          continue;
        }
        double dp;
        double di;
        dist2_raw2(points + pending * dim, fresh_row, points + i * dim,
                   fresh_row, dim, dp, di);
        if (dp < d2[pending]) {
          d2[pending] = dp;
          nearest[pending] = fresh;
        }
        if (di < d2[i]) {
          d2[i] = di;
          nearest[i] = fresh;
        }
        pending = n;
      }
      if (pending != n) {
        const double d = dist2_raw(points + pending * dim, fresh_row, dim);
        if (d < d2[pending]) {
          d2[pending] = d;
          nearest[pending] = fresh;
        }
      }
      for (std::size_t i = 0; i < n; ++i) total += d2[i] * w(i);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = squared_distance(data.row(i), centroids.row(fresh));
        if (d < d2[i]) {
          d2[i] = d;
          nearest[i] = fresh;
        }
        total += d2[i] * w(i);
      }
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= d2[i] * w(i);
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      // All points identical to existing centroids; any choice works.
      chosen = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    }
    centroids.set_row(c, data.row(chosen));
  }
  if (seed_hint_out != nullptr) *seed_hint_out = nearest;
  return centroids;
}

/// Picks k distinct random data points as initial centroids.
Matrix init_random(const Matrix& data, std::size_t k, stats::Rng& rng) {
  const std::vector<std::size_t> picks = rng.sample_without_replacement(data.rows(), k);
  Matrix centroids(k, data.cols());
  for (std::size_t c = 0; c < k; ++c) centroids.set_row(c, data.row(picks[c]));
  return centroids;
}

struct LloydOutcome {
  Matrix centroids;
  std::vector<std::size_t> assignment;
  std::vector<double> dist2;  ///< squared distance to the assigned centroid
  double sse = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Conservative scaling for bounds kept in real-distance (sqrt) space: the
/// 1e-12 relative slack dwarfs the ≤ ~1e-14 accumulated rounding error of a
/// sqrt + a handful of adds, so "loosened" lower bounds stay true lower
/// bounds and "inflated" upper bounds stay true upper bounds under FP.
double lower(double d) { return d * (1.0 - 1e-12); }
double upper(double d) { return d * (1.0 + 1e-12); }

/// Assigns every point to its nearest centroid, filling `assignment` and
/// `dist2`, and returns the (weighted) SSE. The naive scan walks candidates
/// in index order with a running strict-< best, so ties resolve to the
/// lowest centroid index.
///
/// The pruned scan produces the naive result bit for bit. Per point:
///  - `ub` (Hamerly) carries an upper bound on the distance to the assigned
///    centroid across iterations (inflated by that centroid's movement in
///    run_lloyd) and `lb` a lower bound on the distance to every OTHER
///    centroid (decayed by the largest movement). lb > ub proves the
///    assignment unchanged without computing any distance. `dist2` then
///    keeps its stale value; `stale` records that, and run_lloyd recomputes
///    exact distances for stale points in the rare case it needs them
///    (empty-cluster repair). The final pass runs with ub == nullptr, so
///    every reported distance is exact. assignment[i] only changes in an
///    exact scan, so the centroid sums — and every output — are unaffected;
///  - otherwise the exact distance to the assigned centroid (the seed)
///    re-tests lb, then the s(c) test: when even the seed's nearest other
///    centroid is strictly too far (kPruneMargin), the seed provably wins;
///  - otherwise detail::nearest_two computes the distance to every centroid
///    in one lane-parallel pass, each bit-identical to the naive scan's,
///    and picks the naive scan's winner; its exact second-smallest
///    distance becomes the new lb.
/// Points are independent, and the SSE is reduced serially in point order,
/// so the result is also identical for every thread count.
double assign_points(const Matrix& data, const Matrix& centroids,
                     const KMeansParams& params, util::ThreadPool* pool,
                     std::vector<std::size_t>& assignment,
                     std::vector<double>& dist2, std::vector<double>* lb,
                     std::vector<double>* ub = nullptr,
                     std::vector<unsigned char>* stale = nullptr) {
  const std::size_t n = data.rows();
  const std::size_t k = centroids.rows();
  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  const double* cents = centroids.data().data();
  if (params.prune && k > 1) {
    const std::vector<double> lanes = detail::lane_layout(cents, k, dim);
    // s(c): each centroid's nearest other centroid. A centroid's distance
    // to itself is exactly 0, so its "second" is the nearest other one.
    std::vector<double> min_cd2(k);
    std::vector<double> min_cd_lo(k);  ///< lower(sqrt(min_cd2))
    for (std::size_t c = 0; c < k; ++c) {
      min_cd2[c] =
          detail::nearest_two(cents + c * dim, lanes.data(), dim, k).second;
      min_cd_lo[c] = lower(std::sqrt(min_cd2[c]));
    }
    util::maybe_parallel_for(pool, n, [&](std::size_t i) {
      const std::size_t seed = assignment[i];  // 0/hint on the first iteration
      double& lo = (*lb)[i];
      if (ub != nullptr && lo > (*ub)[i]) {
        (*stale)[i] = 1;
        lo = std::max(lo, min_cd_lo[seed] - (*ub)[i]);
        return;
      }
      const double* point = points + i * dim;
      detail::NearestTwo r;
      r.best = dist2_raw(point, cents + seed * dim, dim);
      r.best_c = seed;
      double best_ub = upper(std::sqrt(r.best));  ///< real-distance bound
      if (lo > best_ub) {
        // Every other centroid is strictly farther than the seed: keep it.
        // s(c) can only tighten the carried bound.
        lo = std::max(lo, min_cd_lo[seed] - best_ub);
      } else if (min_cd2[seed] >= r.best * kPruneMargin && r.best > 0.0) {
        // For any c != seed, d(x, c) >= d(seed, c) - d(x, seed).
        lo = min_cd_lo[seed] - best_ub;
      } else {
        r = detail::nearest_two(point, lanes.data(), dim, k);
        best_ub = upper(std::sqrt(r.best));
        lo = lower(std::sqrt(r.second));
      }
      if (ub != nullptr) {
        (*ub)[i] = best_ub;
        (*stale)[i] = 0;
      }
      assignment[i] = r.best_c;
      dist2[i] = r.best;
    });
  } else {
    util::maybe_parallel_for(pool, n, [&](std::size_t i) {
      const auto point = data.row(i);
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = squared_distance(point, centroids.row(c));
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      assignment[i] = best_c;
      dist2[i] = best;
    });
  }
  double sse = 0.0;
  if (params.weights.empty()) {
    for (std::size_t i = 0; i < n; ++i) sse += dist2[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) sse += dist2[i] * params.weights[i];
  }
  return sse;
}

LloydOutcome run_lloyd(const Matrix& data, Matrix centroids,
                       const KMeansParams& params, util::ThreadPool* pool,
                       std::vector<std::size_t> seed_hint = {}) {
  const std::size_t n = data.rows();
  const std::size_t k = params.k;
  const std::size_t dim = data.cols();
  const auto w = [&](std::size_t i) {
    return params.weights.empty() ? 1.0 : params.weights[i];
  };

  LloydOutcome out;
  // The hint only seeds the first pruned scan's anchors (see init_kmeanspp);
  // with no hint every point starts at centroid 0, as the naive scan does.
  if (seed_hint.size() == n) {
    out.assignment = std::move(seed_hint);
  } else {
    out.assignment.assign(n, 0);
  }
  out.dist2.assign(n, 0.0);
  std::vector<std::size_t> previous;  ///< assignment before the current pass
  bool repaired = false;              ///< did the last update re-seed a centroid?
  // Hamerly bounds (see assign_points); lb = -inf ("know nothing") makes the
  // first pass compute like the naive scan. stale[i] marks a dist2 entry the
  // carried bounds let a pass skip; such entries are recomputed on demand
  // below before the repair step reads them.
  std::vector<double> lb(n, -std::numeric_limits<double>::infinity());
  std::vector<double> ub(n, 0.0);
  std::vector<unsigned char> stale(n, 0);

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    previous = out.assignment;
    out.sse = assign_points(data, centroids, params, pool, out.assignment,
                            out.dist2, &lb, &ub, &stale);

    // Membership unchanged and the current centroids are plain means of that
    // membership (iter > 0, no repair): recomputing the update would rebuild
    // the exact same sums, so movement is exactly 0 — converged. (A repaired
    // centroid is not a mean, so its re-repair could pick a different point.)
    if (iter > 0 && !repaired && params.tolerance >= 0.0 &&
        out.assignment == previous) {
      out.iterations = iter + 1;
      out.converged = true;
      break;
    }

    // Update step (weighted means when point weights are given; the
    // unweighted loop skips the ×1.0, which changes no bit).
    Matrix next(k, dim);
    std::vector<std::size_t> counts(k, 0);
    std::vector<double> mass(k, 0.0);
    const double* points = data.data().data();
    if (params.weights.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = out.assignment[i];
        ++counts[c];
        const double* row = points + i * dim;
        double* acc = &next(c, 0);
        for (std::size_t j = 0; j < dim; ++j) acc[j] += row[j];
      }
      for (std::size_t c = 0; c < k; ++c) mass[c] = static_cast<double>(counts[c]);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = out.assignment[i];
        ++counts[c];
        mass[c] += w(i);
        const double* row = points + i * dim;
        double* acc = &next(c, 0);
        for (std::size_t j = 0; j < dim; ++j) acc[j] += row[j] * w(i);
      }
    }

    // Repair empty clusters: move their centroid to the point currently
    // farthest from its assigned centroid (splits the worst-fit region).
    // The argmax must see the exact distances the naive pass would have
    // produced, so stale (bound-skipped) entries are recomputed first.
    bool any_empty = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0 || !(mass[c] > 0.0)) any_empty = true;
    }
    if (any_empty) {
      const double* cents = centroids.data().data();
      for (std::size_t i = 0; i < n; ++i) {
        if (!stale[i]) continue;
        out.dist2[i] =
            dist2_raw(points + i * dim, cents + out.assignment[i] * dim, dim);
        stale[i] = 0;
      }
    }
    repaired = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] > 0 && mass[c] > 0.0) {
        for (std::size_t j = 0; j < dim; ++j) {
          next(c, j) /= mass[c];
        }
        continue;
      }
      double worst = -1.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (out.dist2[i] > worst) {
          worst = out.dist2[i];
          worst_i = i;
        }
      }
      next.set_row(c, data.row(worst_i));
      repaired = true;
    }

    // Convergence: total squared centroid movement.
    double movement = 0.0;
    double max_move2 = 0.0;
    std::vector<double> move_hi(k, 0.0);  ///< upper(real move) per centroid
    for (std::size_t c = 0; c < k; ++c) {
      const double m2 = squared_distance(next.row(c), centroids.row(c));
      movement += m2;
      max_move2 = std::max(max_move2, m2);
      move_hi[c] = m2 > 0.0 ? upper(std::sqrt(m2)) : 0.0;
    }
    // Centroids moved: every upper bound grows by its own centroid's
    // movement and every lower bound decays by the largest movement among
    // the OTHER centroids — lb only bounds distances to centroids the point
    // is not assigned to, so a point assigned to the biggest mover decays by
    // the runner-up instead (Hamerly's refinement). Inflating the
    // adjustments (move_hi is upper(real move)) keeps the bounds
    // conservative under FP.
    if (max_move2 > 0.0) {
      std::size_t biggest = 0;
      double decay1 = 0.0;  ///< largest move_hi
      double decay2 = 0.0;  ///< second-largest move_hi
      for (std::size_t c = 0; c < k; ++c) {
        if (move_hi[c] > decay1) {
          decay2 = decay1;
          decay1 = move_hi[c];
          biggest = c;
        } else {
          decay2 = std::max(decay2, move_hi[c]);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = out.assignment[i];
        lb[i] -= c == biggest ? decay2 : decay1;
        ub[i] += move_hi[c];
      }
    }
    centroids = std::move(next);
    out.iterations = iter + 1;
    if (movement <= params.tolerance) {
      out.converged = true;
      break;
    }
  }

  // Final assignment against the final centroids (keeps sse consistent).
  out.sse =
      assign_points(data, centroids, params, pool, out.assignment, out.dist2, &lb);
  out.centroids = std::move(centroids);
  return out;
}

}  // namespace

std::vector<std::size_t> KMeansResult::members_of(std::size_t c) const {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] == c) members.push_back(i);
  }
  return members;
}

std::size_t KMeansResult::nearest_member(const linalg::Matrix& data,
                                         std::size_t c) const {
  ensure(c < centroids.rows(), "KMeansResult::nearest_member: cluster out of range");
  const bool cached = point_distances.size() == assignment.size();
  double best = std::numeric_limits<double>::max();
  std::size_t best_i = assignment.size();  // sentinel
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] != c) continue;
    const double d = cached ? point_distances[i]
                            : squared_distance(data.row(i), centroids.row(c));
    if (d < best) {
      best = d;
      best_i = i;
    }
  }
  ensure(best_i < assignment.size(), "KMeansResult::nearest_member: empty cluster");
  return best_i;
}

std::vector<std::size_t> KMeansResult::members_by_distance(const linalg::Matrix& data,
                                                           std::size_t c) const {
  const bool cached = point_distances.size() == assignment.size();
  std::vector<std::size_t> members = members_of(c);
  std::vector<double> dist(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    dist[m] = cached
                  ? point_distances[members[m]]
                  : squared_distance(data.row(members[m]), centroids.row(c));
  }
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return dist[a] < dist[b]; });
  std::vector<std::size_t> sorted(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) sorted[m] = members[order[m]];
  return sorted;
}

KMeansResult kmeans(const linalg::Matrix& data, const KMeansParams& params,
                    util::ThreadPool* pool) {
  ensure(params.k >= 1, "kmeans: k must be at least 1");
  ensure(data.rows() >= params.k, "kmeans: k exceeds the number of points");
  ensure(params.max_iterations > 0, "kmeans: max_iterations must be positive");
  ensure(params.restarts > 0, "kmeans: restarts must be positive");
  ensure(params.weights.empty() || params.weights.size() == data.rows(),
         "kmeans: weights must be empty or match the point count");
  for (const double w : params.weights) {
    ensure(w >= 0.0, "kmeans: weights must be non-negative");
  }
  const bool warm = params.initial_centroids.rows() == params.k;
  ensure(!warm || params.initial_centroids.cols() == data.cols(),
         "kmeans: initial_centroids dimension mismatch");

  // Degrade to serial instead of deadlocking when a caller forwards the pool
  // from inside one of its own tasks (e.g. a per-k sweep worker).
  if (pool != nullptr && pool->on_worker_thread()) pool = nullptr;

  const stats::Rng rng(params.seed);
  const std::size_t restarts = static_cast<std::size_t>(params.restarts);
  std::vector<LloydOutcome> outcomes(restarts);
  const auto run_restart = [&](std::size_t r, util::ThreadPool* inner) {
    if (r == 0 && warm) {
      // Warm start: no seeding run, no seed hint (the first pruned pass
      // anchors every point at centroid 0, as a hintless cold start does).
      outcomes[r] = run_lloyd(data, params.initial_centroids, params, inner);
      return;
    }
    stats::Rng restart_rng = rng.fork(static_cast<std::uint64_t>(r));
    std::vector<std::size_t> seed_hint;
    Matrix init = params.init == KMeansInit::kKMeansPlusPlus
                      ? init_kmeanspp(data, params.k, params.weights, restart_rng,
                                      params.prune, &seed_hint)
                      : init_random(data, params.k, restart_rng);
    outcomes[r] =
        run_lloyd(data, std::move(init), params, inner, std::move(seed_hint));
  };
  if (pool != nullptr && restarts > 1) {
    // Restarts are fully independent (forked RNG streams), so they are the
    // natural parallel grain; each Lloyd then runs serially in its worker.
    util::parallel_for(*pool, restarts,
                       [&](std::size_t r) { run_restart(r, nullptr); });
  } else {
    for (std::size_t r = 0; r < restarts; ++r) run_restart(r, pool);
  }

  // Lowest SSE wins; scanning in restart order makes ties resolve to the
  // first restart, matching the serial loop regardless of thread count.
  std::size_t winner = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (outcomes[r].sse < outcomes[winner].sse) winner = r;
  }
  LloydOutcome& best = outcomes[winner];

  KMeansResult result;
  result.centroids = std::move(best.centroids);
  result.assignment = std::move(best.assignment);
  result.point_distances = std::move(best.dist2);
  result.sse = best.sse;
  result.iterations = best.iterations;
  result.converged = best.converged;
  result.cluster_sizes.assign(params.k, 0);
  for (const std::size_t c : result.assignment) ++result.cluster_sizes[c];
  return result;
}

}  // namespace flare::ml
