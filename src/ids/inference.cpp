#include "ids/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/contracts.h"

namespace canids::ids {

namespace {

/// A bit constrains candidates when |delta p_i| exceeds
/// max(kNoiseMultiplier * probability_range_i, kMinProbabilityShift).
constexpr double kNoiseMultiplier = 3.0;
constexpr double kMinProbabilityShift = 0.004;
/// Beam width of the multi-ID set search.
constexpr int kBeamWidth = 96;
/// Largest injected-set size considered (Table I tests up to 4).
constexpr int kMaxInjectedIds = 4;
/// Size of the reduced candidate pool fed to the beam search.
constexpr int kSearchPool = 96;
/// How many of the best hypotheses per set size feed the marginal-evidence
/// ranking.
constexpr int kSetsPerSizeRanked = 12;
/// Upper bound for the injected-traffic fraction lambda.
constexpr double kLambdaMax = 0.75;
/// Complexity penalty added per extra injected ID when estimating the set
/// size (keeps the fit from always preferring larger sets).
constexpr double kSizePenalty = 2e-4;

// The fits use fixed scratch for up to four members; Table I also tops out
// at four injected identifiers.
static_assert(kBeamWidth > 0 && kMaxInjectedIds >= 1 &&
              kMaxInjectedIds <= 4 && kSearchPool >= kMaxInjectedIds &&
              kLambdaMax > 0.0);

/// Bit i (MSB-first) of a standard identifier as a double in {0,1}.
[[nodiscard]] double id_bit(std::uint32_t id, int bit) noexcept {
  return static_cast<double>((id >> (can::kStdIdBits - 1 - bit)) & 1u);
}

/// One least-squares fit's inputs, gathered from the per-window dot
/// products: the members' pattern rows and norms ‖p_i‖, their Gram entries
/// p_i·p_j and right-hand sides p_i·delta.
struct FitInput {
  const double* rows[kMaxInjectedIds] = {};
  double norms[kMaxInjectedIds] = {};
  double gram[kMaxInjectedIds][kMaxInjectedIds] = {};
  double rhs[kMaxInjectedIds] = {};
};

/// The shift vector every fit explains, with its squared norm (summed in
/// index order) and norm, which the residual floor reads.
struct Observation {
  const double* delta = nullptr;
  std::size_t dims = 0;
  double norm_sq = 0.0;
  double norm = 0.0;
};

/// A partial injected-set hypothesis during beam search, as a flat record.
struct Hypothesis {
  std::size_t size = 0;
  std::uint8_t members[kMaxInjectedIds] = {};  // ascending search-pool indices
  double weights[kMaxInjectedIds] = {};        // fitted per-ID traffic fractions
  double lambda = 0.0;
  double residual = 0.0;
  std::size_t generation = 0;  // position among its set size's candidates
};

static_assert(kSearchPool <= 256, "search-pool indices are stored as bytes");

/// Beam order: by residual, ties by generation index, which is what a
/// stable sort on the residual alone gives.
bool ranks_before(const Hypothesis& a, const Hypothesis& b) {
  if (a.residual != b.residual) return a.residual < b.residual;
  return a.generation < b.generation;
}

// Model: injecting pool entries S with per-ID traffic fractions w_j >= 0
// shifts every tracked statistic linearly:
//   delta  ~=  sum_j w_j * pattern(x_j).
// Per-ID weights (not one shared lambda) matter because a saturated bus
// drops lower-priority members of S more often. Solved as a small
// non-negative least squares via active-set elimination (k <= 4) on the
// ridge-stabilised normal equations.

/// Gaussian elimination with partial pivoting over the active members
/// `idx[0..m)`. M is the largest count this call may see; a constant count
/// lets the compiler unroll every loop.
template <std::size_t M>
void solve_active(const FitInput& in, const std::size_t* idx, std::size_t m,
                  double* solution) {
  if constexpr (M > 1) {
    if (m < M) {
      solve_active<M - 1>(in, idx, m, solution);
      return;
    }
  }
  double a[M][M + 1];
  for (std::size_t r = 0; r < M; ++r) {
    for (std::size_t c = 0; c < M; ++c) {
      a[r][c] = in.gram[idx[r]][idx[c]] + (r == c ? 1e-9 : 0.0);
    }
    a[r][M] = in.rhs[idx[r]];
  }
  for (std::size_t col = 0; col < M; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < M; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (pivot != col) {
      for (std::size_t c2 = 0; c2 <= M; ++c2) {
        std::swap(a[col][c2], a[pivot][c2]);
      }
    }
    if (std::abs(a[col][col]) < 1e-12) continue;
    for (std::size_t row = col + 1; row < M; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (std::size_t c2 = col; c2 <= M; ++c2) {
        a[row][c2] -= factor * a[col][c2];
      }
    }
  }
  for (std::size_t row = M; row-- > 0;) {
    double value = a[row][M];
    for (std::size_t c2 = row + 1; c2 < M; ++c2) {
      value -= a[row][c2] * solution[c2];
    }
    solution[row] = std::abs(a[row][row]) < 1e-12 ? 0.0 : value / a[row][row];
  }
}

/// The non-negative weights of K members: solve, clamp negative weights out
/// of the active set and re-solve, then cap their total at kLambdaMax.
/// Returns false, leaving `weights_out` unset, when a grown set's first
/// pass clamps its new member K-1 alone: every later pass then solves the
/// parent's own system over the parent's members, so the fit is the
/// parent's weights with 0 for the new member (adding 0.0 moves no sum).
template <std::size_t K>
bool solve_weights(const FitInput& in, double* weights_out,
                   double& lambda_out) {
  bool dropped[K] = {};  // clamped out of the active set
  double w[K] = {};
  for (std::size_t pass = 0; pass <= K; ++pass) {
    std::size_t idx[K] = {};
    std::size_t m = 0;
    for (std::size_t j = 0; j < K; ++j) {
      if (!dropped[j]) idx[m++] = j;
    }
    if (m == 0) break;
    double solution[K] = {};
    solve_active<K>(in, idx, m, solution);
    if constexpr (K > 1) {
      if (pass == 0 && solution[K - 1] < 0.0 &&
          std::none_of(solution, solution + K - 1,
                       [](double x) { return x < 0.0; })) {
        return false;
      }
    }
    bool clamped = false;
    for (std::size_t r = 0; r < m; ++r) {
      if (solution[r] < 0.0) {
        dropped[idx[r]] = true;
        clamped = true;
      } else {
        w[idx[r]] = solution[r];
      }
    }
    for (std::size_t j = 0; j < K; ++j) {
      if (dropped[j]) w[j] = 0.0;
    }
    if (!clamped) break;
  }

  double total = 0.0;
  for (std::size_t j = 0; j < K; ++j) total += w[j];
  if (total > kLambdaMax && total > 0.0) {
    const double scale = kLambdaMax / total;
    for (std::size_t j = 0; j < K; ++j) w[j] *= scale;
    total = kLambdaMax;
  }
  std::copy(w, w + K, weights_out);
  lambda_out = total;
  return true;
}

/// The residual every output reports: the direct sum over the `dims`
/// statistics, Σ_b (delta_b − Σ_j w_j·p_j[b])², plus the penalties.
template <std::size_t K>
double direct_residual(const FitInput& in, const Observation& obs,
                       const double* w) {
  double residual = 0.0;
  for (std::size_t b = 0; b < obs.dims; ++b) {
    double predicted = 0.0;
    for (std::size_t j = 0; j < K; ++j) predicted += w[j] * in.rows[j][b];
    const double r = obs.delta[b] - predicted;
    residual += r * r;
  }
  // Members fitted to ~zero weight contribute nothing but still occupy a
  // set slot; penalise them so leaner sets win ties.
  for (std::size_t j = 0; j < K; ++j) {
    if (w[j] < 1e-4) residual += kSizePenalty;
  }
  return residual;
}

/// A lower bound on direct_residual() from K² + K products instead of
/// dims·K. In exact arithmetic the direct residual equals the Gram form
///   ‖δ‖² − 2·Σ_j w_j·c_j + Σ_ij w_i·G_ij·w_j + penalties,
/// c_j = p_j·δ, G_ij = p_i·p_j; both forms are evaluated at the same
/// fitted w, so they differ only by rounding. Let u = 2⁻⁵³, n = dims (66
/// for 11-bit identifiers with pairs), γ_m ≈ m·u, and
/// S = (‖δ‖ + Σ_j |w_j|·‖p_j‖)², which bounds Σ_b a_b² for
/// a_b = |δ_b| + Σ_j |w_j·p_j[b]| by the triangle inequality:
///   * direct form: each δ_b − Σ_j w_j·p_j[b] is within γ_{K+1}·a_b, and
///     squaring and summing n terms adds γ_n, so its error is below
///     (n + 2K + 3)·u·S ≤ 77u·S;
///   * Gram form: ‖δ‖², c and G carry γ_n·S between them and the 1 + K + K²
///     terms add γ_{K²+K+3}·S, so its error is below (n + 23)·u·S ≤ 89u·S;
///   * the penalties add at most K roundings of u·(S + penalties).
/// Either form's error is thus below 1e-14·(S + penalties), and the two
/// differ by less than 2e-14·(S + penalties). Subtracting the margin
/// 1e-10·(S + penalties), ~10⁴ times either bound, leaves a floor that
/// never exceeds the direct residual, rounding of the floor included.
template <std::size_t K>
double residual_floor(const FitInput& in, const Observation& obs,
                      const double* w) {
  double gram_form = obs.norm_sq;
  double reach = obs.norm;
  double penalties = 0.0;
  for (std::size_t i = 0; i < K; ++i) {
    gram_form -= 2.0 * w[i] * in.rhs[i];
    for (std::size_t j = 0; j < K; ++j) {
      gram_form += w[i] * in.gram[i][j] * w[j];
    }
    reach += std::abs(w[i]) * in.norms[i];
    if (w[i] < 1e-4) penalties += kSizePenalty;
  }
  return gram_form + penalties - 1e-10 * (reach * reach + penalties);
}

/// The search pool's per-window inputs, indexed by search-pool slot.
struct SearchSpace {
  std::vector<const double*> rows;
  std::vector<double> rhs;
  std::vector<double> norms;
  std::vector<double> gram;  // size × size, row-major
};

/// Grows every beam hypothesis (all of size K − 1) by one member and keeps
/// the kBeamWidth best children in `out`, best first. Children come in
/// generation order: parents in beam order, each adding every higher
/// search-pool slot in turn. They stream through a bounded max-heap on
/// (residual, generation index), whose front is the worst survivor; a
/// later child displaces it only with a strictly lower residual, so a child
/// whose floor reaches the front's residual never takes the direct
/// residual. Every survivor's doubles are those of a full fit.
template <std::size_t K>
void grow_beam(const std::vector<Hypothesis>& beam, const Observation& obs,
               const SearchSpace& space, std::vector<Hypothesis>& out) {
  static_assert(K >= 2 && K <= kMaxInjectedIds);
  const std::size_t n = space.rows.size();
  out.clear();
  std::size_t generation = 0;
  for (const Hypothesis& parent : beam) {
    // The parent's block is shared by all its children.
    FitInput in;
    for (std::size_t r = 0; r + 1 < K; ++r) {
      const std::size_t sr = parent.members[r];
      in.rows[r] = space.rows[sr];
      in.norms[r] = space.norms[sr];
      in.rhs[r] = space.rhs[sr];
      for (std::size_t c = 0; c + 1 < K; ++c) {
        in.gram[r][c] = space.gram[sr * n + parent.members[c]];
      }
    }
    for (std::size_t s = parent.members[K - 2] + 1u; s < n;
         ++s, ++generation) {
      in.rows[K - 1] = space.rows[s];
      in.norms[K - 1] = space.norms[s];
      in.rhs[K - 1] = space.rhs[s];
      for (std::size_t c = 0; c + 1 < K; ++c) {
        in.gram[K - 1][c] = space.gram[s * n + parent.members[c]];
        in.gram[c][K - 1] = space.gram[parent.members[c] * n + s];
      }
      in.gram[K - 1][K - 1] = space.gram[s * n + s];

      const bool full = out.size() == static_cast<std::size_t>(kBeamWidth);
      const double worst = full ? out.front().residual
                                : std::numeric_limits<double>::infinity();
      double w[K];
      double lambda = 0.0;
      double residual = 0.0;
      if (solve_weights<K>(in, w, lambda)) {
        if (residual_floor<K>(in, obs, w) >= worst) continue;
        residual = direct_residual<K>(in, obs, w);
      } else {
        std::copy(parent.weights, parent.weights + (K - 1), w);
        w[K - 1] = 0.0;
        lambda = parent.lambda;
        residual = parent.residual + kSizePenalty;
      }
      if (full) {
        if (!(residual < worst)) continue;
        std::pop_heap(out.begin(), out.end(), ranks_before);
        out.pop_back();
      }
      Hypothesis& child = out.emplace_back(parent);
      child.size = K;
      child.members[K - 1] = static_cast<std::uint8_t>(s);
      std::copy(w, w + K, child.weights);
      child.lambda = lambda;
      child.residual = residual;
      child.generation = generation;
      std::push_heap(out.begin(), out.end(), ranks_before);
    }
  }
  std::sort_heap(out.begin(), out.end(), ranks_before);
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const GoldenTemplate> golden,
                                 std::vector<std::uint32_t> id_pool,
                                 InferenceConfig config)
    : golden_(std::move(golden)),
      id_pool_(std::move(id_pool)),
      config_(config) {
  CANIDS_EXPECTS(golden_ != nullptr);
  CANIDS_EXPECTS(!id_pool_.empty());
  CANIDS_EXPECTS(config_.rank > 0);
  std::sort(id_pool_.begin(), id_pool_.end());
  id_pool_.erase(std::unique(id_pool_.begin(), id_pool_.end()),
                 id_pool_.end());

  // Precompute each candidate's centered feature pattern against the
  // template: marginal part (bit_i - p̄_i), then — when the template carries
  // pair statistics — the co-occurrence part (bit_i*bit_j - q̄_ij).
  constexpr auto width = static_cast<std::size_t>(can::kStdIdBits);
  const std::size_t pairs =
      golden_->has_pairs ? static_cast<std::size_t>(kPairCount) : 0;
  stride_ = width + pairs;
  patterns_.resize(id_pool_.size() * stride_);
  for (std::size_t n = 0; n < id_pool_.size(); ++n) {
    double* row = patterns_.data() + n * stride_;
    const std::uint32_t id = id_pool_[n];
    for (std::size_t b = 0; b < width; ++b) {
      row[b] = id_bit(id, static_cast<int>(b)) -
               golden_->mean_probability[b];
    }
    if (pairs > 0) {
      for (int i = 0; i < can::kStdIdBits - 1; ++i) {
        const double bi = id_bit(id, i);
        for (int j = i + 1; j < can::kStdIdBits; ++j) {
          const auto idx = static_cast<std::size_t>(pair_index(i, j));
          row[width + idx] = bi * id_bit(id, j) -
                             golden_->mean_pair_probability[idx];
        }
      }
    }
  }
}

std::vector<BitConstraint> InferenceEngine::derive_constraints(
    const BitValues& delta_p) const {
  std::vector<BitConstraint> constraints;
  for (int i = 0; i < can::kStdIdBits; ++i) {
    const auto b = static_cast<std::size_t>(i);
    const double noise =
        std::max(kNoiseMultiplier * golden_->probability_range(i),
                 kMinProbabilityShift);
    if (std::abs(delta_p[b]) > noise) {
      constraints.push_back(BitConstraint{i, delta_p[b] > 0.0, delta_p[b]});
    }
  }
  return constraints;
}

bool InferenceEngine::satisfies(std::uint32_t id,
                                const std::vector<BitConstraint>& cs) const {
  for (const BitConstraint& c : cs) {
    const bool bit = ((id >> (can::kStdIdBits - 1 - c.bit)) & 1u) != 0;
    if (bit != c.injected_bit) return false;
  }
  return true;
}

InferenceResult InferenceEngine::infer(const WindowSnapshot& window) const {
  constexpr auto width = static_cast<std::size_t>(can::kStdIdBits);
  const bool use_pairs = golden_->has_pairs && window.pair_probabilities;
  const std::size_t pairs =
      use_pairs ? static_cast<std::size_t>(kPairCount) : 0;
  const std::size_t dims = width + pairs;

  // ---- Observation vector: marginal shifts, then pair shifts --------------
  std::vector<double> delta(dims);
  BitValues delta_p{};
  for (std::size_t b = 0; b < width; ++b) {
    delta_p[b] = window.probabilities[b] - golden_->mean_probability[b];
    delta[b] = delta_p[b];
  }
  if (use_pairs) {
    for (std::size_t idx = 0; idx < pairs; ++idx) {
      delta[width + idx] = (*window.pair_probabilities)[idx] -
                           golden_->mean_pair_probability[idx];
    }
  }

  InferenceResult result;
  result.constraints = derive_constraints(delta_p);

  // ---- Per-window dot products --------------------------------------------
  // Every fit's normal equations are assembled from these, so no fit takes
  // a dot product over the `dims` statistics. Each sums its products in
  // index order from 0.0: reordering a sum moves the low bits of every
  // fitted double.
  Observation obs;
  obs.delta = delta.data();
  obs.dims = dims;
  for (std::size_t b = 0; b < dims; ++b) obs.norm_sq += delta[b] * delta[b];
  obs.norm = std::sqrt(obs.norm_sq);
  const std::size_t pool_size = id_pool_.size();
  std::vector<double> rhs(pool_size);       // p_n·delta
  std::vector<double> diagonal(pool_size);  // p_n·p_n
  for (std::size_t n = 0; n < pool_size; ++n) {
    const double* row = pattern(n);
    double dot_delta = 0.0;
    double dot_self = 0.0;
    for (std::size_t b = 0; b < dims; ++b) {
      dot_delta += row[b] * delta[b];
      dot_self += row[b] * row[b];
    }
    rhs[n] = dot_delta;
    diagonal[n] = dot_self;
  }

  // ---- Reduced candidate pool ---------------------------------------------
  // Order every pool ID by how well it explains the shift on its own (the
  // singleton fit uses the pairwise statistics too, unlike a plain
  // marginal alignment score), then keep the strongest plus all
  // constraint-satisfying candidates, capped at kSearchPool.
  std::vector<Hypothesis> single_fits(pool_size);
  std::vector<std::pair<double, std::size_t>> singles;
  singles.reserve(pool_size);
  for (std::size_t n = 0; n < pool_size; ++n) {
    FitInput in;
    in.rows[0] = pattern(n);
    in.gram[0][0] = diagonal[n];
    in.rhs[0] = rhs[n];
    Hypothesis& h = single_fits[n];
    h.size = 1;
    solve_weights<1>(in, h.weights, h.lambda);
    h.residual = direct_residual<1>(in, obs, h.weights);
    singles.emplace_back(h.residual, n);
  }
  std::stable_sort(singles.begin(), singles.end());

  std::vector<std::size_t> search_pool;
  std::vector<bool> in_pool(pool_size, false);
  auto add_to_pool = [&](std::size_t n) {
    if (static_cast<int>(search_pool.size()) >= kSearchPool) return;
    if (!in_pool[n]) {
      in_pool[n] = true;
      search_pool.push_back(n);
    }
  };
  // Constraint-satisfying IDs get priority only when the constraints are
  // informative; an empty constraint set matches everything and must not
  // crowd the pool with low-valued IDs.
  if (!result.constraints.empty()) {
    for (std::size_t n = 0; n < pool_size; ++n) {
      if (satisfies(id_pool_[n], result.constraints)) add_to_pool(n);
    }
  }
  for (const auto& [residual, n] : singles) add_to_pool(n);
  std::sort(search_pool.begin(), search_pool.end());

  // Gram matrix over the search pool only. The patterns are transposed so
  // each row's entries accumulate side by side (vectorised across
  // columns); every entry still sums its products in index order, so its
  // diagonal repeats `diagonal` bit for bit.
  SearchSpace space;
  const std::size_t searched = search_pool.size();
  std::vector<double> columns(dims * searched);
  for (std::size_t t = 0; t < searched; ++t) {
    const double* row = pattern(search_pool[t]);
    space.rows.push_back(row);
    space.rhs.push_back(rhs[search_pool[t]]);
    space.norms.push_back(std::sqrt(diagonal[search_pool[t]]));
    for (std::size_t b = 0; b < dims; ++b) columns[b * searched + t] = row[b];
  }
  space.gram.resize(searched * searched);
  for (std::size_t s = 0; s < searched; ++s) {
    double* out = space.gram.data() + s * searched;
    const double* row = space.rows[s];
    for (std::size_t b = 0; b < dims; ++b) {
      const double x = row[b];
      const double* column = columns.data() + b * searched;
      for (std::size_t t = s; t < searched; ++t) out[t] += x * column[t];
    }
    for (std::size_t t = s + 1; t < searched; ++t) {
      space.gram[t * searched + s] = out[t];
    }
  }

  // ---- Beam search over set sizes -------------------------------------------
  std::vector<Hypothesis> beam;
  std::vector<Hypothesis> grown;
  std::vector<Hypothesis> best_per_size;  // best hypothesis of each size
  std::vector<Hypothesis> top_sets;       // several best per size
  auto harvest = [&] {
    if (beam.empty()) return;
    best_per_size.push_back(beam.front());
    const auto take = std::min<std::size_t>(
        beam.size(), static_cast<std::size_t>(kSetsPerSizeRanked));
    top_sets.insert(top_sets.end(), beam.begin(),
                    beam.begin() + static_cast<std::ptrdiff_t>(take));
  };

  // Size 1 is the singleton fits already made, in (residual, pool index)
  // order; search-pool slots ascend with pool indices, so that is the
  // (residual, generation index) order of fitting every slot again.
  for (const auto& [residual, n] : singles) {
    if (beam.size() == static_cast<std::size_t>(kBeamWidth)) break;
    if (!in_pool[n]) continue;
    Hypothesis h = single_fits[n];
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(search_pool.begin(), search_pool.end(), n) -
        search_pool.begin());
    h.members[0] = static_cast<std::uint8_t>(slot);
    h.generation = slot;
    beam.push_back(h);
  }
  harvest();

  static_assert(kMaxInjectedIds == 4, "grow_beam is dispatched per size");
  for (int k = 2; k <= kMaxInjectedIds && !beam.empty(); ++k) {
    switch (k) {
      case 2: grow_beam<2>(beam, obs, space, grown); break;
      case 3: grow_beam<3>(beam, obs, space, grown); break;
      default: grow_beam<4>(beam, obs, space, grown); break;
    }
    beam.swap(grown);
    harvest();
  }

  const auto id_of = [&](const Hypothesis& h, std::size_t j) {
    return id_pool_[search_pool[h.members[j]]];
  };

  // ---- Choose the set size by penalised residual ----------------------------
  if (!best_per_size.empty()) {
    std::size_t best_index = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < best_per_size.size(); ++s) {
      const double score =
          best_per_size[s].residual +
          kSizePenalty * static_cast<double>(best_per_size[s].size);
      if (score < best_score) {
        best_score = score;
        best_index = s;
      }
    }
    const Hypothesis& chosen = best_per_size[best_index];
    for (std::size_t j = 0; j < chosen.size; ++j) {
      result.best_set.push_back(id_of(chosen, j));
    }
    std::sort(result.best_set.begin(), result.best_set.end());
    result.estimated_num_ids = static_cast<int>(chosen.size);
    result.estimated_injection_fraction = chosen.lambda;
    result.fit_residual = chosen.residual;
  }

  // ---- Rank selection ---------------------------------------------------------
  // Rank identifiers by their marginal evidence across all harvested
  // hypotheses: every good fit that includes an ID with substantial fitted
  // weight votes for it, weighted by fit quality. Ties resolve by ascending
  // ID — the paper's priority order.
  std::map<std::uint32_t, double> marginal;
  if (!top_sets.empty()) {
    double best_residual = top_sets.front().residual;
    for (const Hypothesis& h : top_sets) {
      best_residual = std::min(best_residual, h.residual);
    }
    const double scale = std::max(best_residual, 1e-8);
    for (const Hypothesis& h : top_sets) {
      const double quality = std::exp(-(h.residual - best_residual) / scale);
      for (std::size_t j = 0; j < h.size; ++j) {
        marginal[id_of(h, j)] +=
            quality * (1e-3 + std::max(h.weights[j], 0.0));
      }
    }
  }
  std::vector<std::pair<double, std::uint32_t>> by_evidence;
  by_evidence.reserve(marginal.size());
  for (const auto& [id, evidence] : marginal) {
    by_evidence.emplace_back(evidence, id);
  }
  std::stable_sort(by_evidence.begin(), by_evidence.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;  // ascending ID on ties
                   });

  std::vector<std::uint32_t> ranked;
  std::set<std::uint32_t> taken;
  auto push = [&](std::uint32_t id) {
    if (static_cast<int>(ranked.size()) >= config_.rank) return;
    if (taken.insert(id).second) ranked.push_back(id);
  };
  for (const auto& [evidence, id] : by_evidence) push(id);
  // Fallback fillers: the paper's constraint-satisfying IDs in ascending
  // order (when the constraints say anything), then the best singleton fits.
  if (!result.constraints.empty()) {
    for (std::uint32_t id : id_pool_) {
      if (satisfies(id, result.constraints)) push(id);
    }
  }
  for (const auto& [residual, n] : singles) push(id_pool_[n]);
  result.ranked_candidates = std::move(ranked);
  return result;
}

double inference_hit_fraction(
    const std::vector<std::uint32_t>& true_ids,
    const std::vector<std::uint32_t>& ranked_candidates) {
  if (true_ids.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::uint32_t id : true_ids) {
    if (std::find(ranked_candidates.begin(), ranked_candidates.end(), id) !=
        ranked_candidates.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(true_ids.size());
}

}  // namespace canids::ids
