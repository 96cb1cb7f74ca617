#include "ids/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/contracts.h"

namespace canids::ids {

namespace {

/// Bit i (MSB-first) of a standard identifier as a double in {0,1}.
[[nodiscard]] double id_bit(std::uint32_t id, int bit, int width) noexcept {
  return static_cast<double>((id >> (width - 1 - bit)) & 1u);
}

/// A partial injected-set hypothesis during beam search.
struct Hypothesis {
  std::vector<std::uint32_t> ids;  // ascending pool order
  std::vector<double> weights;     // fitted per-ID traffic fractions
  std::size_t last_pool_index = 0;
  double residual = 0.0;
  double lambda = 0.0;
};

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
  CANIDS_EXPECTS(config_.beam_width > 0);
  // The active-set solver uses fixed 4x5 scratch; Table I also tops out at
  // four injected identifiers.
  CANIDS_EXPECTS(config_.max_injected_ids >= 1 &&
                 config_.max_injected_ids <= 4);
  CANIDS_EXPECTS(config_.search_pool >= config_.max_injected_ids);
  CANIDS_EXPECTS(config_.lambda_max > 0.0);
  std::sort(id_pool_.begin(), id_pool_.end());
  id_pool_.erase(std::unique(id_pool_.begin(), id_pool_.end()),
                 id_pool_.end());

  // Precompute each candidate's centered feature pattern against the
  // template: marginal part (bit_i - p̄_i), then — when the template carries
  // pair statistics — the co-occurrence part (bit_i*bit_j - q̄_ij).
  const auto width = static_cast<std::size_t>(golden_->width);
  const std::size_t pairs =
      golden_->has_pairs()
          ? static_cast<std::size_t>(pair_count(golden_->width))
          : 0;
  patterns_.resize(id_pool_.size());
  for (std::size_t n = 0; n < id_pool_.size(); ++n) {
    std::vector<double>& pattern = patterns_[n];
    pattern.resize(width + pairs);
    const std::uint32_t id = id_pool_[n];
    for (std::size_t b = 0; b < width; ++b) {
      pattern[b] = id_bit(id, static_cast<int>(b), golden_->width) -
                   golden_->mean_probability[b];
    }
    if (pairs > 0) {
      for (int i = 0; i < golden_->width - 1; ++i) {
        const double bi = id_bit(id, i, golden_->width);
        for (int j = i + 1; j < golden_->width; ++j) {
          const auto idx =
              static_cast<std::size_t>(pair_index(i, j, golden_->width));
          pattern[width + idx] =
              bi * id_bit(id, j, golden_->width) -
              golden_->mean_pair_probability[idx];
        }
      }
    }
  }
}

std::vector<BitConstraint> InferenceEngine::derive_constraints(
    const std::vector<double>& delta_p) const {
  std::vector<BitConstraint> constraints;
  for (int i = 0; i < golden_->width; ++i) {
    const auto b = static_cast<std::size_t>(i);
    const double noise =
        std::max(config_.noise_multiplier * golden_->probability_range(i),
                 config_.min_probability_shift);
    if (std::abs(delta_p[b]) > noise) {
      constraints.push_back(BitConstraint{i, delta_p[b] > 0.0, delta_p[b]});
    }
  }
  return constraints;
}

bool InferenceEngine::satisfies(std::uint32_t id,
                                const std::vector<BitConstraint>& cs) const {
  for (const BitConstraint& c : cs) {
    const bool bit =
        ((id >> (golden_->width - 1 - c.bit)) & 1u) != 0;
    if (bit != c.injected_bit) return false;
  }
  return true;
}

double InferenceEngine::alignment_score(
    std::uint32_t id, const std::vector<double>& delta_p) const {
  // Correlate the candidate's centered bit pattern with the observed shift:
  // an injected ID pushes p_i toward its own bit values, so the true ID's
  // (bit_i - p̄_i) pattern aligns with delta_p.
  double score = 0.0;
  for (int i = 0; i < golden_->width; ++i) {
    const auto b = static_cast<std::size_t>(i);
    score += delta_p[b] *
             (id_bit(id, i, golden_->width) - golden_->mean_probability[b]);
  }
  return score;
}

InferenceResult InferenceEngine::infer(const WindowSnapshot& window) const {
  CANIDS_EXPECTS(window.width() == golden_->width);
  const auto width = static_cast<std::size_t>(golden_->width);
  const bool use_pairs = golden_->has_pairs() && window.has_pairs();
  const std::size_t pairs =
      use_pairs ? static_cast<std::size_t>(pair_count(golden_->width)) : 0;
  const std::size_t dims = width + pairs;

  // ---- Observation vector: marginal shifts, then pair shifts --------------
  std::vector<double> delta(dims);
  std::vector<double> delta_p(width);
  for (std::size_t b = 0; b < width; ++b) {
    delta_p[b] = window.probabilities[b] - golden_->mean_probability[b];
    delta[b] = delta_p[b];
  }
  if (use_pairs) {
    CANIDS_EXPECTS(window.pair_probabilities.size() == pairs);
    for (std::size_t idx = 0; idx < pairs; ++idx) {
      delta[width + idx] =
          window.pair_probabilities[idx] - golden_->mean_pair_probability[idx];
    }
  }

  InferenceResult result;
  result.constraints = derive_constraints(delta_p);

  auto pattern_of = [&](std::size_t pool_index) -> const std::vector<double>& {
    return patterns_[pool_index];
  };

  // ---- Least-squares fit ------------------------------------------------------
  // Model: injecting pool entries S with per-ID traffic fractions w_j >= 0
  // shifts every tracked statistic linearly:
  //   delta  ~=  sum_j w_j * pattern(x_j).
  // Per-ID weights (not one shared lambda) matter because a saturated bus
  // drops lower-priority members of S more often. Solved as a small
  // non-negative least squares via active-set elimination (k <= 4).
  auto fit = [&](const std::vector<std::size_t>& members, double& lambda_out,
                 std::vector<double>& weights_out) {
    const std::size_t k = members.size();
    std::vector<bool> active(k, true);
    std::vector<double> w(k, 0.0);
    for (std::size_t pass = 0; pass <= k; ++pass) {
      std::vector<std::size_t> idx;
      for (std::size_t j = 0; j < k; ++j) {
        if (active[j]) idx.push_back(j);
      }
      if (idx.empty()) break;
      const std::size_t m = idx.size();
      // Normal equations over active members, ridge-stabilised.
      double a[4][5] = {};
      for (std::size_t r = 0; r < m; ++r) {
        const std::vector<double>& dr = pattern_of(members[idx[r]]);
        for (std::size_t c = 0; c < m; ++c) {
          const std::vector<double>& dc = pattern_of(members[idx[c]]);
          double dot = 0.0;
          for (std::size_t b = 0; b < dims; ++b) dot += dr[b] * dc[b];
          a[r][c] = dot + (r == c ? 1e-9 : 0.0);
        }
        double rhs = 0.0;
        for (std::size_t b = 0; b < dims; ++b) rhs += dr[b] * delta[b];
        a[r][m] = rhs;
      }
      // Gaussian elimination with partial pivoting (m <= 4).
      for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < m; ++row) {
          if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
        }
        for (std::size_t c2 = 0; c2 <= m; ++c2) {
          std::swap(a[col][c2], a[pivot][c2]);
        }
        if (std::abs(a[col][col]) < 1e-12) continue;
        for (std::size_t row = col + 1; row < m; ++row) {
          const double factor = a[row][col] / a[col][col];
          for (std::size_t c2 = col; c2 <= m; ++c2) {
            a[row][c2] -= factor * a[col][c2];
          }
        }
      }
      double solution[4] = {};
      for (std::size_t row = m; row-- > 0;) {
        double value = a[row][m];
        for (std::size_t c2 = row + 1; c2 < m; ++c2) {
          value -= a[row][c2] * solution[c2];
        }
        solution[row] =
            std::abs(a[row][row]) < 1e-12 ? 0.0 : value / a[row][row];
      }
      // Clamp negative weights out of the active set and re-solve.
      bool clamped = false;
      for (std::size_t r = 0; r < m; ++r) {
        if (solution[r] < 0.0) {
          active[idx[r]] = false;
          clamped = true;
        } else {
          w[idx[r]] = solution[r];
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (!active[j]) w[j] = 0.0;
      }
      if (!clamped) break;
    }

    double total = 0.0;
    for (double weight : w) total += weight;
    if (total > config_.lambda_max && total > 0.0) {
      const double scale = config_.lambda_max / total;
      for (double& weight : w) weight *= scale;
      total = config_.lambda_max;
    }

    double residual = 0.0;
    for (std::size_t b = 0; b < dims; ++b) {
      double predicted = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        predicted += w[j] * pattern_of(members[j])[b];
      }
      const double r = delta[b] - predicted;
      residual += r * r;
    }
    // Members fitted to ~zero weight contribute nothing but still occupy a
    // set slot; penalise them so leaner sets win ties.
    for (std::size_t j = 0; j < k; ++j) {
      if (w[j] < 1e-4) residual += config_.size_penalty;
    }
    lambda_out = total;
    weights_out = std::move(w);
    return residual;
  };

  // ---- Reduced candidate pool ---------------------------------------------
  // Order every pool ID by how well it explains the shift on its own (the
  // singleton fit uses the pairwise statistics too, unlike the plain
  // alignment score), then keep the strongest plus all constraint-
  // satisfying candidates, capped at config_.search_pool.
  std::vector<std::pair<double, std::size_t>> singles;
  singles.reserve(id_pool_.size());
  for (std::size_t n = 0; n < id_pool_.size(); ++n) {
    double lambda = 0.0;
    std::vector<double> weights;
    const double residual = fit({n}, lambda, weights);
    singles.emplace_back(residual, n);
  }
  std::stable_sort(singles.begin(), singles.end());

  std::vector<std::size_t> search_pool;
  std::set<std::size_t> in_pool;
  auto add_to_pool = [&](std::size_t n) {
    if (static_cast<int>(search_pool.size()) >= config_.search_pool) return;
    if (in_pool.insert(n).second) search_pool.push_back(n);
  };
  // Constraint-satisfying IDs get priority only when the constraints are
  // informative; an empty constraint set matches everything and must not
  // crowd the pool with low-valued IDs.
  if (!result.constraints.empty()) {
    for (std::size_t n = 0; n < id_pool_.size(); ++n) {
      if (satisfies(id_pool_[n], result.constraints)) add_to_pool(n);
    }
  }
  for (const auto& [residual, n] : singles) add_to_pool(n);
  std::sort(search_pool.begin(), search_pool.end());

  // ---- Beam search over set sizes -------------------------------------------
  std::vector<Hypothesis> beam;
  std::vector<Hypothesis> best_per_size;  // best hypothesis of each size
  std::vector<Hypothesis> top_sets;       // several best per size
  std::vector<std::size_t> members;       // scratch
  auto fit_hypothesis = [&](Hypothesis& h) {
    members.clear();
    for (std::uint32_t id : h.ids) {
      const auto it = std::lower_bound(id_pool_.begin(), id_pool_.end(), id);
      members.push_back(static_cast<std::size_t>(it - id_pool_.begin()));
    }
    h.residual = fit(members, h.lambda, h.weights);
  };

  for (std::size_t pi = 0; pi < search_pool.size(); ++pi) {
    Hypothesis h;
    h.ids = {id_pool_[search_pool[pi]]};
    h.last_pool_index = pi;
    fit_hypothesis(h);
    beam.push_back(std::move(h));
  }
  auto shrink_beam = [&](std::vector<Hypothesis>& hs) {
    std::stable_sort(hs.begin(), hs.end(),
                     [](const Hypothesis& a, const Hypothesis& b) {
                       return a.residual < b.residual;
                     });
    if (static_cast<int>(hs.size()) > config_.beam_width) {
      hs.resize(static_cast<std::size_t>(config_.beam_width));
    }
  };
  auto harvest = [&](const std::vector<Hypothesis>& hs) {
    if (hs.empty()) return;
    best_per_size.push_back(hs.front());
    const auto take = std::min<std::size_t>(
        hs.size(), static_cast<std::size_t>(config_.sets_per_size_ranked));
    top_sets.insert(top_sets.end(), hs.begin(),
                    hs.begin() + static_cast<std::ptrdiff_t>(take));
  };
  shrink_beam(beam);
  harvest(beam);

  for (int k = 2; k <= config_.max_injected_ids && !beam.empty(); ++k) {
    std::vector<Hypothesis> next;
    for (const Hypothesis& h : beam) {
      for (std::size_t pi = h.last_pool_index + 1; pi < search_pool.size();
           ++pi) {
        Hypothesis grown;
        grown.ids = h.ids;
        grown.ids.push_back(id_pool_[search_pool[pi]]);
        grown.last_pool_index = pi;
        fit_hypothesis(grown);
        next.push_back(std::move(grown));
      }
    }
    shrink_beam(next);
    beam = std::move(next);
    harvest(beam);
  }

  // ---- Choose the set size by penalised residual ----------------------------
  if (!best_per_size.empty()) {
    std::size_t best_index = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < best_per_size.size(); ++s) {
      const double score =
          best_per_size[s].residual +
          config_.size_penalty *
              static_cast<double>(best_per_size[s].ids.size());
      if (score < best_score) {
        best_score = score;
        best_index = s;
      }
    }
    const Hypothesis& chosen = best_per_size[best_index];
    result.best_set = chosen.ids;
    std::sort(result.best_set.begin(), result.best_set.end());
    result.estimated_num_ids = static_cast<int>(chosen.ids.size());
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
      for (std::size_t j = 0; j < h.ids.size(); ++j) {
        const double member_weight =
            j < h.weights.size() ? std::max(h.weights[j], 0.0) : 0.0;
        marginal[h.ids[j]] += quality * (1e-3 + member_weight);
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
