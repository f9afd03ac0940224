// User long-tail novelty preference models (Sections II-B and II-C).
//
// Each model maps the train set to a vector theta with one entry per user,
// theta_u in [0, 1]; larger values mean stronger willingness to explore
// long-tail items. GANC mixes accuracy and coverage per user with weight
// theta_u, so these estimates are the personalization signal of the whole
// framework.
//
//   theta^A  activity            |I_u^R|, min-max normalized
//   theta^N  normalized long-tail|I_u^R ∩ L| / |I_u^R|
//   theta^T  TFIDF-based         mean_i r_ui * log(|U| / |U_i^R|)
//   theta^G  generalized         fixed point of the minimax objective
//                                (Eq. II.4-II.6), a mediocrity-weighted
//                                average of the same per-item values
//   theta^R  random              U(0,1) control
//   theta^C  constant            all users equal control

#ifndef GANC_CORE_PREFERENCE_H_
#define GANC_CORE_PREFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/longtail.h"
#include "util/status.h"

namespace ganc {

/// theta^A: user activity |I_u^R|, min-max normalized across users.
std::vector<double> ActivityPreference(const RatingDataset& train);

/// theta^N (Eq. II.1): fraction of the user's rated items that are
/// long-tail. Users with empty profiles get 0.
std::vector<double> NormalizedLongtailPreference(const RatingDataset& train,
                                                 const LongTailInfo& tail);

/// Per-user-item value theta_ui = r_ui * log(|U| / |U_i^R|), globally
/// min-max projected onto [0, 1] (the projection required by Section II-C).
/// Returned in the same order as train.ItemsOf(u) per user. Works on
/// mapped datasets without residency; a mapped dataset whose rows fail
/// validation yields all-zero values (GeneralizedPreference returns the
/// validation error instead).
std::vector<std::vector<double>> PerUserItemPreference(
    const RatingDataset& train);

/// theta^T (Eq. II.2): plain average of theta_ui per user, then min-max
/// normalized across users so it is usable as a mixing weight.
std::vector<double> TfidfPreference(const RatingDataset& train);

/// Options for the theta^G fixed-point solver.
struct GeneralizedPreferenceOptions {
  double lambda1 = 1.0;      ///< log-barrier weight (paper sets 1)
  int max_iterations = 100;
  double tolerance = 1e-8;   ///< max |theta change| convergence test
  bool normalize_output = true;  ///< min-max across users at the end
};

/// Diagnostics from the alternating optimization.
struct GeneralizedPreferenceResult {
  std::vector<double> theta;        ///< theta^G per user
  std::vector<double> item_weight;  ///< w_i per item (Eq. II.5)
  int iterations = 0;
  bool converged = false;
  double final_objective = 0.0;     ///< total weighted mediocrity
};

/// theta^G (Section II-C): alternates
///   w_i      = lambda1 / eps_i,  eps_i = sum_{u in U_i} 1 - (theta_ui - theta_u)^2
///   theta_u  = sum_i w_i theta_ui / sum_i w_i
/// from the theta^T initial point until the theta updates stabilize.
/// Every step walks the CSR rows; the w-step adds into one accumulator
/// per item, which receives its raters in ascending user order, the
/// order of U_i. No step needs the CSC index, so mapped datasets work
/// without residency, and a corrupt mapped row comes back as the row
/// sweep's validation error.
Result<GeneralizedPreferenceResult> GeneralizedPreference(
    const RatingDataset& train,
    const GeneralizedPreferenceOptions& options = {});

/// theta^R: independent U(0,1) per user (the paper's randomized control).
std::vector<double> RandomPreference(int32_t num_users, uint64_t seed);

/// theta^C: the same constant for every user (paper reports C = 0.5).
std::vector<double> ConstantPreference(int32_t num_users, double c);

/// Convenience dispatcher used by benches/examples.
enum class PreferenceModel { kActivity, kNormalized, kTfidf, kGeneralized,
                             kRandom, kConstant };

/// Human-readable model name ("thetaG", ...).
std::string PreferenceModelName(PreferenceModel model);

/// Computes the chosen model on `train` (seed/constant used where needed).
Result<std::vector<double>> ComputePreference(PreferenceModel model,
                                              const RatingDataset& train,
                                              uint64_t seed = 11,
                                              double constant = 0.5);

}  // namespace ganc

#endif  // GANC_CORE_PREFERENCE_H_
