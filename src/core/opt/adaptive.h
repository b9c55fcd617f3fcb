// Online link-quality estimation and adaptive reconfiguration.
//
// Sec. III-A: "The results of RSSI deviation suggest the necessity of
// adapting to dynamic link quality for parameter tuning techniques", and
// Sec. IV-B: "adapting the payload size to the varying link quality can be
// an efficient way to minimize energy consumption in dynamic channel
// conditions". This module turns those conclusions into a runtime
// component: an EWMA SNR estimator fed by reception reports, and a
// controller that periodically re-derives (P_tx, l_D, N_maxTries) from the
// empirical models for a chosen objective.
#pragma once

#include "core/models/model_set.h"
#include "core/opt/objectives.h"
#include "core/stack_config.h"

namespace wsnlink::core::opt {

/// Exponentially-weighted moving average estimator of link SNR.
///
/// Receptions feed measured SNR directly. Losses carry no SNR reading, so
/// they are folded in pessimistically: each loss nudges the estimate
/// towards a configurable floor, bounding how long the estimator can stay
/// optimistic on a link that suddenly died.
class LinkQualityEstimator {
 public:
  /// `alpha` is the EWMA weight of a new sample in (0, 1]. `loss_step_db`
  /// is the downward nudge applied per reported loss.
  explicit LinkQualityEstimator(double alpha = 0.1, double loss_step_db = 0.5,
                                double floor_db = -5.0);

  /// Feeds the SNR of a successfully received packet.
  void OnReception(double snr_db);

  /// Feeds a link-layer loss (packet exhausted its retries).
  void OnLoss();

  /// True once at least one reception has been observed.
  [[nodiscard]] bool HasEstimate() const noexcept { return has_estimate_; }

  /// Current SNR estimate in dB. Requires HasEstimate().
  [[nodiscard]] double SnrDb() const;

  /// Samples observed since construction/Reset.
  [[nodiscard]] std::size_t Receptions() const noexcept { return receptions_; }
  [[nodiscard]] std::size_t Losses() const noexcept { return losses_; }

  /// Forgets everything (e.g. after a known topology change).
  void Reset();

 private:
  double alpha_;
  double loss_step_db_;
  double floor_db_;
  double estimate_db_ = 0.0;
  bool has_estimate_ = false;
  std::size_t receptions_ = 0;
  std::size_t losses_ = 0;
};

/// What the controller optimises for.
enum class AdaptationObjective {
  kEnergy,   ///< min U_eng subject to a loss ceiling
  kGoodput,  ///< max goodput subject to an energy ceiling
};

/// Controller policy knobs.
struct AdaptiveControllerConfig {
  AdaptationObjective objective = AdaptationObjective::kEnergy;
  /// For kEnergy: the radio-loss ceiling honoured while minimising energy.
  double radio_loss_ceiling = 0.05;
  /// For kGoodput: the energy ceiling in uJ/bit (<= 0: unconstrained).
  double energy_ceiling_uj_per_bit = 0.0;
  /// Reconfigure after this many send reports (an "epoch").
  int packets_per_epoch = 50;
  /// Hysteresis: only switch when the estimate moved at least this much
  /// since the SNR the current configuration was derived for.
  double min_snr_change_db = 1.5;
};

/// Model-driven adaptive reconfiguration of one link.
///
/// Usage: forward every send outcome via Report*(), then poll
/// MaybeReconfigure() — it returns true when Config() changed.
class AdaptiveController {
 public:
  AdaptiveController(models::ModelSet models, StackConfig initial,
                     AdaptiveControllerConfig config = {});

  /// Reports a delivered packet with the SNR its copy was received at.
  void ReportReception(double snr_db);

  /// Reports a packet lost on radio (all retries exhausted).
  void ReportLoss();

  /// Re-derives the configuration if an epoch elapsed and the link moved.
  /// Returns true when the active configuration changed.
  bool MaybeReconfigure();

  /// The currently recommended configuration.
  [[nodiscard]] const StackConfig& Config() const noexcept { return config_; }

  /// Number of reconfigurations performed so far.
  [[nodiscard]] int Reconfigurations() const noexcept { return reconfigs_; }

  /// Derives the configuration the controller would pick at a given SNR
  /// (pure; exposed for tests and offline what-if analysis). The SNR is the
  /// one measured at `at_level`; candidates at other levels are evaluated
  /// by shifting it with the dBm difference between levels.
  [[nodiscard]] StackConfig DeriveConfig(double snr_db, int at_level) const;

 private:
  models::ModelSet models_;
  StackConfig config_;
  AdaptiveControllerConfig policy_;
  LinkQualityEstimator estimator_;
  int reports_in_epoch_ = 0;
  int reconfigs_ = 0;
  double config_snr_db_ = -1000.0;  // SNR the current config was derived at
};

}  // namespace wsnlink::core::opt
