// The complete model family of the paper's Table III, bundled.
//
// A ModelSet is what an application carries around to make configuration
// decisions: energy (E), max goodput (G), delay (D) and radio loss (L)
// models built over one consistent set of fitted coefficients, plus the
// link-quality map translating placement and power into SNR.
#pragma once

#include <string>

#include "core/models/delay_model.h"
#include "core/models/energy_model.h"
#include "core/models/goodput_model.h"
#include "core/models/link_quality.h"
#include "core/models/ntries_model.h"
#include "core/models/per_model.h"
#include "core/models/plr_model.h"
#include "core/models/service_time_model.h"
#include "core/stack_config.h"

namespace wsnlink::core::models {

/// The link terms of a prediction: every term that costs an exp, pow or
/// log10. They depend only on the SNR (placement), the PA level, the max
/// tries, the retry delay and the payload, so a search over the traffic
/// knobs computes them once and reuses them.
struct LinkTerms {
  double snr_db = 0.0;
  double per = 0.0;                  ///< per-attempt error rate (Eq. 3)
  double mean_tries = 0.0;           ///< Eq. 7 (truncated at N_maxTries)
  double service_time_ms = 0.0;      ///< Eqs. 5-6 mixture
  double energy_uj_per_bit = 0.0;    ///< Eq. 2
  double max_goodput_kbps = 0.0;     ///< Eq. 4
  double plr_radio = 0.0;            ///< Eq. 8
};

/// All metric predictions for one configuration at one link quality: its
/// link terms plus the traffic terms, plain arithmetic on the link terms,
/// the packet interval and the queue capacity.
struct MetricPrediction : LinkTerms {
  double utilization = 0.0;          ///< rho = T_service / T_pkt
  double total_delay_ms = 0.0;       ///< queue wait + service time
  double plr_queue = 0.0;            ///< fluid estimate
  double plr_total = 0.0;            ///< combined loss
};

/// Adds the traffic terms to `link`: the prediction of a configuration with
/// that link, packet interval and queue capacity.
[[nodiscard]] MetricPrediction WithTraffic(const LinkTerms& link,
                                           double pkt_interval_ms,
                                           int queue_capacity);

/// Bundle of the paper's empirical models (Table III).
class ModelSet {
 public:
  /// Default-constructs every member model with the paper's coefficients.
  ModelSet();

  /// Custom coefficient construction (e.g. refitted from a fresh campaign).
  ModelSet(ScaledExpCoefficients per, ScaledExpCoefficients ntries,
           ScaledExpCoefficients plr, LinkQualityMap link_quality);

  /// Predicts every metric of a configuration from its placement (SNR is
  /// derived via the link-quality map).
  [[nodiscard]] MetricPrediction Predict(const StackConfig& config) const;

  /// Predicts every metric at an explicitly known SNR (e.g. measured at
  /// run time by the receiver), ignoring the config's distance/power.
  /// Equal to WithTraffic(LinkTermsAtSnr(config, snr_db), ...) of the
  /// config's packet interval and queue capacity.
  [[nodiscard]] MetricPrediction PredictAtSnr(const StackConfig& config,
                                              double snr_db) const;

  /// The link terms of `config` at `snr_db`; reads only its PA level, max
  /// tries, retry delay and payload, and validates just those.
  [[nodiscard]] LinkTerms LinkTermsAtSnr(const StackConfig& config,
                                         double snr_db) const;

  /// Renders Table III (model summary) as human-readable text.
  [[nodiscard]] std::string SummaryTable() const;

  [[nodiscard]] const PerModel& Per() const noexcept { return per_; }
  [[nodiscard]] const NtriesModel& Ntries() const noexcept { return ntries_; }
  [[nodiscard]] const PlrModel& Plr() const noexcept { return plr_; }
  [[nodiscard]] const ServiceTimeModel& Service() const noexcept { return service_; }
  [[nodiscard]] const EnergyModel& Energy() const noexcept { return energy_; }
  [[nodiscard]] const GoodputModel& Goodput() const noexcept { return goodput_; }
  [[nodiscard]] const DelayModel& Delay() const noexcept { return delay_; }
  [[nodiscard]] const LinkQualityMap& LinkQuality() const noexcept {
    return link_quality_;
  }

 private:
  PerModel per_;
  NtriesModel ntries_;
  PlrModel plr_;
  ServiceTimeModel service_;
  EnergyModel energy_;
  GoodputModel goodput_;
  DelayModel delay_;
  LinkQualityMap link_quality_;
};

}  // namespace wsnlink::core::models
