// wsnlint:hot-path — part of the per-config inner loop; the zero-alloc
// invariant (docs/PERF.md) is linted here and measured by perf_sweep.
#include "core/models/model_set.h"

#include <cstdio>

namespace wsnlink::core::models {

ModelSet::ModelSet()
    : ModelSet(kPaperPerFit, kPaperNtriesFit, kPaperPlrFit, LinkQualityMap()) {}

ModelSet::ModelSet(ScaledExpCoefficients per, ScaledExpCoefficients ntries,
                   ScaledExpCoefficients plr, LinkQualityMap link_quality)
    : per_(per),
      ntries_(ntries),
      plr_(plr),
      service_(NtriesModel(ntries), PlrModel(plr)),
      energy_(PerModel(per)),
      goodput_(ServiceTimeModel(NtriesModel(ntries), PlrModel(plr)),
               PlrModel(plr)),
      delay_(ServiceTimeModel(NtriesModel(ntries), PlrModel(plr))),
      link_quality_(link_quality) {}

MetricPrediction ModelSet::Predict(const StackConfig& config) const {
  config.Validate();
  return PredictAtSnr(config,
                      link_quality_.SnrDb(config.pa_level, config.distance_m));
}

MetricPrediction ModelSet::PredictAtSnr(const StackConfig& config,
                                        double snr_db) const {
  config.Validate();
  ServiceTimeInputs in;
  in.payload_bytes = config.payload_bytes;
  in.snr_db = snr_db;
  in.max_tries = config.max_tries;
  in.retry_delay_ms = config.retry_delay_ms;

  MetricPrediction p;
  p.snr_db = snr_db;
  p.per = per_.Per(config.payload_bytes, snr_db);
  p.mean_tries = ntries_.MeanTriesTruncated(config.payload_bytes, snr_db,
                                            config.max_tries);
  p.service_time_ms = service_.MeanMs(in);
  p.utilization = delay_.Utilization(in, config.pkt_interval_ms);
  p.energy_uj_per_bit =
      energy_.MicrojoulesPerBit(config.payload_bytes, snr_db, config.pa_level);
  p.max_goodput_kbps = goodput_.MaxGoodputKbps(in);
  p.total_delay_ms =
      delay_.TotalDelayMs(in, config.pkt_interval_ms, config.queue_capacity);
  p.plr_radio = plr_.RadioLoss(config.payload_bytes, snr_db, config.max_tries);
  p.plr_queue = QueueLossEstimate(p.utilization);
  p.plr_total = CombineLoss(p.plr_queue, p.plr_radio);
  return p;
}

std::string ModelSet::SummaryTable() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "Table III: empirical models\n"
      "  E  energy     U_eng = E_tx*(l_0+l_D)/(l_D*(1-PER))          (Eq. 2)\n"
      "  -  PER        PER = %.4f * l_D * exp(%.3f * SNR)            (Eq. 3)\n"
      "  G  goodput    maxGoodput = l_D/T_service*(1-PLR_radio)      (Eq. 4)\n"
      "  D  delay      T_service per Eqs. (5)-(6); rho = T_s/T_pkt\n"
      "  -  N_tries    N = 1 + %.3f * l_D * exp(%.3f * SNR)          (Eq. 7)\n"
      "  L  radio loss PLR = (%.4f * l_D * exp(%.3f * SNR))^N        (Eq. 8)\n",
      per_.Coefficients().a, per_.Coefficients().b, ntries_.Coefficients().a,
      ntries_.Coefficients().b, plr_.Coefficients().a, plr_.Coefficients().b);
  return buf;
}

}  // namespace wsnlink::core::models
