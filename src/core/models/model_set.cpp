// wsnlint:hot-path — the optimize search (core/opt/epsilon_constraint.cpp)
// calls LinkTermsAtSnr once per link and WithTraffic once per config; the
// zero-alloc invariant (docs/PERF.md) is linted here.
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
  return WithTraffic(LinkTermsAtSnr(config, snr_db), config.pkt_interval_ms,
                     config.queue_capacity);
}

LinkTerms ModelSet::LinkTermsAtSnr(const StackConfig& config,
                                   double snr_db) const {
  ServiceTimeInputs in;
  in.payload_bytes = config.payload_bytes;
  in.snr_db = snr_db;
  in.max_tries = config.max_tries;
  in.retry_delay_ms = config.retry_delay_ms;

  LinkTerms t;
  t.snr_db = snr_db;
  t.per = per_.Per(config.payload_bytes, snr_db);
  t.mean_tries = ntries_.MeanTriesTruncated(config.payload_bytes, snr_db,
                                            config.max_tries);
  t.plr_radio = plr_.RadioLoss(config.payload_bytes, snr_db, config.max_tries);
  t.service_time_ms = service_.MeanMs(in, t.plr_radio);
  t.energy_uj_per_bit = EnergyModel::MicrojoulesPerBitAtPer(
      config.payload_bytes, t.per, config.pa_level);
  t.max_goodput_kbps = GoodputModel::MaxGoodputKbps(
      config.payload_bytes, t.service_time_ms, t.plr_radio);
  return t;
}

MetricPrediction WithTraffic(const LinkTerms& link, double pkt_interval_ms,
                             int queue_capacity) {
  const double service_ms = link.service_time_ms;
  MetricPrediction p{link};
  p.utilization = DelayModel::Utilization(service_ms, pkt_interval_ms);
  p.total_delay_ms =
      DelayModel::TotalDelayMs(service_ms, pkt_interval_ms, queue_capacity);
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
