// SNR-bucketed aggregation over attempt logs.
//
// The paper's PER figures (Fig. 6) are built by bucketing hundreds of
// thousands of transmission attempts by their instantaneous SNR and
// computing the error ratio per bucket (optionally split by payload size).
// This module provides that aggregation plus sample extraction for the
// model fitters.
#pragma once

#include <span>
#include <vector>

#include "core/fit/exponential_fit.h"
#include "link/packet_log.h"

namespace wsnlink::metrics {

/// One SNR bucket of attempt outcomes.
struct SnrBucket {
  double snr_center_db = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;

  [[nodiscard]] double Per() const noexcept {
    return attempts > 0
               ? static_cast<double>(failures) / static_cast<double>(attempts)
               : 0.0;
  }
};

/// Buckets attempts by SNR with the given bucket width (dB). Buckets with
/// zero attempts are omitted; output is sorted by SNR. Requires width > 0.
[[nodiscard]] std::vector<SnrBucket> PerBySnr(
    std::span<const link::AttemptRecord> attempts, double bucket_width_db);

/// Converts bucketed PER observations into fitter samples
/// (one sample per (payload, bucket), weighted implicitly by inclusion).
[[nodiscard]] std::vector<core::fit::ScaledExpSample> PerFitSamples(
    std::span<const link::AttemptRecord> attempts, double bucket_width_db,
    std::uint64_t min_attempts_per_bucket = 20);

/// Mean-tries observations per (payload, SNR bucket) over *acked* packets,
/// as fitter samples with value = mean extra tries (N_tries - 1), matching
/// the paper's Eq. (7) fit of Fig. 11. SNR of a packet is taken from its
/// first delivered copy.
[[nodiscard]] std::vector<core::fit::ScaledExpSample> NtriesFitSamples(
    std::span<const link::PacketRecord> packets, double bucket_width_db,
    std::uint64_t min_packets_per_bucket = 20);

}  // namespace wsnlink::metrics
