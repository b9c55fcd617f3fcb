// Unslotted CSMA-CA MAC with acknowledgements and bounded retransmission.
//
// Models the beaconless IEEE 802.15.4 mode of the TinyOS 2.1 CC2420 stack
// that the paper's motes ran:
//
//   SPI-load -> [initial backoff -> CCA -> turnaround -> frame airtime ->
//                ACK or ACK-wait timeout -> (retry delay)] * up to N_maxTries
//
// The two MAC-layer knobs the paper sweeps are N_maxTries (maximum number of
// transmissions per packet, 1 = no retransmission) and D_retry (delay
// inserted before each retransmission). One packet is in flight at a time;
// the queue above the MAC (link layer) feeds the next packet on completion.
#pragma once

#include <cstdint>

#include "channel/channel.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::mac {

/// MAC-layer configuration (the paper's N_maxTries and D_retry, plus the
/// PHY power level the frame is radiated with).
struct MacParams {
  /// Maximum number of transmissions, >= 1. 1 means no retransmission.
  int max_tries = 3;
  /// Delay before each retransmission (D_retry), >= 0.
  sim::Duration retry_delay = 0;
  /// CC2420 PA_LEVEL used for every attempt.
  int pa_level = 31;
};

/// The always-on CSMA-CA sender MAC.
class CsmaMac final : public Mac {
 public:
  /// All referenced collaborators must outlive the MAC.
  CsmaMac(sim::Simulator& simulator, channel::Channel& channel,
          MacParams params, util::Rng rng);

  /// Also registers mac.tx_attempts.
  void AttachTrace(const trace::TraceContext& ctx) override;

  [[nodiscard]] const MacParams& Params() const noexcept { return params_; }

 private:
  /// The rungs of one attempt, in ladder order. A CCA that exhausts its
  /// congestion backoffs skips to kFinish.
  enum class Step : std::uint8_t {
    kBackoff,
    kCca,
    kTransmit,
    kOutcome,
    kFinish,
  };

  sim::Duration Advance(sim::Time t) override;
  int NextCcaRetriesLeft() const noexcept override {
    return step_ == Step::kCca ? cca_retries_left_ : -1;
  }
  /// Traces the sender radio's state as kRadioState events.
  void OnRadioState(sim::Time at, trace::RadioState state) override;

  MacParams params_;
  util::Rng rng_;
  Step step_ = Step::kBackoff;
  int cca_retries_left_ = 0;
  trace::CounterRegistry::Id id_tx_attempts_ = 0;
};

}  // namespace wsnlink::mac
