// Wire protocol of the wsnlinkd tuning service.
//
// One request per line, one response per line — a flat JSON-subset object
// with string keys and string/number/boolean values. Three verbs:
//
//   optimize  run the Sec. VIII joint optimizer (epsilon-constraint search
//             over the serving config space) for a channel/constraint spec;
//   what_if   simulate one explicit StackConfig under a seed contract and
//             return the measured metric vector;
//   stats     report the daemon's request/cache counters (advisory, never
//             cached, excluded from determinism goldens).
//
// The parser is strict by design: unknown keys, nested values, duplicate
// keys, out-of-bounds parameters and oversized lines are all rejected with
// a typed ProtocolError whose message becomes a structured
// {"status":"error",...} reply — malformed input can never crash, hang or
// silently default. Responses are canonical: doubles render through
// std::to_chars shortest-round-trip form and objects carry no whitespace,
// so a cached payload is byte-identical to a freshly computed one (the
// property the determinism suite pins). No wall-clock anywhere: the only
// time in a response is simulated time.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/stack_config.h"
#include "node/link_simulation.h"

namespace wsnlink::serve {

/// Longest accepted request line, delimiter excluded. Longer lines are
/// answered with a structured error (and the connection kept alive).
inline constexpr std::size_t kMaxRequestBytes = 8192;

/// Cache/compatibility tag baked into every cache key and the persisted
/// cache header. Bump it whenever the response schema, the simulator
/// physics or the serving config space change in any observable way: a
/// persisted cache with a different tag is discarded wholesale at warm
/// start (invalidation rule, see docs/SERVING.md).
inline constexpr std::string_view kServeVersionTag = "wsnlink-serve-v3";

/// Malformed or out-of-contract request. The message is safe to echo to
/// the client (single line, no control characters).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

enum class Verb { kOptimize, kWhatIf, kStats };

/// The objective of an optimize request (maps onto core::opt::Metric).
enum class Objective { kEnergy, kGoodput, kDelay, kLoss };

/// A fully validated request.
struct Request {
  Verb verb = Verb::kStats;

  // --- what_if -----------------------------------------------------------
  /// The explicit configuration to simulate (defaults = StackConfig
  /// defaults; already Validate()d by the parser).
  core::StackConfig config;
  node::MacKind mac = node::MacKind::kCsma;
  double lpl_wakeup_ms = 100.0;
  /// Seed contract: the (seed, packets) pair every cached answer is keyed
  /// under. Two requests for the same config under different contracts are
  /// different cache entries.
  std::uint64_t seed = 1;
  int packets = 1000;

  // --- optimize ----------------------------------------------------------
  Objective objective = Objective::kEnergy;
  double distance_m = 20.0;
  double pkt_interval_ms = 100.0;
  /// Optional measured link quality; when set the search evaluates every
  /// candidate at this SNR instead of deriving it from placement.
  std::optional<double> snr_db;
  /// Optional epsilon constraints (absent = unconstrained).
  std::optional<double> max_energy_uj_per_bit;
  std::optional<double> max_delay_ms;
  std::optional<double> max_loss;
  std::optional<double> min_goodput_kbps;
};

/// Parses and validates one request line (without the trailing newline).
/// Throws ProtocolError on any malformed or out-of-bounds input.
[[nodiscard]] Request ParseRequest(std::string_view line);

/// The canonical cache key of a request: a rebuilt (not echoed) rendering
/// of every semantically significant field plus `tag`, so two spellings of
/// the same query share one cache entry and a version-tag bump invalidates
/// everything. Contains no whitespace. Stats requests have no key (they
/// are never cached); calling this on one throws std::logic_error.
[[nodiscard]] std::string CanonicalKey(const Request& request,
                                       std::string_view tag = kServeVersionTag);

/// Structured error reply: {"status":"error","error":"<escaped message>"}.
[[nodiscard]] std::string ErrorResponse(std::string_view message);

/// Shortest round-trip rendering of a double (std::to_chars): canonical,
/// locale-free, byte-stable across runs — the only way numbers enter
/// responses and cache keys. NaN and the infinities render as JSON null
/// (requests carry finite numbers only, so keys never hold one).
[[nodiscard]] std::string FormatDouble(double value);

/// Escapes a string for embedding in a JSON-subset reply (quotes,
/// backslashes; control characters become spaces).
[[nodiscard]] std::string JsonEscape(std::string_view text);

/// Splits `buffer` into complete '\n'-terminated lines (CR stripped) and
/// leaves the unterminated tail in `buffer`. The server's framing step,
/// exposed so the fuzz suite can drive interleaved/partial delivery
/// in-process.
[[nodiscard]] std::vector<std::string> ExtractCompleteLines(
    std::string& buffer);

}  // namespace wsnlink::serve
