#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <map>

#include "util/args.h"

namespace wsnlink::serve {

namespace {

// ---------------------------------------------------------------------------
// Flat JSON-subset tokenizer. Accepts exactly:
//   object  = '{' [ pair ( ',' pair )* ] '}'
//   pair    = string ':' value
//   value   = string | number | 'true' | 'false'
// with insignificant ASCII whitespace between tokens, string escapes limited
// to \" and \\, and nothing after the closing brace. Arrays, nested objects,
// null, unicode escapes and duplicate keys are rejected: every accepted
// request has exactly one meaning.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kMaxPairs = 64;
inline constexpr std::size_t kMaxTokenBytes = 512;

struct Value {
  enum class Kind { kString, kNumber, kBool } kind = Kind::kString;
  /// Unescaped text for strings, the raw token for numbers, "true"/"false"
  /// for booleans.
  std::string text;
};

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  [[nodiscard]] char Peek() {
    SkipWs();
    if (pos_ >= text_.size()) {
      throw ProtocolError("request truncated: unexpected end of line");
    }
    return text_[pos_];
  }

  void Expect(char ch) {
    if (Peek() != ch) {
      throw ProtocolError(std::string("expected '") + ch + "' at byte " +
                          std::to_string(pos_) + ", got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  [[nodiscard]] std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        throw ProtocolError("unterminated string in request");
      }
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch == '\\') {
        if (pos_ >= text_.size()) {
          throw ProtocolError("dangling escape at end of request");
        }
        const char esc = text_[pos_++];
        if (esc != '"' && esc != '\\') {
          throw ProtocolError(std::string("unsupported escape '\\") + esc +
                              "' (only \\\" and \\\\ are accepted)");
        }
        out += esc;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        throw ProtocolError("control character inside string");
      } else {
        out += ch;
      }
      if (out.size() > kMaxTokenBytes) {
        throw ProtocolError("string value exceeds " +
                            std::to_string(kMaxTokenBytes) + " bytes");
      }
    }
  }

  [[nodiscard]] Value ParseValue() {
    const char ch = Peek();
    if (ch == '"') return {Value::Kind::kString, ParseString()};
    if (ch == 't' || ch == 'f') {
      const std::string_view rest = text_.substr(pos_);
      if (rest.substr(0, 4) == "true") {
        pos_ += 4;
        return {Value::Kind::kBool, "true"};
      }
      if (rest.substr(0, 5) == "false") {
        pos_ += 5;
        return {Value::Kind::kBool, "false"};
      }
      throw ProtocolError("bad literal (only true/false are accepted)");
    }
    if (ch == '-' || (ch >= '0' && ch <= '9')) {
      const std::size_t start = pos_;
      auto is_number_char = [](char c) {
        return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
               c == 'e' || c == 'E';
      };
      while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
      if (pos_ - start > kMaxTokenBytes) {
        throw ProtocolError("number token exceeds " +
                            std::to_string(kMaxTokenBytes) + " bytes");
      }
      return {Value::Kind::kNumber,
              std::string(text_.substr(start, pos_ - start))};
    }
    if (ch == '{' || ch == '[') {
      throw ProtocolError("nested objects/arrays are not part of the "
                          "protocol (flat object only)");
    }
    throw ProtocolError(std::string("unexpected character '") + ch +
                        "' where a value was expected");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses the line into an ordered key->value map, rejecting duplicates.
std::map<std::string, Value> ParseObject(std::string_view line) {
  Cursor cursor(line);
  cursor.Expect('{');
  std::map<std::string, Value> pairs;
  if (cursor.Peek() != '}') {
    while (true) {
      std::string key = cursor.ParseString();
      if (key.empty()) throw ProtocolError("empty key");
      cursor.Expect(':');
      Value value = cursor.ParseValue();
      if (!pairs.emplace(std::move(key), std::move(value)).second) {
        throw ProtocolError("duplicate key in request");
      }
      if (pairs.size() > kMaxPairs) {
        throw ProtocolError("request has more than " +
                            std::to_string(kMaxPairs) + " keys");
      }
      const char next = cursor.Peek();
      if (next == ',') {
        cursor.Expect(',');
        continue;
      }
      break;
    }
  }
  cursor.Expect('}');
  if (!cursor.AtEnd()) {
    throw ProtocolError("trailing bytes after closing '}'");
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Typed field extraction.
// ---------------------------------------------------------------------------

/// Consumes `key` from `pairs` (so leftovers can be flagged as unknown).
std::optional<Value> Take(std::map<std::string, Value>& pairs,
                          const std::string& key) {
  const auto it = pairs.find(key);
  if (it == pairs.end()) return std::nullopt;
  Value value = std::move(it->second);
  pairs.erase(it);
  return value;
}

double NumberOf(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kNumber) {
    throw ProtocolError("field '" + key + "' must be a number");
  }
  // Same canonical grammar as every other double parser in the tree
  // (util::ParseDouble, Args::GetDouble): whole-string decimal/scientific,
  // finite only — "inf", "nan", hex floats and whitespace are rejected
  // here even if a future tokenizer change were to let them through.
  double parsed{};
  if (!util::ParseCanonicalDouble(value.text, parsed)) {
    throw ProtocolError("field '" + key + "' is not a valid number ('" +
                        value.text + "')");
  }
  return parsed;
}

double TakeDouble(std::map<std::string, Value>& pairs, const std::string& key,
                  double fallback) {
  const auto value = Take(pairs, key);
  return value ? NumberOf(*value, key) : fallback;
}

std::optional<double> TakeOptionalDouble(std::map<std::string, Value>& pairs,
                                         const std::string& key) {
  const auto value = Take(pairs, key);
  if (!value) return std::nullopt;
  return NumberOf(*value, key);
}

/// Reads an integer field of type T. `word` names the type in error
/// replies: "integer" or "unsigned integer".
template <typename T>
T TakeInteger(std::map<std::string, Value>& pairs, const std::string& key,
              T fallback, const char* word) {
  const auto value = Take(pairs, key);
  if (!value) return fallback;
  if (value->kind != Value::Kind::kNumber) {
    throw ProtocolError("field '" + key + "' must be an " + word);
  }
  T parsed{};
  const char* begin = value->text.data();
  const char* end = begin + value->text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || ptr != end) {
    throw ProtocolError("field '" + key + "' is not a valid " + word + " ('" +
                        value->text + "')");
  }
  return parsed;
}

std::string TakeString(std::map<std::string, Value>& pairs,
                       const std::string& key, const std::string& fallback) {
  const auto value = Take(pairs, key);
  if (!value) return fallback;
  if (value->kind != Value::Kind::kString) {
    throw ProtocolError("field '" + key + "' must be a string");
  }
  return value->text;
}

/// Packets-per-request ceiling: keeps one hostile what_if from pinning a
/// worker for minutes. Matches the paper's 4500-packet campaigns with room
/// to spare.
inline constexpr int kMaxPackets = 20000;

Request ParseWhatIf(std::map<std::string, Value>& pairs) {
  Request request;
  request.verb = Verb::kWhatIf;
  request.config.distance_m =
      TakeDouble(pairs, "distance_m", request.config.distance_m);
  request.config.pa_level =
      TakeInteger(pairs, "pa_level", request.config.pa_level, "integer");
  request.config.max_tries =
      TakeInteger(pairs, "max_tries", request.config.max_tries, "integer");
  request.config.retry_delay_ms =
      TakeDouble(pairs, "retry_delay_ms", request.config.retry_delay_ms);
  request.config.queue_capacity = TakeInteger(
      pairs, "queue_capacity", request.config.queue_capacity, "integer");
  request.config.pkt_interval_ms =
      TakeDouble(pairs, "pkt_interval_ms", request.config.pkt_interval_ms);
  request.config.payload_bytes = TakeInteger(
      pairs, "payload_bytes", request.config.payload_bytes, "integer");
  const std::string mac = TakeString(pairs, "mac", "csma");
  if (mac == "csma") {
    request.mac = node::MacKind::kCsma;
  } else if (mac == "lpl") {
    request.mac = node::MacKind::kLpl;
  } else {
    throw ProtocolError("field 'mac' must be \"csma\" or \"lpl\"");
  }
  request.lpl_wakeup_ms =
      TakeDouble(pairs, "lpl_wakeup_ms", request.lpl_wakeup_ms);
  if (request.lpl_wakeup_ms <= 0.0) {
    throw ProtocolError("field 'lpl_wakeup_ms' must be > 0");
  }
  request.seed = TakeInteger(pairs, "seed", request.seed, "unsigned integer");
  request.packets = TakeInteger(pairs, "packets", request.packets, "integer");
  if (request.packets < 1 || request.packets > kMaxPackets) {
    throw ProtocolError("field 'packets' must be in [1, " +
                        std::to_string(kMaxPackets) + "]");
  }
  if (request.config.distance_m > 10000.0) {
    throw ProtocolError("field 'distance_m' must be <= 10000");
  }
  try {
    request.config.Validate();
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(e.what());
  }
  return request;
}

Request ParseOptimize(std::map<std::string, Value>& pairs) {
  Request request;
  request.verb = Verb::kOptimize;
  const std::string objective = TakeString(pairs, "objective", "energy");
  if (objective == "energy") {
    request.objective = Objective::kEnergy;
  } else if (objective == "goodput") {
    request.objective = Objective::kGoodput;
  } else if (objective == "delay") {
    request.objective = Objective::kDelay;
  } else if (objective == "loss") {
    request.objective = Objective::kLoss;
  } else {
    throw ProtocolError(
        "field 'objective' must be one of energy|goodput|delay|loss");
  }
  request.distance_m = TakeDouble(pairs, "distance_m", request.distance_m);
  if (request.distance_m <= 0.0 || request.distance_m > 10000.0) {
    throw ProtocolError("field 'distance_m' must be in (0, 10000]");
  }
  request.pkt_interval_ms =
      TakeDouble(pairs, "pkt_interval_ms", request.pkt_interval_ms);
  if (request.pkt_interval_ms <= 0.0) {
    throw ProtocolError("field 'pkt_interval_ms' must be > 0");
  }
  request.snr_db = TakeOptionalDouble(pairs, "snr_db");
  request.max_energy_uj_per_bit =
      TakeOptionalDouble(pairs, "max_energy_uj_per_bit");
  request.max_delay_ms = TakeOptionalDouble(pairs, "max_delay_ms");
  request.max_loss = TakeOptionalDouble(pairs, "max_loss");
  request.min_goodput_kbps = TakeOptionalDouble(pairs, "min_goodput_kbps");
  return request;
}

}  // namespace

Request ParseRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    throw ProtocolError("request exceeds " + std::to_string(kMaxRequestBytes) +
                        " bytes");
  }
  auto pairs = ParseObject(line);
  const auto verb = Take(pairs, "verb");
  if (!verb) throw ProtocolError("missing 'verb'");
  if (verb->kind != Value::Kind::kString) {
    throw ProtocolError("field 'verb' must be a string");
  }

  Request request;
  if (verb->text == "what_if") {
    request = ParseWhatIf(pairs);
  } else if (verb->text == "optimize") {
    request = ParseOptimize(pairs);
  } else if (verb->text == "stats") {
    request.verb = Verb::kStats;
  } else {
    throw ProtocolError("unknown verb '" + verb->text +
                        "' (optimize|what_if|stats)");
  }
  if (!pairs.empty()) {
    throw ProtocolError("unknown key '" + pairs.begin()->first + "' for verb '" +
                        verb->text + "'");
  }
  return request;
}

std::string FormatDouble(double value) {
  // JSON has no token for NaN or the infinities (a dead link's energy per
  // delivered bit is +inf); they render as null.
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";  // unreachable for finite doubles
  return std::string(buf, ptr);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string ErrorResponse(std::string_view message) {
  return "{\"status\":\"error\",\"error\":\"" + JsonEscape(message) + "\"}";
}

std::string CanonicalKey(const Request& request, std::string_view tag) {
  std::string key;
  key.reserve(160);
  const auto num = [](double v) { return FormatDouble(v); };
  const auto opt = [&](const std::optional<double>& v) {
    return v ? FormatDouble(*v) : std::string("none");
  };
  switch (request.verb) {
    case Verb::kWhatIf:
      key += "what_if|d=" + num(request.config.distance_m);
      key += "|pa=" + std::to_string(request.config.pa_level);
      key += "|mt=" + std::to_string(request.config.max_tries);
      key += "|rd=" + num(request.config.retry_delay_ms);
      key += "|qc=" + std::to_string(request.config.queue_capacity);
      key += "|ti=" + num(request.config.pkt_interval_ms);
      key += "|pb=" + std::to_string(request.config.payload_bytes);
      key += request.mac == node::MacKind::kLpl ? "|mac=lpl" : "|mac=csma";
      key += "|lw=" + num(request.lpl_wakeup_ms);
      key += "|seed=" + std::to_string(request.seed);
      key += "|pk=" + std::to_string(request.packets);
      break;
    case Verb::kOptimize: {
      key += "optimize|obj=";
      switch (request.objective) {
        case Objective::kEnergy: key += "energy"; break;
        case Objective::kGoodput: key += "goodput"; break;
        case Objective::kDelay: key += "delay"; break;
        case Objective::kLoss: key += "loss"; break;
      }
      key += "|d=" + num(request.distance_m);
      key += "|ti=" + num(request.pkt_interval_ms);
      key += "|snr=" + opt(request.snr_db);
      key += "|ce=" + opt(request.max_energy_uj_per_bit);
      key += "|cd=" + opt(request.max_delay_ms);
      key += "|cl=" + opt(request.max_loss);
      key += "|cg=" + opt(request.min_goodput_kbps);
      break;
    }
    case Verb::kStats:
      throw std::logic_error("stats requests have no cache key");
  }
  key += "|tag=";
  key += tag;
  return key;
}

std::vector<std::string> ExtractCompleteLines(std::string& buffer) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) break;
    std::size_t end = nl;
    if (end > start && buffer[end - 1] == '\r') --end;
    lines.emplace_back(buffer.substr(start, end - start));
    start = nl + 1;
  }
  buffer.erase(0, start);
  return lines;
}

}  // namespace wsnlink::serve
