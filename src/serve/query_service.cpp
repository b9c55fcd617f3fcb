#include "serve/query_service.h"

#include <exception>
#include <set>
#include <string_view>

#include "core/opt/epsilon_constraint.h"
#include "experiment/checkpoint.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/thread_pool.h"

namespace wsnlink::serve {

namespace {

/// Appends `"name":<double>` (canonical shortest form) to `out`.
void Field(std::string* out, std::string_view name, double value) {
  *out += '"';
  *out += name;
  *out += "\":";
  *out += FormatDouble(value);
}

void FieldInt(std::string* out, std::string_view name, std::uint64_t value) {
  *out += '"';
  *out += name;
  *out += "\":";
  *out += std::to_string(value);
}

}  // namespace

core::opt::ConfigSpace ServingSpace(double distance_m,
                                    double pkt_interval_ms) {
  core::opt::ConfigSpace space;
  space.distances_m = {distance_m};
  space.pa_levels = {3, 7, 11, 15, 19, 23, 27, 31};
  space.max_tries = {1, 2, 3, 5, 8};
  space.retry_delays_ms = {0.0};
  space.queue_capacities = {1, 10, 30};
  space.pkt_intervals_ms = {pkt_interval_ms};
  space.payload_bytes = {5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 114};
  return space;
}

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(std::string(kServeVersionTag), options_.cache_max_entries) {
  if (options_.persist_every == 0) options_.persist_every = 1;
  if (!options_.cache_path.empty()) {
    const CacheLoadReport report = cache_.Load(options_.cache_path);
    warm_loaded_ = report.loaded;
    corrupt_dropped_ = report.corrupt_dropped;
  }
}

QueryService::~QueryService() {
  // Best-effort final persist; a failing disk must not turn shutdown into
  // a crash.
  (void)Flush();
}

std::string QueryService::ComputeWhatIf(const Request& request) const {
  node::SimulationOptions sim;
  sim.config = request.config;
  sim.mac = request.mac;
  sim.lpl_wakeup_interval_ms = request.lpl_wakeup_ms;
  sim.seed = request.seed;
  sim.packet_count = request.packets;
  const metrics::LinkMetrics m = metrics::MeasureConfig(sim);

  std::string out = "{\"status\":\"ok\",\"verb\":\"what_if\",";
  FieldInt(&out, "generated", static_cast<std::uint64_t>(m.generated));
  out += ',';
  FieldInt(&out, "delivered", m.delivered_unique);
  out += ',';
  FieldInt(&out, "duplicates", m.duplicates);
  out += ',';
  Field(&out, "per", m.per);
  out += ',';
  Field(&out, "mean_tries", m.mean_tries_all);
  out += ',';
  Field(&out, "plr_queue", m.plr_queue);
  out += ',';
  Field(&out, "plr_radio", m.plr_radio);
  out += ',';
  Field(&out, "plr_total", m.plr_total);
  out += ',';
  Field(&out, "goodput_kbps", m.goodput_kbps);
  out += ',';
  Field(&out, "energy_uj_per_bit", m.energy_uj_per_bit);
  out += ',';
  Field(&out, "mean_delay_ms", m.mean_delay_ms);
  out += ',';
  Field(&out, "delay_p50_ms", m.delay_p50_ms);
  out += ',';
  Field(&out, "delay_p99_ms", m.p99_delay_ms);
  out += ',';
  Field(&out, "delay_max_ms", m.delay_max_ms);
  out += ',';
  Field(&out, "utilization", m.utilization);
  out += ',';
  Field(&out, "mean_snr_db", m.mean_snr_db);
  out += ',';
  Field(&out, "duration_s", m.duration_s);
  out += '}';
  return out;
}

std::string QueryService::ComputeOptimize(const Request& request) const {
  core::opt::Problem problem;
  switch (request.objective) {
    case Objective::kEnergy:
      problem.objective = core::opt::Metric::kEnergy;
      break;
    case Objective::kGoodput:
      problem.objective = core::opt::Metric::kGoodput;
      break;
    case Objective::kDelay:
      problem.objective = core::opt::Metric::kDelay;
      break;
    case Objective::kLoss:
      problem.objective = core::opt::Metric::kLoss;
      break;
  }
  problem.fixed_snr_db = request.snr_db;
  if (request.max_energy_uj_per_bit) {
    problem.constraints.push_back(core::opt::AtMost(
        core::opt::Metric::kEnergy, *request.max_energy_uj_per_bit));
  }
  if (request.max_delay_ms) {
    problem.constraints.push_back(
        core::opt::AtMost(core::opt::Metric::kDelay, *request.max_delay_ms));
  }
  if (request.max_loss) {
    problem.constraints.push_back(
        core::opt::AtMost(core::opt::Metric::kLoss, *request.max_loss));
  }
  if (request.min_goodput_kbps) {
    problem.constraints.push_back(
        core::opt::GoodputAtLeast(*request.min_goodput_kbps));
  }

  const auto space = ServingSpace(request.distance_m, request.pkt_interval_ms);
  const auto solution =
      core::opt::SolveEpsilonConstraint(models_, space, problem);
  if (!solution) {
    return "{\"status\":\"infeasible\",\"verb\":\"optimize\","
           "\"feasible_count\":0}";
  }

  std::string out = "{\"status\":\"ok\",\"verb\":\"optimize\",";
  FieldInt(&out, "feasible_count", solution->feasible_count);
  out += ",\"config\":{";
  Field(&out, "distance_m", solution->config.distance_m);
  out += ',';
  FieldInt(&out, "pa_level",
           static_cast<std::uint64_t>(solution->config.pa_level));
  out += ',';
  FieldInt(&out, "max_tries",
           static_cast<std::uint64_t>(solution->config.max_tries));
  out += ',';
  Field(&out, "retry_delay_ms", solution->config.retry_delay_ms);
  out += ',';
  FieldInt(&out, "queue_capacity",
           static_cast<std::uint64_t>(solution->config.queue_capacity));
  out += ',';
  Field(&out, "pkt_interval_ms", solution->config.pkt_interval_ms);
  out += ',';
  FieldInt(&out, "payload_bytes",
           static_cast<std::uint64_t>(solution->config.payload_bytes));
  out += "},\"prediction\":{";
  const auto& p = solution->prediction;
  Field(&out, "snr_db", p.snr_db);
  out += ',';
  Field(&out, "per", p.per);
  out += ',';
  Field(&out, "mean_tries", p.mean_tries);
  out += ',';
  Field(&out, "energy_uj_per_bit", p.energy_uj_per_bit);
  out += ',';
  Field(&out, "max_goodput_kbps", p.max_goodput_kbps);
  out += ',';
  Field(&out, "total_delay_ms", p.total_delay_ms);
  out += ',';
  Field(&out, "plr_radio", p.plr_radio);
  out += ',';
  Field(&out, "plr_total", p.plr_total);
  out += ',';
  Field(&out, "utilization", p.utilization);
  out += "}}";
  return out;
}

std::string QueryService::StatsResponse() const {
  const ServiceStats s = Stats();
  std::string out = "{\"status\":\"ok\",\"verb\":\"stats\",";
  FieldInt(&out, "requests", s.requests);
  out += ',';
  FieldInt(&out, "parse_errors", s.parse_errors);
  out += ',';
  FieldInt(&out, "cache_hits", s.cache_hits);
  out += ',';
  FieldInt(&out, "cache_misses", s.cache_misses);
  out += ',';
  FieldInt(&out, "computed_what_if", s.computed_what_if);
  out += ',';
  FieldInt(&out, "computed_optimize", s.computed_optimize);
  out += ',';
  FieldInt(&out, "persist_failures", s.persist_failures);
  out += ',';
  FieldInt(&out, "busy_rejected", s.busy_rejected);
  out += ',';
  FieldInt(&out, "warm_loaded", s.warm_loaded);
  out += ',';
  FieldInt(&out, "corrupt_dropped", s.corrupt_dropped);
  out += ',';
  FieldInt(&out, "cache_entries", s.cache_entries);
  out += '}';
  return out;
}

void QueryService::StoreAndMaybePersist(const std::string& key,
                                        const std::string& payload) {
  cache_.Store(key, payload);
  if (options_.cache_path.empty()) return;
  bool persist_now = false;
  {
    const std::lock_guard<std::mutex> lock(persist_mutex_);
    if (++stores_since_persist_ >= options_.persist_every) {
      stores_since_persist_ = 0;
      persist_now = true;
    }
  }
  if (persist_now) (void)Flush();
}

bool QueryService::Flush() {
  if (options_.cache_path.empty()) return true;
  const std::lock_guard<std::mutex> lock(persist_mutex_);
  try {
    cache_.Save(options_.cache_path);
    return true;
  } catch (const experiment::CheckpointError&) {
    // Same contract as campaign checkpoints: a failed persist never aborts
    // the work — the in-memory cache still answers, only warm start
    // coverage suffers.
    persist_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

void QueryService::CountBusyRejected(std::uint64_t count) {
  busy_rejected_.fetch_add(count, std::memory_order_relaxed);
}

std::string QueryService::Answer(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  try {
    request = ParseRequest(line);
  } catch (const ProtocolError& e) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(e.what());
  }
  if (request.verb == Verb::kStats) {
    return StatsResponse();
  }

  const std::string key = CanonicalKey(request);
  {
    const std::string cached = cache_.Lookup(key);
    if (!cached.empty()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  std::string payload;
  try {
    if (request.verb == Verb::kWhatIf) {
      payload = ComputeWhatIf(request);
      computed_what_if_.fetch_add(1, std::memory_order_relaxed);
    } else {
      payload = ComputeOptimize(request);
      computed_optimize_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    // Compute failures are answered, never cached: a transient condition
    // (OOM, injected fault) must not become a sticky wrong answer.
    return ErrorResponse(std::string("compute failed: ") + e.what());
  }
  StoreAndMaybePersist(key, payload);
  return payload;
}

std::vector<std::string> QueryService::AnswerBatch(
    const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  if (lines.empty()) return responses;
  if (lines.size() == 1) {
    responses[0] = Answer(lines[0]);
    return responses;
  }
  // Clients often send the same miss in one poll cycle. Answering each
  // distinct line once in parallel and its repeats afterwards computes it
  // once; the repeats count as cache hits, so requests, cache_hits and
  // cache_misses still advance per line.
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> repeats;
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (seen.insert(lines[i]).second ? firsts : repeats).push_back(i);
  }
  util::ThreadPool::Shared().ParallelFor(
      firsts.size(), /*chunk=*/1, options_.threads, [&](std::size_t k) {
        responses[firsts[k]] = Answer(lines[firsts[k]]);
      });
  for (const std::size_t i : repeats) responses[i] = Answer(lines[i]);
  return responses;
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.computed_what_if = computed_what_if_.load(std::memory_order_relaxed);
  s.computed_optimize = computed_optimize_.load(std::memory_order_relaxed);
  s.persist_failures = persist_failures_.load(std::memory_order_relaxed);
  s.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
  s.warm_loaded = warm_loaded_;
  s.corrupt_dropped = corrupt_dropped_;
  s.cache_entries = cache_.Size();
  return s;
}

}  // namespace wsnlink::serve
