// Named monotonic counters, one registry per run.
//
// Each stack layer registers its counters by name ("mac.tx_attempts",
// "link.queue_drops", ...) and bumps them through a stable integer id, so
// the hot path is an array increment behind a null check. Snapshots are
// sorted by name, which makes them comparable across runs and mergeable
// across a sweep (the campaign's aggregated roll-up).
//
// Names are interned into process-lifetime storage and samples carry
// string_views into it: snapshotting a registry copies no characters and
// performs exactly one allocation (the sample vector), and samples stay
// valid after the registry that produced them is gone — both load-bearing
// for the zero-alloc sweep hot path, where worker-local registries are
// reused across configurations via BeginRun().
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace wsnlink::trace {

/// Interns `name` into immortal storage, returning a view that never
/// dangles. Thread-safe; one allocation per unique name process-wide.
[[nodiscard]] std::string_view InternCounterName(std::string_view name);

/// One counter reading in a snapshot. The name views interned storage (or
/// a string literal in tests) and is valid for the process lifetime.
struct CounterSample {
  std::string_view name;
  std::uint64_t value = 0;

  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

/// Registry of named monotonic counters. Not thread-safe: one registry
/// belongs to one simulation run.
///
/// A registry can be REUSED across runs: BeginRun() marks every counter
/// stale without forgetting it, so the next run's Register() calls revive
/// exactly the counters that run uses (at zero) with pure map lookups —
/// no allocation — and Snapshot() reports only the revived set.
class CounterRegistry {
 public:
  using Id = std::size_t;

  /// Returns the id for `name`, creating the counter (at zero) on first
  /// use. Registering the same name again returns the same id; after a
  /// BeginRun() it also revives the counter at zero. Takes a view (with a
  /// transparent index) so registering literals each run allocates nothing
  /// once the name exists.
  Id Register(std::string_view name);

  /// Adds `delta` to a registered counter. Requires a valid id.
  void Add(Id id, std::uint64_t delta = 1) noexcept { values_[id] += delta; }

  /// Current value by name; 0 for unregistered (or stale) names.
  [[nodiscard]] std::uint64_t Value(std::string_view name) const noexcept;

  /// Number of live (current-epoch) counters.
  [[nodiscard]] std::size_t Size() const noexcept;

  /// All live counters, sorted by name. Exactly one allocation.
  [[nodiscard]] std::vector<CounterSample> Snapshot() const;

  /// Starts a new run on a reused registry: every registered counter
  /// becomes stale (excluded from Snapshot/Value) until re-registered,
  /// which resets it to zero. Fresh registries start with run 0 live, so
  /// single-run use never needs to call this.
  void BeginRun() noexcept { ++epoch_; }

 private:
  friend std::vector<CounterSample> SnapshotMerged(const CounterRegistry&,
                                                   const CounterRegistry&);

  std::vector<std::string_view> names_;  // by id; interned
  std::vector<std::uint64_t> values_;    // by id
  std::vector<std::uint64_t> epochs_;    // by id; live iff == epoch_
  std::uint64_t epoch_ = 0;
  std::map<std::string_view, Id, std::less<>> index_;
};

/// Sums counter snapshots by name (the per-campaign roll-up of per-run
/// snapshots). Result is sorted by name.
[[nodiscard]] std::vector<CounterSample> MergeCounters(
    const std::vector<std::vector<CounterSample>>& snapshots);

/// Merges one sample into a sorted-by-name snapshot: adds to an existing
/// entry or inserts at the sorted position (how the campaign folds its own
/// counters — e.g. "campaign.configs_failed" — into the per-run roll-up).
void AddSample(std::vector<CounterSample>& samples, std::string_view name,
               std::uint64_t value);

/// Sorted merge-join of two registries' live counters into one snapshot,
/// summing values on name collisions. Byte-identical to
/// MergeCounters({a.Snapshot(), b.Snapshot()}) but with exactly one
/// allocation — the single heap touch a zero-alloc simulation run makes.
[[nodiscard]] std::vector<CounterSample> SnapshotMerged(
    const CounterRegistry& a, const CounterRegistry& b);

}  // namespace wsnlink::trace
