#include "trace/counters.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <string>

namespace wsnlink::trace {

std::string_view InternCounterName(std::string_view name) {
  // std::set nodes are address-stable, so views into the stored strings
  // survive every later insertion. Function-local statics keep the table
  // alive for the whole process; registries and samples are destroyed
  // earlier, so their views never dangle.
  // wsnstatic:allow(lp-isolation): the intern table is append-only and mutex-guarded; interned views are immutable, so worker threads never race on them
  static std::mutex mutex;
  static std::set<std::string, std::less<>> table;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = table.find(name);
  if (it == table.end()) it = table.emplace(name).first;
  return *it;
}

CounterRegistry::Id CounterRegistry::Register(std::string_view name) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    const Id id = it->second;
    if (epochs_[id] != epoch_) {
      // Revived on a reused registry: this run starts the counter at zero.
      epochs_[id] = epoch_;
      values_[id] = 0;
    }
    return id;
  }
  const Id id = names_.size();
  names_.push_back(InternCounterName(name));
  values_.push_back(0);
  epochs_.push_back(epoch_);
  index_.emplace(names_.back(), id);
  return id;
}

std::uint64_t CounterRegistry::Value(std::string_view name) const noexcept {
  const auto it = index_.find(name);
  if (it == index_.end() || epochs_[it->second] != epoch_) return 0;
  return values_[it->second];
}

std::size_t CounterRegistry::Size() const noexcept {
  std::size_t live = 0;
  for (const std::uint64_t epoch : epochs_) live += epoch == epoch_ ? 1 : 0;
  return live;
}

std::vector<CounterSample> CounterRegistry::Snapshot() const {
  std::vector<CounterSample> out;
  out.reserve(Size());
  // index_ is already name-ordered.
  for (const auto& [name, id] : index_) {
    if (epochs_[id] != epoch_) continue;
    out.push_back(CounterSample{name, values_[id]});
  }
  return out;
}

std::vector<CounterSample> MergeCounters(
    const std::vector<std::vector<CounterSample>>& snapshots) {
  std::map<std::string_view, std::uint64_t, std::less<>> total;
  for (const auto& snapshot : snapshots) {
    for (const auto& sample : snapshot) total[sample.name] += sample.value;
  }
  std::vector<CounterSample> out;
  out.reserve(total.size());
  for (const auto& [name, value] : total) {
    out.push_back(CounterSample{name, value});
  }
  return out;
}

void AddSample(std::vector<CounterSample>& samples, std::string_view name,
               std::uint64_t value) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const CounterSample& s, std::string_view n) { return s.name < n; });
  if (it != samples.end() && it->name == name) {
    it->value += value;
    return;
  }
  samples.insert(it, CounterSample{InternCounterName(name), value});
}

std::vector<CounterSample> SnapshotMerged(const CounterRegistry& a,
                                          const CounterRegistry& b) {
  std::vector<CounterSample> out;
  out.reserve(a.Size() + b.Size());
  auto ita = a.index_.begin();
  auto itb = b.index_.begin();
  const auto live_a = [&] {
    while (ita != a.index_.end() && a.epochs_[ita->second] != a.epoch_) ++ita;
    return ita != a.index_.end();
  };
  const auto live_b = [&] {
    while (itb != b.index_.end() && b.epochs_[itb->second] != b.epoch_) ++itb;
    return itb != b.index_.end();
  };
  while (true) {
    const bool has_a = live_a();
    const bool has_b = live_b();
    if (!has_a && !has_b) break;
    if (has_a && (!has_b || ita->first < itb->first)) {
      out.push_back(CounterSample{ita->first, a.values_[ita->second]});
      ++ita;
    } else if (has_b && (!has_a || itb->first < ita->first)) {
      out.push_back(CounterSample{itb->first, b.values_[itb->second]});
      ++itb;
    } else {
      out.push_back(CounterSample{
          ita->first, a.values_[ita->second] + b.values_[itb->second]});
      ++ita;
      ++itb;
    }
  }
  return out;
}

}  // namespace wsnlink::trace
