// Fixture: marker-directive abuse on an otherwise complete serdes pair.
// `cache` is round-tripped, so its transient marker is stale; `ghost`
// names no field at all.
#pragma once

#include <string>

namespace fixture {

struct MarkedMeta {
  // wsnstatic:transient(cache): stale by construction — the field round-trips
  int cache = 0;
  // wsnstatic:transient(ghost): names nothing in this file
};

// wsnstatic:serdes(MarkedMeta, WriteMarked, ReadMarked): fixture persistence contract
inline std::string WriteMarked(const MarkedMeta& meta) {
  return std::to_string(meta.cache);
}

inline MarkedMeta ReadMarked(const std::string& body) {
  MarkedMeta meta;
  meta.cache = static_cast<int>(body.size());
  return meta;
}

}  // namespace fixture
