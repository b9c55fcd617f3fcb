// Reusable storage for node stacks and zero-alloc link simulations.
// wsnlint:hot-path — the zero-alloc invariant is linted in this file.
//
// A NodeStack never owns growable storage: its counter registry and every
// record buffer come from a NodeScratch. A sweep worker runs thousands of
// configurations back to back on one LinkRunScratch, which adds the event
// kernel, so after the first few runs warm the capacities up, a run
// performs no steady-state heap allocation beyond the one escaping
// counters snapshot. A network run gives each node a fresh NodeScratch.
#pragma once

#include <vector>

#include "app/sink.h"
#include "link/packet_log.h"
#include "sim/simulator.h"
#include "trace/counters.h"

namespace wsnlink::node {

/// The registry and buffers one NodeStack borrows. They must outlive the
/// stack; a stack clears each buffer it adopts (capacity kept).
struct NodeScratch {
  trace::CounterRegistry registry;
  std::vector<link::PacketRecord> packet_buf;
  std::vector<link::AttemptRecord> attempt_buf;
  std::vector<app::ReceptionRecord> reception_buf;
};

/// One worker's recycled single-link simulation state: the node's storage
/// plus the event kernel and the metrics' quantile scratch. Pass to the
/// scratch overload of RunLinkSimulation, which rewinds the kernel and the
/// registry at the start of every run.
struct LinkRunScratch : NodeScratch {
  sim::Simulator simulator;
  std::vector<double> delay_buf;  ///< metric quantile scratch
};

}  // namespace wsnlink::node
