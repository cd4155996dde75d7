// CycleLedger collection: map each component's counters onto the five
// ledger categories and prove they sum to wall cycles.
//
// Header-only on purpose: these helpers reach up into bus/cpu/core/
// platform types, while the obs *library* depends only on sim — linking
// the other way around would cycle. Bench scenarios and tests include
// this header and call validate_soc_ledger() after a run, so every
// experiment's Table-I decomposition is proven, not assumed. Passivity
// proofs compare invariant_stats() of their two runs.
//
// Attribution map (and the identity each close relies on):
//   bus    transfer=beats, control=grants, wait=waits+stalls, idle=idle.
//          One busy cycle performs exactly one of those actions, so the
//          pad is zero — collect_bus closes with remainder kIdle and a
//          nonzero pad indicates a model bug (test_obs asserts pad==0).
//   cpu    transfer=bus_cycles, compute=compute_cycles, idle=idle.
//          The Gpp drives the kernel from the host stack; cycles it
//          merely observes (svc run_until waits) pad into kIdle.
//   ctrl   control=fetch+decode, transfer=xfer, wait=exec_wait,
//          idle=idle. FSM transition ticks (fetch/xfer/exec completion
//          edges) increment no per-state counter — that sequencing
//          overhead pads into kControl.
//   rac    compute=busy window total; everything else pads into kIdle.
#pragma once

#include <map>
#include <span>
#include <string>

#include "bus/interconnect.hpp"
#include "cpu/gpp.hpp"
#include "dpr/icap.hpp"
#include "fifo/chain_link.hpp"
#include "obs/ledger.hpp"
#include "ouessant/controller.hpp"
#include "ouessant/rac_if.hpp"
#include "platform/soc.hpp"

namespace ouessant::obs {

inline CycleLedger::TrackId collect_bus(CycleLedger& ledger,
                                        const bus::InterconnectModel& b,
                                        Cycle wall) {
  const bus::MasterStats t = b.master_totals();
  const auto id = ledger.add_track("bus." + b.name());
  ledger.credit(id, Category::kTransfer, t.beats);
  ledger.credit(id, Category::kControl, t.grant_cycles);
  ledger.credit(id, Category::kWait, t.wait_cycles + t.stall_cycles);
  ledger.credit(id, Category::kIdle, b.idle_cycles());
  ledger.close_track(id, wall, Category::kIdle);
  return id;
}

inline CycleLedger::TrackId collect_gpp(CycleLedger& ledger,
                                        const cpu::Gpp& gpp, Cycle wall) {
  const auto id = ledger.add_track("cpu");
  ledger.credit(id, Category::kTransfer, gpp.bus_cycles());
  ledger.credit(id, Category::kCompute, gpp.compute_cycles());
  ledger.credit(id, Category::kIdle, gpp.idle_cycles());
  ledger.close_track(id, wall, Category::kIdle);
  return id;
}

inline CycleLedger::TrackId collect_controller(CycleLedger& ledger,
                                               const core::Controller& c,
                                               Cycle wall) {
  const core::ControllerStats s = c.stats();
  const auto id = ledger.add_track("ctrl." + c.name());
  ledger.credit(id, Category::kControl, s.fetch_cycles + s.decode_cycles);
  ledger.credit(id, Category::kTransfer, s.xfer_cycles);
  ledger.credit(id, Category::kWait, s.exec_wait_cycles);
  ledger.credit(id, Category::kIdle, s.idle_cycles);
  ledger.close_track(id, wall, Category::kControl);
  return id;
}

inline CycleLedger::TrackId collect_rac(CycleLedger& ledger,
                                        const core::Rac& r, Cycle wall) {
  const auto id = ledger.add_track("rac." + r.name());
  ledger.credit(id, Category::kCompute, r.busy_cycles());
  ledger.close_track(id, wall, Category::kIdle);
  return id;
}

/// The configuration port: streaming beats are kTransfer (bus-fed loads
/// count them at the master port, cache-fed / free-mode loads in the
/// direct-stream counter), per-swap grant + decouple/flush/reset
/// overhead is kControl, bus contention is kWait, the rest idles. The
/// port's bus traffic is ALSO visible in the bus track's master totals —
/// that is the point: reconfiguration spends shared-interconnect cycles.
inline CycleLedger::TrackId collect_icap(CycleLedger& ledger,
                                         const dpr::IcapPort& p, Cycle wall) {
  const bus::MasterStats& m = p.master_stats();
  const auto id = ledger.add_track("icap." + p.name());
  ledger.credit(id, Category::kTransfer, m.beats + p.direct_stream_cycles());
  ledger.credit(id, Category::kControl,
                m.grant_cycles + p.overhead_cycles_total());
  ledger.credit(id, Category::kWait, m.wait_cycles + m.stall_cycles);
  ledger.close_track(id, wall, Category::kIdle);
  return id;
}

/// The p2p chaining conduit: every cycle the link is occupied moving a
/// word is kTransfer (busy_cycles == words_moved * cycles_per_word by
/// construction, so there is nothing to pad but idle). Delivery stalls
/// against a full sink are deliberately NOT the link's: they surface as
/// the consumer controller's exec_wait, keeping the decomposition free
/// of double counting.
inline CycleLedger::TrackId collect_chain(CycleLedger& ledger,
                                          const fifo::ChainLink& l,
                                          Cycle wall) {
  const auto id = ledger.add_track("chain." + l.name());
  ledger.credit(id, Category::kTransfer, l.busy_cycles());
  ledger.close_track(id, wall, Category::kIdle);
  return id;
}

/// Collect every standard track of @p soc (bus, cpu, each OCP's
/// controller and RAC) against the current kernel cycle.
inline void collect_soc(CycleLedger& ledger, platform::Soc& soc) {
  const Cycle wall = soc.kernel().now();
  collect_bus(ledger, soc.bus(), wall);
  collect_gpp(ledger, soc.cpu(), wall);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    collect_controller(ledger, soc.ocp(i).controller(), wall);
    collect_rac(ledger, soc.ocp(i).rac(), wall);
  }
}

/// Build, collect and validate a ledger for @p soc: every component's
/// five categories must sum exactly to the wall cycles (SimError
/// otherwise). Returns the ledger for inspection / rendering.
inline CycleLedger validate_soc_ledger(platform::Soc& soc) {
  CycleLedger ledger;
  collect_soc(ledger, soc);
  ledger.validate(soc.kernel().now());
  return ledger;
}

/// Same, plus one track per chaining conduit — the raw-SoC chain
/// scenarios prove their decomposition including the p2p transfer
/// cycles (a service proves its links in svc::validate_service_ledger).
inline CycleLedger validate_soc_ledger(
    platform::Soc& soc, std::span<const fifo::ChainLink* const> links) {
  CycleLedger ledger;
  collect_soc(ledger, soc);
  const Cycle wall = soc.kernel().now();
  for (const fifo::ChainLink* l : links) {
    if (l != nullptr) collect_chain(ledger, *l, wall);
  }
  ledger.validate(wall);
  return ledger;
}

/// Stats::all() minus the published speed counters (`*.batched_chunks`,
/// `*.decode_hits`, `*.decode_misses`). Those differ by design between
/// runs that toggle a fast path or attach a per-beat observer (a tracer
/// forces the per-beat bus path); every other counter must be
/// bit-identical, so this is the map passivity proofs compare.
inline std::map<std::string, u64> invariant_stats(const sim::Stats& stats) {
  std::map<std::string, u64> all = stats.all();
  std::erase_if(all, [](const auto& kv) {
    return kv.first.ends_with(".batched_chunks") ||
           kv.first.ends_with(".decode_hits") ||
           kv.first.ends_with(".decode_misses");
  });
  return all;
}

}  // namespace ouessant::obs
