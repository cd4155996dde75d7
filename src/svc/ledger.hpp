// Service-level CycleLedger collection (DESIGN.md §10/§11): extend the
// SoC-wide attribution proof with the service's ICAP and chain links and
// one track per service worker, so the recovery machinery's time is
// accounted, not vanished.
//
// Attribution map (per worker track "svc.worker.<i>"):
//   compute  busy cycles (launch -> acknowledged done; for a faulted
//            batch the window runs through the recovery sequence, so
//            retry overhead is charged to the worker that caused it)
//   wait     quarantined cycles (sidelined but still powered — the
//            graceful-degradation cost the serve_faulty scenarios weigh)
//   idle     the remainder (no batch resident)
//
// Header-only like obs/collect.hpp and for the same reason: it reaches
// across svc and obs without adding a library edge.
#pragma once

#include <string>

#include "obs/collect.hpp"
#include "svc/service.hpp"

namespace ouessant::svc {

/// Add one track per worker of @p d, closed against @p wall.
inline void collect_dispatcher(obs::CycleLedger& ledger, const Dispatcher& d,
                               Cycle wall) {
  for (std::size_t i = 0; i < d.worker_count(); ++i) {
    const auto id = ledger.add_track("svc.worker." + std::to_string(i));
    ledger.credit(id, obs::Category::kCompute,
                  d.worker_stats(i).busy_cycles);
    ledger.credit(id, obs::Category::kWait,
                  d.worker_quarantined_cycles(i, wall));
    ledger.close_track(id, wall, obs::Category::kIdle);
  }
}

/// Build, collect and validate the full service ledger: every SoC track,
/// the slot farm's configuration port, one track per chain link and one
/// per worker must each sum exactly to wall cycles (SimError otherwise).
/// Every service scenario calls this after its run.
inline obs::CycleLedger validate_service_ledger(OffloadService& service) {
  obs::CycleLedger ledger;
  const Cycle wall = service.soc().kernel().now();
  obs::collect_soc(ledger, service.soc());
  if (service.icap() != nullptr) {
    obs::collect_icap(ledger, *service.icap(), wall);
  }
  for (const auto& link : service.chain_links()) {
    obs::collect_chain(ledger, *link, wall);
  }
  collect_dispatcher(ledger, service.dispatcher(), wall);
  ledger.validate(wall);
  return ledger;
}

}  // namespace ouessant::svc
