// E12 (scalability ablation) — how many coprocessors can one AHB carry?
//
// §II-B's MPSoC argument says Ouessant scales by instantiating more OCPs
// on the bus (unlike per-CPU coupling). The shared single-layer bus is
// then the ceiling. This scenario launches 1..4 identical streaming OCPs
// concurrently on independent buffers and reports the aggregate
// throughput, per-OCP completion latency, and bus utilization — exposing
// where the fabric saturates and what fixed-priority arbitration does to
// the losers.
#include "scenarios.hpp"

#include <algorithm>
#include <memory>

#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/fir.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr u32 kWords = 512;

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const u32 n_ocps = params.get_u32("ocps");
  platform::Soc soc;
  std::vector<std::unique_ptr<rac::FirRac>> racs;
  std::vector<std::unique_ptr<drv::OcpSession>> sessions;
  util::Rng rng(n_ocps);

  for (u32 i = 0; i < n_ocps; ++i) {
    racs.push_back(std::make_unique<rac::FirRac>(
        soc.kernel(), "fir" + std::to_string(i),
        std::vector<i32>{i32{1} << 16}, kWords));  // streaming identity
    core::Ocp& ocp = soc.add_ocp(*racs.back());
    const Addr base = 0x4010'0000 + i * 0x10'0000;
    sessions.push_back(std::make_unique<drv::OcpSession>(
        soc.cpu(), soc.sram(), ocp,
        drv::SessionLayout{.prog_base = base,
                           .in_base = base + 0x1'0000,
                           .out_base = base + 0x2'0000,
                           .in_words = kWords,
                           .out_words = kWords}));
    sessions.back()->install(
        core::build_stream_program(
            {.in_words = kWords, .out_words = kWords, .burst = 64}),
        /*timed_program=*/false);
    std::vector<u32> in(kWords);
    for (auto& w : in) w = rng.next_u32();
    sessions.back()->put_input(in);
    sessions.back()->driver().enable_irq(true);
  }

  const Cycle t0 = soc.kernel().now();
  for (auto& s : sessions) s->start_async();
  u64 slowest = 0;
  for (auto& s : sessions) {
    s->driver().wait_done_irq(10'000'000);
    slowest = std::max(slowest, soc.kernel().now() - t0);
  }
  const u64 makespan = soc.kernel().now() - t0;
  // Utilization over the contended window only.
  const double bus_util = static_cast<double>(soc.bus().busy_cycles()) /
                          static_cast<double>(soc.kernel().now());
  result.add_metric("makespan", makespan);
  result.add_metric("slowest", slowest);
  result.add_metric("bus_util_pct", 100.0 * bus_util);
  result.add_metric("words_per_kcycle",
                    1000.0 * 2.0 * kWords * n_ocps /
                        static_cast<double>(makespan));
  obs::validate_soc_ledger(soc);
}

}  // namespace

void register_e12_contention(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e12_contention",
      .experiment = "E12",
      .title = "concurrent OCPs sharing one AHB (512-word streaming jobs)",
      .grid = {{.name = "ocps", .values = {1, 2, 3, 4}}},
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
