// E7 (extension ablation) — Dynamic Partial Reconfiguration tradeoff.
//
// The paper announces DPR support as work in progress; these scenarios
// quantify the design choice it enables: one reconfigurable OCP slot
// hosting IDCT-class and scaling datapaths alternately, versus two static
// OCPs. Reported: FPGA area of both options (e7_dpr_area) and end-to-end
// time for workloads that alternate between the two kernels at different
// batch granularities (e7_dpr — reconfiguration cost amortizes with batch
// size). The slot swaps through a free-mode configuration port
// (dpr::IcapPort), which counts bitstream bytes / ICAP rate plus the
// fixed overhead and commits the swap on completion.
#include "scenarios.hpp"

#include "dpr/icap.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/dpr.hpp"
#include "platform/soc.hpp"
#include "rac/passthrough.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr u32 kWords = 64;

std::vector<u32> workload() {
  util::Rng rng(9);
  std::vector<u32> v(kWords);
  for (auto& w : v) w = rng.next_u32() & 0x00FF'FFFF;
  return v;
}

/// Alternating workload on a single reconfigurable slot.
u64 run_dpr(u32 batches, u32 batch_len, u32* swaps_out) {
  platform::Soc soc;
  const util::Q q(16);
  rac::ScaleRac kernel_a(soc.kernel(), "kernel_a", kWords,
                         q.from_double(2.0), 18);
  rac::ScaleRac kernel_b(soc.kernel(), "kernel_b", kWords,
                         q.from_double(0.5), 18);
  core::ReconfigSlot slot(soc.kernel(), "slot", {&kernel_a, &kernel_b});
  core::Ocp& ocp = soc.add_ocp(slot);
  dpr::IcapPort icap(soc.kernel(), "icap", soc.bus(),
                     {.mode = dpr::IcapMode::kFree});
  icap.set_done_callback([&slot](u32) { slot.finish_swap(); });
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = kWords,
                           .out_words = kWords});
  session.install(core::build_stream_program(
                      {.in_words = kWords, .out_words = kWords, .burst = 64}),
                  /*timed_program=*/false);
  const auto in = workload();

  const Cycle t0 = soc.kernel().now();
  for (u32 b = 0; b < batches; ++b) {
    const std::size_t want = b % 2;
    if (slot.begin_swap(want)) {
      const core::Rac& next = slot.candidate(want);
      icap.start_load(0, core::ReconfigSlot::bitstream_bytes_for(
                             next.resource_tree().total()),
                      /*from_cache=*/false, 0, next.name());
      soc.kernel().run_until([&] { return !slot.reconfiguring(); });
    }
    for (u32 i = 0; i < batch_len; ++i) {
      session.put_input(in);
      session.run_poll();
    }
  }
  *swaps_out = static_cast<u32>(slot.swaps());
  obs::validate_soc_ledger(soc);
  return soc.kernel().now() - t0;
}

/// Same workload on two always-resident OCPs.
u64 run_static(u32 batches, u32 batch_len) {
  platform::Soc soc;
  const util::Q q(16);
  rac::ScaleRac kernel_a(soc.kernel(), "kernel_a", kWords,
                         q.from_double(2.0), 18);
  rac::ScaleRac kernel_b(soc.kernel(), "kernel_b", kWords,
                         q.from_double(0.5), 18);
  core::Ocp& ocp_a = soc.add_ocp(kernel_a);
  core::Ocp& ocp_b = soc.add_ocp(kernel_b);
  drv::OcpSession sa(soc.cpu(), soc.sram(), ocp_a,
                     {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                      .in_words = kWords, .out_words = kWords});
  drv::OcpSession sb(soc.cpu(), soc.sram(), ocp_b,
                     {.prog_base = kProg + 0x1000, .in_base = kIn,
                      .out_base = kOut, .in_words = kWords,
                      .out_words = kWords});
  const auto prog = core::build_stream_program(
      {.in_words = kWords, .out_words = kWords, .burst = 64});
  sa.install(prog, false);
  sb.install(prog, false);
  const auto in = workload();

  const Cycle t0 = soc.kernel().now();
  for (u32 b = 0; b < batches; ++b) {
    drv::OcpSession& s = (b % 2 == 0) ? sa : sb;
    for (u32 i = 0; i < batch_len; ++i) {
      s.put_input(in);
      s.run_poll();
    }
  }
  obs::validate_soc_ledger(soc);
  return soc.kernel().now() - t0;
}

void run_area_point(const exp::ParamMap&, const exp::RunContext&,
                    exp::Result& result) {
  platform::Soc soc;
  const util::Q q(16);
  rac::ScaleRac a(soc.kernel(), "a", kWords, q.from_double(2.0), 18);
  rac::ScaleRac b(soc.kernel(), "b", kWords, q.from_double(0.5), 18);
  core::ReconfigSlot slot(soc.kernel(), "slot", {&a, &b});
  core::Ocp& ocp = soc.add_ocp(slot);
  const auto dpr_area = ocp.full_resource_tree().total();

  platform::Soc soc2;
  rac::ScaleRac a2(soc2.kernel(), "a", kWords, q.from_double(2.0), 18);
  rac::ScaleRac b2(soc2.kernel(), "b", kWords, q.from_double(0.5), 18);
  core::Ocp& oa = soc2.add_ocp(a2);
  core::Ocp& ob = soc2.add_ocp(b2);
  auto static_area = oa.full_resource_tree().total();
  static_area += ob.full_resource_tree().total();

  result.add_metric("dpr_lut", dpr_area.luts);
  result.add_metric("dpr_ff", dpr_area.ffs);
  result.add_metric("dpr_bram", dpr_area.bram36);
  result.add_metric("dpr_dsp", dpr_area.dsps);
  result.add_metric("static_lut", static_area.luts);
  result.add_metric("static_ff", static_area.ffs);
  result.add_metric("static_bram", static_area.bram36);
  result.add_metric("static_dsp", static_area.dsps);
}

void run_time_point(const exp::ParamMap& params, const exp::RunContext&,
                    exp::Result& result) {
  const u32 batch_len = params.get_u32("batch_len");
  const u32 batches = 8;
  u32 swaps = 0;
  const u64 dpr = run_dpr(batches, batch_len, &swaps);
  const u64 stat = run_static(batches, batch_len);
  result.add_metric("dpr_cycles", dpr);
  result.add_metric("static_cycles", stat);
  result.add_metric("swaps", swaps);
  result.add_metric("dpr_over_static",
                    static_cast<double>(dpr) / static_cast<double>(stat));
}

}  // namespace

void register_e7_dpr(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e7_dpr_area",
      .experiment = "E7",
      .title = "DPR slot vs two static OCPs: FPGA area",
      .run = run_area_point,
  });
  r.add(exp::ScenarioSpec{
      .name = "e7_dpr",
      .experiment = "E7",
      .title = "DPR slot vs two static OCPs: alternating-kernel time",
      .grid = {{.name = "batch_len", .values = {1, 2, 8, 32, 128}}},
      .run = run_time_point,
  });
}

}  // namespace ouessant::scenarios
