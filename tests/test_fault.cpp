// Tests for src/fault/ (docs/robustness.md): the plan grammar, injector
// determinism, what each injection site looks like from the driver, the
// fault -> recover -> retry round trip, service-level quarantine and
// watchdog IRQ rescue, and the unarmed-passivity guard (an armed but
// never-firing plan must change nothing).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/emulator.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "svc/ledger.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/fixed.hpp"

namespace ouessant {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;

/// One passthrough OCP plus a session, optionally with an armed injector
/// (hooks installed before the first timed access, like OffloadService).
struct Rig {
  explicit Rig(FaultPlan plan = {}, u32 words = 64)
      : rac(soc.kernel(), "pass", words, 32),
        ocp(soc.add_ocp(rac)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                 .in_words = words, .out_words = words}),
        words(words) {
    if (plan.armed()) {
      injector = std::make_unique<fault::Injector>(std::move(plan));
      injector->arm_bus(soc.bus());
      injector->arm_ocp(0, ocp);
    }
    session.install(core::build_stream_program(
        {.in_words = words, .out_words = words, .burst = std::min(words, 64u),
         .overlap = true}));
  }

  std::vector<u32> random_input(u64 seed = 5) const {
    util::Rng rng(seed);
    std::vector<u32> v(words);
    for (auto& w : v) w = rng.next_u32();
    return v;
  }

  platform::Soc soc;
  rac::PassthroughRac rac;
  core::Ocp& ocp;
  drv::OcpSession session;
  std::unique_ptr<fault::Injector> injector;
  u32 words;
};

// ---------------------------------------------------------------- plan --

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  const auto plan =
      FaultPlan::parse("seed=7;bus_err@ocp=0,p=0.001;rac_hang@at=150000,ocp=1");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.specs.size(), 2u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kBusError);
  EXPECT_EQ(plan.specs[0].ocp, 0);
  EXPECT_DOUBLE_EQ(plan.specs[0].prob, 0.001);
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kRacHang);
  EXPECT_EQ(plan.specs[1].at, 150'000u);
  EXPECT_EQ(plan.specs[1].ocp, 1);
}

TEST(FaultPlan, StrRoundTripsThroughParse) {
  const auto plan = FaultPlan::parse(
      "seed=11;fifo_corrupt@p=0.25,count=2,bit=3;ctrl_flip@at=99");
  EXPECT_EQ(FaultPlan::parse(plan.str()).str(), plan.str());
}

/// The ConfigError text parse() throws for @p spec ("" and a test
/// failure if it accepts it).
std::string parse_error(const std::string& spec) {
  try {
    (void)FaultPlan::parse(spec);
  } catch (const ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted '" << spec << "'";
  return "";
}

TEST(FaultPlan, RejectsBadSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("gamma_ray@p=1"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("bus_err"), ConfigError);  // never fires
  EXPECT_THROW((void)FaultPlan::parse("bus_err@p=1.5"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("bus_err@at=5,p=0.5"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("ctrl_flip@at=5,bit=32"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("bus_err@wat=1"), ConfigError);
  // Each of these used to be read as something else, silently: the
  // comment says what. The refusal names the field.
  for (const auto& [spec, field] : std::vector<std::pair<std::string,
                                                         std::string>>{
           {"rac_hang@at=-5", "at="},     // 2^64 - 5: never fires
           {"rac_hang@at=010", "at="},    // octal 8
           {"rac_hang@at=+5", "at="},     // a sign
           {"rac_hang@at= 5", "at="},     // whitespace
           {"rac_hang@at=5 ", "at="},
           {"rac_hang@at=0x10", "at="},   // hexadecimal 16
           {"rac_hang@at=18446744073709551616", "at="},  // 2^64: wraps
           {"irq_drop@p=nan", "p="},      // never fires
           {"irq_drop@p=inf", "p="},
           {"irq_drop@p=1e999", "p="},    // overflows to infinity
           {"irq_drop@p=-0.5", "p="},     // was "needs at=CYCLE or p=PROB"
           {"irq_drop@p=+0.5", "p="},
           {"rac_hang@ocp=4294967296,p=1", "ocp="},  // wrapped to OCP 0
           {"rac_hang@ocp=99999999999999999999,p=1", "ocp="},  // -1: every OCP
           {"rac_hang@ocp=-2,p=1", "ocp="},
           {"rac_hang@ocp=01,p=1", "ocp="},
           {"bus_err@p=0.5,count=4294967296", "count="},  // 0: unlimited
           {"ctrl_flip@at=5,bit=99999999999", "bit="},
           {"seed=-1;bus_err@p=0.5", "seed="},
           {"seed=7;seed=8;bus_err@p=0.5", "seed="},
           {"bus_err@p=0.1,p=0.2", "p="},  // kept the last value
           {"bus_err@ocp=0,at=5,ocp=1", "ocp="},
       }) {
    const std::string err = parse_error(spec);
    EXPECT_NE(err.find(field), std::string::npos) << spec << ": " << err;
  }
  // -1 still means every OCP, as documented, and 0 is not a leading zero.
  const FaultPlan any = FaultPlan::parse("seed=0;rac_hang@ocp=-1,at=0,p=1");
  EXPECT_EQ(any.specs.at(0).ocp, -1);
  EXPECT_EQ(any.seed, 0u);
  // A programmatic NaN is refused too (the range test is NaN-proof).
  EXPECT_THROW(FaultPlan{}.add({.kind = FaultKind::kIrqDrop,
                                .prob = std::nan("")}),
               ConfigError);
}

// ----------------------------------------------------- per-site reports --
// The driver throws; why the OCP faulted is the controller's last_fault()
// backdoor (the registers carry only the ERR bit), the same source the
// dispatcher reads when it classifies a worker fault.

/// The SimError message @p run throws ("" and a test failure if none).
std::string sim_error(const std::function<void()>& run) {
  try {
    run();
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a SimError";
  return "";
}

TEST(FaultSite, BusErrorLatchesErrAndRecovers) {
  Rig rig(FaultPlan{}.add({.kind = FaultKind::kBusError, .at = 1}));
  const auto in = rig.random_input(1);
  rig.session.put_input(in);
  const std::string err = sim_error([&] { (void)rig.session.run_poll(); });
  EXPECT_NE(err.find("OcpDriver(" + rig.ocp.name() +
                     "): OCP signalled a microcode fault"),
            std::string::npos)
      << err;
  EXPECT_NE(rig.ocp.controller().last_fault().reason.find("bus error"),
            std::string::npos);
  EXPECT_EQ(rig.injector->injected(), 1u);  // at-spec budget is one firing

  rig.session.recover();
  rig.session.put_input(in);  // banks + program survived the soft reset
  EXPECT_NO_THROW((void)rig.session.run_poll());
  EXPECT_EQ(rig.session.get_output(), in);
}

TEST(FaultSite, RacHangTimesOutAndRecovers) {
  // Needs a block RAC with a start_op/end_op window (the streaming
  // passthrough has no op to hang) and a blocking exec (overlap uses
  // execs, which never waits on the RAC), so this rig wraps an IDCT
  // behind a load -> exec -> drain program.
  auto make_session = [](platform::Soc& soc, core::Ocp& ocp) {
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = kProg, .in_base = kIn,
                             .out_base = kOut, .in_words = 64,
                             .out_words = 64});
    session.install(core::build_stream_program(
        {.in_words = 64, .out_words = 64, .burst = 64, .overlap = false}));
    return session;
  };
  util::Rng rng(2);
  std::vector<u32> in(64);
  for (auto& w : in) w = util::to_word(rng.range(-512, 511));

  // Healthy reference for the post-recovery payload check.
  platform::Soc ref_soc;
  rac::IdctRac ref_rac(ref_soc.kernel(), "idct");
  auto ref_session = make_session(ref_soc, ref_soc.add_ocp(ref_rac));
  ref_session.put_input(in);
  ref_session.run_poll();
  const auto expected = ref_session.get_output();

  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  fault::Injector injector(
      FaultPlan{}.add({.kind = FaultKind::kRacHang, .at = 1}));
  injector.arm_bus(soc.bus());
  injector.arm_ocp(0, ocp);
  auto session = make_session(soc, ocp);

  session.put_input(in);
  const std::string err =
      sim_error([&] { (void)session.run_poll(16, /*timeout=*/20'000); });
  EXPECT_NE(err.find("OcpDriver(" + ocp.name() + ")::wait_done_poll"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("no completion within 20000 cycles"), std::string::npos)
      << err;
  EXPECT_EQ(injector.injected(), 1u);

  session.recover();
  session.put_input(in);
  EXPECT_NO_THROW((void)session.run_poll(16, 20'000));
  EXPECT_EQ(session.get_output(), expected);
}

TEST(FaultSite, CtrlFlipFaultsWithPcAndReason) {
  // Bit 31 lands the first fetched word in unassigned opcode space.
  Rig rig(FaultPlan{}.add({.kind = FaultKind::kCtrlFlip, .at = 1}));
  rig.session.put_input(rig.random_input(4));
  const std::string err = sim_error([&] { (void)rig.session.run_poll(); });
  EXPECT_NE(err.find("microcode fault"), std::string::npos) << err;
  const FaultInfo& why = rig.ocp.controller().last_fault();
  EXPECT_NE(why.reason.find("unassigned opcode"), std::string::npos);
  EXPECT_EQ(why.pc, 0u);
}

TEST(FaultSite, FifoCorruptFlipsExactlyOneOutputBit) {
  Rig rig(FaultPlan{}.add(
      {.kind = FaultKind::kFifoCorrupt, .at = 1, .bit = 5}));
  const auto in = rig.random_input(6);
  rig.session.put_input(in);
  // Silent corruption: the run completes, only verification catches it.
  EXPECT_NO_THROW((void)rig.session.run_poll());
  const auto out = rig.session.get_output();
  int diffs = 0;
  for (u32 i = 0; i < rig.words; ++i) {
    if (out[i] != in[i]) {
      ++diffs;
      EXPECT_EQ(out[i] ^ in[i], 1u << 5);
    }
  }
  EXPECT_EQ(diffs, 1);
}

// ------------------------------------------------------------ passivity --

TEST(FaultPassivity, ArmedButNeverFiringPlanChangesNothing) {
  Rig plain;
  // Hooks installed, RNG streams allocated — but the spec can never
  // reach its schedule, so every decision point must behave untouched.
  Rig armed(FaultPlan{}.add(
      {.kind = FaultKind::kBusError, .at = 1'000'000'000}));
  const auto in = plain.random_input(7);

  plain.session.put_input(in);
  armed.session.put_input(in);
  const u64 c_plain = plain.session.run_poll();
  const u64 c_armed = armed.session.run_poll();
  EXPECT_EQ(c_plain, c_armed);
  EXPECT_EQ(plain.session.get_output(), armed.session.get_output());
  EXPECT_EQ(plain.soc.kernel().now(), armed.soc.kernel().now());
  EXPECT_EQ(armed.injector->injected(), 0u);
}

// -------------------------------------------------------- service level --

svc::ServiceConfig idct_workers(std::size_t n) {
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  for (std::size_t i = 0; i < n; ++i) {
    cfg.ocps.push_back(
        svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1});
  }
  cfg.queue_depth = 64;
  return cfg;
}

TEST(FaultService, SameSeedSamePlanSameInjectionLog) {
  auto run_once = [] {
    svc::ServiceConfig cfg = idct_workers(2);
    cfg.faults.add({.kind = FaultKind::kBusError, .prob = 0.002})
        .add({.kind = FaultKind::kFifoCorrupt, .prob = 0.001});
    cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                                 .backoff_base = 2048,
                                 .watchdog_cycles = 16'384};
    svc::OffloadService service(std::move(cfg));
    svc::WorkloadConfig wl;
    wl.jobs = 40;
    wl.mean_gap = 400.0;
    wl.seed = svc::kDefaultServiceSeed;
    (void)service.run(wl);
    return std::vector<fault::Injector::Record>(service.injector()->log());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].ocp, b[i].ocp) << i;
    EXPECT_EQ(a[i].spec_index, b[i].spec_index) << i;
  }
}

TEST(FaultService, QuarantineRedistributesToHealthyWorker) {
  svc::ServiceConfig cfg = idct_workers(2);
  cfg.faults.add({.kind = FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                               .backoff_base = 2048,
                               .quarantine_after = 2,
                               .watchdog_cycles = 16'384};
  svc::OffloadService service(std::move(cfg));
  svc::WorkloadConfig wl;
  wl.jobs = 30;
  wl.mean_gap = 500.0;
  wl.seed = svc::kDefaultServiceSeed;
  const auto rep = service.run(wl);

  EXPECT_EQ(rep.completed, 30u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_TRUE(service.dispatcher().worker_quarantined(0));
  EXPECT_FALSE(service.dispatcher().worker_quarantined(1));
  // Every completion drained through the healthy worker.
  EXPECT_EQ(service.dispatcher().worker_stats(0).jobs, 0u);
  EXPECT_EQ(service.dispatcher().worker_stats(1).jobs, 30u);
  // The extended ledger (busy + quarantined + idle per worker) still
  // sums exactly to wall cycles.
  (void)svc::validate_service_ledger(service);
}

TEST(FaultService, WatchdogRescuesEverySuppressedIrq) {
  svc::ServiceConfig cfg = idct_workers(1);
  cfg.faults.add({.kind = FaultKind::kIrqDrop, .prob = 1.0});
  cfg.retry = svc::RetryPolicy{.max_attempts = 2,
                               .backoff_base = 2048,
                               .watchdog_cycles = 16'384};
  svc::OffloadService service(std::move(cfg));
  svc::WorkloadConfig wl;
  wl.jobs = 8;
  wl.mean_gap = 2000.0;
  wl.seed = svc::kDefaultServiceSeed;
  const auto rep = service.run(wl);

  EXPECT_EQ(rep.completed, 8u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.faults, 0u);  // a lost doorbell is a delay, not a fault
  EXPECT_EQ(rep.irq_recoveries, rep.batches);
}

TEST(FaultService, PlanAimedPastTheStackIsRefused) {
  // Two IDCT workers: OCPs 0-1 and IRQ sources 0-1. Each of these specs
  // was armed and never fired (ocp=7 on rac_hang let serve_faulty_hang
  // run with no hang at all).
  for (const auto& [spec, target] : std::vector<std::pair<FaultSpec,
                                                         std::string>>{
           {{.kind = FaultKind::kRacHang, .ocp = 7, .prob = 1.0}, "OCP"},
           {{.kind = FaultKind::kBusError, .ocp = 2, .prob = 0.1}, "OCP"},
           {{.kind = FaultKind::kIrqDrop, .ocp = 2, .prob = 0.3},
            "IRQ source"},
       }) {
    svc::ServiceConfig cfg = idct_workers(2);
    cfg.faults.add(spec);
    try {
      svc::OffloadService service(std::move(cfg));
      ADD_FAILURE() << "armed " << fault::kind_name(spec.kind)
                    << "@ocp=" << spec.ocp;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "@ocp=" + std::to_string(spec.ocp) + " names no " +
                    target),
                std::string::npos)
          << e.what();
    }
  }
  // The last OCP, the last IRQ source and "every OCP" are all armed.
  svc::ServiceConfig cfg = idct_workers(2);
  cfg.faults.add({.kind = FaultKind::kRacHang, .ocp = 1, .prob = 1.0})
      .add({.kind = FaultKind::kIrqDrop, .ocp = 1, .prob = 0.3})
      .add({.kind = FaultKind::kBusError, .prob = 0.1});
  EXPECT_NO_THROW(svc::OffloadService{std::move(cfg)});
}

TEST(FaultService, ChainedWorkersRecoverWithoutLosingJobs) {
  // A chains-only service (one dequant->IDCT pair: ocp 0 = head, ocp 1 =
  // tail; irq_drop counts IRQ sources, which a chain attaches tail
  // first) with one fault at a time on either stage, in both chain
  // modes. The faulted stage's recovery must also settle the other
  // stage, which in linked mode is still mid-block on its RAC: a retry
  // that finds it busy aborts the run with "start_op while busy".
  constexpr u32 kJobs = 120;
  for (const drv::ChainMode mode :
       {drv::ChainMode::kLinked, drv::ChainMode::kStoreForward}) {
    for (const FaultKind kind : {FaultKind::kRacHang, FaultKind::kBusError,
                                 FaultKind::kCtrlFlip, FaultKind::kIrqDrop}) {
      for (const int ocp : {0, 1}) {
        SCOPED_TRACE(std::string(drv::chain_mode_name(mode)) + " " +
                     fault::kind_name(kind) + "@ocp=" + std::to_string(ocp));
        svc::ServiceConfig cfg;
        cfg.ocps.clear();
        cfg.chains = {svc::ChainSpec{.max_batch = 2, .mode = mode}};
        cfg.faults.add({.kind = kind, .ocp = ocp, .at = 5000});
        cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                                     .watchdog_cycles = 20'000};
        svc::OffloadService service(std::move(cfg));
        svc::WorkloadConfig wl;
        wl.jobs = kJobs;
        wl.mean_gap = 300.0;
        wl.kinds = {svc::JobKind::kJpegChain};
        wl.seed = svc::kDefaultServiceSeed;
        svc::ServiceReport rep;
        try {
          rep = service.run(wl);
        } catch (const SimError& e) {
          ADD_FAILURE() << e.what();
          continue;
        }
        EXPECT_EQ(rep.completed + rep.rejected + rep.failed, kJobs);
        EXPECT_EQ(rep.failed, 0u);
        (void)svc::validate_service_ledger(service);
      }
    }
  }
}

// -------------------------------------------------------------- emulator --

TEST(EmulatorFault, CarriesStructuredFaultInfo) {
  core::Program p;
  p.mvfc(2, 0, 4).eop();  // drain before anything was produced
  core::EmuConfig cfg;
  std::map<Addr, u32> mem;
  const auto r = core::emulate(p, cfg, mem, core::passthrough_emu_rac());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.fault.empty());
  EXPECT_NE(r.fault.reason.find("underflow"), std::string::npos);
  EXPECT_EQ(r.fault.pc, 0u);  // the faulting mvfc is the first instruction
  EXPECT_NE(r.fault.to_string().find("pc=0"), std::string::npos);
}

}  // namespace
}  // namespace ouessant
