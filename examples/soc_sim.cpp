// soc_sim — scenario runner: assemble a full SoC from command-line
// options, run one accelerated workload, and print timing, cycle-ledger
// and resource reports. The "one binary to poke at everything" tool an
// open-source release ships.
//
// Built on the experiment layer: each block invocation fills one
// exp::Result row, the block table is rendered by exp::render_table, and
// --json persists the rows (plus a run summary) in the same
// ouessant.sweep.v1 schema the bench driver writes.
//
//   soc_sim [--rac idct|dft256|fir16|pass] [--bus ahb|axi4|axilite]
//           [--env baremetal|linux] [--burst N] [--loop] [--blocks N]
//           [--trace out.vcd] [--resources] [--json out.json]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "drv/linux_env.hpp"
#include "exp/result.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/probes.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/fir.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

using namespace ouessant;

namespace {

struct Options {
  std::string rac = "idct";
  std::string bus = "ahb";
  std::string env = "baremetal";
  u32 burst = 64;
  bool use_loop = false;
  u32 blocks = 4;
  std::string trace;
  bool resources = false;
  std::string json;
};

int usage() {
  std::fprintf(stderr,
               "usage: soc_sim [--rac idct|dft256|fir16|pass] "
               "[--bus ahb|axi4|axilite]\n"
               "               [--env baremetal|linux] [--burst N] [--loop] "
               "[--blocks N]\n"
               "               [--trace out.vcd] [--resources] "
               "[--json out.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw ConfigError("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--rac") opt.rac = next();
      else if (arg == "--bus") opt.bus = next();
      else if (arg == "--env") opt.env = next();
      else if (arg == "--burst") opt.burst = static_cast<u32>(std::stoul(next()));
      else if (arg == "--loop") opt.use_loop = true;
      else if (arg == "--blocks") opt.blocks = static_cast<u32>(std::stoul(next()));
      else if (arg == "--trace") opt.trace = next();
      else if (arg == "--resources") opt.resources = true;
      else if (arg == "--json") opt.json = next();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soc_sim: %s\n", e.what());
      return 2;
    }
  }

  platform::SocConfig cfg;
  if (opt.bus == "ahb") cfg.bus = platform::BusKind::kAhb;
  else if (opt.bus == "axi4") cfg.bus = platform::BusKind::kAxi4;
  else if (opt.bus == "axilite") cfg.bus = platform::BusKind::kAxiLite;
  else return usage();

  platform::Soc soc(cfg);

  std::unique_ptr<core::Rac> rac;
  u32 words = 64;
  if (opt.rac == "idct") {
    rac = std::make_unique<rac::IdctRac>(soc.kernel(), "idct");
    words = 64;
  } else if (opt.rac == "dft256") {
    rac = std::make_unique<rac::DftRac>(soc.kernel(), "dft256",
                                        rac::DftRacConfig{.points = 256});
    words = 512;
  } else if (opt.rac == "fir16") {
    rac = std::make_unique<rac::FirRac>(
        soc.kernel(), "fir16", std::vector<i32>(16, i32{1} << 12), 256);
    words = 256;
  } else if (opt.rac == "pass") {
    rac = std::make_unique<rac::PassthroughRac>(soc.kernel(), "pass", 256, 32);
    words = 256;
  } else {
    return usage();
  }

  core::Ocp& ocp = soc.add_ocp(*rac);

  std::unique_ptr<obs::VcdTrace> trace;
  if (!opt.trace.empty()) {
    trace = std::make_unique<obs::VcdTrace>(
        soc.kernel(), opt.trace, platform::standard_probes(soc, ocp));
  }

  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = words,
                           .out_words = words});
  const core::Program prog = core::build_stream_program(
      {.in_words = words, .out_words = words,
       .burst = std::min(opt.burst, words), .overlap = true,
       .use_loop = opt.use_loop});
  session.install(prog);
  std::printf("microcode (%zu instructions):\n%s\n", prog.size(),
              prog.listing().c_str());

  util::Rng rng(1);
  drv::LinuxEnv linux_env;
  std::vector<exp::Result> rows;
  u64 total = 0;
  for (u32 b = 0; b < opt.blocks; ++b) {
    std::vector<u32> in(words);
    for (auto& w : in) w = util::to_word(rng.range(-20000, 20000));
    session.put_input(in);
    const u64 cycles = (opt.env == "linux")
                           ? linux_env.invoke(session, drv::XferMode::kMmap)
                           : session.run_irq();
    total += cycles;
    exp::Result row;
    row.scenario = "soc_sim";
    row.experiment = "example";
    row.params.set("block", static_cast<i64>(b));
    row.add_metric("cycles", cycles);
    row.add_metric("us", soc.us(cycles));
    rows.push_back(std::move(row));
  }
  std::fputs(exp::render_table(rows).c_str(), stdout);
  std::printf("\ntotal: %llu cycles for %u block(s), %.2f us\n",
              static_cast<unsigned long long>(total), opt.blocks,
              soc.us(total));

  const Cycle now = soc.kernel().now();
  std::printf("\ncycles simulated: %llu\n%s",
              static_cast<unsigned long long>(now),
              obs::validate_soc_ledger(soc).render(now).c_str());
  if (opt.resources) {
    std::printf("\n%s",
                res::render_report(ocp.full_resource_tree()).c_str());
  }
  if (!opt.json.empty()) {
    exp::Result summary;
    summary.scenario = "soc_sim";
    summary.experiment = "example";
    summary.add_metric("total_cycles", total);
    summary.add_metric("blocks", opt.blocks);
    rows.push_back(std::move(summary));
    exp::write_json(opt.json, rows,
                    {"\"rac\": \"" + opt.rac + "\"",
                     "\"bus\": \"" + opt.bus + "\"",
                     "\"env\": \"" + opt.env + "\""});
    std::printf("\nresults written to %s\n", opt.json.c_str());
  }
  if (trace) std::printf("\nwaveform written to %s\n", opt.trace.c_str());
  return 0;
}
