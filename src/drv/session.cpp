#include "drv/session.hpp"

namespace ouessant::drv {

OcpSession::OcpSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
                       SessionLayout layout)
    : gpp_(gpp),
      mem_(mem),
      ocp_(ocp),
      layout_(layout),
      drv_(gpp, ocp.config().reg_base, ocp.irq(), ocp.name()) {
  if (layout_.in_words == 0 || layout_.out_words == 0) {
    throw ConfigError("OcpSession: zero-sized layout");
  }
}

void OcpSession::set_tracer(obs::EventTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) track_ = tracer_->track("drv." + ocp_.name());
}

void OcpSession::install(const core::Program& prog, bool timed_program) {
  const Cycle t0 = gpp_.now();
  const auto check = core::verify(
      prog, static_cast<u32>(ocp_.input_fifos().size()),
      static_cast<u32>(ocp_.output_fifos().size()));
  if (!check.ok) {
    throw ConfigError("OcpSession: program fails verification:\n" +
                      check.to_string());
  }
  if (timed_program) {
    drv_.install_program(layout_.prog_base, prog);
  } else {
    drv_.install_program_backdoor(mem_, layout_.prog_base, prog);
  }
  drv_.set_bank(1, layout_.in_base);
  drv_.set_bank(2, layout_.out_base);
  if (tracer_ != nullptr) {
    tracer_->complete(track_, "install", t0, gpp_.now(),
                      {obs::arg("words", u64{prog.size()}),
                       obs::arg("timed", u64{timed_program})});
  }
}

void OcpSession::put_input(const std::vector<u32>& words) {
  if (words.size() != layout_.in_words) {
    throw ConfigError("OcpSession::put_input: size mismatch");
  }
  mem_.load(layout_.in_base, words);
}

std::vector<u32> OcpSession::get_output() const {
  return mem_.dump(layout_.out_base, layout_.out_words);
}

u64 OcpSession::run_poll(u64 poll_gap, u64 timeout) {
  const Cycle t0 = gpp_.now();
  drv_.start();
  const u32 polls = drv_.wait_done_poll(poll_gap, timeout);
  if (tracer_ != nullptr) {
    tracer_->complete(track_, "run_poll", t0, gpp_.now(),
                      {obs::arg("polls", u64{polls}),
                       obs::arg("poll_gap", poll_gap)});
  }
  return gpp_.now() - t0;
}

u64 OcpSession::run_irq(u64 timeout) {
  const Cycle t0 = gpp_.now();
  drv_.enable_irq(true);
  drv_.start();
  drv_.wait_done_irq(timeout);
  if (tracer_ != nullptr) {
    tracer_->complete(track_, "run_irq", t0, gpp_.now());
  }
  return gpp_.now() - t0;
}

void OcpSession::start_async() {
  drv_.start();
  if (tracer_ != nullptr) tracer_->instant(track_, "start_async");
}

void OcpSession::recover() {
  if ((drv_.read_ctrl() & core::kCtrlErr) != 0) drv_.clear_error();
  drv_.soft_reset();
  if (tracer_ != nullptr) tracer_->instant(track_, "recover");
}

}  // namespace ouessant::drv
