#include "drv/chain.hpp"

#include "ouessant/codegen.hpp"

namespace ouessant::drv {

const char* chain_mode_name(ChainMode mode) {
  switch (mode) {
    case ChainMode::kLinked:
      return "linked";
    case ChainMode::kStoreForward:
      return "store_forward";
  }
  return "?";
}

namespace {

SessionLayout head_layout(const ChainLayout& cl) {
  const u32 words = cl.max_batch * cl.block_words;
  // The head's output bank points at the bounce buffer: unused while
  // linked (the chain head program has no mvfc), live in store-and-
  // forward mode — one layout serves both modes.
  return SessionLayout{.prog_base = cl.head_prog_base,
                       .in_base = cl.in_base,
                       .out_base = cl.bounce_base,
                       .in_words = words,
                       .out_words = words};
}

SessionLayout tail_layout(const ChainLayout& cl) {
  const u32 words = cl.max_batch * cl.block_words;
  return SessionLayout{.prog_base = cl.tail_prog_base,
                       .in_base = cl.bounce_base,
                       .out_base = cl.out_base,
                       .in_words = words,
                       .out_words = words};
}

}  // namespace

ChainSession::ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
                           core::Ocp& tail, fifo::ChainLink& link,
                           ChainLayout layout, ChainMode mode)
    : gpp_(gpp),
      layout_(layout),
      mode_(mode),
      link_(link),
      head_(gpp, mem, head, head_layout(layout)),
      tail_(gpp, mem, tail, tail_layout(layout)) {
  if (layout_.block_words == 0 || layout_.max_batch == 0) {
    throw ConfigError("ChainSession: zero-sized chain layout");
  }
  if (head.output_fifos().size() != 1 || tail.input_fifos().size() != 1) {
    throw ConfigError(
        "ChainSession: chain endpoints must expose exactly one FIFO per "
        "direction (head " +
        head.name() + " has " + std::to_string(head.output_fifos().size()) +
        " outputs, tail " + tail.name() + " has " +
        std::to_string(tail.input_fifos().size()) + " inputs)");
  }
  link_.bind(*head.output_fifos().front(), *tail.input_fifos().front());
  // The CHAIN CSR bit is the hardware-visible arm switch: BusInterface
  // reports every transition and the link gates on it, so the conduit's
  // state is exactly what software last programmed — including across a
  // snapshot restore (the bit is re-derived from the restored CTRL).
  head.iface().set_chain_listener(
      [this](bool on) { link_.set_enabled(on); });
}

void ChainSession::install(u32 batch, bool timed_program) {
  if (batch == 0 || batch > layout_.max_batch) {
    throw ConfigError("ChainSession: batch " + std::to_string(batch) +
                      " outside 1.." + std::to_string(layout_.max_batch));
  }
  core::StreamJob per_block;
  per_block.in_words = layout_.block_words;
  per_block.out_words = layout_.block_words;
  per_block.burst = layout_.block_words;
  per_block.use_loop = true;
  if (mode_ == ChainMode::kLinked) {
    head_.install(core::build_chain_head_program(per_block, batch),
                  timed_program);
    tail_.install(core::build_chain_tail_program(per_block, batch),
                  timed_program);
    if (!head_.driver().chain_shadow()) head_.driver().enable_chain(true);
  } else {
    head_.install(core::build_batch_program(per_block, batch), timed_program);
    tail_.install(core::build_batch_program(per_block, batch), timed_program);
  }
}

void ChainSession::put_input(const std::vector<u32>& words) {
  if (words.size() > layout_.max_batch * layout_.block_words) {
    throw ConfigError("ChainSession::put_input: size exceeds window");
  }
  head_.memory().load(layout_.in_base, words);
}

std::vector<u32> ChainSession::get_output(u32 words) const {
  return const_cast<OcpSession&>(tail_).memory().dump(layout_.out_base,
                                                      words);
}

u64 ChainSession::run_irq(u64 timeout) {
  const Cycle t0 = gpp_.now();
  if (mode_ == ChainMode::kLinked) {
    // Tail first: its exec parks on the empty input FIFO, so no word the
    // head emits can ever find the consumer unarmed. The head runs with
    // IE off — its latched D is acknowledged after the chain retires.
    tail_.driver().enable_irq(true);
    tail_.driver().start();
    head_.driver().start();
    tail_.driver().wait_done_irq(timeout);
    if (!head_.driver().done_bit_set()) {
      throw SimError("ChainSession: tail " + tail_.ocp().name() +
                     " completed but head " + head_.ocp().name() +
                     " has no D latched — the chain retired out of order");
    }
    head_.driver().clear_done();
  } else {
    head_.run_irq(timeout);
    tail_.run_irq(timeout);
  }
  stage_ = Stage::kIdle;
  return gpp_.now() - t0;
}

void ChainSession::start_async() {
  if (stage_ != Stage::kIdle) {
    throw SimError("ChainSession: start_async while a chain is in flight");
  }
  if (mode_ == ChainMode::kLinked) {
    tail_.start_async();
    head_.start_async();
    stage_ = Stage::kTail;
  } else {
    head_.start_async();
    stage_ = Stage::kHead;
  }
}

void ChainSession::advance_to_tail() {
  if (stage_ != Stage::kHead) {
    throw SimError("ChainSession: advance_to_tail with no head stage open");
  }
  head_.driver().clear_done();
  tail_.start_async();
  stage_ = Stage::kTail;
}

void ChainSession::retire_ack() {
  // Fault paths can retire a chain whose head never reached EOP — the
  // conditional keeps the ack idempotent there; the happy linked path
  // always finds (and clears) the latched D.
  if (mode_ == ChainMode::kLinked && head_.driver().done_bit_set()) {
    head_.driver().clear_done();
  }
  stage_ = Stage::kIdle;
}

void ChainSession::recover() {
  head_.recover();
  tail_.recover();
  link_.flush();
  stage_ = Stage::kIdle;
}

void ChainSession::set_tracer(obs::EventTracer* tracer) {
  head_.set_tracer(tracer);
  tail_.set_tracer(tracer);
}

void ChainSession::state(snap::Fields& f) {
  OcpDriver& head = head_.driver();
  head.state(f);
  // The mode is configuration, but the head's shadows show it: only a
  // linked install arms CHAIN, only a store-and-forward session enables
  // the head's interrupt. An image of the other mode would drive its
  // resident microcode with this mode's launch protocol, which can hang.
  if (f.restoring() && head.chain_shadow() && mode_ != ChainMode::kLinked) {
    f.fail("'chain' is set on " + head.name() +
           ", the head of a store-and-forward chain");
  }
  if (f.restoring() && head.ie_shadow() && mode_ == ChainMode::kLinked) {
    f.fail("'ie' is set on " + head.name() + ", the head of a linked chain");
  }
  tail_.driver().state(f);
  f.field_as<u8>("chain_stage", stage_, Stage::kTail);
}

}  // namespace ouessant::drv
