#include "svc/backend.hpp"

#include "ouessant/codegen.hpp"

namespace ouessant::svc {

namespace {

/// The single CTRL read that decides a pending completion. ERR diverts
/// into recovery only when the caller is fault-aware; otherwise the read
/// is the plain done_bit_set() check.
PollResult check_done(drv::OcpDriver& drv, bool fault_aware) {
  const u32 ctrl = drv.read_ctrl();
  if (fault_aware && (ctrl & core::kCtrlErr) != 0) return PollResult::kError;
  if ((ctrl & core::kCtrlDone) == 0) return PollResult::kSpurious;
  return PollResult::kDone;
}

bool pending_bit(u32 pending, u32 source) {
  return ((pending >> source) & 1u) != 0;
}

}  // namespace

Stall Backend::diagnose() {
  // D first: a completion whose edge was lost beats a latched ERR.
  const u32 ctrl = executing().driver().read_ctrl();
  if ((ctrl & core::kCtrlDone) != 0) return Stall::kLostIrq;
  if ((ctrl & core::kCtrlErr) != 0) return Stall::kError;
  return Stall::kHung;
}

OcpBackend::OcpBackend(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
                       drv::SessionLayout layout, u32 block_words,
                       cpu::IrqController& irq_ctl)
    : session_(gpp, mem, ocp, layout),
      block_words_(block_words),
      irq_source_(irq_ctl.attach(ocp.irq())) {}

u32 OcpBackend::install(u32 batch) {
  const core::StreamJob per_block{.in_words = block_words_,
                                  .out_words = block_words_,
                                  .burst = block_words_,
                                  .use_loop = true};
  session_.install(core::build_batch_program(per_block, batch),
                   /*timed_program=*/true);
  return 1;
}

u32 OcpBackend::enable_irqs() {
  session_.driver().enable_irq(true);
  return 1u << irq_source_;
}

PollResult OcpBackend::poll(u32 pending, bool fault_aware) {
  if (!pending_bit(pending, irq_source_)) return PollResult::kIdle;
  const PollResult r = check_done(session_.driver(), fault_aware);
  if (r == PollResult::kDone) session_.driver().clear_done();
  return r;
}

ChainBackend::ChainBackend(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
                           core::Ocp& tail, fifo::ChainLink& link,
                           drv::ChainLayout layout, drv::ChainMode mode,
                           cpu::IrqController& irq_ctl)
    : chain_(gpp, mem, head, tail, link, layout, mode),
      tail_source_(irq_ctl.attach(tail.irq())),
      head_source_(irq_ctl.attach(head.irq())) {}

u32 ChainBackend::install(u32 batch) {
  chain_.install(batch, /*timed_program=*/true);
  return 2;  // one program image per stage
}

u32 ChainBackend::enable_irqs() {
  // The tail's completion retires the chain in both modes. The head
  // interrupts only in store-and-forward mode, where the CPU must relay
  // the bounce buffer to the tail stage; a linked head runs IE-off and
  // its latched D is acknowledged at retire time.
  u32 mask = 1u << tail_source_;
  chain_.tail().driver().enable_irq(true);
  if (chain_.mode() == drv::ChainMode::kStoreForward) {
    mask |= 1u << head_source_;
    chain_.head().driver().enable_irq(true);
  }
  return mask;
}

PollResult ChainBackend::poll(u32 pending, bool fault_aware) {
  if (chain_.awaiting_tail() && pending_bit(pending, head_source_)) {
    // Store-and-forward half-way point: the head filled the bounce
    // buffer. advance_to_tail acknowledges its D and starts the tail —
    // both timed, so the ablation pays its second ISR in full.
    const PollResult r = check_done(chain_.head().driver(), fault_aware);
    if (r != PollResult::kDone) return r;
    chain_.advance_to_tail();
    return PollResult::kAdvanced;
  }
  if (!pending_bit(pending, tail_source_)) return PollResult::kIdle;
  const PollResult r = check_done(chain_.tail().driver(), fault_aware);
  if (r != PollResult::kDone) return r;
  chain_.tail().driver().clear_done();
  // Also acknowledge the head's latched D (linked mode ran it IE-off) —
  // part of the same ISR, so it lands inside the batch's service time.
  chain_.retire_ack();
  return PollResult::kDone;
}

}  // namespace ouessant::svc
