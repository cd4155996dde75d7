// ChainSession: one configured two-stage accelerator chain — a producer
// ("head") OCP whose output FIFO feeds a consumer ("tail") OCP's input
// FIFO through a fifo::ChainLink, plus the store-and-forward ablation
// that routes the intermediate blocks through an SRAM bounce buffer
// instead (docs/chaining.md).
//
// The session composes two OcpSessions and owns the launch protocol:
//
//  - kLinked: install the chain head/tail microcode (head never drains
//    its output, tail never fetches its input — the link is the only
//    mover in between), arm the head's CHAIN control bit, and start the
//    TAIL first: its exec blocks on the empty input FIFO until the link
//    delivers, so starting order cannot lose data. One interrupt (the
//    tail's) retires the whole chain.
//  - kStoreForward: the measured baseline. Both OCPs run the ordinary
//    batch program; the head writes every intermediate block to the
//    bounce buffer over the system bus and the tail reads it back —
//    same payloads, same RACs, twice the SRAM traffic and two
//    interrupts per batch.
//
// Every control access is a timed bus transaction through the two
// OcpDrivers, so the chained-vs-store-and-forward comparison includes
// the software cost of driving one completion versus two.
#pragma once

#include "drv/session.hpp"
#include "fifo/chain_link.hpp"

namespace ouessant::drv {

/// Intermediate-block routing. kStoreForward is the one-flag ablation
/// (same spirit as dpr::IcapMode::kFree): flip it and nothing else to
/// measure what the p2p link buys.
enum class ChainMode : u8 {
  kLinked = 0,       ///< head -> ChainLink -> tail (no SRAM in between)
  kStoreForward = 1  ///< head -> SRAM bounce buffer -> tail
};

[[nodiscard]] const char* chain_mode_name(ChainMode mode);

/// SRAM carve-out for one chain. The bounce buffer is only written in
/// kStoreForward mode but is reserved in both so the two modes run over
/// an identical memory map.
struct ChainLayout {
  Addr head_prog_base = 0;  ///< head microcode image (head bank 0)
  Addr tail_prog_base = 0;  ///< tail microcode image (tail bank 0)
  Addr in_base = 0;         ///< chain input blocks (head bank 1)
  Addr bounce_base = 0;     ///< store-and-forward intermediate blocks
  Addr out_base = 0;        ///< chain output blocks (tail bank 2)
  u32 block_words = 0;      ///< words per block, both stages (<= one burst)
  u32 max_batch = 1;        ///< blocks the windows are sized for
};

class ChainSession : public snap::Stateful<ChainSession> {
 public:
  /// Binds @p link between @p head's output FIFO 0 and @p tail's input
  /// FIFO 0 and wires @p head's CHAIN control bit to the link's enable —
  /// after this, `driver().enable_chain(true)` on the head is what turns
  /// the conduit on. Each OCP must expose exactly one FIFO per
  /// direction (the BlockRac shape).
  ChainSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
               core::Ocp& tail, fifo::ChainLink& link, ChainLayout layout,
               ChainMode mode = ChainMode::kLinked);

  /// Install the batch-@p batch microcode pair for the session's mode.
  /// kLinked also arms the head's CHAIN bit on the first install (one
  /// timed CSR write for the session's lifetime).
  void install(u32 batch, bool timed_program = true);

  // Host-side staging (backdoor; mirrors OcpSession::put_input).
  void put_input(const std::vector<u32>& words);
  [[nodiscard]] std::vector<u32> get_output(u32 words) const;

  /// Blocking end-to-end run of the installed batch; returns elapsed
  /// cycles. kLinked sleeps on the tail's interrupt; kStoreForward runs
  /// the two stages back to back (two interrupts).
  u64 run_irq(u64 timeout = kDefaultDriverTimeout);

  // -- staged execution (the Dispatcher's path) --------------------------
  /// Launch without waiting. kLinked starts tail then head and the next
  /// event is the tail's completion; kStoreForward starts the head only
  /// and the next event is the head's completion (-> advance_to_tail).
  void start_async();

  /// kStoreForward head-stage ISR tail: acknowledge the head's D and
  /// launch the tail stage over the bounce buffer.
  void advance_to_tail();

  /// After the caller acknowledged the tail's completion: clear the
  /// head's latched D (kLinked runs the head with IE off, so its D
  /// sits until the chain retires) and return to idle.
  void retire_ack();

  /// True while the store-and-forward head stage is in flight (the next
  /// interrupt belongs to the head, not the tail).
  [[nodiscard]] bool awaiting_tail() const { return stage_ == Stage::kHead; }

  /// Fault recovery: both OCPs through OcpSession::recover (ERR ack +
  /// RST pulse) plus a link flush for the word that may be in flight.
  /// The head's CHAIN bit survives (driver shadow).
  void recover();

  [[nodiscard]] ChainMode mode() const { return mode_; }
  [[nodiscard]] const ChainLayout& layout() const { return layout_; }
  [[nodiscard]] OcpSession& head() { return head_; }
  [[nodiscard]] OcpSession& tail() { return tail_; }
  [[nodiscard]] const OcpSession& tail() const { return tail_; }
  [[nodiscard]] fifo::ChainLink& link() { return link_; }

  void set_tracer(obs::EventTracer* tracer);

  // Host-stack snapshot field list (svc::ChainBackend lists it): both
  // drivers' shadows, then the stage. A restore refuses an image of the
  // other mode, which the head's CHAIN and IE shadows show.
  void state(snap::Fields& f);

 private:
  enum class Stage : u8 { kIdle = 0, kHead = 1, kTail = 2 };

  cpu::Gpp& gpp_;
  ChainLayout layout_;
  ChainMode mode_;
  fifo::ChainLink& link_;
  OcpSession head_;
  OcpSession tail_;
  Stage stage_ = Stage::kIdle;
};

}  // namespace ouessant::drv
