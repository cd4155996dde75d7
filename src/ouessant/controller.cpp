#include "ouessant/controller.hpp"

namespace ouessant::core {

Controller::Controller(sim::Kernel& kernel, std::string name,
                       BusInterface& iface, Rac& rac,
                       std::vector<fifo::WidthFifo*> in_fifos,
                       std::vector<fifo::WidthFifo*> out_fifos,
                       IsaLevel isa_level)
    : sim::Component(kernel, std::move(name)),
      iface_(iface),
      rac_(rac),
      in_fifos_(std::move(in_fifos)),
      out_fifos_(std::move(out_fifos)),
      isa_level_(isa_level),
      sink_(*this),
      source_(*this) {
  if (in_fifos_.size() > isa::kNumFifoIds ||
      out_fifos_.size() > isa::kNumFifoIds) {
    throw ConfigError("Controller " + this->name() +
                      ": more FIFOs than the ISA can address");
  }
  // Subscribe to the edges that end each gateable wait state.
  iface_.wake_on_start(*this);
  iface_.master().wake_on_complete(*this);
  rac_.wake_on_end_op(*this);
  h_decode_hits_ =
      kernel.stats().intern(this->name() + ".decode_hits");
  h_decode_misses_ =
      kernel.stats().intern(this->name() + ".decode_misses");
}

bool Controller::is_quiescent() const {
  if (iface_.reset_pending()) return false;  // must tick to perform it
  switch (state_) {
    case State::kIdle:
      return !iface_.start_pending();
    case State::kFetch:
    case State::kXfer:
      return iface_.master().busy();
    case State::kDecode:
      return false;
    case State::kExecWait:
      // exec_pending (not busy): a hung RAC never wakes us — the only
      // exit is the kCtrlRst write, whose wake arrives via
      // wake_on_start. Gating through the hang keeps the driver's
      // timeout polling cheap.
      return rac_.exec_pending();
  }
  return false;
}

u64 Controller::pending_credit() const {
  const Cycle now = kernel().now();
  return now > next_expected_tick_ ? now - next_expected_tick_ : 0;
}

void Controller::credit_skipped(u64 skipped) {
  // Cycles skipped while gated belong to the wait state we slept in —
  // unchanged since then, because only a tick can change state_.
  switch (state_) {
    case State::kIdle:
      stats_.idle_cycles += skipped;
      break;
    case State::kFetch:
      stats_.fetch_cycles += skipped;
      break;
    case State::kXfer:
      stats_.xfer_cycles += skipped;
      break;
    case State::kExecWait:
      stats_.exec_wait_cycles += skipped;
      break;
    case State::kDecode:
      break;  // never gated in decode
  }
}

ControllerStats Controller::stats() const {
  ControllerStats s = stats_;
  const u64 credit = pending_credit();
  if (credit > 0) {
    switch (state_) {
      case State::kIdle:
        s.idle_cycles += credit;
        break;
      case State::kFetch:
        s.fetch_cycles += credit;
        break;
      case State::kXfer:
        s.xfer_cycles += credit;
        break;
      case State::kExecWait:
        s.exec_wait_cycles += credit;
        break;
      case State::kDecode:
        break;
    }
  }
  return s;
}

void Controller::set_tracer(obs::EventTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) track_ = tracer_->track("ctrl." + name());
}

void Controller::trace_instr_end() {
  if (tracer_ == nullptr) return;
  tracer_->complete(track_, isa::mnemonic(cur_.op), instr_begin_,
                    kernel().now(), {obs::arg("pc", u64{instr_pc_})});
}

void Controller::issue_fetch() {
  instr_begin_ = kernel().now();
  instr_pc_ = pc_;
  iface_.master().start_read(iface_.translate(kProgramBank, pc_), 1);
  state_ = State::kFetch;
}

void Controller::next_instruction() {
  ++pc_;
  if (pc_ >= iface_.prog_size()) {
    fault("program ran off the end (missing eop)");
    return;
  }
  issue_fetch();
}

void Controller::fault(const char* why) {
  last_fault_ = FaultInfo{kernel().now(), pc_, why};
  if (tracer_ != nullptr) {
    tracer_->instant(track_, "fault",
                     {obs::arg("why", why), obs::arg("pc", u64{pc_})});
  }
  ++stats_.faults;
  iface_.signal_error();
  iface_.set_running(false);
  state_ = State::kIdle;
}

void Controller::do_soft_reset() {
  // Abort in the hardware order: master transaction first (releases the
  // bus grant), then the datapath FIFOs, then whatever RAC op is open.
  // Banks and program size live in the interface and survive.
  if (iface_.master().busy()) iface_.master().abort();
  for (fifo::WidthFifo* f : in_fifos_) f->flush();
  for (fifo::WidthFifo* f : out_fifos_) f->flush();
  rac_.abort_op();
  flush_decode_cache();
  loop_active_ = false;
  loop_iter_ = 0;
  loop_left_ = 0;
  state_ = State::kIdle;
  iface_.set_running(false);
  iface_.ack_reset();
  if (tracer_ != nullptr) {
    tracer_->instant(track_, "soft_reset", {obs::arg("pc", u64{pc_})});
  }
  ++stats_.idle_cycles;  // the reset cycle itself
}

void Controller::decode_and_issue() {
  ++stats_.decode_cycles;
  // Fibonacci hash: encodings put the offset field in the high half of
  // the word, so a shift-XOR fold of the low bits would alias every
  // unrolled mvtc/mvfc of a stream program onto a handful of slots.
  static_assert(kDecodeCacheSize == 64, "index takes the top 6 bits");
  DecodeEntry& slot = decode_cache_[(ir_ * 0x9E3779B1u) >> 26];
  if (decode_cache_enabled_ && slot.valid && slot.word == ir_) {
    ++decode_hits_;
    kernel().stats().add(h_decode_hits_);
    cur_ = slot.instr;
  } else {
    const auto decoded = isa::decode(ir_);
    if (!decoded) {
      fault("unassigned opcode");
      return;
    }
    cur_ = *decoded;
    if (decode_cache_enabled_) {
      ++decode_misses_;
      kernel().stats().add(h_decode_misses_);
      slot = DecodeEntry{.word = ir_, .valid = true, .instr = cur_};
    }
  }
  if (isa_level_ == IsaLevel::kV1 && !isa::is_v1_opcode(cur_.op)) {
    fault("v2 instruction on a v1 controller");
    return;
  }
  ++stats_.instructions;

  switch (cur_.op) {
    case isa::Opcode::kMvtc: {
      if (cur_.fifo >= in_fifos_.size()) {
        fault("mvtc: no such input FIFO");
        return;
      }
      sink_.select(in_fifos_[cur_.fifo]);
      iface_.master().start_read_stream(
          iface_.translate(cur_.bank, cur_.offset + loop_iter_ * cur_.len),
          cur_.len, sink_);
      state_ = State::kXfer;
      break;
    }
    case isa::Opcode::kMvfc: {
      if (cur_.fifo >= out_fifos_.size()) {
        fault("mvfc: no such output FIFO");
        return;
      }
      source_.select(out_fifos_[cur_.fifo]);
      iface_.master().start_write_stream(
          iface_.translate(cur_.bank, cur_.offset + loop_iter_ * cur_.len),
          cur_.len, source_);
      state_ = State::kXfer;
      break;
    }
    case isa::Opcode::kExec:
      rac_.start();
      state_ = State::kExecWait;
      break;
    case isa::Opcode::kExecs:
      rac_.start();
      trace_instr_end();
      next_instruction();
      break;
    case isa::Opcode::kWait:
      state_ = State::kExecWait;
      break;
    case isa::Opcode::kNop:
      trace_instr_end();
      next_instruction();
      break;
    case isa::Opcode::kIrq:
      ++stats_.progress_irqs;
      iface_.signal_progress();
      trace_instr_end();
      next_instruction();
      break;
    case isa::Opcode::kLoop: {
      if (cur_.target >= pc_) {
        fault("loop: target must be backward");
        return;
      }
      if (!loop_active_) {
        loop_active_ = true;
        loop_left_ = cur_.count;
        loop_iter_ = 0;
      }
      trace_instr_end();
      if (loop_left_ > 0) {
        --loop_left_;
        ++loop_iter_;
        pc_ = cur_.target;
        issue_fetch();
      } else {
        loop_active_ = false;
        loop_iter_ = 0;
        next_instruction();
      }
      break;
    }
    case isa::Opcode::kEop:
      ++stats_.runs;
      trace_instr_end();
      iface_.signal_done();
      iface_.set_running(false);
      state_ = State::kIdle;
      break;
  }
}

void Controller::state(snap::Fields& f) {
  iface_.state(f);  // the interface rides in the controller section

  f.field_as<u8>("state", state_, State::kExecWait);
  f.field("pc", pc_);
  f.field("ir", ir_);
  u32 cur_word = isa::encode(cur_);
  f.field("cur_word", cur_word);
  if (f.restoring()) {
    const auto cur = isa::decode(cur_word);
    if (!cur) f.fail("current instruction does not decode");
    cur_ = *cur;
  }
  f.field("loop_active", loop_active_);
  f.field("loop_left", loop_left_);
  f.field("loop_iter", loop_iter_);

  f.field("instructions", stats_.instructions);
  f.field("fetch_cycles", stats_.fetch_cycles);
  f.field("decode_cycles", stats_.decode_cycles);
  f.field("xfer_cycles", stats_.xfer_cycles);
  f.field("exec_wait_cycles", stats_.exec_wait_cycles);
  f.field("idle_cycles", stats_.idle_cycles);
  f.field("words_to_rac", stats_.words_to_rac);
  f.field("words_from_rac", stats_.words_from_rac);
  f.field("runs", stats_.runs);
  f.field("faults", stats_.faults);
  f.field("progress_irqs", stats_.progress_irqs);

  f.field("fault_cycle", last_fault_.cycle);
  f.field("fault_pc", last_fault_.pc);
  f.field("fault_reason", last_fault_.reason);

  f.field("instr_begin", instr_begin_);
  f.field("instr_pc", instr_pc_);
  f.field("next_expected_tick", next_expected_tick_);

  // Decode cache: valid entries only, as (slot, word) pairs. The decoded
  // Instruction is recomputed on restore — isa::decode is pure in the
  // word, so contents and the hit/miss counters stay bit-exact.
  std::vector<u32> cache;
  for (std::size_t i = 0; i < decode_cache_.size(); ++i) {
    if (decode_cache_[i].valid) {
      cache.push_back(static_cast<u32>(i));
      cache.push_back(decode_cache_[i].word);
    }
  }
  f.field("decode_cache", cache);
  if (f.restoring()) {
    if (cache.size() % 2 != 0) f.fail("odd decode-cache pair list");
    flush_decode_cache();
    for (std::size_t i = 0; i < cache.size(); i += 2) {
      const u32 slot = cache[i];
      const u32 word = cache[i + 1];
      if (slot >= kDecodeCacheSize) f.fail("decode-cache slot out of range");
      const auto decoded = isa::decode(word);
      if (!decoded) f.fail("cached word does not decode");
      decode_cache_[slot] =
          DecodeEntry{.word = word, .valid = true, .instr = *decoded};
    }
  }
  f.field("decode_hits", decode_hits_);
  f.field("decode_misses", decode_misses_);

  // Mid-transfer restore: the master port's streamed endpoint is wiring
  // the bus could not restore (it cleared sink_/source_); re-select the
  // FIFO adapter and reattach. The bus restores before us — component
  // registration order puts the interconnect first.
  if (f.restoring() && state_ == State::kXfer && iface_.master().busy()) {
    if (cur_.op == isa::Opcode::kMvtc) {
      sink_.select(in_fifos_[cur_.fifo]);
      iface_.master().restore_stream(&sink_, nullptr);
    } else if (cur_.op == isa::Opcode::kMvfc) {
      source_.select(out_fifos_[cur_.fifo]);
      iface_.master().restore_stream(nullptr, &source_);
    }
  }
}

void Controller::tick_compute() {
  const u64 skipped = pending_credit();
  next_expected_tick_ = kernel().now() + 1;
  if (skipped > 0) credit_skipped(skipped);
  if (iface_.reset_pending()) {
    do_soft_reset();
    return;
  }
  switch (state_) {
    case State::kIdle:
      if (iface_.start_pending()) {
        iface_.ack_start();
        iface_.set_running(true);
        pc_ = 0;
        loop_active_ = false;
        loop_iter_ = 0;
        if (iface_.prog_size() == 0) {
          fault("program size is zero");
          return;
        }
        issue_fetch();
      } else {
        ++stats_.idle_cycles;
      }
      break;
    case State::kFetch:
      if (!iface_.master().busy()) {
        if (iface_.master().faulted()) {
          fault("bus error on instruction fetch");
          return;
        }
        ir_ = iface_.master().rdata0();
        if (fault_hook_ != nullptr) {
          ir_ = fault_hook_->corrupt_fetch(ir_, pc_, kernel().now());
        }
        state_ = State::kDecode;
      } else {
        ++stats_.fetch_cycles;
      }
      break;
    case State::kDecode:
      decode_and_issue();
      break;
    case State::kXfer:
      if (!iface_.master().busy()) {
        if (iface_.master().faulted()) {
          fault("bus error during data transfer");
          return;
        }
        trace_instr_end();
        next_instruction();
      } else {
        ++stats_.xfer_cycles;
      }
      break;
    case State::kExecWait:
      if (!rac_.exec_pending()) {
        trace_instr_end();
        next_instruction();
      } else {
        ++stats_.exec_wait_cycles;
      }
      break;
  }
}

res::ResourceNode Controller::resource_tree() const {
  res::ResourceNode n{.name = name(), .self = {}, .children = {}};
  res::ResourceEstimate seq;
  seq += res::est_fsm(5, 18);                       // main FSM
  seq += res::est_register(14);                     // PC
  seq += res::est_register(32);                     // IR
  seq += res::est_adder(14);                        // PC increment
  res::ResourceEstimate dec;
  dec += res::est_mux(8, 8);                        // opcode dispatch
  dec += res::est_register(3 + 14 + 2 + 8);         // latched fields
  dec += res::est_comparator(8);                    // burst-length checks
  res::ResourceEstimate loop;
  if (isa_level_ == IsaLevel::kV2) {
    loop += res::est_register(14 + 8 + 1);          // loop target/count
    loop += res::est_adder(8);
    loop += res::est_comparator(8);
  }
  n.children.push_back({"sequencer", seq, {}});
  n.children.push_back({"decoder", dec, {}});
  if (isa_level_ == IsaLevel::kV2) {
    n.children.push_back({"loop_unit", loop, {}});
  }
  return n;
}

}  // namespace ouessant::core
