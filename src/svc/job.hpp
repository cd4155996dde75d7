// Offload jobs and the software job queue.
//
// The paper's integration model is single-shot: one OCP, one microcode
// launch, one result. The service layer (DESIGN.md §9) turns that into a
// *service*: applications submit Jobs (kind + payload + priority), a
// bounded JobQueue holds them, and the Dispatcher drains the queue onto
// whatever OCP instances the SoC carries. The queue is deliberately
// bounded with an explicit reject-on-full path so overload is observable
// (a counted rejection) instead of silent (an ever-growing backlog).
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::svc {

/// What computation a job wants. Each kind maps to one RAC type; the
/// Dispatcher only places a job on an OCP whose RAC matches.
enum class JobKind : u8 {
  kIdct = 0,   ///< 8x8 2D IDCT block (the paper's first accelerator)
  kDft,        ///< 32-point DFT (small-batchable sibling of the DFT RAC)
  kFir,        ///< 64-sample FIR block
  kJpegBlock,  ///< dequantized JPEG coefficient block -> spatial samples
  kJpegChain,  ///< quantized scan-order block -> dequant RAC -> IDCT RAC
               ///< (the two-stage chained pipeline, docs/chaining.md)
};

inline constexpr std::size_t kNumJobKinds = 5;

[[nodiscard]] const char* kind_name(JobKind kind);

/// Words per block for @p kind — both input and output (every current
/// kind is 64-in/64-out, which keeps blocks batchable: the v2 LOOP batch
/// program requires one block to fit a single burst).
[[nodiscard]] u32 block_words(JobKind kind);

/// Two priority classes, strictly ordered: all queued high-priority work
/// of a kind is served before normal work of that kind.
enum class Priority : u8 { kHigh = 0, kNormal = 1 };
inline constexpr std::size_t kNumPriorities = 2;

/// One offload request plus its latency-accounting timestamps. The
/// payload is `block_words(kind)` words in the RAC's wire format.
struct Job {
  u64 id = 0;
  JobKind kind = JobKind::kIdct;
  Priority prio = Priority::kNormal;
  Cycle arrival = 0;   ///< cycle the job entered the system
  std::vector<u32> payload;

  // Filled by the Dispatcher.
  Cycle dispatch = 0;  ///< cycle the CPU started the launch sequence
  Cycle complete = 0;  ///< cycle the completion was acknowledged
  int worker = -1;     ///< OCP index that served the job
  u32 attempts = 0;    ///< completed tries (fault-aware runs; 0 = first)

  [[nodiscard]] u64 queue_wait() const { return dispatch - arrival; }
  [[nodiscard]] u64 service() const { return complete - dispatch; }
  [[nodiscard]] u64 end_to_end() const { return complete - arrival; }
};

/// One Job's field list (fields are sequential, so lists repeat them: a
/// count field, then these fields per element). A restore refuses what
/// no run produces: a payload other than one block of the job's kind,
/// and a `worker` outside [-1, @p workers).
void job_state(snap::Fields& f, Job& job, std::size_t workers);

/// Bounded multi-class FIFO. push() rejects (and counts) when the queue
/// is at depth; take() hands the Dispatcher up to @p max_batch jobs of
/// one kind in (priority class, FIFO) order — the batching path pops
/// several same-kind jobs for a single v2-loop launch.
class JobQueue {
 public:
  explicit JobQueue(std::size_t depth);

  /// False (and the job is dropped + counted) when the queue is full.
  bool push(Job job);

  /// Remove up to @p max_batch jobs of @p kind, high class first, FIFO
  /// within a class. Empty when no queued job matches.
  [[nodiscard]] std::vector<Job> take(JobKind kind, u32 max_batch);

  /// Put a previously-taken job back at the *head* of its class (slot
  /// preemption: the job was admitted once and must not lose its place
  /// or be re-counted). Bypasses the depth bound — the transient
  /// overshoot equals the preempted batch, which was queue-resident
  /// before it dispatched.
  void requeue(Job job);

  /// Count a job refused *before* it reached the queue (no worker — and
  /// no reconfigurable slot — can ever serve its kind, so admitting it
  /// would strand it). Shares the rejected counter with reject-on-full:
  /// both are jobs the service turned away at the door.
  void refuse() { ++rejected_; }

  [[nodiscard]] std::size_t size() const;
  /// Queued jobs of @p kind across both classes — the swap scheduler's
  /// demand signal.
  [[nodiscard]] std::size_t size_of_kind(JobKind kind) const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] u64 accepted() const { return accepted_; }
  [[nodiscard]] u64 rejected() const { return rejected_; }
  [[nodiscard]] std::size_t peak_depth() const { return peak_; }

  /// Warm-boot: zero the accepted/rejected counters and re-anchor the
  /// peak at the current occupancy, so a cloned shard reports only its
  /// own run. Queued jobs are untouched.
  void reset_counters();

  // Snapshot field list (host-stack object; the Dispatcher lists it).
  // @p workers bounds each job's `worker` (job_state).
  void state(snap::Fields& f, std::size_t workers);

 private:
  std::size_t depth_;
  std::array<std::deque<Job>, kNumPriorities> classes_;
  u64 accepted_ = 0;
  u64 rejected_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace ouessant::svc
