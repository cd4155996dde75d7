#include "svc/job.hpp"

#include <span>

namespace ouessant::svc {

const char* kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kIdct:
      return "idct";
    case JobKind::kDft:
      return "dft32";
    case JobKind::kFir:
      return "fir";
    case JobKind::kJpegBlock:
      return "jpeg";
    case JobKind::kJpegChain:
      return "jpeg_chain";
  }
  return "?";
}

u32 block_words(JobKind kind) {
  // 64 words for every kind: the IDCT/JPEG/chained-JPEG block is 8x8,
  // the DFT runs 32 complex points (2 words each), the FIR processes 64
  // samples. One block therefore always fits a single burst
  // (isa::kMaxBurst = 256), which is what makes the v2-loop batch
  // program applicable.
  (void)kind;
  return 64;
}

JobQueue::JobQueue(std::size_t depth) : depth_(depth) {
  if (depth_ == 0) {
    throw ConfigError("JobQueue: depth must be non-zero");
  }
}

bool JobQueue::push(Job job) {
  if (size() >= depth_) {
    ++rejected_;
    return false;
  }
  classes_[static_cast<std::size_t>(job.prio)].push_back(std::move(job));
  ++accepted_;
  peak_ = std::max(peak_, size());
  return true;
}

std::vector<Job> JobQueue::take(JobKind kind, u32 max_batch) {
  std::vector<Job> out;
  if (max_batch == 0) return out;
  for (auto& cls : classes_) {
    for (auto it = cls.begin(); it != cls.end() && out.size() < max_batch;) {
      if (it->kind == kind) {
        out.push_back(std::move(*it));
        it = cls.erase(it);
      } else {
        ++it;
      }
    }
    if (out.size() >= max_batch) break;
  }
  return out;
}

void JobQueue::requeue(Job job) {
  classes_[static_cast<std::size_t>(job.prio)].push_front(std::move(job));
  peak_ = std::max(peak_, size());
}

std::size_t JobQueue::size() const {
  std::size_t n = 0;
  for (const auto& cls : classes_) n += cls.size();
  return n;
}

std::size_t JobQueue::size_of_kind(JobKind kind) const {
  std::size_t n = 0;
  for (const auto& cls : classes_) {
    for (const Job& job : cls) n += job.kind == kind ? 1 : 0;
  }
  return n;
}

void job_state(snap::Fields& f, Job& job, std::size_t workers) {
  f.field("id", job.id);
  f.field_as<u8>("kind", job.kind, static_cast<JobKind>(kNumJobKinds - 1));
  f.field_as<u8>("prio", job.prio,
                 static_cast<Priority>(kNumPriorities - 1));
  f.field("arrival", job.arrival);
  // A fixed-length field on restore: the image must hold one block.
  if (f.restoring()) job.payload.resize(block_words(job.kind));
  f.field("payload", std::span(job.payload));
  f.field("dispatch", job.dispatch);
  f.field("complete", job.complete);
  f.field_as<u32>("worker", job.worker);
  if (job.worker < -1 || job.worker >= static_cast<int>(workers)) {
    f.fail("'worker' is " + std::to_string(job.worker) + ", outside [-1, " +
           std::to_string(workers) + ")");
  }
  f.field("attempts", job.attempts);
}

void JobQueue::reset_counters() {
  accepted_ = 0;
  rejected_ = 0;
  peak_ = size();
}

void JobQueue::state(snap::Fields& f, std::size_t workers) {
  f.field("accepted", accepted_);
  f.field("rejected", rejected_);
  f.field_as<u64>("peak", peak_);
  for (std::deque<Job>& jobs : classes_) {
    f.list("class_size", jobs,
           [&f, workers](Job& job) { job_state(f, job, workers); });
  }
  if (size() > depth_) f.fail("image holds more jobs than depth");
}

}  // namespace ouessant::svc
