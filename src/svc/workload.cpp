#include "svc/workload.hpp"

#include <cmath>
#include <span>

#include "codec/jpeg.hpp"
#include "rac/fir.hpp"
#include "util/fixed.hpp"
#include "util/transforms.hpp"

namespace ouessant::svc {

namespace {

/// One job of a kind drawn uniformly from @p kinds (a draw even when
/// there is one kind), then its priority and payload. Draws from a local
/// copy of @p rng, written back once: the payload stores could alias the
/// generator's u32 state and force it through memory on every draw.
Job draw_job(u64 id, Cycle arrival, std::span<const JobKind> kinds,
             double high_fraction, util::Rng& rng) {
  util::Rng r = rng;
  Job job;
  job.id = id;
  job.arrival = arrival;
  job.kind = kinds[r.below(static_cast<u32>(kinds.size()))];
  job.prio = r.chance(high_fraction) ? Priority::kHigh : Priority::kNormal;
  job.payload.resize(block_words(job.kind));
  if (job.kind == JobKind::kJpegChain) {
    // Quantized scan-order coefficients, shaped like a real entropy
    // decoder's output: a moderate DC, mostly-zero AC with small
    // survivors. After the dequantize stage multiplies by the service
    // quality's table (entries <= 255) the values stay well inside the
    // IDCT datapath's range.
    job.payload[0] = util::to_word(r.range(-100, 100));
    for (std::size_t i = 1; i < job.payload.size(); ++i) {
      const bool zero = r.chance(0.75);
      job.payload[i] = util::to_word(zero ? 0 : r.range(-30, 30));
    }
  } else {
    // Coefficient-magnitude samples: the same range every RAC-facing
    // bench uses, safely inside the Q16.16 headroom of all four
    // datapaths.
    for (auto& w : job.payload) w = util::to_word(r.range(-20000, 20000));
  }
  rng = r;
  return job;
}

}  // namespace

Job make_job(u64 id, Cycle arrival, const WorkloadConfig& cfg,
             util::Rng& rng) {
  if (cfg.kinds.empty()) {
    throw ConfigError("WorkloadConfig: empty kind mix");
  }
  return draw_job(id, arrival, cfg.kinds, cfg.high_fraction, rng);
}

std::vector<Job> open_loop_arrivals(const WorkloadConfig& cfg,
                                    util::Rng& rng, Cycle start) {
  if (!(cfg.mean_gap >= 1.0)) {
    throw ConfigError("WorkloadConfig: mean_gap must be >= 1 cycle");
  }
  std::vector<Job> jobs;
  jobs.reserve(cfg.jobs);
  Cycle t = start;
  for (u32 i = 0; i < cfg.jobs; ++i) {
    // Exponential gap, floored at one cycle so arrivals stay strictly
    // ordered events. Deterministic for a given seed (single binary —
    // the determinism contract the sweep checks is jobs=1 vs jobs=N and
    // run-to-run, not cross-libm).
    const double u = rng.uniform();
    const double gap = -std::log(1.0 - u) * cfg.mean_gap;
    t += std::max<Cycle>(1, static_cast<Cycle>(gap));
    jobs.push_back(make_job(i, t, cfg, rng));
  }
  return jobs;
}

std::vector<Job> phased_arrivals(const std::vector<WorkloadPhase>& phases,
                                 u64 seed, Cycle start) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  std::size_t total = 0;
  for (const WorkloadPhase& ph : phases) total += ph.jobs;
  jobs.reserve(total);
  Cycle t = start;
  u64 id = 0;
  for (const WorkloadPhase& ph : phases) {
    if (ph.mix.empty()) {
      throw ConfigError("WorkloadPhase: empty kind mix");
    }
    if (!(ph.mean_gap >= 1.0)) {
      throw ConfigError("WorkloadPhase: mean_gap must be >= 1 cycle");
    }
    double wsum = 0.0;
    for (const auto& [kind, weight] : ph.mix) {
      if (!(weight >= 0.0)) {
        throw ConfigError("WorkloadPhase: negative kind weight");
      }
      wsum += weight;
    }
    if (!(wsum > 0.0)) {
      throw ConfigError("WorkloadPhase: zero total kind weight");
    }
    for (u32 i = 0; i < ph.jobs; ++i) {
      const double u = rng.uniform();
      const double gap = -std::log(1.0 - u) * ph.mean_gap;
      t += std::max<Cycle>(1, static_cast<Cycle>(gap));
      double pick = rng.uniform() * wsum;
      JobKind kind = ph.mix.back().first;
      for (const auto& [k, weight] : ph.mix) {
        if (pick < weight) {
          kind = k;
          break;
        }
        pick -= weight;
      }
      jobs.push_back(draw_job(id++, t, {&kind, 1}, ph.high_fraction, rng));
    }
  }
  return jobs;
}

std::vector<u32> reference_output(JobKind kind,
                                  const std::vector<u32>& payload) {
  const u32 words = block_words(kind);
  if (payload.size() != words) {
    throw ConfigError("reference_output: payload size mismatch");
  }
  std::vector<u32> out(words);
  switch (kind) {
    case JobKind::kIdct:
    case JobKind::kJpegBlock: {
      i32 coef[64];
      i32 pix[64];
      for (u32 i = 0; i < 64; ++i) coef[i] = util::from_word(payload[i]);
      util::fixed_idct8x8(coef, pix);
      for (u32 i = 0; i < 64; ++i) out[i] = util::to_word(pix[i]);
      break;
    }
    case JobKind::kJpegChain: {
      // The software model of the whole two-stage chain: dequantize the
      // scan-order payload with the service quality's table (exactly
      // what DequantRac computes), then the same fixed-point IDCT.
      const auto quant = codec::quant_table(jpeg_chain_quality());
      const auto& zz = codec::zigzag_order();
      i32 coef[64];
      i32 pix[64];
      for (u32 i = 0; i < 64; ++i) {
        coef[zz[i]] = util::from_word(payload[i]) * quant[zz[i]];
      }
      util::fixed_idct8x8(coef, pix);
      for (u32 i = 0; i < 64; ++i) out[i] = util::to_word(pix[i]);
      break;
    }
    case JobKind::kDft: {
      std::vector<i32> re(32);
      std::vector<i32> im(32);
      for (u32 i = 0; i < 32; ++i) {
        re[i] = util::from_word(payload[2 * i]);
        im[i] = util::from_word(payload[2 * i + 1]);
      }
      util::fixed_fft(re, im);
      for (u32 i = 0; i < 32; ++i) {
        out[2 * i] = util::to_word(re[i]);
        out[2 * i + 1] = util::to_word(im[i]);
      }
      break;
    }
    case JobKind::kFir: {
      std::vector<i32> x(words);
      for (u32 i = 0; i < words; ++i) x[i] = util::from_word(payload[i]);
      const auto y = rac::FirRac::filter_reference(fir_service_taps(), x);
      for (u32 i = 0; i < words; ++i) out[i] = util::to_word(y[i]);
      break;
    }
  }
  return out;
}

const std::vector<i32>& fir_service_taps() {
  // 8-tap symmetric low-pass in Q16.16, gain < 1 so outputs never
  // saturate on the payload range above. Immutable after construction —
  // safe under the parallel sweep's no-mutable-statics rule (C++ inits
  // this once, thread-safely, and it is only ever read).
  static const std::vector<i32> taps = {1 << 12, 1 << 13, 1 << 14, 1 << 14,
                                        1 << 14, 1 << 14, 1 << 13, 1 << 12};
  return taps;
}

u32 jpeg_chain_quality() {
  // The published luminance table unscaled — the canonical midpoint, and
  // the quality the serve_jpeg end-to-end scenario encodes at.
  return 50;
}

}  // namespace ouessant::svc
