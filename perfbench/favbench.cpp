// End-to-end benchmark program. One process runs one repetition of one
// workload through the public facade calls `fav evaluate` makes, checks the
// answer, and prints one JSON object on its last stdout line.
//
//   favbench seed --artifact PATH
//       Builds the pre-characterization artifact the warm workloads load.
//   favbench run --workload NAME --seed N --work DIR
//                [--artifact PATH] [--trace SPANS.jsonl]
//       Runs the workload. DIR receives the run report (and, for the cold
//       workload, the artifact and the journal). With --trace the process
//       also replays the campaign through the layers' public functions,
//       records one span per call, and writes the spans to SPANS.jsonl.
//
// perfbench/run.py drives this binary; README.md in this directory
// describes the workloads, the metrics and the span file.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/framework.h"
#include "core/run_report.h"
#include "mc/journal.h"
#include "util/io.h"
#include "util/metrics.h"

namespace {

using namespace fav;

// --- workloads --------------------------------------------------------------

// Shared by every workload, as `fav evaluate` sets them.
constexpr const char* kBenchmark = "write";
constexpr int kTRange = 50;
constexpr double kRadius = 1.5;
constexpr std::size_t kThreads = 1;
constexpr std::size_t kBatchLanes = 64;
constexpr std::size_t kRecordCapacity = 200'000;
constexpr std::size_t kShardSize = 256;
// SsfEvaluator::run_batch and run_exhaustive evaluate in chunks of this many
// samples when a stop token is armed; the replay groups lanes the same way.
constexpr std::size_t kChunk = 256;
constexpr std::size_t kLaneCap = 64;

// Exact answer of the full radiation sweep over the subblock model
// (benchmark write, radius 1.5, t-range 50): SSF 0.0008667260314633383.
constexpr double kExactSsf = 0x1.c669ffad854cbp-11;
constexpr std::size_t kExactMasked = 311600;
constexpr std::size_t kExactAnalytical = 10400;
constexpr std::size_t kExactRtl = 14900;
// ci_cost_s target: a 95% CI half-width of 1e-4 on SSF.
constexpr double kTargetHalfWidth = 1e-4;

struct Workload {
  const char* name;
  const char* technique;
  const char* strategy;  // "exhaustive" for the sweep
  std::size_t samples;   // 0 for the sweep: the whole bound space
  bool exhaustive;
  bool journaled;
  bool warm;  // loads an artifact seeded before the process starts

  bool radiation() const { return std::strcmp(technique, "radiation") == 0; }
};

constexpr Workload kWorkloads[] = {
    {"rad-sampled", "radiation", "importance", 50'000, false, false, true},
    {"rad-exhaustive", "radiation", "exhaustive", 0, true, false, true},
    {"glitch-cold-journaled", "clock-glitch", "random", 50'000, false, true,
     false},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw StatusError(ErrorCode::kInvalidArgument,
                    "unknown workload '" + name + "'");
}

core::FrameworkConfig framework_config(const Workload& w,
                                       const std::string& artifact,
                                       const std::atomic<bool>* stop) {
  core::FrameworkConfig cfg;
  cfg.technique = w.technique;
  cfg.mode = w.exhaustive ? "exhaustive" : "sampled";
  cfg.precharac_cache_path = artifact;
  cfg.evaluator.threads = kThreads;
  cfg.evaluator.batch_lanes = kBatchLanes;
  cfg.evaluator.record_capacity = kRecordCapacity;
  cfg.evaluator.stop = stop;
  return cfg;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// --- spans --------------------------------------------------------------------

/// In-memory span log of one traced run. Spans nest through an open-span
/// stack; phase spans (add_phase) carry a duration read from the framework's
/// own construction timers and no timestamps.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t start_ns;  // 0 for phase spans
    std::uint64_t dur_ns;
  };

  std::uint32_t begin(const char* name) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, stack_.empty() ? kNoParent : stack_.back(),
                      monotonic_ns(), 0});
    stack_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    spans_[id].dur_ns = monotonic_ns() - spans_[id].start_ns;
    stack_.pop_back();
  }
  /// A child of the innermost open span with a known duration.
  void add_phase(const char* name, std::uint64_t dur_ns) {
    spans_.push_back({name, stack_.back(), 0, dur_ns});
  }

  /// Duration of the first root span named `name` (0 if none).
  std::uint64_t root_ns(const char* name) const {
    for (const Span& s : spans_) {
      if (s.parent == kNoParent && std::strcmp(s.name, name) == 0) {
        return s.dur_ns;
      }
    }
    return 0;
  }

  /// Self time (duration minus the time child spans cover) and call count,
  /// summed per span name. `under`, when set, keeps only the spans below
  /// the first root span of that name.
  struct Totals {
    std::uint64_t self_ns = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Totals> totals(const char* under = nullptr) const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.dur_ns;
    }
    std::uint32_t root = kNoParent;
    if (under != nullptr) {
      for (std::uint32_t i = 0; i < spans_.size() && root == kNoParent; ++i) {
        if (spans_[i].parent == kNoParent &&
            std::strcmp(spans_[i].name, under) == 0) {
          root = i;
        }
      }
    }
    std::map<std::string, Totals> out;
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      if (under != nullptr && spans_[i].parent != root) continue;
      Totals& t = out[spans_[i].name];
      t.self_ns += spans_[i].dur_ns - std::min(child_ns[i], spans_[i].dur_ns);
      ++t.calls;
    }
    return out;
  }

  void write_jsonl(const std::string& path, const std::string& run_id) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run\": \"" << run_id << "\", \"id\": " << i
          << ", \"parent\": ";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ", \"name\": \"" << s.name << "\", \"start_ns\": ";
      if (s.start_ns == 0) {
        out << "null";
      } else {
        out << s.start_ns;
      }
      out << ", \"dur_ns\": " << s.dur_ns << "}\n";
    }
    if (!out) {
      throw StatusError(ErrorCode::kIoError, "cannot write spans to " + path);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Constructs the facade under a span named `span`, with the framework's
/// own per-phase construction timers as its child spans.
std::unique_ptr<core::FaultAttackEvaluator> construct_framework(
    const core::FrameworkConfig& cfg, Tracer* tracer, const char* span) {
  SpanScope scope(tracer, span);
  auto fw = std::make_unique<core::FaultAttackEvaluator>(
      soc::make_illegal_write_benchmark(), cfg);
  if (tracer != nullptr) {
    static constexpr std::pair<const char*, const char*> kPhases[] = {
        {"precharac.characterization_ns", "precharac.characterize"},
        {"precharac.cone_ns", "precharac.cones"},
        {"precharac.signatures_ns", "precharac.signatures"},
        {"precharac.cache_load_ns", "precharac.artifact_load"},
        {"precharac.cache_save_ns", "precharac.artifact_save"},
        {"precharac.golden_runs_ns", "rtl.golden_run"},
    };
    for (const auto& [timer, name] : kPhases) {
      if (const TimerStat* t = fw->metrics().timer(timer)) {
        tracer->add_phase(name, t->total_ns);
      }
    }
  }
  return fw;
}

// --- the campaign, as `fav evaluate` runs it ---------------------------------

std::uint64_t fingerprint(const Workload& w, const std::string& strategy,
                          std::uint64_t seed) {
  core::CampaignKey key;
  key.benchmark = kBenchmark;
  key.technique = w.technique;
  key.strategy = strategy;
  key.seed = seed;
  key.samples = w.samples;
  key.t_range = kTRange;
  key.radius = kRadius;
  return core::campaign_fingerprint(key);
}

mc::JournalOptions journal_options(const Workload& w,
                                   const std::string& strategy,
                                   std::uint64_t seed, const std::string& dir) {
  mc::JournalOptions jopt;
  jopt.dir = dir;
  jopt.shard_size = kShardSize;
  jopt.fingerprint = fingerprint(w, strategy, seed);
  jopt.context = std::string(kBenchmark) + "/" + w.technique + "/" + strategy;
  return jopt;
}

mc::SsfResult run_campaign(const Workload& w,
                           const core::FaultAttackEvaluator& fw,
                           const core::SamplerSelection& sel,
                           std::uint64_t seed, const std::string& journal_dir) {
  if (w.exhaustive) return fw.evaluator().run_exhaustive();
  Rng rng(seed);
  if (!w.journaled) return fw.evaluator().run(*sel.sampler, rng, w.samples);
  Result<mc::SsfResult> r = fw.evaluator().run_journaled(
      *sel.sampler, rng, w.samples,
      journal_options(w, sel.actual, seed, journal_dir));
  if (!r.is_ok()) throw StatusError(r.status());
  return std::move(r).value();
}

void write_report(const Workload& w, const core::FaultAttackEvaluator& fw,
                  const std::string& strategy, std::uint64_t seed,
                  const mc::SsfResult& res, double campaign_s,
                  const std::string& path) {
  MetricsSink metrics;
  metrics.merge(fw.metrics());
  core::RunReportInputs in;
  in.benchmark = kBenchmark;
  in.technique = w.technique;
  in.strategy = strategy;
  in.mode = w.exhaustive ? "exhaustive" : "sampled";
  in.samples = res.evaluated;
  in.seed = seed;
  in.threads = kThreads;
  in.batch_lanes = kBatchLanes;
  in.cache = fw.precharac_cache();
  in.elapsed_s = campaign_s;
  in.result = &res;
  in.metrics = &metrics;
  std::ostringstream report;
  core::write_run_report(report, in);
  const Status written = io::atomic_write_file(path, report.str());
  if (!written.is_ok()) throw StatusError(written);
}

// --- the traced replay --------------------------------------------------------

/// Work counts the replay gathers at the same calls its spans time.
struct ReplayCounts {
  std::uint64_t restore_calls = 0;
  std::uint64_t warmup_cycles = 0;
  std::uint64_t settle_calls = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t lanes = 0;
  std::uint64_t flipping_lanes = 0;
  std::uint64_t journal_shards = 0;  // filled in by replay_campaign
};

/// Re-evaluates a campaign through the public functions of each layer, in
/// the order SsfEvaluator's single-threaded batch path calls them: per
/// injection-cycle group one checkpoint restore, one gate-level settle, one
/// bit-parallel sweep and one RTL step, then an outcome decision for every
/// lane whose flip set is not empty. The decision goes through
/// SsfEvaluator::outcome_for_flips, which restores its own machine from a
/// checkpoint, so mc.outcome is an upper bound on the engine's in-place
/// resume. Records come out identical to the engine's.
class Replay {
 public:
  Replay(const core::FaultAttackEvaluator& fw, Tracer& tracer)
      : fw_(fw),
        ev_(fw.evaluator()),
        tracer_(tracer),
        machine_(fw.golden().program()),
        gate_(fw.soc(), fw.golden().program()),
        words_(fw.soc().netlist()) {}

  const ReplayCounts& counts() const { return counts_; }

  /// Evaluates samples[lo, hi) into records[lo, hi), grouping lanes exactly
  /// as SsfEvaluator::evaluate_range does.
  void evaluate_range(const std::vector<faultsim::FaultSample>& samples,
                      std::vector<mc::SampleRecord>& records, std::size_t lo,
                      std::size_t hi) {
    const faultsim::AttackTechnique& technique = ev_.technique();
    const std::uint64_t tt = ev_.target_cycle();
    if (!technique.supports_batch() || hi - lo < 2) {
      for (std::size_t i = lo; i < hi; ++i) evaluate_single(samples, records, i);
      return;
    }
    std::vector<std::vector<std::size_t>> units;
    std::unordered_map<std::uint64_t, std::size_t> open;  // te -> open unit
    for (std::size_t i = lo; i < hi; ++i) {
      const faultsim::FaultSample& s = samples[i];
      bool eligible = s.impact_cycles == 1;
      if (eligible) {
        try {
          technique.check_sample(s);
        } catch (const std::exception&) {
          eligible = false;
        }
      }
      if (eligible && static_cast<std::uint64_t>(s.t) > tt) eligible = false;
      if (!eligible) {
        units.push_back({i});
        continue;
      }
      const std::uint64_t te = tt - static_cast<std::uint64_t>(s.t);
      const auto it = open.find(te);
      if (it != open.end() && units[it->second].size() < kLaneCap) {
        units[it->second].push_back(i);
      } else {
        open[te] = units.size();
        units.push_back({i});
      }
    }
    for (const std::vector<std::size_t>& unit : units) {
      if (unit.size() == 1) {
        evaluate_single(samples, records, unit[0]);
      } else {
        evaluate_group(samples, records, unit);
      }
    }
  }

 private:
  /// Restore + settle of the injection cycle te; false when the machine
  /// halted before te (every lane is then masked).
  bool prepare_cycle(std::uint64_t te, bool broadcast) {
    std::uint64_t warmup = 0;
    {
      SpanScope span(&tracer_, "rtl.restore");
      fw_.golden().restore_into(machine_, te, &warmup);
    }
    ++counts_.restore_calls;
    counts_.warmup_cycles += warmup;
    if (machine_.halted()) return false;
    SpanScope span(&tracer_, "soc.settle");
    gate_.load_state(machine_.state());
    gate_.mutable_ram() = machine_.ram();
    gate_.settle_inputs();
    if (broadcast) gate_.broadcast_settled(words_);
    ++counts_.settle_calls;
    return true;
  }

  /// Outcome of one lane whose flipped DFFs are `dffs`.
  void finish_lane(mc::SampleRecord& rec,
                   const std::vector<netlist::NodeId>& dffs) {
    std::set<int> bits;
    for (const netlist::NodeId dff : dffs) {
      bits.insert(fw_.soc().flat_bit_for_dff(dff));
    }
    rec.flipped_bits.assign(bits.begin(), bits.end());
    ++counts_.lanes;
    if (rec.flipped_bits.empty()) {
      rec.path = mc::OutcomePath::kMasked;
    } else {
      ++counts_.flipping_lanes;
      SpanScope span(&tracer_, "mc.outcome");
      rec.success = ev_.outcome_for_flips(rec.te, rec.flipped_bits, &rec.path);
    }
    rec.contribution = rec.success ? rec.sample.weight : 0.0;
  }

  void evaluate_group(const std::vector<faultsim::FaultSample>& samples,
                      std::vector<mc::SampleRecord>& records,
                      const std::vector<std::size_t>& unit) {
    const std::uint64_t te =
        ev_.target_cycle() - static_cast<std::uint64_t>(samples[unit[0]].t);
    if (prepare_cycle(te, /*broadcast=*/true)) {
      lane_samples_.clear();
      for (const std::size_t i : unit) lane_samples_.push_back(samples[i]);
      {
        SpanScope span(&tracer_, "faultsim.sweep");
        ev_.technique().flip_set_batch(words_, scratch_, lane_samples_,
                                       lane_flips_);
      }
      ++counts_.sweeps;
      machine_.step();
    } else {
      lane_flips_.assign(unit.size(), {});
    }
    for (std::size_t l = 0; l < unit.size(); ++l) {
      mc::SampleRecord& rec = records[unit[l]];
      rec = mc::SampleRecord{};
      rec.sample = samples[unit[l]];
      rec.te = te;
      finish_lane(rec, lane_flips_[l]);
    }
  }

  /// The engine's scalar path: one sample per restore, settle and sweep.
  void evaluate_single(const std::vector<faultsim::FaultSample>& samples,
                       std::vector<mc::SampleRecord>& records, std::size_t i) {
    const faultsim::FaultSample& s = samples[i];
    if (s.impact_cycles != 1) {
      throw StatusError(ErrorCode::kInvalidArgument,
                        "the replay covers single-cycle impact only");
    }
    mc::SampleRecord& rec = records[i];
    rec = mc::SampleRecord{};
    rec.sample = s;
    ev_.technique().check_sample(s);
    if (static_cast<std::uint64_t>(s.t) > ev_.target_cycle()) {
      rec.path = mc::OutcomePath::kMasked;  // struck before the program ran
      return;
    }
    rec.te = ev_.target_cycle() - static_cast<std::uint64_t>(s.t);
    flips_.clear();
    if (prepare_cycle(rec.te, /*broadcast=*/false)) {
      {
        SpanScope span(&tracer_, "faultsim.sweep");
        ev_.technique().flip_set(gate_.sim(), scratch_, s, flips_);
      }
      ++counts_.sweeps;
      machine_.step();
    }
    finish_lane(rec, flips_);
  }

  const core::FaultAttackEvaluator& fw_;
  const mc::SsfEvaluator& ev_;
  Tracer& tracer_;
  ReplayCounts counts_;
  rtl::Machine machine_;
  soc::GateLevelMachine gate_;
  netlist::WordSimulator words_;
  faultsim::TechniqueScratch scratch_;
  std::vector<faultsim::FaultSample> lane_samples_;
  std::vector<std::vector<netlist::NodeId>> lane_flips_;
  std::vector<netlist::NodeId> flips_;
};

/// The whole campaign through the replay, under the "campaign" root span.
mc::SsfResult replay_campaign(const Workload& w,
                              const core::FaultAttackEvaluator& fw,
                              const core::SamplerSelection& sel,
                              std::uint64_t seed,
                              const std::string& journal_dir, Tracer& tracer,
                              ReplayCounts* counts) {
  SpanScope campaign(&tracer, "campaign");
  const mc::SsfEvaluator& ev = fw.evaluator();
  Replay replay(fw, tracer);
  std::vector<faultsim::FaultSample> samples;
  std::vector<mc::SampleRecord> records;
  std::uint64_t journal_shards = 0;
  if (w.exhaustive) {
    const std::size_t n = static_cast<std::size_t>(ev.technique().space_size());
    records.resize(n);
    std::vector<faultsim::FaultSample> chunk;
    for (std::size_t lo = 0; lo < n; lo += kChunk) {
      const std::size_t hi = std::min(lo + kChunk, n);
      {
        SpanScope span(&tracer, "mc.draw");
        ev.technique().enumerate(lo, hi, chunk);
      }
      std::vector<mc::SampleRecord> part(hi - lo);
      replay.evaluate_range(chunk, part, 0, hi - lo);
      std::move(part.begin(), part.end(), records.begin() + lo);
    }
  } else {
    Rng rng(seed);
    {
      SpanScope span(&tracer, "mc.draw");
      samples = ev.draw_batch(*sel.sampler, rng, w.samples);
    }
    records.resize(samples.size());
    mc::JournalWriter writer;
    if (w.journaled) {
      const mc::JournalOptions jopt =
          journal_options(w, sel.actual, seed, journal_dir);
      mc::JournalMeta meta;
      meta.fingerprint = jopt.fingerprint;
      meta.total_samples = samples.size();
      meta.context = jopt.context;
      SpanScope span(&tracer, "mc.journal");
      const Status opened = writer.open_fresh(journal_dir, meta);
      if (!opened.is_ok()) throw StatusError(opened);
    }
    const std::size_t step = w.journaled ? kShardSize : kChunk;
    for (std::size_t lo = 0; lo < samples.size(); lo += step) {
      const std::size_t hi = std::min(lo + step, samples.size());
      replay.evaluate_range(samples, records, lo, hi);
      if (w.journaled) {
        SpanScope span(&tracer, "mc.journal");
        const Status appended = writer.append_shard(lo, &records[lo], hi - lo);
        if (!appended.is_ok()) throw StatusError(appended);
        ++journal_shards;
      }
    }
  }
  SpanScope span(&tracer, "mc.reduce");
  mc::SsfResult res = ev.reduce_records(std::move(records));
  *counts = replay.counts();
  counts->journal_shards = journal_shards;
  return res;
}

// --- checks -------------------------------------------------------------------

/// Named correctness checks; every failure is counted and reported.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) failures_.push_back(what);
  }
  std::size_t run() const { return run_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t run_ = 0;
  std::vector<std::string> failures_;
};

bool same_record(const mc::SampleRecord& a, const mc::SampleRecord& b) {
  return mc::sample_matches(a.sample, b.sample) && a.te == b.te &&
         a.flipped_bits == b.flipped_bits && a.path == b.path &&
         a.success == b.success &&
         std::memcmp(&a.contribution, &b.contribution, sizeof(double)) == 0 &&
         a.fail_code == b.fail_code;
}

bool same_paths(const mc::SsfResult& a, const mc::SsfResult& b) {
  return a.masked == b.masked && a.analytical == b.analytical &&
         a.rtl == b.rtl && a.failed == b.failed && a.successes == b.successes;
}

void check_result(const Workload& w, const core::FaultAttackEvaluator& fw,
                  const mc::SsfResult& res, std::size_t expected_samples,
                  Checks& checks) {
  checks.expect(res.evaluated == expected_samples && !res.interrupted,
                "campaign evaluated every sample");
  checks.expect(res.failed == 0, "no sample ended as failed");
  checks.expect(fw.precharac_cache().outcome == (w.warm ? "hit" : "miss"),
                w.warm ? "artifact was warm" : "artifact was cold");
  if (w.exhaustive) {
    checks.expect(res.ssf() == kExactSsf, "exhaustive SSF is exact");
    checks.expect(res.masked == kExactMasked &&
                      res.analytical == kExactAnalytical &&
                      res.rtl == kExactRtl,
                  "exhaustive outcome paths are exact");
  } else if (w.radiation()) {
    checks.expect(
        std::fabs(res.ssf() - kExactSsf) <= 4.0 * res.stats.standard_error(),
        "sampled SSF within 4 standard errors of the exact SSF");
  } else {
    checks.expect(res.successes == 0, "glitch campaign has no success");
  }
}

/// Write-side checks of the cold, journaled workload.
void check_writes(core::FaultAttackEvaluator& fw,
                  const mc::SsfResult& res, const std::string& artifact,
                  const std::string& journal_dir, Checks& checks) {
  Result<mc::JournalShards> journal =
      mc::JournalReader::read_shards(journal_dir, "campaign.fj");
  bool journal_ok = journal.is_ok() && journal.value().spans.size() == 1 &&
                    journal.value().spans[0].first_index == 0;
  if (journal_ok) {
    const std::vector<mc::SampleRecord>& back =
        journal.value().spans[0].records;
    journal_ok = back.size() == res.records.size();
    for (std::size_t i = 0; journal_ok && i < back.size(); ++i) {
      journal_ok = same_record(back[i], res.records[i]);
    }
  }
  checks.expect(journal_ok, "journal reads back as the returned records");

  const std::uint64_t fp = precharac::precharac_fingerprint(fw.precharac_key());
  checks.expect(fw.precharac_cache().stored &&
                    precharac::load_artifact(artifact, fp).outcome ==
                        precharac::ArtifactOutcome::kHit,
                "artifact saved on the miss loads back as a hit");

  // The exact answer over the same glitch model: SSF exactly 0.
  fw.bind_exhaustive_space(kTRange, kRadius);
  const mc::SsfResult sweep = fw.evaluator().run_exhaustive();
  checks.expect(sweep.ssf() == 0.0 && sweep.failed == 0,
                "exhaustive clock-glitch SSF is exactly 0");
}

// --- output -------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + io::json_escape(s) + "\"";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Per-layer metrics of one traced run (see README.md for the table).
std::vector<std::pair<std::string, double>> layer_metrics(
    const Tracer& tracer, const ReplayCounts& c, const mc::SsfResult& replayed,
    double untraced_campaign_s, double ci_cost_s,
    std::uint64_t restore_bytes_per_call,
    std::uint64_t artifact_bytes, std::uint64_t journal_bytes) {
  const auto all = tracer.totals();
  auto self_s = [&](const char* name) {
    const auto it = all.find(name);
    return it == all.end() ? 0.0
                           : static_cast<double>(it->second.self_ns) * 1e-9;
  };
  auto calls = [&](const char* name) {
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const double campaign_s =
      static_cast<double>(tracer.root_ns("campaign")) * 1e-9;
  double covered_s = 0.0;  // layer self time inside the campaign span
  for (const auto& [name, t] : tracer.totals("campaign")) {
    covered_s += static_cast<double>(t.self_ns) * 1e-9;
  }
  const double lanes = static_cast<double>(c.lanes);
  return {
      {"core.framework_ctor_s", self_s("core.framework_ctor")},
      {"core.sampler_build_s", self_s("core.sampler_build")},
      {"core.report_write_s", self_s("core.report_write")},
      {"rtl.golden_run_s", self_s("rtl.golden_run")},
      {"precharac.characterize_s", self_s("precharac.characterize")},
      {"precharac.cones_s", self_s("precharac.cones")},
      {"precharac.signatures_s", self_s("precharac.signatures")},
      {"precharac.artifact_load_s", self_s("precharac.artifact_load")},
      {"precharac.artifact_save_s", self_s("precharac.artifact_save")},
      {"precharac.artifact_bytes", static_cast<double>(artifact_bytes)},
      {"mc.draw_s", self_s("mc.draw")},
      {"rtl.restore_s", self_s("rtl.restore")},
      {"rtl.restore_calls", static_cast<double>(c.restore_calls)},
      {"rtl.restore_bytes",
       static_cast<double>(c.restore_calls * restore_bytes_per_call)},
      {"rtl.warmup_cycles", static_cast<double>(c.warmup_cycles)},
      {"soc.settle_s", self_s("soc.settle")},
      {"soc.settle_calls", static_cast<double>(c.settle_calls)},
      {"faultsim.sweep_s", self_s("faultsim.sweep")},
      {"faultsim.sweeps", static_cast<double>(c.sweeps)},
      {"faultsim.lane_occupancy",
       c.sweeps > 0 ? lanes / (64.0 * static_cast<double>(c.sweeps)) : 0.0},
      {"faultsim.flip_yield",
       c.lanes > 0 ? static_cast<double>(c.flipping_lanes) / lanes : 0.0},
      {"mc.outcome_s", self_s("mc.outcome")},
      {"mc.outcome_calls", calls("mc.outcome")},
      {"mc.path_masked", static_cast<double>(replayed.masked)},
      {"mc.path_analytical", static_cast<double>(replayed.analytical)},
      {"mc.path_rtl", static_cast<double>(replayed.rtl)},
      {"mc.reduce_s", self_s("mc.reduce")},
      {"mc.journal_share", self_s("mc.journal") / campaign_s},
      {"mc.journal_shards", static_cast<double>(c.journal_shards)},
      {"mc.journal_bytes", static_cast<double>(journal_bytes)},
      {"mc.ci_cost_s", ci_cost_s},
      {"trace.campaign_s", campaign_s},
      {"trace.overhead_s", campaign_s - untraced_campaign_s},
      {"trace.coverage", covered_s / campaign_s},
  };
}

// --- commands -----------------------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  std::string work;
  std::string artifact;
  std::string trace;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    throw StatusError(ErrorCode::kInvalidArgument, "missing command");
  }
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw StatusError(ErrorCode::kInvalidArgument, flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--work") {
      a.work = value;
    } else if (flag == "--artifact") {
      a.artifact = value;
    } else if (flag == "--trace") {
      a.trace = value;
    } else {
      throw StatusError(ErrorCode::kInvalidArgument, "unknown flag " + flag);
    }
  }
  return a;
}

int cmd_seed(const Args& a) {
  if (a.artifact.empty()) {
    throw StatusError(ErrorCode::kInvalidArgument, "seed needs --artifact");
  }
  // The artifact's key leaves out the technique, so one serves both warm
  // workloads.
  core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(),
                                framework_config(kWorkloads[0], a.artifact,
                                                 nullptr));
  if (!fw.precharac_cache().stored) {
    throw StatusError(ErrorCode::kIoError,
                      "artifact not written to " + a.artifact);
  }
  return 0;
}

int cmd_run(const Args& a, std::uint64_t process_start_ns) {
  const Workload& w = find_workload(a.workload);
  if (a.work.empty()) {
    throw StatusError(ErrorCode::kInvalidArgument, "run needs --work");
  }
  if (w.warm && a.artifact.empty()) {
    throw StatusError(ErrorCode::kInvalidArgument,
                      std::string(w.name) + " needs a seeded --artifact");
  }
  const bool traced = !a.trace.empty();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  std::atomic<bool> stop{false};  // armed, never set: fixes the chunking
  std::string artifact = w.warm ? a.artifact : a.work + "/artifact.fpca";

  // A traced run of a warm workload first seeds its own artifact, so the
  // trace shows the pre-characterization the timed runs keep off the clock.
  if (traced && w.warm) {
    artifact = a.work + "/seeded.fpca";
    SpanScope seed(tr, "seed");
    construct_framework(framework_config(w, artifact, nullptr), tr,
                        "seed.framework_ctor");
  }

  // Setup: construction, then the sampler build or the space bind.
  std::unique_ptr<core::FaultAttackEvaluator> fw;
  core::SamplerSelection sel;
  {
    SpanScope setup(tr, "setup");
    fw = construct_framework(framework_config(w, artifact, &stop), tr,
                             "core.framework_ctor");
    SpanScope build(tr, "core.sampler_build");
    if (w.exhaustive) {
      fw->bind_exhaustive_space(kTRange, kRadius);
      sel.actual = "exhaustive";
    } else if (w.radiation()) {
      sel = fw->make_sampler_with_fallback(
          fw->subblock_attack_model(kRadius, kTRange), w.strategy);
    } else {
      sel = fw->make_sampler_with_fallback(fw->glitch_attack_model(kTRange),
                                           w.strategy);
    }
  }
  const std::uint64_t ready_ns = monotonic_ns();

  const std::string journal_dir = a.work + "/journal";
  mc::SsfResult res;
  {
    SpanScope campaign(tr, "campaign.untraced");
    res = run_campaign(w, *fw, sel, a.seed, journal_dir);
  }
  const std::uint64_t campaign_end_ns = monotonic_ns();
  const double campaign_s = seconds_between(ready_ns, campaign_end_ns);
  {
    SpanScope report(tr, "report");
    SpanScope write(tr, "core.report_write");
    write_report(w, *fw, sel.actual, a.seed, res, campaign_s,
                 a.work + "/run_report.json");
  }
  const std::uint64_t end_ns = monotonic_ns();
  const double rss_mb = peak_rss_mb();  // before the checks allocate

  const std::size_t expected =
      w.exhaustive
          ? static_cast<std::size_t>(fw->evaluator().technique().space_size())
          : w.samples;
  Checks checks;
  check_result(w, *fw, res, expected, checks);
  if (w.journaled) check_writes(*fw, res, artifact, journal_dir, checks);

  const double ci95 = 1.96 * res.stats.standard_error();
  // Cost of a 1e-4 half-width: only the sampled radiation estimate has a
  // variance to shrink; the exact sweep and the zero-success glitch campaign
  // already sit at a zero-width interval, so their cost is the campaign.
  const double ci_cost_s =
      (!w.exhaustive && w.radiation())
          ? campaign_s * (ci95 / kTargetHalfWidth) * (ci95 / kTargetHalfWidth)
          : campaign_s;

  std::string layers;
  if (traced) {
    ReplayCounts counts;
    const std::string replay_journal = a.work + "/replay_journal";
    const mc::SsfResult replayed = replay_campaign(
        w, *fw, sel, a.seed, replay_journal, tracer, &counts);
    checks.expect(same_paths(replayed, res) && replayed.ssf() == res.ssf(),
                  "traced replay reproduces the untraced result");
    const auto metrics = layer_metrics(
        tracer, counts, replayed, campaign_s, ci_cost_s,
        fw->golden().restore_byte_size(), file_bytes(artifact),
        w.journaled ? file_bytes(replay_journal + "/campaign.fj") : 0);
    layers = ", \"per_layer\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) layers += ", ";
      layers += quoted(metrics[i].first) + ": " + num(metrics[i].second);
    }
    layers += "}";
    tracer.write_jsonl(a.trace, std::string(w.name) + "-" +
                                    std::to_string(a.seed));
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    if (i > 0) failures += ", ";
    failures += quoted(checks.failures()[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"samples\": %zu, \"failed_samples\": %zu, \"setup_s\": %s, "
      "\"campaign_s\": %s, \"total_s\": %s, \"samples_per_s\": %s, "
      "\"ci_cost_s\": %s, \"peak_rss_mb\": %s, \"ssf\": %s, "
      "\"ci95_half_width\": %s, \"successes\": %zu, \"masked\": %zu, "
      "\"analytical\": %zu, \"rtl\": %zu, \"checks\": %zu, "
      "\"check_failures\": %s%s}\n",
      quoted(w.name).c_str(), a.seed, res.evaluated, res.failed,
      num(seconds_between(process_start_ns, ready_ns)).c_str(),
      num(campaign_s).c_str(),
      num(seconds_between(process_start_ns, end_ns)).c_str(),
      num(static_cast<double>(res.evaluated) / campaign_s).c_str(),
      num(ci_cost_s).c_str(), num(rss_mb).c_str(),
      num(res.ssf()).c_str(), num(ci95).c_str(), res.successes, res.masked,
      res.analytical, res.rtl, checks.run(), failures.c_str(), layers.c_str());
  return checks.failures().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start_ns = fav::monotonic_ns();
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "seed") return cmd_seed(a);
    if (a.command == "run") return cmd_run(a, process_start_ns);
    throw fav::StatusError(fav::ErrorCode::kInvalidArgument,
                           "unknown command '" + a.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "favbench: %s\n", e.what());
    return 2;
  }
}
