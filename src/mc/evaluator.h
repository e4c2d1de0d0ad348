// Cross-level Monte Carlo SSF evaluation engine (paper Fig. 5).
//
// For each fault sample (t, p):
//   1. Te = Tt - t; the injection cycle's gate-level values come from the
//      golden settled row of Te (soc/golden_settled.h): the cycle is
//      fault-free until the fault strikes,
//   2. ask the AttackTechnique for the latched bit errors its parameters p
//      cause (radiation: transient simulation; clock/voltage glitch:
//      setup-miss analysis),
//   3. if no bits flipped            -> masked, e = 0,
//      if only memory-type bits flip -> analytical evaluation,
//      otherwise                     -> restore the RTL machine to Te, step
//                                       the injection cycle, overlay the
//                                       errors, resume to completion and
//                                       apply the benchmark's success oracle,
//   4. accumulate e * (f/g) into the importance-weighted SSF estimate.
//
// There is one evaluation path: every sample is a lane of a 64-lane word
// (DESIGN.md §6i). Samples are packed in sample order, whatever their
// injection cycle, and each word runs one bit-parallel flip-set sweep; a
// single evaluate_sample() call is a one-lane word. The scalar per-sample
// flow survives only as the test oracle (tests/mc/scalar_oracle.h).
//
// The engine is technique-generic: only step 2's flip-set computation is
// delegated (see faultsim/technique.h), so every technique inherits the
// worker pool, scratch reuse, isolation/budgets, journaled resume and
// observability below.
//
// Robustness: a campaign of 1e4–1e6 samples must survive individual
// pathological samples. Each evaluation inside a campaign (every run*) is
// isolated — it executes under a configurable RTL cycle budget and wall-clock
// deadline, exceptions and overruns are captured, retried once on fresh
// scratch, and otherwise recorded as OutcomePath::kFailed with the reason.
// The estimate stays well-defined over completed samples; the failed-weight
// fraction is reported in SsfResult.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "faultsim/injection.h"
#include "faultsim/technique.h"
#include "layout/placement.h"
#include "mc/analytical.h"
#include "mc/samplers.h"
#include "precharac/characterize.h"
#include "rtl/golden.h"
#include "soc/gate_machine.h"
#include "soc/golden_settled.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/status.h"

namespace fav::mc {

enum class OutcomePath {
  kMasked,      // no latched error
  kAnalytical,  // memory-type-only error, decided without simulation
  kRtl,         // required RTL-level resumption
  kFailed,      // evaluation failed (budget overrun or captured exception)
};

/// Stable lowercase name ("masked" / "analytical" / "rtl" / "failed") used
/// for metric and trace-event names.
const char* outcome_path_name(OutcomePath path);

struct SampleRecord {
  faultsim::FaultSample sample;
  std::uint64_t te = 0;
  std::vector<int> flipped_bits;  // flat register-map bits
  OutcomePath path = OutcomePath::kMasked;
  bool success = false;
  double contribution = 0.0;  // e * importance weight
  /// Isolation metadata: why the evaluation failed (kOk for completed
  /// samples) and whether it was re-attempted on fresh scratch.
  ErrorCode fail_code = ErrorCode::kOk;
  std::string fail_reason;
  bool retried = false;
};

struct SsfResult {
  RunningStats stats;  // over per-sample contributions of *completed* samples
  std::size_t masked = 0;
  std::size_t analytical = 0;
  std::size_t rtl = 0;
  std::size_t successes = 0;
  /// Isolation counters: samples whose evaluation failed (excluded from
  /// stats) and samples that needed a retry (whether it then succeeded).
  std::size_t failed = 0;
  std::size_t retried = 0;
  /// Importance weight drawn by failed samples vs. the whole batch: bounds
  /// the estimate mass the failures could have carried.
  double failed_weight = 0.0;
  double total_weight = 0.0;
  /// Failure reasons, keyed by error code.
  std::map<ErrorCode, std::size_t> failure_counts;
  /// Σw and Σw² over *completed* samples, accumulated in sample-index order
  /// by the reduction (so they are bitwise-identical at every thread count).
  /// They define the importance-sampling effective sample size below.
  double completed_weight = 0.0;
  double completed_weight_sq = 0.0;
  /// Running estimate recorded every kTraceStride samples (Fig. 9a).
  std::vector<double> trace;
  std::vector<SampleRecord> records;
  /// Samples this result actually covers. Equals the requested batch size
  /// unless a cooperative stop (EvaluatorConfig::stop) cut the run short, in
  /// which case every field above covers only the prefix [0, evaluated).
  std::size_t evaluated = 0;
  /// True when EvaluatorConfig::stop ended the run before all samples were
  /// evaluated (graceful SIGINT/SIGTERM). A journaled interrupted run can be
  /// continued later with JournalOptions::resume.
  bool interrupted = false;
  /// Exhaustive sweeps (run_exhaustive): the total size of the enumerable
  /// fault space this result was swept against. 0 for sampled campaigns,
  /// where no finite space is bound and coverage() is meaningless.
  std::uint64_t fault_space_size = 0;
  /// SSF attribution: each success's contribution is split equally among
  /// the flipped bits (= DFF cells) and, in parallel, among the flipped
  /// register fields. Bit granularity drives hardening (each bit is a
  /// standard cell that can be swapped for a resilient one); field
  /// granularity is for human-readable reports.
  std::map<int, double> bit_contribution;
  std::map<int, double> field_contribution;

  double ssf() const { return stats.mean(); }
  double sample_variance() const { return stats.variance(); }
  /// ESS = (Σw)²/Σw² (Kong 1992): how many unweighted samples the
  /// importance-weighted run is worth. Equals the completed-sample count for
  /// an unweighted (w == 1) campaign; a low ESS flags a proposal mismatch.
  double effective_sample_size() const {
    return completed_weight_sq > 0.0
               ? completed_weight * completed_weight / completed_weight_sq
               : 0.0;
  }
  double failed_weight_fraction() const {
    return total_weight > 0.0 ? failed_weight / total_weight : 0.0;
  }
  /// Fraction of the bound fault space this result covers: 1.0 for a
  /// completed exhaustive sweep, less under --space-limit or interruption,
  /// 0.0 for sampled campaigns (fault_space_size == 0).
  double coverage() const {
    return fault_space_size > 0
               ? static_cast<double>(evaluated) /
                     static_cast<double>(fault_space_size)
               : 0.0;
  }
};

/// SsfResult::trace records the running estimate every this many samples.
inline constexpr std::size_t kTraceStride = 50;

struct EvaluatorConfig {
  /// Enables the analytical shortcut for memory-type-only errors.
  bool use_analytical = true;
  /// Keep full per-sample records (needed for hardening re-evaluation).
  bool keep_records = true;
  /// Cap on SsfResult::records (0 = unlimited). With keep_records on, a
  /// 1e6-sample campaign otherwise accumulates every record in memory; the
  /// reduction keeps the first `record_capacity` records (sample-index
  /// order, so the kept prefix is thread-count independent) and counts the
  /// rest in the "eval.records_dropped" metric. Estimates, counters and
  /// contribution maps always cover every sample regardless of the cap.
  std::size_t record_capacity = 0;
  /// Worker threads for every run*: 1 = sequential, 0 = hardware
  /// concurrency.
  /// Results are bitwise-identical for every value — samples are pre-drawn
  /// on the calling thread and reduced in sample-index order.
  std::size_t threads = 1;
  /// Per-sample RTL cycle budget (warm-up + injection + resume cycles);
  /// 0 = unlimited. Deterministic: a sample that overruns does so at the
  /// same cycle on every run and thread count.
  std::uint64_t cycle_budget = 0;
  /// Per-sample wall-clock deadline in milliseconds; 0 = unlimited.
  /// A fired deadline depends on machine load, so enabling it trades the
  /// bitwise-determinism contract for hang protection — prefer cycle_budget
  /// when journaled resume must be bit-exact.
  std::uint64_t sample_deadline_ms = 0;
  /// Word width: samples are packed, in sample order and whatever their
  /// injection cycle te, up to `batch_lanes` at a time into one
  /// bit-parallel sweep (lane = sample = one bit of a 64-bit word); each
  /// lane's gate-level values come from its te's golden settled row
  /// (soc/golden_settled.h). Values are clamped to [1, 64]. The width never
  /// changes results: every record is bitwise identical at every width and
  /// thread count — it only decides where words break.
  std::size_t batch_lanes = 64;

  /// --- observability (util/metrics.h; all optional, null = disabled) ----
  /// Aggregated campaign metrics. Every run* creates per-worker sinks and
  /// merges them into *metrics in worker-index order when the run
  /// completes; sample-derived statistics (outcome-path counters, ESS) are
  /// recorded during the sample-index-ordered reduction. Every run* records
  /// the phases run.{total,scratch_setup,reduce}_ns, and the drawn ones
  /// (run, run_journaled) run.draw_batch_ns, nested inside run.total_ns;
  /// evaluate_batch records run.scratch_setup_ns only.
  /// Enabling metrics never changes SSF results — counters are
  /// schedule-independent, timers are wall-clock and only feed reports.
  /// Successive runs through the same config accumulate into the same sink.
  MetricsSink* metrics = nullptr;
  /// Chrome-trace events: one complete event per evaluated sample (lane =
  /// worker index, args.sample = sample index), merged per worker and
  /// written in sample-index order by TraceBuffer::write_json.
  TraceBuffer* trace = nullptr;

  /// --- cooperative control (all optional) -------------------------------
  /// Graceful-stop flag, polled by every run* between chunks: a journal
  /// shard, or 16 words per worker when unjournaled. When it flips true the
  /// run finishes its in-flight chunk, reduces the evaluated prefix, and
  /// returns with SsfResult::interrupted set — already-journaled work stays
  /// valid for a later resume. A CampaignSupervisor polls its evaluator's
  /// flag the same way between shard assignments. Null disables polling
  /// entirely.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked once per evaluated sample with its index in the campaign (the
  /// drawn batch, the enumeration index of run_exhaustive*, or
  /// evaluate_batch's first_index plus the offset), from the worker thread
  /// that finished it, right after its record slot is written (completion
  /// order, not sample order). It is the one progress channel: supervised
  /// workers send it as heartbeat frames, and a CampaignSupervisor calls its
  /// evaluator's hook once per frame, from its event-loop thread, with a
  /// record holding only the sample, path and contribution. A shard
  /// re-evaluated after a worker crash repeats its samples there. Must be
  /// thread-safe and must not throw; null disables.
  std::function<void(const SampleRecord&, std::size_t)> on_sample;
};

/// Per-evaluation resource budget. charge_cycles() throws StatusError with
/// kCycleBudgetExceeded / kDeadlineExceeded when exhausted; the isolation
/// layer converts that into a kFailed sample record.
class EvalBudget {
 public:
  EvalBudget(std::uint64_t cycle_budget, std::uint64_t deadline_ms);

  void charge_cycles(std::uint64_t cycles);

 private:
  std::uint64_t cycles_left_;
  bool limit_cycles_;
  bool limit_time_;
  std::uint64_t ticks_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
};

class SsfEvaluator;

/// Reusable per-worker evaluation state, constructed once and re-loaded for
/// every word: the 64-lane simulator the lanes' golden rows are gathered
/// into (a word whose lanes take the same rows as the last gather reuses
/// it), the RTL machine that builds golden rows and holds the
/// post-injection state of one te (each diverging lane resumes on it, then
/// the next lane resets the state and rolls the RAM's write log back), the
/// gate-level machine a multi-cycle lane settles its later cycles on, and
/// the technique/lane buffers.
/// Constructing the machines allocates the full logic-simulator state and a
/// 64K-word RAM, so the engine keeps one scratch per worker thread. Not
/// thread-safe: one scratch per thread.
class EvalScratch {
 public:
  explicit EvalScratch(const SsfEvaluator& evaluator);

 private:
  friend class SsfEvaluator;
  rtl::Machine machine_;
  soc::GateLevelMachine gate_;
  faultsim::TechniqueScratch technique_;
  netlist::WordSimulator words_;
  std::vector<std::size_t> lane_index_;  // sample index of each swept lane
  std::vector<const BitVector*> lane_images_;
  /// The golden rows words_ holds, lane by lane, when it holds exactly the
  /// gather of those rows; empty otherwise. Whatever else writes words_
  /// must clear it.
  std::vector<const BitVector*> gathered_;
  std::vector<faultsim::FaultSample> lane_samples_;
  std::vector<std::vector<netlist::NodeId>> lane_flips_;
  std::vector<std::vector<netlist::NodeId>> cycle_flips_;
};

/// Options for crash-safe journaled campaigns (see mc/journal.h for the
/// on-disk format). The journal directory accumulates completed sample-index
/// shards with checksums; a resumed run folds them and evaluates only the
/// missing indices, bitwise-identical to an uninterrupted run.
struct JournalOptions {
  std::string dir;
  /// Fold every shard file in `dir` (written in-process or by supervised
  /// workers) and evaluate the rest; an empty journal starts fresh. False
  /// starts a fresh journal (removing every shard file in `dir`).
  bool resume = false;
  /// Samples per journal shard: the flush/commit granularity. A crash loses
  /// at most one shard of work.
  std::size_t shard_size = 256;
  /// Campaign identity (hash of benchmark/sampler/seed/config); a resume
  /// against a journal with a different fingerprint is rejected.
  std::uint64_t fingerprint = 0;
  /// Human-readable campaign description stored in the journal header.
  std::string context;
};

class SsfEvaluator {
 public:
  /// Technique-generic engine: evaluates samples of `technique`'s family.
  /// `characterization` may be null: the analytical path is then disabled
  /// (every unmasked sample resumes at RTL level). All references must
  /// outlive the evaluator.
  SsfEvaluator(const soc::SocNetlist& soc,
               const faultsim::AttackTechnique& technique,
               const soc::SecurityBenchmark& bench,
               const rtl::GoldenRun& golden,
               const precharac::RegisterCharacterization* characterization,
               const EvaluatorConfig& config = {});

  /// Radiation convenience: builds and owns a RadiationTechnique over
  /// `placement` + `injector` (the common case and the historical
  /// constructor signature).
  SsfEvaluator(const soc::SocNetlist& soc, const layout::Placement& placement,
               const faultsim::InjectionSimulator& injector,
               const soc::SecurityBenchmark& bench,
               const rtl::GoldenRun& golden,
               const precharac::RegisterCharacterization* characterization,
               const EvaluatorConfig& config = {});

  std::uint64_t target_cycle() const { return target_cycle_; }
  const rtl::GoldenRun& golden() const { return *golden_; }
  const soc::SecurityBenchmark& benchmark() const { return *bench_; }
  const soc::SocNetlist& soc() const { return *soc_; }
  const faultsim::AttackTechnique& technique() const { return *technique_; }
  const precharac::RegisterCharacterization* characterization() const {
    return charac_;
  }
  const EvaluatorConfig& config() const { return config_; }

  /// Full evaluation of one fault sample (convenience: builds a fresh
  /// scratch; use the scratch overload inside sampling loops). Throws on
  /// invalid samples and budget overruns — campaign loops use the isolated
  /// variant below instead.
  SampleRecord evaluate_sample(const faultsim::FaultSample& sample) const;
  /// Same, reusing `scratch`'s machines and buffers: the sample runs as a
  /// one-lane word of the campaign path. Thread-safe as long as each thread
  /// uses its own scratch: the evaluator itself is only read. A non-null
  /// `sink` receives the word's phase timers and simulation-cost counters
  /// (DESIGN.md §6i); the sink must be private to the calling thread.
  SampleRecord evaluate_sample(const faultsim::FaultSample& sample,
                               EvalScratch& scratch,
                               MetricsSink* sink = nullptr) const;

  /// Fault-isolated evaluation, the campaign's isolation routine: never
  /// throws on a per-sample failure. Runs the sample as a one-lane word;
  /// a failure other than a (deterministic) cycle-budget overrun is retried
  /// once on a fresh scratch (replacing `scratch`), and a sample that still
  /// fails returns a record with path == OutcomePath::kFailed carrying the
  /// error code and reason.
  SampleRecord evaluate_sample_isolated(
      const faultsim::FaultSample& sample,
      std::unique_ptr<EvalScratch>& scratch,
      MetricsSink* sink = nullptr) const;

  /// Decides the outcome of a given flipped-bit set injected at the end of
  /// cycle `te` (used by hardening re-evaluation, which filters flip sets,
  /// and by the layer-by-layer benchmark replay).
  bool outcome_for_flips(std::uint64_t te, const std::vector<int>& flips,
                         OutcomePath* path = nullptr) const;

  /// The four campaign drivers are thin wrappers over one loop: they differ
  /// only in where samples come from (drawn or enumerated) and in
  /// whether completed shards are journaled. Every one evaluates in chunks
  /// (a journal shard, or 16 words per worker) on the worker pool, polls
  /// config.stop between chunks, and folds records in sample-index order —
  /// so ssf(), variance, trace, records and the contribution maps are
  /// bitwise-identical at every thread count and lane width, and a chunk
  /// boundary only ends a word early. Per-sample failures are isolated (see
  /// evaluate_sample_isolated) and surface as SsfResult counters, not
  /// exceptions.

  /// Draws `n` samples from `sampler` and accumulates the SSF estimate. The
  /// whole batch is drawn on the calling thread before evaluation starts
  /// (the stateful Rng stream is untouched by the workers). A sampler that
  /// throws aborts the run with StatusError(kSamplerFailed).
  SsfResult run(Sampler& sampler, Rng& rng, std::size_t n) const;

  /// Evaluates `samples` as campaign samples first_index, first_index + 1,
  /// ... (the indices on_sample and the trace see) on the worker pool and
  /// returns their records in index order: the seam a supervised worker
  /// evaluates its assigned shard through. It does not fold, journal or poll
  /// config.stop; records the scratch build as run.scratch_setup_ns and
  /// merges the per-worker observers. reduce_records() of the records is
  /// bitwise-identical to the campaign drivers' result for those samples.
  std::vector<SampleRecord> evaluate_batch(
      std::span<const faultsim::FaultSample> samples,
      std::size_t first_index = 0) const;

  /// Exhaustively sweeps the technique's bound fault space (see
  /// AttackTechnique::bind_space / enumerate): every enumeration index in
  /// [0, min(space_size, space_limit)) is evaluated exactly once, enumerated
  /// chunk by chunk — the full space is never materialized, so memory stays
  /// O(chunk) regardless of grid size. The result carries fault_space_size
  /// so coverage() reports the swept fraction, and is bitwise-identical to
  /// reducing evaluate_batch over the materialized enumeration (apart from
  /// fault_space_size). space_limit == 0 sweeps
  /// everything. Throws StatusError(kInvalidArgument) when no space is
  /// bound.
  SsfResult run_exhaustive(std::uint64_t space_limit = 0) const;

  /// Crash-safe variant of run_exhaustive(): each completed shard of
  /// enumeration indices is appended to the journal. Resume re-enumerates
  /// the space (the index -> sample mapping is the determinism contract),
  /// cross-checks every journaled sample and evaluates only the missing
  /// indices — the final result is bitwise-identical to an uninterrupted
  /// sweep.
  Result<SsfResult> run_exhaustive_journaled(const JournalOptions& options,
                                             std::uint64_t space_limit =
                                                 0) const;

  /// Crash-safe variant of run(): each completed shard is appended to the
  /// journal in `options.dir`. With options.resume, the journaled samples
  /// are folded and only the missing indices are evaluated — the result is
  /// bitwise-identical to an uninterrupted run (samples are re-drawn from
  /// the same sampler/rng state and cross-checked against the journal). A
  /// full disk (kStorageFull) stops the run gracefully with the journaled
  /// prefix; other journal integrity/IO failures and sampler failures are
  /// reported as a non-ok Result.
  Result<SsfResult> run_journaled(Sampler& sampler, Rng& rng, std::size_t n,
                                  const JournalOptions& options) const;

  /// Draws the whole batch sequentially (determinism contract: the stateful
  /// Rng stream is consumed on the calling thread only); wraps sampler
  /// exceptions into StatusError(kSamplerFailed). Public seam for the
  /// supervisor, whose processes each re-derive the identical sample stream
  /// from the same seed.
  std::vector<faultsim::FaultSample> draw_batch(Sampler& sampler, Rng& rng,
                                                std::size_t n) const;

  /// Folds externally-evaluated records (e.g. merged supervised-worker
  /// journal shards) through the same sample-index-ordered reduction as
  /// every run*, so the resulting SsfResult is bitwise-identical to the
  /// single-process engine evaluating the same samples.
  SsfResult reduce_records(std::vector<SampleRecord> records) const;

 private:
  /// Per-worker observability buffers for one run. The vectors are empty
  /// when the corresponding config pointer is null; otherwise they hold one
  /// slot per scratch/worker, merged in worker-index order by
  /// merge_observers() so the aggregate is schedule-independent.
  struct WorkerObservers {
    std::vector<MetricsSink> sinks;
    std::vector<TraceBuffer> traces;
  };

  /// One lane of a word: its golden row from packing, and the error that
  /// keeps it from a record — a failed check_sample or row build, or what
  /// the lane threw in its word. Both empty: the sample strikes before the
  /// program starts (t > Tt).
  struct LanePlan {
    const soc::GoldenSettledTable::Row* row = nullptr;
    std::exception_ptr error;
  };

  /// Where a campaign's samples come from: drawn from `sampler` on the
  /// calling thread before evaluation starts (run, run_journaled), or the
  /// technique's bound space, enumerated chunk by chunk (run_exhaustive*).
  struct SampleSource {
    Sampler* sampler = nullptr;
    Rng* rng = nullptr;
    bool enumerated = false;
  };
  /// The one campaign loop behind every run*: starts `journal` after the
  /// draw (start_journal); then per chunk polls config_.stop,
  /// takes the journaled samples (cross-checked), evaluates and journals
  /// each missing run (kStorageFull is a graceful, resumable stop) and folds
  /// in sample-index order. A chunk is one
  /// journal shard, or 16 words per worker when unjournaled. `n` is the
  /// sample count; an enumerated source sweeps the first `n` indices of the
  /// bound space (0 = all of it).
  Result<SsfResult> run_campaign(std::uint64_t n, SampleSource source,
                                 const JournalOptions* journal) const;
  /// Evaluates samples[i] into records[i] on the worker pool, reusing
  /// `scratch` (one slot per worker; isolated evaluation). Sample i is
  /// campaign sample base + i: the index the trace and on_sample see.
  /// Golden settled rows the range needs and the table lacks are built
  /// first, on the calling thread, before any worker starts. `observers`
  /// may be null (no instrumentation) or sized to the pool.
  void evaluate_range(std::span<const faultsim::FaultSample> samples,
                      std::span<SampleRecord> records, std::size_t base,
                      std::vector<std::unique_ptr<EvalScratch>>& scratch,
                      WorkerObservers* observers) const;
  /// Evaluates the word samples[begin, end) (plans[i - begin] = sample i's
  /// plan, any mix of injection cycles): gather each swept lane from its
  /// te's row, one bit-parallel flip-set sweep, one restore + step per
  /// distinct te among the lanes that can diverge, then per-lane
  /// finalization with the oracle's budget accounting. A multi-cycle lane
  /// strikes its later cycles on its own corrupted machine as one-lane
  /// words. Each finished record is handed to `publish(i, t0)` with its
  /// finalization start; a lane that throws keeps the exception in its
  /// plan, and it and any lane packing refused leave their records
  /// untouched.
  void evaluate_word(
      std::span<const faultsim::FaultSample> samples,
      std::span<SampleRecord> records, std::size_t begin, std::size_t end,
      std::span<LanePlan> plans, EvalScratch& scratch, MetricsSink* sink,
      bool timing,
      const std::function<void(std::size_t, std::uint64_t)>& publish) const;
  /// Packing of one sample: check_sample, then its te's golden settled row,
  /// built on `scratch` if the table lacks it (the build's cost lands in
  /// `sink`). Throws what the check or the build throws.
  LanePlan plan_lane(const faultsim::FaultSample& sample, EvalScratch& scratch,
                     MetricsSink* sink) const;
  WorkerObservers make_observers(std::size_t workers) const;
  /// Folds the per-worker sinks/traces into config_.metrics/config_.trace
  /// in worker-index order.
  void merge_observers(WorkerObservers&& observers) const;
  /// Builds one scratch per resolved worker (capped by `n` work items),
  /// timed as run.scratch_setup_ns.
  std::vector<std::unique_ptr<EvalScratch>> make_scratch_pool(
      std::size_t n) const;
  /// Incremental reduction state: fold_record() accumulates one record at a
  /// time in sample-index order, finish_reduce() seals the result and emits
  /// the reduce-derived metrics. Folding records chunk by chunk performs the
  /// exact accumulation one pass over the concatenation would, so a
  /// campaign never holds more than a chunk of unfolded records.
  struct ReduceState {
    SsfResult result;
    std::uint64_t records_dropped = 0;
    std::size_t index = 0;  // records folded so far
  };
  void fold_record(ReduceState& state, SampleRecord&& rec) const;
  SsfResult finish_reduce(ReduceState&& state) const;
  /// Shared outcome decision on a machine already positioned just past the
  /// (last) injection cycle with the errors overlaid.
  bool decide_outcome(rtl::Machine& machine, const std::vector<int>& flips,
                      std::uint64_t first_faulty_cycle, OutcomePath* path,
                      EvalBudget& budget, MetricsSink* sink = nullptr) const;

  const soc::SocNetlist* soc_;
  /// Owns the technique only for the radiation convenience constructor;
  /// technique_ always points at the active one.
  std::unique_ptr<faultsim::AttackTechnique> owned_technique_;
  const faultsim::AttackTechnique* technique_;
  const soc::SecurityBenchmark* bench_;
  const rtl::GoldenRun* golden_;
  const precharac::RegisterCharacterization* charac_;
  EvaluatorConfig config_;
  AnalyticalEvaluator analytical_;
  /// Golden settled rows, built on first use by any evaluation call and
  /// kept for the evaluator's lifetime (≤ one ~850-byte row per golden
  /// cycle). Internally locked, so concurrent runs share it safely.
  std::unique_ptr<soc::GoldenSettledTable> settled_;
  std::uint64_t target_cycle_ = 0;
};

}  // namespace fav::mc
