// Cross-level Monte Carlo SSF evaluation engine (paper Fig. 5).
//
// For each fault sample (t, p):
//   1. Te = Tt - t; restore the RTL machine from the nearest golden
//      checkpoint and warm up to Te,
//   2. hand the state to the gate level, settle the injection cycle, and ask
//      the AttackTechnique for the latched bit errors its parameters p cause
//      (radiation: transient simulation; clock glitch: setup-miss analysis),
//   3. if no bits flipped            -> masked, e = 0,
//      if only memory-type bits flip -> analytical evaluation,
//      otherwise                     -> inject the errors back into the RTL
//                                       model, resume to completion, apply
//                                       the benchmark's success oracle,
//   4. accumulate e * (f/g) into the importance-weighted SSF estimate.
//
// The engine is technique-generic: only step 2's flip-set computation is
// delegated (see faultsim/technique.h), so every technique inherits the
// worker pool, scratch reuse, isolation/budgets, journaled resume and
// observability below.
//
// Robustness: a campaign of 1e4–1e6 samples must survive individual
// pathological samples. Each evaluation inside run()/run_journaled() is
// isolated — it executes under a configurable RTL cycle budget and wall-clock
// deadline, exceptions and overruns are captured, retried once on fresh
// scratch, and otherwise recorded as OutcomePath::kFailed with the reason.
// The estimate stays well-defined over completed samples; the failed-weight
// fraction is reported in SsfResult.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
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
  /// Running estimate recorded every `trace_stride` samples (Fig. 9a).
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

struct EvaluatorConfig {
  /// Enables the analytical shortcut for memory-type-only errors.
  bool use_analytical = true;
  /// Record the running estimate every this many samples.
  std::size_t trace_stride = 50;
  /// Keep full per-sample records (needed for hardening re-evaluation).
  bool keep_records = true;
  /// Cap on SsfResult::records (0 = unlimited). With keep_records on, a
  /// 1e6-sample campaign otherwise accumulates every record in memory; the
  /// reduction keeps the first `record_capacity` records (sample-index
  /// order, so the kept prefix is thread-count independent) and counts the
  /// rest in the "eval.records_dropped" metric. Estimates, counters and
  /// contribution maps always cover every sample regardless of the cap.
  std::size_t record_capacity = 0;
  /// Worker threads for run(): 1 = sequential, 0 = hardware concurrency.
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
  /// Retry a failed evaluation once on fresh scratch before recording
  /// kFailed (cycle-budget overruns are deterministic and never retried).
  bool retry_failed = true;
  /// Word-parallel batching width: samples with impact_cycles == 1 are
  /// packed, in sample order and whatever their injection cycle te, up to
  /// `batch_lanes` at a time into one bit-parallel topological sweep (lane =
  /// sample = one bit of a 64-bit word); each lane's gate-level values come
  /// from its te's golden settled row (soc/golden_settled.h). 0 or 1
  /// disables batching; values above 64 are clamped. Batching never changes
  /// results: every record is bitwise identical to the scalar path at every
  /// lane count and thread count — packing only changes how the work is
  /// scheduled.
  std::size_t batch_lanes = 64;

  /// --- observability (util/metrics.h; all optional, null = disabled) ----
  /// Aggregated campaign metrics. Per-worker sinks are created inside
  /// run()/run_journaled() and merged into *metrics in worker-index order
  /// when the run completes; sample-derived statistics (outcome-path
  /// counters, ESS) are recorded during the sample-index-ordered reduction.
  /// Enabling metrics never changes SSF results — counters are
  /// schedule-independent, timers are wall-clock and only feed reports.
  /// Successive runs through the same config accumulate into the same sink.
  MetricsSink* metrics = nullptr;
  /// Chrome-trace events: one complete event per evaluated sample (lane =
  /// worker index, args.sample = sample index), merged per worker and
  /// written in sample-index order by TraceBuffer::write_json.
  TraceBuffer* trace = nullptr;
  /// Throttled live progress; record() is invoked once per completed sample
  /// in completion order (see ProgressMeter for the determinism caveat on
  /// the *displayed* running mean).
  ProgressMeter* progress = nullptr;

  /// --- cooperative control (all optional) -------------------------------
  /// Graceful-stop flag, polled between evaluation chunks in run()/
  /// run_batch() and between shards in run_journaled(). When it flips true
  /// the run finishes its in-flight chunk, reduces the evaluated prefix, and
  /// returns with SsfResult::interrupted set — already-journaled work stays
  /// valid for a later resume. Null disables polling entirely.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked once per evaluated sample, from the worker thread that finished
  /// it, right after its record slot is written (completion order, not
  /// sample order). Supervised workers use it for heartbeat frames. Must be
  /// thread-safe and must not throw; null disables.
  std::function<void(const SampleRecord&, std::size_t)> on_sample;
  /// Emit the reduce-derived eval.* counters/gauges into `metrics`. A
  /// supervised worker sets this false: its shards are re-reduced by the
  /// supervisor, which would double-count every sample-derived aggregate
  /// after merging the worker's shipped sink.
  bool reduce_metrics = true;
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

/// Reusable per-worker evaluation state: one RTL machine, one gate-level
/// machine, and the technique/flip-set query buffers, constructed once and
/// re-loaded for every sample. Constructing a GateLevelMachine allocates the
/// full logic-simulator state (~every net of the SoC) and a 64K-word RAM;
/// doing that per sample dominates the masked-sample path, so the engine
/// keeps one scratch per worker thread. Not thread-safe: one scratch per
/// thread.
class EvalScratch {
 public:
  explicit EvalScratch(const SsfEvaluator& evaluator);

 private:
  friend class SsfEvaluator;
  rtl::Machine machine_;
  soc::GateLevelMachine gate_;
  faultsim::TechniqueScratch technique_;
  std::vector<netlist::NodeId> flipped_dffs_;
  /// Word-parallel batch state: the 64-lane simulator the lanes' golden
  /// rows are gathered into, the per-lane image/sample/flip buffers, and
  /// the machine a diverging lane's RTL resume runs on (copied from the
  /// post-injection state of its te so machine_ stays valid for the other
  /// lanes of that te).
  netlist::WordSimulator words_;
  rtl::Machine resume_;
  std::vector<const BitVector*> lane_images_;
  std::vector<faultsim::FaultSample> lane_samples_;
  std::vector<std::vector<netlist::NodeId>> lane_flips_;
  std::vector<std::size_t> flipping_lanes_;
};

/// Options for crash-safe journaled campaigns (see mc/journal.h for the
/// on-disk format). The journal directory accumulates completed sample-index
/// shards with checksums; a resumed run replays them and continues from the
/// first missing index, bitwise-identical to an uninterrupted run.
struct JournalOptions {
  std::string dir;
  /// Replay an existing journal and continue; false starts a fresh journal
  /// (overwriting any previous one in `dir`).
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
  /// Same, reusing `scratch`'s machines and buffers. Thread-safe as long as
  /// each thread uses its own scratch: the evaluator itself is only read.
  /// A non-null `sink` receives the per-phase time split of this sample
  /// (eval.restore_ns / eval.gate_inject_ns / eval.rtl_resume_ns /
  /// eval.analytical_ns) and simulation-cost counters (rtl.warmup_cycles,
  /// rtl.restore_bytes, rtl.resume_cycles, gate.injection_cycles,
  /// gate.settle_passes); the sink must be private to the calling thread.
  SampleRecord evaluate_sample(const faultsim::FaultSample& sample,
                               EvalScratch& scratch,
                               MetricsSink* sink = nullptr) const;

  /// Fault-isolated evaluation: never throws on a per-sample failure.
  /// Exceptions and budget overruns are captured; non-deterministic failures
  /// are retried once on a fresh scratch (replacing `scratch`), and a sample
  /// that still fails returns a record with path == OutcomePath::kFailed
  /// carrying the error code and reason.
  SampleRecord evaluate_sample_isolated(
      const faultsim::FaultSample& sample,
      std::unique_ptr<EvalScratch>& scratch,
      MetricsSink* sink = nullptr) const;

  /// Decides the outcome of a given flipped-bit set injected at the end of
  /// cycle `te` (used by evaluate_sample and by hardening re-evaluation,
  /// which filters flip sets).
  bool outcome_for_flips(std::uint64_t te, const std::vector<int>& flips,
                         OutcomePath* path = nullptr) const;

  /// Draws `n` samples from `sampler` and accumulates the SSF estimate.
  ///
  /// With config.threads != 1 the samples are evaluated on a worker pool.
  /// Determinism contract: the sample batch is pre-drawn sequentially from
  /// `sampler` (the stateful Rng stream is untouched by the workers), each
  /// worker evaluates into its sample's slot using per-thread scratch state,
  /// and the result is reduced in sample-index order — so ssf(), variance,
  /// trace, records, and the contribution maps are bitwise-identical for
  /// every thread count, including the sequential engine.
  ///
  /// Per-sample failures are isolated (see evaluate_sample_isolated) and
  /// surface as SsfResult counters, not exceptions. A sampler that throws
  /// while drawing the batch aborts the run with StatusError(kSamplerFailed).
  SsfResult run(Sampler& sampler, Rng& rng, std::size_t n) const;

  /// Evaluates an explicit, pre-drawn batch through the full pipeline
  /// (worker pool, isolation, observability, sample-index-ordered
  /// reduction). The seam run() uses after drawing its batch, and the
  /// supervisor's workers use for their assigned shards.
  SsfResult run_batch(std::vector<faultsim::FaultSample> samples) const;

  /// Exhaustively sweeps the technique's bound fault space (see
  /// AttackTechnique::bind_space / enumerate): every enumeration index in
  /// [0, min(space_size, space_limit)) is evaluated exactly once, streamed
  /// through the batch pipeline in bounded chunks — the full space is never
  /// materialized, so memory stays O(chunk) regardless of grid size. The
  /// result carries fault_space_size so coverage() reports the swept
  /// fraction, and is bitwise-identical to run_batch over the materialized
  /// enumeration at every thread and lane count. space_limit == 0 sweeps
  /// everything. Throws StatusError(kInvalidArgument) when no space is
  /// bound.
  SsfResult run_exhaustive(std::uint64_t space_limit = 0) const;

  /// Crash-safe variant of run_exhaustive(): completed enumeration-index
  /// shards are appended to the journal as they finish. Resume re-enumerates
  /// the journaled prefix from the bound space (the index -> sample mapping
  /// is the determinism contract) and cross-checks it before continuing from
  /// the first missing index — the final result is bitwise-identical to an
  /// uninterrupted sweep.
  Result<SsfResult> run_exhaustive_journaled(const JournalOptions& options,
                                             std::uint64_t space_limit =
                                                 0) const;

  /// Crash-safe variant of run(): completed sample shards are appended to
  /// the journal in `options.dir` as they finish. With options.resume, the
  /// journal is replayed first and evaluation continues from the first
  /// missing sample index — the returned SsfResult is bitwise-identical to
  /// an uninterrupted run at every thread count (samples are re-drawn from
  /// the same sampler/rng state and cross-checked against the journal).
  /// Journal integrity/IO failures are reported as a non-ok Result.
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
  /// run_batch, so the resulting SsfResult is bitwise-identical to the
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

  /// Evaluates samples[lo, hi) into records[lo, hi) on the worker pool,
  /// reusing `scratch` (one slot per worker; isolated evaluation). Golden
  /// settled rows the range needs and the table lacks are built first, on
  /// the calling thread, before any worker starts. `observers` may be null
  /// (no instrumentation) or sized to the pool.
  void evaluate_range(const std::vector<faultsim::FaultSample>& samples,
                      std::vector<SampleRecord>& records, std::size_t lo,
                      std::size_t hi,
                      std::vector<std::unique_ptr<EvalScratch>>& scratch,
                      WorkerObservers* observers) const;
  /// Evaluates one word of batch-eligible samples (unit = their indices,
  /// any mix of injection cycles; rows[i - lo] = sample i's golden row)
  /// through the word-parallel path: gather each lane from its te's row,
  /// one bit-parallel flip-set sweep, one restore + step per distinct te
  /// among the lanes that flipped bits, then per-lane finalization with
  /// scalar-identical budget accounting, each finished record handed to
  /// `publish(i, t0)` with its finalization start. Lanes the batch path
  /// cannot finish identically (non-budget exceptions) are replayed through
  /// `scalar_eval(i)`, the same per-sample evaluation the scalar engine
  /// runs, so every record stays bitwise-identical to the scalar baseline.
  void evaluate_word(
      const std::vector<faultsim::FaultSample>& samples,
      std::vector<SampleRecord>& records,
      const std::vector<std::size_t>& unit,
      const std::vector<const soc::GoldenSettledTable::Row*>& rows,
      std::size_t lo, EvalScratch& scratch, MetricsSink* sink, bool timing,
      const std::function<void(std::size_t)>& scalar_eval,
      const std::function<void(std::size_t, std::uint64_t)>& publish) const;
  WorkerObservers make_observers(std::size_t workers) const;
  /// Folds the per-worker sinks/traces into config_.metrics/config_.trace
  /// in worker-index order.
  void merge_observers(WorkerObservers&& observers) const;
  /// Builds one scratch per resolved worker (capped by `n` work items).
  std::vector<std::unique_ptr<EvalScratch>> make_scratch_pool(
      std::size_t n) const;
  /// Incremental reduction state: fold_record() accumulates one record at a
  /// time in sample-index order, finish_reduce() seals the result and emits
  /// the reduce-derived metrics. Folding records chunk by chunk performs the
  /// exact accumulation one reduce() over the concatenation would — the seam
  /// run_exhaustive streams through without materializing every record.
  struct ReduceState {
    SsfResult result;
    std::uint64_t records_dropped = 0;
    std::size_t index = 0;  // records folded so far
  };
  void fold_record(ReduceState& state, SampleRecord&& rec) const;
  SsfResult finish_reduce(ReduceState&& state) const;
  /// Seed-order accumulation of evaluated records into an SsfResult; the
  /// single reduction path shared by the sequential and parallel engines.
  SsfResult reduce(std::vector<SampleRecord>&& records) const;
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
