// Multi-process campaign supervisor: hard worker isolation, watchdog
// restarts, and sample quarantine (DESIGN.md §6h).
//
// The in-process engine (mc/evaluator.h) isolates per-sample *exceptions*,
// but a sample that segfaults the simulator, is OOM-killed, or wedges in
// native code takes the whole campaign with it. The supervisor moves the
// isolation boundary to the OS process:
//
//   supervisor ──pipe──> worker 0   (fav worker --worker-id 0 ...)
//              ──pipe──> worker 1   ...
//
// Each worker re-elaborates the framework from the same CLI flags, re-draws
// the identical sample batch (the determinism contract makes the stream a
// pure function of the seed), and evaluates the contiguous sample-index
// shards the supervisor assigns over a length-prefixed pipe protocol through
// the engine's evaluate_batch — a caller of the engine, not a campaign of its
// own. A worker journals every completed shard to its own `worker-<k>.fj`
// before acknowledging it, so the supervisor can always reconstruct what a
// dead worker finished. Liveness is per-sample PROGRESS frames: a worker that
// misses its heartbeat deadline (or dies) is SIGKILLed and respawned with
// exponential backoff; a shard whose evaluation kills workers twice is
// quarantined — its samples are recorded as OutcomePath::kFailed with
// ErrorCode::kWorkerCrashed instead of being retried forever.
//
// The campaign itself comes from the evaluator the supervisor is given (its
// metrics sink, stop flag and on_sample hook) and from one JournalOptions,
// the same description the in-process engine runs: the two modes cannot
// disagree on what the campaign is.
//
// The final result is assembled by merging the journal directory's shard
// files (see mc/journal.h) in sample-index order and folding them through
// the engine's own reduction, so a supervised campaign is bitwise-identical
// to the single-process engine at every worker count — including after
// worker crashes, after the supervisor itself is SIGKILLed and resumed, and
// when either mode resumes the other's journal.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "mc/evaluator.h"
#include "util/metrics.h"
#include "util/status.h"

namespace fav::mc {

/// --- wire protocol (exposed for tests) -----------------------------------
/// Every message is one subprocess frame (util/subprocess.h) whose payload
/// starts with a WireType byte. Values are part of the protocol; append new
/// types at the end only.
enum class WireType : std::uint8_t {
  kReady = 1,     // worker -> supervisor: elaborated, journal open
  kAssign = 2,    // supervisor -> worker: evaluate samples [lo, hi)
  kProgress = 3,  // worker -> supervisor: one sample done (heartbeat)
  kDone = 4,      // worker -> supervisor: shard [lo, hi) journaled
  kShutdown = 5,  // supervisor -> worker: ship metrics and exit
  kMetrics = 6,   // worker -> supervisor: serialized MetricsSink
};

/// Decoded form of any protocol message; only the fields of the given type
/// are meaningful.
struct WireMessage {
  WireType type = WireType::kReady;
  std::uint64_t lo = 0;                     // kAssign / kDone
  std::uint64_t hi = 0;                     // kAssign / kDone
  std::uint64_t index = 0;                  // kProgress: absolute sample index
  double contribution = 0.0;                // kProgress
  OutcomePath path = OutcomePath::kMasked;  // kProgress
  std::string blob;                         // kMetrics: serialized MetricsSink
};

std::string encode_ready();
std::string encode_assign(std::uint64_t lo, std::uint64_t hi);
/// index | contribution | OutcomePath byte. The sample itself (and its
/// weight) is not sent: the supervisor holds the same batch.
std::string encode_progress(std::uint64_t index, double contribution,
                            OutcomePath path);
std::string encode_done(std::uint64_t lo, std::uint64_t hi);
std::string encode_shutdown();
std::string encode_metrics(const MetricsSink& sink);
/// False on malformed payloads (unknown type byte, truncated fields).
bool decode_message(std::string_view payload, WireMessage* out);

/// Journal shard file owned by worker `worker_id`: "worker-<k>.fj".
std::string worker_journal_file(std::size_t worker_id);

/// --- supervisor ----------------------------------------------------------

/// What describes the fleet; the campaign it runs comes from the evaluator
/// and the JournalOptions given to CampaignSupervisor.
struct SupervisorConfig {
  /// Worker processes to keep alive (>= 1).
  std::size_t workers = 1;
  /// A ready worker that produces no frame (progress or control) for this
  /// long is presumed wedged, SIGKILLed and restarted. Must comfortably
  /// exceed the slowest single sample.
  std::uint64_t heartbeat_ms = 30000;
  /// argv of a worker process ("<fav> worker --worker-id <k>" is appended by
  /// the supervisor; everything identifying the campaign — benchmark, seed,
  /// flags — must already be present so the worker re-derives the identical
  /// batch).
  std::vector<std::string> worker_command;
  /// Extra argv appended only to worker 0's *first* spawn, dropped on
  /// restarts and never given to other slots. Carries test-only one-shot
  /// crash injection (--crash-after-samples): re-firing it after a restart
  /// would loop forever, and giving it to two slots could kill the same
  /// rescheduled shard twice and quarantine it.
  std::vector<std::string> first_spawn_args;
};

struct SupervisedResult {
  SsfResult result;
  /// Unexpected worker deaths that led to a respawn.
  std::size_t restarts = 0;
  /// Shards (and the samples they cover) written off as kWorkerCrashed.
  std::size_t quarantined_shards = 0;
  std::size_t quarantined_samples = 0;
  /// Workers that exited with kExitResumableStop (storage full/failing);
  /// > 0 implies the campaign stopped gracefully and is resumable.
  std::size_t storage_full_stops = 0;
};

/// Runs a campaign across OS-process workers (see file header). On the
/// supervisor side the evaluator only reduces the merged journal; all
/// simulation happens inside the worker processes. Its config supplies the
/// campaign's observers: worker metrics sinks are merged into `metrics` in
/// worker-index order, then the supervisor.* counters are added; `stop` is
/// the graceful stop (no new shards are assigned, workers finish their
/// in-flight shard, ship metrics and exit, and the result covers the
/// journaled prefix and is marked interrupted); `on_sample` receives one
/// call per PROGRESS frame. Diagnostics (restarts, quarantines) go to
/// stderr.
///
/// run_batch() is re-entrant across threads: the serve daemon runs one
/// supervisor per in-flight campaign, each on its own thread. Concurrent
/// campaigns need distinct journal directories — start_journal's lock
/// refuses a directory another campaign holds — and an ignored SIGPIPE
/// disposition (run_batch() sets it; the setting is process-wide and
/// idempotent). Worker pipes are O_CLOEXEC, so concurrent fleets never leak
/// fds into each other's workers.
class CampaignSupervisor {
 public:
  CampaignSupervisor(const SsfEvaluator& evaluator, SupervisorConfig config);

  /// Runs the supervised campaign over the full, pre-materialized batch
  /// and reduces the merged journal. The CLI draws the batch (or enumerates
  /// the technique's bound fault space into it), and each worker re-derives
  /// the identical batch from the forwarded flags, so shards over sample or
  /// enumeration-index ranges merge alike. The journal starts like an
  /// in-process one (start_journal), whose lock is held through the fleet
  /// and the final merge; only the missing ranges, chopped to
  /// `journal.shard_size`, are assigned. Fails (non-ok Result) on
  /// configuration errors, a journal directory in use, unrecoverable
  /// worker-fleet failure, or journal corruption.
  Result<SupervisedResult> run_batch(std::vector<faultsim::FaultSample> samples,
                                     const JournalOptions& journal) const;

 private:
  const SsfEvaluator* evaluator_;
  SupervisorConfig config_;
};

/// --- worker side ---------------------------------------------------------

/// Process exit code of a worker (and of `fav evaluate`) that stopped
/// gracefully because the storage device filled or failed mid-campaign
/// (ErrorCode::kStorageFull). Every journaled shard is intact and the
/// campaign is resumable; the supervisor treats this exit as a fleet-wide
/// graceful stop — the in-flight shard goes back to pending with no
/// attempts charge (no quarantine) and the slot is not respawned.
constexpr int kExitResumableStop = 3;

/// Sentinel for "no crash injection" (see WorkerHeartbeat::set_crash_on).
constexpr std::uint64_t kNoCrashIndex = ~0ull;

/// Per-sample PROGRESS sender installed as EvaluatorConfig::on_sample inside
/// a worker process; it writes to stdout, the pipe to the supervisor.
/// Thread-safe (the engine invokes it from worker threads); each frame is
/// one atomic pipe write. Also hosts the test-only
/// crash injection used by the chaos tests: the process SIGKILLs *itself*
/// mid-shard, exactly like a segfault would, at a configurable point.
class WorkerHeartbeat {
 public:
  /// SIGKILL this process after `count` completed samples (0 disables).
  void set_crash_after(std::uint64_t count) { crash_after_ = count; }
  /// SIGKILL this process right after completing the given absolute sample
  /// index — a *deterministic* crash that re-fires on every retry, driving
  /// the quarantine path (kNoCrashIndex disables).
  void set_crash_on(std::uint64_t index) { crash_on_ = index; }

  /// EvaluatorConfig::on_sample hook; `index` is the campaign index the
  /// PROGRESS frame carries. Write errors are ignored: a vanished
  /// supervisor surfaces as EOF on the next assignment read.
  void on_sample(const SampleRecord& record, std::size_t index);

 private:
  std::atomic<std::uint64_t> completed_{0};
  std::uint64_t crash_after_ = 0;
  std::uint64_t crash_on_ = kNoCrashIndex;
};

/// The worker side of the protocol, spoken on stdin/stdout: opens this
/// worker's shard file `worker-<k>.fj` in `journal.dir` (JournalWriter::open,
/// so a respawned or resumed worker appends), reports READY, and serves
/// ASSIGN messages until SHUTDOWN or EOF (supervisor gone). `samples` must be
/// the full campaign batch — the worker evaluates each assigned slice [lo,
/// hi) through `evaluator`.evaluate_batch at campaign index lo and journals
/// the records; the evaluator's on_sample hook should be a WorkerHeartbeat.
/// The evaluator's metrics sink (may be null) also counts the journal writes
/// and is shipped to the supervisor on SHUTDOWN.
Status run_worker_loop(const SsfEvaluator& evaluator,
                       const std::vector<faultsim::FaultSample>& samples,
                       const JournalOptions& journal, std::size_t worker_id);

}  // namespace fav::mc
