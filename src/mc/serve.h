// The campaign serving tier: a Unix-domain-socket daemon that accepts
// campaign requests, schedules them across per-campaign supervisor fleets,
// and streams progress plus the final run report back to clients.
//
// Design (DESIGN.md §6k, lifecycle + recovery in §6m):
//   * Transport reuses the supervisor's length-prefixed frame codec
//     (util/subprocess.h): every message is `u32 length | payload` and the
//     payload starts with a ServeWire type byte. One codec for pipes and
//     sockets means one set of framing tests and one corruption story.
//   * The server is generic over a CampaignRunner callback. The CLI supplies
//     a runner that parses the request argv with the *same* parser and runs
//     the *same* evaluation path as local `fav evaluate` — which is what
//     makes a served campaign byte-identical to a local one. mc/ stays
//     independent of core/ (layering: core depends on mc, not vice versa).
//   * One handler thread per connection; a counting slot gate bounds how
//     many campaigns run concurrently and a bounded admission queue bounds
//     how many may wait (overflow is turned away with kBusy + a retry-after
//     hint instead of queuing without bound). Finished handler threads are
//     reaped opportunistically, so a long-lived daemon holds O(in-flight)
//     threads, not O(connections ever accepted).
//   * Every campaign is cancellable: a per-campaign cancel token reaches the
//     evaluator/supervisor stop path through the runner, and a monitor
//     thread trips it when the client hangs up (POLLHUP/EOF), sends an
//     explicit kCancel frame, or the per-campaign deadline expires. A
//     cancelled campaign winds down to a journaled, resumable partial
//     report — it never burns the slot to completion.
//   * Crash recovery: when configured with a ledger path, the daemon records
//     each campaign's argv and lifecycle (accepted / running / finished) in
//     a ledger kept as a record log (util/record_log.h, the journal's
//     framing). On restart it replays the ledger and hands every campaign
//     that never reached `finished` to the recovery runner with its argv
//     unchanged; the runner resumes its journal (an empty one starts fresh)
//     — the serving-tier analogue of the supervisor's worker watchdog.
//   * Shutdown: the stop flag stops the accept loop; in-flight campaigns
//     see the flag through their monitors and wind down gracefully
//     (journaled prefix + interrupted report), then serve() joins every
//     handler and unlinks the socket.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/record_log.h"
#include "util/status.h"

namespace fav::mc {

/// --- serve wire protocol (exposed for tests) ------------------------------
/// Values are part of the protocol; append new types at the end only.
enum class ServeWire : std::uint8_t {
  kRequest = 1,    // client -> server: campaign argv (evaluate flags)
  kAccepted = 2,   // server -> client: request decoded, campaign id assigned
  kProgress = 3,   // server -> client: throttled samples-done / total
  kStdout = 4,     // server -> client: the full `fav evaluate` stdout block
  kReport = 5,     // server -> client: fav.run_report.v1 JSON bytes
  kFinished = 6,   // server -> client: campaign exit code; closes the stream
  kError = 7,      // server -> client: rejected / failed; closes the stream
  kBusy = 8,       // server -> client: admission queue full, retry-after hint
  kHeartbeat = 9,  // server -> client: liveness while queued / running
  kCancel = 10,    // client -> server: stop my campaign (resumable)
};

/// Request sanity bounds: a campaign argv is a few dozen short flags, so
/// anything beyond these is a confused or hostile client, not a real
/// campaign.
constexpr std::size_t kMaxRequestArgs = 256;
constexpr std::size_t kMaxRequestArgBytes = 4096;

/// Decoded form of any serve message; only the fields of the given type are
/// meaningful.
struct ServeMessage {
  ServeWire type = ServeWire::kRequest;
  std::vector<std::string> args;     // kRequest
  std::uint64_t campaign_id = 0;     // kAccepted
  std::uint64_t done = 0;            // kProgress
  std::uint64_t total = 0;           // kProgress
  std::string text;                  // kStdout / kReport / kError
  std::int32_t exit_code = 0;        // kFinished / kError
  std::uint64_t retry_after_ms = 0;  // kBusy
  bool running = false;              // kHeartbeat (false = still queued)
};

std::string encode_serve_request(const std::vector<std::string>& args);
std::string encode_serve_accepted(std::uint64_t campaign_id);
std::string encode_serve_progress(std::uint64_t done, std::uint64_t total);
std::string encode_serve_stdout(std::string_view text);
std::string encode_serve_report(std::string_view json);
std::string encode_serve_finished(std::int32_t exit_code);
std::string encode_serve_error(std::string_view message,
                               std::int32_t exit_code);
std::string encode_serve_busy(std::uint64_t retry_after_ms);
std::string encode_serve_heartbeat(bool running);
std::string encode_serve_cancel();
/// Strict: trailing bytes, truncated fields, unknown types and out-of-bound
/// request shapes all fail.
bool decode_serve_message(std::string_view payload, ServeMessage* out);

/// --- campaign runner ------------------------------------------------------

/// What one served campaign produced, on the server and as submit_campaign
/// receives it. `error` non-empty means the request was rejected or failed
/// before producing a result; otherwise stdout_block (and report_json, when
/// the request asked for a report) are streamed back verbatim.
struct CampaignOutcome {
  int exit_code = 1;
  std::string stdout_block;
  std::string report_json;
  std::string error;
};

/// Streams progress to the client. Called from whatever thread evaluates
/// samples (engine workers or a supervisor event loop); the server
/// serializes and throttles the socket writes internally.
using ProgressFn =
    std::function<void(std::uint64_t done, std::uint64_t total)>;

/// Runs one campaign from its request argv (e.g. {"evaluate", "--samples",
/// "400", ...}). Must be thread-safe: the server invokes it concurrently,
/// once per in-flight campaign. `cancel` is the per-campaign stop token; the
/// runner must wire it into the evaluator/supervisor stop path so a tripped
/// token winds the campaign down to a resumable partial result (exit 3).
using CampaignRunner = std::function<CampaignOutcome(
    const std::vector<std::string>& args, const ProgressFn& progress,
    const std::atomic<bool>& cancel)>;

/// --- crash-recovery ledger ------------------------------------------------

/// Lifecycle states a campaign passes through in the ledger. Values are part
/// of the on-disk format; append new states at the end only.
enum class CampaignState : std::uint8_t {
  kAccepted = 1,  // request decoded, argv recorded
  kRunning = 2,   // slot acquired, evaluation started
  kFinished = 3,  // terminal: completed / failed / cancelled / deadline
};

/// Append-only campaign ledger (DESIGN.md §6m): a record log
/// (util/record_log.h) with magic "FAVLDGR1" and one record per lifecycle
/// step. Replay stops at the first torn, corrupt or undecodable record and
/// truncates the file back to the records before it, so a SIGKILL
/// mid-append never bricks the daemon. A campaign that never reached
/// kFinished is *interrupted* and is re-run on the next start.
class CampaignLedger {
 public:
  struct Entry {
    std::uint64_t id = 0;
    CampaignState state = CampaignState::kAccepted;
    std::vector<std::string> args;
    std::int32_t exit_code = 0;  // meaningful once state == kFinished
  };

  /// Opens `path` (creating it if absent) and replays every intact record.
  /// A torn or corrupt tail is truncated away; a bad magic fails instead
  /// (that file is not a ledger — refuse to append garbage to it).
  static Result<CampaignLedger> open(const std::string& path);

  /// Lifecycle appends; each record is fsynced before returning so the
  /// ledger never claims less than what actually happened.
  Status accepted(std::uint64_t id, const std::vector<std::string>& args);
  Status running(std::uint64_t id);
  Status finished(std::uint64_t id, std::int32_t exit_code);

  /// Campaigns replayed from disk that never reached kFinished, in id order.
  std::vector<Entry> interrupted() const;
  /// One past the largest id ever recorded — campaign ids stay unique
  /// across daemon restarts.
  std::uint64_t next_campaign_id() const { return next_id_; }
  /// Bytes of torn/corrupt tail discarded by open(), for the caller's log.
  std::uint64_t discarded_bytes() const { return discarded_bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  io::RecordLog log_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_id_ = 1;
  std::uint64_t discarded_bytes_ = 0;
};

/// --- server ---------------------------------------------------------------

struct ServeConfig {
  /// Unix-domain socket path (sun_path-limited, ~100 bytes). A stale socket
  /// file left by a crashed daemon is detected (nothing accepts on it) and
  /// replaced; a live one fails the bind instead of hijacking the server.
  std::string socket_path;
  /// Campaigns evaluated at once; further accepted requests wait for a slot.
  std::size_t max_concurrent = 2;
  /// Accepted requests allowed to wait for a slot. One more would get a
  /// kBusy frame (with a 500 ms retry-after hint) instead of queuing without
  /// bound.
  std::size_t max_queued = 16;
  /// Minimum spacing of kProgress frames per client (the final frame always
  /// ships). 0 streams every sample — test use only.
  std::uint64_t progress_interval_ms = 200;
  /// Spacing of kHeartbeat frames while a campaign is queued or running, so
  /// clients can tell a wedged daemon from a slow campaign. 0 disables.
  std::uint64_t heartbeat_interval_ms = 1000;
  /// Per-campaign wall-clock budget; an expired campaign is stopped through
  /// its cancel token (resumable, exit 3). 0 = unlimited.
  std::uint64_t campaign_deadline_ms = 0;
  /// Crash-recovery ledger path; empty disables recovery.
  std::string ledger_path;
  /// Stats snapshot path (JSON, atomically rewritten as counters change);
  /// empty disables the snapshot.
  std::string stats_path;
  /// Graceful stop (required): checked by the accept loop, queued requests
  /// and every campaign monitor (which forwards it to in-flight campaigns
  /// through their cancel tokens).
  const std::atomic<bool>* stop = nullptr;
  /// Diagnostics sink; null routes to stderr.
  std::function<void(const std::string&)> log;
  /// Runner for ledger-recovered campaigns, given the ledger's argv as
  /// accepted; defaults to the ctor runner. The CLI supplies one that
  /// resumes the campaign's journal and also writes the originally
  /// requested local artifacts (--metrics-out), since the original client
  /// is gone.
  CampaignRunner recovery_runner;
};

struct ServeStats {
  std::uint64_t accepted = 0;          // decoded requests that got a slot path
  std::uint64_t completed = 0;         // ran to a successful outcome
  std::uint64_t failed = 0;            // ran to an error outcome
  std::uint64_t cancelled = 0;         // client hung up / sent kCancel
  std::uint64_t deadline_stopped = 0;  // stopped by campaign_deadline_ms
  std::uint64_t recovered = 0;         // replayed from the ledger to success
  std::uint64_t rejected = 0;          // malformed / refused requests
  std::uint64_t busy = 0;              // turned away with kBusy
};

class CampaignServer {
 public:
  CampaignServer(ServeConfig config, CampaignRunner runner);

  /// Binds the socket, replays the ledger (when configured) and serves until
  /// the stop flag is set, then joins all in-flight handlers and unlinks the
  /// socket. Returns a config / bind / ledger failure, Status::ok()
  /// otherwise.
  Status serve();

  /// Snapshot of the counters; safe to call from other threads while
  /// serving (tests poll it).
  ServeStats stats() const;

  /// Handler threads currently alive (in-flight + not yet reaped); the soak
  /// test asserts this stays bounded by the slot/queue budget instead of
  /// growing with every connection ever accepted.
  std::size_t live_handlers() const;

 private:
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  /// Why a campaign should wind down early (or why admission failed).
  enum class Admission { kRun, kBusy, kCancelled, kStopped };

  void start_handler(std::function<void()> body);
  void reap_handlers();
  void join_all_handlers();
  void handle_client(int fd, std::uint64_t campaign_id);
  void run_recovered(CampaignLedger::Entry entry);
  Admission acquire_slot(const std::atomic<bool>& cancel);
  void release_slot();
  void log_line(const std::string& line) const;
  void write_stats_snapshot() const;
  std::string stats_json() const;
  Status ledger_append(const std::function<Status(CampaignLedger&)>& op);

  ServeConfig config_;
  CampaignRunner runner_;
  ServeStats stats_;
  mutable std::mutex mu_;
  std::condition_variable slot_cv_;
  std::size_t active_ = 0;
  std::size_t queued_ = 0;
  bool draining_ = false;
  mutable std::mutex handlers_mu_;
  std::list<std::unique_ptr<Handler>> handlers_;
  std::mutex ledger_mu_;
  std::unique_ptr<CampaignLedger> ledger_;
};

/// --- client ---------------------------------------------------------------

/// Knobs for submit_campaign. The defaults reproduce the fire-and-wait
/// behaviour of the plain overload: no idle timeout, no cancellation, and a
/// few busy retries honouring the server's retry-after hint.
struct SubmitOptions {
  ProgressFn on_progress;
  /// Called per kHeartbeat frame (after it refreshes the idle timer).
  std::function<void()> on_heartbeat;
  /// Called per kBusy frame with the backoff about to be slept.
  std::function<void(std::uint64_t backoff_ms)> on_busy;
  /// Fail with kDeadlineExceeded when the daemon sends *nothing* (progress,
  /// heartbeat or otherwise) for this long — a wedged daemon, as opposed to
  /// a slow campaign, which keeps heartbeating. < 0 waits forever.
  int idle_timeout_ms = -1;
  /// When non-null and set, sends one kCancel frame and keeps reading until
  /// the server winds the campaign down to its final (interrupted) frames.
  const std::atomic<bool>* cancel = nullptr;
  /// Reconnect attempts after kBusy before giving up with kUnavailable.
  std::size_t busy_retries = 4;
  /// Base backoff doubled per attempt; 0 uses the server's retry-after hint.
  std::uint64_t retry_backoff_ms = 0;
};

/// Submits one campaign to a serving daemon and blocks until it finishes.
/// Returns a Status error only for transport problems (cannot connect,
/// server died mid-campaign, protocol corruption, kUnavailable once busy
/// retries are exhausted) — a server-side campaign failure comes back as
/// CampaignOutcome::error with the server's exit code.
Result<CampaignOutcome> submit_campaign(const std::string& socket_path,
                                        const std::vector<std::string>& args,
                                        const SubmitOptions& options);

/// Convenience overload: progress only, defaults for everything else.
Result<CampaignOutcome> submit_campaign(const std::string& socket_path,
                                        const std::vector<std::string>& args,
                                        const ProgressFn& on_progress = {});

}  // namespace fav::mc
