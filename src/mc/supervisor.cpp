#include "mc/supervisor.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "mc/journal.h"
#include "util/io.h"
#include "util/subprocess.h"

namespace fav::mc {

using io::get_le;
using io::put_le;

std::string encode_ready() {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kReady));
  return out;
}

std::string encode_assign(std::uint64_t lo, std::uint64_t hi) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kAssign));
  put_le(out, lo);
  put_le(out, hi);
  return out;
}

std::string encode_progress(std::uint64_t index, double contribution,
                            double weight, bool failed) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kProgress));
  put_le(out, index);
  put_le(out, contribution);
  put_le(out, weight);
  put_le(out, static_cast<std::uint8_t>(failed ? 1 : 0));
  return out;
}

std::string encode_done(std::uint64_t lo, std::uint64_t hi) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kDone));
  put_le(out, lo);
  put_le(out, hi);
  return out;
}

std::string encode_shutdown() {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kShutdown));
  return out;
}

std::string encode_metrics(const MetricsSink& sink) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(WireType::kMetrics));
  sink.serialize(out);
  return out;
}

bool decode_message(std::string_view payload, WireMessage* out) {
  std::size_t off = 0;
  std::uint8_t type = 0;
  if (!get_le(payload, &off, &type)) return false;
  if (type < static_cast<std::uint8_t>(WireType::kReady) ||
      type > static_cast<std::uint8_t>(WireType::kMetrics)) {
    return false;
  }
  out->type = static_cast<WireType>(type);
  switch (out->type) {
    case WireType::kReady:
    case WireType::kShutdown:
      return off == payload.size();
    case WireType::kAssign:
    case WireType::kDone:
      return get_le(payload, &off, &out->lo) &&
             get_le(payload, &off, &out->hi) && off == payload.size();
    case WireType::kProgress: {
      std::uint8_t failed = 0;
      if (!get_le(payload, &off, &out->index) ||
          !get_le(payload, &off, &out->contribution) ||
          !get_le(payload, &off, &out->weight) ||
          !get_le(payload, &off, &failed) || off != payload.size()) {
        return false;
      }
      out->failed = failed != 0;
      return true;
    }
    case WireType::kMetrics:
      out->blob.assign(payload.substr(off));
      return true;
  }
  return false;
}

std::string worker_journal_file(std::size_t worker_id) {
  return "worker-" + std::to_string(worker_id) + ".fj";
}

// --- worker side ----------------------------------------------------------

void WorkerHeartbeat::on_sample(const SampleRecord& record,
                                std::size_t slice_index) {
  const std::uint64_t index =
      base_.load(std::memory_order_relaxed) + slice_index;
  const bool failed = record.path == OutcomePath::kFailed;
  // Best-effort: a write failure means the supervisor is gone, which the
  // assignment loop detects as EOF (SIGPIPE is ignored in worker mode).
  (void)write_frame(fd_, encode_progress(index, record.contribution,
                                         record.sample.weight, failed));
  // Test-only chaos injection: die exactly like a segfault would —
  // mid-shard, after the sample's heartbeat, with the shard unjournaled.
  if (crash_on_ == index) ::raise(SIGKILL);
  if (crash_after_ != 0 &&
      completed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
          crash_after_) {
    ::raise(SIGKILL);
  }
}

Status run_worker_loop(const SsfEvaluator& evaluator,
                       const std::vector<faultsim::FaultSample>& samples,
                       WorkerHeartbeat& heartbeat,
                       const WorkerLoopOptions& options,
                       MetricsSink* metrics) {
  // The journal needs every record of an assigned shard.
  FAV_ENSURE(evaluator.config().keep_records &&
             evaluator.config().record_capacity == 0);

  JournalWriter writer;
  writer.set_metrics(metrics);
  const std::string file = worker_journal_file(options.worker_id);
  bool appended = false;
  {
    // Restart-aware open: if our shard file already belongs to this campaign
    // (we are a respawn, or a resumed run), append after its valid prefix —
    // the supervisor has already harvested those shards and will not
    // reassign them.
    Result<JournalShards> existing =
        JournalReader::read_shards(options.dir, file);
    if (existing.is_ok() &&
        existing.value().meta.fingerprint == options.fingerprint &&
        existing.value().meta.total_samples == samples.size()) {
      const Status opened =
          writer.open_append(options.dir, existing.value().valid_bytes, file);
      if (!opened.is_ok()) return opened;
      appended = true;
    }
  }
  if (!appended) {
    JournalMeta meta;
    meta.fingerprint = options.fingerprint;
    meta.total_samples = samples.size();
    meta.context = options.context;
    const Status opened = writer.open_fresh(options.dir, meta, file);
    if (!opened.is_ok()) return opened;
  }

  const Status ready = write_frame(options.out_fd, encode_ready());
  if (!ready.is_ok()) return Status::ok();  // supervisor already gone

  FrameBuffer buf;
  for (;;) {
    Result<std::string> frame = read_frame(options.in_fd, buf, -1);
    if (!frame.is_ok()) {
      if (frame.status().code() == ErrorCode::kDeadlineExceeded) {
        continue;  // interrupted by a signal; keep waiting
      }
      // EOF / broken pipe: the supervisor died. Workers never outlive it.
      return Status::ok();
    }
    WireMessage msg;
    if (!decode_message(frame.value(), &msg)) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received a malformed protocol frame");
    }
    if (msg.type == WireType::kShutdown) {
      MetricsSink empty;
      (void)write_frame(options.out_fd,
                        encode_metrics(metrics != nullptr ? *metrics : empty));
      return Status::ok();
    }
    if (msg.type != WireType::kAssign) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received an unexpected protocol message");
    }
    if (msg.lo >= msg.hi || msg.hi > samples.size()) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker received an out-of-range shard assignment [" +
                        std::to_string(msg.lo) + ", " +
                        std::to_string(msg.hi) + ")");
    }
    heartbeat.set_base(msg.lo);
    std::vector<faultsim::FaultSample> slice(
        samples.begin() + static_cast<std::ptrdiff_t>(msg.lo),
        samples.begin() + static_cast<std::ptrdiff_t>(msg.hi));
    SsfResult shard = evaluator.run_batch(std::move(slice));
    FAV_CHECK(shard.records.size() == msg.hi - msg.lo);
    // Journal first, acknowledge second: a DONE without a durable shard
    // could never be reconstructed, while a journaled shard whose DONE frame
    // is lost is harvested from the file after our death.
    const Status journaled =
        writer.append_shard(msg.lo, shard.records.data(),
                            shard.records.size());
    if (!journaled.is_ok()) return journaled;
    const Status done = write_frame(options.out_fd,
                                    encode_done(msg.lo, msg.hi));
    if (!done.is_ok()) return Status::ok();  // supervisor gone
  }
}

// --- supervisor -----------------------------------------------------------

namespace {

struct ShardState {
  enum class S { kPending, kAssigned, kDone, kQuarantined };
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  S state = S::kPending;
  int attempts = 0;  // worker deaths while this shard was assigned
};

struct WorkerSlot {
  Subprocess proc;
  FrameBuffer buf;
  bool alive = false;
  bool ready = false;
  bool shutdown_sent = false;
  int shard = -1;  // index into the shard list; -1 = idle
  std::uint64_t deadline_at_ns = 0;
  bool respawn_scheduled = false;
  std::uint64_t respawn_at_ns = 0;
  std::uint64_t backoff_ms = 0;
  std::size_t spawns = 0;
  int startup_failures = 0;
  bool disabled = false;
  MetricsSink sink;  // metrics shipped by clean incarnations, accumulated
};

/// One supervised fleet run: spawns the workers, drives the poll/watchdog
/// event loop, and leaves the shard states + presence bitmap describing what
/// got journaled. Single-threaded by design — all worker concurrency lives
/// in the OS processes.
class Fleet {
 public:
  Fleet(const SupervisorConfig& config, std::vector<ShardState>* shards,
        std::vector<std::uint8_t>* present, SupervisedResult* sup)
      : config_(config), shards_(shards), present_(present), sup_(sup) {
    for (const ShardState& s : *shards_) {
      if (s.state == ShardState::S::kPending) ++unresolved_;
    }
  }

  Status run() {
    const std::size_t count = std::max<std::size_t>(
        1, std::min(config_.workers, shards_->size()));
    slots_.resize(count);
    for (WorkerSlot& s : slots_) s.backoff_ms = config_.backoff_base_ms;
    for (std::size_t k = 0; k < count; ++k) spawn(k);

    while (fatal_.is_ok()) {
      if (config_.stop != nullptr &&
          config_.stop->load(std::memory_order_relaxed)) {
        stopping_ = true;
      }
      fire_due_respawns();
      dispatch_idle_workers();
      if (!any_alive() && !any_respawn_scheduled()) break;
      poll_workers();
      enforce_deadlines();
    }
    if (!fatal_.is_ok()) {
      for (std::size_t k = 0; k < slots_.size(); ++k) {
        if (slots_[k].alive) {
          slots_[k].proc.kill(SIGKILL);
          slots_[k].proc.close_pipes();
          slots_[k].proc.wait();
          slots_[k].alive = false;
        }
      }
      return fatal_;
    }
    if (unresolved_ > 0 && !stopping_) {
      return Status(ErrorCode::kSubprocessFailed,
                    "worker fleet failed with " + std::to_string(unresolved_) +
                        " shard(s) unfinished and no usable workers left");
    }
    return Status::ok();
  }

  const std::vector<WorkerSlot>& slots() const { return slots_; }

 private:
  void log_line(const std::string& message) const {
    if (config_.log) {
      config_.log(message);
    } else {
      std::fprintf(stderr, "fav: %s\n", message.c_str());
    }
  }

  bool any_alive() const {
    for (const WorkerSlot& s : slots_) {
      if (s.alive) return true;
    }
    return false;
  }

  bool any_respawn_scheduled() const {
    for (const WorkerSlot& s : slots_) {
      if (s.respawn_scheduled) return true;
    }
    return false;
  }

  /// Crash-injection flags ride on worker 0's first incarnation (spawn()),
  /// so until that incarnation takes a shard the first pending shard is held
  /// for it. Otherwise a peer that starts faster could finish the whole
  /// campaign before worker 0 is ready and the injected crash would never
  /// fire. If worker 0 dies first, the hold lapses.
  bool holding_shard_for_worker0() const {
    return !config_.first_spawn_args.empty() && !worker0_dispatched_ &&
           slots_[0].alive && slots_[0].spawns == 1;
  }

  /// First pending shard for worker k, skipping the one held for worker 0.
  int next_pending(std::size_t k) const {
    int skip = k != 0 && holding_shard_for_worker0() ? 1 : 0;
    for (std::size_t i = 0; i < shards_->size(); ++i) {
      if ((*shards_)[i].state == ShardState::S::kPending && skip-- == 0) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void spawn(std::size_t k) {
    WorkerSlot& s = slots_[k];
    std::vector<std::string> argv = config_.worker_command;
    argv.push_back("--worker-id");
    argv.push_back(std::to_string(k));
    if (k == 0 && s.spawns == 0) {
      // Crash-injection flags ride only on worker 0's first incarnation.
      // Restarts must not re-fire them, and two first-incarnation workers
      // crashing on the same rescheduled shard would count as two kills and
      // quarantine a perfectly healthy shard.
      argv.insert(argv.end(), config_.first_spawn_args.begin(),
                  config_.first_spawn_args.end());
    }
    ++s.spawns;
    Result<Subprocess> spawned = Subprocess::spawn(argv);
    if (!spawned.is_ok()) {
      log_line("worker " + std::to_string(k) +
               " spawn failed: " + spawned.status().to_string());
      note_startup_failure(k);
      return;
    }
    s.proc = std::move(spawned).value();
    s.alive = true;
    s.ready = false;
    s.shutdown_sent = false;
    s.shard = -1;
    s.buf = FrameBuffer();
    s.deadline_at_ns = monotonic_ns() + config_.startup_ms * 1'000'000ull;
  }

  void note_startup_failure(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (++s.startup_failures >= config_.max_startup_failures) {
      s.disabled = true;
      log_line("worker " + std::to_string(k) + " disabled after " +
               std::to_string(s.startup_failures) + " startup failure(s)");
      return;
    }
    schedule_respawn(k);
  }

  void schedule_respawn(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (stopping_ || s.disabled || unresolved_ == 0) return;
    ++sup_->restarts;
    s.respawn_scheduled = true;
    s.respawn_at_ns = monotonic_ns() + s.backoff_ms * 1'000'000ull;
    log_line("restarting worker " + std::to_string(k) + " in " +
             std::to_string(s.backoff_ms) + " ms");
    s.backoff_ms = std::min(s.backoff_ms * 2, config_.backoff_max_ms);
  }

  void fire_due_respawns() {
    const std::uint64_t now = monotonic_ns();
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      WorkerSlot& s = slots_[k];
      if (!s.respawn_scheduled || now < s.respawn_at_ns) continue;
      s.respawn_scheduled = false;
      if (!stopping_ && !s.disabled && unresolved_ > 0) spawn(k);
    }
  }

  void dispatch_idle_workers() {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      WorkerSlot& s = slots_[k];
      if (!s.alive || !s.ready || s.shard != -1 || s.shutdown_sent) continue;
      const int next = stopping_ ? -1 : next_pending(k);
      if (next < 0 && !stopping_ && next_pending(0) >= 0) {
        // Only the shard held for worker 0 is left: stay idle, since it
        // returns to the pool if worker 0 crashes on it.
        s.deadline_at_ns =
            monotonic_ns() + config_.heartbeat_ms * 1'000'000ull;
        continue;
      }
      if (next >= 0) {
        ShardState& sh = (*shards_)[next];
        const Status sent =
            write_frame(s.proc.stdin_fd(), encode_assign(sh.lo, sh.hi));
        if (!sent.is_ok()) {
          kill_worker(k, "assignment write failed: " + sent.to_string());
          continue;
        }
        sh.state = ShardState::S::kAssigned;
        s.shard = next;
        if (k == 0) worker0_dispatched_ = true;
        s.deadline_at_ns =
            monotonic_ns() + config_.heartbeat_ms * 1'000'000ull;
      } else {
        const Status sent =
            write_frame(s.proc.stdin_fd(), encode_shutdown());
        s.shutdown_sent = true;
        s.deadline_at_ns =
            monotonic_ns() + config_.heartbeat_ms * 1'000'000ull;
        if (!sent.is_ok()) {
          kill_worker(k, "shutdown write failed: " + sent.to_string());
        }
      }
    }
  }

  int poll_timeout_ms() const {
    const std::uint64_t now = monotonic_ns();
    std::uint64_t next = now + 500'000'000ull;  // 500 ms cap
    for (const WorkerSlot& s : slots_) {
      if (s.alive) next = std::min(next, s.deadline_at_ns);
      if (s.respawn_scheduled) next = std::min(next, s.respawn_at_ns);
    }
    if (next <= now) return 0;
    return static_cast<int>((next - now) / 1'000'000ull + 1);
  }

  void poll_workers() {
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (!slots_[k].alive) continue;
      struct pollfd pfd {};
      pfd.fd = slots_[k].proc.stdout_fd();
      pfd.events = POLLIN;
      fds.push_back(pfd);
      owner.push_back(k);
    }
    const int timeout = poll_timeout_ms();
    if (fds.empty()) {
      // Only respawn timers remain; sleep until the nearest one.
      struct timespec ts {};
      ts.tv_sec = timeout / 1000;
      ts.tv_nsec = (timeout % 1000) * 1'000'000l;
      ::nanosleep(&ts, nullptr);
      return;
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout);
    if (rc < 0) {
      if (errno == EINTR) return;  // re-check stop flag at loop top
      fatal_ = Status(ErrorCode::kSubprocessFailed,
                      std::string("poll failed: ") + std::strerror(errno));
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        handle_readable(owner[i]);
        if (!fatal_.is_ok()) return;
      }
    }
  }

  void handle_readable(std::size_t k) {
    WorkerSlot& s = slots_[k];
    if (!drain_into(s.proc.stdout_fd(), s.buf)) {
      handle_death(k);
      return;
    }
    std::string payload;
    while (s.alive && s.buf.next(&payload)) {
      WireMessage msg;
      if (!decode_message(payload, &msg)) {
        kill_worker(k, "malformed frame from worker " + std::to_string(k));
        return;
      }
      s.deadline_at_ns =
          monotonic_ns() +
          (s.ready ? config_.heartbeat_ms : config_.startup_ms) *
              1'000'000ull;
      switch (msg.type) {
        case WireType::kReady:
          s.ready = true;
          s.startup_failures = 0;
          s.backoff_ms = config_.backoff_base_ms;
          break;
        case WireType::kProgress:
          if (config_.progress != nullptr) {
            config_.progress->record(msg.contribution, msg.weight,
                                     msg.failed);
          }
          if (config_.on_sample) config_.on_sample();
          break;
        case WireType::kDone:
          handle_done(k, msg);
          break;
        case WireType::kMetrics: {
          MetricsSink shipped;
          if (shipped.deserialize(msg.blob)) {
            s.sink.merge(shipped);
          } else {
            log_line("worker " + std::to_string(k) +
                     " shipped an unreadable metrics payload; dropped");
          }
          break;
        }
        default:
          kill_worker(k, "unexpected message from worker " +
                             std::to_string(k));
          return;
      }
    }
    if (s.alive && s.buf.corrupt()) {
      kill_worker(k, "corrupt frame stream from worker " + std::to_string(k));
    }
  }

  void handle_done(std::size_t k, const WireMessage& msg) {
    WorkerSlot& s = slots_[k];
    if (s.shard < 0 || (*shards_)[s.shard].lo != msg.lo ||
        (*shards_)[s.shard].hi != msg.hi) {
      kill_worker(k, "worker " + std::to_string(k) +
                         " acknowledged a shard it was not assigned");
      return;
    }
    ShardState& sh = (*shards_)[s.shard];
    if (sh.state == ShardState::S::kAssigned) {
      sh.state = ShardState::S::kDone;
      --unresolved_;
      for (std::uint64_t i = sh.lo; i < sh.hi; ++i) (*present_)[i] = 1;
    }
    s.shard = -1;
  }

  void kill_worker(std::size_t k, const std::string& reason) {
    log_line(reason + "; killing worker " + std::to_string(k));
    slots_[k].proc.kill(SIGKILL);
    handle_death(k);
  }

  void handle_death(std::size_t k) {
    WorkerSlot& s = slots_[k];
    s.proc.close_pipes();
    const Subprocess::ExitStatus st = s.proc.wait();
    const bool clean = !st.signaled && st.exit_code == 0 && s.shutdown_sent;
    const bool storage_full =
        !st.signaled && st.exit_code == kExitResumableStop;
    s.alive = false;
    s.proc = Subprocess();

    // Harvest the dead worker's journal *before* touching its assignment:
    // a shard can be fully journaled with its DONE frame lost in the pipe,
    // and reassigning it would make two files cover the same samples.
    const Status harvested = harvest(k);
    if (!harvested.is_ok()) {
      fatal_ = harvested;
      return;
    }

    if (s.shard >= 0 && storage_full) {
      // The worker stopped itself because the journal device is full or
      // failing — not the shard's fault. Leave it pending with no attempts
      // charge so a post-resume run (with space freed) retries it instead
      // of quarantining it.
      ShardState& sh = (*shards_)[s.shard];
      if (sh.state == ShardState::S::kAssigned) {
        sh.state = ShardState::S::kPending;
      }
      s.shard = -1;
    }
    if (s.shard >= 0) {
      ShardState& sh = (*shards_)[s.shard];
      if (sh.state == ShardState::S::kAssigned) {
        ++sh.attempts;
        if (sh.attempts >= config_.max_shard_attempts) {
          sh.state = ShardState::S::kQuarantined;
          --unresolved_;
          ++sup_->quarantined_shards;
          sup_->quarantined_samples += sh.hi - sh.lo;
          log_line("quarantining shard [" + std::to_string(sh.lo) + ", " +
                   std::to_string(sh.hi) + ") after " +
                   std::to_string(sh.attempts) + " worker crash(es)");
        } else {
          sh.state = ShardState::S::kPending;
        }
      }
      s.shard = -1;
    }

    if (clean) return;
    if (storage_full) {
      // Fleet-wide graceful stop: other workers finish (or likewise abort)
      // their in-flight shard and are shut down; nothing respawns. The run
      // ends as an interrupted, resumable campaign.
      s.ready = false;
      s.shutdown_sent = false;
      ++sup_->storage_full_stops;
      if (!stopping_) {
        stopping_ = true;
        log_line("worker " + std::to_string(k) +
                 " stopped: storage full/failing while journaling; "
                 "finishing in-flight shards and stopping for resume");
      }
      return;
    }
    log_line("worker " + std::to_string(k) + " died unexpectedly (" +
             (st.signaled ? "signal " + std::to_string(st.term_signal)
                          : "exit code " + std::to_string(st.exit_code)) +
             ")");
    const bool was_ready = s.ready;
    s.ready = false;
    s.shutdown_sent = false;
    if (!was_ready) {
      note_startup_failure(k);
    } else {
      schedule_respawn(k);
    }
  }

  /// Reads worker k's shard file and folds every journaled span into the
  /// presence bitmap; shards it now fully covers are resolved as done.
  Status harvest(std::size_t k) {
    Result<JournalShards> shards =
        JournalReader::read_shards(config_.dir, worker_journal_file(k));
    if (!shards.is_ok()) {
      // Died before creating its file: no progress to recover. Anything
      // else (corruption) poisons the final merge and is fatal now.
      if (shards.status().code() == ErrorCode::kJournalIoError) {
        return Status::ok();
      }
      return shards.status();
    }
    if (shards.value().meta.fingerprint != config_.fingerprint) {
      return Status(ErrorCode::kJournalCorrupt,
                    worker_journal_file(k) +
                        " carries a foreign campaign fingerprint");
    }
    for (const JournalSpan& span : shards.value().spans) {
      const std::uint64_t end =
          std::min<std::uint64_t>(span.end_index(), present_->size());
      for (std::uint64_t i = span.first_index; i < end; ++i) {
        (*present_)[i] = 1;
      }
    }
    for (ShardState& sh : *shards_) {
      if (sh.state != ShardState::S::kPending &&
          sh.state != ShardState::S::kAssigned) {
        continue;
      }
      bool covered = true;
      for (std::uint64_t i = sh.lo; i < sh.hi && covered; ++i) {
        covered = (*present_)[i] != 0;
      }
      if (covered) {
        sh.state = ShardState::S::kDone;
        --unresolved_;
      }
    }
    return Status::ok();
  }

  void enforce_deadlines() {
    const std::uint64_t now = monotonic_ns();
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (!fatal_.is_ok()) return;
      WorkerSlot& s = slots_[k];
      if (!s.alive || now < s.deadline_at_ns) continue;
      kill_worker(k, "worker " + std::to_string(k) + " missed its " +
                         (s.ready ? "heartbeat" : "startup") + " deadline");
    }
  }

  const SupervisorConfig& config_;
  std::vector<ShardState>* shards_;
  std::vector<std::uint8_t>* present_;
  SupervisedResult* sup_;
  std::vector<WorkerSlot> slots_;
  std::size_t unresolved_ = 0;
  bool stopping_ = false;
  bool worker0_dispatched_ = false;
  Status fatal_;
};

}  // namespace

CampaignSupervisor::CampaignSupervisor(const SsfEvaluator& evaluator,
                                       SupervisorConfig config)
    : evaluator_(&evaluator), config_(std::move(config)) {}

Result<SupervisedResult> CampaignSupervisor::run(Sampler& sampler, Rng& rng,
                                                 std::size_t n) const {
  std::vector<faultsim::FaultSample> samples;
  try {
    samples = evaluator_->draw_batch(sampler, rng, n);
  } catch (const StatusError& e) {
    return e.status();
  }
  return run_batch(std::move(samples));
}

Result<SupervisedResult> CampaignSupervisor::run_batch(
    std::vector<faultsim::FaultSample> samples) const {
  const std::size_t n = samples.size();
  if (config_.workers == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor requires at least one worker");
  }
  if (config_.shard_size == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor shard_size must be > 0");
  }
  if (config_.dir.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor requires a journal directory");
  }
  if (config_.worker_command.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "supervisor requires a worker command");
  }
  // A worker dying mid-write must never SIGPIPE the supervisor.
  ::signal(SIGPIPE, SIG_IGN);

  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    return Status(ErrorCode::kJournalIoError,
                  "cannot create journal directory " + config_.dir + ": " +
                      ec.message());
  }

  SupervisedResult sup;
  std::vector<std::uint8_t> present(n, 0);
  if (!config_.resume) {
    // A fresh campaign must not inherit stale shard files: workers append to
    // any file that carries the campaign fingerprint, which would duplicate
    // spans the moment the same campaign is re-run from scratch.
    std::filesystem::directory_iterator it(config_.dir, ec);
    if (!ec) {
      for (const auto& entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("worker-", 0) == 0 &&
            name.size() > 10 &&
            name.compare(name.size() - 3, 3, ".fj") == 0) {
          std::filesystem::remove(entry.path(), ec);
          if (ec) {
            return Status(ErrorCode::kJournalIoError,
                          "cannot remove stale shard file " + name + ": " +
                              ec.message());
          }
        }
      }
    }
  } else {
    Result<MergedJournal> merged = JournalReader::merge_partial(
        config_.dir, worker_journal_pattern());
    if (merged.is_ok()) {
      if (merged.value().meta.fingerprint != config_.fingerprint ||
          merged.value().meta.total_samples != n) {
        return Status(ErrorCode::kJournalCorrupt,
                      "journal belongs to a different campaign (fingerprint "
                      "or sample count mismatch)");
      }
      present = std::move(merged.value().present);
    } else if (merged.status().code() != ErrorCode::kJournalIoError) {
      return merged.status();
    }
    // kJournalIoError = no shard files yet: resuming a campaign that never
    // started is just a fresh start.
  }

  // Work list: the missing index ranges, chopped to shard_size. No alignment
  // requirement — workers journal exactly the ranges they are assigned, so a
  // resume with a different shard size still fits together.
  std::vector<ShardState> shards;
  for (std::size_t i = 0; i < n;) {
    if (present[i] != 0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && present[j] == 0 && j - i < config_.shard_size) ++j;
    ShardState sh;
    sh.lo = i;
    sh.hi = j;
    shards.push_back(sh);
    i = j;
  }

  if (!shards.empty()) {
    Fleet fleet(config_, &shards, &present, &sup);
    const Status ran = fleet.run();
    if (!ran.is_ok()) return ran;
    if (config_.metrics != nullptr) {
      for (const WorkerSlot& s : fleet.slots()) {
        config_.metrics->merge(s.sink);
      }
    }
  }

  // Assemble the campaign from disk — the journals are the single source of
  // truth for everything the workers evaluated.
  std::vector<SampleRecord> records(n);
  std::vector<std::uint8_t> have(n, 0);
  if (n > 0) {
    Result<MergedJournal> merged = JournalReader::merge_partial(
        config_.dir, worker_journal_pattern());
    if (merged.is_ok()) {
      if (merged.value().meta.fingerprint != config_.fingerprint ||
          merged.value().meta.total_samples != n) {
        return Status(ErrorCode::kJournalCorrupt,
                      "journal belongs to a different campaign (fingerprint "
                      "or sample count mismatch)");
      }
      records = std::move(merged.value().records);
      have = std::move(merged.value().present);
    } else if (!shards.empty() ||
               merged.status().code() != ErrorCode::kJournalIoError) {
      return merged.status();
    }
  }

  // Quarantined shards become kWorkerCrashed records synthesized from the
  // supervisor's own sample batch: the estimate stays well-defined over
  // completed samples and the crash cost is visible in failure_counts.
  for (const ShardState& sh : shards) {
    if (sh.state != ShardState::S::kQuarantined) continue;
    for (std::uint64_t i = sh.lo; i < sh.hi; ++i) {
      SampleRecord rec;
      rec.sample = samples[i];
      rec.path = OutcomePath::kFailed;
      rec.fail_code = ErrorCode::kWorkerCrashed;
      rec.fail_reason = "worker process crashed evaluating shard [" +
                        std::to_string(sh.lo) + ", " +
                        std::to_string(sh.hi) + ") " +
                        std::to_string(sh.attempts) + " time(s); quarantined";
      records[i] = std::move(rec);
      have[i] = 1;
    }
  }

  // An interrupted (graceful-stop) campaign reduces the contiguous prefix,
  // exactly like the single-process engine; later journaled spans stay on
  // disk for the resume.
  std::size_t len = 0;
  while (len < n && have[len] != 0) ++len;
  for (std::size_t i = 0; i < len; ++i) {
    if (!sample_matches(records[i].sample, samples[i])) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journaled sample " + std::to_string(i) +
                        " does not match the re-drawn sample stream");
    }
  }
  records.resize(len);
  SsfResult result = evaluator_->reduce_records(std::move(records));
  result.interrupted = len < n;
  sup.result = std::move(result);

  if (config_.metrics != nullptr) {
    config_.metrics->add_counter("supervisor.restarts", sup.restarts);
    config_.metrics->add_counter("supervisor.quarantined_shards",
                                 sup.quarantined_shards);
    config_.metrics->add_counter("supervisor.quarantined_samples",
                                 sup.quarantined_samples);
    config_.metrics->add_counter("supervisor.storage_full_stops",
                                 sup.storage_full_stops);
    config_.metrics->set_gauge("supervisor.workers",
                               static_cast<double>(config_.workers));
  }
  return sup;
}

}  // namespace fav::mc
