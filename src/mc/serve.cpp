#include "mc/serve.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/io.h"
#include "util/metrics.h"
#include "util/subprocess.h"

namespace fav::mc {

namespace {

using io::get_le;
using io::get_string;
using io::put_le;
using io::put_string;

// --- socket plumbing ------------------------------------------------------

Status fill_sockaddr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status(ErrorCode::kInvalidArgument,
                  "socket path must be 1.." +
                      std::to_string(sizeof(addr->sun_path) - 1) +
                      " bytes, got " + std::to_string(path.size()));
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::ok();
}

/// RAII fd so every early return in the protocol paths closes the socket.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

Result<UniqueFd> connect_unix(const std::string& path) {
  sockaddr_un addr;
  const Status named = fill_sockaddr(path, &addr);
  if (!named.is_ok()) return named;
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) {
    return Status(ErrorCode::kSubprocessFailed,
                  "socket failed: " + io::errno_message(errno));
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status(ErrorCode::kSubprocessFailed,
                  "cannot connect to " + path + ": " +
                      io::errno_message(errno));
  }
  return fd;
}

Result<UniqueFd> bind_and_listen(const std::string& path) {
  sockaddr_un addr;
  const Status named = fill_sockaddr(path, &addr);
  if (!named.is_ok()) return named;
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) {
    return Status(ErrorCode::kSubprocessFailed,
                  "socket failed: " + io::errno_message(errno));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) {
      return Status(ErrorCode::kIoError,
                    "bind " + path + " failed: " + io::errno_message(errno));
    }
    // The path exists. If a daemon is accepting on it, refuse to hijack;
    // if nothing answers, it is a stale file from a crashed daemon —
    // replace it.
    Result<UniqueFd> probe = connect_unix(path);
    if (probe.is_ok()) {
      return Status(ErrorCode::kFailedPrecondition,
                    "another daemon is already serving on " + path);
    }
    if (::unlink(path.c_str()) != 0) {
      return Status(ErrorCode::kIoError, "cannot replace stale socket " +
                                             path + ": " +
                                             io::errno_message(errno));
    }
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status(ErrorCode::kIoError,
                    "bind " + path + " failed: " + io::errno_message(errno));
    }
  }
  if (::listen(fd.get(), 64) != 0) {
    return Status(ErrorCode::kIoError,
                  "listen on " + path + " failed: " + io::errno_message(errno));
  }
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Serialized, throttled progress frames for one client. Campaign progress
/// arrives from arbitrary evaluator threads; the mutex keeps frames whole
/// relative to heartbeats and the end-of-campaign messages, and the throttle
/// keeps a fast campaign from turning the socket into a firehose. Every
/// write carries the configured deadline: a client that stopped draining its
/// socket marks the stream dead instead of wedging an evaluator thread.
class ProgressStream {
 public:
  ProgressStream(int fd, std::uint64_t interval_ms, int write_timeout_ms)
      : fd_(fd),
        interval_ns_(interval_ms * 1'000'000ull),
        write_timeout_ms_(write_timeout_ms) {}

  void send(std::uint64_t done, std::uint64_t total) {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_.load(std::memory_order_relaxed)) return;
    const std::uint64_t now = monotonic_ns();
    if (done < total && now - last_sent_ns_ < interval_ns_ &&
        last_sent_ns_ != 0) {
      return;
    }
    last_sent_ns_ = now;
    // A failed write means the client went away (or wedged); the monitor
    // notices the dead stream and cancels the campaign to a resumable stop.
    write_locked(encode_serve_progress(done, total));
  }

  void heartbeat(bool running) {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_.load(std::memory_order_relaxed)) return;
    write_locked(encode_serve_heartbeat(running));
  }

  /// Final messages, serialized against in-flight progress frames.
  void finish(const std::vector<std::string>& frames) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& frame : frames) {
      if (dead_.load(std::memory_order_relaxed)) return;
      write_locked(frame);
    }
  }

  bool dead() const { return dead_.load(std::memory_order_relaxed); }

 private:
  void write_locked(std::string_view frame) {
    if (!write_frame_deadline(fd_, frame, write_timeout_ms_).is_ok()) {
      dead_.store(true, std::memory_order_relaxed);
    }
  }

  const int fd_;
  const std::uint64_t interval_ns_;
  const int write_timeout_ms_;
  std::mutex mu_;
  std::uint64_t last_sent_ns_ = 0;
  std::atomic<bool> dead_{false};
};

// --- campaign monitor -----------------------------------------------------

/// Why a campaign's cancel token was tripped.
enum class CancelCause { kNone, kClientGone, kClientCancel, kDeadline };

/// Per-campaign watchdog thread: watches the client socket for hangup /
/// kCancel frames, enforces the wall-clock deadline, forwards the daemon's
/// stop flag, and emits heartbeats so the client can tell a slow campaign
/// from a wedged daemon. Works with fd < 0 (ledger-recovered campaigns have
/// no client): only the deadline and stop-flag duties remain.
class CampaignMonitor {
 public:
  CampaignMonitor(int client_fd, FrameBuffer* buf, ProgressStream* stream,
                  const ServeConfig& config, std::atomic<bool>* cancel)
      : fd_(client_fd),
        buf_(buf),
        stream_(stream),
        config_(config),
        cancel_(cancel),
        thread_([this] { loop(); }) {}

  ~CampaignMonitor() { stop(); }

  /// Flips the heartbeat payload from "queued" to "running".
  void set_running() { running_.store(true, std::memory_order_relaxed); }

  void stop() {
    done_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  CancelCause cause() const { return cause_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kPollMs = 20;

  void trip(CancelCause cause) {
    cause_.store(cause, std::memory_order_relaxed);
    cancel_->store(true, std::memory_order_relaxed);
  }

  void loop() {
    const std::uint64_t start_ns = monotonic_ns();
    const std::uint64_t heartbeat_ns =
        config_.heartbeat_interval_ms * 1'000'000ull;
    std::uint64_t next_heartbeat_ns = start_ns + heartbeat_ns;
    while (!done_.load(std::memory_order_relaxed)) {
      if (config_.stop->load(std::memory_order_relaxed)) {
        // Daemon drain: stop the campaign but leave the cause unset — a
        // drained campaign completed (interrupted), it was not cancelled.
        cancel_->store(true, std::memory_order_relaxed);
        return;
      }
      if (config_.campaign_deadline_ms != 0 &&
          monotonic_ns() - start_ns >=
              config_.campaign_deadline_ms * 1'000'000ull) {
        trip(CancelCause::kDeadline);
        return;
      }
      if (stream_ != nullptr && stream_->dead()) {
        trip(CancelCause::kClientGone);
        return;
      }
      if (fd_ >= 0) {
        struct pollfd pfd {};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, kPollMs);
        if (rc < 0 && errno != EINTR) {
          trip(CancelCause::kClientGone);
          return;
        }
        // POLLIN covers both data and EOF; the drain decides which.
        if (rc > 0 && !drain_client()) return;
      } else {
        ::poll(nullptr, 0, kPollMs);
      }
      if (stream_ != nullptr && heartbeat_ns != 0 &&
          monotonic_ns() >= next_heartbeat_ns) {
        stream_->heartbeat(running_.load(std::memory_order_relaxed));
        next_heartbeat_ns += heartbeat_ns;
      }
    }
  }

  /// Reads whatever the client sent mid-campaign. Returns false once the
  /// cancel token was tripped (EOF, kCancel, or protocol garbage).
  bool drain_client() {
    if (!drain_into(fd_, *buf_)) {
      trip(CancelCause::kClientGone);
      return false;
    }
    std::string payload;
    while (buf_->next(&payload)) {
      ServeMessage msg;
      if (!decode_serve_message(payload, &msg)) {
        trip(CancelCause::kClientGone);  // protocol violation = broken peer
        return false;
      }
      if (msg.type == ServeWire::kCancel) {
        trip(CancelCause::kClientCancel);
        return false;
      }
      // Anything else mid-campaign is unexpected but harmless chatter.
    }
    if (buf_->corrupt()) {
      trip(CancelCause::kClientGone);
      return false;
    }
    return true;
  }

  const int fd_;
  FrameBuffer* const buf_;
  ProgressStream* const stream_;
  const ServeConfig& config_;
  std::atomic<bool>* const cancel_;
  std::atomic<bool> running_{false};
  std::atomic<bool> done_{false};
  std::atomic<CancelCause> cause_{CancelCause::kNone};
  std::thread thread_;
};

// --- ledger wire ----------------------------------------------------------

constexpr std::string_view kLedgerMagic("FAVLDGR1", 8);

std::string encode_ledger_payload(CampaignState state, std::uint64_t id) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(state));
  put_le(out, id);
  return out;
}

/// Appends `--resume` to a recovered argv when its journal directory already
/// holds shard files; a campaign that died before its first shard restarts
/// fresh (resume of an empty journal would be refused).
bool maybe_append_resume(std::vector<std::string>* args) {
  std::string journal_dir;
  bool has_resume = false;
  for (std::size_t i = 0; i < args->size(); ++i) {
    if ((*args)[i] == "--journal" && i + 1 < args->size()) {
      journal_dir = (*args)[i + 1];
    }
    if ((*args)[i] == "--resume") has_resume = true;
  }
  if (journal_dir.empty() || has_resume) return false;
  std::error_code ec;
  std::filesystem::directory_iterator it(journal_dir, ec);
  const std::filesystem::directory_iterator end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".fj") {
      args->push_back("--resume");
      return true;
    }
  }
  return false;
}

}  // namespace

// --- codec ----------------------------------------------------------------

std::string encode_serve_request(const std::vector<std::string>& args) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kRequest));
  put_le(out, static_cast<std::uint32_t>(args.size()));
  for (const std::string& a : args) put_string(out, a);
  return out;
}

std::string encode_serve_accepted(std::uint64_t campaign_id) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kAccepted));
  put_le(out, campaign_id);
  return out;
}

std::string encode_serve_progress(std::uint64_t done, std::uint64_t total) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kProgress));
  put_le(out, done);
  put_le(out, total);
  return out;
}

std::string encode_serve_stdout(std::string_view text) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kStdout));
  put_string(out, text);
  return out;
}

std::string encode_serve_report(std::string_view json) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kReport));
  put_string(out, json);
  return out;
}

std::string encode_serve_finished(std::int32_t exit_code) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kFinished));
  put_le(out, exit_code);
  return out;
}

std::string encode_serve_error(std::string_view message,
                               std::int32_t exit_code) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kError));
  put_string(out, message);
  put_le(out, exit_code);
  return out;
}

std::string encode_serve_busy(std::uint64_t retry_after_ms) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kBusy));
  put_le(out, retry_after_ms);
  return out;
}

std::string encode_serve_heartbeat(bool running) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kHeartbeat));
  put_le(out, static_cast<std::uint8_t>(running ? 1 : 0));
  return out;
}

std::string encode_serve_cancel() {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(ServeWire::kCancel));
  return out;
}

bool decode_serve_message(std::string_view payload, ServeMessage* out) {
  *out = ServeMessage{};
  std::size_t off = 0;
  std::uint8_t type = 0;
  if (!get_le(payload, &off, &type)) return false;
  if (type < static_cast<std::uint8_t>(ServeWire::kRequest) ||
      type > static_cast<std::uint8_t>(ServeWire::kCancel)) {
    return false;
  }
  out->type = static_cast<ServeWire>(type);
  switch (out->type) {
    case ServeWire::kRequest: {
      std::uint32_t argc = 0;
      if (!get_le(payload, &off, &argc)) return false;
      if (argc == 0 || argc > kMaxRequestArgs) return false;
      out->args.reserve(argc);
      for (std::uint32_t i = 0; i < argc; ++i) {
        std::string arg;
        if (!get_string(payload, &off, &arg)) return false;
        if (arg.size() > kMaxRequestArgBytes) return false;
        out->args.push_back(std::move(arg));
      }
      return off == payload.size();
    }
    case ServeWire::kAccepted:
      return get_le(payload, &off, &out->campaign_id) &&
             off == payload.size();
    case ServeWire::kProgress:
      return get_le(payload, &off, &out->done) &&
             get_le(payload, &off, &out->total) && off == payload.size();
    case ServeWire::kStdout:
    case ServeWire::kReport:
      return get_string(payload, &off, &out->text) && off == payload.size();
    case ServeWire::kFinished:
      return get_le(payload, &off, &out->exit_code) &&
             off == payload.size();
    case ServeWire::kError:
      return get_string(payload, &off, &out->text) &&
             get_le(payload, &off, &out->exit_code) && off == payload.size();
    case ServeWire::kBusy:
      return get_le(payload, &off, &out->retry_after_ms) &&
             off == payload.size();
    case ServeWire::kHeartbeat: {
      std::uint8_t running = 0;
      if (!get_le(payload, &off, &running)) return false;
      if (running > 1) return false;
      out->running = running == 1;
      return off == payload.size();
    }
    case ServeWire::kCancel:
      return off == payload.size();
  }
  return false;
}

// --- ledger ---------------------------------------------------------------

Result<CampaignLedger> CampaignLedger::open(const std::string& path) {
  CampaignLedger ledger;
  ledger.path_ = path;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) {
    const Status created = ledger.log_.create(path, kLedgerMagic);
    if (!created.is_ok()) return created;
    return ledger;
  }
  // Replay whole records; the first torn, corrupt or undecodable one ends
  // the prefix and is truncated away below — a SIGKILL mid-append must never
  // brick the daemon.
  const Result<io::LogScan> scan = io::RecordLog::scan(
      path, kLedgerMagic, [&ledger](std::string_view payload) {
        // Decode into locals first: a malformed (but CRC-valid) record must
        // end the prefix without leaving a half-parsed entry behind.
        std::size_t p = 0;
        std::uint8_t state = 0;
        std::uint64_t id = 0;
        if (!get_le(payload, &p, &state) || !get_le(payload, &p, &id)) {
          return false;
        }
        bool ok = false;
        std::vector<std::string> args;
        std::int32_t exit_code = 0;
        switch (static_cast<CampaignState>(state)) {
          case CampaignState::kAccepted: {
            std::uint32_t argc = 0;
            if (!get_le(payload, &p, &argc) || argc > kMaxRequestArgs) break;
            ok = true;
            for (std::uint32_t i = 0; ok && i < argc; ++i) {
              std::string arg;
              ok = get_string(payload, &p, &arg) &&
                   arg.size() <= kMaxRequestArgBytes;
              args.push_back(std::move(arg));
            }
            ok = ok && p == payload.size();
            break;
          }
          case CampaignState::kRunning:
            ok = p == payload.size();
            break;
          case CampaignState::kFinished:
            ok = get_le(payload, &p, &exit_code) && p == payload.size();
            break;
          default:
            break;
        }
        if (!ok) return false;
        Entry& entry = ledger.entries_[id];
        entry.id = id;
        entry.state = static_cast<CampaignState>(state);
        if (entry.state == CampaignState::kAccepted) {
          entry.args = std::move(args);
        } else if (entry.state == CampaignState::kFinished) {
          entry.exit_code = exit_code;
        }
        ledger.next_id_ = std::max(ledger.next_id_, id + 1);
        return true;
      });
  if (!scan.is_ok()) {
    if (scan.status().code() == ErrorCode::kJournalCorrupt) {
      // That file is not a ledger: refuse to append records to it.
      return Status(ErrorCode::kJournalCorrupt,
                    "not a campaign ledger (bad magic): " + path);
    }
    return scan.status();
  }
  ledger.discarded_bytes_ = size - scan.value().valid_bytes;
  const Status opened = ledger.log_.open_append(path, scan.value().valid_bytes);
  if (!opened.is_ok()) return opened;
  return ledger;
}

Status CampaignLedger::accepted(std::uint64_t id,
                                const std::vector<std::string>& args) {
  std::string payload = encode_ledger_payload(CampaignState::kAccepted, id);
  put_le(payload, static_cast<std::uint32_t>(args.size()));
  for (const std::string& a : args) put_string(payload, a);
  Entry& entry = entries_[id];
  entry.id = id;
  entry.state = CampaignState::kAccepted;
  entry.args = args;
  next_id_ = std::max(next_id_, id + 1);
  return log_.append(payload);
}

Status CampaignLedger::running(std::uint64_t id) {
  Entry& entry = entries_[id];
  entry.id = id;
  entry.state = CampaignState::kRunning;
  next_id_ = std::max(next_id_, id + 1);
  return log_.append(encode_ledger_payload(CampaignState::kRunning, id));
}

Status CampaignLedger::finished(std::uint64_t id, std::int32_t exit_code) {
  Entry& entry = entries_[id];
  entry.id = id;
  entry.state = CampaignState::kFinished;
  entry.exit_code = exit_code;
  next_id_ = std::max(next_id_, id + 1);
  std::string payload = encode_ledger_payload(CampaignState::kFinished, id);
  put_le(payload, exit_code);
  return log_.append(payload);
}

std::vector<CampaignLedger::Entry> CampaignLedger::interrupted() const {
  std::vector<Entry> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.state != CampaignState::kFinished) out.push_back(entry);
  }
  return out;
}

// --- server ---------------------------------------------------------------

CampaignServer::CampaignServer(ServeConfig config, CampaignRunner runner)
    : config_(std::move(config)), runner_(std::move(runner)) {}

void CampaignServer::log_line(const std::string& line) const {
  if (config_.log) {
    config_.log(line);
  } else {
    std::fprintf(stderr, "fav serve: %s\n", line.c_str());
  }
}

ServeStats CampaignServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CampaignServer::live_handlers() const {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  return handlers_.size();
}

std::string CampaignServer::stats_json() const {
  const ServeStats s = stats();
  std::string json = "{\n  \"schema\": \"fav.serve_stats.v1\",\n";
  json += "  \"socket\": \"" + io::json_escape(config_.socket_path) + "\",\n";
  auto field = [&json](const char* name, std::uint64_t value, bool last) {
    json += "  \"";
    json += name;
    json += "\": " + std::to_string(value) + (last ? "\n" : ",\n");
  };
  field("accepted", s.accepted, false);
  field("completed", s.completed, false);
  field("failed", s.failed, false);
  field("cancelled", s.cancelled, false);
  field("deadline_stopped", s.deadline_stopped, false);
  field("recovered", s.recovered, false);
  field("rejected", s.rejected, false);
  field("busy", s.busy, true);
  json += "}\n";
  return json;
}

void CampaignServer::write_stats_snapshot() const {
  if (config_.stats_path.empty()) return;
  const Status s = io::atomic_write_file(config_.stats_path, stats_json());
  if (!s.is_ok()) {
    log_line("stats snapshot failed: " + s.to_string());
  }
}

Status CampaignServer::ledger_append(
    const std::function<Status(CampaignLedger&)>& op) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  if (ledger_ == nullptr) return Status::ok();
  const Status s = op(*ledger_);
  if (!s.is_ok()) {
    // A failing ledger medium degrades recovery, it must not take down the
    // campaign that is still producing its journal and report.
    log_line("ledger append failed: " + s.to_string());
  }
  return s;
}

void CampaignServer::start_handler(std::function<void()> body) {
  auto handler = std::make_unique<Handler>();
  Handler* raw = handler.get();
  std::thread thread([raw, body = std::move(body)] {
    body();
    raw->done.store(true, std::memory_order_release);
  });
  // The thread member is assigned before the handler becomes visible to the
  // reaper (same mutex), so a join can never observe a half-formed Handler
  // even when the body finishes before push_back.
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handler->thread = std::move(thread);
  handlers_.push_back(std::move(handler));
}

void CampaignServer::reap_handlers() {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void CampaignServer::join_all_handlers() {
  for (;;) {
    std::unique_ptr<Handler> handler;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      if (handlers_.empty()) return;
      handler = std::move(handlers_.front());
      handlers_.pop_front();
    }
    handler->thread.join();
  }
}

CampaignServer::Admission CampaignServer::acquire_slot(
    const std::atomic<bool>& cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) return Admission::kStopped;
  if (active_ < config_.max_concurrent) {
    ++active_;
    return Admission::kRun;
  }
  if (queued_ >= config_.max_queued) return Admission::kBusy;
  ++queued_;
  for (;;) {
    if (draining_) {
      --queued_;
      return Admission::kStopped;
    }
    if (cancel.load(std::memory_order_relaxed)) {
      --queued_;
      return Admission::kCancelled;
    }
    if (active_ < config_.max_concurrent) {
      --queued_;
      ++active_;
      return Admission::kRun;
    }
    // Bounded wait: the cancel token is tripped by the campaign monitor
    // without a condition-variable signal, so the queue polls it.
    slot_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void CampaignServer::release_slot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
  slot_cv_.notify_all();
}

Status CampaignServer::serve() {
  if (config_.stop == nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "serve requires a stop flag (how else would it ever exit)");
  }
  if (config_.max_concurrent == 0 || !runner_) {
    return Status(ErrorCode::kInvalidArgument,
                  "serve requires max_concurrent >= 1 and a runner");
  }
  // A client that hangs up mid-stream must surface as a write error on that
  // one socket, never SIGPIPE the daemon (process-wide and idempotent, like
  // the supervisor's).
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<CampaignLedger::Entry> to_recover;
  std::uint64_t next_id = 1;
  if (!config_.ledger_path.empty()) {
    Result<CampaignLedger> opened = CampaignLedger::open(config_.ledger_path);
    if (!opened.is_ok()) return opened.status();
    auto ledger = std::make_unique<CampaignLedger>(std::move(opened).value());
    if (ledger->discarded_bytes() > 0) {
      log_line("ledger: discarded " +
               std::to_string(ledger->discarded_bytes()) +
               " byte(s) of torn tail");
    }
    to_recover = ledger->interrupted();
    next_id = ledger->next_campaign_id();
    std::lock_guard<std::mutex> lock(ledger_mu_);
    ledger_ = std::move(ledger);
  }

  Result<UniqueFd> bound = bind_and_listen(config_.socket_path);
  if (!bound.is_ok()) return bound.status();
  UniqueFd listen_fd = std::move(bound).value();
  log_line("listening on " + config_.socket_path + " (max " +
           std::to_string(config_.max_concurrent) +
           " concurrent campaigns, queue " +
           std::to_string(config_.max_queued) + ")");

  for (CampaignLedger::Entry& entry : to_recover) {
    log_line("campaign " + std::to_string(entry.id) +
             ": interrupted by a previous crash, recovering");
    start_handler([this, entry = std::move(entry)]() mutable {
      run_recovered(std::move(entry));
    });
  }

  while (!config_.stop->load(std::memory_order_relaxed)) {
    struct pollfd pfd {};
    pfd.fd = listen_fd.get();
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 200);
    reap_handlers();
    if (rc < 0 && errno != EINTR) {
      log_line("accept poll failed: " + io::errno_message(errno));
      break;
    }
    if (rc <= 0) continue;
    const int client =
        ::accept4(listen_fd.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) {
      if (errno != EINTR && errno != ECONNABORTED) {
        log_line("accept failed: " + io::errno_message(errno));
      }
      continue;
    }
    start_handler([this, client, id = next_id++] {
      handle_client(client, id);
    });
  }

  // Drain: wake queued requests so they fail fast, then wait for in-flight
  // campaigns (their monitors forward the stop flag through the cancel
  // tokens and they wind down on their own).
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  slot_cv_.notify_all();
  listen_fd.reset();
  join_all_handlers();
  ::unlink(config_.socket_path.c_str());
  write_stats_snapshot();
  const ServeStats s = stats();
  log_line("drained; " + std::to_string(s.completed) + " completed, " +
           std::to_string(s.failed) + " failed, " +
           std::to_string(s.cancelled) + " cancelled, " +
           std::to_string(s.deadline_stopped) + " deadline-stopped, " +
           std::to_string(s.recovered) + " recovered, " +
           std::to_string(s.rejected) + " rejected, " +
           std::to_string(s.busy) + " busy");
  return Status::ok();
}

void CampaignServer::handle_client(int fd, std::uint64_t campaign_id) {
  UniqueFd client(fd);
  // Non-blocking from the start: every write goes through
  // write_frame_deadline, so a peer that stops draining can only cost one
  // write timeout, never a wedged handler or evaluator thread.
  set_nonblocking(client.get());
  FrameBuffer buf;
  Result<std::string> frame =
      read_frame(client.get(), buf, config_.request_timeout_ms);
  ServeMessage msg;
  if (!frame.is_ok() || !decode_serve_message(frame.value(), &msg) ||
      msg.type != ServeWire::kRequest) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    (void)write_frame_deadline(
        client.get(), encode_serve_error("malformed campaign request", 2),
        config_.write_timeout_ms);
    write_stats_snapshot();
    return;
  }
  // The accepted frame is what tells the client to start reading; a client
  // that cannot take it is already gone and must not consume a slot.
  if (!write_frame_deadline(client.get(),
                            encode_serve_accepted(campaign_id),
                            config_.write_timeout_ms)
           .is_ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cancelled;
    }
    log_line("campaign " + std::to_string(campaign_id) +
             ": client gone before accept");
    write_stats_snapshot();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
  }
  (void)ledger_append([&](CampaignLedger& ledger) {
    return ledger.accepted(campaign_id, msg.args);
  });

  std::atomic<bool> cancel{false};
  ProgressStream progress(client.get(), config_.progress_interval_ms,
                          config_.write_timeout_ms);
  CampaignMonitor monitor(client.get(), &buf, &progress, config_, &cancel);

  const Admission admission = acquire_slot(cancel);
  if (admission != Admission::kRun) {
    monitor.stop();
    std::string note;
    switch (admission) {
      case Admission::kBusy:
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.busy;
        }
        (void)write_frame_deadline(
            client.get(), encode_serve_busy(config_.busy_retry_after_ms),
            config_.write_timeout_ms);
        note = "queue full, sent busy (retry after " +
               std::to_string(config_.busy_retry_after_ms) + " ms)";
        break;
      case Admission::kStopped:
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.rejected;
        }
        (void)write_frame_deadline(
            client.get(), encode_serve_error("server is shutting down", 1),
            config_.write_timeout_ms);
        note = "refused, shutting down";
        break;
      case Admission::kCancelled:
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.cancelled;
        }
        note = "client gone while queued";
        break;
      case Admission::kRun:
        break;
    }
    // The campaign never ran; close its ledger entry so a restart does not
    // replay work the client already knows was turned away.
    (void)ledger_append([&](CampaignLedger& ledger) {
      return ledger.finished(campaign_id, 1);
    });
    log_line("campaign " + std::to_string(campaign_id) + ": " + note);
    write_stats_snapshot();
    return;
  }

  (void)ledger_append([&](CampaignLedger& ledger) {
    return ledger.running(campaign_id);
  });
  monitor.set_running();
  std::string argv_line;
  for (const std::string& a : msg.args) {
    if (!argv_line.empty()) argv_line += ' ';
    argv_line += a;
  }
  log_line("campaign " + std::to_string(campaign_id) + ": " + argv_line);

  CampaignOutcome outcome = runner_(
      msg.args,
      [&progress](std::uint64_t done, std::uint64_t total) {
        progress.send(done, total);
      },
      cancel);
  release_slot();
  monitor.stop();
  const CancelCause cause = monitor.cause();

  std::vector<std::string> tail;
  if (!outcome.error.empty()) {
    tail.push_back(encode_serve_error(
        outcome.error, static_cast<std::int32_t>(outcome.exit_code)));
  } else {
    tail.push_back(encode_serve_stdout(outcome.stdout_block));
    if (!outcome.report_json.empty()) {
      tail.push_back(encode_serve_report(outcome.report_json));
    }
    tail.push_back(
        encode_serve_finished(static_cast<std::int32_t>(outcome.exit_code)));
  }
  progress.finish(tail);
  (void)ledger_append([&](CampaignLedger& ledger) {
    return ledger.finished(campaign_id,
                           static_cast<std::int32_t>(outcome.exit_code));
  });
  std::string note;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!outcome.error.empty()) {
      ++stats_.failed;
    } else if (cause == CancelCause::kClientGone) {
      ++stats_.cancelled;
      note = " (client gone, journal resumable)";
    } else if (cause == CancelCause::kClientCancel) {
      ++stats_.cancelled;
      note = " (cancelled by client, journal resumable)";
    } else if (cause == CancelCause::kDeadline) {
      ++stats_.deadline_stopped;
      note = " (deadline exceeded, journal resumable)";
    } else {
      ++stats_.completed;
    }
  }
  write_stats_snapshot();
  log_line("campaign " + std::to_string(campaign_id) + ": exit " +
           std::to_string(outcome.exit_code) + note +
           (outcome.error.empty() ? "" : " (" + outcome.error + ")"));
}

void CampaignServer::run_recovered(CampaignLedger::Entry entry) {
  std::atomic<bool> cancel{false};
  CampaignMonitor monitor(-1, nullptr, nullptr, config_, &cancel);
  const Admission admission = acquire_slot(cancel);
  if (admission != Admission::kRun) {
    // Drained before it got a slot: leave the ledger entry open so the next
    // start picks the campaign up again.
    monitor.stop();
    return;
  }
  (void)ledger_append([&](CampaignLedger& ledger) {
    return ledger.running(entry.id);
  });
  monitor.set_running();
  std::vector<std::string> args = entry.args;
  const bool resumed = maybe_append_resume(&args);
  log_line("campaign " + std::to_string(entry.id) + ": recovering" +
           (resumed ? " (resuming journal)" : " (restarting fresh)"));
  const CampaignRunner& runner =
      config_.recovery_runner ? config_.recovery_runner : runner_;
  CampaignOutcome outcome = runner(args, ProgressFn{}, cancel);
  release_slot();
  monitor.stop();
  const CancelCause cause = monitor.cause();
  // Interrupted again by a drain (not by its deadline): still resumable,
  // leave the entry open for the next start. Exit 3 is the CLI's
  // resumable-stop code.
  if (cause == CancelCause::kNone && outcome.error.empty() &&
      outcome.exit_code == 3 &&
      config_.stop->load(std::memory_order_relaxed)) {
    log_line("campaign " + std::to_string(entry.id) +
             ": recovery interrupted by drain, will resume on next start");
    return;
  }
  (void)ledger_append([&](CampaignLedger& ledger) {
    return ledger.finished(entry.id,
                           static_cast<std::int32_t>(outcome.exit_code));
  });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!outcome.error.empty()) {
      ++stats_.failed;
    } else if (cause == CancelCause::kDeadline) {
      ++stats_.deadline_stopped;
    } else {
      ++stats_.recovered;
    }
  }
  write_stats_snapshot();
  log_line("campaign " + std::to_string(entry.id) + ": recovered, exit " +
           std::to_string(outcome.exit_code) +
           (outcome.error.empty() ? "" : " (" + outcome.error + ")"));
}

// --- client ---------------------------------------------------------------

namespace {

/// One connect + request + stream-until-terminal attempt. Sets *busy (with
/// the server's retry hint) instead of failing when the daemon turned the
/// request away with kBusy.
Result<SubmitResult> submit_once(const std::string& socket_path,
                                 const std::vector<std::string>& args,
                                 const SubmitOptions& options, bool* busy,
                                 std::uint64_t* retry_after_ms) {
  *busy = false;
  Result<UniqueFd> connected = connect_unix(socket_path);
  if (!connected.is_ok()) return connected.status();
  UniqueFd fd = std::move(connected).value();
  const Status sent = write_frame(fd.get(), encode_serve_request(args));
  if (!sent.is_ok()) return sent;

  SubmitResult result;
  FrameBuffer buf;
  bool cancel_sent = false;
  std::uint64_t last_frame_ns = monotonic_ns();
  // Slice the wait so cancellation and the idle timeout stay responsive
  // even while the daemon is silent; with neither configured a single
  // blocking read suffices (a dead server still surfaces as EOF).
  const bool sliced = options.idle_timeout_ms >= 0 || options.cancel != nullptr;
  for (;;) {
    Result<std::string> frame = read_frame(fd.get(), buf, sliced ? 100 : -1);
    if (!frame.is_ok()) {
      if (sliced && frame.status().code() == ErrorCode::kDeadlineExceeded) {
        if (options.cancel != nullptr && !cancel_sent &&
            options.cancel->load(std::memory_order_relaxed)) {
          cancel_sent = true;
          const Status cancel_status =
              write_frame(fd.get(), encode_serve_cancel());
          if (!cancel_status.is_ok()) {
            return Status(cancel_status.code(),
                          "cannot send cancel: " + cancel_status.to_string());
          }
        }
        if (options.idle_timeout_ms >= 0 &&
            monotonic_ns() - last_frame_ns >=
                static_cast<std::uint64_t>(options.idle_timeout_ms) *
                    1'000'000ull) {
          return Status(ErrorCode::kDeadlineExceeded,
                        "no frame from the serve daemon in " +
                            std::to_string(options.idle_timeout_ms) +
                            " ms (wedged daemon?)");
        }
        continue;
      }
      return Status(frame.status().code(),
                    "serve stream ended early: " + frame.status().to_string());
    }
    last_frame_ns = monotonic_ns();
    ServeMessage msg;
    if (!decode_serve_message(frame.value(), &msg)) {
      return Status(ErrorCode::kSubprocessFailed,
                    "malformed frame from serve daemon");
    }
    switch (msg.type) {
      case ServeWire::kAccepted:
        break;  // informational
      case ServeWire::kHeartbeat:
        if (options.on_heartbeat) options.on_heartbeat();
        break;
      case ServeWire::kProgress:
        if (options.on_progress) options.on_progress(msg.done, msg.total);
        break;
      case ServeWire::kStdout:
        result.stdout_block = std::move(msg.text);
        break;
      case ServeWire::kReport:
        result.report_json = std::move(msg.text);
        break;
      case ServeWire::kFinished:
        result.exit_code = static_cast<int>(msg.exit_code);
        return result;
      case ServeWire::kError:
        result.error = std::move(msg.text);
        result.exit_code = static_cast<int>(msg.exit_code);
        return result;
      case ServeWire::kBusy:
        *busy = true;
        *retry_after_ms = msg.retry_after_ms;
        return result;
      case ServeWire::kRequest:
      case ServeWire::kCancel:
        return Status(ErrorCode::kSubprocessFailed,
                      "unexpected frame from serve daemon");
    }
  }
}

}  // namespace

Result<SubmitResult> submit_campaign(const std::string& socket_path,
                                     const std::vector<std::string>& args,
                                     const SubmitOptions& options) {
  if (args.empty() || args.size() > kMaxRequestArgs) {
    return Status(ErrorCode::kInvalidArgument,
                  "a campaign request needs 1.." +
                      std::to_string(kMaxRequestArgs) + " arguments");
  }
  for (const std::string& a : args) {
    if (a.size() > kMaxRequestArgBytes) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign argument exceeds " +
                        std::to_string(kMaxRequestArgBytes) + " bytes");
    }
  }
  for (std::size_t attempt = 0;; ++attempt) {
    bool busy = false;
    std::uint64_t retry_after_ms = 0;
    Result<SubmitResult> outcome =
        submit_once(socket_path, args, options, &busy, &retry_after_ms);
    if (!outcome.is_ok() || !busy) return outcome;
    if (attempt >= options.busy_retries) {
      return Status(ErrorCode::kUnavailable,
                    "server is at capacity (busy after " +
                        std::to_string(attempt + 1) + " attempt(s))");
    }
    // Bounded exponential backoff from the server's hint (or the caller's
    // override), capped so a long outage cannot push retries out by hours.
    const std::uint64_t base = options.retry_backoff_ms != 0
                                   ? options.retry_backoff_ms
                                   : std::max<std::uint64_t>(retry_after_ms, 1);
    const std::uint64_t delay_ms = std::min<std::uint64_t>(
        base << std::min<std::size_t>(attempt, 10), 30'000);
    if (options.on_busy) options.on_busy(delay_ms);
    const std::uint64_t resume_ns = monotonic_ns() + delay_ms * 1'000'000ull;
    while (monotonic_ns() < resume_ns) {
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        return Status(ErrorCode::kUnavailable,
                      "cancelled while backing off from a busy server");
      }
      ::poll(nullptr, 0, 10);
    }
  }
}

Result<SubmitResult> submit_campaign(const std::string& socket_path,
                                     const std::vector<std::string>& args,
                                     const ProgressFn& on_progress) {
  SubmitOptions options;
  options.on_progress = on_progress;
  return submit_campaign(socket_path, args, options);
}

}  // namespace fav::mc
