// Tests for the campaign serving tier (mc/serve.h): wire codec round-trips
// and strict rejection, a real Unix-socket server driven through
// submit_campaign with a fake CampaignRunner — result streaming, progress,
// error paths, the concurrency slot gate and graceful drain — plus the
// robustness surface: cancellation on client disconnect / explicit cancel,
// per-campaign deadlines, bounded admission (kBusy + retry), heartbeats,
// handler-thread reaping, protocol-stage disconnect chaos, and the
// crash-recovery ledger.
#include "mc/serve.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/subprocess.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

TEST(ServeCodec, RequestRoundTrip) {
  const std::vector<std::string> args = {"evaluate", "--samples", "400",
                                         "--seed", "2017"};
  ServeMessage msg;
  ASSERT_TRUE(decode_serve_message(encode_serve_request(args), &msg));
  EXPECT_EQ(msg.type, ServeWire::kRequest);
  EXPECT_EQ(msg.args, args);
}

TEST(ServeCodec, AllServerFramesRoundTrip) {
  ServeMessage msg;
  ASSERT_TRUE(decode_serve_message(encode_serve_accepted(42), &msg));
  EXPECT_EQ(msg.type, ServeWire::kAccepted);
  EXPECT_EQ(msg.campaign_id, 42u);

  ASSERT_TRUE(decode_serve_message(encode_serve_progress(7, 400), &msg));
  EXPECT_EQ(msg.type, ServeWire::kProgress);
  EXPECT_EQ(msg.done, 7u);
  EXPECT_EQ(msg.total, 400u);

  ASSERT_TRUE(decode_serve_message(encode_serve_stdout("SSF : 0.5\n"), &msg));
  EXPECT_EQ(msg.type, ServeWire::kStdout);
  EXPECT_EQ(msg.text, "SSF : 0.5\n");

  ASSERT_TRUE(decode_serve_message(encode_serve_report("{}\n"), &msg));
  EXPECT_EQ(msg.type, ServeWire::kReport);
  EXPECT_EQ(msg.text, "{}\n");

  ASSERT_TRUE(decode_serve_message(encode_serve_finished(3), &msg));
  EXPECT_EQ(msg.type, ServeWire::kFinished);
  EXPECT_EQ(msg.exit_code, 3);

  ASSERT_TRUE(decode_serve_message(encode_serve_error("bad request", 2), &msg));
  EXPECT_EQ(msg.type, ServeWire::kError);
  EXPECT_EQ(msg.text, "bad request");
  EXPECT_EQ(msg.exit_code, 2);
}

TEST(ServeCodec, RobustnessFramesRoundTrip) {
  ServeMessage msg;
  ASSERT_TRUE(decode_serve_message(encode_serve_busy(750), &msg));
  EXPECT_EQ(msg.type, ServeWire::kBusy);
  EXPECT_EQ(msg.retry_after_ms, 750u);

  ASSERT_TRUE(decode_serve_message(encode_serve_heartbeat(true), &msg));
  EXPECT_EQ(msg.type, ServeWire::kHeartbeat);
  EXPECT_TRUE(msg.running);
  ASSERT_TRUE(decode_serve_message(encode_serve_heartbeat(false), &msg));
  EXPECT_FALSE(msg.running);

  ASSERT_TRUE(decode_serve_message(encode_serve_cancel(), &msg));
  EXPECT_EQ(msg.type, ServeWire::kCancel);

  // Truncated fields, trailing bytes, an out-of-range type, and a heartbeat
  // whose running byte is neither 0 nor 1 all fail.
  const std::string busy = encode_serve_busy(1);
  EXPECT_FALSE(decode_serve_message(
      std::string_view(busy).substr(0, busy.size() - 1), &msg));
  EXPECT_FALSE(decode_serve_message(encode_serve_cancel() + "x", &msg));
  EXPECT_FALSE(decode_serve_message(std::string(1, '\x0b'), &msg));
  std::string hb;
  hb.push_back(static_cast<char>(ServeWire::kHeartbeat));
  hb.push_back('\x02');
  EXPECT_FALSE(decode_serve_message(hb, &msg));
}

TEST(ServeCodec, RejectsMalformedPayloads) {
  ServeMessage msg;
  EXPECT_FALSE(decode_serve_message("", &msg));
  EXPECT_FALSE(decode_serve_message(std::string(1, '\x00'), &msg));
  EXPECT_FALSE(decode_serve_message(std::string(1, '\x63'), &msg));
  // Truncated fields.
  const std::string acc = encode_serve_accepted(7);
  EXPECT_FALSE(decode_serve_message(
      std::string_view(acc).substr(0, acc.size() - 1), &msg));
  const std::string prog = encode_serve_progress(1, 2);
  EXPECT_FALSE(decode_serve_message(
      std::string_view(prog).substr(0, prog.size() - 3), &msg));
  // Trailing bytes after a complete message.
  EXPECT_FALSE(decode_serve_message(encode_serve_finished(0) + "x", &msg));
  // Request bounds: zero args, too many args, an oversized arg.
  std::string zero;
  zero.push_back(static_cast<char>(ServeWire::kRequest));
  zero.append("\x00\x00\x00\x00", 4);
  EXPECT_FALSE(decode_serve_message(zero, &msg));
  EXPECT_FALSE(decode_serve_message(
      encode_serve_request(std::vector<std::string>(kMaxRequestArgs + 1, "x")),
      &msg));
  EXPECT_FALSE(decode_serve_message(
      encode_serve_request({std::string(kMaxRequestArgBytes + 1, 'a')}),
      &msg));
  // The same shapes at the bound are fine.
  EXPECT_TRUE(decode_serve_message(
      encode_serve_request(std::vector<std::string>(kMaxRequestArgs, "x")),
      &msg));
  EXPECT_TRUE(decode_serve_message(
      encode_serve_request({std::string(kMaxRequestArgBytes, 'a')}), &msg));
}

/// Polls `pred` every 10 ms until it holds or `timeout_ms` elapses.
template <typename Pred>
bool wait_for(Pred pred, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms / 10; ++i) {
    if (pred()) return true;
    ::usleep(10'000);
  }
  return pred();
}

/// One live CampaignServer on a fresh socket path, torn down via the stop
/// flag on destruction. The runner is supplied per test; `tweak` customizes
/// the ServeConfig (deadline, queue depth, ledger, ...) before serve().
class ServerFixture {
 public:
  using Tweak = std::function<void(ServeConfig&)>;

  explicit ServerFixture(CampaignRunner runner, std::size_t max_concurrent = 1,
                         std::uint64_t progress_interval_ms = 0,
                         const Tweak& tweak = {}) {
    socket_path_ = (fs::path(::testing::TempDir()) /
                    ("fav_serve_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter_++) + ".sock"))
                       .string();
    fs::remove(socket_path_);
    ServeConfig config;
    config.socket_path = socket_path_;
    config.max_concurrent = max_concurrent;
    config.progress_interval_ms = progress_interval_ms;
    config.stop = &stop_;
    config.log = [](const std::string&) {};  // keep test output quiet
    if (tweak) tweak(config);
    server_ = std::make_unique<CampaignServer>(config, std::move(runner));
    thread_ = std::thread([this] { status_ = server_->serve(); });
    // serve() owns the bind; wait until the socket exists (or fails fast).
    for (int i = 0; i < 500 && !fs::exists(socket_path_); ++i) {
      ::usleep(10'000);
    }
  }

  ~ServerFixture() { shutdown(); }

  void shutdown() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }

  const std::string& socket_path() const { return socket_path_; }
  const Status& status() const { return status_; }
  ServeStats stats() const { return server_->stats(); }
  std::size_t live_handlers() const { return server_->live_handlers(); }

 private:
  static inline std::atomic<int> counter_{0};
  std::string socket_path_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<CampaignServer> server_;
  std::thread thread_;
  Status status_ = Status::ok();
};

CampaignRunner ok_runner() {
  return [](const std::vector<std::string>&, const ProgressFn&,
            const std::atomic<bool>&) {
    CampaignOutcome out;
    out.exit_code = 0;
    out.stdout_block = "ok\n";
    return out;
  };
}

/// A runner shaped like the real one: campaigns without "--quick" hold their
/// slot until the cancel token trips (then wind down to a resumable exit 3),
/// campaigns with "--quick" finish immediately. `started` counts slow
/// campaigns that reached the runner.
CampaignRunner cancellable_runner(std::atomic<int>* started = nullptr) {
  return [started](const std::vector<std::string>& args, const ProgressFn&,
                   const std::atomic<bool>& cancel) {
    CampaignOutcome out;
    if (std::find(args.begin(), args.end(), "--quick") != args.end()) {
      out.exit_code = 0;
      out.stdout_block = "ok\n";
      return out;
    }
    if (started != nullptr) started->fetch_add(1);
    for (int i = 0; i < 1000 && !cancel.load(); ++i) ::usleep(5'000);
    out.exit_code = cancel.load() ? 3 : 1;
    out.stdout_block = "interrupted\n";
    return out;
  };
}

/// Raw AF_UNIX client for the disconnect-chaos tests (submit_campaign is too
/// well-behaved to tear the protocol at arbitrary stages).
int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(CampaignServer, StreamsOutcomeProgressAndReport) {
  ServerFixture server(
      [](const std::vector<std::string>& args, const ProgressFn& progress,
         const std::atomic<bool>&) {
        CampaignOutcome out;
        out.exit_code = 0;
        out.stdout_block = "SSF : 0.25\n";
        out.report_json = "{\"args\": " + std::to_string(args.size()) + "}\n";
        for (std::uint64_t i = 1; i <= 5; ++i) progress(i, 5);
        return out;
      },
      /*max_concurrent=*/2);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  Result<CampaignOutcome> sent = submit_campaign(
      server.socket_path(), {"evaluate", "--samples", "5"},
      [&seen](std::uint64_t done, std::uint64_t total) {
        seen.emplace_back(done, total);
      });
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(sent.value().exit_code, 0);
  EXPECT_EQ(sent.value().stdout_block, "SSF : 0.25\n");
  EXPECT_EQ(sent.value().report_json, "{\"args\": 3}\n");
  EXPECT_TRUE(sent.value().error.empty());
  // interval 0: every tick streams, and the final 5/5 frame always ships.
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back(), (std::pair<std::uint64_t, std::uint64_t>(5, 5)));
  server.shutdown();
  EXPECT_TRUE(server.status().is_ok()) << server.status().to_string();
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().rejected, 0u);
}

TEST(CampaignServer, RunnerErrorReachesClientWithExitCode) {
  ServerFixture server([](const std::vector<std::string>&, const ProgressFn&,
                          const std::atomic<bool>&) {
    CampaignOutcome out;
    out.exit_code = 2;
    out.error = "unknown flag --bogus";
    return out;
  });
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate", "--bogus"});
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(sent.value().exit_code, 2);
  EXPECT_EQ(sent.value().error, "unknown flag --bogus");
  EXPECT_TRUE(sent.value().stdout_block.empty());
  server.shutdown();
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(CampaignServer, SubmitFailsCleanlyWithoutDaemon) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "fav_serve_nobody.sock").string();
  fs::remove(path);
  Result<CampaignOutcome> sent = submit_campaign(path, {"evaluate"});
  ASSERT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.status().code(), ErrorCode::kSubprocessFailed);
}

TEST(CampaignServer, SubmitValidatesRequestBounds) {
  EXPECT_EQ(submit_campaign("/tmp/x.sock", {}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(submit_campaign("/tmp/x.sock",
                            std::vector<std::string>(kMaxRequestArgs + 1, "x"))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(submit_campaign("/tmp/x.sock",
                            {std::string(kMaxRequestArgBytes + 1, 'a')})
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(CampaignServer, SlotGateBoundsConcurrentCampaigns) {
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  ServerFixture server(
      [&](const std::vector<std::string>&, const ProgressFn&,
          const std::atomic<bool>&) {
        const int now = running.fetch_add(1) + 1;
        int seen = high_water.load();
        while (seen < now && !high_water.compare_exchange_weak(seen, now)) {
        }
        ::usleep(100'000);  // hold the slot long enough to overlap
        running.fetch_sub(1);
        CampaignOutcome out;
        out.exit_code = 0;
        out.stdout_block = "ok\n";
        return out;
      },
      /*max_concurrent=*/1);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&server, &failures] {
      Result<CampaignOutcome> sent =
          submit_campaign(server.socket_path(), {"evaluate"});
      if (!sent.is_ok() || sent.value().exit_code != 0) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(high_water.load(), 1)
      << "max_concurrent=1 must serialize campaigns";
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(CampaignServer, ClientDisconnectCancelsCampaignAndFreesSlot) {
  std::atomic<int> started{0};
  ServerFixture server(cancellable_runner(&started), /*max_concurrent=*/1);
  {
    const int fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_frame(fd, encode_serve_request({"evaluate"})).is_ok());
    FrameBuffer buf;
    Result<std::string> accepted = read_frame(fd, buf, 5000);
    ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
    ASSERT_TRUE(wait_for([&] { return started.load() > 0; }));
    ::close(fd);  // the client vanishes mid-campaign
  }
  ASSERT_TRUE(wait_for([&] { return server.stats().cancelled == 1; }))
      << "client hangup must trip the campaign's cancel token";
  // The slot is free again: a well-behaved campaign still goes through.
  Result<CampaignOutcome> good =
      submit_campaign(server.socket_path(), {"evaluate", "--quick"});
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value().exit_code, 0);
  server.shutdown();
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(CampaignServer, ExplicitCancelFrameStopsCampaign) {
  std::atomic<int> started{0};
  ServerFixture server(cancellable_runner(&started), /*max_concurrent=*/1);
  std::atomic<bool> cancel{false};
  SubmitOptions opts;
  opts.cancel = &cancel;
  std::thread trigger([&] {
    wait_for([&] { return started.load() > 0; });
    cancel.store(true);
  });
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate"}, opts);
  trigger.join();
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(sent.value().exit_code, 3)
      << "a cancelled campaign winds down to the resumable exit code";
  EXPECT_EQ(sent.value().stdout_block, "interrupted\n");
  server.shutdown();
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(CampaignServer, DeadlineStopsOverlongCampaign) {
  ServerFixture server(cancellable_runner(), /*max_concurrent=*/1,
                       /*progress_interval_ms=*/0, [](ServeConfig& config) {
                         config.campaign_deadline_ms = 60;
                       });
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate"});
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(sent.value().exit_code, 3);
  EXPECT_EQ(sent.value().stdout_block, "interrupted\n");
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_stopped, 1u);
  EXPECT_EQ(server.stats().cancelled, 0u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(CampaignServer, QueueOverflowSendsBusyAndRetrySucceeds) {
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  CampaignRunner runner = [&](const std::vector<std::string>&,
                              const ProgressFn&,
                              const std::atomic<bool>& cancel) {
    started.fetch_add(1);
    while (!release.load() && !cancel.load()) ::usleep(2'000);
    CampaignOutcome out;
    out.exit_code = 0;
    out.stdout_block = "ok\n";
    return out;
  };
  ServerFixture server(runner, /*max_concurrent=*/1,
                       /*progress_interval_ms=*/0, [](ServeConfig& config) {
                         config.max_queued = 0;
                       });
  std::thread holder(
      [&] { submit_campaign(server.socket_path(), {"evaluate"}); });
  ASSERT_TRUE(wait_for([&] { return started.load() == 1; }));
  // Without retries the overflow surfaces as kUnavailable.
  SubmitOptions no_retry;
  no_retry.busy_retries = 0;
  Result<CampaignOutcome> refused =
      submit_campaign(server.socket_path(), {"evaluate"}, no_retry);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kUnavailable);
  EXPECT_GE(server.stats().busy, 1u);
  // With retries: the busy refusal triggers backoff, releasing the held slot
  // lets a later attempt through.
  SubmitOptions retry;
  retry.busy_retries = 20;
  retry.retry_backoff_ms = 10;
  std::atomic<int> busy_seen{0};
  retry.on_busy = [&](std::uint64_t) {
    busy_seen.fetch_add(1);
    release.store(true);
  };
  Result<CampaignOutcome> ok =
      submit_campaign(server.socket_path(), {"evaluate"}, retry);
  holder.join();
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().exit_code, 0);
  EXPECT_GE(busy_seen.load(), 1);
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(CampaignServer, HeartbeatsReachTheClient) {
  CampaignRunner slow = [](const std::vector<std::string>&, const ProgressFn&,
                           const std::atomic<bool>& cancel) {
    for (int i = 0; i < 15 && !cancel.load(); ++i) ::usleep(10'000);
    CampaignOutcome out;
    out.exit_code = 0;
    out.stdout_block = "ok\n";
    return out;
  };
  ServerFixture server(slow, /*max_concurrent=*/1, /*progress_interval_ms=*/0,
                       [](ServeConfig& config) {
                         config.heartbeat_interval_ms = 10;
                       });
  std::atomic<int> beats{0};
  SubmitOptions opts;
  opts.on_heartbeat = [&] { beats.fetch_add(1); };
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate"}, opts);
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(sent.value().exit_code, 0);
  EXPECT_GE(beats.load(), 1)
      << "a 150 ms campaign at 10 ms heartbeat spacing must beat at least "
         "once";
}

TEST(CampaignServer, IdleTimeoutFlagsWedgedDaemon) {
  // Heartbeats off: from the client's view the daemon goes silent after the
  // accepted frame, which is exactly what a wedged daemon looks like.
  ServerFixture server(cancellable_runner(), /*max_concurrent=*/1,
                       /*progress_interval_ms=*/200, [](ServeConfig& config) {
                         config.heartbeat_interval_ms = 0;
                       });
  SubmitOptions opts;
  opts.idle_timeout_ms = 80;
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate"}, opts);
  ASSERT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(sent.status().to_string().find("wedged"), std::string::npos)
      << sent.status().to_string();
}

TEST(CampaignServer, HandlerThreadsAreReaped) {
  ServerFixture server(ok_runner(), /*max_concurrent=*/2);
  for (int i = 0; i < 32; ++i) {
    Result<CampaignOutcome> sent =
        submit_campaign(server.socket_path(), {"evaluate"});
    ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
    ASSERT_EQ(sent.value().exit_code, 0);
  }
  // The accept loop reaps finished handlers every tick: the live set must
  // shrink back to ~0 instead of holding one thread per connection ever
  // accepted.
  EXPECT_TRUE(wait_for([&] { return server.live_handlers() <= 2; }, 3000))
      << "live handlers after 32 sequential campaigns: "
      << server.live_handlers();
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 32u);
}

TEST(CampaignServer, ClientGoneRightAfterRequestDoesNotLeakSlots) {
  ServerFixture server(ok_runner(), /*max_concurrent=*/1);
  for (int i = 0; i < 5; ++i) {
    const int fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_frame(fd, encode_serve_request({"evaluate"})).is_ok());
    ::close(fd);  // gone before (or while) the accepted frame ships
  }
  // Each of the five resolves as completed (runner won the race) or
  // cancelled (the hangup was seen first) — never as a leaked slot.
  ASSERT_TRUE(wait_for([&] {
    const ServeStats s = server.stats();
    return s.completed + s.cancelled == 5;
  }));
  Result<CampaignOutcome> good =
      submit_campaign(server.socket_path(), {"evaluate"});
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value().exit_code, 0);
}

TEST(CampaignServer, ProtocolStageDisconnectsNeverWedgeTheDaemon) {
  std::atomic<int> started{0};
  ServerFixture server(cancellable_runner(&started), /*max_concurrent=*/2);
  for (int round = 0; round < 3; ++round) {
    // (a) Connect and vanish before any frame.
    int fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ::close(fd);
    // (b) A torn length prefix, then vanish.
    fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, "\x02\x00", 2), 2);
    ::close(fd);
    // (c) A full request, then vanish before reading anything back.
    fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_frame(fd, encode_serve_request({"evaluate"})).is_ok());
    ::close(fd);
    // (d) A full request, read the accepted frame, vanish mid-campaign.
    fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_frame(fd, encode_serve_request({"evaluate"})).is_ok());
    FrameBuffer buf;
    Result<std::string> accepted = read_frame(fd, buf, 5000);
    ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
    ::close(fd);
  }
  // Every slow campaign winds down via its cancel token, every torn opener
  // is rejected, and no slot or handler leaks.
  ASSERT_TRUE(wait_for([&] {
    const ServeStats s = server.stats();
    return s.cancelled + s.completed == 6 && s.rejected == 6;
  })) << "cancelled=" << server.stats().cancelled
      << " completed=" << server.stats().completed
      << " rejected=" << server.stats().rejected;
  Result<CampaignOutcome> good =
      submit_campaign(server.socket_path(), {"evaluate", "--quick"});
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value().exit_code, 0);
  EXPECT_TRUE(wait_for([&] { return server.live_handlers() <= 2; }, 3000))
      << server.live_handlers();
  server.shutdown();
  EXPECT_TRUE(server.status().is_ok()) << server.status().to_string();
}

TEST(CampaignServer, MalformedOpenerIsRejectedNotFatal) {
  ServerFixture server(ok_runner());
  {
    // A client whose first frame is not a request (a progress frame) must be
    // turned away with a kError frame, and the daemon must keep serving.
    const int fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_frame(fd, encode_serve_progress(1, 2)).is_ok());
    FrameBuffer buf;
    Result<std::string> reply = read_frame(fd, buf, 5000);
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    ServeMessage msg;
    ASSERT_TRUE(decode_serve_message(reply.value(), &msg));
    EXPECT_EQ(msg.type, ServeWire::kError);
    EXPECT_EQ(msg.exit_code, 2);
    ::close(fd);
  }
  Result<CampaignOutcome> good =
      submit_campaign(server.socket_path(), {"evaluate"});
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value().exit_code, 0);
  server.shutdown();
  EXPECT_TRUE(server.status().is_ok());
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(CampaignServer, StaleSocketFileIsReplaced) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "fav_serve_stale.sock").string();
  fs::remove(path);
  // A crashed daemon leaves a socket path nothing accepts on. A plain file
  // reproduces the same bind EADDRINUSE + dead probe-connect sequence.
  { std::ofstream(path) << ""; }
  ASSERT_TRUE(fs::exists(path));
  std::atomic<bool> stop{false};
  ServeConfig config;
  config.socket_path = path;
  config.max_concurrent = 1;
  config.stop = &stop;
  config.log = [](const std::string&) {};
  CampaignServer server(config, ok_runner());
  Status status = Status::ok();
  std::thread t([&] { status = server.serve(); });
  bool served = false;
  for (int i = 0; i < 500 && !served; ++i) {
    Result<CampaignOutcome> sent = submit_campaign(path, {"evaluate"});
    if (sent.is_ok()) {
      EXPECT_EQ(sent.value().exit_code, 0);
      served = true;
    } else {
      ::usleep(10'000);
    }
  }
  stop.store(true);
  t.join();
  EXPECT_TRUE(served) << status.to_string();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_FALSE(fs::exists(path)) << "clean shutdown unlinks the socket";
}

TEST(CampaignServer, RefusesToHijackALiveDaemon) {
  ServerFixture server(ok_runner());
  ASSERT_TRUE(fs::exists(server.socket_path()));
  std::atomic<bool> stop{false};
  ServeConfig config;
  config.socket_path = server.socket_path();
  config.stop = &stop;
  config.log = [](const std::string&) {};
  CampaignServer second(config, ok_runner());
  const Status status = second.serve();
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
}

TEST(CampaignServer, ConfigValidation) {
  std::atomic<bool> stop{false};
  {
    ServeConfig config;  // no stop flag
    config.socket_path = "/tmp/x.sock";
    CampaignServer server(config, ok_runner());
    EXPECT_EQ(server.serve().code(), ErrorCode::kInvalidArgument);
  }
  {
    ServeConfig config;
    config.socket_path = "/tmp/x.sock";
    config.stop = &stop;
    config.max_concurrent = 0;
    CampaignServer server(config, ok_runner());
    EXPECT_EQ(server.serve().code(), ErrorCode::kInvalidArgument);
  }
  {
    ServeConfig config;
    config.socket_path = std::string(200, 'a');  // exceeds sun_path
    config.stop = &stop;
    CampaignServer server(config, ok_runner());
    EXPECT_EQ(server.serve().code(), ErrorCode::kInvalidArgument);
  }
}

// --- crash-recovery ledger --------------------------------------------------

std::string fresh_ledger_path(const std::string& tag) {
  const std::string path =
      (fs::path(::testing::TempDir()) /
       ("fav_ledger_" + tag + "_" + std::to_string(::getpid()) + ".fvl"))
          .string();
  fs::remove(path);
  return path;
}

TEST(CampaignLedger, LifecycleRoundTripAcrossReopen) {
  const std::string path = fresh_ledger_path("roundtrip");
  const std::vector<std::string> args2 = {"evaluate", "--seed", "7"};
  {
    Result<CampaignLedger> lg = CampaignLedger::open(path);
    ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
    EXPECT_EQ(lg.value().next_campaign_id(), 1u);
    ASSERT_TRUE(
        lg.value().accepted(1, {"evaluate", "--samples", "8"}).is_ok());
    ASSERT_TRUE(lg.value().running(1).is_ok());
    ASSERT_TRUE(lg.value().finished(1, 0).is_ok());
    ASSERT_TRUE(lg.value().accepted(2, args2).is_ok());
    ASSERT_TRUE(lg.value().running(2).is_ok());
    ASSERT_TRUE(lg.value().accepted(3, {"evaluate"}).is_ok());
  }
  Result<CampaignLedger> lg = CampaignLedger::open(path);
  ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
  EXPECT_EQ(lg.value().discarded_bytes(), 0u);
  EXPECT_EQ(lg.value().next_campaign_id(), 4u);
  const std::vector<CampaignLedger::Entry> open_entries =
      lg.value().interrupted();
  ASSERT_EQ(open_entries.size(), 2u)
      << "finished campaigns must not be replayed";
  EXPECT_EQ(open_entries[0].id, 2u);
  EXPECT_EQ(open_entries[0].state, CampaignState::kRunning);
  EXPECT_EQ(open_entries[0].args, args2)
      << "the argv from the accepted record must survive the running record";
  EXPECT_EQ(open_entries[1].id, 3u);
  EXPECT_EQ(open_entries[1].state, CampaignState::kAccepted);
}

TEST(CampaignLedger, TornTailIsTruncatedNotFatal) {
  const std::string path = fresh_ledger_path("torn");
  {
    Result<CampaignLedger> lg = CampaignLedger::open(path);
    ASSERT_TRUE(lg.is_ok());
    ASSERT_TRUE(lg.value().accepted(1, {"evaluate"}).is_ok());
    ASSERT_TRUE(lg.value().finished(1, 0).is_ok());
  }
  // A SIGKILL mid-append leaves a length prefix that promises more bytes
  // than exist.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00ab", 6);
  }
  {
    Result<CampaignLedger> lg = CampaignLedger::open(path);
    ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
    EXPECT_EQ(lg.value().discarded_bytes(), 6u);
    EXPECT_TRUE(lg.value().interrupted().empty());
    EXPECT_EQ(lg.value().next_campaign_id(), 2u);
    // The truncated ledger keeps accepting appends...
    ASSERT_TRUE(lg.value().accepted(2, {"evaluate", "--quick"}).is_ok());
  }
  // ...and the post-truncation record replays cleanly.
  Result<CampaignLedger> lg = CampaignLedger::open(path);
  ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
  EXPECT_EQ(lg.value().discarded_bytes(), 0u);
  ASSERT_EQ(lg.value().interrupted().size(), 1u);
  EXPECT_EQ(lg.value().interrupted()[0].id, 2u);
}

TEST(CampaignLedger, CorruptTailRecordIsDiscarded) {
  const std::string path = fresh_ledger_path("crc");
  {
    Result<CampaignLedger> lg = CampaignLedger::open(path);
    ASSERT_TRUE(lg.is_ok());
    ASSERT_TRUE(lg.value().accepted(1, {"evaluate"}).is_ok());
    ASSERT_TRUE(lg.value().running(1).is_ok());
    ASSERT_TRUE(lg.value().accepted(2, {"evaluate", "--x"}).is_ok());
  }
  // Flip the last byte (inside the final record's CRC): that record must be
  // discarded, everything before it must survive.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<CampaignLedger> lg = CampaignLedger::open(path);
  ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
  EXPECT_GT(lg.value().discarded_bytes(), 0u);
  const std::vector<CampaignLedger::Entry> open_entries =
      lg.value().interrupted();
  ASSERT_EQ(open_entries.size(), 1u);
  EXPECT_EQ(open_entries[0].id, 1u);
  EXPECT_EQ(open_entries[0].state, CampaignState::kRunning);
  EXPECT_EQ(lg.value().next_campaign_id(), 2u)
      << "the discarded accepted(2) record must not advance the id";
}

TEST(CampaignLedger, RefusesANonLedgerFile) {
  const std::string path = fresh_ledger_path("magic");
  { std::ofstream(path) << "this is not a ledger\n"; }
  Result<CampaignLedger> lg = CampaignLedger::open(path);
  ASSERT_FALSE(lg.is_ok());
  EXPECT_EQ(lg.status().code(), ErrorCode::kJournalCorrupt);
}

// The ledger's on-disk bytes for accepted(1, {"evaluate"}), running(1),
// finished(1, 0): magic "FAVLDGR1", then one `u32 len | payload |
// u32 crc32c` frame per record. Ledgers written before the record log
// existed must replay unchanged, so the writer must keep producing them.
constexpr char kPinnedLedgerHex[] =
    "4641564c44475231"
    "19000000" "01" "0100000000000000" "01000000" "08000000"
    "6576616c75617465" "f629cb5c"
    "09000000" "02" "0100000000000000" "e5cf481f"
    "0d000000" "03" "0100000000000000" "00000000" "7b395cdc";

std::string hex_of(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[(static_cast<unsigned char>(c) >> 4) & 0xF];
    out += kDigits[static_cast<unsigned char>(c) & 0xF];
  }
  return out;
}

std::string bytes_of(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

TEST(CampaignLedger, WritesAndReplaysThePinnedFormatBytes) {
  const std::string path = fresh_ledger_path("pinned");
  {
    Result<CampaignLedger> lg = CampaignLedger::open(path);
    ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
    ASSERT_TRUE(lg.value().accepted(1, {"evaluate"}).is_ok());
    ASSERT_TRUE(lg.value().running(1).is_ok());
    ASSERT_TRUE(lg.value().finished(1, 0).is_ok());
  }
  std::string written;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    written = ss.str();
  }
  EXPECT_EQ(hex_of(written), kPinnedLedgerHex);

  // Replay the pinned bytes, whole and without the finished record.
  const std::string pinned = bytes_of(kPinnedLedgerHex);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(pinned.data(), static_cast<std::streamsize>(pinned.size()));
  }
  Result<CampaignLedger> whole = CampaignLedger::open(path);
  ASSERT_TRUE(whole.is_ok()) << whole.status().to_string();
  EXPECT_EQ(whole.value().discarded_bytes(), 0u);
  EXPECT_EQ(whole.value().next_campaign_id(), 2u);
  EXPECT_TRUE(whole.value().interrupted().empty());

  const std::string unfinished = pinned.substr(0, pinned.size() - 21);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(unfinished.data(),
            static_cast<std::streamsize>(unfinished.size()));
  }
  Result<CampaignLedger> open = CampaignLedger::open(path);
  ASSERT_TRUE(open.is_ok()) << open.status().to_string();
  EXPECT_EQ(open.value().discarded_bytes(), 0u);
  ASSERT_EQ(open.value().interrupted().size(), 1u);
  EXPECT_EQ(open.value().interrupted()[0].state, CampaignState::kRunning);
  EXPECT_EQ(open.value().interrupted()[0].args,
            std::vector<std::string>{"evaluate"});
}

TEST(CampaignServer, RecoversInterruptedCampaignsFromLedger) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("fav_recover_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "journal_resume");
  fs::create_directories(dir / "journal_fresh");
  // Campaign 1 left journal shards behind; campaign 2 never wrote any. The
  // recovery runner gets each ledger argv unchanged either way: resuming
  // the journal, empty or not, is the runner's business.
  { std::ofstream(dir / "journal_resume" / "shard-000.fj") << "x"; }
  const std::string ledger_path = (dir / "ledger.fvl").string();
  {
    Result<CampaignLedger> lg = CampaignLedger::open(ledger_path);
    ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
    ASSERT_TRUE(lg.value()
                    .accepted(1, {"evaluate", "--journal",
                                  (dir / "journal_resume").string()})
                    .is_ok());
    ASSERT_TRUE(lg.value().running(1).is_ok());
    ASSERT_TRUE(lg.value()
                    .accepted(2, {"evaluate", "--journal",
                                  (dir / "journal_fresh").string()})
                    .is_ok());
  }
  std::mutex mu;
  std::map<std::string, std::vector<std::string>> recovered;  // by journal
  ServerFixture server(
      ok_runner(), /*max_concurrent=*/2, /*progress_interval_ms=*/0,
      [&](ServeConfig& config) {
        config.ledger_path = ledger_path;
        config.recovery_runner = [&](const std::vector<std::string>& args,
                                     const ProgressFn&,
                                     const std::atomic<bool>&) {
          const auto it = std::find(args.begin(), args.end(), "--journal");
          std::lock_guard<std::mutex> lock(mu);
          recovered[it != args.end() && it + 1 != args.end() ? *(it + 1)
                                                            : "?"] = args;
          CampaignOutcome out;
          out.exit_code = 0;
          out.stdout_block = "ok\n";
          return out;
        };
      });
  ASSERT_TRUE(wait_for([&] { return server.stats().recovered == 2; }))
      << "recovered=" << server.stats().recovered;
  server.shutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(recovered.size(), 2u);
    for (const char* journal : {"journal_resume", "journal_fresh"}) {
      const std::string path = (dir / journal).string();
      EXPECT_EQ(recovered[path],
                (std::vector<std::string>{"evaluate", "--journal", path}));
    }
  }
  // Both ledger entries are closed: a second start recovers nothing, and ids
  // keep advancing past the recovered campaigns.
  Result<CampaignLedger> lg = CampaignLedger::open(ledger_path);
  ASSERT_TRUE(lg.is_ok()) << lg.status().to_string();
  EXPECT_TRUE(lg.value().interrupted().empty());
  EXPECT_GE(lg.value().next_campaign_id(), 3u);
  fs::remove_all(dir);
}

TEST(CampaignServer, StatsSnapshotIsWrittenOnDrain) {
  const std::string stats_path =
      (fs::path(::testing::TempDir()) /
       ("fav_stats_" + std::to_string(::getpid()) + ".json"))
          .string();
  fs::remove(stats_path);
  ServerFixture server(ok_runner(), /*max_concurrent=*/1,
                       /*progress_interval_ms=*/0, [&](ServeConfig& config) {
                         config.stats_path = stats_path;
                       });
  Result<CampaignOutcome> sent =
      submit_campaign(server.socket_path(), {"evaluate"});
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  server.shutdown();
  std::ifstream f(stats_path);
  ASSERT_TRUE(f.good()) << "drain must publish the stats snapshot";
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema\": \"fav.serve_stats.v1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"completed\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\": 0"), std::string::npos) << json;
  fs::remove(stats_path);
}

}  // namespace
}  // namespace fav::mc
