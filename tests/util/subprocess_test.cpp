// Tests for the subprocess plumbing under the campaign supervisor: frame
// framing/deframing over real pipes, corruption detection, read deadlines,
// and child-process lifecycle (spawn / kill / wait status decoding).
#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace fav {
namespace {

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int read_fd() const { return fds[0]; }
  int write_fd() const { return fds[1]; }
  void close_write() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameIo, RoundTripOverPipe) {
  Pipe p;
  const std::string payloads[] = {"", "x", "hello frame"};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(write_frame(p.write_fd(), payload).is_ok());
  }
  FrameBuffer buf;
  for (const std::string& payload : payloads) {
    Result<std::string> got = read_frame(p.read_fd(), buf, 5000);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), payload);
  }
}

TEST(FrameIo, LargeFrameSpansPipeCapacity) {
  // 1 MiB frame: far beyond the 64 KiB pipe buffer, so write_frame must
  // complete across multiple write(2) calls while the reader drains.
  Pipe p;
  const std::string payload(1u << 20, 'z');
  std::thread writer([&] {
    EXPECT_TRUE(write_frame(p.write_fd(), payload).is_ok());
  });
  FrameBuffer buf;
  Result<std::string> got = read_frame(p.read_fd(), buf, 10000);
  writer.join();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), payload);
}

TEST(FrameIo, ByteWiseFeedReassembles) {
  std::string wire;
  {
    // Build the wire image through a pipe, then replay it one byte at a time.
    Pipe p;
    ASSERT_TRUE(write_frame(p.write_fd(), "alpha").is_ok());
    ASSERT_TRUE(write_frame(p.write_fd(), "beta").is_ok());
    p.close_write();
    char c = 0;
    while (::read(p.read_fd(), &c, 1) == 1) wire.push_back(c);
  }
  FrameBuffer buf;
  std::vector<std::string> frames;
  std::string frame;
  for (const char& c : wire) {
    buf.feed(&c, 1);
    while (buf.next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], "beta");
  EXPECT_FALSE(buf.corrupt());
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(FrameIo, OversizedLengthMarksCorrupt) {
  FrameBuffer buf;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  buf.feed(reinterpret_cast<const char*>(&huge), sizeof(huge));
  std::string frame;
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_TRUE(buf.corrupt());
}

TEST(FrameIo, ReadFrameTimesOut) {
  Pipe p;
  FrameBuffer buf;
  Result<std::string> got = read_frame(p.read_fd(), buf, 50);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(FrameIo, ReadFrameReportsEof) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.write_fd(), "last").is_ok());
  p.close_write();
  FrameBuffer buf;
  Result<std::string> got = read_frame(p.read_fd(), buf, 1000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), "last");
  got = read_frame(p.read_fd(), buf, 1000);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kSubprocessFailed);
}

TEST(FrameIo, RejectsFramesOverTheCap) {
  Pipe p;
  const std::string too_big(kMaxFrameBytes + 1, 'q');
  EXPECT_FALSE(write_frame(p.write_fd(), too_big).is_ok());
}

TEST(SubprocessLifecycle, EchoChildRoundTrips) {
  // `cat` copies stdin to stdout verbatim, so frames come back intact.
  Result<Subprocess> spawned = Subprocess::spawn({"cat"});
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess proc = std::move(spawned).value();
  ASSERT_TRUE(write_frame(proc.stdin_fd(), "ping").is_ok());
  FrameBuffer buf;
  Result<std::string> got = read_frame(proc.stdout_fd(), buf, 5000);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), "ping");
  proc.close_stdin();  // EOF: cat exits
  const Subprocess::ExitStatus st = proc.wait();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

TEST(SubprocessLifecycle, KillReportsSignal) {
  Result<Subprocess> spawned = Subprocess::spawn({"cat"});
  ASSERT_TRUE(spawned.is_ok());
  Subprocess proc = std::move(spawned).value();
  proc.kill(SIGKILL);
  const Subprocess::ExitStatus st = proc.wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);
}

TEST(SubprocessLifecycle, ExecFailureExitsWith127) {
  Result<Subprocess> spawned =
      Subprocess::spawn({"/nonexistent/fav-no-such-binary"});
  ASSERT_TRUE(spawned.is_ok());  // fork succeeds; exec fails in the child
  Subprocess proc = std::move(spawned).value();
  const Subprocess::ExitStatus st = proc.wait();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 127);
}

// Appends a little-endian u32 length prefix plus `payload` to `wire`,
// mirroring write_frame's on-the-wire image without needing a pipe.
void append_wire_frame(std::string* wire, const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  wire->append(reinterpret_cast<const char*>(&len), sizeof(len));
  wire->append(payload);
}

TEST(FrameBuffer, CompactionBoundaryPreservesFrames) {
  // The consumed prefix is compacted lazily once pos_ > 4096 and it
  // dominates the buffer. Frame sizes are chosen so consumption lands just
  // below the threshold (4091), just above it with the dominance condition
  // false, and then well past it with compaction firing — the stream must
  // parse identically through every branch.
  std::vector<std::string> payloads = {
      std::string(4087, 'a'),  // pos_ -> 4091 after consume (< 4096)
      std::string(1, 'b'),     // pos_ -> 4096 (boundary: not > 4096)
      std::string(2, 'c'),     // pos_ -> 4102 (> 4096; compaction depends
                               // on how much is still buffered)
      std::string(6000, 'd'), std::string(3, 'e'), std::string(0, 'f'),
      std::string(5000, 'g'),
  };
  std::string wire;
  for (const std::string& p : payloads) append_wire_frame(&wire, p);

  FrameBuffer buf;
  buf.feed(wire.data(), wire.size());
  std::string frame;
  std::size_t expected_left = wire.size();
  for (const std::string& p : payloads) {
    ASSERT_TRUE(buf.next(&frame));
    EXPECT_EQ(frame, p);
    expected_left -= sizeof(std::uint32_t) + p.size();
    // buffered_bytes() must be invariant under internal compaction.
    EXPECT_EQ(buf.buffered_bytes(), expected_left);
  }
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_FALSE(buf.corrupt());
  EXPECT_EQ(buf.buffered_bytes(), 0u);

  // The buffer must keep working after compaction has discarded the prefix.
  std::string tail;
  append_wire_frame(&tail, "post-compaction");
  buf.feed(tail.data(), tail.size());
  ASSERT_TRUE(buf.next(&frame));
  EXPECT_EQ(frame, "post-compaction");
}

TEST(FrameBuffer, FrameSplitAcrossDrainChunks) {
  // drain_into reads at most 4096 bytes per call, so a 10 KiB frame must be
  // reassembled across at least three drains.
  Pipe p;
  const std::string payload(10000, 'x');
  ASSERT_TRUE(write_frame(p.write_fd(), payload).is_ok());
  p.close_write();
  FrameBuffer buf;
  std::string frame;
  int drains = 0;
  while (!buf.next(&frame)) {
    ASSERT_TRUE(drain_into(p.read_fd(), buf)) << "EOF before full frame";
    ++drains;
  }
  EXPECT_GE(drains, 3);
  EXPECT_EQ(frame, payload);
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(FrameBuffer, ExactCapFrameAccepted) {
  // A length prefix of exactly kMaxFrameBytes is the largest legal frame.
  std::string wire;
  append_wire_frame(&wire, std::string(kMaxFrameBytes, 'm'));
  FrameBuffer buf;
  buf.feed(wire.data(), wire.size());
  std::string frame;
  ASSERT_TRUE(buf.next(&frame));
  EXPECT_FALSE(buf.corrupt());
  EXPECT_EQ(frame.size(), kMaxFrameBytes);
}

TEST(FrameBuffer, CapPlusOneIsCorruptAndSticky) {
  FrameBuffer buf;
  const std::uint32_t over = kMaxFrameBytes + 1;
  buf.feed(reinterpret_cast<const char*>(&over), sizeof(over));
  std::string frame;
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_TRUE(buf.corrupt());
  // A desynchronized stream can never recover: more bytes don't help.
  std::string wire;
  append_wire_frame(&wire, "valid");
  buf.feed(wire.data(), wire.size());
  EXPECT_FALSE(buf.next(&frame));
  EXPECT_TRUE(buf.corrupt());
}

// The kernel's name for what fd `fd` of process `pid` refers to, e.g.
// "pipe:[43087]" ("self" works as a pid). Empty on error.
std::string fd_target(const std::string& pid, int fd) {
  const std::string link =
      "/proc/" + pid + "/fd/" + std::to_string(fd);
  char target[256];
  const ssize_t n = ::readlink(link.c_str(), target, sizeof(target) - 1);
  if (n <= 0) return "";
  return std::string(target, static_cast<std::size_t>(n));
}

// The command name of process `pid` (/proc/<pid>/comm, newline dropped).
std::string proc_comm(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/comm");
  std::string comm;
  std::getline(in, comm);
  return comm;
}

// The scheduler state letter of process `pid` (the field after the
// parenthesized command name in /proc/<pid>/stat), or '?' when unreadable.
char proc_state(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close = stat.rfind(')');
  return close != std::string::npos && close + 2 < stat.size()
             ? stat[close + 2]
             : '?';
}

// Every open-fd target of process `pid` (via /proc/<pid>/fd).
std::vector<std::string> child_fd_targets(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  std::vector<std::string> targets;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return targets;
  while (dirent* entry = ::readdir(dir)) {
    if (std::strcmp(entry->d_name, ".") == 0 ||
        std::strcmp(entry->d_name, "..") == 0) {
      continue;
    }
    targets.push_back(
        fd_target(std::to_string(pid), std::atoi(entry->d_name)));
  }
  ::closedir(dir);
  return targets;
}

TEST(SubprocessLifecycle, SiblingDoesNotInheritPipes) {
  // Regression for the O_CLOEXEC spawn fix: a sibling spawned after `first`
  // must not carry any alias of first's pipes across its exec. The pipes
  // are identified by inode (the parent-held ends name the same pipe
  // objects the children see), so the check is exact regardless of what
  // other fds the test harness happens to pass down. `sleep` keeps the
  // sibling alive while /proc/<pid>/fd is inspected.
  Result<Subprocess> a = Subprocess::spawn({"cat"});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess first = std::move(a).value();
  const std::string first_stdin = fd_target("self", first.stdin_fd());
  const std::string first_stdout = fd_target("self", first.stdout_fd());
  ASSERT_NE(first_stdin, "");
  ASSERT_NE(first_stdout, "");
  Result<Subprocess> b = Subprocess::spawn({"sleep", "5"});
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  Subprocess sibling = std::move(b).value();
  // The exec may still be in flight: between fork and exec the child image
  // legitimately holds the parent's fds, and its stdin is already its own
  // pipe after the dup2. Wait until the exec is over — the child is named
  // `sleep` and blocked in its nanosleep — before inspecting its fds.
  bool execed = false;
  for (int i = 0; i < 5000 && !execed; ++i) {
    execed = proc_comm(sibling.pid()) == "sleep" &&
             proc_state(sibling.pid()) == 'S';
    if (!execed) ::usleep(1000);
  }
  ASSERT_TRUE(execed) << "sibling never finished its exec of sleep";
  for (const std::string& target : child_fd_targets(sibling.pid())) {
    EXPECT_NE(target, first_stdin)
        << "sibling holds first's stdin pipe (missing O_CLOEXEC)";
    EXPECT_NE(target, first_stdout)
        << "sibling holds first's stdout pipe (missing O_CLOEXEC)";
  }
  sibling.kill(SIGKILL);
  sibling.wait();
  first.close_stdin();
  first.wait();
}

TEST(SubprocessLifecycle, DeadChildEofNotMaskedBySibling) {
  // The supervisor's fast death-detection path: a dead worker's stdout must
  // hit EOF even while a sibling worker is still running. Before the
  // O_CLOEXEC fix the sibling (forked later) inherited the parent's write
  // end of the victim's stdin pipe across its exec; closing the victim's
  // stdin here then did NOT deliver EOF to the victim, the victim (`cat`)
  // never exited, and its stdout never reached EOF — the exact shape in
  // which a supervisor ends up waiting out a heartbeat deadline instead of
  // reacting to a dead worker immediately.
  Result<Subprocess> a = Subprocess::spawn({"cat"});
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  Subprocess victim = std::move(a).value();
  Result<Subprocess> b = Subprocess::spawn({"sleep", "30"});
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  Subprocess sibling = std::move(b).value();

  // EOF on stdin makes cat exit, which must close the last write end of its
  // stdout pipe. The sibling lives for 30 s, so any fd it inherited would
  // hold the 5 s read below open past its deadline.
  victim.close_stdin();
  FrameBuffer buf;
  Result<std::string> got = read_frame(victim.stdout_fd(), buf, 5000);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kSubprocessFailed)
      << got.status().to_string();
  const Subprocess::ExitStatus st = victim.wait();
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);

  sibling.kill(SIGKILL);
  sibling.wait();
}

TEST(SubprocessLifecycle, UnreapableChildSynthesizesStatus) {
  // With SIGCHLD set to SIG_IGN the kernel auto-reaps children, so waitpid
  // eventually fails with ECHILD. try_wait must treat that as terminal and
  // synthesize a status instead of returning false forever (which would
  // wedge the supervisor's restart loop on the slot).
  struct sigaction ignore_chld {};
  ignore_chld.sa_handler = SIG_IGN;
  struct sigaction prev {};
  ASSERT_EQ(::sigaction(SIGCHLD, &ignore_chld, &prev), 0);

  Result<Subprocess> spawned = Subprocess::spawn({"true"});
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess proc = std::move(spawned).value();
  Subprocess::ExitStatus st;
  bool reaped = false;
  for (int i = 0; i < 5000 && !reaped; ++i) {
    reaped = proc.try_wait(&st);
    if (!reaped) ::usleep(1000);
  }
  ASSERT_EQ(::sigaction(SIGCHLD, &prev, nullptr), 0);
  ASSERT_TRUE(reaped);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, Subprocess::kUnreapableExitCode);
  EXPECT_EQ(st.reap_errno, ECHILD);
  // The synthesized status must be cached like a real reap.
  Subprocess::ExitStatus again;
  EXPECT_TRUE(proc.try_wait(&again));
  EXPECT_EQ(again.exit_code, Subprocess::kUnreapableExitCode);
}

TEST(SubprocessLifecycle, BlockingWaitSynthesizesOnEchild) {
  struct sigaction ignore_chld {};
  ignore_chld.sa_handler = SIG_IGN;
  struct sigaction prev {};
  ASSERT_EQ(::sigaction(SIGCHLD, &ignore_chld, &prev), 0);

  Result<Subprocess> spawned = Subprocess::spawn({"true"});
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess proc = std::move(spawned).value();
  // Blocking waitpid under SIG_IGN returns ECHILD once the child is gone;
  // wait() must report a synthesized failure, never a default "clean exit".
  const Subprocess::ExitStatus st = proc.wait();
  ASSERT_EQ(::sigaction(SIGCHLD, &prev, nullptr), 0);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, Subprocess::kUnreapableExitCode);
  EXPECT_EQ(st.reap_errno, ECHILD);
}

TEST(SubprocessLifecycle, TryWaitSeesExit) {
  Result<Subprocess> spawned = Subprocess::spawn({"true"});
  ASSERT_TRUE(spawned.is_ok());
  Subprocess proc = std::move(spawned).value();
  // Poll until the child exits; try_wait must never block.
  Subprocess::ExitStatus st;
  bool reaped = false;
  for (int i = 0; i < 5000 && !reaped; ++i) {
    reaped = proc.try_wait(&st);
    if (!reaped) ::usleep(1000);
  }
  ASSERT_TRUE(reaped);
  EXPECT_FALSE(st.signaled);
  EXPECT_EQ(st.exit_code, 0);
}

}  // namespace
}  // namespace fav
