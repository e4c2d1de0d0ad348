#include "util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "util/io.h"
#include "util/metrics.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace fav {

Status write_frame(int fd, std::string_view payload) {
  return write_frame_deadline(fd, payload, -1);
}

Status write_frame_deadline(int fd, std::string_view payload, int timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    return Status(ErrorCode::kInvalidArgument, "frame exceeds kMaxFrameBytes");
  }
  // One contiguous buffer, one write(2): frames below PIPE_BUF are atomic on
  // a pipe, so concurrent heartbeats from worker threads never interleave.
  std::string buf;
  buf.reserve(sizeof(std::uint32_t) + payload.size());
  io::put_string(buf, payload);
  const char* data = buf.data();
  std::size_t left = buf.size();
  const std::uint64_t deadline_ns =
      timeout_ms < 0
          ? 0
          : monotonic_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n >= 0) {
      data += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status(ErrorCode::kSubprocessFailed,
                    "frame write failed: " + io::errno_message(errno));
    }
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const std::uint64_t now = monotonic_ns();
      if (now >= deadline_ns) {
        return Status(ErrorCode::kDeadlineExceeded,
                      "frame write timed out (peer not draining)");
      }
      wait_ms = static_cast<int>((deadline_ns - now) / 1'000'000ull) + 1;
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0 && errno != EINTR) {
      return Status(ErrorCode::kSubprocessFailed,
                    "poll failed: " + io::errno_message(errno));
    }
    if (rc == 0) {
      return Status(ErrorCode::kDeadlineExceeded,
                    "frame write timed out (peer not draining)");
    }
  }
  return Status::ok();
}

bool FrameBuffer::next(std::string* payload) {
  if (corrupt_) return false;
  // Compact the consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  std::size_t off = pos_;
  std::uint32_t len = 0;
  if (!io::get_le(buf_, &off, &len)) return false;
  if (len > kMaxFrameBytes) {
    corrupt_ = true;
    return false;
  }
  if (buf_.size() - off < len) return false;
  payload->assign(buf_.data() + off, len);
  pos_ = off + len;
  return true;
}

bool drain_into(int fd, FrameBuffer& buf) {
  char chunk[4096];
  const ssize_t n = ::read(fd, chunk, sizeof(chunk));
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  if (n == 0) return false;  // EOF: peer is gone
  buf.feed(chunk, static_cast<std::size_t>(n));
  return true;
}

Result<std::string> read_frame(int fd, FrameBuffer& buf, int timeout_ms) {
  std::string payload;
  for (;;) {
    if (buf.next(&payload)) return payload;
    if (buf.corrupt()) {
      return Status(ErrorCode::kSubprocessFailed,
                    "corrupt frame stream (length prefix out of range)");
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        // A signal (e.g. the graceful-stop handler) interrupted the wait;
        // surface it as a timeout so the caller re-checks its stop flag.
        return Status(ErrorCode::kDeadlineExceeded,
                      "frame read interrupted by signal");
      }
      return Status(ErrorCode::kSubprocessFailed,
                    "poll failed: " + io::errno_message(errno));
    }
    if (rc == 0) {
      return Status(ErrorCode::kDeadlineExceeded, "frame read timed out");
    }
    if (!drain_into(fd, buf)) {
      return Status(ErrorCode::kSubprocessFailed,
                    "pipe closed before a complete frame arrived");
    }
  }
}

Result<Subprocess> Subprocess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    return Status(ErrorCode::kInvalidArgument, "spawn requires an argv");
  }
  int to_child[2];    // parent writes -> child stdin
  int from_child[2];  // child stdout -> parent reads
  // O_CLOEXEC on both pipes: a later fork/exec (sibling worker, serve
  // client) must not inherit these fds. The child's own copies survive the
  // exec because dup2 onto stdin/stdout clears the flag on the duplicates.
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return Status(ErrorCode::kSubprocessFailed,
                  "pipe2 failed: " + io::errno_message(errno));
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Status(ErrorCode::kSubprocessFailed,
                  "pipe2 failed: " + io::errno_message(err));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    return Status(ErrorCode::kSubprocessFailed,
                  "fork failed: " + io::errno_message(errno));
  }
  if (pid == 0) {
    // Child: wire the pipes onto stdin/stdout, close every parent end, and
    // exec. Only async-signal-safe calls between fork and exec.
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 mirrors the shell convention
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  Subprocess child;
  child.pid_ = pid;
  child.stdin_fd_ = to_child[1];
  child.stdout_fd_ = from_child[0];
  return child;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    close_pipes();
    pid_ = other.pid_;
    stdin_fd_ = other.stdin_fd_;
    stdout_fd_ = other.stdout_fd_;
    reaped_ = other.reaped_;
    exit_ = other.exit_;
    other.pid_ = -1;
    other.stdin_fd_ = -1;
    other.stdout_fd_ = -1;
    other.reaped_ = false;
  }
  return *this;
}

void Subprocess::kill(int sig) {
  if (pid_ > 0 && !reaped_) ::kill(pid_, sig);
}

bool Subprocess::try_wait(ExitStatus* status) {
  if (reaped_) {
    *status = exit_;
    return true;
  }
  if (pid_ <= 0) return false;
  int wstatus = 0;
  const pid_t rc = ::waitpid(pid_, &wstatus, WNOHANG);
  if (rc == 0) return false;  // still running
  if (rc < 0) {
    if (errno == EINTR) return false;  // retry on the next poll tick
    // Terminal waitpid failure (ECHILD: SIGCHLD is SIG_IGN, or something
    // else already reaped the pid). The real status is gone; returning
    // false forever would wedge the caller on an unreapable slot, so
    // synthesize a terminal status and record where it came from.
    mark_unreapable(errno);
    *status = exit_;
    return true;
  }
  reaped_ = true;
  exit_.signaled = WIFSIGNALED(wstatus);
  exit_.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
  exit_.term_signal = exit_.signaled ? WTERMSIG(wstatus) : 0;
  *status = exit_;
  return true;
}

Subprocess::ExitStatus Subprocess::wait() {
  if (reaped_ || pid_ <= 0) return exit_;
  int wstatus = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid_, &wstatus, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc == pid_) {
    reaped_ = true;
    exit_.signaled = WIFSIGNALED(wstatus);
    exit_.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
    exit_.term_signal = exit_.signaled ? WTERMSIG(wstatus) : 0;
  } else {
    mark_unreapable(rc < 0 ? errno : 0);
  }
  return exit_;
}

void Subprocess::mark_unreapable(int err) {
  std::fprintf(stderr,
               "fav: waitpid(%d) failed: %s (errno %d); synthesizing exit "
               "status %d\n",
               static_cast<int>(pid_), io::errno_message(err).c_str(), err,
               kUnreapableExitCode);
  reaped_ = true;
  exit_.signaled = false;
  exit_.exit_code = kUnreapableExitCode;
  exit_.term_signal = 0;
  exit_.reap_errno = err != 0 ? err : ECHILD;
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

void Subprocess::close_pipes() {
  close_stdin();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace fav
