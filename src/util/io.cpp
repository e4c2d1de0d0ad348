#include "util/io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

namespace fav::io {

namespace {

// Bounded retry budget for transient failures: 8 attempts with exponential
// backoff from 1 ms, capped at 50 ms per sleep (~170 ms worst case total).
constexpr int kMaxRetries = 8;

void backoff_sleep(int attempt) {
  std::uint64_t ms = 1ull << (attempt < 6 ? attempt : 6);
  if (ms > 50) ms = 50;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- chaos hook -----------------------------------------------------------

std::mutex g_chaos_mutex;
ChaosFile g_chaos;                 // fail_*_at == 0 means disabled
std::uint64_t g_write_calls = 0;   // physical fwrite attempts
std::uint64_t g_fsync_calls = 0;   // flush_and_fsync + fsync_dir operations

/// Returns the errno to inject for this physical write attempt, or 0.
int chaos_next_write_error() {
  std::lock_guard<std::mutex> lock(g_chaos_mutex);
  if (g_chaos.fail_write_at == 0) return 0;
  ++g_write_calls;
  if (g_write_calls == g_chaos.fail_write_at ||
      (g_chaos.sticky && g_write_calls > g_chaos.fail_write_at)) {
    return g_chaos.error;
  }
  return 0;
}

int chaos_next_fsync_error() {
  std::lock_guard<std::mutex> lock(g_chaos_mutex);
  if (g_chaos.fail_fsync_at == 0) return 0;
  ++g_fsync_calls;
  if (g_fsync_calls == g_chaos.fail_fsync_at ||
      (g_chaos.sticky && g_fsync_calls > g_chaos.fail_fsync_at)) {
    return g_chaos.error;
  }
  return 0;
}

// --- CRC32C ---------------------------------------------------------------

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

void put_string(std::string& out, std::string_view s) {
  put_le(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

bool get_string(std::string_view data, std::size_t* offset,
                std::string* value) {
  std::uint32_t len = 0;
  if (!get_le(data, offset, &len) || data.size() - *offset < len) return false;
  value->assign(data.data() + *offset, len);
  *offset += len;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void chaos_install(const ChaosFile& chaos) {
  std::lock_guard<std::mutex> lock(g_chaos_mutex);
  g_chaos = chaos;
  g_write_calls = 0;
  g_fsync_calls = 0;
}

void chaos_reset() {
  std::lock_guard<std::mutex> lock(g_chaos_mutex);
  g_chaos = ChaosFile{};
  g_write_calls = 0;
  g_fsync_calls = 0;
}

bool errno_is_transient(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

bool errno_is_storage_full(int err) {
  return err == ENOSPC || err == EDQUOT || err == EIO;
}

namespace {

// Overload dispatch over the two strerror_r flavors: XSI returns int (0 on
// success), GNU returns a char* that may point at either `buf` or a static
// (but immutable) string. Which one <string.h> declares depends on feature
// macros, so resolve it at compile time instead of guessing.
[[maybe_unused]] std::string strerror_pick(int rc, const char* buf, int err) {
  if (rc == 0) return buf;
  return "unknown error " + std::to_string(err);
}

[[maybe_unused]] std::string strerror_pick(const char* msg,
                                           const char* /*buf*/, int err) {
  if (msg != nullptr) return msg;
  return "unknown error " + std::to_string(err);
}

}  // namespace

std::string errno_message(int err) {
  char buf[256];
  buf[0] = '\0';
  return strerror_pick(::strerror_r(err, buf, sizeof(buf)), buf, err);
}

Status status_from_errno(int err, const std::string& what) {
  const ErrorCode code = errno_is_storage_full(err) ? ErrorCode::kStorageFull
                                                    : ErrorCode::kIoError;
  return Status(code, what + ": " + errno_message(err) + " (errno " +
                          std::to_string(err) + ")");
}

Status write_all(std::FILE* f, const void* data, std::size_t len,
                 const std::string& what) {
  const char* p = static_cast<const char*>(data);
  std::size_t remaining = len;
  int attempts = 0;
  while (remaining > 0) {
    if (const int injected = chaos_next_write_error()) {
      if (errno_is_transient(injected) && attempts < kMaxRetries) {
        backoff_sleep(attempts++);
        continue;
      }
      return status_from_errno(injected, "write " + what);
    }
    errno = 0;
    const std::size_t n = std::fwrite(p, 1, remaining, f);
    p += n;
    remaining -= n;
    if (remaining == 0) break;
    if (n > 0) attempts = 0;  // progress: a fresh retry budget
    const int err = errno != 0 ? errno : EIO;
    if (errno_is_transient(err) && attempts < kMaxRetries) {
      std::clearerr(f);
      backoff_sleep(attempts++);
      continue;
    }
    return status_from_errno(err, "write " + what);
  }
  return Status::ok();
}

Status flush_and_fsync(std::FILE* f, const std::string& what) {
  for (int attempts = 0;; ++attempts) {
    if (const int injected = chaos_next_fsync_error()) {
      if (errno_is_transient(injected) && attempts < kMaxRetries) {
        backoff_sleep(attempts);
        continue;
      }
      return status_from_errno(injected, "fsync " + what);
    }
    errno = 0;
    if (std::fflush(f) == 0 && ::fsync(fileno(f)) == 0) return Status::ok();
    const int err = errno != 0 ? errno : EIO;
    if (errno_is_transient(err) && attempts < kMaxRetries) {
      std::clearerr(f);
      backoff_sleep(attempts);
      continue;
    }
    return status_from_errno(err, "fsync " + what);
  }
}

Status fsync_dir(const std::string& dir) {
  if (const int injected = chaos_next_fsync_error()) {
    return status_from_errno(injected, "fsync directory " + dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return status_from_errno(errno, "open directory " + dir + " for fsync");
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return status_from_errno(err, "fsync directory " + dir);
  return Status::ok();
}

Status atomic_write_file(const std::string& path, const std::string& contents) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    // A failure here surfaces as the fopen error below, with a better errno.
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return status_from_errno(errno, "open " + tmp + " for writing");
  }
  Status st = write_all(f, contents.data(), contents.size(), tmp);
  if (st.is_ok()) st = flush_and_fsync(f, tmp);
  std::fclose(f);
  if (!st.is_ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status renamed =
        status_from_errno(errno, "rename " + tmp + " over " + path);
    std::remove(tmp.c_str());
    return renamed;
  }
  const std::string parent =
      target.has_parent_path() ? target.parent_path().string() : ".";
  return fsync_dir(parent);
}

Result<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return status_from_errno(errno, "open " + path + " for reading");
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    contents.append(buf, n);
    if (n < sizeof(buf)) {
      if (std::ferror(f) != 0) {
        return status_from_errno(errno != 0 ? errno : EIO, "read " + path);
      }
      break;
    }
  }
  return contents;
}

Status FileLock::acquire(const std::string& path, std::uint64_t timeout_ms) {
  FAV_CHECK(fd_ < 0);
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return status_from_errno(errno, "open lock file " + path);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::uint64_t backoff_ms = 5;
  for (;;) {
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
      fd_ = fd;
      return Status::ok();
    }
    if (errno != EWOULDBLOCK && errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return status_from_errno(err, "flock " + path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::close(fd);
      return Status(ErrorCode::kDeadlineExceeded,
                    "timed out after " + std::to_string(timeout_ms) +
                        " ms waiting for lock " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    if (backoff_ms < 200) backoff_ms *= 2;
  }
}

void FileLock::release() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace fav::io
