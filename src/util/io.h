// Hardened file I/O primitives shared by the record log (util/record_log.h),
// the run-report writer and the pre-characterization artifact cache.
//
// Everything that makes campaign state durable funnels through this layer so
// there is exactly one implementation of each discipline:
//  * checksums            — CRC32C (record-log frames) and FNV-1a64
//                           (campaign and artifact fingerprints),
//  * byte codec           — little-endian put_le/get_le/put_string/
//                           get_string, the one codec of every binary format
//                           and wire message,
//  * retrying writes      — short writes and transient EINTR/EAGAIN get a
//                           bounded exponential-backoff retry; persistent
//                           failures surface as a classified Status
//                           (kStorageFull for ENOSPC/EDQUOT/EIO) instead of
//                           aborting the process,
//  * atomic publication   — temp file + fsync + rename + parent-directory
//                           fsync, so a reader never observes a half-written
//                           file and a crash never loses the previous one,
//  * advisory locking     — flock-based FileLock with a bounded-backoff wait
//                           so concurrent elaborators coordinate without ever
//                           deadlocking.
//
// A deterministic fault-injection hook (ChaosFile) fails the Nth physical
// write or fsync with a configurable errno, which is how the degraded-I/O
// paths (retry, graceful ENOSPC stop) are unit- and end-to-end tested.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/status.h"

namespace fav::io {

// ---------------------------------------------------------------------------
// Checksums.

/// CRC32C (Castagnoli, reflected poly 0x82F63B78), software table-driven.
/// Chaining: crc32c(b, n_b, crc32c(a, n_a)) == crc32c(a||b, n_a + n_b).
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0);

/// FNV-1a 64-bit, seedable for chaining (content fingerprints).
std::uint64_t fnv1a64(const void* data, std::size_t len,
                      std::uint64_t seed = 0xCBF29CE484222325ull);

// ---------------------------------------------------------------------------
// Little-endian primitive (de)serialization. Every get_* reads from a view
// at `*offset`, advances it on success, and fails (offset unspecified) when
// the bytes left cannot hold the value.

template <typename T>
void put_le(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
bool get_le(std::string_view data, std::size_t* offset, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (data.size() < *offset || data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// u32 length prefix + raw bytes.
void put_string(std::string& out, std::string_view s);
/// Reads a put_string value; a length past the bytes left fails.
bool get_string(std::string_view data, std::size_t* offset,
                std::string* value);

// ---------------------------------------------------------------------------
// JSON string escaping.

/// Minimal JSON string escaping: quotes, backslashes, and control bytes.
/// Every string any layer emits into a JSON document (run reports, the serve
/// daemon's stats snapshot) goes through this — field values like the
/// benchmark name or a socket path are caller-controlled free-form input
/// once campaigns arrive over a socket.
std::string json_escape(const std::string& s);

// ---------------------------------------------------------------------------
// Deterministic fault injection (test hook).

/// Fails the Nth physical write (fwrite attempt inside write_all) and/or the
/// Nth fsync (flush_and_fsync / fsync_dir) with `error`. Ordinals are 1-based
/// and process-global; `sticky` keeps failing every call at or past the
/// ordinal (a disk that stays full), otherwise the fault fires exactly once
/// (a transient error the retry loop should absorb).
struct ChaosFile {
  std::uint64_t fail_write_at = 0;  // 0 = never
  std::uint64_t fail_fsync_at = 0;  // 0 = never
  int error = ENOSPC;
  bool sticky = true;
};

/// Installs `chaos` and resets both call counters.
void chaos_install(const ChaosFile& chaos);
/// Clears any installed fault and resets the call counters.
void chaos_reset();

// ---------------------------------------------------------------------------
// errno classification.

/// EINTR/EAGAIN/EWOULDBLOCK: worth retrying with backoff.
bool errno_is_transient(int err);
/// ENOSPC/EDQUOT/EIO: the medium is full or failing; stop gracefully.
bool errno_is_storage_full(int err);
/// Thread-safe replacement for std::strerror: formats `err` via strerror_r
/// into a local buffer. std::strerror returns a pointer into static storage,
/// which races when worker heartbeats and the supervisor format errors
/// concurrently. Handles both the XSI and GNU strerror_r variants.
std::string errno_message(int err);
/// kStorageFull for storage-full errnos, kIoError otherwise.
Status status_from_errno(int err, const std::string& what);

// ---------------------------------------------------------------------------
// Hardened write primitives.

/// Writes all `len` bytes, retrying short writes and transient errnos with
/// bounded exponential backoff. Persistent failures return a classified
/// Status (`what` names the destination in the message).
Status write_all(std::FILE* f, const void* data, std::size_t len,
                 const std::string& what);

/// fflush + fsync with the same transient-retry discipline.
Status flush_and_fsync(std::FILE* f, const std::string& what);

/// fsyncs a directory so freshly created/renamed entries survive a crash.
Status fsync_dir(const std::string& dir);

/// Atomically publishes `contents` at `path`: write to `<path>.tmp.<pid>`,
/// fsync, rename over the target, fsync the parent directory. On failure the
/// previous file (if any) is untouched and the temp file is removed.
Status atomic_write_file(const std::string& path, const std::string& contents);

/// Reads an entire file. A missing file is kIoError; callers that need to
/// distinguish "absent" from "unreadable" should stat first.
Result<std::string> read_file(const std::string& path);

// ---------------------------------------------------------------------------
// Advisory locking.

/// flock-based advisory lock with a bounded-backoff wait. Cooperating
/// processes (not threads) serialize on the lock file; the lock is released
/// on destruction or process death, so a crashed holder never wedges peers.
class FileLock {
 public:
  FileLock() = default;
  ~FileLock() { release(); }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// Polls flock(LOCK_EX | LOCK_NB) with exponential backoff until acquired
  /// or `timeout_ms` elapses (kDeadlineExceeded). Never blocks indefinitely.
  Status acquire(const std::string& path, std::uint64_t timeout_ms);
  void release();
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace fav::io
