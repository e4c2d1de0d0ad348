// Durable append-only record log: the one framing, checksum, torn-tail and
// fsync discipline under the run journal (mc/journal.h) and the serve
// daemon's campaign ledger (mc/serve.h). The pre-characterization artifact
// (precharac/artifact.h) reuses the in-memory frame codec.
//
//   file:   8-byte magic | frame*
//   frame:  u32 len | payload | u32 crc32c(payload)     (little-endian)
//
// A frame whose length is 0 or runs past the end of the file, or whose
// checksum fails, ends the valid prefix. A bad frame that reaches the end
// of the file is the normal crash artifact (a torn tail); bytes after a bad
// frame mean the file was damaged in the middle, which a scan reports so
// the caller can refuse the file instead of silently dropping data.
//
// Every write is one io::write_all and every record one fsync, so the
// ChaosFile ordinals of util/io.h address the header and each record
// directly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/metrics.h"
#include "util/status.h"

namespace fav::io {

/// Bytes a frame adds around its payload (length and checksum).
constexpr std::size_t kFrameOverhead = 2 * sizeof(std::uint32_t);

/// Appends one frame carrying `payload` to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Reads the frame at `*offset` of `data`: on success `*payload` views its
/// bytes inside `data` and `*offset` moves past it. Returns false, leaving
/// `*offset` unchanged, when the frame is truncated, empty or fails its
/// checksum.
bool next_frame(std::string_view data, std::size_t* offset,
                std::string_view* payload);

/// What RecordLog::scan found.
struct LogScan {
  /// Magic plus every frame before the first bad or rejected one; pass to
  /// RecordLog::open_append to cut off whatever follows.
  std::uint64_t valid_bytes = 0;
  /// True when bytes follow the first bad or rejected frame: the file was
  /// damaged mid-file rather than torn at its end.
  bool damaged = false;
};

class RecordLog {
 public:
  /// Receives each intact payload in file order; returning false rejects
  /// the record, which then ends the valid prefix like a bad frame.
  using Visitor = std::function<bool(std::string_view payload)>;

  /// Streams the log at `path`, one read per frame. kIoError when the file
  /// cannot be opened or read; kJournalCorrupt when it is shorter than
  /// `magic` or starts with anything else.
  static Result<LogScan> scan(const std::string& path, std::string_view magic,
                              const Visitor& visit);

  /// Optional observability: each file fsync is timed as "journal.fsync_ns"
  /// and counted as "journal.commits"; each directory fsync as
  /// "journal.dir_fsync_ns" and "journal.dir_fsyncs" (the run journal is
  /// the log that reports them). The sink must outlive the log; the caller
  /// serializes access.
  void set_metrics(MetricsSink* sink) { metrics_ = sink; }

  /// Creates (or truncates) `path` and writes `magic` plus `first_record`
  /// when it is non-empty, in one write and one fsync, then fsyncs the
  /// parent directory so the new name survives a crash.
  Status create(const std::string& path, std::string_view magic,
                std::string_view first_record = {});

  /// Opens an existing log for appending after a scan. A torn tail past
  /// `valid_bytes` is truncated and the truncation fsynced first, so the
  /// next record never lands behind a partial frame; the parent directory
  /// is fsynced either way.
  Status open_append(const std::string& path, std::uint64_t valid_bytes);

  /// Appends one frame: exactly one write and one fsync.
  Status append(std::string_view payload);

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  Status sync_file();
  Status sync_dir();

  std::unique_ptr<std::FILE, Closer> file_;
  std::string path_;
  MetricsSink* metrics_ = nullptr;
};

}  // namespace fav::io
