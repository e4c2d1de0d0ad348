// Crash-safe append-only run journal for Monte Carlo campaigns.
//
// A campaign of 1e4–1e6 samples can run for hours; the journal makes a
// SIGKILL (or power loss) cost at most one shard of work. The file
// (`<dir>/campaign.fj`, or `worker-<k>.fj` under a supervisor) is a record
// log (util/record_log.h: CRC32C frames, torn-tail and mid-file damage
// rules, one write and one fsync per record); all integers little-endian:
//
//   file:    magic "FAVJRNL3" | frame(meta) | frame(shard)*
//   meta:    u64 fingerprint | u64 total_samples | u32 ctx_len | ctx bytes
//   shard:   u64 first_index | u32 count | count serialized SampleRecords
//
// Each shard record holds one completed shard of consecutive sample indices
// and is fsynced before the next shard starts, so the file always contains
// a checksummed prefix of the campaign. The reader drops a torn tail (a
// partially-written last frame is the normal crash artifact) but reports
// kJournalCorrupt for mid-file damage — a bad frame followed by further
// data — and for a bad magic or meta record. Resume re-draws the sample
// stream deterministically and continues from the first missing index, so a
// killed-and-resumed run is bitwise-identical to an uninterrupted one (see
// SsfEvaluator::run_journaled).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mc/evaluator.h"
#include "util/metrics.h"
#include "util/record_log.h"
#include "util/status.h"

namespace fav::mc {

/// Campaign identity stored in the journal header. A resume whose
/// fingerprint or sample count differs from the journal's is rejected.
struct JournalMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t total_samples = 0;
  std::string context;
};

/// Everything recovered from a journal: the header meta plus the contiguous
/// prefix of completed sample records [0, records.size()).
struct JournalContents {
  JournalMeta meta;
  std::vector<SampleRecord> records;
  /// File size of the validated prefix (header + intact frames). A torn
  /// tail lives past this offset; pass to JournalWriter::open_append so it
  /// is truncated away before new frames are appended after it.
  std::uint64_t valid_bytes = 0;
};

/// One run of consecutive sample records starting at `first_index`. Worker
/// shard files hold several spans: a worker journals every shard it is
/// assigned, and assignments interleave across workers, so one file covers a
/// non-contiguous subset of the campaign.
struct JournalSpan {
  std::uint64_t first_index = 0;
  std::vector<SampleRecord> records;

  std::uint64_t end_index() const { return first_index + records.size(); }
};

/// Everything recovered from one shard file: the header meta plus its spans
/// in strictly increasing, non-overlapping index order (adjacent frames are
/// coalesced, so `campaign.fj` written by a single-process run reads back as
/// one span at index 0). On-disk frame order is free — a supervised worker
/// journals shards in *assignment* order, which drops below earlier indices
/// when it picks up a shard rescued from a crashed peer — so the reader
/// sorts; overlapping frames within one file are corruption.
struct JournalShards {
  JournalMeta meta;
  std::vector<JournalSpan> spans;
  std::uint64_t valid_bytes = 0;
};

/// Sparse union of several shard files (see JournalReader::merge_partial):
/// `records[i]` is valid iff `present[i]`. Also carries what a resuming
/// writer needs: the validated prefix size of every source file.
struct MergedJournal {
  JournalMeta meta;
  std::vector<SampleRecord> records;   // size == meta.total_samples
  std::vector<std::uint8_t> present;   // parallel to records
  std::size_t present_count = 0;
  /// Validated prefix size per shard file name (for JournalWriter::
  /// open_append when a worker resumes its own file).
  std::map<std::string, std::uint64_t> valid_bytes;

  bool complete() const { return present_count == records.size(); }
  /// Maximal runs [first, last) of missing sample indices, in order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing_ranges() const;
};

/// Serialization used by the journal's shard records (exposed for tests).
void serialize_record(const SampleRecord& record, std::string& out);
/// Deserializes one record from `data` starting at `*offset`, advancing it.
/// Returns false on malformed input (offset position is then unspecified).
bool deserialize_record(std::string_view data, std::size_t* offset,
                        SampleRecord* record);

/// Field-wise identity of two fault samples, used by the resume cross-checks:
/// a journaled sample that differs from the deterministically re-drawn one
/// means the sampler/seed/config changed under the journal.
bool sample_matches(const faultsim::FaultSample& a,
                    const faultsim::FaultSample& b);

/// Reads and verifies `<dir>/campaign.fj`. Torn tails are tolerated (the
/// partial frame is dropped); header corruption, mid-file damage, and
/// out-of-order frames yield kJournalCorrupt; a missing/unreadable file
/// yields kJournalIoError.
Result<JournalContents> read_journal(const std::string& dir);

/// Multi-file journal access for supervised campaigns, where every worker
/// process appends the shards it completes to its own `worker-<k>.fj` and
/// the supervisor stitches the campaign back together.
class JournalReader {
 public:
  /// Reads and verifies one shard file. Frames may start at any sample index
  /// but must be strictly increasing and non-overlapping within the file;
  /// torn tails are tolerated exactly like read_journal.
  static Result<JournalShards> read_shards(const std::string& dir,
                                           const std::string& file);

  /// Merges every file in `dir` whose name matches `pattern` (a single-`*`
  /// glob, e.g. "worker-*.fj"). Validates that all files carry the same
  /// fingerprint and total-sample count, that every span lies inside the
  /// campaign, and that no two spans overlap; gaps are allowed — this is the
  /// resume path, which continues from whatever survived. Matching zero
  /// files yields an empty merge only when a meta cannot be established —
  /// kJournalIoError, since there is nothing to resume from.
  static Result<MergedJournal> merge_partial(const std::string& dir,
                                             const std::string& pattern);

  /// Strict merge for completed campaigns: additionally requires full
  /// coverage of [0, total_samples). A gap fails with kFailedPrecondition
  /// naming the exact missing index range, e.g. "missing samples
  /// [512, 768)".
  static Result<JournalContents> merge(const std::string& dir,
                                       const std::string& pattern);
};

/// Appends completed shards to `<dir>/campaign.fj`. Every append is fsynced
/// before returning, so a completed shard survives SIGKILL; creating or
/// truncating the file also fsyncs the parent directory, which holds the
/// name->inode link.
class JournalWriter {
 public:
  /// Optional observability (see util/metrics.h): fsync latencies
  /// ("journal.fsync_ns", "journal.dir_fsync_ns") and I/O counters
  /// ("journal.commits", "journal.dir_fsyncs", "journal.shards",
  /// "journal.bytes_written"). The sink must outlive the writer; the caller
  /// serializes access.
  void set_metrics(MetricsSink* sink) {
    metrics_ = sink;
    log_.set_metrics(sink);
  }

  /// Starts a new journal (truncating any existing one) and commits the
  /// header. Creates `dir` if needed. `file` selects the file name inside
  /// `dir`; the default is the single-process campaign journal, supervised
  /// workers pass their own "worker-<k>.fj".
  Status open_fresh(const std::string& dir, const JournalMeta& meta,
                    const std::string& file = "campaign.fj");
  /// Opens an existing journal for appending (after read_journal /
  /// JournalReader validated it). The file is first truncated to
  /// `valid_bytes` — the validated-prefix size — so a torn tail left by a
  /// crash is cut off instead of ending up buried between frames (which the
  /// next read would rightly flag as mid-file corruption).
  Status open_append(const std::string& dir, std::uint64_t valid_bytes,
                     const std::string& file = "campaign.fj");

  /// Appends one shard record covering records[0, count) at sample indices
  /// [first_index, first_index + count) and commits it to disk.
  Status append_shard(std::size_t first_index, const SampleRecord* records,
                      std::size_t count);

 private:
  io::RecordLog log_;
  MetricsSink* metrics_ = nullptr;
};

}  // namespace fav::mc
