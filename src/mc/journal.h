// Crash-safe append-only run journal for Monte Carlo campaigns.
//
// A campaign of 1e4–1e6 samples can run for hours; the journal makes a
// SIGKILL (or power loss) cost at most one shard of work. A journal is a
// directory: the set of its `*.fj` shard files, all carrying the same meta.
// The in-process engine appends to `campaign.fj`, each supervised worker to
// its own `worker-<k>.fj`. Every file is a record log (util/record_log.h:
// CRC32C frames, torn-tail and mid-file damage rules, one write and one
// fsync per record); all integers little-endian:
//
//   file:    magic "FAVJRNL3" | frame(meta) | frame(shard)*
//   meta:    u64 fingerprint | u64 total_samples | u32 ctx_len | ctx bytes
//   shard:   u64 first_index | u32 count | count serialized SampleRecords
//
// Each shard record holds one completed run of consecutive sample indices
// and is fsynced before the next shard starts. The reader drops a torn tail
// (a partially-written last frame is the normal crash artifact) but reports
// kJournalCorrupt for mid-file damage — a bad frame followed by further
// data — and for a bad magic or meta record.
//
// Both campaign modes share one contract and one start (start_journal),
// which first takes the directory's lock (`<dir>/lock`): a directory holds
// one campaign at a time, local or served, and a second start is refused
// before it touches a file. A fresh start removes every `*.fj`
// (clear_journal); a resume merges every `*.fj` (JournalReader::
// merge_partial), checks the campaign identity, cross-checks each journaled
// sample against the deterministically re-drawn stream, evaluates only the
// missing indices and folds in index order — so any journal resumes under
// any parallelism, in-process or supervised, and the result is
// bitwise-identical to an uninterrupted run. Either way each writer opens
// its own shard file one way (JournalWriter::open). A directory without
// shard files is an empty journal: resuming it starts fresh.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mc/evaluator.h"
#include "util/io.h"
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
/// coalesced, so a `campaign.fj` written by one uninterrupted run reads back
/// as one span at index 0). On-disk frame order is free — a supervised worker
/// journals shards in *assignment* order, which drops below earlier indices
/// when it picks up a shard rescued from a crashed peer — so the reader
/// sorts; overlapping frames within one file are corruption.
struct JournalShards {
  JournalMeta meta;
  std::vector<JournalSpan> spans;
  std::uint64_t valid_bytes = 0;
};

/// Sparse union of a journal's shard files (see JournalReader::merge_partial):
/// `records[i]` is valid iff `present[i]`. Both are empty when the directory
/// holds no shard file — an empty journal, which a resume starts fresh.
struct MergedJournal {
  JournalMeta meta;
  std::vector<SampleRecord> records;   // size == meta.total_samples
  std::vector<std::uint8_t> present;   // parallel to records
  /// The directory's lock when start_journal returned this merge: the
  /// campaign owns the directory while it keeps the merge alive.
  std::unique_ptr<io::FileLock> lock;

  /// kJournalCorrupt unless the journal is empty or belongs to the campaign
  /// with this fingerprint and sample count.
  Status check_campaign(std::uint64_t fingerprint,
                        std::uint64_t total_samples) const;
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

/// Starts a fresh journal in `dir`: creates the directory if needed and
/// removes every `*.fj` in it, so a later resume cannot merge a stale shard
/// file of an earlier run in either mode.
Status clear_journal(const std::string& dir);

/// The one campaign start of both modes, for a campaign of `total` samples.
/// Rejects an empty `dir` or a zero `shard_size` (kInvalidArgument). Creates
/// `dir` and takes its lock in one try: a directory another campaign holds
/// (any process, or this one) is kFailedPrecondition, with nothing written.
/// A resume then merges every shard file (merge_partial) and checks the
/// campaign identity; a fresh start clears the directory (clear_journal)
/// and returns an empty merge. Either way the returned merge holds the lock.
Result<MergedJournal> start_journal(const JournalOptions& options,
                                    std::uint64_t total);

/// Journal directory access: one shard file, or the merge of all of them.
class JournalReader {
 public:
  /// Reads and verifies one shard file. Frames may start at any sample index
  /// but must not overlap within the file. Torn tails are tolerated;
  /// header corruption and mid-file damage yield kJournalCorrupt, a missing
  /// or unreadable file kJournalIoError.
  static Result<JournalShards> read_shards(const std::string& dir,
                                           const std::string& file);

  /// Merges every `*.fj` in `dir`. Validates that all files carry the same
  /// fingerprint and total-sample count, that every span lies inside the
  /// campaign, and that no two spans overlap; gaps are allowed — this is the
  /// resume path, which continues from whatever survived. A directory that
  /// holds no shard file, or does not exist, yields an empty merge.
  static Result<MergedJournal> merge_partial(const std::string& dir);
};

/// Appends completed shards to one shard file (`<dir>/campaign.fj` by
/// default). Every append is fsynced before returning, so a completed shard
/// survives SIGKILL; creating or truncating the file also fsyncs the parent
/// directory, which holds the name->inode link.
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

  /// The shard-file open of both campaign modes: the in-process engine
  /// opens "campaign.fj", a supervised worker its "worker-<k>.fj". A file
  /// that reads back with `meta`'s fingerprint and total_samples (a resume,
  /// a respawned or a resumed worker) is cut to its valid prefix and
  /// appended to; anything else (absent, damaged, another campaign's) is
  /// started fresh. Only the meta record is decoded.
  Status open(const std::string& dir, const std::string& file,
              const JournalMeta& meta);
  /// Starts a new shard file (truncating any existing one) and commits the
  /// header. Creates `dir` if needed; other shard files are left alone
  /// (clear_journal removes them). `file` selects the file name inside
  /// `dir`.
  Status open_fresh(const std::string& dir, const JournalMeta& meta,
                    const std::string& file = "campaign.fj");
  /// Opens an existing shard file for appending (after JournalReader
  /// validated it). The file is first truncated to `valid_bytes` — the
  /// validated-prefix size — so a torn tail left by a crash is cut off
  /// instead of ending up buried between frames (which the next read would
  /// rightly flag as mid-file corruption).
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
