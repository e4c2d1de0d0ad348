#include "mc/journal.h"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "util/io.h"

namespace fav::mc {

namespace {

// "FAVJRNL3": version 3 moved the frames onto util/record_log.h (CRC32C);
// older journals fail the magic check and are rejected as header-corrupt
// rather than silently misparsed.
constexpr std::string_view kFileMagic("FAVJRNL3", 8);

using io::get_le;
using io::put_le;

/// Journal writes report two failure classes: storage-full errnos keep
/// kStorageFull (the caller stops gracefully and the campaign stays
/// resumable); anything else is a journal I/O error.
Status classify_write(Status status) {
  if (status.is_ok() || status.code() == ErrorCode::kStorageFull) {
    return status;
  }
  return Status(ErrorCode::kJournalIoError, status.message());
}

std::string serialize_meta(const JournalMeta& meta) {
  std::string out;
  put_le(out, meta.fingerprint);
  put_le(out, meta.total_samples);
  io::put_string(out, meta.context);
  return out;
}

bool parse_meta(std::string_view payload, JournalMeta* meta) {
  std::size_t off = 0;
  return get_le(payload, &off, &meta->fingerprint) &&
         get_le(payload, &off, &meta->total_samples) &&
         io::get_string(payload, &off, &meta->context) &&
         off == payload.size();
}

/// Decodes one shard record into `spans`, extending the last span when the
/// shard continues it.
bool parse_shard(std::string_view payload, std::vector<JournalSpan>* spans) {
  std::size_t off = 0;
  std::uint64_t first_index = 0;
  std::uint32_t count = 0;
  if (!get_le(payload, &off, &first_index) ||
      !get_le(payload, &off, &count)) {
    return false;
  }
  if (spans->empty() || first_index != spans->back().end_index()) {
    spans->emplace_back();
    spans->back().first_index = first_index;
  }
  std::vector<SampleRecord>& records = spans->back().records;
  for (std::uint32_t i = 0; i < count; ++i) {
    SampleRecord rec;
    if (!deserialize_record(payload, &off, &rec)) return false;
    records.push_back(std::move(rec));
  }
  return off == payload.size();
}

std::string journal_path(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

/// Core reader shared by read_journal and JournalReader::read_shards: the
/// meta record, then shard records. The record log drops a torn tail and
/// reports mid-file damage; shards may start at any index but must not
/// overlap, and adjacent shards coalesce into one span.
Result<JournalShards> read_shards_impl(const std::string& path) {
  JournalShards shards;
  bool have_meta = false;
  Status bad_record;
  const Result<io::LogScan> scan = io::RecordLog::scan(
      path, kFileMagic, [&](std::string_view payload) {
        if (!have_meta) {
          have_meta = parse_meta(payload, &shards.meta);
          if (!have_meta) {
            bad_record = Status(ErrorCode::kJournalCorrupt,
                                "journal meta corrupt in " + path);
          }
          return have_meta;
        }
        // Frames need not be in index order: a supervised worker journals
        // shards in *assignment* order, and a shard rescued from a crashed
        // peer lands after higher-indexed shards in the survivor's file.
        // Spans are sorted and overlap-checked after the scan.
        if (!parse_shard(payload, &shards.spans)) {
          bad_record = Status(ErrorCode::kJournalCorrupt,
                              "journal frame payload corrupt in " + path);
          return false;
        }
        return true;
      });
  if (!scan.is_ok()) {
    if (scan.status().code() == ErrorCode::kJournalCorrupt) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal header corrupt in " + path);
    }
    return Status(ErrorCode::kJournalIoError,
                  "cannot open journal " + path + " for reading");
  }
  if (!bad_record.is_ok()) return bad_record;
  if (scan.value().damaged) {
    return Status(ErrorCode::kJournalCorrupt,
                  "journal damaged mid-file in " + path +
                      " (bad frame followed by more data)");
  }
  if (!have_meta) {
    return Status(ErrorCode::kJournalCorrupt,
                  "journal header corrupt in " + path);
  }
  shards.valid_bytes = scan.value().valid_bytes;
  // Restore the JournalShards contract (strictly increasing, non-overlapping,
  // coalesced spans) independently of the on-disk frame order.
  std::sort(shards.spans.begin(), shards.spans.end(),
            [](const JournalSpan& a, const JournalSpan& b) {
              return a.first_index < b.first_index;
            });
  std::vector<JournalSpan> coalesced;
  for (JournalSpan& span : shards.spans) {
    const std::uint64_t back_end =
        coalesced.empty() ? 0 : coalesced.back().end_index();
    if (!coalesced.empty() && span.first_index < back_end) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal shards overlap in " + path +
                        " (both cover sample " +
                        std::to_string(span.first_index) + ")");
    }
    if (!coalesced.empty() && span.first_index == back_end) {
      std::vector<SampleRecord>& dst = coalesced.back().records;
      dst.insert(dst.end(), std::make_move_iterator(span.records.begin()),
                 std::make_move_iterator(span.records.end()));
    } else {
      coalesced.push_back(std::move(span));
    }
  }
  shards.spans = std::move(coalesced);
  return shards;
}

/// Single-`*` glob match (e.g. "worker-*.fj"): literal prefix + literal
/// suffix, anything (including nothing) in between. No `*` means an exact
/// match.
bool glob_matches(const std::string& pattern, const std::string& name) {
  const std::size_t star = pattern.find('*');
  if (star == std::string::npos) return pattern == name;
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void serialize_record(const SampleRecord& record, std::string& out) {
  put_le(out, static_cast<std::uint8_t>(record.sample.technique));
  put_le(out, static_cast<std::int32_t>(record.sample.t));
  put_le(out, static_cast<std::uint32_t>(record.sample.center));
  put_le(out, record.sample.radius);
  put_le(out, record.sample.strike_frac);
  put_le(out, record.sample.depth);
  put_le(out, static_cast<std::int32_t>(record.sample.impact_cycles));
  put_le(out, record.sample.weight);
  put_le(out, record.te);
  put_le(out, static_cast<std::uint8_t>(record.path));
  put_le(out, static_cast<std::uint8_t>(record.success ? 1 : 0));
  put_le(out, static_cast<std::uint8_t>(record.retried ? 1 : 0));
  put_le(out, static_cast<std::uint16_t>(record.fail_code));
  put_le(out, record.contribution);
  put_le(out, static_cast<std::uint32_t>(record.flipped_bits.size()));
  for (const int bit : record.flipped_bits) {
    put_le(out, static_cast<std::int32_t>(bit));
  }
  io::put_string(out, record.fail_reason);
}

bool deserialize_record(std::string_view data, std::size_t* offset,
                        SampleRecord* record) {
  std::int32_t t = 0, impact = 0;
  std::uint32_t center = 0;
  std::uint8_t technique = 0, path = 0, success = 0, retried = 0;
  std::uint16_t fail_code = 0;
  if (!get_le(data, offset, &technique)) return false;
  if (technique >
      static_cast<std::uint8_t>(faultsim::TechniqueKind::kVoltageGlitch)) {
    return false;
  }
  if (!get_le(data, offset, &t)) return false;
  if (!get_le(data, offset, &center)) return false;
  if (!get_le(data, offset, &record->sample.radius)) return false;
  if (!get_le(data, offset, &record->sample.strike_frac)) return false;
  if (!get_le(data, offset, &record->sample.depth)) return false;
  if (!get_le(data, offset, &impact)) return false;
  if (!get_le(data, offset, &record->sample.weight)) return false;
  if (!get_le(data, offset, &record->te)) return false;
  if (!get_le(data, offset, &path)) return false;
  if (!get_le(data, offset, &success)) return false;
  if (!get_le(data, offset, &retried)) return false;
  if (!get_le(data, offset, &fail_code)) return false;
  if (!get_le(data, offset, &record->contribution)) return false;
  record->sample.technique = static_cast<faultsim::TechniqueKind>(technique);
  record->sample.t = t;
  record->sample.center = center;
  record->sample.impact_cycles = impact;
  if (path > static_cast<std::uint8_t>(OutcomePath::kFailed)) return false;
  record->path = static_cast<OutcomePath>(path);
  record->success = success != 0;
  record->retried = retried != 0;
  record->fail_code = static_cast<ErrorCode>(fail_code);
  std::uint32_t nflips = 0;
  if (!get_le(data, offset, &nflips)) return false;
  if (nflips > (data.size() - *offset) / sizeof(std::int32_t)) return false;
  record->flipped_bits.clear();
  record->flipped_bits.reserve(nflips);
  for (std::uint32_t i = 0; i < nflips; ++i) {
    std::int32_t bit = 0;
    if (!get_le(data, offset, &bit)) return false;
    record->flipped_bits.push_back(bit);
  }
  return io::get_string(data, offset, &record->fail_reason);
}

bool sample_matches(const faultsim::FaultSample& a,
                    const faultsim::FaultSample& b) {
  return a.technique == b.technique && a.t == b.t && a.center == b.center &&
         a.radius == b.radius && a.strike_frac == b.strike_frac &&
         a.depth == b.depth && a.impact_cycles == b.impact_cycles &&
         a.weight == b.weight;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
MergedJournal::missing_ranges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::size_t i = 0;
  while (i < present.size()) {
    if (present[i] != 0) {
      ++i;
      continue;
    }
    const std::size_t first = i;
    while (i < present.size() && present[i] == 0) ++i;
    ranges.emplace_back(first, i);
  }
  return ranges;
}

Result<JournalContents> read_journal(const std::string& dir) {
  const std::string path = journal_path(dir, "campaign.fj");
  Result<JournalShards> shards = read_shards_impl(path);
  if (!shards.is_ok()) return shards.status();
  JournalShards& s = shards.value();
  // The single-process journal must be a contiguous prefix of the campaign;
  // a gap or a nonzero start means the file was not written by this engine.
  if (!s.spans.empty() &&
      (s.spans.size() != 1 || s.spans.front().first_index != 0)) {
    return Status(ErrorCode::kJournalCorrupt,
                  "journal frames out of order in " + path);
  }
  JournalContents contents;
  contents.meta = std::move(s.meta);
  contents.valid_bytes = s.valid_bytes;
  if (!s.spans.empty()) contents.records = std::move(s.spans.front().records);
  return contents;
}

Result<JournalShards> JournalReader::read_shards(const std::string& dir,
                                                 const std::string& file) {
  return read_shards_impl(journal_path(dir, file));
}

Result<MergedJournal> JournalReader::merge_partial(const std::string& dir,
                                                   const std::string& pattern) {
  std::vector<std::string> names;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
      return Status(ErrorCode::kJournalIoError,
                    "cannot list journal directory " + dir + ": " +
                        ec.message());
    }
    for (const auto& entry : it) {
      const std::string name = entry.path().filename().string();
      if (glob_matches(pattern, name)) names.push_back(name);
    }
  }
  if (names.empty()) {
    return Status(ErrorCode::kJournalIoError,
                  "no journal shards matching " + pattern + " in " + dir);
  }
  // Deterministic merge order (directory iteration order is not specified).
  std::sort(names.begin(), names.end());

  MergedJournal merged;
  // Tracks which file contributed each sample, for the overlap diagnostic.
  std::vector<std::uint32_t> owner;
  for (std::size_t fi = 0; fi < names.size(); ++fi) {
    const std::string& name = names[fi];
    Result<JournalShards> shards = read_shards(dir, name);
    if (!shards.is_ok()) return shards.status();
    JournalShards& s = shards.value();
    if (fi == 0) {
      merged.meta = s.meta;
      merged.records.resize(merged.meta.total_samples);
      merged.present.assign(merged.meta.total_samples, 0);
      owner.assign(merged.meta.total_samples, 0);
    } else if (s.meta.fingerprint != merged.meta.fingerprint ||
               s.meta.total_samples != merged.meta.total_samples) {
      return Status(ErrorCode::kJournalCorrupt,
                    "journal shard " + name +
                        " belongs to a different campaign than " + names[0] +
                        " (fingerprint or sample count mismatch)");
    }
    merged.valid_bytes[name] = s.valid_bytes;
    for (JournalSpan& span : s.spans) {
      if (span.end_index() > merged.meta.total_samples) {
        return Status(ErrorCode::kJournalCorrupt,
                      "journal shard " + name + " covers samples [" +
                          std::to_string(span.first_index) + ", " +
                          std::to_string(span.end_index()) +
                          ") past the campaign end " +
                          std::to_string(merged.meta.total_samples));
      }
      for (std::size_t i = 0; i < span.records.size(); ++i) {
        const std::uint64_t index = span.first_index + i;
        if (merged.present[index] != 0) {
          return Status(ErrorCode::kJournalCorrupt,
                        "journal shards " + names[owner[index]] + " and " +
                            name + " both cover sample " +
                            std::to_string(index));
        }
        merged.records[index] = std::move(span.records[i]);
        merged.present[index] = 1;
        owner[index] = static_cast<std::uint32_t>(fi);
        ++merged.present_count;
      }
    }
  }
  return merged;
}

Result<JournalContents> JournalReader::merge(const std::string& dir,
                                             const std::string& pattern) {
  Result<MergedJournal> merged = merge_partial(dir, pattern);
  if (!merged.is_ok()) return merged.status();
  MergedJournal& m = merged.value();
  if (!m.complete()) {
    const auto ranges = m.missing_ranges();
    std::string msg = "journal shards matching " + pattern + " in " + dir +
                      " are incomplete: missing samples [" +
                      std::to_string(ranges.front().first) + ", " +
                      std::to_string(ranges.front().second) + ")";
    if (ranges.size() > 1) {
      msg += " and " + std::to_string(ranges.size() - 1) + " more range(s)";
    }
    return Status(ErrorCode::kFailedPrecondition, msg);
  }
  JournalContents contents;
  contents.meta = std::move(m.meta);
  contents.records = std::move(m.records);
  return contents;
}

Status JournalWriter::open_fresh(const std::string& dir,
                                 const JournalMeta& meta,
                                 const std::string& file) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status(ErrorCode::kJournalIoError,
                  "cannot create journal directory " + dir + ": " +
                      ec.message());
  }
  // The meta record rides in the header write: a crash between open and the
  // first append leaves a valid, durable empty journal behind.
  return classify_write(
      log_.create(journal_path(dir, file), kFileMagic, serialize_meta(meta)));
}

Status JournalWriter::open_append(const std::string& dir,
                                  std::uint64_t valid_bytes,
                                  const std::string& file) {
  return classify_write(
      log_.open_append(journal_path(dir, file), valid_bytes));
}

Status JournalWriter::append_shard(std::size_t first_index,
                                   const SampleRecord* records,
                                   std::size_t count) {
  std::string payload;
  put_le(payload, static_cast<std::uint64_t>(first_index));
  put_le(payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    serialize_record(records[i], payload);
  }
  // A storage-full failure surfaces as kStorageFull so the campaign can stop
  // gracefully and resume later.
  const Status appended = classify_write(log_.append(payload));
  if (appended.is_ok() && metrics_ != nullptr) {
    metrics_->add_counter("journal.shards");
    metrics_->add_counter("journal.bytes_written",
                          payload.size() + io::kFrameOverhead);
  }
  return appended;
}

}  // namespace fav::mc
