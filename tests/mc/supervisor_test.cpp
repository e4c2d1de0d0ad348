// Unit tests for the supervisor building blocks that need no worker
// processes: the wire codec, the journal directory merge (gap/overlap/
// fingerprint validation, in-process and worker files alike), and the
// sample cross-check predicate. The
// end-to-end supervised campaigns (real fork/exec workers, chaos kills,
// quarantine) live in tests/tools/supervise_cli_test.cpp.
#include "mc/supervisor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mc/journal.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;
using faultsim::FaultSample;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_sup_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SampleRecord make_record(int i) {
  SampleRecord rec;
  rec.sample.technique = faultsim::TechniqueKind::kRadiation;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(17 * i + 1);
  rec.sample.radius = 1.25;
  rec.sample.strike_frac = 0.75;
  rec.sample.depth = 0.5;
  rec.sample.impact_cycles = 1;
  rec.sample.weight = 0.5 + i;
  rec.path = OutcomePath::kRtl;
  rec.success = i % 2 == 0;
  rec.contribution = 0.125 * i;
  return rec;
}

JournalMeta test_meta(std::uint64_t total) {
  JournalMeta meta;
  meta.fingerprint = 0xFEEDFACE12345678ull;
  meta.total_samples = total;
  meta.context = "test/campaign";
  return meta;
}

/// Writes one worker shard file covering [lo, hi) with make_record payloads.
void write_shard_file(const std::string& dir, std::size_t worker_id,
                      const JournalMeta& meta,
                      const std::vector<std::pair<std::size_t, std::size_t>>&
                          ranges) {
  JournalWriter writer;
  ASSERT_TRUE(
      writer.open_fresh(dir, meta, worker_journal_file(worker_id)).is_ok());
  for (const auto& [lo, hi] : ranges) {
    std::vector<SampleRecord> records;
    for (std::size_t i = lo; i < hi; ++i) {
      records.push_back(make_record(static_cast<int>(i)));
    }
    ASSERT_TRUE(
        writer.append_shard(lo, records.data(), records.size()).is_ok());
  }
}

// --- wire codec -----------------------------------------------------------

TEST(SupervisorCodec, ControlMessagesRoundTrip) {
  WireMessage msg;
  ASSERT_TRUE(decode_message(encode_ready(), &msg));
  EXPECT_EQ(msg.type, WireType::kReady);
  ASSERT_TRUE(decode_message(encode_shutdown(), &msg));
  EXPECT_EQ(msg.type, WireType::kShutdown);

  ASSERT_TRUE(decode_message(encode_assign(17, 42), &msg));
  EXPECT_EQ(msg.type, WireType::kAssign);
  EXPECT_EQ(msg.lo, 17u);
  EXPECT_EQ(msg.hi, 42u);

  ASSERT_TRUE(decode_message(encode_done(1024, 1280), &msg));
  EXPECT_EQ(msg.type, WireType::kDone);
  EXPECT_EQ(msg.lo, 1024u);
  EXPECT_EQ(msg.hi, 1280u);
}

TEST(SupervisorCodec, ProgressRoundTripsExactDoubles) {
  for (const OutcomePath path : {OutcomePath::kMasked, OutcomePath::kAnalytical,
                                 OutcomePath::kRtl, OutcomePath::kFailed}) {
    WireMessage msg;
    ASSERT_TRUE(
        decode_message(encode_progress(987654321, 0.1 + 0.2, path), &msg));
    EXPECT_EQ(msg.type, WireType::kProgress);
    EXPECT_EQ(msg.index, 987654321u);
    EXPECT_EQ(msg.contribution, 0.1 + 0.2);  // bitwise
    EXPECT_EQ(msg.path, path);
  }
}

TEST(SupervisorCodec, MetricsRoundTripThroughSink) {
  MetricsSink sink;
  sink.add_counter("eval.samples", 42);
  sink.set_gauge("ssf.running", 0.125);
  WireMessage msg;
  ASSERT_TRUE(decode_message(encode_metrics(sink), &msg));
  EXPECT_EQ(msg.type, WireType::kMetrics);
  MetricsSink back;
  ASSERT_TRUE(back.deserialize(msg.blob));
  EXPECT_EQ(back.counters().at("eval.samples"), 42u);
  EXPECT_EQ(back.gauges().at("ssf.running"), 0.125);
}

TEST(SupervisorCodec, RejectsMalformedPayloads) {
  WireMessage msg;
  EXPECT_FALSE(decode_message("", &msg));
  EXPECT_FALSE(decode_message(std::string(1, '\x00'), &msg));  // unknown type
  EXPECT_FALSE(decode_message(std::string(1, '\x63'), &msg));  // unknown type
  // Truncated ASSIGN: type byte + 4 bytes instead of 16.
  std::string truncated = encode_assign(1, 2).substr(0, 5);
  EXPECT_FALSE(decode_message(truncated, &msg));
  // Trailing garbage after a well-formed READY.
  EXPECT_FALSE(decode_message(encode_ready() + "x", &msg));
  // PROGRESS with a path byte past OutcomePath::kFailed.
  std::string bad_path = encode_progress(1, 0.5, OutcomePath::kFailed);
  bad_path.back() = '\x04';
  EXPECT_FALSE(decode_message(bad_path, &msg));
}

TEST(SupervisorCodec, WorkerJournalFileNames) {
  EXPECT_EQ(worker_journal_file(0), "worker-0.fj");
  EXPECT_EQ(worker_journal_file(12), "worker-12.fj");
}

// --- sample cross-check ---------------------------------------------------

TEST(SampleMatches, DetectsEveryFieldDivergence) {
  const FaultSample base = make_record(3).sample;
  EXPECT_TRUE(sample_matches(base, base));
  FaultSample other = base;
  other.t += 1;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.center += 1;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.weight *= 2.0;
  EXPECT_FALSE(sample_matches(base, other));
  other = base;
  other.technique = faultsim::TechniqueKind::kClockGlitch;
  EXPECT_FALSE(sample_matches(base, other));
}

// --- multi-shard merge ----------------------------------------------------

TEST(JournalMerge, MergesInterleavedWorkerShards) {
  const std::string dir = fresh_dir("interleaved");
  const JournalMeta meta = test_meta(12);
  // Worker 0 owns [0,4) and [8,12); worker 1 owns [4,8) — out of order
  // across files, contiguous overall.
  write_shard_file(dir, 0, meta, {{0, 4}, {8, 12}});
  write_shard_file(dir, 1, meta, {{4, 8}});
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().meta.fingerprint, meta.fingerprint);
  ASSERT_EQ(merged.value().records.size(), 12u);
  EXPECT_EQ(merged.value().present, std::vector<std::uint8_t>(12, 1));
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(merged.value().records[i].sample.t,
              make_record(static_cast<int>(i)).sample.t)
        << "sample " << i;
  }
}

TEST(JournalMerge, MergePartialExposesPresenceAndGaps) {
  const std::string dir = fresh_dir("partial");
  const JournalMeta meta = test_meta(10);
  write_shard_file(dir, 0, meta, {{0, 2}, {6, 8}});
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().present,
            (std::vector<std::uint8_t>{1, 1, 0, 0, 0, 0, 1, 1, 0, 0}));
  EXPECT_EQ(merged.value().records[7].sample.t, make_record(7).sample.t);
  EXPECT_EQ(merged.value().present.size(), meta.total_samples);
}

TEST(JournalMerge, AcceptsOutOfOrderFramesWithinOneFile) {
  const std::string dir = fresh_dir("rescued");
  const JournalMeta meta = test_meta(12);
  // A worker that picks up a shard rescued from a crashed peer journals it
  // *after* higher-indexed shards: [4,8), [8,12), then [0,4) on disk. The
  // reader must sort and coalesce instead of rejecting the file.
  write_shard_file(dir, 0, meta, {{4, 8}, {8, 12}, {0, 4}});
  Result<JournalShards> shards =
      JournalReader::read_shards(dir, worker_journal_file(0));
  ASSERT_TRUE(shards.is_ok()) << shards.status().to_string();
  ASSERT_EQ(shards.value().spans.size(), 1u);
  EXPECT_EQ(shards.value().spans[0].first_index, 0u);
  ASSERT_EQ(shards.value().spans[0].records.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(shards.value().spans[0].records[i].sample.t,
              make_record(static_cast<int>(i)).sample.t)
        << "sample " << i;
  }
}

TEST(JournalMerge, RejectsOverlappingFramesWithinOneFile) {
  const std::string dir = fresh_dir("selfoverlap");
  const JournalMeta meta = test_meta(12);
  // Out-of-order is legal (see above) but two frames in the same file
  // covering the same sample can never happen in a correct run.
  write_shard_file(dir, 0, meta, {{4, 8}, {2, 6}});
  Result<JournalShards> shards =
      JournalReader::read_shards(dir, worker_journal_file(0));
  ASSERT_FALSE(shards.is_ok());
  EXPECT_EQ(shards.status().code(), ErrorCode::kJournalCorrupt);
  EXPECT_NE(shards.status().to_string().find("both cover sample"),
            std::string::npos)
      << shards.status().to_string();
}

TEST(JournalMerge, RejectsOverlappingShards) {
  const std::string dir = fresh_dir("overlap");
  const JournalMeta meta = test_meta(8);
  write_shard_file(dir, 0, meta, {{0, 5}});
  write_shard_file(dir, 1, meta, {{4, 8}});
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
  EXPECT_NE(merged.status().to_string().find("both cover sample"),
            std::string::npos)
      << merged.status().to_string();
}

TEST(JournalMerge, RejectsForeignCampaignShard) {
  const std::string dir = fresh_dir("foreign");
  write_shard_file(dir, 0, test_meta(8), {{0, 4}});
  JournalMeta other = test_meta(8);
  other.fingerprint ^= 1;
  write_shard_file(dir, 1, other, {{4, 8}});
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
}

TEST(JournalMerge, NoShardFilesIsAnEmptyJournal) {
  // A directory without shard files, or none at all, is an empty journal: a
  // resume of it starts fresh. Files of other extensions are not shards.
  const std::string dir = fresh_dir("empty");
  { std::ofstream(fs::path(dir) / "report.json") << "{}"; }
  for (const std::string& d : {dir, dir + "/absent"}) {
    Result<MergedJournal> merged = JournalReader::merge_partial(d);
    ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
    EXPECT_TRUE(merged.value().present.empty());
    EXPECT_TRUE(merged.value().records.empty());
    EXPECT_TRUE(merged.value().check_campaign(1, 2).is_ok());
  }
}

TEST(JournalMerge, MergesTheInProcessFileWithWorkerFiles) {
  // One journal in both modes: campaign.fj and worker-<k>.fj merge alike,
  // and the merge checks the campaign identity.
  const std::string dir = fresh_dir("mixed");
  const JournalMeta meta = test_meta(8);
  write_shard_file(dir, 1, meta, {{4, 8}});
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(dir, meta).is_ok());
    const std::vector<SampleRecord> recs = {make_record(0), make_record(1),
                                            make_record(2), make_record(3)};
    ASSERT_TRUE(writer.append_shard(0, recs.data(), recs.size()).is_ok());
  }
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().present, std::vector<std::uint8_t>(8, 1));
  EXPECT_EQ(merged.value().records[2].sample.t, make_record(2).sample.t);
  EXPECT_EQ(merged.value().present.size(), meta.total_samples);
  EXPECT_TRUE(merged.value().check_campaign(meta.fingerprint, 8).is_ok());
  EXPECT_EQ(merged.value().check_campaign(meta.fingerprint, 9).code(),
            ErrorCode::kJournalCorrupt);
  EXPECT_EQ(merged.value().check_campaign(meta.fingerprint ^ 1, 8).code(),
            ErrorCode::kJournalCorrupt);
}

TEST(JournalMerge, ClearJournalRemovesEveryShardFileOnly) {
  const std::string dir = fresh_dir("clear");
  write_shard_file(dir, 0, test_meta(4), {{0, 2}});
  { std::ofstream(fs::path(dir) / "campaign.fj") << "x"; }
  { std::ofstream(fs::path(dir) / "report.json") << "{}"; }
  ASSERT_TRUE(clear_journal(dir).is_ok());
  EXPECT_FALSE(fs::exists(fs::path(dir) / worker_journal_file(0)));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "campaign.fj"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "report.json"));
  // A missing directory is created.
  ASSERT_TRUE(clear_journal(dir + "/new").is_ok());
  EXPECT_TRUE(fs::is_directory(dir + "/new"));
}

TEST(JournalMerge, SpanPastTotalSamplesIsCorrupt) {
  const std::string dir = fresh_dir("pastend");
  write_shard_file(dir, 0, test_meta(4), {{0, 4}});
  // Rewrite with a span that runs past total_samples.
  write_shard_file(dir, 1, test_meta(4), {{2, 6}});
  Result<MergedJournal> merged = JournalReader::merge_partial(dir);
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(merged.status().code(), ErrorCode::kJournalCorrupt);
}

}  // namespace
}  // namespace fav::mc
