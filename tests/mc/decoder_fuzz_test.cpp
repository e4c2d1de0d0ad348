// Seeded mutation fuzzer for every decoder of bytes that arrive from disk or
// a pipe: the record-log scan, the journal reader and its record codec, the
// serve daemon's campaign ledger, the pre-characterization artifact loader,
// the serve and supervisor wire messages and the metrics blob. Each input is
// a valid encoding edited a few times by a fixed-seed generator, so every
// run sees the same inputs. The property: each decoder returns a value or a
// clean failure (false, kJournalCorrupt, a non-hit artifact outcome) and
// never crashes, hangs or allocates more than its input can describe.
// Inputs that once broke a decoder are pinned at the end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mc/journal.h"
#include "mc/serve.h"
#include "mc/supervisor.h"
#include "precharac/artifact.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/record_log.h"
#include "util/rng.h"

namespace fav {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 2017;
constexpr int kIterations = 1000;

/// Applies one to four random edits: bit flips, byte stores, boundary u32
/// values (lengths and counts), truncation, insertion, deletion and
/// duplication of a range.
std::string mutate(std::string s, Rng& rng) {
  static const std::uint32_t kBoundary[] = {
      0u, 1u, 0x7Fu, 0xFFu, 0xFFFFu, 0x03FFFFFFu, 0x7FFFFFFFu, 0xFFFFFFFFu};
  const int edits = 1 + static_cast<int>(rng.uniform_below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos =
        s.empty() ? 0 : static_cast<std::size_t>(rng.uniform_below(s.size()));
    switch (rng.uniform_below(7)) {
      case 0:
        if (!s.empty()) s[pos] ^= static_cast<char>(1u << rng.uniform_below(8));
        break;
      case 1:
        if (!s.empty()) s[pos] = static_cast<char>(rng.uniform_below(256));
        break;
      case 2:
        if (s.size() >= 4) {
          const std::uint32_t v =
              kBoundary[rng.uniform_below(std::size(kBoundary))];
          std::memcpy(s.data() + std::min(pos, s.size() - 4), &v, sizeof(v));
        }
        break;
      case 3:
        s.resize(pos);
        break;
      case 4:
        s.insert(pos, 1 + rng.uniform_below(8),
                 static_cast<char>(rng.uniform_below(256)));
        break;
      case 5:
        s.erase(pos, 1 + rng.uniform_below(8));
        break;
      default:
        s.insert(pos, s.substr(pos, rng.uniform_below(s.size() - pos + 1)));
        break;
    }
  }
  return s;
}

/// Splits `data` after `header` bytes into frame payloads (all of it must
/// be whole frames).
std::vector<std::string> frames_of(const std::string& data,
                                   std::size_t header) {
  std::vector<std::string> out;
  std::size_t off = header;
  std::string_view payload;
  while (io::next_frame(data, &off, &payload)) out.emplace_back(payload);
  EXPECT_EQ(off, data.size());
  return out;
}

/// Re-frames `frames` after `header` with valid checksums.
std::string reframe(const std::string& header,
                    const std::vector<std::string>& frames) {
  std::string out = header;
  for (const std::string& f : frames) io::append_frame(out, f);
  return out;
}

/// Mutates one randomly chosen payload and re-frames it under a valid
/// checksum, so the mutation reaches the payload decoder.
std::string mutate_payload(const std::string& data, std::size_t header,
                           Rng& rng) {
  std::vector<std::string> frames = frames_of(data, header);
  std::string& victim = frames[rng.uniform_below(frames.size())];
  victim = mutate(victim, rng);
  return reframe(data.substr(0, header), frames);
}

class DecoderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fav_decoder_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  static void write_file(const std::string& p, const std::string& bytes) {
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  static std::string read_bytes(const std::string& p) {
    return io::read_file(p).value();
  }

  fs::path dir_;
};

mc::SampleRecord make_record(int i) {
  mc::SampleRecord rec;
  rec.sample.technique = i % 2 == 0 ? faultsim::TechniqueKind::kRadiation
                                    : faultsim::TechniqueKind::kClockGlitch;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(17 * i + 1);
  rec.sample.radius = 1.25 + 0.5 * i;
  rec.sample.weight = 0.5 + i;
  rec.te = 100 + static_cast<std::uint64_t>(i);
  rec.flipped_bits = {i, i + 7};
  rec.path = mc::OutcomePath::kRtl;
  rec.contribution = 0.125 * i;
  rec.fail_reason = i % 2 == 0 ? "" : "budget";
  return rec;
}

precharac::PrecharacBundle make_bundle() {
  precharac::PrecharacBundle b;
  b.responding_signal = 7;
  b.fanin_frames.resize(2);
  b.fanin_frames[0].gates = {10, 11};
  b.fanin_frames[1].registers = {30};
  b.fanout_frames.resize(1);
  b.fanout_frames[0].frame = -1;
  b.signature_cycles = 70;
  b.signatures.assign(3, BitVector(70));
  b.signatures[1].set(65, true);
  b.bits.resize(4);
  b.characterized.assign(4, 1);
  b.memory_bit_potency = {0.0, 0.5, 1.0, 0.25};
  return b;
}

constexpr std::uint64_t kArtifactFp = 0xA11CEull;
// Magic plus the u32 version: everything after it is frames.
constexpr std::size_t kArtifactHeader = 12;
// Section tags, as in precharac/artifact.cpp ("CONE", "SIGS", "CHAR").
constexpr std::uint32_t kSecCone = 0x454E4F43u;
constexpr std::uint32_t kSecSignatures = 0x53474953u;
constexpr std::uint32_t kSecCharacterization = 0x52414843u;

TEST_F(DecoderFuzz, RecordLogScan) {
  const std::string_view magic("FUZZLOG1", 8);
  std::string valid(magic);
  for (const std::size_t n : {1, 5, 40, 3}) {
    io::append_frame(valid, std::string(n, 'r'));
  }
  Rng rng(kSeed);
  for (int it = 0; it < kIterations; ++it) {
    const std::string bytes = mutate(valid, rng);
    write_file(path("log"), bytes);
    std::size_t visited = 0;
    const Result<io::LogScan> scan = io::RecordLog::scan(
        path("log"), magic, [&visited](std::string_view payload) {
          visited += payload.size();
          return true;
        });
    if (!scan.is_ok()) {
      EXPECT_EQ(scan.status().code(), ErrorCode::kJournalCorrupt) << it;
      continue;
    }
    EXPECT_GE(scan.value().valid_bytes, magic.size()) << it;
    EXPECT_LE(scan.value().valid_bytes, bytes.size()) << it;
    EXPECT_LE(visited, bytes.size()) << it;
  }
}

TEST_F(DecoderFuzz, JournalReader) {
  const std::string dir = path("journal");
  std::vector<mc::SampleRecord> recs;
  for (int i = 0; i < 6; ++i) recs.push_back(make_record(i));
  {
    mc::JournalMeta meta;
    meta.fingerprint = 9;
    meta.total_samples = 6;
    meta.context = "fuzz";
    mc::JournalWriter w;
    ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
    ASSERT_TRUE(w.append_shard(0, recs.data(), 2).is_ok());
    ASSERT_TRUE(w.append_shard(4, recs.data() + 4, 2).is_ok());
    ASSERT_TRUE(w.append_shard(2, recs.data() + 2, 2).is_ok());
  }
  const std::string file = (fs::path(dir) / "campaign.fj").string();
  const std::string valid = read_bytes(file);
  Rng rng(kSeed);
  for (int it = 0; it < kIterations; ++it) {
    // Even iterations edit raw bytes (the framing); odd ones edit one
    // record under a valid checksum (the meta and shard decoders).
    write_file(file, it % 2 == 0 ? mutate(valid, rng)
                                 : mutate_payload(valid, 8, rng));
    const Result<mc::JournalContents> read = mc::read_journal(dir);
    if (!read.is_ok()) {
      EXPECT_EQ(read.status().code(), ErrorCode::kJournalCorrupt) << it;
    }
    const Result<mc::JournalShards> shards =
        mc::JournalReader::read_shards(dir, "campaign.fj");
    if (!shards.is_ok()) {
      EXPECT_EQ(shards.status().code(), ErrorCode::kJournalCorrupt) << it;
    }
  }
}

TEST_F(DecoderFuzz, DeserializeRecord) {
  std::string valid;
  for (int i = 0; i < 3; ++i) mc::serialize_record(make_record(i), valid);
  Rng rng(kSeed);
  for (int it = 0; it < kIterations * 4; ++it) {
    const std::string bytes = mutate(valid, rng);
    std::size_t off = 0;
    mc::SampleRecord rec;
    while (off < bytes.size() && mc::deserialize_record(bytes, &off, &rec)) {
      ASSERT_LE(off, bytes.size()) << it;
    }
  }
}

TEST_F(DecoderFuzz, CampaignLedgerOpen) {
  const std::string ledger = path("ledger.fvl");
  {
    Result<mc::CampaignLedger> lg = mc::CampaignLedger::open(ledger);
    ASSERT_TRUE(lg.is_ok());
    ASSERT_TRUE(lg.value().accepted(1, {"evaluate", "--samples", "8"}).is_ok());
    ASSERT_TRUE(lg.value().running(1).is_ok());
    ASSERT_TRUE(lg.value().accepted(2, {"evaluate"}).is_ok());
    ASSERT_TRUE(lg.value().finished(1, 3).is_ok());
  }
  const std::string valid = read_bytes(ledger);
  Rng rng(kSeed);
  for (int it = 0; it < kIterations; ++it) {
    const std::string bytes =
        it % 2 == 0 ? mutate(valid, rng) : mutate_payload(valid, 8, rng);
    write_file(ledger, bytes);
    Result<mc::CampaignLedger> lg = mc::CampaignLedger::open(ledger);
    if (!lg.is_ok()) {
      EXPECT_EQ(lg.status().code(), ErrorCode::kJournalCorrupt) << it;
      continue;
    }
    EXPECT_LE(lg.value().discarded_bytes(), bytes.size()) << it;
    // Whatever open() kept replays clean: the damage was truncated away.
    Result<mc::CampaignLedger> again = mc::CampaignLedger::open(ledger);
    ASSERT_TRUE(again.is_ok()) << it;
    EXPECT_EQ(again.value().discarded_bytes(), 0u) << it;
  }
}

TEST_F(DecoderFuzz, ArtifactLoader) {
  const std::string artifact = path("bundle.fpa");
  ASSERT_TRUE(precharac::save_artifact(artifact, kArtifactFp, "fuzz",
                                       make_bundle())
                  .is_ok());
  const std::string valid = read_bytes(artifact);
  Rng rng(kSeed);
  for (int it = 0; it < kIterations; ++it) {
    // Odd iterations re-frame a mutated section so the parsers are reached.
    write_file(artifact, it % 2 == 0
                             ? mutate(valid, rng)
                             : mutate_payload(valid, kArtifactHeader, rng));
    const precharac::ArtifactLoad load =
        precharac::load_artifact(artifact, kArtifactFp);
    EXPECT_NE(load.outcome, precharac::ArtifactOutcome::kMiss) << it;
    if (load.outcome != precharac::ArtifactOutcome::kHit) {
      EXPECT_FALSE(load.detail.empty()) << it;
    }
  }
}

TEST_F(DecoderFuzz, ServeMessages) {
  const std::vector<std::string> valid = {
      mc::encode_serve_request({"evaluate", "--samples", "8"}),
      mc::encode_serve_accepted(4),
      mc::encode_serve_progress(3, 9),
      mc::encode_serve_stdout("ssf : 0.1\n"),
      mc::encode_serve_report("{}"),
      mc::encode_serve_finished(0),
      mc::encode_serve_error("bad flag", 2),
      mc::encode_serve_busy(50),
      mc::encode_serve_heartbeat(true),
      mc::encode_serve_cancel()};
  Rng rng(kSeed);
  for (int it = 0; it < kIterations * 4; ++it) {
    const std::string bytes =
        mutate(valid[rng.uniform_below(valid.size())], rng);
    mc::ServeMessage msg;
    if (mc::decode_serve_message(bytes, &msg)) {
      EXPECT_LE(msg.args.size(), mc::kMaxRequestArgs) << it;
      EXPECT_LE(msg.text.size(), bytes.size()) << it;
    }
  }
}

TEST_F(DecoderFuzz, SupervisorMessages) {
  MetricsSink sink;
  sink.add_counter("journal.shards", 3);
  const std::vector<std::string> valid = {
      mc::encode_ready(),       mc::encode_assign(0, 64),
      mc::encode_progress(5, 0.5, 1.0, false),
      mc::encode_done(0, 64),   mc::encode_shutdown(),
      mc::encode_metrics(sink)};
  Rng rng(kSeed);
  for (int it = 0; it < kIterations * 4; ++it) {
    const std::string bytes =
        mutate(valid[rng.uniform_below(valid.size())], rng);
    mc::WireMessage msg;
    if (mc::decode_message(bytes, &msg)) {
      EXPECT_LE(msg.blob.size(), bytes.size()) << it;
    }
  }
}

TEST_F(DecoderFuzz, MetricsBlob) {
  MetricsSink sink;
  sink.add_counter("journal.commits", 12);
  sink.add_counter("mc.samples", 400);
  sink.set_gauge("mc.ess", 17.5);
  sink.add_timer_ns("journal.fsync_ns", 1000);
  std::string valid;
  sink.serialize(valid);
  Rng rng(kSeed);
  for (int it = 0; it < kIterations * 4; ++it) {
    const std::string bytes = mutate(valid, rng);
    MetricsSink back;
    if (back.deserialize(bytes)) {
      std::string again;
      back.serialize(again);
      EXPECT_LE(again.size(), bytes.size()) << it;
    }
  }
}

// --- pinned regressions ------------------------------------------------------

/// The valid artifact with the section tagged `tag` replaced by `section`.
std::string artifact_with_section(const std::string& valid, std::uint32_t tag,
                                  const std::string& section) {
  std::vector<std::string> frames = frames_of(valid, kArtifactHeader);
  for (std::string& f : frames) {
    std::uint32_t t = 0;
    std::memcpy(&t, f.data(), sizeof(t));
    if (t == tag) f = f.substr(0, sizeof(t)) + section;
  }
  return reframe(valid.substr(0, kArtifactHeader), frames);
}

TEST_F(DecoderFuzz, PinnedRecordWithHugeFlipCountFailsWithoutReserving) {
  // A CRC-valid record may claim 67M flipped bits with none following; the
  // count must be checked against the bytes left before any reserve.
  std::string bytes;
  mc::serialize_record(make_record(0), bytes);
  const std::size_t nflips_at = bytes.size() - 4 /*reason len*/ -
                                4 * 2 /*bits*/ - 4 /*nflips*/;
  bytes.resize(nflips_at);
  io::put_le(bytes, std::uint32_t{0x03FFFFFF});
  std::size_t off = 0;
  mc::SampleRecord rec;
  EXPECT_FALSE(mc::deserialize_record(bytes, &off, &rec));
  EXPECT_LT(rec.flipped_bits.capacity(), 1024u);
}

TEST_F(DecoderFuzz, PinnedArtifactSectionCountsAreBoundedByTheirBytes) {
  const std::string artifact = path("bundle.fpa");
  ASSERT_TRUE(precharac::save_artifact(artifact, kArtifactFp, "fuzz",
                                       make_bundle())
                  .is_ok());
  const std::string valid = read_bytes(artifact);
  struct Case {
    const char* what;
    std::uint32_t tag;
    std::string section;
  };
  std::vector<Case> cases;
  {
    // A signature claiming 2^64 - 1 bits stored in zero words: the
    // ceil(bits / 64) check wrapped and accepted it.
    std::string s;
    io::put_le(s, std::uint64_t{70});
    io::put_le(s, std::uint32_t{1});
    io::put_le(s, ~std::uint64_t{0});
    io::put_le(s, std::uint32_t{0});
    cases.push_back({"signature bit count wraps", kSecSignatures, s});
  }
  {
    // Cone frame and characterization counts equal to the section size:
    // the parsers used to resize to them before reading anything.
    std::string s(4096, '\0');
    const std::uint32_t count = static_cast<std::uint32_t>(s.size());
    std::memcpy(s.data() + 4, &count, sizeof(count));
    cases.push_back({"cone frame count", kSecCone, s});
    std::string c(4096, '\0');
    std::memcpy(c.data() + 5 * 8, &count, sizeof(count));
    cases.push_back({"characterized bit count", kSecCharacterization, c});
  }
  for (const Case& c : cases) {
    write_file(artifact, artifact_with_section(valid, c.tag, c.section));
    const precharac::ArtifactLoad load =
        precharac::load_artifact(artifact, kArtifactFp);
    EXPECT_EQ(load.outcome, precharac::ArtifactOutcome::kCorrupt) << c.what;
  }
}

}  // namespace
}  // namespace fav
