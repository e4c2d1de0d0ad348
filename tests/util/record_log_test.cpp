// Contract tests for the record log (util/record_log.h): the frame codec,
// torn-tail and mid-file damage rules of a scan, torn-tail truncation on
// reopen, and the one-write-one-fsync cost of every record.
#include "util/record_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/io.h"

namespace fav::io {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic("TESTLOG1", 8);

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos_reset();
    dir_ = fs::temp_directory_path() /
           ("fav_record_log_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "log.bin").string();
  }
  void TearDown() override {
    chaos_reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write_bytes(const std::string& bytes) const {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::string read_bytes() const { return read_file(path_).value(); }

  /// Scans path_, collecting every visited payload.
  Result<LogScan> scan(std::vector<std::string>* seen) const {
    return RecordLog::scan(path_, kMagic, [seen](std::string_view payload) {
      seen->emplace_back(payload);
      return true;
    });
  }

  fs::path dir_;
  std::string path_;
};

const std::vector<std::string> kRecords = {"first", "second record",
                                           std::string(300, 'x')};

/// Magic plus every record of kRecords; `ends[i]` is the file offset just
/// past record i.
std::string encoded_log(std::vector<std::size_t>* ends) {
  std::string out(kMagic);
  for (const std::string& r : kRecords) {
    append_frame(out, r);
    ends->push_back(out.size());
  }
  return out;
}

TEST(RecordFrame, RoundTripsAndRejectsEveryTruncation) {
  std::string data;
  append_frame(data, "alpha");
  append_frame(data, "beta");
  ASSERT_EQ(data.size(), 2 * kFrameOverhead + 9);
  std::size_t off = 0;
  std::string_view payload;
  ASSERT_TRUE(next_frame(data, &off, &payload));
  EXPECT_EQ(payload, "alpha");
  ASSERT_TRUE(next_frame(data, &off, &payload));
  EXPECT_EQ(payload, "beta");
  EXPECT_EQ(off, data.size());
  EXPECT_FALSE(next_frame(data, &off, &payload));
  for (std::size_t len = 0; len < kFrameOverhead + 5; ++len) {
    std::size_t at = 0;
    EXPECT_FALSE(next_frame(std::string_view(data).substr(0, len), &at,
                            &payload))
        << "truncated to " << len;
    EXPECT_EQ(at, 0u);
  }
}

TEST_F(RecordLogTest, TornLastFrameAtEveryLengthKeepsTheIntactPrefix) {
  std::vector<std::size_t> ends;
  const std::string bytes = encoded_log(&ends);
  for (std::size_t len = ends[1]; len < ends[2]; ++len) {
    write_bytes(bytes.substr(0, len));
    std::vector<std::string> seen;
    const Result<LogScan> s = scan(&seen);
    ASSERT_TRUE(s.is_ok()) << s.status().to_string();
    EXPECT_EQ(s.value().valid_bytes, ends[1]) << "cut at " << len;
    EXPECT_FALSE(s.value().damaged) << "cut at " << len;
    ASSERT_EQ(seen.size(), 2u) << "cut at " << len;
    EXPECT_EQ(seen[1], kRecords[1]);
  }
}

TEST_F(RecordLogTest, FlippedByteInAnEarlierFrameIsMidFileDamage) {
  std::vector<std::size_t> ends;
  const std::string bytes = encoded_log(&ends);
  // Every payload and checksum byte of the first two frames. The length
  // field is outside the checksum; see LengthFieldDamageNeverAcceptsTheFrame.
  for (std::size_t frame = 0; frame < 2; ++frame) {
    const std::size_t start = frame == 0 ? kMagic.size() : ends[0];
    for (std::size_t pos = start + 4; pos < ends[frame]; ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
      write_bytes(mutated);
      std::vector<std::string> seen;
      const Result<LogScan> s = scan(&seen);
      ASSERT_TRUE(s.is_ok());
      EXPECT_TRUE(s.value().damaged) << "flip at " << pos;
      EXPECT_EQ(s.value().valid_bytes, start) << "flip at " << pos;
      EXPECT_EQ(seen.size(), frame) << "flip at " << pos;
    }
  }
}

TEST_F(RecordLogTest, LengthFieldDamageNeverAcceptsTheFrame) {
  std::vector<std::size_t> ends;
  const std::string bytes = encoded_log(&ends);
  for (std::size_t pos = ends[0]; pos < ends[0] + 4; ++pos) {
    for (const int bit : {0, 3, 7}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      write_bytes(mutated);
      std::vector<std::string> seen;
      const Result<LogScan> s = scan(&seen);
      ASSERT_TRUE(s.is_ok());
      EXPECT_EQ(s.value().valid_bytes, ends[0]) << pos << " bit " << bit;
      EXPECT_EQ(seen.size(), 1u);
    }
  }
}

TEST_F(RecordLogTest, ZeroLengthAndLengthPastEndOfFile) {
  std::vector<std::size_t> ends;
  const std::string bytes = encoded_log(&ends);
  const std::string head = bytes.substr(0, ends[0]);
  const std::string zero(4, '\0');
  struct Case {
    std::string bytes;
    bool damaged;
  };
  std::string past_eof = head;
  put_le(past_eof, std::uint32_t{1000});
  past_eof += "only a few bytes";
  const std::vector<Case> cases = {
      // A zero length at the end, then one followed by more frames.
      {head + zero, false},
      {head + zero + bytes.substr(ends[0]), true},
      // A length claiming bytes past the end; a torn length field.
      {past_eof, false},
      {head + "\x01\x02", false},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    write_bytes(cases[i].bytes);
    std::vector<std::string> seen;
    const Result<LogScan> s = scan(&seen);
    ASSERT_TRUE(s.is_ok()) << "case " << i;
    EXPECT_EQ(s.value().valid_bytes, ends[0]) << "case " << i;
    EXPECT_EQ(s.value().damaged, cases[i].damaged) << "case " << i;
    EXPECT_EQ(seen.size(), 1u) << "case " << i;
  }
}

TEST_F(RecordLogTest, BadMagicAndMissingFileAreErrors) {
  EXPECT_EQ(RecordLog::scan(path_, kMagic, nullptr).status().code(),
            ErrorCode::kIoError);
  write_bytes("TESTLOG");  // shorter than the magic
  std::vector<std::string> seen;
  EXPECT_EQ(scan(&seen).status().code(), ErrorCode::kJournalCorrupt);
  write_bytes("TESTLOG2");
  EXPECT_EQ(scan(&seen).status().code(), ErrorCode::kJournalCorrupt);
  write_bytes(std::string(kMagic));
  const Result<LogScan> empty = scan(&seen);
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value().valid_bytes, kMagic.size());
  EXPECT_TRUE(seen.empty());
}

TEST_F(RecordLogTest, RejectedRecordEndsThePrefix) {
  std::vector<std::size_t> ends;
  write_bytes(encoded_log(&ends));
  int visits = 0;
  const Result<LogScan> s =
      RecordLog::scan(path_, kMagic, [&visits](std::string_view) {
        return ++visits < 2;
      });
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(visits, 2);
  EXPECT_EQ(s.value().valid_bytes, ends[0]);
  EXPECT_TRUE(s.value().damaged);  // the third frame follows the rejected one
}

TEST_F(RecordLogTest, CreateAppendAndScanRoundTrip) {
  {
    RecordLog log;
    ASSERT_TRUE(log.create(path_, kMagic, kRecords[0]).is_ok());
    ASSERT_TRUE(log.append(kRecords[1]).is_ok());
    ASSERT_TRUE(log.append(kRecords[2]).is_ok());
  }
  std::vector<std::size_t> ends;
  EXPECT_EQ(read_bytes(), encoded_log(&ends));
  RecordLog unopened;
  EXPECT_EQ(unopened.append("x").code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RecordLogTest, OpenAppendAfterTornTailLeavesACleanLog) {
  std::vector<std::size_t> ends;
  const std::string bytes = encoded_log(&ends);
  write_bytes(bytes.substr(0, ends[2] - 3));
  std::vector<std::string> seen;
  const Result<LogScan> torn = scan(&seen);
  ASSERT_TRUE(torn.is_ok());
  ASSERT_EQ(torn.value().valid_bytes, ends[1]);
  {
    MetricsSink m;
    RecordLog log;
    log.set_metrics(&m);
    ASSERT_TRUE(log.open_append(path_, torn.value().valid_bytes).is_ok());
    EXPECT_EQ(m.counter("journal.commits"), 1u);  // truncation is fsynced
    EXPECT_EQ(m.counter("journal.dir_fsyncs"), 1u);
    ASSERT_TRUE(log.append("after the tear").is_ok());
  }
  seen.clear();
  const Result<LogScan> clean = scan(&seen);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_FALSE(clean.value().damaged);
  EXPECT_EQ(clean.value().valid_bytes, fs::file_size(path_));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], "after the tear");
}

// The header and each record are exactly one write and one file fsync (the
// header also fsyncs the directory), so chaos ordinals land on them.
TEST_F(RecordLogTest, HeaderAndEachAppendCostOneWriteAndOneFsync) {
  // Returns the 0-based index of the first failing operation (create,
  // append, append), or 3 when all succeed.
  const auto first_failure = [this](const ChaosFile& chaos) {
    fs::remove(path_);
    chaos_install(chaos);
    RecordLog log;
    int step = 0;
    if (log.create(path_, kMagic, kRecords[0]).is_ok()) {
      ++step;
      if (log.append(kRecords[1]).is_ok()) {
        ++step;
        if (log.append(kRecords[2]).is_ok()) ++step;
      }
    }
    chaos_reset();
    return step;
  };
  for (int n = 1; n <= 3; ++n) {
    ChaosFile chaos;
    chaos.fail_write_at = static_cast<std::uint64_t>(n);
    EXPECT_EQ(first_failure(chaos), n - 1) << "write " << n;
  }
  // fsyncs: the header's file and directory, then one per record.
  const int expected_step[] = {0, 0, 1, 2};
  for (int n = 1; n <= 4; ++n) {
    ChaosFile chaos;
    chaos.fail_fsync_at = static_cast<std::uint64_t>(n);
    chaos.error = EIO;
    EXPECT_EQ(first_failure(chaos), expected_step[n - 1]) << "fsync " << n;
  }
}

}  // namespace
}  // namespace fav::io
