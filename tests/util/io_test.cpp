#include "util/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace fav::io {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos_reset();
    dir_ = fs::temp_directory_path() /
           ("fav_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    chaos_reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// RFC 3720 test vectors for CRC32C (Castagnoli).
TEST_F(IoTest, Crc32cKnownVectors) {
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST_F(IoTest, Crc32cChains) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32c(data.data(), split);
    const std::uint32_t whole =
        crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(whole, crc32c(data.data(), data.size())) << "split " << split;
  }
}

/// Bytewise reference CRC32C: one bit at a time over the reflected
/// Castagnoli polynomial, the definition the word-at-a-time crc32c must
/// reproduce for every length, alignment and seed.
std::uint32_t crc32c_reference(const unsigned char* p, std::size_t len,
                               std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST_F(IoTest, Crc32cMatchesBytewiseReference) {
  // 257 + 8 bytes of non-repeating data: every length 0..257 at each of the
  // 8 start alignments, from a zero seed and chained from a prefix CRC.
  std::vector<unsigned char> data(257 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* base = data.data() + align;
    for (std::size_t len = 0; len <= 257; ++len) {
      EXPECT_EQ(crc32c(base, len), crc32c_reference(base, len, 0))
          << "align " << align << " len " << len;
      const std::size_t split = len / 3;
      const std::uint32_t head = crc32c(base, split);
      EXPECT_EQ(crc32c(base + split, len - split, head),
                crc32c_reference(base, len, 0))
          << "chained align " << align << " len " << len;
      EXPECT_EQ(crc32c(base, len, 0xDEADBEEFu),
                crc32c_reference(base, len, 0xDEADBEEFu))
          << "seeded align " << align << " len " << len;
    }
  }
}

TEST_F(IoTest, PutGetLeRoundTrip) {
  std::string buf;
  put_le<std::uint32_t>(buf, 0xDEADBEEFu);
  put_le<std::uint64_t>(buf, 0x0123456789ABCDEFull);
  put_le<double>(buf, 0.1);
  std::size_t off = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  double c = 0;
  ASSERT_TRUE(get_le(buf, &off, &a));
  ASSERT_TRUE(get_le(buf, &off, &b));
  ASSERT_TRUE(get_le(buf, &off, &c));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c, 0.1);
  EXPECT_EQ(off, buf.size());
  std::uint32_t past = 0;
  EXPECT_FALSE(get_le(buf, &off, &past));  // exhausted
}

TEST_F(IoTest, AtomicWriteAndReadBack) {
  const std::string p = path("file.bin");
  std::string contents = "hello\0world";
  contents.push_back('\xff');
  ASSERT_TRUE(atomic_write_file(p, contents).is_ok());
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), contents);
  // No temp litter left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(IoTest, ReadMissingFileFails) {
  const Result<std::string> r = read_file(path("absent"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
}

TEST_F(IoTest, ErrnoClassification) {
  EXPECT_TRUE(errno_is_transient(EINTR));
  EXPECT_TRUE(errno_is_transient(EAGAIN));
  EXPECT_FALSE(errno_is_transient(ENOSPC));
  EXPECT_TRUE(errno_is_storage_full(ENOSPC));
  EXPECT_TRUE(errno_is_storage_full(EDQUOT));
  EXPECT_TRUE(errno_is_storage_full(EIO));
  EXPECT_FALSE(errno_is_storage_full(EACCES));
  EXPECT_EQ(status_from_errno(ENOSPC, "x").code(), ErrorCode::kStorageFull);
  EXPECT_EQ(status_from_errno(EACCES, "x").code(), ErrorCode::kIoError);
}

// A one-shot transient fault (EINTR on the first physical write) must be
// absorbed by the retry loop: the write succeeds and the bytes land.
TEST_F(IoTest, TransientWriteErrorIsRetried) {
  ChaosFile chaos;
  chaos.fail_write_at = 1;
  chaos.error = EINTR;
  chaos.sticky = false;
  chaos_install(chaos);
  const std::string p = path("retried.bin");
  ASSERT_TRUE(atomic_write_file(p, "payload").is_ok());
  chaos_reset();
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "payload");
}

TEST_F(IoTest, TransientFsyncErrorIsRetried) {
  ChaosFile chaos;
  chaos.fail_fsync_at = 1;
  chaos.error = EINTR;
  chaos.sticky = false;
  chaos_install(chaos);
  ASSERT_TRUE(atomic_write_file(path("synced.bin"), "payload").is_ok());
}

// A sticky ENOSPC surfaces as kStorageFull and leaves any previous version
// of the target untouched (atomic publication).
TEST_F(IoTest, StickyEnospcFailsWithStorageFullAndKeepsOldFile) {
  const std::string p = path("kept.bin");
  ASSERT_TRUE(atomic_write_file(p, "old contents").is_ok());
  ChaosFile chaos;
  chaos.fail_write_at = 1;
  chaos.error = ENOSPC;
  chaos_install(chaos);
  const Status failed = atomic_write_file(p, "new contents");
  chaos_reset();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kStorageFull);
  const Result<std::string> back = read_file(p);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "old contents");
  // The failed temp file was cleaned up.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(IoTest, StickyEioOnFsyncIsStorageFull) {
  ChaosFile chaos;
  chaos.fail_fsync_at = 1;
  chaos.error = EIO;
  chaos_install(chaos);
  const Status failed = atomic_write_file(path("x"), "y");
  chaos_reset();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kStorageFull);
}

TEST_F(IoTest, FileLockBlocksSecondHolderUntilTimeout) {
  const std::string p = path("the.lock");
  FileLock first;
  ASSERT_TRUE(first.acquire(p, 1000).is_ok());
  EXPECT_TRUE(first.held());
  FileLock second;
  const Status blocked = second.acquire(p, 50);
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(second.held());
  first.release();
  EXPECT_FALSE(first.held());
  ASSERT_TRUE(second.acquire(p, 1000).is_ok());
}

TEST_F(IoTest, FileLockHandoffAcrossThreads) {
  const std::string p = path("handoff.lock");
  FileLock first;
  ASSERT_TRUE(first.acquire(p, 1000).is_ok());
  std::thread releaser([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    first.release();
  });
  // flock is per-open-description, so a second open in the same process
  // still contends; the bounded-backoff wait must pick the lock up once the
  // holder releases it.
  FileLock second;
  const Status got = second.acquire(p, 5000);
  releaser.join();
  ASSERT_TRUE(got.is_ok()) << got.to_string();
}

TEST_F(IoTest, FsyncDirSucceedsOnRealDirectory) {
  EXPECT_TRUE(fsync_dir(dir_.string()).is_ok());
  EXPECT_FALSE(fsync_dir(path("no_such_subdir")).is_ok());
}

}  // namespace
}  // namespace fav::io
