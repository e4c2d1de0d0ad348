// End-to-end CLI tests for the pre-characterization artifact cache and the
// degraded-I/O write path (ISSUE acceptance):
//   * cache-off, cold-write and warm-load campaigns are bitwise-identical,
//     single-process and supervised, and a corrupted artifact degrades to
//     recompute-and-rewrite — never a wrong answer,
//   * injected ENOSPC (--chaos-write-nth, forwarded to workers) stops a
//     campaign gracefully with exit code 3 and an "interrupted": true
//     report, quarantines nothing, and --resume completes to the
//     undisturbed result.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mc/journal.h"
#include "mc/supervisor.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_dio_cli_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(FAV_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string campaign_flags(std::size_t samples) {
  return "evaluate --benchmark write --samples " + std::to_string(samples) +
         " --seed 2017 --t-range 20 --shard-size 16";
}

std::string json_field(const std::string& file, const std::string& key) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  // The run report mixes `"key": value` (report fields) and `"key":value`
  // (metrics counters); accept both spellings.
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  std::size_t begin = at + needle.size();
  while (begin < text.size() && text[begin] == ' ') ++begin;
  std::size_t end = begin;
  while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
         text[end] != '}') {
    ++end;
  }
  return text.substr(begin, end - begin);
}

void expect_bitwise_equal_journals(const std::string& dir_a,
                                   const std::string& dir_b) {
  Result<MergedJournal> a = JournalReader::merge_partial(dir_a);
  Result<MergedJournal> b = JournalReader::merge_partial(dir_b);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  ASSERT_FALSE(a.value().records.empty()) << dir_a << " holds no journal";
  ASSERT_EQ(a.value().records.size(), b.value().records.size());
  for (std::size_t i = 0; i < a.value().records.size(); ++i) {
    ASSERT_TRUE(a.value().present[i] && b.value().present[i])
        << "record " << i << " missing";
    std::string image_a, image_b;
    serialize_record(a.value().records[i], image_a);
    serialize_record(b.value().records[i], image_b);
    ASSERT_EQ(image_a, image_b) << "record " << i << " diverges";
  }
}

// Cache off → cold write → warm load → corrupted artifact → supervised warm:
// the report must show the expected outcome at every step, and the estimate
// must never move.
TEST(PrecharacCacheCli, CacheNeverChangesTheAnswer) {
  const std::string off = fresh_dir("cache_off");
  const std::string cold = fresh_dir("cache_cold");
  const std::string warm = fresh_dir("cache_warm");
  const std::string corrupt = fresh_dir("cache_corrupt");
  const std::string sup = fresh_dir("cache_sup");
  const std::string artifact = off + "/precharac.fpa";
  const std::string flags = campaign_flags(120);

  ASSERT_EQ(run_cli(flags + " --journal " + off + " --metrics-out " + off +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(off + "/report.json", "enabled"), "false");
  const std::string ssf = json_field(off + "/report.json", "ssf");

  ASSERT_EQ(run_cli(flags + " --journal " + cold + " --precharac-cache " +
                    artifact + " --metrics-out " + cold + "/report.json"),
            0);
  EXPECT_EQ(json_field(cold + "/report.json", "outcome"), "\"miss\"");
  EXPECT_EQ(json_field(cold + "/report.json", "stored"), "true");
  EXPECT_EQ(json_field(cold + "/report.json", "ssf"), ssf);
  ASSERT_TRUE(fs::exists(artifact));

  ASSERT_EQ(run_cli(flags + " --journal " + warm + " --precharac-cache " +
                    artifact + " --metrics-out " + warm + "/report.json"),
            0);
  EXPECT_EQ(json_field(warm + "/report.json", "outcome"), "\"hit\"");
  EXPECT_EQ(json_field(warm + "/report.json", "stored"), "false");
  EXPECT_EQ(json_field(warm + "/report.json", "ssf"), ssf);

  // Flip one byte mid-file: the next run must detect, recompute, rewrite.
  {
    std::ifstream in(artifact, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_EQ(run_cli(flags + " --journal " + corrupt + " --precharac-cache " +
                    artifact + " --metrics-out " + corrupt + "/report.json"),
            0);
  EXPECT_EQ(json_field(corrupt + "/report.json", "outcome"), "\"corrupt\"");
  EXPECT_EQ(json_field(corrupt + "/report.json", "stored"), "true");
  EXPECT_EQ(json_field(corrupt + "/report.json", "ssf"), ssf);

  // Supervised warm start: every worker loads the same artifact.
  ASSERT_EQ(run_cli(flags + " --journal " + sup + " --supervise 2" +
                    " --precharac-cache " + artifact + " --metrics-out " + sup +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(sup + "/report.json", "outcome"), "\"hit\"");
  EXPECT_EQ(json_field(sup + "/report.json", "ssf"), ssf);
  expect_bitwise_equal_journals(off, sup);
}

TEST(DegradedIoCli, EnospcStopsSingleProcessCampaignResumably) {
  const std::string base = fresh_dir("enospc_base");
  const std::string dir = fresh_dir("enospc");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Journal write 1 is the header, write k+1 is frame k: the second shard
  // hits the injected ENOSPC and the campaign stops gracefully.
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --chaos-write-nth 3" +
                    " --metrics-out " + dir + "/interrupted.json"),
            3);
  EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "evaluated"), "16");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "journal.storage_full_stops"),
            "1");
  // Space restored: --resume completes to the undisturbed result.
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --resume --metrics-out " +
                    dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_bitwise_equal_journals(base, dir);
}

TEST(DegradedIoCli, WorkerEnospcStopsFleetWithoutQuarantine) {
  const std::string base = fresh_dir("wenospc_base");
  const std::string dir = fresh_dir("wenospc");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // The chaos flag is forwarded to every worker: each fails its first frame
  // write with ENOSPC, exits with the resumable-stop code, and the
  // supervisor stops the fleet without charging any shard an attempt.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --chaos-write-nth 2" + " --metrics-out " +
                    dir + "/interrupted.json"),
            3);
  EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "quarantined_shards"), "0");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "quarantined_samples"), "0");
  EXPECT_NE(json_field(dir + "/interrupted.json", "storage_full_stops"), "0");
  EXPECT_EQ(json_field(dir + "/interrupted.json", "restarts"), "0");
  // Resume without chaos: bitwise-identical to the single-process baseline.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --resume --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_bitwise_equal_journals(base, dir);
}

}  // namespace
}  // namespace fav::mc
