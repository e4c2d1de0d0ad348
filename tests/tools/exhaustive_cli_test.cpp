// End-to-end tests for `fav evaluate --exhaustive`: full-coverage sweeps
// through the real CLI binary (FAV_CLI_PATH, injected by CMake). Covers the
// ISSUE acceptance criteria:
//   * an exhaustive voltage-glitch campaign is bitwise-identical between the
//     in-process engine and --supervise 2 worker fleets (journal records and
//     reported estimate alike),
//   * coverage == 1.0 is reported on stdout and in the run report,
//   * --space-limit caps the sweep and is usage-checked,
//   * the voltage-glitch technique runs end to end through the unified
//     pipeline (workers included),
//   * --progress counts the sweep, not --samples.
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
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_ex_cli_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

int run_cli(const std::string& args, std::string* stdout_text = nullptr) {
  const fs::path out = fs::path(::testing::TempDir()) / "fav_ex_cli_stdout";
  const std::string cmd = std::string(FAV_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  if (stdout_text != nullptr) {
    std::ifstream in(out);
    std::stringstream ss;
    ss << in.rdbuf();
    *stdout_text = ss.str();
  }
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string json_field(const std::string& file, const std::string& key) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "<missing " + key + ">";
  std::size_t end = at + needle.size();
  while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
         text[end] != '}') {
    ++end;
  }
  return text.substr(at + needle.size(), end - (at + needle.size()));
}

void expect_bitwise_equal_journals(const std::string& dir_a,
                                   const std::string& pattern_a,
                                   const std::string& dir_b,
                                   const std::string& pattern_b) {
  Result<JournalContents> a = JournalReader::merge(dir_a, pattern_a);
  Result<JournalContents> b = JournalReader::merge(dir_b, pattern_b);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  ASSERT_EQ(a.value().records.size(), b.value().records.size());
  for (std::size_t i = 0; i < a.value().records.size(); ++i) {
    std::string image_a, image_b;
    serialize_record(a.value().records[i], image_a);
    serialize_record(b.value().records[i], image_b);
    ASSERT_EQ(image_a, image_b) << "record " << i << " diverges";
  }
}

// Voltage-glitch sweep over a 12-cycle window x 4 default droop levels = 48
// enumeration points: small enough for worker fleets, large enough to span
// several shards.
const char* kExhaustiveFlags =
    "evaluate --technique voltage-glitch --exhaustive --t-range 12 "
    "--shard-size 8";

TEST(ExhaustiveCli, SupervisedSweepIsBitwiseIdenticalToInProcess) {
  const std::string base = fresh_dir("identity_base");
  const std::string sup = fresh_dir("identity_sup2");
  std::string base_stdout;
  ASSERT_EQ(run_cli(std::string(kExhaustiveFlags) + " --journal " + base +
                        " --metrics-out " + base + "/report.json",
                    &base_stdout),
            0);
  EXPECT_NE(base_stdout.find("strategy   : exhaustive (n=48"),
            std::string::npos)
      << base_stdout;
  EXPECT_NE(
      base_stdout.find("fault space: size 48, evaluated 48, coverage 1.0"),
      std::string::npos)
      << base_stdout;
  ASSERT_EQ(run_cli(std::string(kExhaustiveFlags) + " --journal " + sup +
                    " --supervise 2 --metrics-out " + sup + "/report.json"),
            0);
  EXPECT_EQ(json_field(sup + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_EQ(json_field(sup + "/report.json", "std_error"),
            json_field(base + "/report.json", "std_error"));
  EXPECT_EQ(json_field(sup + "/report.json", "coverage"), "1");
  EXPECT_EQ(json_field(base + "/report.json", "coverage"), "1");
  EXPECT_EQ(json_field(base + "/report.json", "mode"), "\"exhaustive\"");
  EXPECT_EQ(json_field(base + "/report.json", "fault_space"), "{\"size\": 48");
  expect_bitwise_equal_journals(base, "campaign.fj", sup,
                                worker_journal_pattern());
}

TEST(ExhaustiveCli, SpaceLimitCapsTheSweep) {
  const std::string dir = fresh_dir("space_limit");
  std::string text;
  ASSERT_EQ(run_cli(std::string(kExhaustiveFlags) + " --space-limit 5" +
                        " --metrics-out " + dir + "/report.json",
                    &text),
            0);
  EXPECT_NE(text.find("fault space: size 48, evaluated 5"),
            std::string::npos)
      << text;
  EXPECT_EQ(json_field(dir + "/report.json", "evaluated"), "5");
  EXPECT_EQ(json_field(dir + "/report.json", "samples"), "5");
}

TEST(ExhaustiveCli, ProgressIsSizedFromTheSweep) {
  // The meter counts the swept prefix, min(space, --space-limit), not the
  // unused --samples default.
  const fs::path err = fs::path(::testing::TempDir()) / "fav_ex_cli_progress";
  const std::string cmd = std::string(FAV_CLI_PATH) +
                          " evaluate --technique voltage-glitch --exhaustive "
                          "--space-limit 50 --progress > /dev/null 2> " +
                          err.string();
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(err);
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.rfind("[fav] ", 0) == 0) last = line;
  }
  EXPECT_EQ(last.rfind("[fav] 50/50 samples", 0), 0u) << last;
}

TEST(ExhaustiveCli, UsageErrorsAreRejected) {
  // --space-limit without --exhaustive, and --exhaustive outside evaluate,
  // both exit 2 through the usage path.
  EXPECT_EQ(run_cli("evaluate --space-limit 5"), 2);
  EXPECT_EQ(run_cli("harden --exhaustive"), 2);
  EXPECT_EQ(run_cli("evaluate --technique microwave"), 2);
}

}  // namespace
}  // namespace fav::mc
