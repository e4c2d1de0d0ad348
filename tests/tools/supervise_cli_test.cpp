// End-to-end tests for `fav evaluate --supervise`: real fork/exec worker
// fleets driven through the installed CLI binary (FAV_CLI_PATH, injected by
// CMake). Covers the ISSUE acceptance criteria:
//   * bitwise-identical SSF + journal records vs the single-process engine
//     at worker counts {1, 4},
//   * chaos: a worker SIGKILLed mid-campaign changes nothing in the result,
//   * a deterministically-crashing sample is quarantined as WORKER_CRASHED
//     instead of wedging the campaign,
//   * the supervisor itself SIGKILLed mid-run is resumable with --resume,
//   * SIGINT flushes a partial interrupted run report (exit code 3) that
//     --resume completes to the undisturbed result.
//
// These tests spawn several framework elaborations each (~seconds); they are
// deliberately few and each asserts a full scenario.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/journal.h"
#include "mc/supervisor.h"
#include "util/subprocess.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_cli_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Runs the CLI synchronously via the shell; returns the process exit code.
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(FAV_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

/// Common campaign flags: small but large enough that every outcome path is
/// exercised, with shards small enough for real supervisor scheduling.
std::string campaign_flags(std::size_t samples) {
  return "evaluate --benchmark write --samples " + std::to_string(samples) +
         " --seed 2017 --t-range 20 --shard-size 16";
}

/// Extracts the raw text of a scalar field from a run report ("key": value).
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

/// Bitwise comparison of two merged journals through the serialized record
/// image — any drift in any field of any record fails.
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

/// Spawns the CLI detached, waits until the named journal file exceeds
/// `min_bytes`, then delivers `sig`. Returns the exit status.
Subprocess::ExitStatus kill_mid_campaign(const std::string& args,
                                         const fs::path& watched_file,
                                         std::uintmax_t min_bytes, int sig) {
  std::vector<std::string> argv = {FAV_CLI_PATH};
  std::istringstream split(args);
  std::string tok;
  while (split >> tok) argv.push_back(tok);
  Result<Subprocess> spawned = Subprocess::spawn(argv);
  EXPECT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess proc = std::move(spawned).value();
  // Wait for real campaign progress; give elaboration generous time.
  for (int i = 0; i < 12000; ++i) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(watched_file, ec);
    if (!ec && size > min_bytes) break;
    Subprocess::ExitStatus st;
    if (proc.try_wait(&st)) return st;  // finished before we could kill it
    ::usleep(10'000);
  }
  proc.kill(sig);
  return proc.wait();
}

TEST(SuperviseCli, BitwiseIdenticalAcrossWorkerCounts) {
  const std::string base = fresh_dir("identity_base");
  const std::string sup1 = fresh_dir("identity_w1");
  const std::string sup4 = fresh_dir("identity_w4");
  const std::string flags = campaign_flags(120);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  ASSERT_EQ(run_cli(flags + " --journal " + sup1 + " --supervise 1" +
                    " --metrics-out " + sup1 + "/report.json"),
            0);
  ASSERT_EQ(run_cli(flags + " --journal " + sup4 + " --supervise 4" +
                    " --metrics-out " + sup4 + "/report.json"),
            0);
  const std::string ssf = json_field(base + "/report.json", "ssf");
  EXPECT_EQ(json_field(sup1 + "/report.json", "ssf"), ssf);
  EXPECT_EQ(json_field(sup4 + "/report.json", "ssf"), ssf);
  EXPECT_EQ(json_field(sup4 + "/report.json", "std_error"),
            json_field(base + "/report.json", "std_error"));
  expect_bitwise_equal_journals(base, "campaign.fj", sup1,
                                worker_journal_pattern());
  expect_bitwise_equal_journals(base, "campaign.fj", sup4,
                                worker_journal_pattern());
}

TEST(SuperviseCli, WorkerCrashMidCampaignChangesNothing) {
  const std::string base = fresh_dir("chaos_base");
  const std::string chaos = fresh_dir("chaos_sup");
  // Large enough that worker 0 is guaranteed a shard before the campaign
  // drains (workers elaborate concurrently but evaluation takes seconds).
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Worker 0 SIGKILLs itself mid-shard after 7 samples (first incarnation
  // only); the watchdog restarts it and the campaign ends with the
  // undisturbed result.
  ASSERT_EQ(run_cli(flags + " --journal " + chaos +
                    " --supervise 2 --crash-after-samples 7" +
                    " --metrics-out " + chaos + "/report.json"),
            0);
  EXPECT_EQ(json_field(chaos + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_EQ(json_field(chaos + "/report.json", "interrupted"), "false");
  const std::string restarts = json_field(chaos + "/report.json", "restarts");
  EXPECT_NE(restarts, "0") << "expected at least one watchdog restart";
  expect_bitwise_equal_journals(base, "campaign.fj", chaos,
                                worker_journal_pattern());
}

TEST(SuperviseCli, InjectedCrashFiresEvenWhenAPeerCouldDrainTheCampaign) {
  // Two shards: a peer that starts first could finish both before worker 0
  // is ready. The supervisor holds the first shard for worker 0's first
  // incarnation, so its --crash-after-samples always fires.
  const std::string dir = fresh_dir("tiny_chaos");
  ASSERT_EQ(run_cli(campaign_flags(32) + " --journal " + dir +
                    " --supervise 2 --crash-after-samples 7" +
                    " --metrics-out " + dir + "/report.json"),
            0);
  EXPECT_NE(json_field(dir + "/report.json", "restarts"), "0");
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_shards"), "0");
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
}

TEST(SuperviseCli, DeterministicCrashIsQuarantined) {
  const std::string dir = fresh_dir("quarantine");
  const std::string flags = campaign_flags(120);
  // Sample 40 kills every worker that touches it, on every attempt; its
  // shard must be written off as WORKER_CRASHED instead of looping forever.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --crash-on-sample-index 40" +
                    " --metrics-out " + dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_shards"), "1");
  EXPECT_EQ(json_field(dir + "/report.json", "quarantined_samples"), "16");
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
  const std::string counts = json_field(dir + "/report.json", "WORKER_CRASHED");
  EXPECT_EQ(counts, "16") << "quarantined samples must surface as "
                             "WORKER_CRASHED failure counts";
}

TEST(SuperviseCli, DeadWorkerIsDetectedByEofNotHeartbeat) {
  const std::string base = fresh_dir("eof_base");
  const std::string dir = fresh_dir("eof_sup");
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  // Worker 0 SIGKILLs itself mid-shard with the heartbeat deadline pushed
  // far beyond this test's own ctest timeout (600 s > 300 s). The campaign
  // can only finish in time if the supervisor notices the death through
  // pipe EOF — with O_CLOEXEC pipes no sibling worker holds a duplicate of
  // the dead worker's pipe ends, so the EOF is immediate.
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 2 --crash-after-samples 7" +
                    " --heartbeat-ms 600000" + " --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_NE(json_field(dir + "/report.json", "restarts"), "0")
      << "the dead worker must have been detected and respawned";
  expect_bitwise_equal_journals(base, "campaign.fj", dir,
                                worker_journal_pattern());
}

TEST(SuperviseCli, SupervisorSigkillIsResumable) {
  const std::string base = fresh_dir("supkill_base");
  const std::string dir = fresh_dir("supkill");
  // Large enough that evaluation outlives the kill window.
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  const Subprocess::ExitStatus st = kill_mid_campaign(
      flags + " --journal " + dir + " --supervise 2",
      fs::path(dir) / worker_journal_file(0), 4096, SIGKILL);
  // Either we killed it mid-run (the interesting case) or the machine was so
  // fast the campaign finished — both must leave a resumable journal.
  if (st.signaled) {
    EXPECT_EQ(st.term_signal, SIGKILL);
  }
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                    " --supervise 4 --resume --metrics-out " + dir +
                    "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  expect_bitwise_equal_journals(base, "campaign.fj", dir,
                                worker_journal_pattern());
}

TEST(SuperviseCli, SigintFlushesInterruptedReportAndResumes) {
  const std::string base = fresh_dir("sigint_base");
  const std::string dir = fresh_dir("sigint");
  const std::string flags = campaign_flags(20000);
  ASSERT_EQ(run_cli(flags + " --journal " + base + " --metrics-out " + base +
                    "/report.json"),
            0);
  const Subprocess::ExitStatus st = kill_mid_campaign(
      flags + " --journal " + dir + " --metrics-out " + dir +
          "/interrupted.json",
      fs::path(dir) / "campaign.fj", 4096, SIGINT);
  if (!st.signaled && st.exit_code == 3) {
    // Graceful stop: partial report flushed and marked interrupted.
    EXPECT_EQ(json_field(dir + "/interrupted.json", "interrupted"), "true");
    EXPECT_NE(json_field(dir + "/interrupted.json", "evaluated"),
              std::to_string(20000));
  } else {
    // The campaign finished before the signal landed; nothing to assert
    // beyond a clean exit.
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.exit_code, 0);
  }
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --resume --metrics-out " +
                    dir + "/report.json"),
            0);
  EXPECT_EQ(json_field(dir + "/report.json", "ssf"),
            json_field(base + "/report.json", "ssf"));
  EXPECT_EQ(json_field(dir + "/report.json", "interrupted"), "false");
}

}  // namespace
}  // namespace fav::mc
