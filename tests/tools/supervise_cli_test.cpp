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
//     --resume completes to the undisturbed result,
//   * one journal for both modes: an in-process --resume completes a
//     supervised journal and a supervised --resume an in-process one, and an
//     empty journal resumes as a fresh start,
//   * one campaign per journal directory: a second local campaign on a busy
//     directory is refused and leaves the first one's journal intact.
//
// These tests spawn several framework elaborations each (~seconds); they are
// deliberately few and each asserts a full scenario.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs the CLI synchronously via the shell; returns the process exit code
/// and, when `stdout_text` / `stderr_text` are given, what it printed there.
int run_cli(const std::string& args, std::string* stdout_text = nullptr,
            std::string* stderr_text = nullptr) {
  // Per process: ctest runs the tests of this file concurrently.
  const fs::path out = fs::path(::testing::TempDir()) /
                       ("fav_cli_stdout_" + std::to_string(::getpid()));
  const fs::path err = fs::path(::testing::TempDir()) /
                       ("fav_cli_stderr_" + std::to_string(::getpid()));
  const std::string cmd =
      std::string(FAV_CLI_PATH) + " " + args + " > " + out.string() +
      " 2> " + (stderr_text != nullptr ? err.string() : "/dev/null");
  const int rc = std::system(cmd.c_str());
  if (stdout_text != nullptr) *stdout_text = read_file(out);
  if (stderr_text != nullptr) *stderr_text = read_file(err);
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
  const std::string text = read_file(file);
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
  expect_bitwise_equal_journals(base, sup1);
  expect_bitwise_equal_journals(base, sup4);
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
  expect_bitwise_equal_journals(base, chaos);
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
  expect_bitwise_equal_journals(base, dir);
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
  expect_bitwise_equal_journals(base, dir);
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

// --- one journal for both campaign modes ---------------------------------

/// The campaign's result block: stdout without the lines that say how it ran
/// (the supervisor fleet) or where its report went.
std::string result_block(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("supervisor :", 0) == 0 ||
        line.rfind("run report :", 0) == 0) {
      continue;
    }
    out += line + "\n";
  }
  return out;
}

/// Report fields that neither the campaign mode, the thread count nor a
/// resume may change.
void expect_same_result(const std::string& report_a,
                        const std::string& report_b) {
  for (const char* key :
       {"ssf", "std_error", "ci95_half_width", "variance", "ess", "successes",
        "evaluated", "interrupted", "samples", "retried",
        "failed_weight_fraction"}) {
    EXPECT_EQ(json_field(report_a, key), json_field(report_b, key))
        << "report field '" << key << "' diverges";
  }
}

/// A metrics counter from a run report ("name":value, compact JSON).
std::string report_counter(const std::string& file, const std::string& name) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "<missing " + name + ">";
  const std::size_t begin = at + needle.size();
  return text.substr(begin, text.find_first_not_of("0123456789", begin) -
                                begin);
}

TEST(SuperviseCli, ProgressMeterCountsEverySupervisedSample) {
  const std::string dir = fresh_dir("progress");
  std::string out, err;
  ASSERT_EQ(run_cli("evaluate --benchmark write --samples 600 --seed 7 "
                    "--supervise 2 --shard-size 64 --journal " +
                        dir + " --progress",
                    &out, &err),
            0);
  const std::string ssf_key = "SSF        : ";
  const std::size_t ssf_at = out.find(ssf_key);
  ASSERT_NE(ssf_at, std::string::npos) << out;
  const std::string ssf =
      out.substr(ssf_at + ssf_key.size(),
                 out.find('\n', ssf_at) - ssf_at - ssf_key.size());
  // The meter's final line counts every sample and shows the printed SSF.
  const std::size_t last = err.rfind("[fav] ");
  ASSERT_NE(last, std::string::npos) << err;
  const std::string line = err.substr(last, err.find('\n', last) - last);
  EXPECT_EQ(line.rfind("[fav] 600/600 samples", 0), 0u) << line;
  EXPECT_NE(line.find("SSF " + ssf + " "), std::string::npos)
      << line << " vs SSF " << ssf;
}

TEST(CrossModeResume, SupervisedJournalResumesInProcess) {
  const std::string base = fresh_dir("xmode_base");
  const std::string sup = fresh_dir("xmode_sup");
  const std::string flags = campaign_flags(300);
  std::string base_out;
  ASSERT_EQ(run_cli(flags + " --metrics-out " + base + "/report.json",
                    &base_out),
            0);
  ASSERT_EQ(run_cli(flags + " --journal " + sup + " --supervise 2"), 0);
  // Worker 1's file is lost; worker 0's survives. Which shards each worker
  // journaled depends on scheduling, so the survivors are counted, not
  // assumed (JournaledRun.ResumeEvaluatesExactlyTheGapsOfASparseJournal
  // pins a fixed sparse layout).
  ASSERT_TRUE(fs::remove(fs::path(sup) / worker_journal_file(1)));
  Result<MergedJournal> left = JournalReader::merge_partial(sup);
  ASSERT_TRUE(left.is_ok()) << left.status().to_string();
  const auto surviving = std::count(left.value().present.begin(),
                                    left.value().present.end(), 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = fresh_dir("xmode_sup_t" + std::to_string(threads));
    fs::copy(sup, dir);
    std::string out;
    ASSERT_EQ(run_cli(flags + " --journal " + dir + " --resume --threads " +
                          std::to_string(threads) + " --metrics-out " + dir +
                          "/report.json",
                      &out),
              0);
    EXPECT_EQ(result_block(out), result_block(base_out));
    expect_same_result(dir + "/report.json", base + "/report.json");
    EXPECT_EQ(report_counter(dir + "/report.json", "journal.resumed_records"),
              std::to_string(surviving));
  }
}

TEST(CrossModeResume, InProcessJournalResumesSupervised) {
  const std::string dir = fresh_dir("xmode_inproc");
  const std::string flags = campaign_flags(300);
  std::string base_out;
  ASSERT_EQ(run_cli(flags + " --journal " + dir + " --metrics-out " + dir +
                        "/base.json",
                    &base_out),
            0);
  // A torn in-process journal: the supervised resume evaluates the rest.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string torn =
        fresh_dir("xmode_torn_t" + std::to_string(threads));
    fs::copy_file(fs::path(dir) / "campaign.fj",
                  fs::path(torn) / "campaign.fj");
    fs::resize_file(fs::path(torn) / "campaign.fj",
                    fs::file_size(fs::path(torn) / "campaign.fj") * 2 / 5);
    std::string out;
    ASSERT_EQ(run_cli(flags + " --journal " + torn +
                          " --supervise 2 --resume --threads " +
                          std::to_string(threads) + " --metrics-out " + torn +
                          "/report.json",
                      &out),
              0);
    EXPECT_EQ(result_block(out), result_block(base_out));
    expect_same_result(torn + "/report.json", dir + "/base.json");
  }
  // The complete journal: nothing is left to evaluate, so no worker file
  // may hold a shard frame.
  std::string out;
  ASSERT_EQ(run_cli(flags + " --journal " + dir +
                        " --supervise 2 --resume --metrics-out " + dir +
                        "/report.json",
                    &out),
            0);
  EXPECT_EQ(result_block(out), result_block(base_out));
  expect_same_result(dir + "/report.json", dir + "/base.json");
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("worker-", 0) != 0) continue;
    Result<JournalShards> shards = JournalReader::read_shards(dir, name);
    ASSERT_TRUE(shards.is_ok()) << shards.status().to_string();
    EXPECT_TRUE(shards.value().spans.empty())
        << name << " journaled samples the in-process journal already held";
  }
}

TEST(JournalLock, SecondLocalCampaignOnABusyDirectoryIsRefused) {
  const std::string base = fresh_dir("lock_base");
  const std::string dir = fresh_dir("lock_busy");
  const std::string flags = campaign_flags(60000);
  ASSERT_EQ(run_cli(flags + " --journal " + base), 0);
  std::vector<std::string> argv = {FAV_CLI_PATH};
  std::istringstream split(flags + " --journal " + dir);
  for (std::string tok; split >> tok;) argv.push_back(tok);
  Result<Subprocess> spawned = Subprocess::spawn(argv);
  ASSERT_TRUE(spawned.is_ok()) << spawned.status().to_string();
  Subprocess first = std::move(spawned).value();
  // Wait until the first campaign owns the journal (its file appears).
  bool started = false;
  bool done = false;
  for (int i = 0; i < 12000 && !started && !done; ++i) {
    started = fs::exists(fs::path(dir) / "campaign.fj");
    Subprocess::ExitStatus st;
    done = !started && first.try_wait(&st);  // outran the poll
    if (!started && !done) ::usleep(10'000);
  }
  if (started) {
    // The second campaign is refused before it touches a file.
    std::string err;
    EXPECT_EQ(run_cli(campaign_flags(16) + " --journal " + dir, nullptr, &err),
              1);
    EXPECT_NE(err.find("in use"), std::string::npos) << err;
    const Subprocess::ExitStatus st = first.wait();
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.exit_code, 0);
  } else if (!done) {
    first.kill(SIGKILL);
    first.wait();
    FAIL() << "the first campaign never started";
  }
  expect_bitwise_equal_journals(dir, base);
}

TEST(CrossModeResume, EmptyJournalResumesAsAFreshStart) {
  const std::string base = fresh_dir("xmode_empty_base");
  const std::string flags = campaign_flags(300);
  std::string base_out;
  ASSERT_EQ(run_cli(flags + " --metrics-out " + base + "/report.json",
                    &base_out),
            0);
  for (const std::string mode : {"", " --supervise 2"}) {
    SCOPED_TRACE("mode='" + mode + "'");
    const std::string dir = fresh_dir(mode.empty() ? "xmode_empty_in"
                                                   : "xmode_empty_sup");
    std::string out;
    ASSERT_EQ(run_cli(flags + " --journal " + dir + mode +
                          " --resume --metrics-out " + dir + "/report.json",
                      &out),
              0);
    EXPECT_EQ(result_block(out), result_block(base_out));
    expect_same_result(dir + "/report.json", base + "/report.json");
  }
}

}  // namespace
}  // namespace fav::mc
