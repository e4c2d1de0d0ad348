// Property tests for the `fav` flag table (tools/cli_options.h). Every list
// derived from the table — the worker argv, the served request, the journal
// fingerprint, the serve refusals, the usage text — must agree with it, and
// the fingerprints and accept/reject verdicts must equal those of the
// hand-written parser the table replaced, so existing journals still resume
// and existing command lines still mean what they meant.
#include "cli_options.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace fav::cli {
namespace {

/// A valid value that differs from the row's default ("" for a row that
/// takes none). With `ulp`, a double moves by one ulp, which only a
/// full-precision argv carries across; otherwise it jumps to a range end.
std::string non_default(const Flag& f, bool ulp = true) {
  const Options defaults;
  return std::visit(
      [&](const auto& v) -> std::string {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, Text>) {
          if (!v.closed) return "some dir/" + std::string(f.name + 2);
          std::stringstream choices(v.meta);
          for (std::string c; std::getline(choices, c, '|');) {
            if (c != defaults.*v.field) return c;
          }
          return "";
        } else if constexpr (std::is_same_v<V, Count>) {
          const std::uint64_t d = defaults.*v.field;
          return std::to_string(d != v.max ? v.max : v.min);
        } else if constexpr (std::is_same_v<V, Real>) {
          const double d = defaults.*v.field;
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g",
                        ulp ? std::nextafter(d, v.max)
                            : (d != v.min ? v.min : v.max));
          return buf;
        } else {
          return "";
        }
      },
      f.value);
}

/// The argv words that set `f` to its non-default value.
std::vector<std::string> set_argv(const Flag& f) {
  if (!f.takes_value()) return {f.name};
  return {f.name, non_default(f)};
}

void append(std::vector<std::string>& argv,
            const std::vector<std::string>& words) {
  argv.insert(argv.end(), words.begin(), words.end());
}

std::uint64_t fingerprint(const Options& o) {
  return campaign_fingerprint(o, o.strategy, o.samples);
}

bool accepted(const std::vector<std::string>& argv) {
  try {
    parse(argv);
    return true;
  } catch (const UsageError&) {
    return false;
  }
}

TEST(CliOptions, TableRowsAreUniqueAndBindTheirFields) {
  std::set<std::string> names;
  for (const Flag& f : flags()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate row " << f.name;
    EXPECT_EQ(std::string(f.name).rfind("--", 0), 0u) << f.name;
    EXPECT_NE(std::string(f.help), "") << f.name;
    // A worker computes the fingerprint itself, so it needs every input.
    if (f.has(kFingerprint)) {
      EXPECT_TRUE(f.has(kForwarded)) << f.name;
    }
    if (std::holds_alternative<Clear>(f.value)) continue;
    // flag_for finds each row from its field, so no two rows set one field.
    const bool found = std::visit(
        [&](const auto& v) { return &flag_for(v.field) == &f; }, f.value);
    EXPECT_TRUE(found) << f.name;
    EXPECT_FALSE(f.is_set(Options{})) << f.name;
    if (f.takes_value()) {
      EXPECT_NE(non_default(f), f.text(Options{})) << f.name;
    }
  }
}

// (a) The supervisor and its workers derive one campaign from argv: every
// forwarded row, set to a non-default value, survives worker_command ->
// parse with identical fields (doubles bit-equal) and fingerprint.
TEST(CliOptions, ForwardedFlagsRoundTripThroughTheWorkerArgv) {
  const std::vector<std::string> base = {"evaluate", "--journal", "j",
                                         "--supervise", "2"};
  auto round_trip = [](const std::vector<std::string>& argv) {
    const Options o = parse(argv);
    const std::vector<std::string> worker = worker_command(o, "/bin/fav");
    EXPECT_EQ(worker.front(), "/bin/fav");
    const Options w = parse({worker.begin() + 1, worker.end()});
    EXPECT_EQ(w.command, "worker");
    for (const Flag& f : flags()) {
      if (!f.has(kForwarded)) continue;
      EXPECT_EQ(f.text(w), f.text(o)) << f.name;
      if (const auto* real = std::get_if<Real>(&f.value)) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.*real->field),
                  std::bit_cast<std::uint64_t>(o.*real->field))
            << f.name;
      }
    }
    EXPECT_EQ(fingerprint(w), fingerprint(o));
    return worker;
  };
  std::vector<std::string> everything = base;
  for (const Flag& f : flags()) {
    if (!f.has(kForwarded)) continue;
    std::vector<std::string> argv = base;
    append(argv, set_argv(f));
    if (&f == &flag_for(&Options::space_limit)) argv.push_back("--exhaustive");
    ASSERT_TRUE(f.is_set(parse(argv))) << f.name;
    const std::vector<std::string> worker = round_trip(argv);
    EXPECT_NE(std::find(worker.begin(), worker.end(), f.name), worker.end())
        << f.name << " was not forwarded";
    append(everything, set_argv(f));
  }
  round_trip(everything);
  // The flags the hand-kept worker argv carried (its fixed
  // --record-capacity 0 aside: workers always keep every record).
  std::set<std::string> forwarded;
  for (const Flag& f : flags()) {
    if (f.has(kForwarded)) forwarded.insert(f.name);
  }
  EXPECT_EQ(forwarded,
            (std::set<std::string>{
                "--benchmark", "--technique", "--strategy", "--samples",
                "--seed", "--t-range", "--radius", "--cycle-budget",
                "--deadline-ms", "--threads", "--journal",
                "--exhaustive", "--space-limit", "--precharac-cache",
                "--chaos-write-nth", "--chaos-fsync-nth",
                "--crash-on-sample-index"}));
  // Flags a worker has no use for stay behind.
  for (const Flag& f : flags()) {
    std::vector<std::string> argv = base;
    append(argv, set_argv(f));
    if (f.has(kForwarded) || !accepted(argv)) continue;
    const std::vector<std::string> worker = worker_command(parse(argv), "fav");
    EXPECT_EQ(std::find(worker.begin(), worker.end(), f.name), worker.end())
        << f.name << " leaked into the worker argv";
  }
}

TEST(CliOptions, ServedRequestCarriesTheEvaluateFlagsOnly) {
  const Options o =
      parse({"submit", "--socket", "s.sock", "--busy-retries", "2",
             "--samples", "77", "--progress", "--radius", "0.1"});
  const std::vector<std::string> request = served_request(o);
  EXPECT_EQ(request.front(), "evaluate");
  const Options served = parse(request);
  for (const Flag& f : flags()) {
    const bool evaluate_flag = (f.commands & kEvaluate) != 0;
    EXPECT_EQ(f.text(served), evaluate_flag ? f.text(o) : f.text(Options{}))
        << f.name;
  }
  EXPECT_EQ(served.radius, 0.1);
}

// (b) Exactly the fingerprint rows key the journal. The key prints doubles
// with 6 decimals (the format existing journals carry), so a double moves
// further than one ulp here.
TEST(CliOptions, FingerprintCoversExactlyTheFingerprintRows) {
  const Options base;
  for (const Flag& f : flags()) {
    if (std::holds_alternative<Clear>(f.value)) continue;  // no own state
    Options o;
    f.apply(o, non_default(f, false));
    ASSERT_TRUE(f.is_set(o)) << f.name;
    EXPECT_EQ(fingerprint(o) != fingerprint(base), f.has(kFingerprint))
        << f.name;
  }
  // The resolved strategy and sample count enter too.
  EXPECT_NE(campaign_fingerprint(base, "exhaustive", base.samples),
            fingerprint(base));
  EXPECT_NE(campaign_fingerprint(base, base.strategy, base.samples + 1),
            fingerprint(base));
}

// (c) A shared daemon refuses every serve-refused row, and only those.
TEST(CliOptions, ServeRefusedFlagsAreRefused) {
  const Options base = parse({"evaluate"});
  EXPECT_EQ(served_refusal(base), "");
  for (const Flag& f : flags()) {
    if (std::holds_alternative<Clear>(f.value)) continue;
    Options o = base;
    f.apply(o, non_default(f));
    EXPECT_EQ(!served_refusal(o).empty(), f.has(kServeRefused)) << f.name;
  }
  EXPECT_NE(served_refusal(parse({"info"})), "");
  // The flags the hand-written daemon checks refused.
  std::set<std::string> refused;
  for (const Flag& f : flags()) {
    if (f.has(kServeRefused)) refused.insert(f.name);
  }
  EXPECT_EQ(refused,
            (std::set<std::string>{"--trace-out", "--chaos-write-nth",
                                   "--chaos-fsync-nth", "--crash-after-samples",
                                   "--crash-on-sample-index"}));
}

// (d) The journal header values that `fav evaluate --journal` wrote for
// these argv before the table existed: a changed fingerprint would make
// every existing journal refuse to resume.
TEST(CliOptions, PinnedFingerprintsStillResumeExistingJournals) {
  const Options sampled = parse({"evaluate", "--samples", "2000", "--strategy",
                                 "importance", "--threads", "2"});
  EXPECT_EQ(campaign_fingerprint(sampled, "importance", 2000),
            0xa549af9cc716c8e2ull);
  const Options exhaustive =
      parse({"evaluate", "--exhaustive", "--space-limit", "20000"});
  EXPECT_EQ(campaign_fingerprint(exhaustive, "exhaustive", 20000),
            0x2d21ace74ae49a2aull);
  // Importance has no clock-glitch equivalent; the resolved sampler is the
  // technique's uniform one.
  const Options glitch =
      parse({"evaluate", "--technique", "clock-glitch", "--samples", "2000"});
  EXPECT_EQ(campaign_fingerprint(glitch, "glitch-uniform", 2000),
            0xfb442d2af1386631ull);
}

// (e) Accept/reject verdicts of the hand-written parser the table replaced,
// over every "only applies to" rule and every cross-flag rule. Each command
// (with the flags it cannot run without) is tried bare and with each probe.
TEST(CliOptions, VerdictsMatchTheHandWrittenParser) {
  const std::vector<std::vector<std::string>> probes = {
      {},
      {"--technique", "clock-glitch"},
      {"--strategy", "cone"},
      {"--samples", "5"},
      {"--seed", "3"},
      {"--exhaustive"},
      {"--space-limit", "5"},
      {"--t-range", "7"},
      {"--radius", "2.5"},
      {"--coverage", "0.5"},
      {"--record-capacity", "9"},
      {"--threads", "2"},
      {"--cycle-budget", "40"},
      {"--deadline-ms", "9"},
      {"--journal", "j"},
      {"--resume"},
      {"--precharac-cache", "p.fpa"},
      {"--no-precharac-cache"},
      {"--supervise", "2"},
      {"--heartbeat-ms", "9"},
      {"--shard-size", "8"},
      {"--metrics-out", "m.json"},
      {"--trace-out", "t.json"},
      {"--progress"},
      {"--out", "o.txt"},
      {"--socket", "s.sock"},
      {"--max-campaigns", "3"},
      {"--max-queued", "3"},
      {"--campaign-deadline-ms", "9"},
      {"--heartbeat-interval-ms", "9"},
      {"--state-dir", "sd"},
      {"--stats-out", "st.json"},
      {"--idle-timeout-ms", "9"},
      {"--busy-retries", "2"},
      {"--retry-backoff-ms", "9"},
      {"--worker-id", "1"},
      {"--crash-after-samples", "3"},
      {"--crash-on-sample-index", "3"},
      {"--chaos-write-nth", "2"},
      {"--chaos-fsync-nth", "2"}};
  // One letter per probe, in order: A = accepted, R = usage error.
  const std::vector<std::pair<std::string, std::string>> verdicts = {
      {"info", "AAAAARRAAAAAAARRRARAARRRARAAAARRRRRARRRR"},
      {"characterize", "AAAAARRAAAAAAARRRARAARRRARAAAARRRRRARRRR"},
      {"evaluate", "AAAAAARAAAAAAAARAARAAAAAARAAAARRRRRARRAA"},
      {"harden", "AAAAARRAAAAAAARRAARAARRRARAAAARRRRRARRRR"},
      {"export-verilog", "AAAAARRAAAAAAARRRARAARRRARAAAARRRRRARRRR"},
      {"trace", "AAAAARRAAAAAAARRRARAARRRARAAAARRRRRARRRR"},
      {"serve", "AAAAARRAAAAAAARRRARAARRRAAAAAAAARRRARRRR"},
      {"submit", "AAAAAARAAAAAAAARAARAAAAAAAAAAARRAAAARRAA"},
      {"worker", "AAAAAARAAAAAAAAAAARAARRRARAAAARRRRRAAAAA"},
  };
  for (const auto& [command, letters] : verdicts) {
    ASSERT_EQ(letters.size(), probes.size());
    std::vector<std::string> head = {command};
    if (command == "trace") head = {command, "--out", "o.vcd"};
    if (command == "serve" || command == "submit") {
      head = {command, "--socket", "s.sock"};
    }
    if (command == "worker") head = {command, "--journal", "j"};
    for (std::size_t i = 0; i < probes.size(); ++i) {
      std::vector<std::string> argv = head;
      append(argv, probes[i]);
      EXPECT_EQ(accepted(argv), letters[i] == 'A')
          << command << " " << (probes[i].empty() ? "" : probes[i][0]);
    }
  }
  // Cross-flag rules, values and edge cases ('' is an empty argument).
  const std::vector<std::pair<std::string, bool>> cases = {
      {"evaluate --resume --journal j", true},
      {"evaluate --exhaustive --space-limit 5", true},
      {"evaluate --supervise 2 --journal j", true},
      {"evaluate --supervise 2 --trace-out t.json --journal j", false},
      {"evaluate --supervise 2 --crash-after-samples 3 --journal j", true},
      {"evaluate --supervise 2 --crash-on-sample-index 3 --journal j", true},
      {"evaluate --journal '' --resume", false},
      {"info --journal ''", true},
      {"info --precharac-cache p --no-precharac-cache", true},
      {"info --no-precharac-cache --precharac-cache p", false},
      {"evaluate --crash-on-sample-index 18446744073709551615", true},
      {"evaluate --strategy bogus", false},
      {"evaluate --strategy bogus --strategy cone", true},
      {"evaluate --technique microwave", false},
      {"evaluate --samples 0", false},
      {"evaluate --samples 12abc", false},
      {"evaluate --samples -5", false},
      {"evaluate --samples", false},
      {"evaluate --batch-lanes 1", false},  // one evaluation path: no flag
      {"evaluate --radius -1", false},
      {"evaluate --radius nan", false},
      {"evaluate --radius 1e7", false},
      {"evaluate --coverage 0", false},
      {"evaluate --threads 4097", false},
      {"evaluate --exhaustive --space-limit 0", false},
      {"evaluate --bogus", false},
      {"bogus", false},
      {"trace", false},
      {"serve", false},
      {"submit", false},
      {"worker", false},
      {"serve --socket ''", false},
      {"evaluate --metrics-out ''", true},
      {"harden --metrics-out ''", true},
      {"submit --socket s.sock --supervise 2", false},
      {"submit --socket s.sock --supervise 2 --journal j", true},
      {"submit --socket s.sock --exhaustive --space-limit 5", true},
      {"submit --socket s.sock --resume", false},
      {"worker --journal j --supervise 2", false},
      {"worker --journal j --metrics-out m.json", false},
      {"harden --precharac-cache p.fpa --coverage 0.5", true},
  };
  for (const auto& [line, expected] : cases) {
    std::vector<std::string> argv;
    std::istringstream words(line);
    for (std::string w; words >> w;) argv.push_back(w == "''" ? "" : w);
    EXPECT_EQ(accepted(argv), expected) << line;
  }
}

TEST(CliOptions, UsageListsEveryVisibleFlagWithinEightyColumns) {
  const std::string text = usage_text();
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // the command synopsis
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 80u) << line;
  }
  for (const Flag& f : flags()) {
    const bool listed = text.find("  " + std::string(f.name) + " ") !=
                            std::string::npos ||
                        text.find("  " + std::string(f.name) + "\n") !=
                            std::string::npos;
    EXPECT_EQ(listed, !f.has(kHidden)) << f.name;
  }
}

}  // namespace
}  // namespace fav::cli
