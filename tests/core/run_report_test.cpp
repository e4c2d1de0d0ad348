// Tests for the shared run-report writer (core/run_report.h): JSON string
// escaping and the regression for the bug where benchmark / technique /
// strategy / failure-count keys were emitted unescaped, so a quote or
// backslash in any of them produced invalid JSON.
#include "core/run_report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mc/evaluator.h"
#include "util/metrics.h"

namespace fav::core {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("write"), "write");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("a-b_c.d/e"), "a-b_c.d/e");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\u000abreak");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("tab\there"), "tab\\u0009here");
}

/// Minimal structural JSON validator — enough to prove the report parses:
/// tracks strings (with escapes) and brace/bracket nesting. The CI job runs
/// the real `json.load` validator over reports; this is the in-tree
/// regression net for the unescaped-key bug.
bool json_parses(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

RunReportInputs minimal_inputs(const mc::SsfResult& res,
                               const MetricsSink& metrics) {
  RunReportInputs in;
  in.benchmark = "write";
  in.technique = "radiation";
  in.strategy = "importance";
  in.samples = 4;
  in.seed = 2017;
  in.result = &res;
  in.metrics = &metrics;
  return in;
}

TEST(RunReport, QuoteInIdentityFieldsRoundTrips) {
  mc::SsfResult res;
  res.evaluated = 4;
  MetricsSink metrics;
  RunReportInputs in = minimal_inputs(res, metrics);
  // Hostile-but-legal identity strings: quotes, backslashes, a newline.
  in.benchmark = "bench\"quoted\"";
  in.strategy = "imp\\ortance\nv2";
  in.cache.enabled = true;
  in.cache.path = "cache \"dir\"/pre.fpa";
  in.cache.detail = "hit (\"warm\")";
  std::ostringstream out;
  write_run_report(out, in);
  const std::string report = out.str();
  EXPECT_TRUE(json_parses(report)) << report;
  EXPECT_NE(report.find("bench\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(report.find("imp\\\\ortance\\u000av2"), std::string::npos);
  EXPECT_NE(report.find("cache \\\"dir\\\"/pre.fpa"), std::string::npos);
}

TEST(RunReport, FailureCountsKeysAreEscapedStrings) {
  mc::SsfResult res;
  res.evaluated = 4;
  res.failed = 2;
  res.failure_counts[ErrorCode::kWorkerCrashed] = 2;
  MetricsSink metrics;
  const RunReportInputs in = minimal_inputs(res, metrics);
  std::ostringstream out;
  write_run_report(out, in);
  const std::string report = out.str();
  EXPECT_TRUE(json_parses(report)) << report;
  EXPECT_NE(report.find("\"WORKER_CRASHED\": 2"), std::string::npos);
}

TEST(RunReport, FaultSpaceBlockRoundTrips) {
  // Exhaustive sweeps report fault_space{size, evaluated, coverage}; the
  // block must appear verbatim and keep the report valid JSON even with
  // hostile identity strings alongside it.
  mc::SsfResult res;
  res.evaluated = 3;
  res.fault_space_size = 12;
  MetricsSink metrics;
  RunReportInputs in = minimal_inputs(res, metrics);
  in.mode = "exhaustive";
  in.strategy = "exhaustive\"v2\"";
  std::ostringstream out;
  write_run_report(out, in);
  const std::string report = out.str();
  EXPECT_TRUE(json_parses(report)) << report;
  EXPECT_NE(report.find("\"mode\": \"exhaustive\""), std::string::npos);
  EXPECT_NE(report.find("\"fault_space\": {\"size\": 12, \"evaluated\": 3, "
                        "\"coverage\": 0.25}"),
            std::string::npos);
  EXPECT_NE(report.find("exhaustive\\\"v2\\\""), std::string::npos);
}

TEST(RunReport, SampledRunsReportZeroFaultSpace) {
  mc::SsfResult res;
  res.evaluated = 4;
  MetricsSink metrics;
  const RunReportInputs in = minimal_inputs(res, metrics);
  std::ostringstream out;
  write_run_report(out, in);
  const std::string report = out.str();
  EXPECT_TRUE(json_parses(report)) << report;
  EXPECT_NE(report.find("\"mode\": \"sampled\""), std::string::npos);
  EXPECT_NE(report.find("\"fault_space\": {\"size\": 0, \"evaluated\": 4, "
                        "\"coverage\": 0}"),
            std::string::npos);
}

TEST(RunReport, PlainReportIsStructurallyValid) {
  mc::SsfResult res;
  res.evaluated = 4;
  res.successes = 1;
  MetricsSink metrics;
  RunReportInputs in = minimal_inputs(res, metrics);
  mc::SupervisedResult sup;
  sup.restarts = 1;
  in.supervisor = &sup;
  std::ostringstream out;
  write_run_report(out, in);
  EXPECT_TRUE(json_parses(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"schema\": \"fav.run_report.v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace fav::core
