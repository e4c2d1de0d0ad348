// The fav.run_report.v1 JSON document: campaign identity, estimate quality
// (SSF, CI, ESS), outcome-path split, precharac-cache provenance, and the
// merged metrics sink. Machine-readable companion to the human-readable
// stdout block of `fav evaluate`.
//
// The writer lives in the library (not the CLI) for two reasons:
//   * the serve daemon and local `fav evaluate` must produce byte-identical
//     reports for the same campaign, so there must be exactly one writer;
//   * every free-form string is routed through json_escape, and that
//     contract is unit-testable here — a report must parse as JSON no
//     matter what lands in a benchmark name, strategy, or cache path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/framework.h"
#include "mc/evaluator.h"
#include "mc/supervisor.h"
#include "util/metrics.h"

namespace fav::core {

/// Minimal JSON string escaping: quotes, backslashes, and control bytes.
/// Every string emitted into a run report goes through this — field values
/// like the benchmark name are caller-controlled free-form input once
/// campaigns arrive over a socket. The implementation lives in util/io
/// (io::json_escape) so JSON emitters below core/ (the serve daemon's stats
/// snapshot) share the one escaper; this alias keeps existing callers and
/// the unit tests in place.
std::string json_escape(const std::string& s);

/// Everything a run report records, decoupled from the CLI's option
/// struct so library callers (the serve daemon) can fill it directly.
struct RunReportInputs {
  std::string benchmark;
  std::string technique;
  std::string strategy;
  /// Campaign mode, "sampled" or "exhaustive" (FrameworkConfig::mode).
  std::string mode = "sampled";
  std::size_t samples = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  std::size_t batch_lanes = 0;
  std::size_t supervise = 0;
  /// The fleet counters of a supervised run; null emits no supervisor block.
  const mc::SupervisedResult* supervisor = nullptr;
  PrecharacCacheReport cache;
  double elapsed_s = 0.0;
  const mc::SsfResult* result = nullptr;   // required
  const MetricsSink* metrics = nullptr;    // required
};

/// Writes the fav.run_report.v1 JSON document. `in.result` and `in.metrics`
/// must be non-null.
void write_run_report(std::ostream& out, const RunReportInputs& in);

}  // namespace fav::core
