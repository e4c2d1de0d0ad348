#include "core/run_report.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/check.h"
#include "util/io.h"

namespace fav::core {

std::string json_escape(const std::string& s) { return io::json_escape(s); }

void write_run_report(std::ostream& out, const RunReportInputs& in) {
  FAV_CHECK(in.result != nullptr);
  FAV_CHECK(in.metrics != nullptr);
  const mc::SsfResult& res = *in.result;
  auto num = [&out](double v) {
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << buf;
    } else {
      out << "null";
    }
  };
  auto str = [&out](const std::string& s) {
    out << '"' << json_escape(s) << '"';
  };
  const double se = res.stats.standard_error();
  out << "{\n"
      << "  \"schema\": \"fav.run_report.v1\",\n"
      << "  \"benchmark\": ";
  str(in.benchmark);
  out << ",\n  \"technique\": ";
  str(in.technique);
  out << ",\n  \"strategy\": ";
  str(in.strategy);
  out << ",\n  \"mode\": ";
  str(in.mode);
  out << ",\n  \"samples\": " << in.samples << ",\n"
      << "  \"evaluated\": " << res.evaluated << ",\n"
      << "  \"interrupted\": " << (res.interrupted ? "true" : "false") << ",\n"
      << "  \"fault_space\": {\"size\": " << res.fault_space_size
      << ", \"evaluated\": " << res.evaluated << ", \"coverage\": ";
  num(res.coverage());
  out << "},\n"
      << "  \"seed\": " << in.seed << ",\n"
      << "  \"threads\": " << in.threads << ",\n"
      << "  \"batch_lanes\": " << in.batch_lanes << ",\n"
      << "  \"supervise\": " << in.supervise << ",\n";
  if (const mc::SupervisedResult* sup = in.supervisor) {
    out << "  \"supervisor\": {\"restarts\": " << sup->restarts
        << ", \"quarantined_shards\": " << sup->quarantined_shards
        << ", \"quarantined_samples\": " << sup->quarantined_samples
        << ", \"storage_full_stops\": " << sup->storage_full_stops << "},\n";
  }
  out << "  \"precharac_cache\": {\"enabled\": "
      << (in.cache.enabled ? "true" : "false") << ", \"path\": ";
  str(in.cache.path);
  out << ", \"outcome\": ";
  str(in.cache.outcome);
  out << ", \"detail\": ";
  str(in.cache.detail);
  out << ", \"stored\": " << (in.cache.stored ? "true" : "false") << "},\n";
  out << "  \"elapsed_s\": ";
  num(in.elapsed_s);
  out << ",\n  \"samples_per_s\": ";
  num(in.elapsed_s > 0.0
          ? static_cast<double>(res.evaluated) / in.elapsed_s
          : 0.0);
  out << ",\n  \"ssf\": ";
  num(res.ssf());
  out << ",\n  \"std_error\": ";
  num(se);
  out << ",\n  \"ci95_half_width\": ";
  num(1.96 * se);
  out << ",\n  \"variance\": ";
  num(res.sample_variance());
  out << ",\n  \"ess\": ";
  num(res.effective_sample_size());
  out << ",\n  \"successes\": " << res.successes << ",\n"
      << "  \"paths\": {\"masked\": " << res.masked
      << ", \"analytical\": " << res.analytical << ", \"rtl\": " << res.rtl
      << ", \"failed\": " << res.failed << "},\n"
      << "  \"retried\": " << res.retried << ",\n"
      << "  \"failed_weight_fraction\": ";
  num(res.failed_weight_fraction());
  out << ",\n  \"failure_counts\": {";
  bool first_fail = true;
  for (const auto& [code, count] : res.failure_counts) {
    if (!first_fail) out << ", ";
    first_fail = false;
    str(error_code_name(code));
    out << ": " << count;
  }
  out << "},\n  \"metrics\": ";
  in.metrics->write_json(out);
  out << "\n}\n";
}

}  // namespace fav::core
