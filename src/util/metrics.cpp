#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/io.h"

namespace fav {

namespace {

using io::get_le;
using io::get_string;
using io::put_le;
using io::put_string;

/// Gauges can legitimately hold non-finite values (e.g. an ESS of an empty
/// run); JSON has no literal for them, so serialize as null.
void write_json_double(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void MetricsSink::add_counter(std::string_view name, std::uint64_t delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void MetricsSink::set_gauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void MetricsSink::add_timer_ns(std::string_view name, std::uint64_t ns) {
  const auto it = timers_.find(name);
  if (it != timers_.end()) {
    it->second.add(ns);
  } else {
    TimerStat stat;
    stat.add(ns);
    timers_.emplace(std::string(name), stat);
  }
}

std::uint64_t MetricsSink::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

const double* MetricsSink::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const TimerStat* MetricsSink::timer(std::string_view name) const {
  const auto it = timers_.find(name);
  return it != timers_.end() ? &it->second : nullptr;
}

void MetricsSink::merge(const MetricsSink& other) {
  for (const auto& [name, value] : other.counters_) add_counter(name, value);
  for (const auto& [name, value] : other.gauges_) set_gauge(name, value);
  for (const auto& [name, stat] : other.timers_) {
    const auto it = timers_.find(name);
    if (it != timers_.end()) {
      it->second.merge(stat);
    } else {
      timers_.emplace(name, stat);
    }
  }
}

void MetricsSink::clear() {
  counters_.clear();
  gauges_.clear();
  timers_.clear();
}

void MetricsSink::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << io::json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"' << io::json_escape(name) << "\":";
    write_json_double(os, value);
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& [name, stat] : timers_) {
    if (!first) os << ',';
    first = false;
    os << '"' << io::json_escape(name) << "\":{\"count\":" << stat.count
       << ",\"total_ns\":" << stat.total_ns << ",\"max_ns\":" << stat.max_ns
       << '}';
  }
  os << "}}";
}

void MetricsSink::serialize(std::string& out) const {
  put_le(out, static_cast<std::uint32_t>(counters_.size()));
  for (const auto& [name, value] : counters_) {
    put_string(out, name);
    put_le(out, value);
  }
  put_le(out, static_cast<std::uint32_t>(gauges_.size()));
  for (const auto& [name, value] : gauges_) {
    put_string(out, name);
    put_le(out, value);
  }
  put_le(out, static_cast<std::uint32_t>(timers_.size()));
  for (const auto& [name, stat] : timers_) {
    put_string(out, name);
    put_le(out, stat.count);
    put_le(out, stat.total_ns);
    put_le(out, stat.max_ns);
  }
}

bool MetricsSink::deserialize(std::string_view data) {
  clear();
  std::size_t off = 0;
  std::uint32_t n = 0;
  std::string name;
  if (!get_le(data, &off, &n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t value = 0;
    if (!get_string(data, &off, &name) || !get_le(data, &off, &value)) {
      return false;
    }
    counters_.emplace(name, value);
  }
  if (!get_le(data, &off, &n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    double value = 0;
    if (!get_string(data, &off, &name) || !get_le(data, &off, &value)) {
      return false;
    }
    gauges_.emplace(name, value);
  }
  if (!get_le(data, &off, &n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    TimerStat stat;
    if (!get_string(data, &off, &name) || !get_le(data, &off, &stat.count) ||
        !get_le(data, &off, &stat.total_ns) ||
        !get_le(data, &off, &stat.max_ns)) {
      return false;
    }
    timers_.emplace(name, stat);
  }
  return off == data.size();
}

void TraceBuffer::record(std::string_view name, std::string_view category,
                         std::uint64_t start_ns, std::uint64_t dur_ns,
                         std::uint32_t tid, std::uint64_t order_key) {
  TraceEvent ev;
  ev.name.assign(name);
  ev.category.assign(category);
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.tid = tid;
  ev.order_key = order_key;
  events_.push_back(std::move(ev));
}

void TraceBuffer::merge(TraceBuffer&& other) {
  events_.insert(events_.end(),
                 std::make_move_iterator(other.events_.begin()),
                 std::make_move_iterator(other.events_.end()));
  other.events_.clear();
}

void TraceBuffer::write_json(std::ostream& os) const {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events_.size());
  std::uint64_t base_ns = 0;
  for (const TraceEvent& ev : events_) {
    if (sorted.empty() || ev.start_ns < base_ns) base_ns = ev.start_ns;
    sorted.push_back(&ev);
  }
  // Event *order* in the file follows the sample index, not the schedule, so
  // two runs of the same campaign produce structurally identical traces
  // (timestamps still differ — they are wall-clock measurements).
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->order_key < b->order_key;
                   });
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent* ev : sorted) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << io::json_escape(ev->name) << "\",\"cat\":\""
       << io::json_escape(ev->category.empty() ? "fav" : ev->category)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev->tid
       << ",\"ts\":" << static_cast<double>(ev->start_ns - base_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(ev->dur_ns) / 1e3
       << ",\"args\":{\"sample\":" << ev->order_key << "}}";
  }
  os << "]}";
}

ProgressMeter::ProgressMeter(std::size_t total, std::uint64_t min_interval_ms,
                             std::FILE* out)
    : total_(total),
      min_interval_ns_(min_interval_ms * 1'000'000ull),
      out_(out != nullptr ? out : stderr),
      start_ns_(monotonic_ns()) {}

void ProgressMeter::record(double contribution, double weight, bool failed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  if (failed) {
    ++failed_;
  } else {
    sum_ += contribution;
    sum_sq_ += contribution * contribution;
    sum_w_ += weight;
    sum_w_sq_ += weight * weight;
  }
  const std::uint64_t now = monotonic_ns();
  if (now - last_print_ns_ >= min_interval_ns_) {
    last_print_ns_ = now;
    print_line();
  }
}

void ProgressMeter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  print_line();
}

std::size_t ProgressMeter::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::size_t ProgressMeter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

double ProgressMeter::effective_sample_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_w_sq_ > 0.0 ? sum_w_ * sum_w_ / sum_w_sq_ : 0.0;
}

void ProgressMeter::print_line() {
  const double elapsed_s =
      static_cast<double>(monotonic_ns() - start_ns_) / 1e9;
  const double rate =
      elapsed_s > 0.0 ? static_cast<double>(done_) / elapsed_s : 0.0;
  const auto n = static_cast<double>(done_ - failed_);
  double mean = 0.0, half = 0.0;
  if (n >= 1.0) {
    mean = sum_ / n;
    if (n >= 2.0) {
      // Unbiased sample variance from the raw moments; clamp tiny negative
      // rounding residue.
      const double var =
          std::max(0.0, (sum_sq_ - n * mean * mean) / (n - 1.0));
      half = 1.96 * std::sqrt(var / n);
    }
  }
  const double ess = sum_w_sq_ > 0.0 ? sum_w_ * sum_w_ / sum_w_sq_ : 0.0;
  std::fprintf(out_,
               "[fav] %zu/%zu samples | %.1f/s | SSF %.6f +-%.6f (95%% CI) | "
               "ESS %.1f",
               done_, total_, rate, mean, half, ess);
  if (failed_ > 0) std::fprintf(out_, " | %zu failed", failed_);
  std::fprintf(out_, "\n");
  std::fflush(out_);
}

}  // namespace fav
