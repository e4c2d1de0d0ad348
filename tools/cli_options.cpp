#include "cli_options.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace fav::cli {
namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};

std::string to_text(std::uint64_t v) { return std::to_string(v); }

/// The shortest text that parses back to the same bits: std::to_string
/// would truncate to 6 decimals and hand the workers a different sample
/// stream.
std::string to_text(double v) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// Strict numeric parsing: the whole token must parse and land in range, so
// there is no silent defaulting, no prefix parse ("12abc"), no unsigned
// wrap-around ("-5" as a count) and no fraction where a count is due.
template <typename T>
T parse_number(const std::string& flag, const std::string& value, T min,
               T max) {
  T parsed{};
  const char* end = value.data() + value.size();
  bool whole = false;
  if constexpr (std::is_floating_point_v<T>) {
    char* stop = nullptr;
    parsed = std::strtod(value.c_str(), &stop);
    whole = stop == end && std::isfinite(parsed);
  } else {
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    whole = ec == std::errc{} && ptr == end;
  }
  if (value.empty() || !whole || parsed < min || parsed > max) {
    usage(flag + " expects a number in [" + to_text(min) + ", " +
          to_text(max) + "], got '" + value + "'");
  }
  return parsed;
}

/// Command names in Command bit order.
constexpr const char* kCommands[] = {
    "info",  "characterize", "evaluate", "harden", "export-verilog",
    "trace", "serve",        "submit",   "worker"};

/// "evaluate, harden": the visible commands in `mask`.
std::string command_names(unsigned mask, const char* separator = ", ") {
  std::string names;
  for (unsigned i = 0; i < std::size(kCommands); ++i) {
    if ((mask & (1u << i)) == 0 || (1u << i) == kWorker) continue;
    names += (names.empty() ? "" : separator) + std::string(kCommands[i]);
  }
  return names;
}

/// `argv` plus every set flag that applies to one of `commands` and has all
/// of `traits`, in table order.
std::vector<std::string> derived_argv(std::vector<std::string> argv,
                                      const Options& o, unsigned commands,
                                      unsigned traits) {
  for (const Flag& f : flags()) {
    if ((f.commands & commands) == 0 || (f.traits & traits) != traits) continue;
    for (std::string& word : f.argv(o)) argv.push_back(std::move(word));
  }
  return argv;
}

}  // namespace

void usage(const std::string& message) { throw UsageError{message}; }

const std::vector<Flag>& flags() {
  constexpr unsigned kAll = kAnyCommand, kRun = kEvaluate | kWorker;
  constexpr unsigned kKey = kForwarded | kFingerprint;
  constexpr unsigned kChaos = kHidden | kForwarded | kServeRefused;
  constexpr std::uint64_t kMax = UINT64_MAX, kBillion = 1'000'000'000;
  constexpr std::uint64_t kDayMs = 86'400'000, kHourMs = 3'600'000;
  static const std::vector<Flag> table = {
      {"--benchmark", Text{&Options::benchmark, "write|read|exec|dma", true},
       kAll, kKey, "security benchmark the campaign attacks"},
      {"--technique",
       Text{&Options::technique, "radiation|clock-glitch|voltage-glitch", true},
       kAll, kKey, "fault-injection technique"},
      {"--strategy", Text{&Options::strategy, "random|cone|importance", true},
       kAll, kKey,
       "Monte Carlo sampler (the glitch techniques sample uniformly)"},
      {"--samples", Count{&Options::samples, 1, kBillion}, kAll, kKey,
       "Monte Carlo samples"},
      {"--seed", Count{&Options::seed, 0, kMax}, kAll, kKey, "sampler seed"},
      {"--exhaustive", Switch{&Options::exhaustive}, kRun, kForwarded,
       "sweep the whole enumerable fault space once: the exact SSF"},
      {"--space-limit", Count{&Options::space_limit, 1, kMax}, kRun, kForwarded,
       "sweep only the first N indices of the --exhaustive space"},
      {"--t-range", Count{&Options::t_range, 1, 1'000'000}, kAll, kKey,
       "attack window: cycles before the target cycle"},
      {"--radius", Real{&Options::radius, 0.0, 1e6}, kAll, kKey,
       "radiated spot radius (radiation)"},
      {"--coverage", Real{&Options::coverage, 1e-9, 1.0}, kAll, 0,
       "SSF share the hardened cells must cover (harden)"},
      {"--record-capacity", Count{&Options::record_capacity, 0, kBillion}, kAll,
       0, "per-sample records kept, 0 = all (estimates are unaffected)"},
      {"--threads", Count{&Options::threads, 0, 4096}, kAll, kForwarded,
       "engine threads, 0 = all cores; results are bitwise-identical for any"},
      {"--cycle-budget", Count{&Options::cycle_budget, 0, kMax}, kAll, kKey,
       "per-sample RTL cycle budget, 0 = unlimited"},
      {"--deadline-ms", Count{&Options::deadline_ms, 0, kMax}, kAll, kForwarded,
       "per-sample wall-clock deadline, 0 = none (nondeterministic)"},
      {"--journal", Text{&Options::journal, "DIR"}, kRun, kForwarded,
       "crash-safe shard journal"},
      {"--resume", Switch{&Options::resume}, kRun, 0,
       "evaluate only the samples the journal lacks (empty journal: fresh)"},
      {"--precharac-cache", Text{&Options::precharac_cache, "PATH"},
       kRun | kHarden, kForwarded,
       "load the pre-characterization bundle from PATH, or build and store it"},
      {"--no-precharac-cache", Clear{&Options::precharac_cache}, kAll, 0,
       "clear an earlier --precharac-cache"},
      {"--supervise", Count{&Options::supervise, 1, 1024}, kEvaluate, 0,
       "run on N crash-isolated worker processes (needs --journal)"},
      {"--heartbeat-ms", Count{&Options::heartbeat_ms, 1, kDayMs}, kAll, 0,
       "per-sample deadline before a supervised worker counts as wedged"},
      {"--shard-size", Count{&Options::shard_size, 1, kBillion}, kAll, 0,
       "samples per journal commit, and per assignment under --supervise"},
      {"--metrics-out", Text{&Options::metrics_out, "FILE"}, kEvaluate, 0,
       "JSON run report: phase timings, outcome paths, ESS"},
      {"--trace-out", Text{&Options::trace_out, "FILE"}, kEvaluate,
       kServeRefused, "Chrome-trace events (chrome://tracing, Perfetto)"},
      {"--progress", Switch{&Options::progress}, kEvaluate, 0,
       "stderr progress: samples/s, running SSF +- CI, ESS"},
      {"--out", Text{&Options::out, "FILE"}, kAll, 0,
       "output file of export-verilog and trace"},
      {"--socket", Text{&Options::socket, "PATH"}, kServe | kSubmit, 0,
       "the daemon's Unix socket"},
      {"--max-campaigns", Count{&Options::max_campaigns, 1, 256}, kAll, 0,
       "serve: concurrent campaigns"},
      {"--max-queued", Count{&Options::max_queued, 0, 4096}, kAll, 0,
       "serve: admission queue depth; beyond it requests are refused as busy"},
      {"--campaign-deadline-ms",
       Count{&Options::campaign_deadline_ms, 0, kDayMs}, kAll, 0,
       "serve: stop a campaign, resumably, after N ms; 0 = never"},
      {"--heartbeat-interval-ms",
       Count{&Options::heartbeat_interval_ms, 0, kHourMs}, kAll, 0,
       "serve: keep-alive cadence to clients, 0 = off"},
      {"--state-dir", Text{&Options::state_dir, "DIR"}, kServe, 0,
       "crash-recovery ledger: a restart re-runs the campaigns it accepted"},
      {"--stats-out", Text{&Options::stats_out, "FILE"}, kServe, 0,
       "JSON stats snapshot, rewritten as campaigns finish"},
      {"--idle-timeout-ms", Count{&Options::idle_timeout_ms, 0, kDayMs},
       kSubmit, 0, "give up after N ms without a frame, 0 = wait forever"},
      {"--busy-retries", Count{&Options::busy_retries, 0, 1000}, kSubmit, 0,
       "reconnect attempts after a busy refusal"},
      {"--retry-backoff-ms", Count{&Options::retry_backoff_ms, 0, kHourMs},
       kSubmit, 0, "retry backoff base, 0 = the daemon's hint"},
      {"--worker-id", Count{&Options::worker_id, 0, 1024}, kAll, kHidden,
       "worker slot, set by the supervisor"},
      {"--crash-after-samples", Count{&Options::crash_after, 1, kMax}, kRun,
       kHidden | kServeRefused,
       "test-only: worker 0's first incarnation dies after N samples"},
      {"--crash-on-sample-index", Count{&Options::crash_on, 0, kMax}, kRun,
       kChaos, "test-only: every worker dies on sample index N"},
      {"--chaos-write-nth", Count{&Options::chaos_write_nth, 1, kMax}, kRun,
       kChaos, "test-only: the Nth campaign file write gets ENOSPC"},
      {"--chaos-fsync-nth", Count{&Options::chaos_fsync_nth, 1, kMax}, kRun,
       kChaos, "test-only: the Nth campaign file fsync gets ENOSPC"},
  };
  return table;
}

void Flag::apply(Options& o, const std::string& text) const {
  std::visit(
      Overloaded{
          [&](const Text& v) { o.*v.field = text; },
          [&](const Switch& v) { o.*v.field = true; },
          [&](const Clear& v) { (o.*v.field).clear(); },
          [&](const auto& v) {
            o.*v.field = parse_number(name, text, v.min, v.max);
          }},
      value);
}

std::string Flag::text(const Options& o) const {
  return std::visit(
      Overloaded{
          [&](const Text& v) { return o.*v.field; },
          [&](const Switch& v) { return std::string(o.*v.field ? "on" : ""); },
          [&](const Clear&) { return std::string(); },
          [&](const auto& v) { return to_text(o.*v.field); }},
      value);
}

bool Flag::is_set(const Options& o) const {
  return text(o) != text(Options{});
}

std::vector<std::string> Flag::argv(const Options& o) const {
  if (!is_set(o)) return {};
  if (!takes_value()) return {name};
  return {name, text(o)};
}

core::FrameworkConfig Options::framework_config() const {
  core::FrameworkConfig cfg;
  cfg.technique = technique;
  cfg.mode = exhaustive ? "exhaustive" : "sampled";
  cfg.precharac_cache_path = precharac_cache;
  cfg.evaluator.threads = threads;
  cfg.evaluator.cycle_budget = cycle_budget;
  cfg.evaluator.sample_deadline_ms = deadline_ms;
  cfg.evaluator.record_capacity = record_capacity;
  return cfg;
}

Options parse(const std::vector<std::string>& args) {
  if (args.empty()) usage("");
  Options o;
  o.command = args[0];
  const auto* named =
      std::find(std::begin(kCommands), std::end(kCommands), o.command);
  if (named == std::end(kCommands)) {
    usage("unknown command '" + o.command + "'");
  }
  const unsigned command = 1u << (named - std::begin(kCommands));
  // `fav submit` takes every evaluate flag: they make up its request.
  const unsigned allowed = command == kSubmit ? kSubmit | kEvaluate : command;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto f =
        std::find_if(flags().begin(), flags().end(),
                     [&](const Flag& row) { return args[i] == row.name; });
    if (f == flags().end()) usage("unknown option " + args[i]);
    if (f->takes_value() && i + 1 >= args.size()) {
      usage("missing value for " + args[i]);
    }
    f->apply(o, f->takes_value() ? args[++i] : "");
  }
  for (const Flag& f : flags()) {
    const auto* text = std::get_if<Text>(&f.value);
    if (text != nullptr && text->closed &&
        ("|" + std::string(text->meta) + "|")
                .find("|" + o.*text->field + "|") == std::string::npos) {
      usage("unknown " + std::string(f.name + 2) + " '" + o.*text->field +
            "'");
    }
    if (f.is_set(o) && (f.commands & allowed) == 0) {
      usage(std::string(f.name) + " only applies to " +
            command_names(f.commands));
    }
  }
  // Cross-flag rules: everything that is not "applies to command X".
  auto set = [&](auto field) { return flag_for(field).is_set(o); };
  auto name = [](auto field) { return std::string(flag_for(field).name); };
  auto require = [&](bool needed, auto field, const std::string& who) {
    if (needed && !set(field)) usage(who + " requires " + name(field));
  };
  auto needs = [&](auto flag, auto needed) {
    require(set(flag), needed, name(flag));
  };
  needs(&Options::resume, &Options::journal);
  needs(&Options::space_limit, &Options::exhaustive);
  needs(&Options::supervise, &Options::journal);
  require(command == kWorker, &Options::journal, o.command);
  require(command == kServe || command == kSubmit, &Options::socket,
          o.command);
  require(command == kTrace, &Options::out, o.command);
  require((allowed & kEvaluate) != 0 &&
              (set(&Options::crash_after) || set(&Options::crash_on)),
          &Options::supervise, "crash injection");
  if (set(&Options::supervise) && set(&Options::trace_out)) {
    usage(name(&Options::trace_out) + " is not supported with " +
          name(&Options::supervise) + " (workers ship no trace events)");
  }
  return o;
}

std::string usage_text() {
  std::string text =
      "usage: fav <" + command_names(kAnyCommand, "|") +
      "> [options]\n"
      "[commands]: the only commands a flag applies to; *: part of the\n"
      "campaign identity that --resume checks\n";
  for (const Flag& f : flags()) {
    if (f.has(kHidden)) continue;
    text += "  " + std::string(f.name);
    if (const auto* t = std::get_if<Text>(&f.value)) {
      text += " " + std::string(t->meta);
    } else if (f.takes_value()) {
      text += std::holds_alternative<Real>(f.value) ? " X" : " N";
    }
    if (f.has(kFingerprint)) text += " *";
    const std::string def = f.text(Options{});
    if (!def.empty() && def != "0") text += "  (default " + def + ")";
    if (f.commands != kAnyCommand) {
      text += "  [" + command_names(f.commands) + "]";
    }
    text += "\n      " + std::string(f.help) + "\n";
  }
  return text;
}

std::vector<std::string> worker_command(const Options& o,
                                        const std::string& exe) {
  return derived_argv({exe, "worker"}, o, kAnyCommand, kForwarded);
}

std::vector<std::string> served_request(const Options& o) {
  return derived_argv({"evaluate"}, o, kEvaluate, 0);
}

std::uint64_t campaign_fingerprint(const Options& o,
                                   const std::string& strategy,
                                   std::uint64_t samples) {
  const core::CampaignKey key{o.benchmark, o.technique,
                              strategy,    o.seed,
                              samples,     static_cast<int>(o.t_range),
                              o.radius,    o.cycle_budget};
  return core::campaign_fingerprint(key);
}

std::string served_refusal(const Options& o) {
  if (o.command != "evaluate") {
    return "served campaigns must be 'evaluate' requests, got '" + o.command +
           "'";
  }
  for (const Flag& f : flags()) {
    if (f.has(kServeRefused) && f.is_set(o)) {
      return std::string(f.name) +
             " cannot run on a shared serve daemon (run it locally)";
    }
  }
  return "";
}

}  // namespace fav::cli
