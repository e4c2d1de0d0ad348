// Options of the `fav` CLI and the one table that declares every flag.
//
// Each row of flags() holds a flag's name, its typed Options field with the
// parser and range, the commands it applies to, whether supervised workers
// need it (kForwarded), whether it keys the campaign journal (kFingerprint),
// whether a shared `fav serve` daemon refuses it (kServeRefused), and its
// help text. parse(), usage_text(), worker_command(), served_request() and
// served_refusal() are all derived from the table, so the supervisor, its
// workers, `fav submit` and the daemon cannot disagree about a flag.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/framework.h"
#include "mc/supervisor.h"

namespace fav::cli {

/// Every flag's typed field; the defaults here are the CLI's defaults, and
/// the table in cli_options.cpp documents each field.
struct Options {
  std::string command, benchmark = "write", technique = "radiation",
              strategy = "importance";
  std::uint64_t samples = 3000, seed = 2017, space_limit = 0, t_range = 50;
  bool exhaustive = false, resume = false, progress = false;
  double radius = 1.5, coverage = 0.95;
  // record_capacity is capped by default: a 1e6+-sample campaign would keep
  // every record in memory (see EvaluatorConfig::record_capacity).
  std::uint64_t record_capacity = 200'000, threads = 1, batch_lanes = 64,
                cycle_budget = 0, deadline_ms = 0;
  std::string journal, precharac_cache, metrics_out, trace_out, out;
  std::uint64_t supervise = 0, heartbeat_ms = 30'000, shard_size = 256;
  // Serving tier (`fav serve` / `fav submit`).
  std::string socket, state_dir, stats_out;
  std::uint64_t max_campaigns = 2, max_queued = 16, campaign_deadline_ms = 0,
                heartbeat_interval_ms = 1000, idle_timeout_ms = 30'000,
                busy_retries = 4, retry_backoff_ms = 0;
  // Hidden worker mode and test-only fault injection (see WorkerHeartbeat
  // and util/io.h ChaosFile).
  std::uint64_t worker_id = 0, crash_after = 0, crash_on = mc::kNoCrashIndex,
                chaos_write_nth = 0, chaos_fsync_nth = 0;

  core::FrameworkConfig framework_config() const;
};

/// Usage errors are exceptions, not exits: the serve daemon parses untrusted
/// request argv with the same parser as main(), and a bad request must fail
/// that one campaign (exit code 2), never the daemon.
struct UsageError {
  std::string message;
};

/// Throws UsageError{message}.
[[noreturn]] void usage(const std::string& message);

enum Command : unsigned {
  kInfo = 1u << 0,
  kCharacterize = 1u << 1,
  kEvaluate = 1u << 2,
  kHarden = 1u << 3,
  kExportVerilog = 1u << 4,
  kTrace = 1u << 5,
  kServe = 1u << 6,
  kSubmit = 1u << 7,
  kWorker = 1u << 8,  // hidden: spawned by --supervise
  kAnyCommand = (1u << 9) - 1,
};

enum Trait : unsigned {
  kHidden = 1u << 0,        // left out of the usage text
  kForwarded = 1u << 1,     // passed on to every `fav worker`
  kFingerprint = 1u << 2,   // part of the journal's campaign identity
  kServeRefused = 1u << 3,  // a shared daemon refuses the request
};

/// The typed Options field a flag sets, one alternative per value kind.
struct Text {
  std::string Options::*field;
  const char* meta;     // usage placeholder ("DIR"), or the choices "a|b"
  bool closed = false;  // the value must be one of the choices in `meta`
};
struct Switch {  // no value; sets the field
  bool Options::*field;
};
struct Clear {  // no value; empties a text field
  std::string Options::*field;
};
struct Count {
  std::uint64_t Options::*field;
  std::uint64_t min, max;
};
struct Real {
  double Options::*field;
  double min, max;
};
using Value = std::variant<Text, Switch, Clear, Count, Real>;

struct Flag {
  const char* name;
  Value value;
  unsigned commands;  // Command bits
  unsigned traits;    // Trait bits
  const char* help;

  bool has(Trait t) const { return (traits & t) != 0; }
  bool takes_value() const {
    return !std::holds_alternative<Switch>(value) &&
           !std::holds_alternative<Clear>(value);
  }
  /// Parses `text` into the field; throws UsageError when out of range.
  void apply(Options& o, const std::string& text) const;
  /// The field's value as argv text; doubles print with full precision.
  std::string text(const Options& o) const;
  /// The field differs from its default.
  bool is_set(const Options& o) const;
  /// {name} for a set switch, {name, text} for a value, {} when unset.
  std::vector<std::string> argv(const Options& o) const;
};

/// Every flag of every command, in usage order.
const std::vector<Flag>& flags();

/// The row that binds `field` (the first, for a field that a Clear row also
/// empties).
template <typename T>
const Flag& flag_for(T Options::*field) {
  auto binds = [field](const auto& v) {
    if constexpr (requires { v.field == field; }) return v.field == field;
    return false;
  };
  for (const Flag& f : flags()) {
    if (std::visit(binds, f.value)) return f;
  }
  throw std::logic_error("no flag binds this Options field");
}

/// Parses `args` = {command, flag...}, with every range, "applies to" and
/// cross-flag check. main() and the serve daemon both call it.
Options parse(const std::vector<std::string>& args);

std::string usage_text();

/// argv of a `fav worker` process: `exe worker` plus every set kForwarded
/// flag, so the worker re-derives the bitwise-identical campaign.
std::vector<std::string> worker_command(const Options& o,
                                        const std::string& exe);

/// The request a `fav submit` sends to the daemon: `evaluate` plus every set
/// flag that applies to evaluate (the client's own flags stay behind).
std::vector<std::string> served_request(const Options& o);

/// Journal identity (core::CampaignKey) over the kFingerprint rows, which
/// cli_options_test checks field by field. `strategy` and `samples` are
/// the resolved ones: the sampler actually built (or "exhaustive") and the
/// campaign's total (--samples, or the swept prefix of the fault space).
std::uint64_t campaign_fingerprint(const Options& o,
                                   const std::string& strategy,
                                   std::uint64_t samples);

/// Why a shared daemon refuses `o` ("" when it is servable): it is not an
/// evaluate request, or it sets a kServeRefused flag.
std::string served_refusal(const Options& o);

}  // namespace fav::cli
