// fav — command-line front end to the fault-attack vulnerability framework.
//
//   fav info                             design + benchmark overview
//   fav characterize                     register characterization table
//   fav evaluate   [options]             SSF estimation
//   fav harden     [options]             critical cells + hardening report
//   fav export-verilog [--out FILE]      structural Verilog of the SoC
//   fav trace      [options] --out FILE  VCD of the golden run
//   fav serve  --socket PATH [--max-campaigns N] [--max-queued N]
//              [--campaign-deadline-ms N] [--heartbeat-interval-ms N]
//              [--state-dir DIR] [--stats-out FILE]
//                                        long-running campaign daemon on a
//                                        Unix socket (see DESIGN.md §6k, §6m).
//                                        --state-dir enables the crash-
//                                        recovery ledger: campaigns accepted
//                                        before a daemon crash are re-run
//                                        (resuming their journal) on restart
//   fav submit --socket PATH [--idle-timeout-ms N] [--busy-retries N]
//              [--retry-backoff-ms N] [evaluate options]
//                                        run a campaign on a serving daemon;
//                                        prints the same stdout block and
//                                        writes the same run report as a
//                                        local `fav evaluate`. SIGINT/SIGTERM
//                                        cancels the served campaign (the
//                                        daemon stops it cooperatively and
//                                        ships the partial, resumable
//                                        report); a full queue is retried
//                                        with exponential backoff
//
// Common options:
//   --benchmark write|read|exec|dma   (default write)
//   --technique radiation|clock-glitch|voltage-glitch  (default radiation)
//   --samples N                   (default 3000)
//   --seed S                      (default 2017)
//   --strategy random|cone|importance   (default importance; for
//                                  clock-glitch and voltage-glitch all
//                                  strategies map to the technique's uniform
//                                  sampler)
//   --exhaustive                  evaluate only: sweep the technique's
//                                  entire enumerable fault space exactly
//                                  once instead of Monte Carlo sampling.
//                                  --samples/--strategy are ignored; the
//                                  result is the exact SSF with
//                                  coverage 1.0, bitwise-identical at every
//                                  --threads/--batch-lanes/--supervise
//                                  setting and across kill + --resume
//   --space-limit N               cap an --exhaustive sweep at the first N
//                                  enumeration indices (coverage < 1.0;
//                                  mainly for smoke tests)
//   --t-range N                   (default 50)
//   --radius R                    (default 1.5, radiation only)
//   --coverage C                  (default 0.95, harden only)
//   --record-capacity N           cap on kept per-sample records
//                                  (default 200000; 0 = unlimited)
//   --threads N                   (default 1; 0 = all hardware threads.
//                                  Estimates are bitwise-identical for every
//                                  N — see DESIGN.md, parallel engine)
//   --batch-lanes N               (default 64; 0/1 = scalar) word-parallel
//                                  lanes for same-injection-cycle samples.
//                                  Results are bitwise-identical for every
//                                  N — batching only changes throughput
//   --cycle-budget N              per-sample RTL cycle budget (0 = unlimited)
//   --deadline-ms N               per-sample wall-clock deadline (0 = none;
//                                  trades determinism for hang protection)
//   --journal DIR                 evaluate only: crash-safe shard journal
//   --resume                      replay the journal in --journal DIR and
//                                  continue from the first missing sample
//   --precharac-cache PATH        persist the pre-characterization bundle
//                                  (cones, signatures, lifetimes, potency) to
//                                  PATH and load it on later runs instead of
//                                  re-elaborating. The artifact is integrity
//                                  checked end to end; any mismatch falls
//                                  back to recompute-and-rewrite. Results are
//                                  bitwise-identical with and without the
//                                  cache. Forwarded to supervised workers,
//                                  which coordinate through PATH.lock
//   --no-precharac-cache          clear an earlier --precharac-cache
//   --supervise N                 evaluate only: run the campaign across N
//                                  worker *processes* (requires --journal).
//                                  Workers that crash or wedge are SIGKILLed
//                                  and restarted; samples that keep killing
//                                  workers are quarantined as failed records.
//                                  Estimates are bitwise-identical to the
//                                  single-process engine at every N.
//   --heartbeat-ms N              supervise only: per-sample liveness
//                                  deadline before a worker is presumed
//                                  wedged (default 30000)
//   --shard-size N                samples per journal shard: the flush /
//                                  commit granularity, and the per-worker
//                                  assignment size under --supervise
//                                  (default 256)
//   --metrics-out FILE            evaluate only: JSON run report (phase
//                                  timings, outcome-path counters, ESS)
//   --trace-out FILE              evaluate only: Chrome-trace events
//                                  (load in chrome://tracing or Perfetto)
//   --progress                    evaluate only: throttled stderr progress
//                                  (samples/s, running SSF +- CI, ESS)
//
// All flag values are validated strictly: unknown flags, non-numeric or
// out-of-range values exit with the usage message and status 2 instead of
// silently defaulting.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 campaign
// interrupted but resumable — SIGINT/SIGTERM, or the journal device filling
// up / failing mid-campaign (partial results journaled; rerun with --resume
// to continue).
//
// `--chaos-write-nth N` / `--chaos-fsync-nth N` are hidden test-only flags:
// they make the Nth low-level campaign file write (or fsync) in this process
// — and, when supervising, in every worker — fail with ENOSPC, driving the
// degraded-I/O paths deterministically (see util/io.h ChaosFile).
//
// `fav worker` is a hidden command spawned by `--supervise`; it speaks the
// supervisor pipe protocol on stdin/stdout (see mc/supervisor.h) and is not
// meant to be invoked by hand.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "mc/serve.h"
#include "mc/supervisor.h"
#include "core/hardening.h"
#include "core/run_report.h"
#include "netlist/verilog.h"
#include "rtl/vcd.h"
#include "util/io.h"

using namespace fav;

namespace {

/// Graceful-stop flag set by SIGINT/SIGTERM: the engine (or supervisor)
/// finishes the in-flight chunk, flushes a partial run report marked
/// interrupted, and exits with code 3. The handler is installed with
/// SA_RESETHAND, so a second signal terminates immediately.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

const char* g_argv0 = "fav";

struct Options {
  std::string command;
  std::string benchmark = "write";
  std::string technique = "radiation";
  std::string strategy = "importance";
  std::string out;
  std::string journal;
  std::string precharac_cache;
  std::string metrics_out;
  std::string trace_out;
  bool progress = false;
  bool resume = false;
  // Exhaustive sweep: enumerate the technique's bound fault space instead of
  // sampling (--samples/--strategy ignored; space_limit 0 = whole space).
  bool exhaustive = false;
  std::uint64_t space_limit = 0;
  std::size_t samples = 3000;
  std::uint64_t seed = 2017;
  int t_range = 50;
  double radius = 1.5;
  double coverage = 0.95;
  std::size_t threads = 1;
  std::size_t batch_lanes = 64;
  std::uint64_t cycle_budget = 0;
  std::uint64_t deadline_ms = 0;
  // Capped by default: a capacity-less 1e6+-sample campaign keeps every
  // record in memory (estimates and contribution maps are unaffected by the
  // cap — see EvaluatorConfig::record_capacity).
  std::size_t record_capacity = 200'000;
  // Multi-process supervisor (0 = in-process engine).
  std::size_t supervise = 0;
  std::uint64_t heartbeat_ms = 30000;
  std::size_t shard_size = 256;
  // Serving tier (`fav serve` / `fav submit`).
  std::string socket;
  std::size_t max_campaigns = 2;
  std::size_t max_queued = 16;
  std::uint64_t campaign_deadline_ms = 0;    // 0 = no deadline
  std::uint64_t heartbeat_interval_ms = 1000;  // 0 = heartbeats off
  std::string state_dir;   // serve: crash-recovery ledger lives here
  std::string stats_out;   // serve: JSON stats snapshot path
  // Hidden `fav worker` mode (spawned by the supervisor).
  std::size_t worker_id = 0;
  // Test-only chaos injection, forwarded to workers (see WorkerHeartbeat).
  std::uint64_t crash_after = 0;
  std::uint64_t crash_on = mc::kNoCrashIndex;
  // Test-only degraded-I/O injection: make the Nth physical file write /
  // fsync fail with ENOSPC (0 = off; see util/io.h ChaosFile).
  std::uint64_t chaos_write_nth = 0;
  std::uint64_t chaos_fsync_nth = 0;

  core::FrameworkConfig framework_config() const {
    core::FrameworkConfig cfg;
    cfg.technique = technique;
    cfg.mode = exhaustive ? "exhaustive" : "sampled";
    cfg.precharac_cache_path = precharac_cache;
    cfg.evaluator.threads = threads;
    cfg.evaluator.batch_lanes = batch_lanes;
    cfg.evaluator.cycle_budget = cycle_budget;
    cfg.evaluator.sample_deadline_ms = deadline_ms;
    cfg.evaluator.record_capacity = record_capacity;
    return cfg;
  }
};

/// Usage errors are exceptions, not exits: the serve daemon parses untrusted
/// request argv with the same parser as main(), and a bad request must fail
/// that one campaign (kError frame, exit code 2), never the daemon. main()
/// catches this, prints the usage text and exits 2 — the historical CLI
/// behavior.
struct UsageError {
  std::string message;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  throw UsageError{msg != nullptr ? msg : ""};
}

void print_usage(const std::string& message) {
  if (!message.empty()) {
    std::fprintf(stderr, "error: %s\n\n", message.c_str());
  }
  std::fprintf(stderr,
               "usage: fav <info|characterize|evaluate|harden|export-verilog|"
               "trace|serve|submit> [options]\n"
               "options: --benchmark write|read|exec|dma  --samples N\n"
               "         --seed S\n"
               "         --technique radiation|clock-glitch|voltage-glitch\n"
               "         --strategy random|cone|importance  --t-range N\n"
               "         --exhaustive  --space-limit N\n"
               "                              (evaluate only: sweep the whole\n"
               "                               fault space exactly once)\n"
               "         --radius R  --coverage C  --out FILE\n"
               "         --record-capacity N (0 = unlimited)\n"
               "         --threads N (0 = all hardware threads)\n"
               "         --batch-lanes N (0/1 = scalar, default 64)\n"
               "         --cycle-budget N  --deadline-ms N (0 = unlimited)\n"
               "         --journal DIR  --resume (evaluate only)\n"
               "         --precharac-cache PATH  --no-precharac-cache\n"
               "                              (evaluate/harden: persist and\n"
               "                               reuse the pre-characterization\n"
               "                               bundle; integrity-checked)\n"
               "         --supervise N  --heartbeat-ms N\n"
               "         --shard-size N (evaluate only, needs --journal)\n"
               "         --metrics-out FILE  --trace-out FILE  --progress\n"
               "                              (evaluate only)\n"
               "         --socket PATH        (serve/submit: Unix socket)\n"
               "         --max-campaigns N    (serve: concurrent campaigns,\n"
               "                              default 2)\n"
               "         --max-queued N       (serve: admission queue depth,\n"
               "                              default 16; overflow is refused\n"
               "                              with a busy/retry-after frame)\n"
               "         --campaign-deadline-ms N\n"
               "                              (serve: stop campaigns that run\n"
               "                              longer than N ms; partial result\n"
               "                              is journaled and resumable)\n"
               "         --heartbeat-interval-ms N\n"
               "                              (serve: keep-alive cadence to\n"
               "                              clients, default 1000, 0 = off)\n"
               "         --state-dir DIR      (serve: crash-recovery ledger;\n"
               "                              interrupted campaigns re-run on\n"
               "                              restart, resuming their journal)\n"
               "         --stats-out FILE     (serve: JSON stats snapshot,\n"
               "                              atomically rewritten as\n"
               "                              campaigns finish)\n"
               "         --idle-timeout-ms N  (submit: fail if no frame from\n"
               "                              the daemon in N ms, default\n"
               "                              30000, 0 = wait forever)\n"
               "         --busy-retries N     (submit: reconnect attempts\n"
               "                              after a busy refusal, default 4)\n"
               "         --retry-backoff-ms N (submit: backoff base, default\n"
               "                              0 = use the server's hint)\n");
}

// Strict numeric parsing: the whole token must parse and land in range,
// otherwise the CLI exits through usage() — no silent defaulting, no silent
// prefix parses ("12abc"), no unsigned wrap-around ("-5" as a count).
std::uint64_t parse_u64(const std::string& flag, const std::string& value,
                        std::uint64_t min, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* begin = value.c_str();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    usage((flag + " expects an unsigned integer, got '" + value + "'").c_str());
  }
  if (parsed < min || parsed > max) {
    usage((flag + " value " + value + " out of range [" +
           std::to_string(min) + ", " + std::to_string(max) + "]")
              .c_str());
  }
  return parsed;
}

double parse_double(const std::string& flag, const std::string& value,
                    double min, double max) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(parsed)) {
    usage((flag + " expects a finite number, got '" + value + "'").c_str());
  }
  if (parsed < min || parsed > max) {
    usage((flag + " value " + value + " out of range [" +
           std::to_string(min) + ", " + std::to_string(max) + "]")
              .c_str());
  }
  return parsed;
}

/// Parses `args` = {command, flag...}. Called with main()'s argv and with
/// request argv arriving over the serve socket — both go through identical
/// validation, which is half of the served == local identity guarantee.
Options parse(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  Options o;
  o.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) usage(("missing value for " + arg).c_str());
      return args[++i];
    };
    if (arg == "--benchmark") {
      o.benchmark = value();
    } else if (arg == "--technique") {
      o.technique = value();
    } else if (arg == "--record-capacity") {
      o.record_capacity = parse_u64(arg, value(), 0, 1'000'000'000);
    } else if (arg == "--samples") {
      o.samples = parse_u64(arg, value(), 1, 1'000'000'000);
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value(), 0, UINT64_MAX);
    } else if (arg == "--strategy") {
      o.strategy = value();
    } else if (arg == "--t-range") {
      o.t_range = static_cast<int>(parse_u64(arg, value(), 1, 1'000'000));
    } else if (arg == "--radius") {
      o.radius = parse_double(arg, value(), 0.0, 1e6);
    } else if (arg == "--coverage") {
      o.coverage = parse_double(arg, value(), 1e-9, 1.0);
    } else if (arg == "--threads") {
      o.threads = parse_u64(arg, value(), 0, 4096);
    } else if (arg == "--batch-lanes") {
      o.batch_lanes = parse_u64(arg, value(), 0, 64);
    } else if (arg == "--cycle-budget") {
      o.cycle_budget = parse_u64(arg, value(), 0, UINT64_MAX);
    } else if (arg == "--deadline-ms") {
      o.deadline_ms = parse_u64(arg, value(), 0, UINT64_MAX);
    } else if (arg == "--journal") {
      o.journal = value();
    } else if (arg == "--precharac-cache") {
      o.precharac_cache = value();
    } else if (arg == "--no-precharac-cache") {
      o.precharac_cache.clear();
    } else if (arg == "--chaos-write-nth") {
      o.chaos_write_nth = parse_u64(arg, value(), 1, UINT64_MAX);
    } else if (arg == "--chaos-fsync-nth") {
      o.chaos_fsync_nth = parse_u64(arg, value(), 1, UINT64_MAX);
    } else if (arg == "--supervise") {
      o.supervise = parse_u64(arg, value(), 1, 1024);
    } else if (arg == "--heartbeat-ms") {
      o.heartbeat_ms = parse_u64(arg, value(), 1, 86'400'000);
    } else if (arg == "--shard-size") {
      o.shard_size = parse_u64(arg, value(), 1, 1'000'000'000);
    } else if (arg == "--socket") {
      o.socket = value();
    } else if (arg == "--max-campaigns") {
      o.max_campaigns = parse_u64(arg, value(), 1, 256);
    } else if (arg == "--max-queued") {
      o.max_queued = parse_u64(arg, value(), 0, 4096);
    } else if (arg == "--campaign-deadline-ms") {
      o.campaign_deadline_ms = parse_u64(arg, value(), 0, 86'400'000);
    } else if (arg == "--heartbeat-interval-ms") {
      o.heartbeat_interval_ms = parse_u64(arg, value(), 0, 3'600'000);
    } else if (arg == "--state-dir") {
      o.state_dir = value();
    } else if (arg == "--stats-out") {
      o.stats_out = value();
    } else if (arg == "--worker-id") {
      o.worker_id = parse_u64(arg, value(), 0, 1024);
    } else if (arg == "--crash-after-samples") {
      o.crash_after = parse_u64(arg, value(), 1, UINT64_MAX);
    } else if (arg == "--crash-on-sample-index") {
      o.crash_on = parse_u64(arg, value(), 0, UINT64_MAX);
    } else if (arg == "--resume") {
      o.resume = true;
    } else if (arg == "--exhaustive") {
      o.exhaustive = true;
    } else if (arg == "--space-limit") {
      o.space_limit = parse_u64(arg, value(), 1, UINT64_MAX);
    } else if (arg == "--metrics-out") {
      o.metrics_out = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--progress") {
      o.progress = true;
    } else if (arg == "--out") {
      o.out = value();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (o.strategy != "random" && o.strategy != "cone" &&
      o.strategy != "importance") {
    usage(("unknown strategy '" + o.strategy + "'").c_str());
  }
  if (o.technique != "radiation" && o.technique != "clock-glitch" &&
      o.technique != "voltage-glitch") {
    usage(("unknown technique '" + o.technique + "'").c_str());
  }
  if (o.exhaustive && o.command != "evaluate" && o.command != "worker") {
    usage("--exhaustive only applies to the evaluate command");
  }
  if (o.space_limit != 0 && !o.exhaustive) {
    usage("--space-limit requires --exhaustive");
  }
  if (o.resume && o.journal.empty()) usage("--resume requires --journal DIR");
  if (!o.journal.empty() && o.command != "evaluate" &&
      o.command != "worker") {
    usage("--journal only applies to the evaluate command");
  }
  if ((!o.metrics_out.empty() || !o.trace_out.empty() || o.progress) &&
      o.command != "evaluate") {
    usage("--metrics-out/--trace-out/--progress only apply to the evaluate "
          "command");
  }
  if (o.supervise > 0) {
    if (o.command != "evaluate") {
      usage("--supervise only applies to the evaluate command");
    }
    if (o.journal.empty()) usage("--supervise requires --journal DIR");
    if (!o.trace_out.empty()) {
      usage("--trace-out is not supported with --supervise (worker processes "
            "do not ship trace events)");
    }
  }
  if (o.command == "worker" && o.journal.empty()) {
    usage("worker requires --journal DIR");
  }
  if ((o.crash_after != 0 || o.crash_on != mc::kNoCrashIndex) &&
      o.command != "worker" && o.supervise == 0) {
    usage("--crash-after-samples/--crash-on-sample-index only apply to "
          "supervised campaigns and worker mode");
  }
  if (!o.precharac_cache.empty() && o.command != "evaluate" &&
      o.command != "worker" && o.command != "harden") {
    usage("--precharac-cache only applies to the evaluate and harden "
          "commands");
  }
  if ((o.chaos_write_nth != 0 || o.chaos_fsync_nth != 0) &&
      o.command != "evaluate" && o.command != "worker") {
    usage("--chaos-write-nth/--chaos-fsync-nth only apply to the evaluate "
          "command and worker mode");
  }
  // `submit` never reaches parse() with --socket (cmd_submit strips it and
  // validates the remainder as an evaluate command), so here the flag is
  // serve-only.
  if (o.command == "serve" && o.socket.empty()) {
    usage("serve requires --socket PATH");
  }
  if (!o.socket.empty() && o.command != "serve") {
    usage("--socket only applies to the serve and submit commands");
  }
  if ((!o.state_dir.empty() || !o.stats_out.empty()) &&
      o.command != "serve") {
    usage("--state-dir/--stats-out only apply to the serve command");
  }
  return o;
}

soc::SecurityBenchmark pick_benchmark(const std::string& name) {
  if (name == "write") return soc::make_illegal_write_benchmark();
  if (name == "read") return soc::make_illegal_read_benchmark();
  if (name == "exec") return soc::make_illegal_exec_benchmark();
  if (name == "dma") return soc::make_dma_exfiltration_benchmark();
  usage(("unknown benchmark '" + name + "'").c_str());
}

int cmd_info(const Options& o) {
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark));
  const auto& nl = fw.soc().netlist();
  std::printf("MCU16 design\n");
  std::printf("  gates            : %zu\n", nl.gate_count());
  std::printf("  registers (DFFs) : %zu\n", nl.dffs().size());
  std::printf("  logic levels     : %d\n", nl.max_level());
  std::printf("  clock period     : %.1f (critical path %.1f)\n",
              fw.injector().timing().clock_period(),
              fw.injector().timing().critical_path());
  std::printf("  placed cells     : %zu (%.0f x %.0f)\n",
              fw.placement().placed_nodes().size(), fw.placement().width(),
              fw.placement().height());
  std::printf("benchmark '%s'\n", fw.benchmark().name.c_str());
  std::printf("  golden run       : %llu cycles\n",
              static_cast<unsigned long long>(fw.golden().length()));
  std::printf("  target cycle Tt  : %llu\n",
              static_cast<unsigned long long>(fw.target_cycle()));
  std::printf("  memory-type bits : %zu / %d\n",
              fw.characterization().memory_type_bits().size(),
              rtl::Machine::reg_map().total_bits());
  return 0;
}

int cmd_characterize(const Options& o) {
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark));
  const auto& map = rtl::Machine::reg_map();
  const auto& charac = fw.characterization();
  std::printf("%-14s %10s %14s %10s\n", "field", "lifetime", "contamination",
              "mem-type");
  for (std::size_t fi = 0; fi < map.fields().size(); ++fi) {
    const auto& f = map.fields()[fi];
    double lt = 0, ct = 0;
    int mem = 0;
    for (int b = 0; b < f.width; ++b) {
      lt += charac.bit(f.offset + b).avg_lifetime;
      ct += charac.bit(f.offset + b).avg_contamination;
      mem += charac.is_memory_type(f.offset + b) ? 1 : 0;
    }
    std::printf("%-14s %10.1f %14.2f %7d/%d\n", f.name.c_str(), lt / f.width,
                ct / f.width, mem, f.width);
  }
  return 0;
}

/// Campaign identity for the journal: any option that changes the sample
/// stream or its evaluation changes the fingerprint, so a stale journal from
/// a different configuration is rejected on --resume. Exhaustive sweeps pass
/// strategy "exhaustive" (disjoint from every sampler name, so a sampled
/// journal can never cross-resume an exhaustive one) and `samples` = the
/// effective enumeration count min(space, --space-limit).
std::uint64_t campaign_fingerprint(const Options& o,
                                   const std::string& actual_strategy,
                                   std::size_t samples) {
  core::CampaignKey key;
  key.benchmark = o.benchmark;
  key.technique = o.technique;
  key.strategy = actual_strategy;
  key.seed = o.seed;
  key.samples = samples;
  key.t_range = o.t_range;
  key.radius = o.radius;
  key.cycle_budget = o.cycle_budget;
  return core::campaign_fingerprint(key);
}

/// Full-precision double formatting for worker argv: std::to_string would
/// truncate to 6 decimals and hand the workers a *different* sample stream.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return g_argv0;
}

/// argv of a `fav worker` process: everything that identifies the campaign,
/// so the worker re-derives the bitwise-identical sample batch. Workers
/// always keep full records (--record-capacity 0) — the journal needs every
/// record of an assigned shard.
std::vector<std::string> worker_command(const Options& o) {
  std::vector<std::string> argv = {
      self_exe_path(), "worker",
      "--benchmark", o.benchmark,
      "--technique", o.technique,
      "--strategy", o.strategy,
      "--samples", std::to_string(o.samples),
      "--seed", std::to_string(o.seed),
      "--t-range", std::to_string(o.t_range),
      "--radius", format_double(o.radius),
      "--cycle-budget", std::to_string(o.cycle_budget),
      "--deadline-ms", std::to_string(o.deadline_ms),
      "--threads", std::to_string(o.threads),
      "--batch-lanes", std::to_string(o.batch_lanes),
      "--record-capacity", "0",
      "--journal", o.journal};
  if (o.exhaustive) {
    // Workers re-derive the identical enumeration from the bound space, so
    // the batch never crosses the pipe.
    argv.push_back("--exhaustive");
    if (o.space_limit != 0) {
      argv.push_back("--space-limit");
      argv.push_back(std::to_string(o.space_limit));
    }
  }
  if (!o.precharac_cache.empty()) {
    // Workers share the supervisor's artifact: whoever elaborates first
    // writes it under PATH.lock, the rest load (core/framework.h).
    argv.push_back("--precharac-cache");
    argv.push_back(o.precharac_cache);
  }
  if (o.chaos_write_nth != 0) {
    argv.push_back("--chaos-write-nth");
    argv.push_back(std::to_string(o.chaos_write_nth));
  }
  if (o.chaos_fsync_nth != 0) {
    argv.push_back("--chaos-fsync-nth");
    argv.push_back(std::to_string(o.chaos_fsync_nth));
  }
  if (o.crash_on != mc::kNoCrashIndex) {
    // Deterministic chaos: rides every incarnation so the shard containing
    // this index keeps killing workers and exercises the quarantine path.
    argv.push_back("--crash-on-sample-index");
    argv.push_back(std::to_string(o.crash_on));
  }
  return argv;
}

struct EvalOutcome {
  Status status = Status::ok();  // non-ok: res is meaningless
  mc::SsfResult res;
  /// Samples the campaign set out to evaluate: --samples when sampling, the
  /// effective enumeration count min(space, --space-limit) when exhaustive.
  std::size_t total = 0;
  bool supervised = false;
  std::size_t restarts = 0;
  std::size_t quarantined_shards = 0;
  std::size_t quarantined_samples = 0;
  std::size_t storage_full_stops = 0;
};

/// Runs the campaign (in-process, journaled, or supervised per `o`).
/// `on_sample`, when set, ticks once per evaluated sample on the supervised
/// path — the serving tier's progress stream (the in-process engine routes
/// progress through EvaluatorConfig::on_sample instead).
/// Builds the supervisor config shared by the sampled and exhaustive paths.
mc::SupervisorConfig make_supervisor_config(
    core::FaultAttackEvaluator& fw, const Options& o,
    const std::string& strategy, std::size_t samples,
    const std::function<void()>& on_sample,
    const std::atomic<bool>* stop) {
  mc::SupervisorConfig sc;
  sc.workers = o.supervise;
  sc.shard_size = o.shard_size;
  sc.heartbeat_ms = o.heartbeat_ms;
  sc.worker_command = worker_command(o);
  if (o.crash_after != 0) {
    // One-shot chaos: worker 0's first incarnation only, so restarts make
    // progress and no shard can be killed twice by the injection alone.
    sc.first_spawn_args = {"--crash-after-samples",
                           std::to_string(o.crash_after)};
  }
  sc.dir = o.journal;
  sc.resume = o.resume;
  sc.fingerprint = campaign_fingerprint(o, strategy, samples);
  sc.context = o.benchmark + "/" + o.technique + "/" + strategy;
  sc.metrics = fw.evaluator().config().metrics;
  sc.progress = fw.evaluator().config().progress;
  sc.on_sample = on_sample;
  sc.stop = stop;
  return sc;
}

EvalOutcome take_supervised(Result<mc::SupervisedResult>&& result) {
  EvalOutcome out;
  if (!result.is_ok()) {
    out.status = Status(result.status().code(),
                        "supervised run failed: " +
                            result.status().to_string());
    return out;
  }
  out.res = std::move(result.value().result);
  out.supervised = true;
  out.restarts = result.value().restarts;
  out.quarantined_shards = result.value().quarantined_shards;
  out.quarantined_samples = result.value().quarantined_samples;
  out.storage_full_stops = result.value().storage_full_stops;
  return out;
}

/// Exhaustive sweep: bind the technique's fault space, then stream the
/// enumeration through the same in-process / journaled / supervised paths a
/// sampled campaign uses. No sampler is built — the "strategy" is the
/// literal "exhaustive".
EvalOutcome run_eval_exhaustive(core::FaultAttackEvaluator& fw,
                                const Options& o,
                                const std::function<void()>& on_sample,
                                const std::atomic<bool>* stop) {
  const std::uint64_t space = fw.bind_exhaustive_space(o.t_range, o.radius);
  const std::uint64_t n =
      (o.space_limit != 0 && o.space_limit < space) ? o.space_limit : space;
  if (o.supervise > 0) {
    const mc::SupervisorConfig sc = make_supervisor_config(
        fw, o, "exhaustive", static_cast<std::size_t>(n), on_sample, stop);
    mc::CampaignSupervisor supervisor(fw.evaluator(), sc);
    // The supervisor cross-checks journaled samples against this batch; the
    // workers re-derive the identical enumeration from --exhaustive.
    std::vector<faultsim::FaultSample> batch;
    fw.technique().enumerate(0, n, batch);
    EvalOutcome out = take_supervised(supervisor.run_batch(std::move(batch)));
    out.total = static_cast<std::size_t>(n);
    // The merged worker result doesn't know the space it was carved from —
    // stamp it so coverage reporting matches the in-process sweep.
    if (out.status.is_ok()) out.res.fault_space_size = space;
    return out;
  }
  EvalOutcome out;
  out.total = static_cast<std::size_t>(n);
  if (o.journal.empty()) {
    out.res = fw.evaluator().run_exhaustive(o.space_limit);
    return out;
  }
  mc::JournalOptions jopt;
  jopt.dir = o.journal;
  jopt.resume = o.resume;
  jopt.shard_size = o.shard_size;
  jopt.fingerprint =
      campaign_fingerprint(o, "exhaustive", static_cast<std::size_t>(n));
  jopt.context = o.benchmark + "/" + o.technique + "/exhaustive";
  Result<mc::SsfResult> result =
      fw.evaluator().run_exhaustive_journaled(jopt, o.space_limit);
  if (!result.is_ok()) {
    out.status = Status(result.status().code(),
                        "journaled run failed: " +
                            result.status().to_string());
    return out;
  }
  out.res = std::move(result).value();
  return out;
}

core::SamplerSelection select_sampler(core::FaultAttackEvaluator& fw,
                                      const Options& o) {
  if (o.technique != "radiation") {
    return fw.make_sampler_with_fallback(fw.glitch_attack_model(o.t_range),
                                         o.strategy);
  }
  return fw.make_sampler_with_fallback(
      fw.subblock_attack_model(o.radius, o.t_range), o.strategy);
}

EvalOutcome run_eval(core::FaultAttackEvaluator& fw, const Options& o,
                     std::string* actual_strategy = nullptr,
                     const std::function<void()>& on_sample = {},
                     const std::atomic<bool>* stop = &g_stop) {
  if (o.exhaustive) {
    if (actual_strategy != nullptr) *actual_strategy = "exhaustive";
    return run_eval_exhaustive(fw, o, on_sample, stop);
  }
  core::SamplerSelection sel = select_sampler(fw, o);
  if (sel.downgraded()) {
    std::fprintf(stderr, "fav: strategy downgraded %s -> %s (%s)\n",
                 sel.requested.c_str(), sel.actual.c_str(),
                 sel.downgrade_reason.c_str());
  }
  if (actual_strategy != nullptr) *actual_strategy = sel.actual;
  Rng rng(o.seed);
  EvalOutcome out;
  out.total = o.samples;
  if (o.supervise > 0) {
    const mc::SupervisorConfig sc =
        make_supervisor_config(fw, o, sel.actual, o.samples, on_sample, stop);
    mc::CampaignSupervisor supervisor(fw.evaluator(), sc);
    EvalOutcome sup =
        take_supervised(supervisor.run(*sel.sampler, rng, o.samples));
    sup.total = o.samples;
    return sup;
  }
  if (o.journal.empty()) {
    out.res = fw.evaluator().run(*sel.sampler, rng, o.samples);
    return out;
  }
  mc::JournalOptions jopt;
  jopt.dir = o.journal;
  jopt.resume = o.resume;
  jopt.shard_size = o.shard_size;
  jopt.fingerprint = campaign_fingerprint(o, sel.actual, o.samples);
  jopt.context = o.benchmark + "/" + o.technique + "/" + sel.actual;
  Result<mc::SsfResult> result =
      fw.evaluator().run_journaled(*sel.sampler, rng, o.samples, jopt);
  if (!result.is_ok()) {
    out.status = Status(result.status().code(),
                        "journaled run failed: " +
                            result.status().to_string());
    return out;
  }
  out.res = std::move(result).value();
  return out;
}

/// printf-append onto a campaign's stdout block. The block is built into a
/// string (not printed directly) so a served campaign ships the exact bytes
/// a local run would print.
__attribute__((format(printf, 2, 3))) void append_f(std::string& out,
                                                    const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) {
    va_end(ap2);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, ap2);
    big.resize(static_cast<std::size_t>(n));
    out += big;
  }
  va_end(ap2);
}

void append_failures(std::string& out, const mc::SsfResult& res) {
  if (res.failed == 0 && res.retried == 0) return;
  append_f(out,
           "failures   : %zu failed / %zu retried (%.4f%% of weight)\n",
           res.failed, res.retried, 100.0 * res.failed_weight_fraction());
  for (const auto& [code, count] : res.failure_counts) {
    append_f(out, "             %s x%zu\n", error_code_name(code), count);
  }
}

/// Everything one evaluate campaign produced: the exit code, the exact
/// stdout block a local `fav evaluate` prints, and the run-report JSON when
/// the campaign asked for one. Built by run_evaluate_campaign for local and
/// served campaigns alike — the single code path is the identity guarantee.
struct CampaignOutput {
  int exit_code = 1;
  std::string stdout_block;
  std::string report_json;
  std::string error;  // non-empty: the campaign failed before a result
};

/// The whole evaluate pipeline: sinks, framework elaboration, the campaign
/// run (in-process / journaled / supervised), the stdout block, and the run
/// report. `local_files` writes --metrics-out / --trace-out to disk here
/// (local `fav evaluate`); the serve daemon passes false and ships
/// report_json back to the client, which writes its own file — except for
/// crash-recovered campaigns, whose client is long gone: the daemon re-runs
/// those with local_files = true so the report lands at the originally
/// requested path. `stop` is the cooperative-stop token the engine polls:
/// &g_stop for local runs, the per-campaign cancel token for served ones.
CampaignOutput run_evaluate_campaign(const Options& o, bool local_files,
                                     const mc::ProgressFn& progress,
                                     const std::atomic<bool>* stop) {
  CampaignOutput out;
  // Observability sinks live here (campaign scope); the evaluator only sees
  // non-null pointers for what was requested, so unused channels stay
  // zero-cost.
  MetricsSink metrics;
  TraceBuffer trace;
  std::optional<ProgressMeter> meter;
  if (o.progress) meter.emplace(o.samples);
  core::FrameworkConfig cfg = o.framework_config();
  if (!o.metrics_out.empty()) cfg.evaluator.metrics = &metrics;
  if (!o.trace_out.empty()) cfg.evaluator.trace = &trace;
  if (meter.has_value()) cfg.evaluator.progress = &*meter;
  cfg.evaluator.stop = stop;
  // Served progress: the in-process engine ticks through the evaluator's
  // on_sample (any worker thread); supervised campaigns tick through the
  // supervisor's on_sample hook below. Both count evaluated samples.
  std::atomic<std::uint64_t> completed{0};
  auto tick = [&completed, &progress, &o] {
    progress(completed.fetch_add(1, std::memory_order_relaxed) + 1,
             o.samples);
  };
  if (progress && o.supervise == 0) {
    cfg.evaluator.on_sample = [&tick](const mc::SampleRecord&,
                                      std::size_t) { tick(); };
  }
  if (o.chaos_write_nth != 0 || o.chaos_fsync_nth != 0) {
    io::ChaosFile chaos;
    chaos.fail_write_at = o.chaos_write_nth;
    chaos.fail_fsync_at = o.chaos_fsync_nth;
    io::chaos_install(chaos);
  }
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark), cfg);
  std::string actual_strategy = o.strategy;
  const std::uint64_t t0 = monotonic_ns();
  const EvalOutcome eval =
      run_eval(fw, o, &actual_strategy,
               (progress && o.supervise > 0) ? std::function<void()>(tick)
                                             : std::function<void()>{},
               stop);
  // The injected fault targets the campaign write path; clear it so the
  // interrupted run report below can still land (the real-world analogue is
  // a report on a different device than the full journal disk).
  io::chaos_reset();
  if (!eval.status.is_ok()) {
    out.error = eval.status.to_string();
    out.exit_code = 1;
    return out;
  }
  const mc::SsfResult& res = eval.res;
  const double elapsed_s = static_cast<double>(monotonic_ns() - t0) * 1e-9;
  if (meter.has_value()) meter->finish();
  append_f(out.stdout_block, "benchmark  : %s\n", fw.benchmark().name.c_str());
  append_f(out.stdout_block, "technique  : %s\n", fw.technique().name());
  append_f(out.stdout_block, "strategy   : %s (n=%zu, seed=%llu)\n",
           actual_strategy.c_str(), eval.total,
           static_cast<unsigned long long>(o.seed));
  if (res.fault_space_size > 0) {
    append_f(out.stdout_block,
             "fault space: size %llu, evaluated %zu, coverage %.6f\n",
             static_cast<unsigned long long>(res.fault_space_size),
             res.evaluated, res.coverage());
  }
  if (res.interrupted) {
    append_f(out.stdout_block,
             "interrupted: yes — %zu of %zu samples evaluated "
             "(rerun with --resume to continue)\n",
             res.evaluated, eval.total);
  }
  if (eval.supervised) {
    append_f(out.stdout_block,
             "supervisor : %zu worker(s), %zu restart(s), %zu shard(s) / "
             "%zu sample(s) quarantined\n",
             o.supervise, eval.restarts, eval.quarantined_shards,
             eval.quarantined_samples);
    if (eval.storage_full_stops > 0) {
      append_f(out.stdout_block,
               "storage    : %zu worker(s) stopped on a full/failing "
               "journal device\n",
               eval.storage_full_stops);
    }
  }
  const core::PrecharacCacheReport& cache = fw.precharac_cache();
  if (cache.enabled) {
    append_f(out.stdout_block, "precharac  : cache %s (%s)%s\n",
             cache.outcome.c_str(), cache.path.c_str(),
             cache.stored ? ", stored" : "");
  }
  append_f(out.stdout_block, "SSF        : %.6f\n", res.ssf());
  append_f(out.stdout_block, "std error  : %.6f\n",
           res.stats.standard_error());
  append_f(out.stdout_block, "variance   : %.3e\n", res.sample_variance());
  append_f(out.stdout_block, "ESS        : %.1f of %zu\n",
           res.effective_sample_size(), eval.total);
  append_f(out.stdout_block, "successes  : %zu\n", res.successes);
  append_f(out.stdout_block,
           "paths      : %zu masked / %zu analytical / %zu rtl\n", res.masked,
           res.analytical, res.rtl);
  append_failures(out.stdout_block, res);
  if (!o.metrics_out.empty()) {
    metrics.merge(fw.metrics());  // pre-characterization + sampler provenance
    std::ostringstream report;
    core::RunReportInputs in;
    in.benchmark = o.benchmark;
    in.technique = o.technique;
    in.strategy = actual_strategy;
    in.mode = o.exhaustive ? "exhaustive" : "sampled";
    in.samples = eval.total;
    in.seed = o.seed;
    in.threads = o.threads;
    in.batch_lanes = o.batch_lanes;
    in.supervise = o.supervise;
    in.supervised = eval.supervised;
    in.restarts = eval.restarts;
    in.quarantined_shards = eval.quarantined_shards;
    in.quarantined_samples = eval.quarantined_samples;
    in.storage_full_stops = eval.storage_full_stops;
    in.cache = cache;
    in.elapsed_s = elapsed_s;
    in.result = &res;
    in.metrics = &metrics;
    core::write_run_report(report, in);
    out.report_json = report.str();
    if (local_files) {
      const Status written =
          io::atomic_write_file(o.metrics_out, out.report_json);
      if (!written.is_ok()) {
        out.error = "cannot write run report: " + written.to_string();
        out.exit_code = 1;
        return out;
      }
    }
    append_f(out.stdout_block, "run report : %s\n", o.metrics_out.c_str());
  }
  if (!o.trace_out.empty()) {
    std::ostringstream events;
    trace.write_json(events);
    if (local_files) {
      const Status written = io::atomic_write_file(o.trace_out, events.str());
      if (!written.is_ok()) {
        out.error = "cannot write trace: " + written.to_string();
        out.exit_code = 1;
        return out;
      }
    }
    append_f(out.stdout_block, "trace      : %s (%zu events)\n",
             o.trace_out.c_str(), trace.size());
  }
  const auto& map = rtl::Machine::reg_map();
  const auto fields = core::select_critical_fields(res, 0.95);
  append_f(out.stdout_block, "critical   :");
  for (const int f : fields) {
    append_f(out.stdout_block, " %s", map.field(f).name.c_str());
  }
  append_f(out.stdout_block, "\n");
  out.exit_code = res.interrupted ? 3 : 0;
  return out;
}

int cmd_evaluate(const Options& o) {
  install_stop_handlers();
  const CampaignOutput out = run_evaluate_campaign(o, true, {}, &g_stop);
  if (!out.error.empty()) {
    std::fprintf(stderr, "fav: %s\n", out.error.c_str());
    return out.exit_code != 0 ? out.exit_code : 1;
  }
  std::fputs(out.stdout_block.c_str(), stdout);
  return out.exit_code;
}

/// Journal directories in use by in-flight served campaigns. Two concurrent
/// campaigns sharing a journal would interleave shard files and corrupt both
/// results, so the daemon reserves the (canonicalized) directory for the
/// campaign's lifetime and refuses the second request.
std::mutex g_journal_registry_mu;
std::set<std::string> g_journal_registry;

bool reserve_journal(const std::string& dir, std::string* key) {
  std::error_code ec;
  const std::filesystem::path canon =
      std::filesystem::weakly_canonical(dir, ec);
  *key = ec ? dir : canon.string();
  std::lock_guard<std::mutex> lock(g_journal_registry_mu);
  return g_journal_registry.insert(*key).second;
}

void release_journal(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_journal_registry_mu);
  g_journal_registry.erase(key);
}

/// The serve daemon's CampaignRunner: parses the request argv with the same
/// parser as main() and runs the same campaign path as a local
/// `fav evaluate` — which is the served == local identity guarantee. A bad
/// request fails this one campaign (never the daemon), and flags with
/// process-global or client-side-file side effects are refused per-request.
/// `cancel` is the per-campaign stop token the server trips on client
/// disconnect / explicit cancel / deadline / daemon drain; `local_files` is
/// false for live clients (the report ships over the socket) and true for
/// crash-recovered campaigns (the daemon writes --metrics-out itself).
mc::CampaignOutcome run_served_campaign(const std::vector<std::string>& args,
                                        const mc::ProgressFn& progress,
                                        const std::atomic<bool>& cancel,
                                        bool local_files) {
  mc::CampaignOutcome out;
  Options o;
  try {
    o = parse(args);
  } catch (const UsageError& e) {
    out.error = e.message.empty() ? "invalid campaign request" : e.message;
    out.exit_code = 2;
    return out;
  }
  if (o.command != "evaluate") {
    out.error =
        "served campaigns must be 'evaluate' requests, got '" + o.command +
        "'";
    out.exit_code = 2;
    return out;
  }
  if (o.chaos_write_nth != 0 || o.chaos_fsync_nth != 0) {
    out.error = "--chaos-write-nth / --chaos-fsync-nth are process-global "
                "and cannot run on a shared daemon";
    out.exit_code = 2;
    return out;
  }
  if (o.crash_after != 0 || o.crash_on != mc::kNoCrashIndex) {
    out.error = "crash-injection flags cannot run on a shared daemon";
    out.exit_code = 2;
    return out;
  }
  if (!o.trace_out.empty()) {
    out.error = "--trace-out is not supported for served campaigns "
                "(run locally)";
    out.exit_code = 2;
    return out;
  }
  std::string journal_key;
  const bool has_journal = !o.journal.empty();
  if (has_journal && !reserve_journal(o.journal, &journal_key)) {
    out.error = "journal directory '" + o.journal +
                "' is in use by another in-flight campaign";
    out.exit_code = 1;
    return out;
  }
  try {
    const CampaignOutput run =
        run_evaluate_campaign(o, local_files, progress, &cancel);
    out.exit_code = run.exit_code;
    out.stdout_block = run.stdout_block;
    out.report_json = run.report_json;
    out.error = run.error;
  } catch (const StatusError& e) {
    out.error = std::string("[") + error_code_name(e.code()) + "] " + e.what();
    out.exit_code = 1;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.exit_code = 1;
  }
  if (has_journal) release_journal(journal_key);
  return out;
}

int cmd_serve(const Options& o) {
  install_stop_handlers();
  // Streaming to a client that vanished must surface as a write error on
  // that one socket, never kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  mc::ServeConfig sc;
  sc.socket_path = o.socket;
  sc.max_concurrent = o.max_campaigns;
  sc.max_queued = o.max_queued;
  sc.campaign_deadline_ms = o.campaign_deadline_ms;
  sc.heartbeat_interval_ms = o.heartbeat_interval_ms;
  sc.stats_path = o.stats_out;
  sc.stop = &g_stop;
  if (!o.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.state_dir, ec);
    if (ec) {
      std::fprintf(stderr, "fav serve: cannot create state dir %s: %s\n",
                   o.state_dir.c_str(), ec.message().c_str());
      return 1;
    }
    sc.ledger_path =
        (std::filesystem::path(o.state_dir) / "ledger.fvl").string();
  }
  // Recovered campaigns have no client: the daemon itself writes the
  // originally requested --metrics-out, so the report still lands where the
  // (long-gone) submitter asked.
  sc.recovery_runner = [](const std::vector<std::string>& args,
                          const mc::ProgressFn& progress,
                          const std::atomic<bool>& cancel) {
    return run_served_campaign(args, progress, cancel, true);
  };
  mc::CampaignServer server(
      sc, [](const std::vector<std::string>& args,
             const mc::ProgressFn& progress, const std::atomic<bool>& cancel) {
        return run_served_campaign(args, progress, cancel, false);
      });
  const Status status = server.serve();
  if (!status.is_ok()) {
    std::fprintf(stderr, "fav serve: %s\n", status.to_string().c_str());
    return 1;
  }
  return 0;
}

/// `fav submit --socket PATH <evaluate flags>`: runs the campaign on a
/// serving daemon and reproduces a local `fav evaluate` byte for byte — the
/// same stdout block on stdout, the same run report written to the *client's*
/// --metrics-out path, the same exit code.
int cmd_submit(const std::vector<std::string>& raw) {
  std::string socket;
  std::uint64_t idle_timeout_ms = 30'000;  // 0 = wait forever
  std::size_t busy_retries = 4;
  std::uint64_t retry_backoff_ms = 0;  // 0 = use the server's hint
  std::vector<std::string> fwd;
  fwd.push_back("evaluate");
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& arg = raw[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= raw.size()) usage(("missing value for " + arg).c_str());
      return raw[++i];
    };
    if (arg == "--socket") {
      socket = value();
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = parse_u64(arg, value(), 0, 86'400'000);
    } else if (arg == "--busy-retries") {
      busy_retries = parse_u64(arg, value(), 0, 1000);
    } else if (arg == "--retry-backoff-ms") {
      retry_backoff_ms = parse_u64(arg, value(), 0, 3'600'000);
    } else {
      fwd.push_back(arg);
    }
  }
  if (socket.empty()) usage("submit requires --socket PATH");
  // Validate client-side with the same parser the server will run, so a
  // typo fails here with the usage text instead of after a round-trip.
  const Options o = parse(fwd);
  // Ctrl-C cancels the served campaign: submit ships a cancel frame, the
  // daemon stops the campaign cooperatively and returns the partial
  // (resumable) result with exit code 3 — same contract as a local SIGINT.
  install_stop_handlers();
  mc::SubmitOptions opts;
  if (o.progress) {
    opts.on_progress = [](std::uint64_t done, std::uint64_t total) {
      std::fprintf(stderr, "fav submit: %llu / %llu samples\n",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total));
    };
  }
  opts.on_busy = [](std::uint64_t delay_ms) {
    std::fprintf(stderr,
                 "fav submit: server busy, retrying in %llu ms\n",
                 static_cast<unsigned long long>(delay_ms));
  };
  opts.idle_timeout_ms =
      idle_timeout_ms == 0 ? -1 : static_cast<int>(idle_timeout_ms);
  opts.cancel = &g_stop;
  opts.busy_retries = busy_retries;
  opts.retry_backoff_ms = retry_backoff_ms;
  const Result<mc::SubmitResult> sent =
      mc::submit_campaign(socket, fwd, opts);
  if (!sent.is_ok()) {
    std::fprintf(stderr, "fav submit: %s\n",
                 sent.status().to_string().c_str());
    return 1;
  }
  const mc::SubmitResult& res = sent.value();
  if (!res.error.empty()) {
    std::fprintf(stderr, "fav: %s\n", res.error.c_str());
    return res.exit_code != 0 ? res.exit_code : 1;
  }
  // The daemon ships the report bytes; the file lands wherever the *client*
  // asked, exactly like a local run.
  if (!o.metrics_out.empty() && !res.report_json.empty()) {
    const Status written =
        io::atomic_write_file(o.metrics_out, res.report_json);
    if (!written.is_ok()) {
      std::fprintf(stderr, "fav: cannot write run report: %s\n",
                   written.to_string().c_str());
      return 1;
    }
  }
  std::fputs(res.stdout_block.c_str(), stdout);
  return res.exit_code;
}

/// Hidden worker mode (spawned by --supervise): stdin/stdout are the
/// supervisor's protocol pipes, so nothing in this path may print to stdout.
/// Elaborates the identical framework from the forwarded campaign flags,
/// re-draws the full batch, and serves shard assignments until SHUTDOWN/EOF.
int cmd_worker(const Options& o) {
  // The supervisor coordinates shutdown over the pipe; a terminal SIGINT
  // (Ctrl-C hits the whole foreground process group) must not kill workers
  // mid-shard. SIGTERM stays default: it is the PDEATHSIG delivered when the
  // supervisor dies, and workers must not outlive it.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, SIG_IGN);
  if (o.chaos_write_nth != 0 || o.chaos_fsync_nth != 0) {
    io::ChaosFile chaos;
    chaos.fail_write_at = o.chaos_write_nth;
    chaos.fail_fsync_at = o.chaos_fsync_nth;
    io::chaos_install(chaos);
  }
  static mc::WorkerHeartbeat heartbeat(STDOUT_FILENO);
  heartbeat.set_crash_after(o.crash_after);
  heartbeat.set_crash_on(o.crash_on);
  MetricsSink metrics;
  core::FrameworkConfig cfg = o.framework_config();
  cfg.evaluator.record_capacity = 0;  // the journal needs every record
  cfg.evaluator.metrics = &metrics;
  // The supervisor runs the one global reduction over the merged journals;
  // workers shipping reduce-derived counters would double-count them.
  cfg.evaluator.reduce_metrics = false;
  cfg.evaluator.on_sample = [](const mc::SampleRecord& record,
                               std::size_t slice_index) {
    heartbeat.on_sample(record, slice_index);
  };
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark), cfg);
  std::string actual = o.strategy;
  std::size_t total = o.samples;
  std::vector<faultsim::FaultSample> samples;
  if (o.exhaustive) {
    // Re-derive the identical enumeration the supervisor (and every sibling
    // worker) computes from the same flags — the batch never crosses the
    // pipe, exactly like the sampled path re-draws from the seed.
    const std::uint64_t space = fw.bind_exhaustive_space(o.t_range, o.radius);
    const std::uint64_t n =
        (o.space_limit != 0 && o.space_limit < space) ? o.space_limit : space;
    total = static_cast<std::size_t>(n);
    actual = "exhaustive";
    fw.technique().enumerate(0, n, samples);
  } else {
    const core::SamplerSelection sel = select_sampler(fw, o);
    actual = sel.actual;
    Rng rng(o.seed);
    samples = fw.evaluator().draw_batch(*sel.sampler, rng, o.samples);
  }
  mc::WorkerLoopOptions wopt;
  wopt.dir = o.journal;
  wopt.worker_id = o.worker_id;
  wopt.fingerprint = campaign_fingerprint(o, actual, total);
  wopt.context = o.benchmark + "/" + o.technique + "/" + actual;
  wopt.in_fd = STDIN_FILENO;
  wopt.out_fd = STDOUT_FILENO;
  const Status status =
      mc::run_worker_loop(fw.evaluator(), samples, heartbeat, wopt, &metrics);
  if (!status.is_ok()) {
    std::fprintf(stderr, "fav worker %zu: %s\n", o.worker_id,
                 status.to_string().c_str());
    // Storage full/failing: every journaled shard is intact, so signal the
    // supervisor to stop the fleet gracefully instead of treating this
    // worker as crashed (no attempts charge, no quarantine, no respawn).
    if (status.code() == ErrorCode::kStorageFull) {
      return mc::kExitResumableStop;
    }
    return 1;
  }
  return 0;
}

int cmd_harden(const Options& o) {
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark),
                                o.framework_config());
  const EvalOutcome eval = run_eval(fw, o);
  if (!eval.status.is_ok()) {
    std::fprintf(stderr, "fav: %s\n", eval.status.to_string().c_str());
    return 1;
  }
  const auto& res = eval.res;
  const auto cells = core::select_critical_bits(res, o.coverage);
  Rng rng(o.seed + 1);
  const auto report = core::evaluate_hardening(fw.evaluator(), fw.soc(), res,
                                               cells, {}, rng);
  const auto& map = rtl::Machine::reg_map();
  std::printf("baseline SSF : %.6f\n", report.base_ssf);
  std::printf("hardened SSF : %.6f  (%.1fx better)\n", report.hardened_ssf,
              report.improvement());
  std::printf("cells        : %zu of %zu (%.1f%%)\n",
              report.protected_bits.size(), report.total_register_bits,
              100.0 * report.protected_register_fraction());
  std::printf("area overhead: %.2f%%\n", 100.0 * report.area_overhead);
  std::printf("hardened     :");
  for (const int bit : report.protected_bits) {
    const auto [fi, b] = map.locate(bit);
    std::printf(" %s[%d]", map.field(fi).name.c_str(), b);
  }
  std::printf("\n");
  return 0;
}

int cmd_export_verilog(const Options& o) {
  const soc::SocNetlist soc;
  if (o.out.empty()) {
    netlist::write_verilog(soc.netlist(), std::cout, "mcu16");
  } else {
    std::ofstream f(o.out);
    if (!f) usage(("cannot open " + o.out).c_str());
    netlist::write_verilog(soc.netlist(), f, "mcu16");
    std::printf("wrote %s\n", o.out.c_str());
  }
  return 0;
}

int cmd_trace(const Options& o) {
  if (o.out.empty()) usage("trace requires --out FILE");
  const soc::SecurityBenchmark bench = pick_benchmark(o.benchmark);
  std::ofstream f(o.out);
  if (!f) usage(("cannot open " + o.out).c_str());
  rtl::VcdWriter vcd(f);
  rtl::Machine m(bench.program);
  while (!m.halted() && m.cycle() < bench.max_cycles) {
    vcd.sample(m.cycle(), m.state());
    m.step();
  }
  vcd.sample(m.cycle(), m.state());
  std::printf("wrote %s (%zu samples)\n", o.out.c_str(),
              vcd.samples_written());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) g_argv0 = argv[0];
  const std::vector<std::string> args(argv + (argc > 0 ? 1 : 0),
                                      argv + argc);
  try {
    // `submit` owns its argv (it strips --socket before reusing the evaluate
    // parser), so it is dispatched before the common parse.
    if (!args.empty() && args[0] == "submit") {
      return cmd_submit({args.begin() + 1, args.end()});
    }
    const Options o = parse(args);
    if (o.command == "info") return cmd_info(o);
    if (o.command == "characterize") return cmd_characterize(o);
    if (o.command == "evaluate") return cmd_evaluate(o);
    if (o.command == "serve") return cmd_serve(o);
    if (o.command == "worker") return cmd_worker(o);
    if (o.command == "harden") return cmd_harden(o);
    if (o.command == "export-verilog") return cmd_export_verilog(o);
    if (o.command == "trace") return cmd_trace(o);
    usage(("unknown command '" + o.command + "'").c_str());
  } catch (const UsageError& e) {
    print_usage(e.message);
    return 2;
  } catch (const StatusError& e) {
    std::fprintf(stderr, "fav: [%s] %s\n", error_code_name(e.code()),
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fav: %s\n", e.what());
    return 1;
  }
}
