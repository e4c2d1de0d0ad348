// fav — command-line front end to the fault-attack vulnerability framework.
//
//   fav info                 design + benchmark overview
//   fav characterize         register characterization table
//   fav evaluate             SSF estimation, sampled or --exhaustive
//   fav harden               critical cells + hardening report
//   fav export-verilog       structural Verilog of the SoC
//   fav trace --out FILE     VCD of the golden run
//   fav serve --socket PATH  long-running campaign daemon on a Unix socket
//                            (see DESIGN.md §6k, §6m)
//   fav submit --socket PATH run an evaluate campaign on a serving daemon:
//                            the same stdout block, run report and exit code
//                            as a local `fav evaluate`
//
// Every flag is declared once, in the table in cli_options.cpp; a usage
// error prints the reference generated from it.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 campaign
// interrupted but resumable — SIGINT/SIGTERM, or the journal device filling
// up / failing mid-campaign (partial results journaled; rerun with --resume
// to continue).
//
// `fav worker` is a hidden command spawned by --supervise; it speaks the
// supervisor pipe protocol on stdin/stdout (see mc/supervisor.h).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_options.h"
#include "core/hardening.h"
#include "core/run_report.h"
#include "mc/serve.h"
#include "netlist/verilog.h"
#include "rtl/vcd.h"
#include "util/io.h"

using namespace fav;
using cli::Options;

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

/// `name` is one of the --benchmark choices; parse() admits no other.
soc::SecurityBenchmark pick_benchmark(const std::string& name) {
  if (name == "read") return soc::make_illegal_read_benchmark();
  if (name == "exec") return soc::make_illegal_exec_benchmark();
  if (name == "dma") return soc::make_dma_exfiltration_benchmark();
  return soc::make_illegal_write_benchmark();
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

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return g_argv0;
}

/// Test-only degraded I/O: the Nth campaign file write / fsync in this
/// process fails with ENOSPC (util/io.h ChaosFile).
void install_chaos(const Options& o) {
  if (o.chaos_write_nth == 0 && o.chaos_fsync_nth == 0) return;
  io::chaos_install({.fail_write_at = o.chaos_write_nth,
                     .fail_fsync_at = o.chaos_fsync_nth});
}

/// One campaign, resolved once after the framework is built. The in-process,
/// journaled and supervised runs, and every `fav worker`, read the strategy,
/// the sample count and the journal from here.
struct Campaign {
  core::SamplerSelection sel;  // sampled campaigns only
  std::string strategy;        // the sampler actually built, or "exhaustive"
  std::size_t total = 0;       // --samples, or min(space, --space-limit)
  mc::JournalOptions journal;  // dir empty: unjournaled

  /// The whole batch: the seeded draw, or the enumeration prefix. The
  /// supervisor and each of its workers derive it identically, so the batch
  /// never crosses the pipe.
  std::vector<faultsim::FaultSample> batch(core::FaultAttackEvaluator& fw,
                                           const Options& o) {
    Rng rng(o.seed);
    if (!o.exhaustive) {
      return fw.evaluator().draw_batch(*sel.sampler, rng, total);
    }
    std::vector<faultsim::FaultSample> samples;
    fw.technique().enumerate(0, total, samples);
    return samples;
  }
};

Campaign resolve_campaign(core::FaultAttackEvaluator& fw, const Options& o) {
  Campaign c;
  if (o.exhaustive) {
    const std::uint64_t space = fw.bind_exhaustive_space(o.t_range, o.radius);
    c.strategy = "exhaustive";
    c.total = std::min(space, o.space_limit != 0 ? o.space_limit : space);
  } else {
    c.sel = o.technique == "radiation"
                ? fw.make_sampler_with_fallback(
                      fw.subblock_attack_model(o.radius, o.t_range),
                      o.strategy)
                : fw.make_sampler_with_fallback(
                      fw.glitch_attack_model(o.t_range), o.strategy);
    c.strategy = c.sel.actual;
    c.total = o.samples;
  }
  c.journal = {.dir = o.journal,
               .resume = o.resume,
               .shard_size = o.shard_size,
               .fingerprint = cli::campaign_fingerprint(o, c.strategy, c.total),
               .context = o.benchmark + "/" + o.technique + "/" + c.strategy};
  return c;
}

Status run_failed(const char* how, const Status& status) {
  return Status(status.code(),
                std::string(how) + " run failed: " + status.to_string());
}

/// Runs the resolved campaign in-process, journaled, or supervised per `o`;
/// only a supervised run fills the fleet counters next to `result`. Every
/// mode reports through the evaluator's own metrics, stop flag and on_sample
/// hook.
Result<mc::SupervisedResult> run_eval(core::FaultAttackEvaluator& fw,
                                      const Options& o, Campaign& c) {
  if (c.sel.downgraded()) {
    std::fprintf(stderr, "fav: strategy downgraded %s -> %s (%s)\n",
                 c.sel.requested.c_str(), c.sel.actual.c_str(),
                 c.sel.downgrade_reason.c_str());
  }
  mc::SupervisedResult out;
  if (o.supervise > 0) {
    // One-shot chaos: worker 0's first incarnation only, so restarts make
    // progress and no shard can be killed twice by the injection alone.
    const mc::CampaignSupervisor supervisor(
        fw.evaluator(),
        {.workers = o.supervise,
         .heartbeat_ms = o.heartbeat_ms,
         .worker_command = cli::worker_command(o, self_exe_path()),
         .first_spawn_args = cli::flag_for(&Options::crash_after).argv(o)});
    Result<mc::SupervisedResult> result =
        supervisor.run_batch(c.batch(fw, o), c.journal);
    if (!result.is_ok()) return run_failed("supervised", result.status());
    out = std::move(result).value();
    // The merged worker result does not know the space it was carved from
    // (0 for a sampled campaign, which binds none).
    out.result.fault_space_size = fw.technique().space_size();
    return out;
  }
  const mc::SsfEvaluator& ev = fw.evaluator();
  Rng rng(o.seed);
  if (c.journal.dir.empty()) {
    out.result = o.exhaustive ? ev.run_exhaustive(o.space_limit)
                              : ev.run(*c.sel.sampler, rng, c.total);
    return out;
  }
  Result<mc::SsfResult> result =
      o.exhaustive ? ev.run_exhaustive_journaled(c.journal, o.space_limit)
                   : ev.run_journaled(*c.sel.sampler, rng, c.total, c.journal);
  if (!result.is_ok()) return run_failed("journaled", result.status());
  out.result = std::move(result).value();
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

/// The whole evaluate pipeline: sinks, framework elaboration, the campaign
/// run (in-process / journaled / supervised), the stdout block, and the run
/// report — for local and served campaigns alike, which is the served ==
/// local identity guarantee. `local_files` writes --metrics-out / --trace-out
/// to disk here (local `fav evaluate`); the serve daemon passes false and
/// ships report_json back to the client, which writes its own file — except
/// for crash-recovered campaigns, whose client is long gone: the daemon
/// re-runs those with local_files = true so the report lands at the
/// originally requested path. `stop` is the cooperative-stop token the
/// engine polls: &g_stop for local runs, the per-campaign cancel token for
/// served ones.
mc::CampaignOutcome run_evaluate_campaign(const Options& o, bool local_files,
                                          const mc::ProgressFn& progress,
                                          const std::atomic<bool>* stop) {
  mc::CampaignOutcome out;
  // Observability sinks live here (campaign scope); the evaluator only sees
  // non-null pointers for what was requested, so unused channels stay
  // zero-cost.
  MetricsSink metrics;
  TraceBuffer trace;
  core::FrameworkConfig cfg = o.framework_config();
  if (!o.metrics_out.empty()) cfg.evaluator.metrics = &metrics;
  if (!o.trace_out.empty()) cfg.evaluator.trace = &trace;
  cfg.evaluator.stop = stop;
  // Progress is sized from the resolved campaign, so the meter is built
  // after elaboration and sampler construction, right before the run. The
  // evaluator's on_sample counts evaluated samples in every mode: called by
  // the in-process engine's worker threads, or by the supervisor once per
  // worker PROGRESS frame.
  std::optional<ProgressMeter> meter;
  Campaign c;
  std::atomic<std::uint64_t> completed{0};
  if (o.progress || progress) {
    cfg.evaluator.on_sample = [&](const mc::SampleRecord& r, std::size_t) {
      const bool failed = r.path == mc::OutcomePath::kFailed;
      if (meter) meter->record(r.contribution, r.sample.weight, failed);
      if (progress) progress(++completed, c.total);
    };
  }
  install_chaos(o);
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark), cfg);
  c = resolve_campaign(fw, o);
  if (o.progress) meter.emplace(c.total);
  const std::uint64_t t0 = monotonic_ns();
  const Result<mc::SupervisedResult> ran = run_eval(fw, o, c);
  // The injected fault targets the campaign write path; clear it so the
  // interrupted run report below can still land (the real-world analogue is
  // a report on a different device than the full journal disk).
  io::chaos_reset();
  if (!ran.is_ok()) {
    out.error = ran.status().to_string();
    return out;
  }
  const mc::SupervisedResult& run = ran.value();
  const mc::SsfResult& res = run.result;
  const double elapsed_s = static_cast<double>(monotonic_ns() - t0) * 1e-9;
  if (meter) meter->finish();
  std::string& block = out.stdout_block;
  append_f(block, "benchmark  : %s\n", fw.benchmark().name.c_str());
  append_f(block, "technique  : %s\n", fw.technique().name());
  append_f(block, "strategy   : %s (n=%zu, seed=%llu)\n", c.strategy.c_str(),
           c.total, static_cast<unsigned long long>(o.seed));
  if (res.fault_space_size > 0) {
    append_f(block, "fault space: size %llu, evaluated %zu, coverage %.6f\n",
             static_cast<unsigned long long>(res.fault_space_size),
             res.evaluated, res.coverage());
  }
  if (res.interrupted) {
    append_f(block,
             "interrupted: yes — %zu of %zu samples evaluated "
             "(rerun with --resume to continue)\n",
             res.evaluated, c.total);
  }
  if (o.supervise > 0) {
    append_f(block,
             "supervisor : %zu worker(s), %zu restart(s), %zu shard(s) / "
             "%zu sample(s) quarantined\n",
             o.supervise, run.restarts, run.quarantined_shards,
             run.quarantined_samples);
    if (run.storage_full_stops > 0) {
      append_f(block,
               "storage    : %zu worker(s) stopped on a full/failing "
               "journal device\n",
               run.storage_full_stops);
    }
  }
  const core::PrecharacCacheReport& cache = fw.precharac_cache();
  if (cache.enabled) {
    append_f(block, "precharac  : cache %s (%s)%s\n", cache.outcome.c_str(),
             cache.path.c_str(), cache.stored ? ", stored" : "");
  }
  append_f(block, "SSF        : %.6f\n", res.ssf());
  // An enumeration has no sampling error to print.
  if (res.fault_space_size == 0) {
    append_f(block, "std error  : %.6f\n", res.stats.standard_error());
  }
  append_f(block, "variance   : %.3e\n", res.sample_variance());
  append_f(block, "ESS        : %.1f of %zu\n", res.effective_sample_size(),
           c.total);
  append_f(block, "successes  : %zu\n", res.successes);
  append_f(block, "paths      : %zu masked / %zu analytical / %zu rtl\n",
           res.masked, res.analytical, res.rtl);
  append_failures(block, res);
  // Local campaigns write their files here; served ones ship the bytes.
  auto write_local = [&](const std::string& path, const std::string& bytes,
                         const char* what) {
    const Status written =
        local_files ? io::atomic_write_file(path, bytes) : Status::ok();
    if (!written.is_ok()) {
      out.error = std::string("cannot write ") + what + ": " +
                  written.to_string();
    }
    return written.is_ok();
  };
  if (!o.metrics_out.empty()) {
    metrics.merge(fw.metrics());  // pre-characterization + sampler provenance
    std::ostringstream report;
    core::RunReportInputs in;
    in.benchmark = o.benchmark;
    in.technique = o.technique;
    in.strategy = c.strategy;
    in.mode = o.exhaustive ? "exhaustive" : "sampled";
    in.samples = c.total;
    in.seed = o.seed;
    in.threads = o.threads;
    in.batch_lanes = fw.evaluator().config().batch_lanes;
    in.supervise = o.supervise;
    in.supervisor = o.supervise > 0 ? &run : nullptr;
    in.cache = cache;
    in.elapsed_s = elapsed_s;
    in.result = &res;
    in.metrics = &metrics;
    core::write_run_report(report, in);
    out.report_json = report.str();
    if (!write_local(o.metrics_out, out.report_json, "run report")) return out;
    append_f(block, "run report : %s\n", o.metrics_out.c_str());
  }
  if (!o.trace_out.empty()) {
    std::ostringstream events;
    trace.write_json(events);
    if (!write_local(o.trace_out, events.str(), "trace")) return out;
    append_f(block, "trace      : %s (%zu events)\n", o.trace_out.c_str(),
             trace.size());
  }
  const auto& map = rtl::Machine::reg_map();
  const auto fields = core::select_critical_fields(res, 0.95);
  append_f(block, "critical   :");
  for (const int f : fields) append_f(block, " %s", map.field(f).name.c_str());
  append_f(block, "\n");
  out.exit_code = res.interrupted ? 3 : 0;
  return out;
}

/// Prints a finished campaign the way a local `fav evaluate` does and
/// returns its exit code. `report_path` is where a shipped run report lands
/// ("" when the campaign already wrote its own).
int print_outcome(const mc::CampaignOutcome& out,
                  const std::string& report_path) {
  if (!out.error.empty()) {
    std::fprintf(stderr, "fav: %s\n", out.error.c_str());
    return out.exit_code != 0 ? out.exit_code : 1;
  }
  if (!report_path.empty() && !out.report_json.empty()) {
    const Status written = io::atomic_write_file(report_path, out.report_json);
    if (!written.is_ok()) {
      std::fprintf(stderr, "fav: cannot write run report: %s\n",
                   written.to_string().c_str());
      return 1;
    }
  }
  std::fputs(out.stdout_block.c_str(), stdout);
  return out.exit_code;
}

int cmd_evaluate(const Options& o) {
  install_stop_handlers();
  return print_outcome(run_evaluate_campaign(o, true, {}, &g_stop), "");
}

/// The serve daemon's CampaignRunner: parses the request argv with the same
/// parser as main() and runs the same campaign path as a local
/// `fav evaluate` — which is the served == local identity guarantee. A bad
/// request fails this one campaign (never the daemon), and the table's
/// serve-refused flags (process-global or client-side-file side effects) are
/// refused per request. `cancel` is the per-campaign stop token the server
/// trips on client disconnect / explicit cancel / deadline / daemon drain;
/// `local_files` is false for live clients (the report ships over the
/// socket) and true for crash-recovered campaigns: the daemon writes
/// --metrics-out itself, and a journaled campaign resumes whatever its
/// journal holds (an empty journal starts fresh). A journal directory
/// another campaign holds is refused by the journal's own lock.
mc::CampaignOutcome run_served_campaign(bool local_files,
                                        const std::vector<std::string>& args,
                                        const mc::ProgressFn& progress,
                                        const std::atomic<bool>& cancel) {
  mc::CampaignOutcome out;
  try {
    Options o = cli::parse(args);
    const std::string refusal = cli::served_refusal(o);
    if (!refusal.empty()) cli::usage(refusal);
    if (local_files && !o.journal.empty()) o.resume = true;
    // The client draws --progress from the PROGRESS frames; a meter here
    // would print into the daemon's log.
    o.progress = false;
    out = run_evaluate_campaign(o, local_files, progress, &cancel);
  } catch (const cli::UsageError& e) {
    out.error = e.message.empty() ? "invalid campaign request" : e.message;
    out.exit_code = 2;
  } catch (const StatusError& e) {
    out.error = std::string("[") + error_code_name(e.code()) + "] " + e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
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
  sc.recovery_runner = std::bind_front(run_served_campaign, true);
  mc::CampaignServer server(sc, std::bind_front(run_served_campaign, false));
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
/// --metrics-out path, the same exit code. The request is derived from the
/// parsed flags, and the daemon parses it with the same parser.
int cmd_submit(const Options& o) {
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
      o.idle_timeout_ms == 0 ? -1 : static_cast<int>(o.idle_timeout_ms);
  opts.cancel = &g_stop;
  opts.busy_retries = o.busy_retries;
  opts.retry_backoff_ms = o.retry_backoff_ms;
  const Result<mc::CampaignOutcome> sent =
      mc::submit_campaign(o.socket, cli::served_request(o), opts);
  if (!sent.is_ok()) {
    std::fprintf(stderr, "fav submit: %s\n",
                 sent.status().to_string().c_str());
    return 1;
  }
  // The daemon ships the report bytes; the file lands wherever the *client*
  // asked, exactly like a local run.
  return print_outcome(sent.value(), o.metrics_out);
}

/// Hidden worker mode (spawned by --supervise): stdin/stdout are the
/// supervisor's protocol pipes, so nothing in this path may print to stdout.
/// Elaborates the identical framework from the forwarded campaign flags,
/// resolves the same campaign, and serves shard assignments until
/// SHUTDOWN/EOF.
int cmd_worker(const Options& o) {
  // The supervisor coordinates shutdown over the pipe; a terminal SIGINT
  // (Ctrl-C hits the whole foreground process group) must not kill workers
  // mid-shard. SIGTERM stays default: it is the PDEATHSIG delivered when the
  // supervisor dies, and workers must not outlive it.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, SIG_IGN);
  install_chaos(o);
  static mc::WorkerHeartbeat heartbeat;
  heartbeat.set_crash_after(o.crash_after);
  heartbeat.set_crash_on(o.crash_on);
  MetricsSink metrics;  // shipped to the supervisor on SHUTDOWN
  core::FrameworkConfig cfg = o.framework_config();
  cfg.evaluator.metrics = &metrics;
  cfg.evaluator.on_sample =
      std::bind_front(&mc::WorkerHeartbeat::on_sample, &heartbeat);
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark), cfg);
  Campaign c = resolve_campaign(fw, o);
  const Status status = mc::run_worker_loop(
      fw.evaluator(), c.batch(fw, o), c.journal, o.worker_id);
  if (status.is_ok()) return 0;
  std::fprintf(stderr, "fav worker %zu: %s\n",
               static_cast<std::size_t>(o.worker_id),
               status.to_string().c_str());
  // Storage full/failing: every journaled shard is intact, so signal the
  // supervisor to stop the fleet gracefully instead of treating this worker
  // as crashed (no attempts charge, no quarantine, no respawn).
  return status.code() == ErrorCode::kStorageFull ? mc::kExitResumableStop
                                                  : 1;
}

int cmd_harden(const Options& o) {
  core::FaultAttackEvaluator fw(pick_benchmark(o.benchmark),
                                o.framework_config());
  Campaign c = resolve_campaign(fw, o);
  const Result<mc::SupervisedResult> ran = run_eval(fw, o, c);
  if (!ran.is_ok()) {
    std::fprintf(stderr, "fav: %s\n", ran.status().to_string().c_str());
    return 1;
  }
  const auto& res = ran.value().result;
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
    if (!f) cli::usage("cannot open " + o.out);
    netlist::write_verilog(soc.netlist(), f, "mcu16");
    std::printf("wrote %s\n", o.out.c_str());
  }
  return 0;
}

int cmd_trace(const Options& o) {
  const soc::SecurityBenchmark bench = pick_benchmark(o.benchmark);
  std::ofstream f(o.out);
  if (!f) cli::usage("cannot open " + o.out);
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
    const Options o = cli::parse(args);
    if (o.command == "submit") return cmd_submit(o);
    if (o.command == "info") return cmd_info(o);
    if (o.command == "characterize") return cmd_characterize(o);
    if (o.command == "evaluate") return cmd_evaluate(o);
    if (o.command == "serve") return cmd_serve(o);
    if (o.command == "worker") return cmd_worker(o);
    if (o.command == "harden") return cmd_harden(o);
    if (o.command == "export-verilog") return cmd_export_verilog(o);
    return cmd_trace(o);
  } catch (const cli::UsageError& e) {
    if (!e.message.empty()) {
      std::fprintf(stderr, "error: %s\n\n", e.message.c_str());
    }
    std::fputs(cli::usage_text().c_str(), stderr);
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
