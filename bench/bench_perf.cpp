// Micro-performance benchmarks (google-benchmark) for the framework's hot
// paths: RTL stepping, gate-level evaluation, transient injection, checkpoint
// restore, and one full Monte Carlo sample. These quantify why the paper's
// cross-level split (cheap RTL everywhere, gate level only for the injection
// cycle) pays off.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/framework.h"
#include "soc/benchmark.h"
#include "soc/golden_settled.h"

using namespace fav;

namespace {

struct Fixture {
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
};

Fixture& fx() {
  static Fixture f;
  return f;
}

void BM_RtlStep(benchmark::State& state) {
  rtl::Machine m(fx().bench.program);
  for (auto _ : state) {
    if (m.halted()) m.reset();
    benchmark::DoNotOptimize(m.step());
  }
}
BENCHMARK(BM_RtlStep);

void BM_GateLevelCycle(benchmark::State& state) {
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  for (auto _ : state) {
    if (gate.halted()) gate.reset();
    benchmark::DoNotOptimize(gate.step());
  }
}
BENCHMARK(BM_GateLevelCycle);

void BM_CheckpointRestore(benchmark::State& state) {
  const auto cycle = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx().golden.restore(cycle));
  }
}
BENCHMARK(BM_CheckpointRestore)->Arg(33)->Arg(63);

void BM_TransientInjection(benchmark::State& state) {
  rtl::Machine m = fx().golden.restore(80);
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  gate.load_state(m.state());
  gate.mutable_ram() = m.ram();
  gate.settle_inputs();
  const auto struck = fx().placement.nodes_within(
      fx().placement.placed_nodes()[state.range(0) % 3000], 1.5);
  const double strike = 0.8 * fx().injector.timing().clock_period();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx().injector.inject(gate.sim(), struck, strike));
  }
}
BENCHMARK(BM_TransientInjection)->Arg(100)->Arg(2000);

// Bit-parallel injection: one inject_batch sweep computes Arg lane flip sets
// at once. items_per_second counts lanes, so comparing this row's rate with
// BM_TransientInjection's inverse time isolates the word-parallel win on the
// injection sweep alone (shared restore/settle amortization comes on top —
// see BM_MonteCarloRunBatchLanes for the end-to-end split).
void BM_InjectBatch(benchmark::State& state) {
  rtl::Machine m = fx().golden.restore(80);
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  gate.load_state(m.state());
  gate.mutable_ram() = m.ram();
  gate.settle_inputs();
  netlist::WordSimulator words(fx().soc.netlist());
  gate.broadcast_settled(words);
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const auto& centers = fx().placement.placed_nodes();
  std::vector<std::vector<netlist::NodeId>> struck(lanes);
  std::vector<double> strike(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    struck[l] = fx().placement.nodes_within(
        centers[(137 * l) % centers.size()], 1.5);
    strike[l] = (0.1 + 0.8 * static_cast<double>(l) /
                           static_cast<double>(lanes)) *
                fx().injector.timing().clock_period();
  }
  const std::vector<std::span<const netlist::NodeId>> views(struck.begin(),
                                                             struck.end());
  faultsim::BatchInjectionScratch scratch;
  std::vector<std::vector<netlist::NodeId>> flipped;
  for (auto _ : state) {
    fx().injector.inject_batch(words, views, strike, scratch, flipped);
    benchmark::DoNotOptimize(flipped);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_InjectBatch)->Arg(8)->Arg(64);

// The shape of an exhaustive t-major word: Arg adjacent candidate centers
// (ascending id, as the sub-block model enumerates them) struck at one
// injection cycle and one strike time, so the lanes' cones overlap and
// their pulses pile up on shared gates.
void BM_InjectBatchClustered(benchmark::State& state) {
  rtl::Machine m = fx().golden.restore(80);
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  gate.load_state(m.state());
  gate.mutable_ram() = m.ram();
  gate.settle_inputs();
  netlist::WordSimulator words(fx().soc.netlist());
  gate.broadcast_settled(words);
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const auto& centers = fx().placement.placed_nodes();
  std::vector<std::vector<netlist::NodeId>> struck(lanes);
  const std::vector<double> strike(lanes, 0.0);
  for (std::size_t l = 0; l < lanes; ++l) {
    struck[l] = fx().placement.nodes_within(centers[2000 + l], 1.5);
  }
  const std::vector<std::span<const netlist::NodeId>> views(struck.begin(),
                                                             struck.end());
  faultsim::BatchInjectionScratch scratch;
  std::vector<std::vector<netlist::NodeId>> flipped;
  for (auto _ : state) {
    fx().injector.inject_batch(words, views, strike, scratch, flipped);
    benchmark::DoNotOptimize(flipped);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_InjectBatchClustered)->Arg(64);

// Builds every golden settled row of `write` (one restore + settle per
// injection cycle): the whole per-run settle cost of the batched engine.
void BM_GoldenTableBuild(benchmark::State& state) {
  rtl::Machine machine(fx().bench.program);
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  for (auto _ : state) {
    soc::GoldenSettledTable table(fx().soc, fx().golden);
    for (std::uint64_t te = 0; te < fx().golden.length(); ++te) {
      benchmark::DoNotOptimize(table.row(te, machine, gate));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx().golden.length()));
}
BENCHMARK(BM_GoldenTableBuild)->Unit(benchmark::kMillisecond);

// Gathers one 64-lane word from golden rows (Arg = distinct injection
// cycles among the lanes): Arg(1) is the row copy a t-major exhaustive word
// pays, Arg(64) the bit transpose of a fully mixed importance-sampled word.
void BM_WordGather(benchmark::State& state) {
  static soc::GoldenSettledTable table(fx().soc, fx().golden);
  rtl::Machine machine(fx().bench.program);
  soc::GateLevelMachine gate(fx().soc, fx().bench.program);
  const auto cycles = static_cast<std::uint64_t>(state.range(0));
  std::vector<const BitVector*> images;
  for (std::uint64_t l = 0; l < 64; ++l) {
    images.push_back(&table.row(l % cycles, machine, gate).values);
  }
  netlist::WordSimulator words(fx().soc.netlist());
  for (auto _ : state) {
    words.load_lanes(images);
    benchmark::DoNotOptimize(words.word(0));
  }
}
BENCHMARK(BM_WordGather)->Arg(1)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_FullMonteCarloSample(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  static const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  static auto sampler = fw.make_importance_sampler(attack);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fw.evaluator().evaluate_sample(sampler->draw(rng)));
  }
}
BENCHMARK(BM_FullMonteCarloSample);

// Per-sample evaluation with per-thread scratch reuse (no construction of a
// fresh RTL + gate-level machine per sample). The delta against
// BM_FullMonteCarloSample is what scratch reuse alone buys.
void BM_FullMonteCarloSampleScratchReuse(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  static const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  static auto sampler = fw.make_importance_sampler(attack);
  Rng rng(42);
  mc::EvalScratch scratch(fw.evaluator());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fw.evaluator().evaluate_sample(sampler->draw(rng), scratch));
  }
}
BENCHMARK(BM_FullMonteCarloSampleScratchReuse);

// Full-batch sample throughput of the parallel engine at explicit thread
// counts (Arg = EvaluatorConfig::threads). items_per_second is the metric to
// compare: the Arg(4) row over the Arg(1) row is the engine's speedup, and
// Arg(1) matches the sequential seed path (same scratch-reuse inner loop).
void BM_MonteCarloRunThreads(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  static const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  static auto sampler = fw.make_importance_sampler(attack);
  mc::EvaluatorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.keep_records = false;
  const mc::SsfEvaluator engine(fw.soc(), fw.placement(), fw.injector(),
                                fw.benchmark(), fw.golden(),
                                &fw.characterization(), cfg);
  constexpr std::size_t kSamples = 512;
  for (auto _ : state) {
    Rng rng(42);  // same pre-drawn batch every iteration and thread count
    benchmark::DoNotOptimize(engine.run(*sampler, rng, kSamples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_MonteCarloRunThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Campaign cost by word width (Arg = EvaluatorConfig::batch_lanes, threads
// fixed at 1). Arg(1) runs one-lane words — one sweep, and one restore per
// diverging sample — and Arg(64) the full PPSFP path: 64 samples of any
// injection cycle per bit-parallel sweep, each lane gathered from its
// cycle's golden settled row. Results are bitwise identical across rows —
// only the schedule changes.
void BM_MonteCarloRunBatchLanes(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  static const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  static auto sampler = fw.make_importance_sampler(attack);
  mc::EvaluatorConfig cfg;
  cfg.threads = 1;
  cfg.batch_lanes = static_cast<std::size_t>(state.range(0));
  cfg.keep_records = false;
  const mc::SsfEvaluator engine(fw.soc(), fw.placement(), fw.injector(),
                                fw.benchmark(), fw.golden(),
                                &fw.characterization(), cfg);
  constexpr std::size_t kSamples = 512;
  for (auto _ : state) {
    Rng rng(42);  // same pre-drawn batch every iteration and lane count
    benchmark::DoNotOptimize(engine.run(*sampler, rng, kSamples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_MonteCarloRunBatchLanes)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Instrumented campaign: samples/s with the metrics sink attached plus the
// observability layer's own answer to "where does the time go" — the
// checkpoint-restore / gate-injection / RTL-resume split is exported as
// per-sample counters so BENCH_pr3.json snapshots track phase drift, not
// just aggregate throughput. Also measures the overhead of metrics
// collection itself: compare against the same Arg row of
// BM_MonteCarloRunThreads (identical engine config, sink detached).
void BM_MonteCarloRunInstrumented(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  static const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  static auto sampler = fw.make_importance_sampler(attack);
  MetricsSink metrics;
  mc::EvaluatorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.keep_records = false;
  cfg.metrics = &metrics;
  const mc::SsfEvaluator engine(fw.soc(), fw.placement(), fw.injector(),
                                fw.benchmark(), fw.golden(),
                                &fw.characterization(), cfg);
  constexpr std::size_t kSamples = 512;
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(engine.run(*sampler, rng, kSamples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
  const auto per_sample_ns = [&](const char* name) {
    const TimerStat* t = metrics.timer(name);
    const double total = static_cast<double>(state.iterations()) * kSamples;
    return t != nullptr ? static_cast<double>(t->total_ns) / total : 0.0;
  };
  state.counters["restore_ns_per_sample"] = per_sample_ns("eval.restore_ns");
  state.counters["gate_inject_ns_per_sample"] =
      per_sample_ns("eval.gate_inject_ns");
  state.counters["rtl_resume_ns_per_sample"] =
      per_sample_ns("eval.rtl_resume_ns");
  state.counters["analytical_ns_per_sample"] =
      per_sample_ns("eval.analytical_ns");
  state.counters["rtl_path_fraction"] =
      static_cast<double>(metrics.counter("eval.path.rtl")) /
      static_cast<double>(metrics.counter("eval.samples"));
}
BENCHMARK(BM_MonteCarloRunInstrumented)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One clock-glitch sample through the unified engine with scratch reuse.
// Before the technique-generic pipeline, every glitch attack built a fresh
// RTL + gate-level machine pair; the delta against BM_ClockGlitchSampleFresh
// is what routing glitch evaluation through the shared scratch path buys.
void BM_ClockGlitchSample(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(), [] {
    core::FrameworkConfig cfg;
    cfg.technique = "clock-glitch";
    return cfg;
  }());
  static const faultsim::GlitchAttackModel model =
      fw.glitch_attack_model(50);
  static auto sampler = fw.make_glitch_sampler(model);
  Rng rng(42);
  mc::EvalScratch scratch(fw.evaluator());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fw.evaluator().evaluate_sample(sampler->draw(rng), scratch));
  }
}
BENCHMARK(BM_ClockGlitchSample);

// The same sample stream on fresh machines per attack — the pre-unification
// cost model of the standalone glitch evaluator.
void BM_ClockGlitchSampleFresh(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(), [] {
    core::FrameworkConfig cfg;
    cfg.technique = "clock-glitch";
    return cfg;
  }());
  static const faultsim::GlitchAttackModel model =
      fw.glitch_attack_model(50);
  static auto sampler = fw.make_glitch_sampler(model);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fw.evaluator().evaluate_sample(sampler->draw(rng)));
  }
}
BENCHMARK(BM_ClockGlitchSampleFresh);

// Glitch campaign throughput on the shared parallel engine (Arg = threads):
// the capability the standalone glitch evaluator never had. Compare
// items_per_second across Arg rows for the glitch path's scaling.
void BM_ClockGlitchRun(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(), [] {
    core::FrameworkConfig cfg;
    cfg.technique = "clock-glitch";
    return cfg;
  }());
  static const faultsim::GlitchAttackModel model =
      fw.glitch_attack_model(50);
  static auto sampler = fw.make_glitch_sampler(model);
  mc::EvaluatorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.keep_records = false;
  faultsim::GlitchTechnique technique(fw.glitch_simulator(),
                                     faultsim::TechniqueKind::kClockGlitch);
  const mc::SsfEvaluator engine(fw.soc(), technique, fw.benchmark(),
                                fw.golden(), &fw.characterization(), cfg);
  constexpr std::size_t kSamples = 512;
  for (auto _ : state) {
    Rng rng(42);  // same pre-drawn batch every iteration and thread count
    benchmark::DoNotOptimize(engine.run(*sampler, rng, kSamples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_ClockGlitchRun)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Exhaustive sweep of the bound clock-glitch fault space (Arg = threads):
// the full (t, depth) grid streamed through run_exhaustive in enumeration
// order, no sampler and no RNG. items_per_second here against the same Arg
// row of BM_MonteCarloRunThreads is the cost ratio of an exact answer vs a
// Monte Carlo estimate on this benchmark — the trade BENCH_pr9.json tracks.
void BM_ExhaustiveSweep(benchmark::State& state) {
  static core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark(), [] {
    core::FrameworkConfig cfg;
    cfg.technique = "clock-glitch";
    return cfg;
  }());
  static const faultsim::GlitchAttackModel model =
      fw.glitch_attack_model(50);
  mc::EvaluatorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.keep_records = false;
  faultsim::GlitchTechnique technique(fw.glitch_simulator(),
                                     faultsim::TechniqueKind::kClockGlitch);
  technique.bind_space(model);
  const std::uint64_t space = technique.space_size();
  const mc::SsfEvaluator engine(fw.soc(), technique, fw.benchmark(),
                                fw.golden(), &fw.characterization(), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_exhaustive());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space));
  state.counters["fault_space_size"] = static_cast<double>(space);
}
BENCHMARK(BM_ExhaustiveSweep)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SignatureRecording(benchmark::State& state) {
  const rtl::Program workload = soc::make_synthetic_workload();
  for (auto _ : state) {
    precharac::SignatureTrace trace(fx().soc, workload, 100);
    benchmark::DoNotOptimize(trace.cycles());
  }
}
BENCHMARK(BM_SignatureRecording);

// The full register-characterization sweep a cold framework construction
// runs: every flat bit injected at every stride-th cycle of the synthetic
// workload's golden run, with the framework's default golden horizon,
// checkpoint spacing and characterization config.
void BM_RegisterCharacterization(benchmark::State& state) {
  const core::FrameworkConfig defaults;
  const rtl::Program workload = soc::make_synthetic_workload();
  const rtl::GoldenRun golden(workload, defaults.precharac_cycles,
                              defaults.checkpoint_interval);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const precharac::RegisterCharacterization charac(
        golden, defaults.characterization);
    steps = charac.steps();
    benchmark::DoNotOptimize(charac.raw_bits().data());
  }
  state.counters["rtl_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_RegisterCharacterization)->Unit(benchmark::kMillisecond);

// Full framework elaboration, cold vs warm, through the persistent
// pre-characterization artifact cache (precharac/artifact.h). Arg(0) removes
// the artifact before every construction so each iteration recomputes and
// rewrites it; Arg(1) seeds the artifact once and measures the warm load.
// The warm/cold ratio is the cache's whole value proposition.
void BM_PrecharacColdVsWarm(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("fav_bench_precharac_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::FrameworkConfig cfg;
  cfg.precharac_cache_path = (dir / "bundle.fpa").string();
  cfg.log = [](const std::string&) {};
  const bool warm = state.range(0) == 1;
  if (warm) {
    // Seed the artifact so every timed construction hits.
    core::FaultAttackEvaluator seed(soc::make_illegal_write_benchmark(), cfg);
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      fs::remove(cfg.precharac_cache_path);
      state.ResumeTiming();
    }
    core::FaultAttackEvaluator f(soc::make_illegal_write_benchmark(), cfg);
    benchmark::DoNotOptimize(f.precharac_cache().outcome.data());
  }
  state.SetLabel(warm ? "warm" : "cold");
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_PrecharacColdVsWarm)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Warm-start layers of a sampled campaign, on the `write` benchmark's
// subblock model (radius 1.5, t-range 50). BM_ImportanceSamplerBuild times
// the importance-sampler construction alone, with the analytical
// direct-hit boosts computed once outside the loop. BM_ArtifactLoad times
// reading a warm pre-characterization artifact and installing its cone and
// signatures, as a warm framework construction does.
core::FaultAttackEvaluator& write_fw() {
  static core::FaultAttackEvaluator f(soc::make_illegal_write_benchmark());
  return f;
}

void BM_ImportanceSamplerBuild(benchmark::State& state) {
  const core::FaultAttackEvaluator& fw = write_fw();
  const faultsim::AttackModel attack = fw.subblock_attack_model(1.5, 50);
  const precharac::SamplingParams params = fw.sampling_params_for(attack);
  for (auto _ : state) {
    precharac::SamplingModel model(fw.soc(), fw.placement(), fw.cone(),
                                   fw.signatures(), fw.characterization(),
                                   attack, params);
    benchmark::DoNotOptimize(model.g_t().size());
  }
}
BENCHMARK(BM_ImportanceSamplerBuild)->Unit(benchmark::kMillisecond);

void BM_ArtifactLoad(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("fav_bench_artifact_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::FrameworkConfig cfg;
  cfg.precharac_cache_path = (dir / "bundle.fpa").string();
  cfg.log = [](const std::string&) {};
  // Seeds the artifact; its key fixes the fingerprint every load checks.
  const core::FaultAttackEvaluator seed(soc::make_illegal_write_benchmark(),
                                        cfg);
  const std::uint64_t fingerprint =
      precharac::precharac_fingerprint(seed.precharac_key());
  const std::size_t node_count = seed.soc().netlist().node_count();
  for (auto _ : state) {
    precharac::ArtifactLoad load =
        precharac::load_artifact(cfg.precharac_cache_path, fingerprint);
    if (load.outcome != precharac::ArtifactOutcome::kHit) {
      state.SkipWithError("artifact did not load as a hit");
      break;
    }
    const netlist::UnrolledCone cone(load.bundle.responding_signal,
                                     node_count,
                                     std::move(load.bundle.fanin_frames),
                                     std::move(load.bundle.fanout_frames));
    const precharac::SignatureTrace signatures(
        load.bundle.signature_cycles, std::move(load.bundle.signatures));
    benchmark::DoNotOptimize(cone.fanin_frames().size());
    benchmark::DoNotOptimize(signatures.cycles());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_ArtifactLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
