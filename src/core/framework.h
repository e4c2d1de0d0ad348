// Public facade of the cross-level Monte Carlo framework.
//
// FaultAttackEvaluator wires the whole pipeline of the paper together for a
// given security benchmark:
//   SoC elaboration -> placement -> golden run (+checkpoints)
//   -> pre-characterization (signatures, correlations, register classes)
//   -> responding-signal cone extraction
//   -> gate-level injection simulator
//   -> samplers (random / cone / importance) and the SSF evaluator.
// Typical use (see examples/quickstart.cpp):
//
//   core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
//   auto attack = fw.chip_attack_model();
//   Rng rng(42);
//   auto importance = fw.make_importance_sampler(attack);
//   auto result = fw.evaluator().run(*importance, rng, 2000);
//   std::cout << "SSF = " << result.ssf() << "\n";
#pragma once

#include <functional>
#include <memory>

#include "faultsim/attack_model.h"
#include "faultsim/glitch.h"
#include "faultsim/injection.h"
#include "faultsim/technique.h"
#include "layout/placement.h"
#include "mc/adaptive.h"
#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "netlist/cones.h"
#include "precharac/artifact.h"
#include "precharac/characterize.h"
#include "precharac/sampling_model.h"
#include "precharac/signatures.h"
#include "rtl/golden.h"
#include "soc/benchmark.h"
#include "soc/soc_netlist.h"

namespace fav::core {

struct FrameworkConfig {
  /// Fault-injection technique evaluated by this framework: "radiation"
  /// (the paper's radiated-spot model), "clock-glitch" or "voltage-glitch".
  /// Selects the AttackTechnique the shared engine is built with;
  /// pre-characterization and the radiation sampler factories are
  /// technique-independent and always available.
  std::string technique = "radiation";
  /// Campaign mode: "sampled" (Monte Carlo over the holistic model, the
  /// paper's estimator) or "exhaustive" (sweep the technique's enumerable
  /// fault space, bind_exhaustive_space + SsfEvaluator::run_exhaustive).
  /// The framework itself only validates the value; the campaign drivers
  /// (CLI, serve tier) pick the run path from it.
  std::string mode = "sampled";
  /// Golden run horizon and checkpoint spacing (Section 5.1).
  std::uint64_t checkpoint_interval = 32;
  /// Cone extraction depths; the fanin depth must cover the attack t-range.
  int cone_fanin_depth = 60;
  int cone_fanout_depth = 4;
  /// Pre-characterization workload horizon.
  std::uint64_t precharac_cycles = 400;
  /// Persistent pre-characterization artifact (precharac/artifact.h). Empty
  /// disables caching. When set, construction tries to load the bundle from
  /// this path and falls back to recompute-and-rewrite on any miss, stale
  /// fingerprint, or corruption — results are bitwise-identical either way.
  /// The path is deliberately NOT part of the campaign fingerprint: a
  /// campaign may be resumed with a different (or no) cache.
  std::string precharac_cache_path;
  /// Bounded wait on the artifact's advisory elaboration lock (concurrent
  /// cold starts: one process elaborates, the rest load). On timeout the
  /// process proceeds unlocked — worst case is a redundant elaboration and
  /// an atomic last-writer-wins rewrite, never a deadlock.
  std::uint64_t precharac_cache_lock_timeout_ms = 120000;
  precharac::CharacterizationConfig characterization;
  precharac::SamplingParams sampling;
  faultsim::TimingModel timing;
  faultsim::TransientParams transient;
  /// Evaluation-engine knobs; `evaluator.threads` selects the worker count
  /// for every run issued through this framework (0 = all hardware threads).
  mc::EvaluatorConfig evaluator;
  /// Sink for robustness diagnostics (sampler downgrades, pilot fallbacks).
  /// Null routes messages to stderr.
  std::function<void(const std::string&)> log;

  /// Structural validation of the knobs above. FaultAttackEvaluator rejects
  /// an invalid config on construction (StatusError, kInvalidArgument)
  /// before any expensive elaboration, instead of misbehaving downstream.
  Status validate() const;
};

/// Campaign identity: every knob that changes the sample stream or its
/// evaluation. The fingerprint over it keys the crash-safe journal (and the
/// supervised-campaign protocol), so a stale journal from a different
/// configuration is rejected on resume. Worker count, heartbeat, and shard
/// size are deliberately *not* part of the key — a campaign may be resumed
/// with different parallelism and must produce the identical result.
struct CampaignKey {
  std::string benchmark;
  std::string technique;
  std::string strategy;  // sampler actually built (after fallback)
  std::uint64_t seed = 0;
  std::uint64_t samples = 0;
  int t_range = 0;
  double radius = 0.0;
  std::uint64_t cycle_budget = 0;
};

/// FNV-1a over the canonical "benchmark|technique|strategy|seed|samples|
/// t_range|radius|cycle_budget" string. Stable across processes: the
/// supervisor and each of its workers derive the same fingerprint from the
/// same CLI flags.
std::uint64_t campaign_fingerprint(const CampaignKey& key);

/// How the pre-characterization cache resolved for one framework
/// construction, for run reports and logs.
struct PrecharacCacheReport {
  bool enabled = false;
  std::string path;
  /// "off" (cache disabled), or the decisive load outcome:
  /// "hit" | "miss" | "stale" | "corrupt".
  std::string outcome = "off";
  /// Provenance of a non-hit (why the artifact was rejected), or how a hit
  /// was obtained (e.g. after waiting on the elaboration lock).
  std::string detail;
  /// True when this process elaborated and wrote the artifact.
  bool stored = false;
};

/// Outcome of the two-stage adaptive estimation (see run_adaptive).
struct AdaptiveRunResult {
  mc::SsfResult pilot;
  mc::SsfResult refined;
  /// False when the pilot found no successes and the refit stage fell back
  /// to the pilot sampler (there was nothing to adapt to), or when the refit
  /// construction failed and was downgraded (see downgrade_reason).
  bool adapted = false;
  /// Non-empty when a stage degraded instead of throwing: why the refit (or
  /// the pilot sampler) was replaced with a simpler fallback.
  std::string downgrade_reason;
};

/// A sampler plus the provenance of any graceful degradation that happened
/// while building it (see make_sampler_with_fallback).
struct SamplerSelection {
  std::unique_ptr<mc::Sampler> sampler;
  std::string requested;         // strategy asked for
  std::string actual;            // strategy actually built
  std::string downgrade_reason;  // empty when requested == actual
  bool downgraded() const { return !downgrade_reason.empty(); }
};

class FaultAttackEvaluator {
 public:
  explicit FaultAttackEvaluator(soc::SecurityBenchmark bench,
                                const FrameworkConfig& config = {});

  /// --- assembled components (valid for this object's lifetime) ---------
  const FrameworkConfig& config() const { return config_; }
  const soc::SecurityBenchmark& benchmark() const { return bench_; }
  const soc::SocNetlist& soc() const { return soc_; }
  const layout::Placement& placement() const { return placement_; }
  const rtl::GoldenRun& golden() const { return *golden_; }
  const netlist::UnrolledCone& cone() const { return *cone_; }
  const precharac::SignatureTrace& signatures() const { return *signatures_; }
  const precharac::RegisterCharacterization& characterization() const {
    return *charac_;
  }
  const faultsim::InjectionSimulator& injector() const { return *injector_; }
  /// The technique the shared engine evaluates (config().technique).
  const faultsim::AttackTechnique& technique() const { return *technique_; }
  /// Valid only when config().technique is "clock-glitch" or
  /// "voltage-glitch" (one simulator serves both kinds).
  const faultsim::GlitchSimulator& glitch_simulator() const;
  const mc::SsfEvaluator& evaluator() const { return *evaluator_; }
  std::uint64_t target_cycle() const { return evaluator_->target_cycle(); }

  /// Pre-characterization observability (always collected — the phases run
  /// once and the cost of a few clock reads is nil): per-phase construction
  /// timers ("precharac.golden_runs_ns", "precharac.cone_ns",
  /// "precharac.signatures_ns", "precharac.characterization_ns",
  /// "precharac.injector_ns", "precharac.potency_ns"), potency counters,
  /// and sampler-fallback provenance ("sampler.downgrades",
  /// "sampler.built.<strategy>"). Merge into a campaign sink for run
  /// reports. Counters mutate under make_sampler_with_fallback /
  /// run_adaptive; access is not synchronized — same single-caller contract
  /// as those methods.
  const MetricsSink& metrics() const { return metrics_; }

  /// How the pre-characterization cache resolved (outcome "off" when
  /// config().precharac_cache_path is empty). Cache counters
  /// ("precharac.cache_{hit,miss,stale,corrupt}", "precharac.cache_saved")
  /// land in metrics().
  const PrecharacCacheReport& precharac_cache() const { return cache_report_; }

  /// The artifact content address for this framework's configuration.
  precharac::PrecharacKey precharac_key() const;

  /// --- attack models -----------------------------------------------------
  /// Every model below draws t uniform over [0, min(t_range, Tt + 1)): the
  /// clamp keeps each timing distance inside the program (t <= Tt), where a
  /// later t would land before the program starts and be masked by
  /// construction.
  ///
  /// Uniform f_{T,P} over the whole chip (every placed cell a candidate).
  faultsim::AttackModel chip_attack_model(double radius = 1.5,
                                          int t_range = 50) const;
  /// f_{T,P} restricted to a sub-block around the security logic: the cells
  /// in the responding signal's cones (the "1/8 of MPU" setup of Section 6).
  faultsim::AttackModel subblock_attack_model(double radius = 1.5,
                                              int t_range = 50) const;
  /// Holistic model for the configured glitch kind ("voltage-glitch" gives
  /// the droop grid; every other technique the clock-glitch depth grid).
  faultsim::GlitchAttackModel glitch_attack_model(int t_range = 50) const;

  /// --- exhaustive sweeps -------------------------------------------------
  /// Binds the active technique's enumerable fault space from the standard
  /// per-technique model (radiation: subblock_attack_model(radius, t_range);
  /// clock/voltage glitch: glitch_attack_model(t_range)) and returns
  /// its size. Call once, before evaluation starts — binding mutates the
  /// shared technique and is not thread-safe against in-flight runs. The
  /// index -> sample mapping is then fixed for run_exhaustive and for every
  /// supervised worker that re-derives the same binding from the same flags.
  std::uint64_t bind_exhaustive_space(int t_range, double radius) const;

  /// --- samplers ----------------------------------------------------------
  std::unique_ptr<mc::Sampler> make_random_sampler(
      const faultsim::AttackModel& attack) const;
  std::unique_ptr<mc::Sampler> make_cone_sampler(
      const faultsim::AttackModel& attack) const;
  /// Builds the importance model for `attack` (cached per attack identity is
  /// the caller's concern; construction is cheap after pre-characterization).
  std::unique_ptr<mc::Sampler> make_importance_sampler(
      const faultsim::AttackModel& attack) const;
  precharac::SamplingModel make_sampling_model(
      const faultsim::AttackModel& attack) const;

  /// Builds the sampler for `strategy` ("importance", "cone" or "random")
  /// with graceful degradation: if the importance model (or cone support)
  /// fails to build, the next-simpler strategy is tried — importance → cone
  /// → random — and the downgrade is logged (config().log) and recorded in
  /// the returned selection instead of throwing out of the facade. Only a
  /// failure of the final random fallback propagates.
  SamplerSelection make_sampler_with_fallback(
      const faultsim::AttackModel& attack, const std::string& strategy) const;

  /// Uniform sampler over a glitch holistic model (weight 1).
  std::unique_ptr<mc::Sampler> make_glitch_sampler(
      const faultsim::GlitchAttackModel& model) const;
  /// Glitch counterpart of make_sampler_with_fallback. The glitch parameter
  /// space has no spatial structure, so "cone" and "importance" have no
  /// glitch equivalent: any requested strategy other than "random" is
  /// downgraded (logged + counted) to the uniform glitch sampler.
  SamplerSelection make_sampler_with_fallback(
      const faultsim::GlitchAttackModel& model,
      const std::string& strategy) const;

  /// Sampling parameters for `attack`, including the analytically-enumerated
  /// per-spot direct-hit boosts (see framework.cpp).
  precharac::SamplingParams sampling_params_for(
      const faultsim::AttackModel& attack) const;

  /// --- adaptive two-stage estimation --------------------------------------
  /// Runs `pilot_n` samples of `pilot_sampler`, refits an
  /// AdaptiveImportanceSampler to the pilot's success mass, and runs the
  /// remaining `refine_n` samples with it (falling back to the pilot sampler
  /// when the pilot finds no successes). Both stages execute on the shared
  /// evaluator, so `config().evaluator.threads` parallelizes the whole loop;
  /// pilot records are required (keep_records must stay enabled).
  ///
  /// Degrades gracefully instead of throwing: if the pilot stage fails
  /// (e.g. the pilot sampler throws while drawing), it is re-run on the cone
  /// → random fallback chain; if the refit construction fails, the
  /// refinement budget is spent on the pilot sampler. Every downgrade is
  /// logged and surfaced in AdaptiveRunResult::downgrade_reason.
  AdaptiveRunResult run_adaptive(const faultsim::AttackModel& attack,
                                 mc::Sampler& pilot_sampler, Rng& rng,
                                 std::size_t pilot_n, std::size_t refine_n,
                                 const mc::AdaptiveConfig& adaptive = {}) const;

  /// Two-stage adaptive estimation for a glitch technique: a uniform pilot
  /// over `model`, then an AdaptiveGlitchSampler refit to the pilot's
  /// success mass. Degrades like run_adaptive (no successes or a failed
  /// refit spend the refinement budget on the uniform sampler). Requires
  /// the configured technique to be model.kind.
  AdaptiveRunResult run_adaptive_glitch(
      const faultsim::GlitchAttackModel& model, Rng& rng,
      std::size_t pilot_n, std::size_t refine_n,
      const mc::AdaptiveConfig& adaptive = {}) const;

 private:
  /// Routes a robustness diagnostic to config().log (stderr when unset).
  void log_event(const std::string& message) const;
  /// The inclusive t upper bound of every attack model: min(t_range - 1, Tt).
  int t_max_for(int t_range) const;

  /// Artifact-cache load attempt: validates, installs the bundle and updates
  /// counters/report. `after_wait` marks the double-checked retry after
  /// acquiring the elaboration lock (only a hit is counted then, so the four
  /// outcome counters stay mutually exclusive per process).
  bool try_load_precharac(std::uint64_t fingerprint, bool after_wait);
  /// The expensive elaboration: synthetic golden run, cone extraction,
  /// switching signatures, register characterization.
  void compute_precharac();
  /// Memory-bit potency for the sampling model (analytical enumeration).
  void compute_potency();
  /// Tallies precharac.potent_bits / group_boosted_bits from the installed
  /// potency vector (computed or loaded — reports stay identical).
  void count_potency();
  void save_precharac(std::uint64_t fingerprint);

  FrameworkConfig config_;
  /// mutable: const sampler factories record fallback provenance.
  mutable MetricsSink metrics_;
  soc::SecurityBenchmark bench_;
  soc::SocNetlist soc_;
  layout::Placement placement_;
  rtl::Program synthetic_workload_;
  std::unique_ptr<rtl::GoldenRun> golden_;
  std::unique_ptr<rtl::GoldenRun> synthetic_golden_;
  std::unique_ptr<netlist::UnrolledCone> cone_;
  std::unique_ptr<precharac::SignatureTrace> signatures_;
  std::unique_ptr<precharac::RegisterCharacterization> charac_;
  std::unique_ptr<faultsim::InjectionSimulator> injector_;
  std::unique_ptr<faultsim::GlitchSimulator> glitch_;  // glitch kinds only
  std::unique_ptr<faultsim::AttackTechnique> technique_;
  std::unique_ptr<mc::SsfEvaluator> evaluator_;
  PrecharacCacheReport cache_report_;
  // Importance samplers own their model; kept alive here.
  mutable std::vector<std::unique_ptr<precharac::SamplingModel>> models_;
  mutable std::vector<std::unique_ptr<faultsim::AttackModel>> attacks_;
};

}  // namespace fav::core
