#include "core/framework.h"

#include <algorithm>
#include <cstdio>

#include "util/io.h"

namespace fav::core {

using faultsim::AttackModel;
using netlist::NodeId;

namespace {

/// Throws before any expensive elaboration when the config is structurally
/// invalid; used in the config_ member initializer so it runs first.
FrameworkConfig validated(const FrameworkConfig& config) {
  const Status status = config.validate();
  if (!status.is_ok()) throw StatusError(status);
  return config;
}

/// Belt-and-braces shape guard on a checksum-clean artifact bundle: the
/// fingerprint already covers every dimension below, so a mismatch here is
/// damage the checksums missed (or a fingerprint collision), classified as
/// corruption. Returns an empty string when the bundle fits this netlist.
std::string bundle_shape_error(const precharac::PrecharacBundle& b,
                               NodeId responding_signal, int fanin_depth,
                               int fanout_depth, std::size_t node_count,
                               std::size_t total_bits) {
  if (b.responding_signal != responding_signal) {
    return "responding-signal mismatch";
  }
  if (b.fanin_frames.size() != static_cast<std::size_t>(fanin_depth) + 1 ||
      b.fanout_frames.size() != static_cast<std::size_t>(fanout_depth)) {
    return "cone frame count mismatch";
  }
  // Frame i of the fanin side is frame i; frame i of the fanout side is
  // -(i + 1). Members are strictly ascending ids inside the netlist.
  auto ids_error = [&](const std::vector<NodeId>& ids,
                       const char* kind) -> std::string {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= node_count) {
        return std::string("cone ") + kind + " id out of range";
      }
      if (i > 0 && ids[i] <= ids[i - 1]) {
        return std::string("cone ") + kind + " ids not strictly ascending";
      }
    }
    return "";
  };
  for (const auto* frames : {&b.fanin_frames, &b.fanout_frames}) {
    const bool fanin = frames == &b.fanin_frames;
    for (std::size_t i = 0; i < frames->size(); ++i) {
      const netlist::ConeFrame& f = (*frames)[i];
      const int expected =
          fanin ? static_cast<int>(i) : -static_cast<int>(i) - 1;
      if (f.frame != expected) return "cone frame index out of sequence";
      std::string error = ids_error(f.gates, "gate");
      if (error.empty()) error = ids_error(f.registers, "register");
      if (!error.empty()) return error;
    }
  }
  if (b.signatures.size() != node_count) return "signature count mismatch";
  for (const BitVector& sig : b.signatures) {
    if (sig.size() != b.signature_cycles) return "signature length mismatch";
  }
  if (b.bits.size() != total_bits || b.characterized.size() != total_bits ||
      b.memory_bit_potency.size() != total_bits) {
    return "register-map size mismatch";
  }
  return "";
}

/// The glitch kind glitch_attack_model() uses: voltage glitch when
/// configured, clock glitch for every other technique.
faultsim::TechniqueKind glitch_kind(const std::string& technique) {
  return technique == "voltage-glitch"
             ? faultsim::TechniqueKind::kVoltageGlitch
             : faultsim::TechniqueKind::kClockGlitch;
}

}  // namespace

std::uint64_t campaign_fingerprint(const CampaignKey& key) {
  const std::string id =
      key.benchmark + "|" + key.technique + "|" + key.strategy + "|" +
      std::to_string(key.seed) + "|" + std::to_string(key.samples) + "|" +
      std::to_string(key.t_range) + "|" + std::to_string(key.radius) + "|" +
      std::to_string(key.cycle_budget);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

Status FrameworkConfig::validate() const {
  auto invalid = [](const std::string& what) {
    return Status(ErrorCode::kInvalidArgument, "FrameworkConfig: " + what);
  };
  if (technique != "radiation" && technique != "clock-glitch" &&
      technique != "voltage-glitch") {
    return invalid(
        "technique must be \"radiation\", \"clock-glitch\" or "
        "\"voltage-glitch\", got \"" +
        technique + "\"");
  }
  if (mode != "sampled" && mode != "exhaustive") {
    return invalid("mode must be \"sampled\" or \"exhaustive\", got \"" +
                   mode + "\"");
  }
  if (checkpoint_interval == 0) {
    return invalid("checkpoint_interval must be > 0");
  }
  if (cone_fanin_depth <= 0 || cone_fanout_depth <= 0) {
    return invalid("cone depths must be positive");
  }
  if (precharac_cycles == 0) return invalid("precharac_cycles must be > 0");
  return Status::ok();
}

void FaultAttackEvaluator::log_event(const std::string& message) const {
  if (config_.log) {
    config_.log(message);
  } else {
    std::fprintf(stderr, "fav: %s\n", message.c_str());
  }
}

FaultAttackEvaluator::FaultAttackEvaluator(soc::SecurityBenchmark bench,
                                           const FrameworkConfig& config)
    : config_(validated(config)),
      bench_(std::move(bench)),
      soc_(),
      placement_(soc_.netlist()),
      synthetic_workload_(soc::make_synthetic_workload()) {
  // The benchmark golden run is needed at evaluation time and is therefore
  // never cached; the synthetic golden run only feeds pre-characterization
  // and is built inside compute_precharac() (skipped on a cache hit).
  {
    ScopeTimer timer(&metrics_, "precharac.golden_runs_ns");
    golden_ = std::make_unique<rtl::GoldenRun>(
        bench_.program, bench_.max_cycles, config.checkpoint_interval);
  }

  // Pre-characterization (Section 4): load the persistent artifact when one
  // is configured and valid, otherwise recompute (and rewrite the artifact).
  // Either path installs bitwise-identical state — the cache can cost time,
  // never correctness.
  cache_report_.enabled = !config_.precharac_cache_path.empty();
  cache_report_.path = config_.precharac_cache_path;
  io::FileLock lock;  // held (if taken) until construction completes
  bool loaded = false;
  bool must_save = false;
  std::uint64_t fingerprint = 0;
  if (cache_report_.enabled) {
    fingerprint = precharac::precharac_fingerprint(precharac_key());
    loaded = try_load_precharac(fingerprint, /*after_wait=*/false);
    if (!loaded) {
      // Cold start: serialize concurrent elaborators on an advisory lock so
      // exactly one computes while the rest wait and then load its artifact
      // (the double-checked retry below). A lock timeout degrades to an
      // unlocked redundant elaboration — atomic rewrite keeps that safe.
      ScopeTimer wait_timer(&metrics_, "precharac.cache_lock_wait_ns");
      const Status locked =
          lock.acquire(config_.precharac_cache_path + ".lock",
                       config_.precharac_cache_lock_timeout_ms);
      wait_timer.stop();
      if (locked.is_ok()) {
        loaded = try_load_precharac(fingerprint, /*after_wait=*/true);
      } else {
        metrics_.add_counter("precharac.cache_lock_timeouts");
        log_event("precharac cache: elaborating without the lock (" +
                  locked.to_string() + ")");
      }
      must_save = !loaded;
    }
  }
  if (!loaded) {
    compute_precharac();
    compute_potency();
  }
  count_potency();

  ScopeTimer injector_timer(&metrics_, "precharac.injector_ns");
  injector_ = std::make_unique<faultsim::InjectionSimulator>(
      soc_.netlist(), config.timing, config.transient);
  if (config.technique != "radiation") {
    glitch_ = std::make_unique<faultsim::GlitchSimulator>(soc_.netlist(),
                                                          config.timing);
    technique_ = std::make_unique<faultsim::GlitchTechnique>(
        *glitch_, glitch_kind(config.technique));
  } else {
    technique_ =
        std::make_unique<faultsim::RadiationTechnique>(placement_, *injector_);
  }
  evaluator_ = std::make_unique<mc::SsfEvaluator>(
      soc_, *technique_, bench_, *golden_, charac_.get(), config.evaluator);
  injector_timer.stop();

  if (must_save) save_precharac(fingerprint);
}

precharac::PrecharacKey FaultAttackEvaluator::precharac_key() const {
  precharac::PrecharacKey key;
  key.benchmark = bench_.name;
  key.benchmark_cycles = bench_.max_cycles;
  key.cone_fanin_depth = config_.cone_fanin_depth;
  key.cone_fanout_depth = config_.cone_fanout_depth;
  key.precharac_cycles = config_.precharac_cycles;
  key.characterization = config_.characterization;
  key.node_count = soc_.netlist().node_count();
  key.total_bits =
      static_cast<std::uint64_t>(rtl::Machine::reg_map().total_bits());
  return key;
}

bool FaultAttackEvaluator::try_load_precharac(std::uint64_t fingerprint,
                                              bool after_wait) {
  ScopeTimer timer(&metrics_, "precharac.cache_load_ns");
  precharac::ArtifactLoad load =
      precharac::load_artifact(config_.precharac_cache_path, fingerprint);
  if (load.outcome == precharac::ArtifactOutcome::kHit) {
    const std::string shape = bundle_shape_error(
        load.bundle, soc_.netlist().find_or_throw("mpu_viol"),
        config_.cone_fanin_depth, config_.cone_fanout_depth,
        soc_.netlist().node_count(),
        static_cast<std::size_t>(rtl::Machine::reg_map().total_bits()));
    if (!shape.empty()) {
      load.outcome = precharac::ArtifactOutcome::kCorrupt;
      load.detail = shape;
    }
  }
  const char* name = precharac::artifact_outcome_name(load.outcome);
  const bool hit = load.outcome == precharac::ArtifactOutcome::kHit;
  if (!after_wait) {
    // The decisive first-attempt classification: exactly one of the four
    // outcome counters fires per construction.
    metrics_.add_counter(std::string("precharac.cache_") + name);
    cache_report_.outcome = name;
    cache_report_.detail = load.detail;
    if (!hit) {
      log_event("precharac cache " + std::string(name) + ": " + load.detail +
                "; recomputing");
    }
  } else if (hit) {
    // A peer elaborated while this process waited on the lock.
    metrics_.add_counter("precharac.cache_hit_after_wait");
    cache_report_.outcome = name;
    cache_report_.detail = "loaded after waiting on the elaboration lock";
  }
  if (!hit) return false;
  cone_ = std::make_unique<netlist::UnrolledCone>(
      load.bundle.responding_signal, soc_.netlist().node_count(),
      std::move(load.bundle.fanin_frames),
      std::move(load.bundle.fanout_frames));
  signatures_ = std::make_unique<precharac::SignatureTrace>(
      load.bundle.signature_cycles, std::move(load.bundle.signatures));
  charac_ = std::make_unique<precharac::RegisterCharacterization>(
      config_.characterization, std::move(load.bundle.bits),
      std::move(load.bundle.characterized));
  config_.sampling.memory_bit_potency =
      std::move(load.bundle.memory_bit_potency);
  return true;
}

void FaultAttackEvaluator::compute_precharac() {
  // Each phase is timed into metrics_ — the phases run at most once per
  // framework, so the report shows where construction cost goes.
  {
    ScopeTimer timer(&metrics_, "precharac.golden_runs_ns");
    synthetic_golden_ = std::make_unique<rtl::GoldenRun>(
        synthetic_workload_, config_.precharac_cycles,
        config_.checkpoint_interval);
  }
  {
    ScopeTimer timer(&metrics_, "precharac.cone_ns");
    cone_ = std::make_unique<netlist::UnrolledCone>(
        soc_.netlist(), soc_.netlist().find_or_throw("mpu_viol"),
        config_.cone_fanin_depth, config_.cone_fanout_depth);
  }
  {
    ScopeTimer timer(&metrics_, "precharac.signatures_ns");
    signatures_ = std::make_unique<precharac::SignatureTrace>(
        soc_, synthetic_workload_, config_.precharac_cycles);
  }
  {
    ScopeTimer timer(&metrics_, "precharac.characterization_ns");
    charac_ = std::make_unique<precharac::RegisterCharacterization>(
        *synthetic_golden_, config_.characterization);
  }
  metrics_.add_counter("precharac.characterize_restores", charac_->restores());
  metrics_.add_counter("precharac.characterize_steps", charac_->steps());
}

void FaultAttackEvaluator::compute_potency() {
  ScopeTimer potency_timer(&metrics_, "precharac.potency_ns");

  // Potency of memory-type registers, from the analytical evaluator; it
  // steers the mixed importance-sampling strategy.
  //  * single-bit potency (score 1.0): flipping this bit alone enables the
  //    attack (e.g. a permission-grant or region-limit bit),
  //  * group potency (score 0.3): wholesale corruption of an MPU region's
  //    configuration enables the attack — the garbage-latch mechanism, where
  //    one transient on the config-write decode latches an attacker-chosen
  //    value into a whole region register.
  const rtl::RegisterMap& map = rtl::Machine::reg_map();
  const mc::AnalyticalEvaluator analytical(bench_, *golden_);
  const std::uint64_t tt = analytical.target_cycle();
  auto& potency = config_.sampling.memory_bit_potency;
  potency.assign(static_cast<std::size_t>(map.total_bits()), 0.0);
  // Candidates: empirically memory-type bits plus structurally write-once
  // (config-like) bits — a configuration flip can be persistent and
  // attack-enabling even when its characterization shows contamination
  // (e.g. the MPU enable bit suppresses the sticky flag).
  for (int bit = 0; bit < map.total_bits(); ++bit) {
    const bool persistent = charac_->is_memory_type(bit) ||
                            map.field(map.locate(bit).first).config_like;
    if (!persistent) continue;
    rtl::ArchState faulty = golden_->state_at(tt);
    map.flip_bit(faulty, bit);
    const auto verdict = analytical.evaluate(faulty, tt);
    if (verdict.has_value() && *verdict) {
      potency[static_cast<std::size_t>(bit)] = 1.0;
    }
  }
  for (int k = 0; k < rtl::kMpuRegionCount; ++k) {
    rtl::ArchState faulty = golden_->state_at(tt);
    faulty.mpu[static_cast<std::size_t>(k)] = {
        0x0000, 0xFFFF, rtl::kPermRead | rtl::kPermWrite | rtl::kPermEnable};
    const auto verdict = analytical.evaluate(faulty, tt);
    if (!(verdict.has_value() && *verdict)) continue;
    const std::string prefix = "mpu" + std::to_string(k) + "_";
    for (const char* suffix : {"base", "limit", "perm"}) {
      const auto& field = map.field(map.field_index(prefix + suffix));
      for (int b = 0; b < field.width; ++b) {
        auto& p = potency[static_cast<std::size_t>(field.offset + b)];
        p = std::max(p, 0.3);
      }
    }
  }
}

void FaultAttackEvaluator::count_potency() {
  std::size_t potent_bits = 0, boosted_bits = 0;
  for (const double p : config_.sampling.memory_bit_potency) {
    if (p >= 1.0) ++potent_bits;
    else if (p > 0.0) ++boosted_bits;
  }
  metrics_.add_counter("precharac.potent_bits", potent_bits);
  metrics_.add_counter("precharac.group_boosted_bits", boosted_bits);
}

void FaultAttackEvaluator::save_precharac(std::uint64_t fingerprint) {
  ScopeTimer timer(&metrics_, "precharac.cache_save_ns");
  precharac::PrecharacBundle b;
  b.responding_signal = cone_->responding_signal();
  b.fanin_frames = cone_->fanin_frames();
  b.fanout_frames = cone_->fanout_frames();
  b.signature_cycles = signatures_->cycles();
  const NodeId node_count = soc_.netlist().node_count();
  b.signatures.reserve(node_count);
  for (NodeId id = 0; id < node_count; ++id) {
    b.signatures.push_back(signatures_->signature(id));
  }
  b.charac_config = config_.characterization;
  b.bits = charac_->raw_bits();
  b.characterized = charac_->raw_done();
  b.memory_bit_potency = config_.sampling.memory_bit_potency;
  const std::string context = "fav precharac artifact | benchmark=" +
                              bench_.name + " | fingerprint=" +
                              std::to_string(fingerprint);
  const Status saved = precharac::save_artifact(
      config_.precharac_cache_path, fingerprint, context, b);
  if (!saved.is_ok()) {
    // A failed artifact write never fails the campaign: the bundle is live
    // in memory, only the next cold start pays for the recompute.
    metrics_.add_counter("precharac.cache_save_failures");
    log_event("precharac cache: artifact write failed (" + saved.to_string() +
              "); continuing without the cache");
    return;
  }
  metrics_.add_counter("precharac.cache_saved");
  cache_report_.stored = true;
  log_event("precharac cache: wrote " + config_.precharac_cache_path);
}

int FaultAttackEvaluator::t_max_for(int t_range) const {
  FAV_ENSURE(t_range >= 1);
  return static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(t_range - 1), target_cycle()));
}

AttackModel FaultAttackEvaluator::chip_attack_model(double radius,
                                                    int t_range) const {
  AttackModel a;
  a.t_min = 0;
  a.t_max = t_max_for(t_range);
  a.candidate_centers = placement_.placed_nodes();
  a.radii = {radius};
  return a;
}

AttackModel FaultAttackEvaluator::subblock_attack_model(double radius,
                                                        int t_range) const {
  AttackModel a;
  a.t_min = 0;
  a.t_max = t_max_for(t_range);
  a.radii = {radius};
  // Candidate support: every cell appearing in any extracted cone frame —
  // the attacker aims the spot at the security logic's neighbourhood.
  std::vector<char> in(soc_.netlist().node_count(), 0);
  auto absorb = [&](const netlist::ConeFrame& f) {
    for (const NodeId g : f.gates) in[g] = 1;
    for (const NodeId r : f.registers) in[r] = 1;
  };
  for (const auto& f : cone_->fanin_frames()) absorb(f);
  for (const auto& f : cone_->fanout_frames()) absorb(f);
  for (NodeId id = 0; id < soc_.netlist().node_count(); ++id) {
    if (in[id] && placement_.is_placed(id)) a.candidate_centers.push_back(id);
  }
  FAV_ENSURE_MSG(!a.candidate_centers.empty(), "cone support is empty");
  return a;
}

const faultsim::GlitchSimulator& FaultAttackEvaluator::glitch_simulator()
    const {
  FAV_ENSURE_MSG(glitch_ != nullptr,
                 "glitch_simulator() requires technique \"clock-glitch\" or "
                 "\"voltage-glitch\" (configured: \""
                     << config_.technique << "\")");
  return *glitch_;
}

faultsim::GlitchAttackModel FaultAttackEvaluator::glitch_attack_model(
    int t_range) const {
  faultsim::GlitchAttackModel m(glitch_kind(config_.technique));
  m.t_min = 0;
  m.t_max = t_max_for(t_range);
  return m;
}

std::unique_ptr<mc::Sampler> FaultAttackEvaluator::make_glitch_sampler(
    const faultsim::GlitchAttackModel& model) const {
  return std::make_unique<mc::GlitchSampler>(model, target_cycle());
}

std::uint64_t FaultAttackEvaluator::bind_exhaustive_space(int t_range,
                                                          double radius) const {
  // const_cast-free: technique_ is a (const) unique_ptr to a non-const
  // technique, and binding happens before any evaluation is in flight.
  if (glitch_ != nullptr) {
    auto* t = dynamic_cast<faultsim::GlitchTechnique*>(technique_.get());
    FAV_CHECK(t != nullptr);
    t->bind_space(glitch_attack_model(t_range));
  } else {
    auto* t = dynamic_cast<faultsim::RadiationTechnique*>(technique_.get());
    FAV_CHECK(t != nullptr);
    t->bind_space(subblock_attack_model(radius, t_range));
  }
  return technique_->space_size();
}

std::unique_ptr<mc::Sampler> FaultAttackEvaluator::make_random_sampler(
    const AttackModel& attack) const {
  attacks_.push_back(std::make_unique<AttackModel>(attack));
  return std::make_unique<mc::RandomSampler>(*attacks_.back());
}

std::unique_ptr<mc::Sampler> FaultAttackEvaluator::make_cone_sampler(
    const AttackModel& attack) const {
  attacks_.push_back(std::make_unique<AttackModel>(attack));
  return std::make_unique<mc::ConeSampler>(*attacks_.back(), *cone_,
                                           placement_);
}

precharac::SamplingModel FaultAttackEvaluator::make_sampling_model(
    const AttackModel& attack) const {
  attacks_.push_back(std::make_unique<AttackModel>(attack));
  return precharac::SamplingModel(soc_, placement_, *cone_, *signatures_,
                                  *charac_, *attacks_.back(),
                                  config_.sampling);
}

precharac::SamplingParams FaultAttackEvaluator::sampling_params_for(
    const AttackModel& attack) const {
  precharac::SamplingParams params = config_.sampling;
  // Enumerate the deterministic memory-type subspace: for every candidate
  // spot, the *direct* register upsets are fixed (independent of t and of
  // the strike instant), so the analytical evaluator can decide their
  // outcome outright. Spots whose direct flips provably enable the attack
  // receive a dominant sampling boost.
  const rtl::RegisterMap& map = rtl::Machine::reg_map();
  const mc::AnalyticalEvaluator analytical(bench_, *golden_);
  const std::uint64_t tt = analytical.target_cycle();
  const rtl::ArchState base_state = golden_->state_at(tt);
  const double max_radius =
      *std::max_element(attack.radii.begin(), attack.radii.end());
  params.center_boost.assign(soc_.netlist().node_count(), 0.0);
  constexpr double kDirectHitBoost = 3.0e3;
  std::vector<netlist::NodeId> spot;  // query buffer reused across centers
  for (const netlist::NodeId c : attack.candidate_centers) {
    // Direct upsets of the *persistent* covered registers (memory-type or
    // write-once config): their combined outcome is decidable analytically.
    // Covered computation registers add transient noise the verdict cannot
    // see — the boost is steering, not a proof, so that is acceptable.
    std::vector<int> flips;
    placement_.nodes_within(c, max_radius, spot);
    for (const netlist::NodeId g : spot) {
      if (!soc_.netlist().is_dff(g)) continue;
      const int bit = soc_.flat_bit_for_dff(g);
      if (charac_->is_memory_type(bit) ||
          map.field(map.locate(bit).first).config_like) {
        flips.push_back(bit);
      }
    }
    if (flips.empty()) continue;
    rtl::ArchState faulty = base_state;
    for (const int bit : flips) map.flip_bit(faulty, bit);
    const auto verdict = analytical.evaluate(faulty, tt);
    if (verdict.has_value() && *verdict) {
      params.center_boost[c] = kDirectHitBoost;
    }
  }
  return params;
}

SamplerSelection FaultAttackEvaluator::make_sampler_with_fallback(
    const faultsim::GlitchAttackModel& model,
    const std::string& strategy) const {
  ScopeTimer timer(&metrics_, "sampler.build_ns");
  SamplerSelection sel;
  sel.requested = strategy;
  sel.sampler = make_glitch_sampler(model);
  sel.actual = sel.sampler->name();
  metrics_.add_counter("sampler.built." + sel.actual);
  if (strategy != "random" && strategy != sel.actual) {
    sel.downgrade_reason = "strategy '" + strategy + "' has no " +
                           faultsim::technique_kind_name(model.kind) +
                           " equivalent (no spatial structure to exploit), " +
                           "using " + sel.actual;
    metrics_.add_counter("sampler.downgrades");
    log_event("sampler downgrade: " + sel.downgrade_reason);
  }
  return sel;
}

SamplerSelection FaultAttackEvaluator::make_sampler_with_fallback(
    const AttackModel& attack, const std::string& strategy) const {
  FAV_ENSURE_MSG(strategy == "importance" || strategy == "cone" ||
                     strategy == "random",
                 "unknown sampling strategy '" << strategy << "'");
  ScopeTimer timer(&metrics_, "sampler.build_ns");
  SamplerSelection sel;
  sel.requested = strategy;
  auto downgrade = [&](const std::string& from, const std::string& to,
                       const std::exception& e) {
    if (!sel.downgrade_reason.empty()) sel.downgrade_reason += "; ";
    sel.downgrade_reason +=
        from + " sampler unavailable (" + e.what() + "), falling back to " + to;
    metrics_.add_counter("sampler.downgrades");
    log_event("sampler downgrade: " + sel.downgrade_reason);
  };
  if (strategy == "importance") {
    try {
      sel.sampler = make_importance_sampler(attack);
      sel.actual = "importance";
      metrics_.add_counter("sampler.built.importance");
      return sel;
    } catch (const std::exception& e) {
      downgrade("importance", "cone", e);
    }
  }
  if (strategy == "importance" || strategy == "cone") {
    try {
      sel.sampler = make_cone_sampler(attack);
      sel.actual = "cone";
      metrics_.add_counter("sampler.built.cone");
      return sel;
    } catch (const std::exception& e) {
      downgrade("cone", "random", e);
    }
  }
  sel.sampler = make_random_sampler(attack);
  sel.actual = "random";
  metrics_.add_counter("sampler.built.random");
  return sel;
}

std::unique_ptr<mc::Sampler> FaultAttackEvaluator::make_importance_sampler(
    const AttackModel& attack) const {
  attacks_.push_back(std::make_unique<AttackModel>(attack));
  models_.push_back(std::make_unique<precharac::SamplingModel>(
      soc_, placement_, *cone_, *signatures_, *charac_, *attacks_.back(),
      sampling_params_for(*attacks_.back())));
  return std::make_unique<mc::ImportanceSampler>(*models_.back());
}

}  // namespace fav::core
