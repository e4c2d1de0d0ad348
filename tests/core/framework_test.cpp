#include "core/framework.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "precharac/artifact.h"
#include "util/check.h"
#include "util/io.h"
#include "util/status.h"

namespace fav::core {
namespace {

// One shared instance: construction runs the full pre-characterization.
FaultAttackEvaluator& fw() {
  static FaultAttackEvaluator instance(soc::make_illegal_write_benchmark());
  return instance;
}

TEST(Framework, AssemblesAllComponents) {
  EXPECT_GT(fw().soc().netlist().gate_count(), 1000u);
  EXPECT_GT(fw().golden().length(), 100u);
  EXPECT_GT(fw().signatures().cycles(), 100u);
  EXPECT_GT(fw().characterization().memory_type_bits().size(), 50u);
  EXPECT_GT(fw().target_cycle(), 50u);
}

TEST(Framework, ChipAttackModelCoversAllPlacedCells) {
  const auto a = fw().chip_attack_model(1.5, 50);
  EXPECT_EQ(a.candidate_centers.size(), fw().placement().placed_nodes().size());
  EXPECT_EQ(a.t_count(), 50);
  EXPECT_THROW(fw().chip_attack_model(1.5, 0), fav::CheckError);
}

TEST(Framework, AttackModelsClampTimingWindowToProgram) {
  // A timing distance past Tt lands before the program starts and would be
  // masked by construction; every model builder clamps the window to
  // t <= Tt, while windows inside the program are untouched.
  const int tt = static_cast<int>(fw().target_cycle());
  EXPECT_EQ(fw().subblock_attack_model(1.5, 500).t_max, tt);
  EXPECT_EQ(fw().chip_attack_model(1.5, 500).t_max, tt);
  EXPECT_EQ(fw().glitch_attack_model(500).t_max, tt);
  EXPECT_EQ(fw().subblock_attack_model(1.5, 50).t_max, 49);
  EXPECT_EQ(fw().chip_attack_model(1.5, 50).t_max, 49);
  EXPECT_EQ(fw().glitch_attack_model(50).t_max, 49);
  EXPECT_THROW(fw().subblock_attack_model(1.5, 0), fav::CheckError);
  EXPECT_THROW(fw().glitch_attack_model(0), fav::CheckError);
}

TEST(Framework, SubblockModelIsSmallerThanChip) {
  const auto sub = fw().subblock_attack_model(1.5, 50);
  const auto chip = fw().chip_attack_model(1.5, 50);
  EXPECT_LT(sub.candidate_centers.size(), chip.candidate_centers.size() + 1);
  EXPECT_GT(sub.candidate_centers.size(), 100u);
}

TEST(Framework, PotencyMarksGrantingBits) {
  const auto& potency = fw().config().sampling.memory_bit_potency;
  const auto& map = rtl::Machine::reg_map();
  ASSERT_EQ(potency.size(), static_cast<std::size_t>(map.total_bits()));
  // The write-permission bit of region 1 enables the illegal write.
  const int grant = map.field(map.field_index("mpu1_perm")).offset + 1;
  EXPECT_EQ(potency[static_cast<std::size_t>(grant)], 1);
  // viol_addr bits never enable anything.
  const int va = map.field(map.field_index("viol_addr")).offset;
  for (int b = 0; b < 16; ++b) {
    EXPECT_EQ(potency[static_cast<std::size_t>(va + b)], 0) << b;
  }
  int potent = 0;
  for (const char p : potency) potent += p;
  EXPECT_GT(potent, 2);
  EXPECT_LT(potent, map.total_bits() / 4);
}

TEST(Framework, SamplersEvaluateEndToEnd) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  Rng rng(42);
  auto random = fw().make_random_sampler(attack);
  auto cone = fw().make_cone_sampler(attack);
  auto importance = fw().make_importance_sampler(attack);
  const auto r1 = fw().evaluator().run(*random, rng, 300);
  const auto r2 = fw().evaluator().run(*cone, rng, 300);
  const auto r3 = fw().evaluator().run(*importance, rng, 300);
  EXPECT_EQ(r1.stats.count(), 300u);
  EXPECT_EQ(r2.stats.count(), 300u);
  EXPECT_EQ(r3.stats.count(), 300u);
  // The importance strategy must find successes far more often.
  EXPECT_GT(r3.successes, r1.successes);
  EXPECT_GT(r3.successes, 10u);
}

TEST(Framework, ImportanceVarianceBeatsRandom) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  Rng rng(77);
  auto random = fw().make_random_sampler(attack);
  auto importance = fw().make_importance_sampler(attack);
  const auto rr = fw().evaluator().run(*random, rng, 1500);
  const auto ri = fw().evaluator().run(*importance, rng, 1500);
  // Fig. 9's headline: orders-of-magnitude variance reduction. Require at
  // least 10x here to keep the test robust across seeds.
  if (rr.sample_variance() > 0 && ri.sample_variance() > 0) {
    EXPECT_GT(rr.sample_variance() / ri.sample_variance(), 10.0);
  }
  EXPECT_GT(ri.successes, rr.successes);
}

TEST(Framework, ThreadsKnobPreservesFrameworkResults) {
  // End-to-end determinism through the facade: a framework configured with
  // a worker pool must reproduce the shared sequential framework bit for bit.
  FrameworkConfig cfg;
  cfg.evaluator.threads = 4;
  FaultAttackEvaluator threaded(soc::make_illegal_write_benchmark(), cfg);
  const auto attack = threaded.subblock_attack_model(1.5, 50);
  Rng r1(42), r2(42);
  auto s1 = threaded.make_importance_sampler(attack);
  auto s2 = fw().make_importance_sampler(fw().subblock_attack_model(1.5, 50));
  const auto parallel = threaded.evaluator().run(*s1, r1, 400);
  const auto sequential = fw().evaluator().run(*s2, r2, 400);
  EXPECT_EQ(parallel.ssf(), sequential.ssf());
  EXPECT_EQ(parallel.sample_variance(), sequential.sample_variance());
  EXPECT_EQ(parallel.successes, sequential.successes);
  EXPECT_EQ(parallel.masked, sequential.masked);
  EXPECT_EQ(parallel.analytical, sequential.analytical);
  EXPECT_EQ(parallel.rtl, sequential.rtl);
  EXPECT_EQ(parallel.trace, sequential.trace);
  EXPECT_EQ(parallel.bit_contribution, sequential.bit_contribution);
  EXPECT_EQ(parallel.field_contribution, sequential.field_contribution);
}

TEST(FrameworkConfigValidation, RejectsStructurallyInvalidConfigs) {
  {
    FrameworkConfig cfg;
    cfg.checkpoint_interval = 0;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::kInvalidArgument);
  }
  {
    FrameworkConfig cfg;
    cfg.cone_fanin_depth = 0;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::kInvalidArgument);
  }
  {
    FrameworkConfig cfg;
    cfg.cone_fanout_depth = -1;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::kInvalidArgument);
  }
  {
    FrameworkConfig cfg;
    cfg.precharac_cycles = 0;
    EXPECT_EQ(cfg.validate().code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_TRUE(FrameworkConfig{}.validate().is_ok());
}

TEST(FrameworkConfigValidation, ConstructionRejectsInvalidConfigEarly) {
  FrameworkConfig cfg;
  cfg.checkpoint_interval = 0;
  try {
    FaultAttackEvaluator bad(soc::make_illegal_write_benchmark(), cfg);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("checkpoint_interval"),
              std::string::npos);
  }
}

TEST(FrameworkFallback, HealthyImportanceStrategyIsNotDowngraded) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  const SamplerSelection sel =
      fw().make_sampler_with_fallback(attack, "importance");
  ASSERT_NE(sel.sampler, nullptr);
  EXPECT_EQ(sel.requested, "importance");
  EXPECT_EQ(sel.actual, "importance");
  EXPECT_FALSE(sel.downgraded());
}

std::uint64_t sampler_builds(const FaultAttackEvaluator& f) {
  const TimerStat* t = f.metrics().timer("sampler.build_ns");
  return t == nullptr ? 0 : t->count;
}

TEST(FrameworkFallback, ImportanceBuildIsTimedOnce) {
  // The run report accounts for the sampler build: one selection records
  // exactly one sampler.build_ns sample.
  const auto attack = fw().subblock_attack_model(1.5, 50);
  const std::uint64_t before = sampler_builds(fw());
  const SamplerSelection sel =
      fw().make_sampler_with_fallback(attack, "importance");
  EXPECT_EQ(sel.actual, "importance");
  EXPECT_EQ(sampler_builds(fw()), before + 1);
  EXPECT_GT(fw().metrics().timer("sampler.build_ns")->total_ns, 0u);
}

TEST(FrameworkFallback, BrokenImportanceModelDowngradesToCone) {
  // An invalid sampling parameter makes the importance-model construction
  // throw; the facade must fall back to the cone sampler, log the downgrade,
  // and record its provenance instead of propagating the exception.
  FrameworkConfig cfg;
  cfg.sampling.alpha = -1.0;  // rejected by SamplingModel's validation
  std::vector<std::string> logged;
  cfg.log = [&](const std::string& m) { logged.push_back(m); };
  FaultAttackEvaluator broken(soc::make_illegal_write_benchmark(), cfg);
  const auto attack = broken.subblock_attack_model(1.5, 50);
  const SamplerSelection sel =
      broken.make_sampler_with_fallback(attack, "importance");
  ASSERT_NE(sel.sampler, nullptr);
  EXPECT_EQ(sel.requested, "importance");
  EXPECT_EQ(sel.actual, "cone");
  EXPECT_TRUE(sel.downgraded());
  EXPECT_NE(sel.downgrade_reason.find("importance"), std::string::npos);
  // The whole fallback chain is one timed build.
  EXPECT_EQ(sampler_builds(broken), 1u);
  ASSERT_FALSE(logged.empty());
  EXPECT_NE(logged.front().find("downgrade"), std::string::npos);
  // The fallback sampler is actually usable end to end.
  Rng rng(11);
  const auto res = broken.evaluator().run(*sel.sampler, rng, 100);
  EXPECT_EQ(res.stats.count(), 100u);
}

TEST(FrameworkFallback, UnknownStrategyStillThrows) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  EXPECT_THROW(fw().make_sampler_with_fallback(attack, "quantum"),
               fav::CheckError);
}

// One shared glitch-configured framework (construction is expensive).
FaultAttackEvaluator& glitch_fw() {
  static FaultAttackEvaluator instance(soc::make_illegal_write_benchmark(),
                                       [] {
                                         FrameworkConfig cfg;
                                         cfg.technique = "clock-glitch";
                                         return cfg;
                                       }());
  return instance;
}

FaultAttackEvaluator& voltage_fw() {
  static FaultAttackEvaluator instance(soc::make_illegal_write_benchmark(),
                                       [] {
                                         FrameworkConfig cfg;
                                         cfg.technique = "voltage-glitch";
                                         return cfg;
                                       }());
  return instance;
}

TEST(FrameworkTechnique, RadiationIsTheDefault) {
  EXPECT_EQ(fw().config().technique, "radiation");
  EXPECT_EQ(fw().technique().kind(), faultsim::TechniqueKind::kRadiation);
  EXPECT_THROW(fw().glitch_simulator(), fav::CheckError);
}

TEST(FrameworkTechnique, UnknownTechniqueIsRejected) {
  FrameworkConfig cfg;
  cfg.technique = "rowhammer";
  EXPECT_EQ(cfg.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(FrameworkTechnique, GlitchFrameworkEvaluatesEndToEnd) {
  EXPECT_EQ(glitch_fw().technique().kind(),
            faultsim::TechniqueKind::kClockGlitch);
  EXPECT_GT(glitch_fw().glitch_simulator().timing().clock_period(), 0.0);
  const auto model = glitch_fw().glitch_attack_model(50);
  // The model is clamped to the program: every t has a cycle to glitch.
  EXPECT_LE(static_cast<std::uint64_t>(model.t_max),
            glitch_fw().target_cycle());
  Rng rng(42);
  auto sampler = glitch_fw().make_glitch_sampler(model);
  const auto res = glitch_fw().evaluator().run(*sampler, rng, 300);
  EXPECT_EQ(res.stats.count(), 300u);
  EXPECT_EQ(res.masked + res.analytical + res.rtl, 300u);
}

TEST(FrameworkTechnique, GlitchFallbackDowngradesSpatialStrategies) {
  const auto model = glitch_fw().glitch_attack_model(50);
  // "random" maps onto the uniform glitch sampler without a downgrade…
  const SamplerSelection random_sel =
      glitch_fw().make_sampler_with_fallback(model, "random");
  ASSERT_NE(random_sel.sampler, nullptr);
  EXPECT_EQ(random_sel.actual, "glitch-uniform");
  EXPECT_FALSE(random_sel.downgraded());
  const std::uint64_t builds = sampler_builds(glitch_fw());
  EXPECT_GE(builds, 1u);
  // …while spatial strategies have no glitch equivalent and are downgraded
  // with recorded provenance.
  const SamplerSelection imp_sel =
      glitch_fw().make_sampler_with_fallback(model, "importance");
  ASSERT_NE(imp_sel.sampler, nullptr);
  EXPECT_EQ(imp_sel.requested, "importance");
  EXPECT_EQ(imp_sel.actual, "glitch-uniform");
  EXPECT_TRUE(imp_sel.downgraded());
  EXPECT_EQ(sampler_builds(glitch_fw()), builds + 1);
  Rng rng(7);
  const auto res = glitch_fw().evaluator().run(*imp_sel.sampler, rng, 100);
  EXPECT_EQ(res.stats.count(), 100u);
}

TEST(FrameworkTechnique, VoltageGlitchSharesTheGlitchFacade) {
  // One simulator, model builder and sampler factory serve both glitch
  // kinds; the configured technique picks the droop grid.
  EXPECT_EQ(voltage_fw().technique().kind(),
            faultsim::TechniqueKind::kVoltageGlitch);
  EXPECT_GT(voltage_fw().glitch_simulator().timing().clock_period(), 0.0);
  const auto model = voltage_fw().glitch_attack_model(50);
  EXPECT_EQ(model.kind, faultsim::TechniqueKind::kVoltageGlitch);
  EXPECT_EQ(model.levels, faultsim::GlitchAttackModel(model.kind).levels);
  const SamplerSelection sel =
      voltage_fw().make_sampler_with_fallback(model, "cone");
  EXPECT_EQ(sel.actual, "voltage-uniform");
  EXPECT_TRUE(sel.downgraded());
}

/// 64-bit FNV-1a over each record's (t, depth, flipped_bits, path).
std::uint64_t flip_set_digest(const mc::SsfResult& result) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  for (const mc::SampleRecord& rec : result.records) {
    const std::int32_t t = rec.sample.t;
    mix(&t, sizeof t);
    mix(&rec.sample.depth, sizeof rec.sample.depth);
    const std::uint64_t count = rec.flipped_bits.size();
    mix(&count, sizeof count);
    for (const int bit : rec.flipped_bits) {
      const std::int32_t b = bit;
      mix(&b, sizeof b);
    }
    const auto path = static_cast<std::uint8_t>(rec.path);
    mix(&path, sizeof path);
  }
  return h;
}

TEST(FrameworkTechnique, DefaultGlitchSweepFlipSetsArePinned) {
  // The default 200-point exhaustive sweep on `write` has SSF exactly 0 for
  // both kinds, so only the flip sets show whether a refactor preserved each
  // kind's threshold rule. The digests were recorded when clock and voltage
  // glitch still had separate simulators; one-lane and 64-lane words must
  // both reproduce them.
  const FaultAttackEvaluator& f = glitch_fw();
  const struct {
    faultsim::TechniqueKind kind;
    std::uint64_t digest;
  } cases[] = {
      {faultsim::TechniqueKind::kClockGlitch, 0xb342101024e329fcull},
      {faultsim::TechniqueKind::kVoltageGlitch, 0xa4283749f31fbdfaull},
  };
  for (const auto& c : cases) {
    faultsim::GlitchTechnique technique(f.glitch_simulator(), c.kind);
    technique.bind_space(faultsim::GlitchAttackModel(c.kind));
    for (const std::size_t lanes : {1u, 64u}) {
      SCOPED_TRACE(std::string(faultsim::technique_kind_name(c.kind)) +
                   " lanes=" + std::to_string(lanes));
      mc::EvaluatorConfig cfg;
      cfg.batch_lanes = lanes;
      const mc::SsfEvaluator ev(f.soc(), technique, f.benchmark(),
                                f.golden(), &f.characterization(), cfg);
      const mc::SsfResult result = ev.run_exhaustive();
      ASSERT_EQ(result.records.size(), 200u);
      EXPECT_EQ(result.masked, 49u);
      EXPECT_EQ(result.analytical, 0u);
      EXPECT_EQ(result.rtl, 151u);
      EXPECT_EQ(result.ssf(), 0.0);
      EXPECT_EQ(flip_set_digest(result), c.digest);
    }
  }
}

// --- persistent pre-characterization cache (precharac/artifact.h) ---------

class PrecharacCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fav_precharac_cache_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "bundle.fpa").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  FrameworkConfig cache_config() const {
    FrameworkConfig cfg;
    cfg.precharac_cache_path = path_;
    cfg.log = [](const std::string&) {};  // keep test output quiet
    return cfg;
  }

  /// A fixed campaign over `f`; any divergence in the loaded bundle would
  /// change the sample stream or per-sample outcomes.
  static mc::SsfResult campaign(FaultAttackEvaluator& f) {
    const auto attack = f.subblock_attack_model(1.5, 50);
    Rng rng(42);
    auto sampler = f.make_importance_sampler(attack);
    return f.evaluator().run(*sampler, rng, 400);
  }

  static void expect_identical(const mc::SsfResult& a, const mc::SsfResult& b) {
    EXPECT_EQ(a.ssf(), b.ssf());
    EXPECT_EQ(a.sample_variance(), b.sample_variance());
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.analytical, b.analytical);
    EXPECT_EQ(a.rtl, b.rtl);
    EXPECT_EQ(a.bit_contribution, b.bit_contribution);
    EXPECT_EQ(a.field_contribution, b.field_contribution);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(PrecharacCacheTest, ColdWritesWarmLoadsBitwiseIdentical) {
  FaultAttackEvaluator cold(soc::make_illegal_write_benchmark(),
                            cache_config());
  EXPECT_EQ(cold.precharac_cache().outcome, "miss");
  EXPECT_TRUE(cold.precharac_cache().stored);
  EXPECT_EQ(cold.metrics().counter("precharac.cache_miss"), 1u);
  EXPECT_EQ(cold.metrics().counter("precharac.cache_saved"), 1u);
  ASSERT_TRUE(std::filesystem::exists(path_));

  FaultAttackEvaluator warm(soc::make_illegal_write_benchmark(),
                            cache_config());
  EXPECT_EQ(warm.precharac_cache().outcome, "hit");
  EXPECT_FALSE(warm.precharac_cache().stored);
  EXPECT_EQ(warm.metrics().counter("precharac.cache_hit"), 1u);

  // Cache-off (the shared fixture), cold-write and warm-load must produce
  // bitwise-identical campaigns — the cache may never change an answer.
  const auto off_res = campaign(fw());
  auto cold_res = campaign(cold);
  auto warm_res = campaign(warm);
  expect_identical(off_res, cold_res);
  expect_identical(off_res, warm_res);
}

TEST_F(PrecharacCacheTest, CorruptArtifactRecomputesAndRewrites) {
  FaultAttackEvaluator cold(soc::make_illegal_write_benchmark(),
                            cache_config());
  ASSERT_TRUE(cold.precharac_cache().stored);
  // Flip one byte deep in the body (past the 28-byte header).
  Result<std::string> bytes = io::read_file(path_);
  ASSERT_TRUE(bytes.is_ok());
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x10);
  ASSERT_TRUE(io::atomic_write_file(path_, mutated).is_ok());

  FaultAttackEvaluator recovered(soc::make_illegal_write_benchmark(),
                                 cache_config());
  EXPECT_EQ(recovered.precharac_cache().outcome, "corrupt");
  EXPECT_TRUE(recovered.precharac_cache().stored);  // rewrote a good artifact
  EXPECT_EQ(recovered.metrics().counter("precharac.cache_corrupt"), 1u);
  expect_identical(campaign(fw()), campaign(recovered));

  // The rewrite restored a loadable artifact.
  FaultAttackEvaluator warm(soc::make_illegal_write_benchmark(),
                            cache_config());
  EXPECT_EQ(warm.precharac_cache().outcome, "hit");
}

TEST_F(PrecharacCacheTest, MisorderedConeFrameIsCorruptAndRecomputed) {
  // Checksum-clean artifacts under the right fingerprint whose cone frames
  // break the extraction convention: a frame index out of sequence, and
  // member ids out of order. Each must read as corrupt and be rewritten,
  // never throw out of the cone's constructor.
  FaultAttackEvaluator cold(soc::make_illegal_write_benchmark(),
                            cache_config());
  ASSERT_TRUE(cold.precharac_cache().stored);
  const std::uint64_t fingerprint =
      precharac::precharac_fingerprint(cold.precharac_key());
  precharac::ArtifactLoad load = precharac::load_artifact(path_, fingerprint);
  ASSERT_EQ(load.outcome, precharac::ArtifactOutcome::kHit);
  const precharac::PrecharacBundle good = std::move(load.bundle);
  ASSERT_GT(good.fanin_frames.size(), 3u);
  ASSERT_GE(good.fanin_frames[3].gates.size(), 2u);

  precharac::PrecharacBundle misnumbered = good;
  misnumbered.fanin_frames[3].frame = 4;
  precharac::PrecharacBundle unsorted = good;
  std::swap(unsorted.fanin_frames[3].gates[0],
            unsorted.fanin_frames[3].gates[1]);
  const std::pair<const precharac::PrecharacBundle*, std::string> cases[] = {
      {&misnumbered, "cone frame index out of sequence"},
      {&unsorted, "cone gate ids not strictly ascending"},
  };
  for (const auto& [bundle, detail] : cases) {
    ASSERT_TRUE(
        precharac::save_artifact(path_, fingerprint, "test", *bundle).is_ok());
    FaultAttackEvaluator recovered(soc::make_illegal_write_benchmark(),
                                   cache_config());
    EXPECT_EQ(recovered.precharac_cache().outcome, "corrupt") << detail;
    EXPECT_EQ(recovered.precharac_cache().detail, detail);
    EXPECT_TRUE(recovered.precharac_cache().stored);  // rewrote
    expect_identical(campaign(fw()), campaign(recovered));
  }

  FaultAttackEvaluator warm(soc::make_illegal_write_benchmark(),
                            cache_config());
  EXPECT_EQ(warm.precharac_cache().outcome, "hit");
}

TEST_F(PrecharacCacheTest, DifferentConfigIsStaleNotCorrupt) {
  FaultAttackEvaluator cold(soc::make_illegal_write_benchmark(),
                            cache_config());
  ASSERT_TRUE(cold.precharac_cache().stored);
  FrameworkConfig changed = cache_config();
  changed.characterization.horizon += 1;  // changes the fingerprint
  FaultAttackEvaluator stale(soc::make_illegal_write_benchmark(), changed);
  EXPECT_EQ(stale.precharac_cache().outcome, "stale");
  EXPECT_TRUE(stale.precharac_cache().stored);  // last writer wins
  EXPECT_EQ(stale.metrics().counter("precharac.cache_stale"), 1u);
}

TEST_F(PrecharacCacheTest, VersionOneArtifactIsStaleAndRewritten) {
  // A version-1 artifact (the header layout before record-log frames):
  // magic, u32 version 1, then a header and sections this build no longer
  // reads. The version gate must classify it as stale, never corrupt.
  std::string v1("FAVPCA1\0", 8);
  const std::uint32_t version = 1;
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1.append(16, '\x5A');  // fingerprint, section count, header CRC
  ASSERT_TRUE(io::atomic_write_file(path_, v1).is_ok());
  EXPECT_EQ(precharac::load_artifact(path_, 0).outcome,
            precharac::ArtifactOutcome::kStale);

  FaultAttackEvaluator upgraded(soc::make_illegal_write_benchmark(),
                                cache_config());
  EXPECT_EQ(upgraded.precharac_cache().outcome, "stale");
  EXPECT_TRUE(upgraded.precharac_cache().stored);
  FaultAttackEvaluator warm(soc::make_illegal_write_benchmark(),
                            cache_config());
  EXPECT_EQ(warm.precharac_cache().outcome, "hit");
}

TEST_F(PrecharacCacheTest, HeldLockDegradesToUnlockedElaboration) {
  // A peer that wedges while holding the elaboration lock must cost this
  // process only the bounded wait, never correctness or a deadlock.
  io::FileLock peer;
  ASSERT_TRUE(peer.acquire(path_ + ".lock", 1000).is_ok());
  FrameworkConfig cfg = cache_config();
  cfg.precharac_cache_lock_timeout_ms = 50;
  FaultAttackEvaluator unlocked(soc::make_illegal_write_benchmark(), cfg);
  EXPECT_EQ(unlocked.precharac_cache().outcome, "miss");
  EXPECT_TRUE(unlocked.precharac_cache().stored);
  EXPECT_EQ(unlocked.metrics().counter("precharac.cache_lock_timeouts"), 1u);
  expect_identical(campaign(fw()), campaign(unlocked));
}

TEST(Framework, ReadBenchmarkAlsoWorks) {
  FaultAttackEvaluator read_fw(soc::make_illegal_read_benchmark());
  EXPECT_GT(read_fw.target_cycle(), 50u);
  const auto attack = read_fw.subblock_attack_model(1.5, 50);
  Rng rng(5);
  auto importance = read_fw.make_importance_sampler(attack);
  const auto res = read_fw.evaluator().run(*importance, rng, 400);
  EXPECT_GT(res.successes, 0u);
  EXPECT_GT(res.ssf(), 0.0);
}

}  // namespace
}  // namespace fav::core
