// Degraded-I/O behavior of the campaign write path: injected transient
// errors must be absorbed by the retry discipline, and injected ENOSPC/EIO
// must surface as kStorageFull and stop a journaled campaign gracefully —
// partial, resumable, never corrupt (util/io.h ChaosFile).
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "faultsim/glitch.h"
#include "mc/evaluator.h"
#include "mc/journal.h"
#include "soc/benchmark.h"
#include "util/io.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  faultsim::GlitchSimulator glitch{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;
  SsfEvaluator evaluator;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        evaluator(soc, placement, injector, bench, golden, &charac) {}
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::AttackModel test_attack() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  return attack;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_dio_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

JournalOptions test_options(const std::string& dir, bool resume) {
  JournalOptions o;
  o.dir = dir;
  o.resume = resume;
  o.shard_size = 32;
  o.fingerprint = 0xFEEDFACE;
  o.context = "degraded_io_test";
  return o;
}

SampleRecord make_record(int i) {
  SampleRecord rec;
  rec.sample.t = 3 + i;
  rec.sample.center = static_cast<netlist::NodeId>(17 * i + 1);
  rec.sample.weight = 0.5 + i;
  rec.te = 100 + static_cast<std::uint64_t>(i);
  rec.path = OutcomePath::kRtl;
  rec.success = (i % 2 == 0);
  rec.contribution = 0.125 * i;
  return rec;
}

class DegradedIoTest : public ::testing::Test {
 protected:
  void SetUp() override { io::chaos_reset(); }
  void TearDown() override { io::chaos_reset(); }
};

// The journal writer issues exactly one physical write for the header and
// one per appended frame, so chaos ordinals address them directly.
TEST_F(DegradedIoTest, HeaderWriteEnospcIsStorageFull) {
  const std::string dir = fresh_dir("header_enospc");
  io::ChaosFile chaos;
  chaos.fail_write_at = 1;  // the header
  io::chaos_install(chaos);
  JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = 4;
  JournalWriter w;
  const Status opened = w.open_fresh(dir, meta);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.code(), ErrorCode::kStorageFull);
}

TEST_F(DegradedIoTest, FrameWriteEnospcIsStorageFullAndKeepsPrefix) {
  const std::string dir = fresh_dir("frame_enospc");
  JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = 8;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 8; ++i) recs.push_back(make_record(i));
  JournalWriter w;
  ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
  ASSERT_TRUE(w.append_shard(0, recs.data(), 4).is_ok());
  io::ChaosFile chaos;
  chaos.fail_write_at = 1;  // ordinals count from install: the next frame
  io::chaos_install(chaos);
  const Status failed = w.append_shard(4, recs.data() + 4, 4);
  io::chaos_reset();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kStorageFull);
  // The journaled prefix must still read back cleanly (a torn tail is
  // tolerated; the committed frame is intact).
  Result<JournalShards> read = JournalReader::read_shards(dir, "campaign.fj");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().spans.size(), 1u);
  EXPECT_EQ(read.value().spans[0].records.size(), 4u);
}

TEST_F(DegradedIoTest, TransientWriteErrorIsAbsorbedByRetry) {
  const std::string dir = fresh_dir("transient");
  io::ChaosFile chaos;
  chaos.fail_write_at = 2;  // first frame, once
  chaos.error = EINTR;
  chaos.sticky = false;
  io::chaos_install(chaos);
  JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = 4;
  std::vector<SampleRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(make_record(i));
  JournalWriter w;
  ASSERT_TRUE(w.open_fresh(dir, meta).is_ok());
  ASSERT_TRUE(w.append_shard(0, recs.data(), 4).is_ok());
  io::chaos_reset();
  Result<JournalShards> read = JournalReader::read_shards(dir, "campaign.fj");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_EQ(read.value().spans.size(), 1u);
  EXPECT_EQ(read.value().spans[0].records.size(), 4u);
}

TEST_F(DegradedIoTest, FsyncEioIsStorageFull) {
  const std::string dir = fresh_dir("fsync_eio");
  io::ChaosFile chaos;
  chaos.fail_fsync_at = 1;
  chaos.error = EIO;
  io::chaos_install(chaos);
  JournalMeta meta;
  meta.fingerprint = 1;
  meta.total_samples = 1;
  JournalWriter w;
  const Status opened = w.open_fresh(dir, meta);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.code(), ErrorCode::kStorageFull);
}

// A journaled campaign that hits ENOSPC mid-run stops gracefully: the
// result covers the journaled prefix, is marked interrupted, and a resume
// (with space restored) reproduces the uninterrupted run bit for bit. Both
// a sampled campaign and an exhaustive sweep.
TEST_F(DegradedIoTest, EnospcMidCampaignStopsGracefullyAndResumes) {
  const auto attack = test_attack();
  faultsim::GlitchTechnique glitch(ctx().glitch,
                                   faultsim::TechniqueKind::kClockGlitch);
  faultsim::GlitchAttackModel model(faultsim::TechniqueKind::kClockGlitch);
  model.t_min = 1;
  model.t_max = 20;
  model.levels = {0.4, 0.7};
  glitch.bind_space(model);
  const SsfEvaluator sweeper(ctx().soc, glitch, ctx().bench, ctx().golden,
                             &ctx().charac);

  for (const bool exhaustive : {false, true}) {
    SCOPED_TRACE(exhaustive ? "run_exhaustive_journaled" : "run_journaled");
    auto run = [&](const JournalOptions& options) {
      if (exhaustive) return sweeper.run_exhaustive_journaled(options);
      RandomSampler sampler(attack);
      Rng rng(47);
      return ctx().evaluator.run_journaled(sampler, rng, 96, options);
    };
    SsfResult reference;
    if (exhaustive) {
      reference = sweeper.run_exhaustive();
    } else {
      RandomSampler ref_sampler(attack);
      Rng ref_rng(47);
      reference = ctx().evaluator.run(ref_sampler, ref_rng, 96);
    }

    const auto dir = fresh_dir(exhaustive ? "enospc_sweep" : "enospc_resume");
    io::ChaosFile chaos;
    chaos.fail_write_at = 3;  // header, shard 1 land; shard 2 hits the wall
    io::chaos_install(chaos);
    Result<SsfResult> partial = run(test_options(dir, false));
    io::chaos_reset();
    ASSERT_TRUE(partial.is_ok()) << partial.status().to_string();
    EXPECT_TRUE(partial.value().interrupted);
    EXPECT_EQ(partial.value().evaluated, 32u);  // exactly the journaled shard

    Result<SsfResult> resumed = run(test_options(dir, true));
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_FALSE(resumed.value().interrupted);
    EXPECT_EQ(resumed.value().evaluated, reference.evaluated);
    EXPECT_EQ(resumed.value().ssf(), reference.ssf());
    EXPECT_EQ(resumed.value().sample_variance(), reference.sample_variance());
    EXPECT_EQ(resumed.value().successes, reference.successes);
    EXPECT_EQ(resumed.value().masked, reference.masked);
    EXPECT_EQ(resumed.value().analytical, reference.analytical);
    EXPECT_EQ(resumed.value().rtl, reference.rtl);
    EXPECT_EQ(resumed.value().bit_contribution, reference.bit_contribution);
  }
}

}  // namespace
}  // namespace fav::mc
