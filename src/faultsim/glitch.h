// Setup-violation fault techniques: clock glitch and voltage glitch (paper
// Section 3.2 lists clock/voltage modification alongside radiation).
//
// Both are the same physics check. For one cycle, a register whose D input
// arrives too late to meet setup holds its previous Q; the captured error is
// the difference between the correct next value and the held one, so a
// register flips iff it misses setup AND its new D differs from Q. Only the
// threshold rule differs per technique kind:
//   * clock glitch: the cycle is shortened to `depth` x the nominal period;
//   * voltage glitch: a supply droop scales every gate delay (and hence every
//     arrival time) by 1/(1 - droop) against the nominal period.
// The rule is one predicate (misses_setup in glitch.cpp) shared by the
// scalar and word-parallel flip-set paths.
//
// Unlike radiation, the outcome is a deterministic function of (cycle,
// level): the flip set needs no spatial parameters, so the fault space is a
// finite grid and exact SSF enumeration is feasible (technique.h
// enumerate()). The level rides in FaultSample::depth for both kinds, so
// journal frames and the supervisor wire protocol carry it unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faultsim/technique.h"
#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

class GlitchSimulator {
 public:
  explicit GlitchSimulator(const netlist::Netlist& nl,
                           const TimingModel& timing_model = {});

  const TimingAnalysis& timing() const { return timing_; }

  /// DFFs whose captured value is wrong under a `kind` glitch of severity
  /// `level` in (0, 1). `sim` must hold the settled values of the glitched
  /// cycle (see soc::GateLevelMachine::settle_inputs). Results are sorted by
  /// node id.
  std::vector<netlist::NodeId> flipped_dffs(const netlist::LogicSimulator& sim,
                                            TechniqueKind kind,
                                            double level) const;

  /// The slowest D-input arrival at nominal supply: clock depths above
  /// (critical_d_arrival() + setup) / period and droops below
  /// 1 - critical_d_arrival() / (period - setup) never flip anything.
  double critical_d_arrival() const { return critical_d_; }

 private:
  const netlist::Netlist* nl_;
  TimingAnalysis timing_;
  double critical_d_ = 0;
};

/// Holistic model for a glitch technique: timing distance t (as for
/// radiation) plus the severity level. Both uniform (temporal accuracy /
/// supply jitter or regulator variation).
struct GlitchAttackModel {
  /// kClockGlitch or kVoltageGlitch, with that kind's default level grid.
  explicit GlitchAttackModel(TechniqueKind kind = TechniqueKind::kClockGlitch);

  TechniqueKind kind;
  int t_min = 0;
  int t_max = 49;
  /// Clock glitch: shortened period as a fraction of the nominal period.
  /// Voltage glitch: fractional supply droop.
  std::vector<double> levels;

  int t_count() const { return t_max - t_min + 1; }

  void check_valid() const;

  /// Validation against a concrete benchmark: a timing distance beyond the
  /// target cycle Tt lands before the program starts, so there is no cycle
  /// to glitch. The engine would record such samples as masked with te = 0,
  /// quietly diluting the estimate; samplers reject the model up front.
  void check_valid(std::uint64_t target_cycle) const;
};

/// The glitch instance p = [level] of AttackTechnique, for either kind. No
/// spatial parameters; the flip set is a deterministic function of (cycle,
/// level), which makes exact SSF enumeration feasible (bind_space +
/// mc::SsfEvaluator::run_exhaustive).
class GlitchTechnique final : public AttackTechnique {
 public:
  /// The simulator must outlive the technique. `kind` is kClockGlitch or
  /// kVoltageGlitch.
  GlitchTechnique(const GlitchSimulator& glitch, TechniqueKind kind);

  TechniqueKind kind() const override { return kind_; }
  std::string parameter_space() const override;
  void check_sample(const FaultSample& sample) const override;
  void flip_set(const netlist::LogicSimulator& sim, TechniqueScratch& scratch,
                const FaultSample& sample,
                std::vector<netlist::NodeId>& flipped) const override;
  void flip_set_batch(const netlist::WordSimulator& sim,
                      TechniqueScratch& scratch,
                      std::span<const FaultSample> samples,
                      std::vector<std::vector<netlist::NodeId>>& flipped)
      const override;

  /// Binds the enumerable space: the model's full (t, level) grid. The
  /// model's kind must match the technique's.
  void bind_space(const GlitchAttackModel& model);
  std::uint64_t space_size() const override;
  void enumerate(std::uint64_t begin, std::uint64_t end,
                 std::vector<FaultSample>& out) const override;

 private:
  const GlitchSimulator* glitch_;
  TechniqueKind kind_;
  GlitchAttackModel space_;
  bool has_space_ = false;
};

}  // namespace fav::faultsim
