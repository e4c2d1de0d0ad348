// Sampling strategies compared in the paper's Fig. 9:
//  * RandomSampler     — draws directly from the holistic model f_{T,P},
//  * ConeSampler       — restricts the spatial parameter to the responding
//                        signal's fanin/fanout cones (Observation 1 only),
//  * ImportanceSampler — the full pre-characterization-driven g_{T,P}
//                        (Observations 1+2+3).
// Every sampler returns FaultSamples carrying the importance weight f/g so
// the downstream estimator is strategy-agnostic.
#pragma once

#include <memory>
#include <string>

#include "faultsim/attack_model.h"
#include "faultsim/glitch.h"
#include "layout/placement.h"
#include "netlist/cones.h"
#include "precharac/sampling_model.h"

namespace fav::mc {

class Sampler {
 public:
  virtual ~Sampler() = default;
  virtual faultsim::FaultSample draw(Rng& rng) = 0;
  virtual const std::string& name() const = 0;
};

/// Plain Monte Carlo over f_{T,P}.
class RandomSampler final : public Sampler {
 public:
  explicit RandomSampler(const faultsim::AttackModel& attack);
  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

 private:
  const faultsim::AttackModel* attack_;
  std::string name_ = "random";
};

/// Uniform sampling restricted to the responding-signal cones: a candidate
/// center stays in frame t's support iff its radiated spot covers a gate of
/// frame t or a register of frame t-1 (the cells whose fault at Te = Tt - t
/// can influence the responding signal).
class ConeSampler final : public Sampler {
 public:
  ConeSampler(const faultsim::AttackModel& attack,
              const netlist::UnrolledCone& cone,
              const layout::Placement& placement);
  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

 private:
  const faultsim::AttackModel* attack_;
  std::string name_ = "fanin_cone";
  struct Frame {
    int t = 0;
    std::vector<netlist::NodeId> centers;
  };
  std::vector<Frame> frames_;  // frames with non-empty support only
};

/// Plain Monte Carlo over a glitch holistic model f_{T,P}: t and the level
/// uniform over the model's grid, weight 1. Named "glitch-uniform" for clock
/// glitch and "voltage-uniform" for voltage glitch (the names feed campaign
/// fingerprints and journal contexts). Construction validates the model
/// against the benchmark's target cycle — a timing range past Tt has no
/// cycle to glitch and is rejected up front rather than diluted into the
/// estimate as always-masked samples.
class GlitchSampler final : public Sampler {
 public:
  GlitchSampler(const faultsim::GlitchAttackModel& model,
                std::uint64_t target_cycle);
  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

 private:
  faultsim::GlitchAttackModel model_;  // by value: cheap, caller-decoupled
  std::string name_;
};

/// The full importance-sampling strategy of Section 4.
class ImportanceSampler final : public Sampler {
 public:
  explicit ImportanceSampler(const precharac::SamplingModel& model);
  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

 private:
  const precharac::SamplingModel* model_;
  std::string name_ = "importance";
};

}  // namespace fav::mc
