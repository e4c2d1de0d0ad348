// Technique-generic attack abstraction (paper Section 3.2).
//
// The holistic fault model is parameterized by the concrete fault-injection
// technique: the cross-level evaluation flow (restore -> settle the injection
// cycle at gate level -> latch the errors -> classify at RTL level) is
// identical for every technique, and only the step that turns a sample's
// technique parameters into latched register flips differs. AttackTechnique
// is that step: given the settled gate-level values of the injection cycle
// and a FaultSample, it produces the set of DFFs whose latched value flipped,
// for up to 64 samples in one word-parallel call (flip_set_batch, the only
// flip-set path). Everything around it — worker pool, scratch reuse, budgets,
// isolation, journaled resume, metrics — lives once in mc::SsfEvaluator and
// is inherited by every technique (the SYNFI-style "one analysis core, many
// fault models" layering).
//
// Implementations are immutable after construction and shared read-only
// across worker threads; all per-sample mutable state lives in the
// TechniqueScratch the caller passes in (one per thread).
//
// The flip set is expressed in netlist DFF node ids: like InjectionSimulator,
// techniques are generic over any netlist, and the SoC binding (DFF -> flat
// register-map bit) stays in the Monte Carlo layer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faultsim/attack_model.h"
#include "faultsim/injection.h"
#include "layout/placement.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

/// Per-worker memo of radiated spots: the struck list of each distinct
/// (center, exact radius bit pattern) a worker has queried, exactly as
/// Placement::nodes_within returns it. A campaign revisits each spot once
/// per injection cycle, so each is computed once per worker. The table is
/// tied to one placement: a query against another one clears it first.
class SpotTable {
 public:
  /// The spot's struck cells, computed on its first query. The view stays
  /// valid until the table is cleared (moving a list keeps its storage).
  std::span<const netlist::NodeId> struck(const layout::Placement& placement,
                                          netlist::NodeId center,
                                          double radius);

  /// Spot lists computed rather than reused, over the table's life.
  std::uint64_t computed() const { return computed_; }

 private:
  struct Spot {
    std::uint64_t radius_bits = 0;
    std::vector<netlist::NodeId> nodes;
  };
  const layout::Placement* placement_ = nullptr;
  std::vector<std::vector<Spot>> by_center_;  // indexed by center node id
  std::uint64_t computed_ = 0;
};

/// Reusable per-thread buffers for flip_set_batch(): each lane's struck list
/// is a view into `spots`. Not thread-safe: one scratch per worker thread.
struct TechniqueScratch {
  BatchInjectionScratch batch;
  SpotTable spots;
  std::vector<std::span<const netlist::NodeId>> struck_lanes;
  std::vector<double> strike_times;
};

class AttackTechnique {
 public:
  virtual ~AttackTechnique() = default;

  virtual TechniqueKind kind() const = 0;
  const char* name() const { return technique_kind_name(kind()); }

  /// Human-readable description of the technique parameter vector p — which
  /// FaultSample fields carry it — for logs and run reports.
  virtual std::string parameter_space() const = 0;

  /// Validates the sample against this technique's parameter space. Throws
  /// EnsureError on a foreign technique tag or out-of-range parameters; the
  /// campaign isolation layer turns that into a kFailed record.
  virtual void check_sample(const FaultSample& sample) const = 0;

  /// DFFs whose latched value flips during the injection cycle, for up to
  /// 64 samples at once: lane l of `sim` holds the settled values of
  /// samples[l]'s injection cycle (soc::GateLevelMachine::settle_inputs;
  /// lanes may come from different cycles), and lane l evaluates
  /// `samples[l]`. On return `flipped[l]` holds lane l's flipped DFFs
  /// (sorted, unique node ids). Deterministic: the same (lane values,
  /// sample) yields the same flip set in every lane of every call. This is
  /// the library's one flip-set path; the scalar model it must match bit
  /// for bit is a test oracle (tests/faultsim/scalar_flip_set.h).
  virtual void flip_set_batch(const netlist::WordSimulator& sim,
                              TechniqueScratch& scratch,
                              std::span<const FaultSample> samples,
                              std::vector<std::vector<netlist::NodeId>>&
                                  flipped) const = 0;

  /// flip_set_batch() for one sample on a scalar simulator's settled values
  /// (`flipped` is overwritten). Exists only for the benchmark's traced
  /// replay (perfbench/favbench.cpp) and goes with it.
  void flip_set(const netlist::LogicSimulator& sim, TechniqueScratch& scratch,
                const FaultSample& sample,
                std::vector<netlist::NodeId>& flipped) const;

  /// Always true; kept only because the benchmark replay still calls it.
  bool supports_batch() const { return true; }

  /// --- enumerable fault space -------------------------------------------
  /// Number of points in the technique's bound fault space; 0 means no
  /// space is bound and the exhaustive driver must reject. Each concrete
  /// technique exposes a bind_space(model) setter that defines the grid;
  /// binding is NOT thread-safe — bind before the technique is shared with
  /// worker threads, never during a run.
  virtual std::uint64_t space_size() const { return 0; }

  /// Writes the samples at enumeration indices [begin, end) into `out`
  /// (overwritten). The mapping index -> FaultSample is deterministic and
  /// index-stable: independent of chunking, thread count and process
  /// boundaries, which is the contract journaled resume and supervised
  /// sharding key on (DESIGN.md §6l). Enumeration is t-major so equal-t
  /// (equal injection cycle) samples are consecutive and the engine's
  /// word-parallel batcher packs full lanes. Every emitted sample carries
  /// weight 1.0 — an exhaustive sweep averages the uniform holistic model
  /// exactly. Throws unless [begin, end) lies inside the bound space.
  virtual void enumerate(std::uint64_t begin, std::uint64_t end,
                         std::vector<FaultSample>& out) const = 0;

 protected:
  /// Technique-independent sample checks shared by every implementation.
  void check_common(const FaultSample& sample) const;
  /// Shared by every enumerate(): [begin, end) must sit inside the bound
  /// space.
  void check_enumeration_range(std::uint64_t begin, std::uint64_t end) const;
};

/// The paper's radiation instance p = [g, r]: a radiated spot upsets struck
/// DFFs directly and seeds transients in struck combinational gates, which
/// propagate to the registers under logical/electrical/latching-window
/// masking (see faultsim/injection.h).
class RadiationTechnique final : public AttackTechnique {
 public:
  /// References must outlive the technique.
  RadiationTechnique(const layout::Placement& placement,
                     const InjectionSimulator& injector);

  TechniqueKind kind() const override { return TechniqueKind::kRadiation; }
  std::string parameter_space() const override;
  void check_sample(const FaultSample& sample) const override;
  void flip_set_batch(const netlist::WordSimulator& sim,
                      TechniqueScratch& scratch,
                      std::span<const FaultSample> samples,
                      std::vector<std::vector<netlist::NodeId>>& flipped)
      const override;

  const layout::Placement& placement() const { return *placement_; }
  const InjectionSimulator& injector() const { return *injector_; }

  /// Binds the enumerable space: every (t, center, radius, strike) tuple of
  /// the model. An empty model.strike_fracs grid is normalized to the single
  /// instant {0.0} — the continuous Unif[0, 1) strike draw has no finite
  /// enumeration, so exhaustive sweeps pin the hit to the cycle start unless
  /// the model configures a grid.
  void bind_space(const AttackModel& model);
  std::uint64_t space_size() const override;
  void enumerate(std::uint64_t begin, std::uint64_t end,
                 std::vector<FaultSample>& out) const override;

 private:
  const layout::Placement* placement_;
  const InjectionSimulator* injector_;
  AttackModel space_;
  bool has_space_ = false;
};

}  // namespace fav::faultsim
