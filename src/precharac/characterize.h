// Register characterization: error lifetime and error contamination number
// (paper Section 4, Observation 3 / step 3).
//
// For every sequential bit, bit errors are injected at a sweep of cycles of
// a synthetic workload (fast RTL-level simulation); for each injection we
// measure:
//  * error lifetime  — cycles until the register state re-converges to the
//    golden trajectory (capped at a horizon; the cap reads as "long/infinite"),
//  * contamination   — number of *other* architectural registers that ever
//    diverge from golden before re-convergence.
// Registers with long lifetime and ~zero contamination are classified as
// memory-type (their attack outcome is evaluated analytically); the rest are
// computation-type (sampled).
//
// The sweep restores each injection cycle once into one machine and resumes
// every bit from it: the bit's run is undone by resetting the architectural
// state and cycle and rolling back the RAM's write log (rtl::Memory), and
// each step is compared with the golden run field by field
// (RegisterMap::diff_fields), so no 128 KB machine is built or copied per
// injection and no state is packed per step.
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/golden.h"
#include "rtl/machine.h"

namespace fav::precharac {

struct CharacterizationConfig {
  /// Forward-simulation horizon per injection; lifetimes cap here.
  std::uint64_t horizon = 200;
  /// Injection cycles: first_cycle, first_cycle + stride, ...
  std::uint64_t first_cycle = 2;
  std::uint64_t stride = 13;
  /// Classification thresholds (Observation 3: "long lifetime and
  /// close-to-0 contamination number").
  double lifetime_threshold = 100.0;
  double contamination_threshold = 0.5;
};

struct BitCharacterization {
  double avg_lifetime = 0.0;
  double max_lifetime = 0.0;
  double avg_contamination = 0.0;
  int samples = 0;
};

class RegisterCharacterization {
 public:
  /// Characterizes the given flat register-map bits (all bits if empty)
  /// against `golden` (the synthetic-workload golden run). Throws
  /// CheckError on a bit out of range or listed twice.
  RegisterCharacterization(const rtl::GoldenRun& golden,
                           const CharacterizationConfig& config = {},
                           std::vector<int> bits = {});

  /// Rebuilds a characterization from previously measured per-bit results
  /// (the artifact-cache load path); both vectors are indexed by flat bit
  /// and must cover the full register map.
  RegisterCharacterization(const CharacterizationConfig& config,
                           std::vector<BitCharacterization> bits,
                           std::vector<char> done);

  const CharacterizationConfig& config() const { return config_; }

  bool characterized(int flat_bit) const;
  const BitCharacterization& bit(int flat_bit) const;

  /// Memory-type test per the thresholds; bits that were not characterized
  /// are conservatively computation-type.
  bool is_memory_type(int flat_bit) const;
  std::vector<int> memory_type_bits() const;

  /// Lifetime assigned to a bit for the sampling weights' L(g): average
  /// lifetime, or 0 for uncharacterized bits.
  double lifetime(int flat_bit) const;

  /// Raw per-bit storage, indexed by flat bit (artifact serialization).
  const std::vector<BitCharacterization>& raw_bits() const { return bits_; }
  const std::vector<char>& raw_done() const { return done_; }

  /// Work of the measuring constructor (both 0 for a loaded one): checkpoint
  /// restores, one per injection cycle, and RTL cycles simulated, warm-ups
  /// included.
  std::uint64_t restores() const { return restores_; }
  std::uint64_t steps() const { return steps_; }

 private:
  CharacterizationConfig config_;
  std::vector<BitCharacterization> bits_;  // indexed by flat bit
  std::vector<char> done_;
  std::uint64_t restores_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace fav::precharac
