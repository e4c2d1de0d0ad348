#include "precharac/characterize.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace fav::precharac {

using rtl::Machine;
using rtl::RegisterMap;

RegisterCharacterization::RegisterCharacterization(
    const CharacterizationConfig& config,
    std::vector<BitCharacterization> bits, std::vector<char> done)
    : config_(config), bits_(std::move(bits)), done_(std::move(done)) {
  const auto total =
      static_cast<std::size_t>(Machine::reg_map().total_bits());
  FAV_ENSURE_MSG(bits_.size() == total && done_.size() == total,
                "characterization size does not match the register map");
}

RegisterCharacterization::RegisterCharacterization(
    const rtl::GoldenRun& golden, const CharacterizationConfig& config,
    std::vector<int> bits)
    : config_(config) {
  FAV_ENSURE(config.horizon > 0);
  FAV_ENSURE(config.stride > 0);
  const RegisterMap& map = Machine::reg_map();
  bits_.resize(static_cast<std::size_t>(map.total_bits()));
  done_.assign(static_cast<std::size_t>(map.total_bits()), 0);

  if (bits.empty()) {
    bits.resize(static_cast<std::size_t>(map.total_bits()));
    for (int i = 0; i < map.total_bits(); ++i) {
      bits[static_cast<std::size_t>(i)] = i;
    }
  }
  for (const int flat : bits) {
    FAV_ENSURE_MSG(flat >= 0 && flat < map.total_bits(),
                  "flat bit " << flat << " out of range");
    char& done = done_[static_cast<std::size_t>(flat)];
    FAV_ENSURE_MSG(done == 0, "flat bit " << flat << " listed twice");
    done = 1;
  }

  // Cycles outer, bits inner: each injection cycle is restored once into one
  // machine, and every bit resumes from there after resetting the state and
  // cycle and rolling back the RAM writes of the previous bit's run. Each
  // bit still accumulates its cycles in ascending order.
  const std::uint64_t length = golden.length();
  Machine m(golden.program());
  for (std::uint64_t c = config.first_cycle; c < length; c += config.stride) {
    std::uint64_t warmup = 0;
    golden.restore_into(m, c, &warmup);
    ++restores_;
    steps_ += warmup;
    const rtl::ArchState restored = m.state();
    m.mutable_ram().start_log();
    for (const int flat : bits) {
      m.set_state(restored);
      m.set_cycle(c);
      m.mutable_ram().rollback();
      map.flip_bit(m.mutable_state(), flat);
      const std::uint64_t origin = std::uint64_t{1} << map.locate(flat).first;

      // A faulty run that outlives the golden one is compared against its
      // final state.
      double lifetime = static_cast<double>(config.horizon);
      std::uint64_t contaminated = 0;  // fields other than the origin's
      for (std::uint64_t k = 0; k < config.horizon; ++k) {
        const rtl::ArchState& gold = golden.state_at(std::min(c + k, length));
        const std::uint64_t diff = map.diff_fields(m.state(), gold);
        if (diff == 0) {
          lifetime = static_cast<double>(k);
          break;
        }
        contaminated |= diff & ~origin;
        m.step();
        ++steps_;
      }

      auto& bc = bits_[static_cast<std::size_t>(flat)];
      bc.avg_lifetime += lifetime;
      bc.max_lifetime = std::max(bc.max_lifetime, lifetime);
      bc.avg_contamination += static_cast<double>(std::popcount(contaminated));
      ++bc.samples;
    }
  }

  for (const int flat : bits) {
    auto& bc = bits_[static_cast<std::size_t>(flat)];
    if (bc.samples > 0) {
      bc.avg_lifetime /= bc.samples;
      bc.avg_contamination /= bc.samples;
    }
  }
}

bool RegisterCharacterization::characterized(int flat_bit) const {
  FAV_ENSURE(flat_bit >= 0 &&
            flat_bit < static_cast<int>(done_.size()));
  return done_[static_cast<std::size_t>(flat_bit)] != 0;
}

const BitCharacterization& RegisterCharacterization::bit(int flat_bit) const {
  FAV_ENSURE_MSG(characterized(flat_bit),
                "bit " << flat_bit << " was not characterized");
  return bits_[static_cast<std::size_t>(flat_bit)];
}

bool RegisterCharacterization::is_memory_type(int flat_bit) const {
  if (!characterized(flat_bit)) return false;
  const auto& bc = bits_[static_cast<std::size_t>(flat_bit)];
  return bc.samples > 0 &&
         bc.avg_lifetime >= config_.lifetime_threshold &&
         bc.avg_contamination <= config_.contamination_threshold;
}

std::vector<int> RegisterCharacterization::memory_type_bits() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(bits_.size()); ++i) {
    if (is_memory_type(i)) out.push_back(i);
  }
  return out;
}

double RegisterCharacterization::lifetime(int flat_bit) const {
  if (!characterized(flat_bit)) return 0.0;
  return bits_[static_cast<std::size_t>(flat_bit)].avg_lifetime;
}

}  // namespace fav::precharac
