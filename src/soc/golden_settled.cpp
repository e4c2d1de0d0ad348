#include "soc/golden_settled.h"

#include "util/check.h"

namespace fav::soc {

GoldenSettledTable::GoldenSettledTable(const SocNetlist& soc,
                                       const rtl::GoldenRun& golden)
    : soc_(&soc), golden_(&golden), rows_(golden.length() + 1) {}

const GoldenSettledTable::Row& GoldenSettledTable::row(
    std::uint64_t te, rtl::Machine& machine, GateLevelMachine& gate,
    bool* built) {
  FAV_ENSURE_MSG(te < rows_.size(), "cycle " << te << " beyond golden run");
  std::lock_guard<std::mutex> lock(mu_);
  if (built != nullptr) *built = false;
  if (!rows_[te].values.empty()) return rows_[te];
  Row row;
  golden_->restore_into(machine, te, &row.warmup);
  row.halted = machine.halted();
  gate.load_state(machine.state());
  gate.mutable_ram() = machine.ram();
  gate.settle_inputs();
  const netlist::LogicSimulator& sim = gate.sim();
  const std::size_t nodes = soc_->netlist().node_count();
  row.values = BitVector(nodes);
  for (std::size_t id = 0; id < nodes; ++id) {
    if (sim.value(static_cast<netlist::NodeId>(id))) row.values.set(id, true);
  }
  rows_[te] = std::move(row);
  if (built != nullptr) *built = true;
  return rows_[te];
}

}  // namespace fav::soc
