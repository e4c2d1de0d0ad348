#include "soc/gate_machine.h"

namespace fav::soc {

using rtl::RegisterMap;

GateLevelMachine::GateLevelMachine(const SocNetlist& soc,
                                   const rtl::Program& program)
    : soc_(&soc), program_(&program), sim_(soc.netlist()) {
  reset();
}

void GateLevelMachine::reset() {
  ram_ = rtl::Memory{};
  for (const auto& [addr, value] : program_->ram_init) ram_.write(addr, value);
  load_state(rtl::ArchState{});
  cycle_ = 0;
}

std::uint16_t GateLevelMachine::read_output_word(const gen::Word& w) const {
  return static_cast<std::uint16_t>(
      gen::read_word(w, [&](netlist::NodeId id) { return sim_.value(id); }));
}

void GateLevelMachine::settle_inputs() {
  ++total_settles_;
  const SocPorts& p = soc_->ports();
  // Pass 1: fetch. The PC is a register, readable before evaluation.
  const std::uint16_t pc = static_cast<std::uint16_t>(
      gen::read_word(p.pc, [&](netlist::NodeId id) { return sim_.value(id); }));
  const std::uint16_t instr = program_->fetch(pc);
  for (std::size_t i = 0; i < 16; ++i) {
    sim_.set_input(p.instr[i], (instr >> i) & 1);
  }
  sim_.evaluate_comb();
  // Pass 2: combinational RAM read at the computed address.
  const std::uint16_t addr = read_output_word(p.mem_addr);
  const std::uint16_t rdata = ram_.read(addr);
  for (std::size_t i = 0; i < 16; ++i) {
    sim_.set_input(p.mem_rdata[i], (rdata >> i) & 1);
  }
  sim_.evaluate_comb();
}

void GateLevelMachine::broadcast_settled(netlist::WordSimulator& words) const {
  words.broadcast_from(sim_);
}

rtl::StepInfo GateLevelMachine::step() {
  settle_inputs();
  const SocPorts& p = soc_->ports();

  rtl::StepInfo info;
  info.instr = rtl::Instr{program_->fetch(read_output_word(p.pc))};
  info.mem_addr = read_output_word(p.mem_addr);
  info.mem_wdata = read_output_word(p.mem_wdata);
  info.mem_read = sim_.value(p.mem_read);
  info.mem_write = sim_.value(p.mem_write);
  info.mpu_viol = sim_.value(p.mpu_viol);
  if (info.mem_read) info.mem_rdata = ram_.read(info.mem_addr);

  if (info.mem_write) {
    ram_.write(info.mem_addr, info.mem_wdata);
    info.mem_write_done = true;
  }
  // DMA transfer (after the core's write, matching the behavioural model):
  // the moved word never enters the netlist — the testbench RAM routes it.
  info.dma_read = sim_.value(p.dma_transfer);
  if (info.dma_read) {
    info.dma_addr_src = read_output_word(p.dma_src);
    info.dma_addr_dst = read_output_word(p.dma_dst);
    if (sim_.value(p.dma_write)) {
      ram_.write(info.dma_addr_dst, ram_.read(info.dma_addr_src));
      info.dma_write_done = true;
    } else {
      info.dma_viol = true;
    }
  }
  sim_.clock_edge();
  ++cycle_;
  return info;
}

std::uint64_t GateLevelMachine::run(std::uint64_t cycles) {
  std::uint64_t done = 0;
  while (done < cycles && !halted()) {
    step();
    ++done;
  }
  return done;
}

bool GateLevelMachine::halted() const {
  return sim_.value(soc_->ports().halted);
}

rtl::ArchState GateLevelMachine::extract_state() const {
  const RegisterMap& map = SocNetlist::reg_map();
  rtl::ArchState s;
  for (int bit = 0; bit < map.total_bits(); ++bit) {
    map.set_bit(s, bit, sim_.value(soc_->dff_for_bit(bit)));
  }
  return s;
}

void GateLevelMachine::load_state(const rtl::ArchState& state) {
  const RegisterMap& map = SocNetlist::reg_map();
  for (int bit = 0; bit < map.total_bits(); ++bit) {
    sim_.set_register(soc_->dff_for_bit(bit), map.get_bit(state, bit));
  }
}

}  // namespace fav::soc
