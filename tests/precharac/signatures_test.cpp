#include "precharac/signatures.h"

#include <gtest/gtest.h>

#include "rtl/assembler.h"
#include "soc/benchmark.h"

namespace fav::precharac {
namespace {

const soc::SocNetlist& soc() {
  static const soc::SocNetlist instance;
  return instance;
}

const SignatureTrace& synthetic_trace() {
  static const SignatureTrace trace(soc(), soc::make_synthetic_workload(),
                                    400);
  return trace;
}

TEST(SignatureTrace, RunsToWorkloadEnd) {
  const auto& trace = synthetic_trace();
  const rtl::Program workload = soc::make_synthetic_workload();
  rtl::Machine m(workload);
  m.run(400);
  EXPECT_EQ(trace.cycles(), m.cycle());
  EXPECT_GT(trace.cycles(), 50u);
}

TEST(SignatureTrace, SignaturesHaveOneBitPerCycle) {
  const auto& trace = synthetic_trace();
  const auto& nl = soc().netlist();
  for (netlist::NodeId id : {nl.find_or_throw("mpu_viol"),
                             soc().dff_for_bit(0), nl.find_or_throw("pc[3]")}) {
    EXPECT_EQ(trace.signature(id).size(), trace.cycles());
  }
}

TEST(SignatureTrace, FirstCycleNeverSwitches) {
  const auto& trace = synthetic_trace();
  const auto& nl = soc().netlist();
  for (netlist::NodeId id = 0; id < nl.node_count(); id += 97) {
    if (trace.signature(id).size() > 0) {
      EXPECT_FALSE(trace.signature(id).test(0)) << "node " << id;
    }
  }
}

TEST(SignatureTrace, PcBit0TogglesOften) {
  // Straight-line fetch increments the PC every cycle: bit 0 toggles nearly
  // always.
  const auto& trace = synthetic_trace();
  const auto& ss = trace.signature(soc().dff_for_bit(0));  // pc[0]
  EXPECT_GT(ss.count(), trace.cycles() / 2);
}

TEST(SignatureTrace, RespondingSignalSwitches) {
  // The synthetic workload's denied probes toggle the responding signal:
  // without that activity no correlation could ever be measured.
  const auto& trace = synthetic_trace();
  const auto rs = soc().netlist().find_or_throw("mpu_viol");
  EXPECT_GE(trace.signature(rs).count(), 20u);  // 2 switches per probe
  // The sticky flag latches the first probe and then stays constant:
  // exactly one switch.
  const auto& map = soc::SocNetlist::reg_map();
  const int sticky_bit = map.field(map.field_index("viol_sticky")).offset;
  EXPECT_EQ(trace.signature(soc().dff_for_bit(sticky_bit)).count(), 1u);
}

TEST(SignatureTrace, SelfCorrelationAtFrameZeroIsOne) {
  const auto& trace = synthetic_trace();
  const netlist::NodeId rs = soc().netlist().find_or_throw("mpu_viol");
  const netlist::NodeId pc0 = soc().dff_for_bit(0);
  EXPECT_DOUBLE_EQ(trace.correlation(pc0, pc0, 0), 1.0);
  EXPECT_DOUBLE_EQ(trace.correlation(rs, rs, 0), 1.0);
}

TEST(SignatureTrace, NeverSwitchingNodeHasZeroCorrelation) {
  const auto& trace = synthetic_trace();
  const netlist::NodeId rs = soc().netlist().find_or_throw("mpu_viol");
  // mpu3 is never configured: its base register never switches.
  const auto& map = soc::SocNetlist::reg_map();
  const int bit = map.field(map.field_index("mpu3_base")).offset;
  EXPECT_EQ(trace.signature(soc().dff_for_bit(bit)).count(), 0u);
  EXPECT_DOUBLE_EQ(trace.correlation(soc().dff_for_bit(bit), rs, 0), 0.0);
}

TEST(SignatureTrace, CorrelationIsInUnitInterval) {
  const auto& trace = synthetic_trace();
  const netlist::NodeId rs = soc().netlist().find_or_throw("mpu_viol");
  for (netlist::NodeId id = 0; id < soc().netlist().node_count(); id += 53) {
    for (int frame : {-2, -1, 0, 1, 2, 5}) {
      const double c = trace.correlation(id, rs, frame);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
  }
}

TEST(SignatureTrace, CorrelationMatchesManualComputation) {
  const auto& trace = synthetic_trace();
  const netlist::NodeId rs = soc().netlist().find_or_throw("mpu_viol");
  const netlist::NodeId g = soc().dff_for_bit(3);
  const auto& sg = trace.signature(g);
  const auto& sr = trace.signature(rs);
  for (int frame : {0, 1, 3}) {
    std::size_t overlap = 0;
    for (std::size_t c = 0; c + frame < sg.size(); ++c) {
      if (sg.test(c) && sr.test(c + static_cast<std::size_t>(frame))) ++overlap;
    }
    const double expected =
        sg.count() == 0
            ? 0.0
            : static_cast<double>(overlap) / static_cast<double>(sg.count());
    EXPECT_DOUBLE_EQ(trace.correlation(g, rs, frame), expected)
        << "frame " << frame;
  }
}

}  // namespace
}  // namespace fav::precharac
