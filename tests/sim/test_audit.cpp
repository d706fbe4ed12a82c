// Simulator-side auditing: the cadence fires every N dispatched events,
// registered components are included, violations abort the run by throwing,
// and the simulator's own structural invariants hold through heavy
// schedule/cancel churn.
#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "sim/simulator.hpp"

namespace das::sim {

/// White-box corruption hook; friend of the Simulator.
struct TestCorruptor {
  static void drop_lane_count(Simulator& sim) { --sim.lane_size_; }
};

namespace {

class CountingAuditable final : public Auditable {
 public:
  void check_invariants() const override { ++calls; }
  mutable int calls = 0;
};

class FailingAuditable final : public Auditable {
 public:
  void check_invariants() const override {
    DAS_AUDIT(false, "deliberately broken component");
  }
};

TEST(SimulatorAudit, OwnInvariantsHoldThroughChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(static_cast<SimTime>(i % 17), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) sim.cancel(handles[i]);
  EXPECT_NO_THROW(sim.check_invariants());
  while (sim.step()) {
    EXPECT_NO_THROW(sim.check_invariants());
  }
}

TEST(SimulatorAudit, CadenceRunsRegisteredAuditables) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  sim.set_audit_cadence(4);
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  // 20 events at cadence 4 → audits after events 4, 8, 12, 16, 20.
  EXPECT_EQ(sim.audits_run(), 5u);
  EXPECT_EQ(counting.calls, 5);
}

TEST(SimulatorAudit, ZeroCadenceDisablesAudits) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.audits_run(), 0u);
  EXPECT_EQ(counting.calls, 0);
}

TEST(SimulatorAudit, AuditNowIsOnDemand) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  EXPECT_NO_THROW(sim.audit_now());
  EXPECT_EQ(sim.audits_run(), 1u);
  EXPECT_EQ(counting.calls, 1);
}

TEST(SimulatorAudit, BrokenComponentStopsTheRun) {
  Simulator sim;
  FailingAuditable failing;
  sim.add_auditable(&failing);
  sim.set_audit_cadence(1);
  sim.schedule_at(1.0, [] {});
  EXPECT_THROW(sim.run(), AuditError);
}

TEST(SimulatorAudit, CadenceAppliesToRunUntil) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  sim.set_audit_cadence(2);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run_until(3.5);  // dispatches events at t = 0, 1, 2, 3
  EXPECT_EQ(sim.audits_run(), 2u);
  EXPECT_EQ(counting.calls, 2);
}

TEST(SimulatorAudit, CorruptedLaneCountThrows) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_fifo(static_cast<SimTime>(i), [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_NO_THROW(sim.check_invariants());
  TestCorruptor::drop_lane_count(sim);
  EXPECT_THROW(sim.check_invariants(), AuditError);
}

}  // namespace
}  // namespace das::sim
