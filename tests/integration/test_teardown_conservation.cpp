// Teardown conservation under faults, full stack: a rack whose attachments
// all ride optical circuits runs a mixed workload through a generated fault
// plan (link flaps, loss drift, switch-port deaths, brick crashes, RMST
// corruption, ...). Once every fault has recovered, detaching every
// attachment must hand back every switch port, transceiver port, link
// record and dMEMBRICK byte: the recovery ladder leaks nothing.

#include <gtest/gtest.h>

#include <vector>

#include "core/scenario.hpp"
#include "sim/fault.hpp"
#include "workload/engine.hpp"
#include "workload/tenant.hpp"

namespace dredbox {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

workload::WorkloadConfig mixed_tenants(sim::Time window, sim::Time drain) {
  workload::WorkloadConfig config;
  config.duration = window;
  config.drain_grace = drain;
  workload::TenantSpec closed;
  closed.name = "closed";
  closed.vms = 4;
  closed.loop = workload::LoopMode::kClosed;
  closed.outstanding = 4;
  closed.mix = {0.6, 0.3, 0.1};
  workload::TenantSpec open;
  open.name = "open";
  open.vms = 4;
  open.loop = workload::LoopMode::kOpen;
  open.arrivals = workload::ArrivalProcess::kPoisson;
  open.rate_hz = 50000.0;
  open.mix = {0.7, 0.3, 0.0};
  config.tenants = {closed, open};
  return config;
}

class TeardownConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TeardownConservation, FaultyOpticalRackReleasesEverythingAtTeardown) {
  const sim::Time window = sim::Time::ms(20);
  const sim::Time drain = sim::Time::ms(60);
  auto scenario = core::ScenarioBuilder{}
                      .racks(2, 2, 2)
                      .seed(GetParam())
                      .compute_local_memory_bytes(16 * kGiB)
                      .memory_pool_bytes(64 * kGiB)
                      .prefer_optical(true)
                      .build();
  core::Datacenter& dc = scenario.datacenter();
  workload::WorkloadEngine engine{dc, mixed_tenants(window, drain)};
  engine.prepare();
  dc.advance_to(engine.boot_ready());

  // 64 faults per 100 ms, all inside the window and short enough that each
  // recovers early in the drain, which is long enough for retried ops to
  // settle.
  sim::Rng plan_rng{GetParam()};
  sim::FaultPlan::GeneratorConfig knobs;
  knobs.events = 13;
  knobs.horizon = window;
  knobs.max_duration = sim::Time::ms(5);
  const sim::Time t0 = dc.simulator().now();
  dc.inject_faults(sim::FaultPlan::generate(plan_rng, knobs).shifted(t0));
  engine.begin_window(t0);
  dc.advance_to(t0 + window + drain);
  const auto result = engine.finish();
  ASSERT_GT(result.offered, 0u);
  ASSERT_EQ(result.completed + result.failed, result.offered);
  ASSERT_GT(dc.faults().injected(), 0u);
  ASSERT_EQ(dc.faults().injected() + dc.faults().skipped(), dc.faults().scheduled());
  ASSERT_GT(dc.fabric().attachment_count(), 0u);

  auto& fabric = dc.fabric();
  const std::vector<memsys::Attachment> live = fabric.all_attachments();
  for (const auto& a : live) ASSERT_TRUE(fabric.detach(a.compute, a.segment));
  fabric.check_invariants();

  EXPECT_EQ(fabric.attachment_count(), 0u);
  EXPECT_EQ(dc.optical_switch().ports_in_use(), 0u);
  EXPECT_EQ(dc.circuits().active_circuits(), 0u);
  EXPECT_EQ(fabric.electrical_links(), 0u);
  EXPECT_EQ(fabric.packet_links(), 0u);
  for (hw::BrickId b : dc.rack().all_bricks()) {
    for (const auto& port : dc.rack().brick(b).ports()) {
      if (port.circuit_based) EXPECT_FALSE(port.connected) << "brick " << b.to_string();
    }
  }
  for (hw::BrickId mb : dc.memory_bricks()) {
    const auto& brick = dc.rack().memory_brick(mb);
    EXPECT_EQ(brick.allocated_bytes(), 0u) << "dMEMBRICK " << mb.to_string();
    EXPECT_EQ(brick.largest_free_extent(), brick.capacity_bytes())
        << "dMEMBRICK " << mb.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TeardownConservation, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dredbox
