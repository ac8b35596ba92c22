#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "net/interrack_link.hpp"
#include "sim/contract.hpp"
#include "sim/time.hpp"
#include "workload/engine.hpp"

namespace dredbox::core {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& field) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(field) != std::string::npos;
  });
}

DatacenterConfig cluster_config(std::size_t racks) {
  DatacenterConfig config;
  config.racks.assign(racks, RackSpec{1, 2, 2, 0});
  return config;
}

TEST(ClusterConfigTest, ValidConfigHasNoErrors) {
  EXPECT_TRUE(cluster_config(2).validate().empty());
}

TEST(ClusterConfigTest, ErrorsNameDottedFields) {
  DatacenterConfig config = cluster_config(2);
  config.racks[0].trays = 0;
  config.racks[1].memory_bricks_per_tray = 0;
  config.spine.propagation = sim::Time::zero();
  config.spine.cross_share = 1.5;
  config.spine.faults.push_back(SpineFaultSpec{7, sim::Time::ms(1), sim::Time::ms(1)});
  const auto errors = config.validate();
  EXPECT_TRUE(mentions(errors, "racks[0].trays"));
  EXPECT_TRUE(mentions(errors, "racks[1].memory_bricks_per_tray"));
  EXPECT_TRUE(mentions(errors, "spine.propagation"));
  EXPECT_TRUE(mentions(errors, "spine.cross_share"));
  EXPECT_TRUE(mentions(errors, "spine.faults[0].rack"));
}

TEST(ClusterConfigTest, SpineRadixMustCoverTheRacks) {
  DatacenterConfig config = cluster_config(4);
  config.spine.ports = 2;
  EXPECT_TRUE(mentions(config.validate(), "spine.ports"));
}

TEST(ClusterConfigTest, MultiRackFieldsLeaveSingleRackDigestAlone) {
  // The spine knobs are inert while `racks` is empty: a pre-existing
  // single-rack config folds to the same digest it always did, so every
  // pinned example digest survives the API extension.
  const DatacenterConfig base;
  DatacenterConfig tweaked;
  tweaked.spine.propagation = sim::Time::us(3);
  tweaked.spine.cross_share = 0.5;
  EXPECT_EQ(base.digest(), tweaked.digest());

  DatacenterConfig cluster = cluster_config(2);
  DatacenterConfig cluster_tweaked = cluster_config(2);
  cluster_tweaked.spine.propagation = sim::Time::us(3);
  EXPECT_NE(cluster.digest(), cluster_tweaked.digest());
}

TEST(ClusterConfigTest, ConstructorRejectsInvalidConfigs) {
  DatacenterConfig config = cluster_config(2);
  config.spine.propagation = sim::Time::zero();
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

TEST(ClusterBuilderTest, BuilderAssemblesAMultiRackScenario) {
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(3, RackSpec{1, 2, 2, 0})
                          .cross_rack_share(0.25)
                          .spine_fault(1, sim::Time::ms(1), sim::Time::ms(2))
                          .build();
  ASSERT_TRUE(scenario.is_cluster());
  Cluster& cluster = scenario.cluster();
  EXPECT_EQ(cluster.size(), 3u);
  EXPECT_DOUBLE_EQ(cluster.config().spine.cross_share, 0.25);
  ASSERT_EQ(cluster.config().spine.faults.size(), 1u);
  EXPECT_EQ(cluster.config().spine.faults[0].rack, 1u);
  EXPECT_GT(cluster.power_draw_watts(), 0.0);
  EXPECT_FALSE(cluster.describe().empty());
}

TEST(ClusterBuilderTest, SingleRackScenariosStaySingleRack) {
  Scenario scenario = ScenarioBuilder{}.build();
  EXPECT_FALSE(scenario.is_cluster());
  // datacenter() is the single-rack accessor and still works untouched;
  // wiring leaves the clock parked at zero exactly as it always has.
  EXPECT_EQ(scenario.datacenter().simulator().now(), sim::Time::zero());
  EXPECT_GT(scenario.datacenter().power_draw_watts(), 0.0);
}

TEST(ClusterBuilderTest, SpineSetterPreservesDeclaredFaults) {
  ScenarioBuilder builder;
  builder.add_racks(2, RackSpec{1, 2, 2, 0}).spine_fault(0, sim::Time::ms(1), sim::Time::ms(1));
  SpineSpec spec;
  spec.propagation = sim::Time::us(1);
  builder.spine(spec);
  Scenario scenario = builder.build();
  EXPECT_EQ(scenario.cluster().config().spine.propagation, sim::Time::us(1));
  EXPECT_EQ(scenario.cluster().config().spine.faults.size(), 1u);
}

/// Builds a 2-rack cluster and aligns both racks to a common t0 the way
/// the cluster workload engine does, so raw port traffic can flow.
struct TwoRacks {
  TwoRacks() : scenario{make()} , cluster{scenario.cluster()} {
    sim::Time t0 = sim::Time::zero();
    for (std::size_t r = 0; r < cluster.size(); ++r) {
      t0 = std::max(t0, cluster.rack(r).simulator().now());
    }
    for (std::size_t r = 0; r < cluster.size(); ++r) cluster.rack(r).advance_to(t0);
    start = t0;
  }
  static Scenario make() {
    return ScenarioBuilder{}.add_racks(2, RackSpec{1, 2, 2, 0}).build();
  }
  Scenario scenario;
  Cluster& cluster;
  sim::Time start;
};

TEST(ClusterTest, CrossReadRoundTripCrossesTheSpineTwice) {
  TwoRacks rig;
  CrossRackPort& port = rig.cluster.port(0);
  ASSERT_EQ(port.peer_count(), 1u);
  EXPECT_EQ(port.window_bytes(0), rig.cluster.config().spine.gateway_bytes);
  EXPECT_EQ(rig.cluster.gateway_window_bytes(1), rig.cluster.config().spine.gateway_bytes);

  std::vector<CrossCompletion> done;
  port.set_handler([&](const CrossCompletion& c) { done.push_back(c); });
  port.issue(0, 4096, 64, /*write=*/false, /*token=*/7, /*closed_loop=*/false);
  port.issue(0, 8192, 64, /*write=*/false, /*token=*/8, /*closed_loop=*/false);
  rig.cluster.advance_all(rig.start + sim::Time::ms(1));

  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].token, 7u);
  EXPECT_FALSE(done[0].write);
  // The completion reports the target-rack physical address: two issues
  // 4 KiB apart in the window land 4 KiB apart on the target's fabric.
  EXPECT_EQ(done[1].address - done[0].address, 4096u);
  // Request + reply each traverse the spine: the round trip can never
  // beat two propagation delays.
  EXPECT_GE(done[0].round_trip(), rig.cluster.config().spine.propagation * 2);

  const RackLinkStats src = rig.cluster.link_stats(0);
  const RackLinkStats dst = rig.cluster.link_stats(1);
  EXPECT_EQ(src.tx_messages, 2u);  // the requests
  EXPECT_EQ(dst.tx_messages, 2u);  // the replies
  EXPECT_EQ(dst.rx_messages, 2u);
  EXPECT_EQ(src.fail_fast, 0u);
  EXPECT_NE(rig.cluster.served_digest(1), 0u);
}

/// Rack 0 issues one cross-rack read; a local event on rack 1 at the
/// request's exact arrival tick reads rack 1's received-request count.
/// `probe_first` schedules that event before the issue, else after it.
/// Returns what it saw.
std::uint64_t rx_seen_on_arrival_tick(bool probe_first) {
  TwoRacks rig;
  const SpineSpec& spine = rig.cluster.config().spine;
  // A read request carries only the 32-byte spine header.
  const net::InterRackLink link{
      net::InterRackLinkConfig{spine.propagation, spine.bandwidth_gbps}};
  const sim::Time arrival = rig.start + link.one_way(32);
  sim::Simulator& target = rig.cluster.rack(1).simulator();
  Cluster* cluster = &rig.cluster;
  std::uint64_t just_before = ~0ull;
  std::uint64_t seen = ~0ull;
  target.at(arrival - sim::Time::ps(1),
            [cluster, &just_before] { just_before = cluster->link_stats(1).rx_messages; });
  const auto probe = [&] {
    target.at(arrival, [cluster, &seen] { seen = cluster->link_stats(1).rx_messages; });
  };
  rig.cluster.port(0).set_handler([](const CrossCompletion&) {});
  if (probe_first) probe();
  rig.cluster.port(0).issue(0, 0, 64, /*write=*/false, /*token=*/1, /*closed_loop=*/false);
  if (!probe_first) probe();
  rig.cluster.advance_all(rig.start + sim::Time::ms(1));
  EXPECT_EQ(just_before, 0u) << "the request must land exactly on the probed tick";
  EXPECT_EQ(rig.cluster.link_stats(1).rx_messages, 1u);
  return seen;
}

TEST(ClusterTest, CrossRackArrivalTiesRunInSchedulingOrder) {
  // FIFO within a timestamp across the spine: the request is scheduled
  // on rack 1 when rack 0 issues it, so a same-tick local event runs
  // before it iff it was scheduled first.
  EXPECT_EQ(rx_seen_on_arrival_tick(/*probe_first=*/true), 0u);
  EXPECT_EQ(rx_seen_on_arrival_tick(/*probe_first=*/false), 1u);
}

TEST(ClusterTest, DownLinkFailsFastAtTheSender) {
  // Arm a fault that downs rack 0's uplink immediately for 1 ms.
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(2, RackSpec{1, 2, 2, 0})
                          .spine_fault(0, sim::Time::zero(), sim::Time::ms(1))
                          .build();
  Cluster& cluster = scenario.cluster();
  sim::Time t0 = sim::Time::zero();
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    t0 = std::max(t0, cluster.rack(r).simulator().now());
  }
  for (std::size_t r = 0; r < cluster.size(); ++r) cluster.rack(r).advance_to(t0);
  cluster.arm_spine_faults(t0);
  cluster.advance_all(t0 + sim::Time::us(10));  // the down event fires

  std::vector<CrossCompletion> done;
  cluster.port(0).set_handler([&](const CrossCompletion& c) { done.push_back(c); });
  cluster.port(0).issue(0, 0, 64, /*write=*/true, /*token=*/1, /*closed_loop=*/false);
  cluster.advance_all(t0 + sim::Time::us(20));

  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(cluster.link_stats(0).fail_fast, 1u);
  EXPECT_EQ(cluster.link_stats(1).rx_messages, 0u);

  // After the restore, the same port carries traffic again.
  cluster.advance_all(t0 + sim::Time::ms(2));
  cluster.port(0).issue(0, 0, 64, /*write=*/true, /*token=*/2, /*closed_loop=*/false);
  cluster.advance_all(t0 + sim::Time::ms(3));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[1].ok);
}

TEST(ClusterTest, SpineFaultsArmExactlyOnce) {
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(2, RackSpec{1, 2, 2, 0})
                          .spine_fault(0, sim::Time::ms(1), sim::Time::ms(1))
                          .build();
  Cluster& cluster = scenario.cluster();
  sim::Time t0 = sim::Time::zero();
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    t0 = std::max(t0, cluster.rack(r).simulator().now());
  }
  EXPECT_FALSE(cluster.spine_faults_armed());
  cluster.arm_spine_faults(t0);
  EXPECT_TRUE(cluster.spine_faults_armed());
  EXPECT_THROW(cluster.arm_spine_faults(t0), std::logic_error);
}

TEST(ClusterTest, GatewayWindowRejectsOutOfRangeOffsets) {
  TwoRacks rig;
  const std::uint64_t window = rig.cluster.gateway_window_bytes(1);
  rig.cluster.port(0).set_handler([](const CrossCompletion&) {});
  EXPECT_THROW(rig.cluster.port(0).issue(0, window, 64, false, 0, false),
               sim::ContractViolation);
}

// --- advance_all against a full-scan oracle ---
//
// advance_all caches each rack's head tick. The oracle below re-polls
// every rack's queue on every tick instead, through the public per-rack
// queue()/run_until() calls only, so it shares no head bookkeeping with
// the scheduler it checks.

ClusterRunStats advance_all_by_polling(Cluster& cluster, sim::Time until) {
  ClusterRunStats stats;
  std::vector<sim::Time> heads(cluster.size());
  for (;;) {
    sim::Time tick = sim::Time::infinity();
    for (std::size_t r = 0; r < cluster.size(); ++r) {
      heads[r] = cluster.rack(r).simulator().queue().next_time();
      tick = std::min(tick, heads[r]);
    }
    if (tick.is_infinite() || tick > until) break;
    ++stats.rounds;
    for (std::size_t r = 0; r < cluster.size(); ++r) {
      if (heads[r] == tick) cluster.rack(r).simulator().run_until(tick);
    }
  }
  for (std::size_t r = 0; r < cluster.size(); ++r) cluster.rack(r).simulator().run_until(until);
  return stats;
}

ClusterRunStats advance_all_cached(Cluster& cluster, sim::Time until) {
  return cluster.advance_all(until);
}

struct OracleSpec {
  std::size_t racks = 16;
  /// Racks [0, loaded) host a tenant; the rest are woken only by requests.
  std::size_t loaded = 16;
  double cross_share = 0.2;
  bool spine_fault = false;
  std::uint64_t seed = 1;
  sim::Time window = sim::Time::us(400);
};

/// Everything one coupled run leaves behind that depends on the schedule.
struct CoupledRun {
  /// Each rack's head tick when the window opens.
  std::vector<sim::Time> heads_at_start;
  std::size_t rounds = 0;
  std::vector<std::uint64_t> workload_digests;
  std::vector<std::uint64_t> served_digests;
  std::vector<RackLinkStats> links;
  std::uint64_t cross_ops = 0;
};

/// Runs one coupled window the way workload::ClusterEngine does (one
/// engine per loaded rack, common t0, spine faults armed at t0), with
/// `advance` doing the coupled advance.
CoupledRun run_coupled(const OracleSpec& spec,
                       ClusterRunStats (*advance)(Cluster&, sim::Time until)) {
  ScenarioBuilder builder;
  builder.add_racks(spec.racks, RackSpec{1, 2, 2, 0})
      .cross_rack_share(spec.cross_share)
      .seed(spec.seed);
  if (spec.spine_fault) builder.spine_fault(0, spec.window / 3, spec.window / 3);
  Scenario scenario = builder.build();
  Cluster& cluster = scenario.cluster();

  std::vector<std::unique_ptr<workload::WorkloadEngine>> engines(cluster.size());
  for (std::size_t r = 0; r < spec.loaded; ++r) {
    workload::WorkloadConfig config;
    config.duration = spec.window;
    config.drain_grace = sim::Time::us(200);
    config.power_samples = 0;
    workload::TenantSpec tenant;
    tenant.name = "rack" + std::to_string(r);
    tenant.vms = 1;
    tenant.local_bytes = 256ull << 20;
    tenant.remote_bytes = 1ull << 30;
    tenant.outstanding = 2;
    tenant.rate_hz = 200000.0;
    tenant.mix = {0.6, 0.3, 0.1};
    config.tenants.push_back(tenant);
    engines[r] = std::make_unique<workload::WorkloadEngine>(cluster.rack(r), config);
    engines[r]->install_cross_port(&cluster.port(r), spec.cross_share);
  }
  sim::Time t0 = sim::Time::zero();
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    if (engines[r]) {
      engines[r]->prepare();
      t0 = std::max(t0, engines[r]->boot_ready());
    }
    t0 = std::max(t0, cluster.rack(r).simulator().now());
  }
  for (std::size_t r = 0; r < cluster.size(); ++r) cluster.rack(r).advance_to(t0);
  cluster.arm_spine_faults(t0);
  for (auto& engine : engines) {
    if (engine) engine->begin_window(t0);
  }

  CoupledRun run;
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    run.heads_at_start.push_back(cluster.rack(r).simulator().queue().next_time());
  }
  run.rounds = advance(cluster, t0 + spec.window + sim::Time::us(200)).rounds;
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    if (engines[r]) {
      const workload::WorkloadResult result = engines[r]->finish();
      run.workload_digests.push_back(result.digest);
      run.cross_ops += result.cross_ops;
    }
    run.served_digests.push_back(cluster.served_digest(r));
    run.links.push_back(cluster.link_stats(r));
  }
  return run;
}

void expect_same_schedule(const OracleSpec& spec) {
  const CoupledRun oracle = run_coupled(spec, advance_all_by_polling);
  const CoupledRun cached = run_coupled(spec, advance_all_cached);
  if (spec.racks > 1) {
    ASSERT_GT(oracle.cross_ops, 0u) << "the scenario must cross the spine";
  }
  EXPECT_EQ(cached.rounds, oracle.rounds);
  EXPECT_EQ(cached.workload_digests, oracle.workload_digests);
  EXPECT_EQ(cached.served_digests, oracle.served_digests);
  ASSERT_EQ(cached.links.size(), oracle.links.size());
  for (std::size_t r = 0; r < oracle.links.size(); ++r) {
    EXPECT_EQ(cached.links[r].tx_messages, oracle.links[r].tx_messages) << "rack " << r;
    EXPECT_EQ(cached.links[r].tx_bytes, oracle.links[r].tx_bytes) << "rack " << r;
    EXPECT_EQ(cached.links[r].rx_messages, oracle.links[r].rx_messages) << "rack " << r;
    EXPECT_EQ(cached.links[r].fail_fast, oracle.links[r].fail_fast) << "rack " << r;
  }
}

TEST(ClusterSchedulerOracleTest, SixteenRacksWithCrossTrafficMatchFullScan) {
  expect_same_schedule(OracleSpec{});
}

TEST(ClusterSchedulerOracleTest, IdleRacksWokenOnlyBySpineRequestsMatchFullScan) {
  // Racks 2..5 host no tenant: their heads sit at infinity until a
  // request lands, which must lower the cached head to a finite tick.
  OracleSpec spec;
  spec.racks = 6;
  spec.loaded = 2;
  spec.cross_share = 0.5;
  const CoupledRun run = run_coupled(spec, advance_all_cached);
  for (std::size_t r = spec.loaded; r < spec.racks; ++r) {
    EXPECT_TRUE(run.heads_at_start[r].is_infinite()) << "rack " << r << " is not idle";
    EXPECT_GT(run.links[r].rx_messages, 0u) << "idle rack " << r << " never served";
  }
  expect_same_schedule(spec);
}

TEST(ClusterSchedulerOracleTest, OneRackSingleLeafTreeMatchesFullScan) {
  // bit_ceil(1) = 1: the lone leaf is the tree's root, and no replay
  // has a node to walk.
  OracleSpec spec;
  spec.racks = 1;
  spec.loaded = 1;
  const CoupledRun run = run_coupled(spec, advance_all_cached);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_EQ(run.cross_ops, 0u) << "a lone rack has no peer to cross to";
  expect_same_schedule(spec);
}

TEST(ClusterSchedulerOracleTest, FiveRacksWithPaddedLeavesMatchFullScan) {
  // bit_ceil(5) = 8: leaves 5..7 are padding with infinite heads, and
  // rack 4's path meets them below the root.
  OracleSpec spec;
  spec.racks = 5;
  spec.loaded = 5;
  spec.cross_share = 0.5;
  expect_same_schedule(spec);
}

TEST(ClusterSchedulerOracleTest, SpineFaultMidWindowMatchesFullScan) {
  OracleSpec spec;
  spec.racks = 4;
  spec.loaded = 4;
  spec.spine_fault = true;
  const CoupledRun run = run_coupled(spec, advance_all_by_polling);
  EXPECT_GT(run.links[0].fail_fast, 0u) << "the fault must hit the fail-fast path";
  expect_same_schedule(spec);
}

}  // namespace
}  // namespace dredbox::core
