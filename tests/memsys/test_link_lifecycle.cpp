// Link lifecycle regressions: a control-plane path that wires or releases
// a pair link (here: migration, and a failed bond lane) hands back every
// port it took, an attachment record always describes the link it rides,
// and the link record the datapath resolves follows the link through
// failure, repair, packet failover and detach — also while one pair rides
// two links at once.

#include <gtest/gtest.h>

#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"

namespace dredbox::memsys {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

/// A pair riding two links at once: segments `first` and `second` shared a
/// 2-lane optical link until `first` failed over to a packet route, and
/// `third` attached afterwards.
struct TwoLinkPair {
  Attachment first;
  Attachment second;
  Attachment third;
};

/// Three trays: the dMEMBRICK sits between two dCOMPUBRICKs on trays of
/// their own, so both pairs are cross-tray (optical). Every brick is on the
/// packet network for the fallback path.
class LinkLifecycleTest : public ::testing::Test {
 protected:
  LinkLifecycleTest() : circuits_{switch_}, fabric_{rack_, circuits_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_m = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_a_ = rack_.add_compute_brick(tray_a).id();
    membrick_ = rack_.add_memory_brick(tray_m).id();
    compute_b_ = rack_.add_compute_brick(tray_b).id();
    for (hw::BrickId b : {compute_a_, membrick_, compute_b_}) packet_net_.add_brick(b);
    fabric_.set_packet_network(&packet_net_);
  }

  Attachment attach(std::size_t lanes) {
    AttachRequest req;
    req.compute = compute_a_;
    req.membrick = membrick_;
    req.bytes = kGiB;
    req.lanes = lanes;
    auto a = fabric_.attach(req, Time::zero());
    EXPECT_TRUE(a.has_value());
    return *a;
  }

  std::size_t used_ports(hw::BrickId b) const {
    return rack_.brick(b).port_count() - rack_.brick(b).free_port_count(/*circuit_based=*/true);
  }

  TwoLinkPair ride_two_links() {
    TwoLinkPair p;
    p.first = attach(2);
    p.second = attach(2);
    EXPECT_EQ(p.second.circuit, p.first.circuit);
    EXPECT_EQ(fabric_.link_records(), 1u);
    EXPECT_EQ(switch_.ports_in_use(), 4u);

    const auto moved = fabric_.failover_to_packet(compute_a_, p.first.segment, Time::ms(1));
    EXPECT_TRUE(moved.has_value());
    p.first = *moved;
    EXPECT_EQ(p.first.medium, LinkMedium::kPacket);
    EXPECT_EQ(fabric_.link_records(), 2u);
    EXPECT_EQ(fabric_.packet_links(), 1u);
    EXPECT_EQ(switch_.ports_in_use(), 4u);  // the optical link still has a rider

    // A new segment of the pair rides the first rider's link (packet), not
    // the optical link the second rider still holds.
    p.third = attach(2);
    EXPECT_EQ(p.third.medium, LinkMedium::kPacket);
    EXPECT_EQ(p.third.circuit, p.first.circuit);
    EXPECT_EQ(p.third.lanes, 1u);
    EXPECT_EQ(fabric_.link_records(), 2u);
    EXPECT_EQ(fabric_.packet_links(), 1u);
    EXPECT_EQ(switch_.ports_in_use(), 4u);
    EXPECT_EQ(used_ports(compute_a_), 2u);
    EXPECT_NO_THROW(fabric_.check_invariants());
    return p;
  }

  void expect_pristine() {
    EXPECT_EQ(fabric_.attachment_count(), 0u);
    EXPECT_EQ(switch_.ports_in_use(), 0u);
    EXPECT_EQ(circuits_.active_circuits(), 0u);
    EXPECT_EQ(fabric_.electrical_links(), 0u);
    EXPECT_EQ(fabric_.packet_links(), 0u);
    EXPECT_EQ(fabric_.link_records(), 0u);
    for (hw::BrickId b : {compute_a_, membrick_, compute_b_}) {
      EXPECT_EQ(used_ports(b), 0u) << "brick " << b.to_string();
    }
  }

  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  net::PacketNetwork packet_net_;
  hw::BrickId compute_a_;
  hw::BrickId membrick_;
  hw::BrickId compute_b_;
};

TEST_F(LinkLifecycleTest, MigratingABondedOpticalLinkLeaksNoPorts) {
  const Attachment a = attach(3);
  ASSERT_EQ(a.medium, LinkMedium::kOptical);
  ASSERT_EQ(switch_.ports_in_use(), 6u);

  const auto moved = fabric_.migrate_attachment(a.segment, compute_a_, compute_b_, Time::ms(1));
  ASSERT_TRUE(moved.has_value());
  ASSERT_TRUE(moved->new_circuit);
  ASSERT_TRUE(fabric_.detach(compute_b_, a.segment));
  expect_pristine();
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, MigratingAPacketAttachmentLeaksNoPacketLink) {
  const Attachment a = attach(1);
  const auto failed_over = fabric_.failover_to_packet(compute_a_, a.segment, Time::ms(1));
  ASSERT_TRUE(failed_over.has_value());
  ASSERT_EQ(failed_over->medium, LinkMedium::kPacket);
  ASSERT_EQ(fabric_.packet_links(), 1u);

  const auto moved = fabric_.migrate_attachment(a.segment, compute_a_, compute_b_, Time::ms(2));
  ASSERT_TRUE(moved.has_value());
  ASSERT_TRUE(fabric_.detach(compute_b_, a.segment));
  expect_pristine();
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, MigratedRecordCarriesTheWiredLaneCount) {
  const Attachment a = attach(3);
  const auto moved = fabric_.migrate_attachment(a.segment, compute_a_, compute_b_, Time::ms(1));
  ASSERT_TRUE(moved.has_value());
  ASSERT_TRUE(moved->new_circuit);
  // Each wired lane holds one transceiver port on the destination brick;
  // execute_path stripes serialization over the record's lane count.
  EXPECT_EQ(moved->attachment.lanes, used_ports(compute_b_));
  EXPECT_EQ(fabric_.attachments_of(compute_b_).front().lanes, used_ports(compute_b_));
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, MigrationOntoAnExistingPairLinkAdoptsItsLanes) {
  AttachRequest wide;
  wide.compute = compute_b_;
  wide.membrick = membrick_;
  wide.bytes = kGiB;
  wide.lanes = 2;
  ASSERT_TRUE(fabric_.attach(wide, Time::zero()));
  const Attachment a = attach(1);

  const auto moved = fabric_.migrate_attachment(a.segment, compute_a_, compute_b_, Time::ms(1));
  ASSERT_TRUE(moved.has_value());
  EXPECT_FALSE(moved->new_circuit);
  EXPECT_EQ(moved->attachment.lanes, 2u);
  EXPECT_EQ(used_ports(compute_a_), 0u);  // the old single lane was released
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, FailingASiblingLaneTearsTheWholeBond) {
  const Attachment a = attach(3);
  // Circuit ids are issued in wiring order; the primary is the first lane.
  const hw::CircuitId sibling{a.circuit.value + 1};
  ASSERT_TRUE(circuits_.find(sibling).has_value());
  ASSERT_TRUE(fabric_.fail_circuit(sibling));
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  EXPECT_EQ(fabric_.read(compute_a_, a.compute_base, 64, Time::ms(1)).status,
            TransactionStatus::kCircuitDown);

  const auto healed = fabric_.repair(compute_a_, a.segment, Time::ms(2));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->lanes, 3u);
  ASSERT_TRUE(fabric_.detach(compute_a_, a.segment));
  expect_pristine();
}

TEST_F(LinkLifecycleTest, ReadAfterFailCircuitIsCircuitDown) {
  const Attachment a = attach(1);
  ASSERT_TRUE(fabric_.read(compute_a_, a.compute_base, 64, Time::ms(1)).ok());
  ASSERT_TRUE(fabric_.fail_circuit(a.circuit));
  EXPECT_EQ(fabric_.link_records(), 0u);
  EXPECT_EQ(fabric_.read(compute_a_, a.compute_base, 64, Time::ms(2)).status,
            TransactionStatus::kCircuitDown);
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, RepairedLinkLanesAndPropagationShowInTheBreakdown) {
  AttachRequest req;
  req.compute = compute_a_;
  req.membrick = membrick_;
  req.bytes = kGiB;
  req.lanes = 3;
  req.fiber_length_m = 30.0;
  const auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(fabric_.fail_circuit(a->circuit));

  // Leave the compute brick one free port, so the repair re-bonds a single
  // lane over the same 30 m fibre run.
  while (rack_.brick(compute_a_).free_port_count(/*circuit_based=*/true) > 1) {
    rack_.brick(compute_a_).find_free_port(/*circuit_based=*/true)->connected = true;
  }
  const auto healed = fabric_.repair(compute_a_, a->segment, Time::ms(1));
  ASSERT_TRUE(healed.has_value());
  ASSERT_EQ(healed->lanes, 1u);
  ASSERT_NE(healed->circuit, a->circuit);

  const Transaction tx = fabric_.read(compute_a_, a->compute_base, 64, Time::ms(2));
  ASSERT_TRUE(tx.ok());
  // One lane at 10 Gb/s: the 4 B header out, (64 + 4) B back.
  EXPECT_EQ(tx.breakdown.of("serialization"), Time::ps(57600));
  // 30 m of fibre at 5 ns/m, each way.
  EXPECT_EQ(tx.breakdown.of("optical propagation"), Time::ns(300));
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, ReadAfterPacketFailoverTakesThePacketPath) {
  const Attachment a = attach(1);
  ASSERT_TRUE(fabric_.fail_circuit(a.circuit));
  const auto moved = fabric_.failover_to_packet(compute_a_, a.segment, Time::ms(1));
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(fabric_.link_records(), 1u);

  const Transaction tx = fabric_.read(compute_a_, a.compute_base, 64, Time::ms(2));
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx.breakdown.has("MAC/PHY (dCOMPUBRICK)"));
  EXPECT_FALSE(tx.breakdown.has("GTH serdes (TX)"));
  EXPECT_EQ(tx.breakdown.total(), tx.round_trip());
}

TEST_F(LinkLifecycleTest, ReadAfterABondSiblingIsTornIsCircuitDown) {
  const Attachment a = attach(3);
  const hw::CircuitId sibling{a.circuit.value + 1};
  const auto circuit = circuits_.find(sibling);
  ASSERT_TRUE(circuit.has_value());
  // A switch port under the sibling dies: the manager tears the sibling
  // behind the fabric's back and hands it over for brick-side cleanup.
  fabric_.on_circuits_torn(circuits_.fail_switch_port(circuit->switch_ports.front()));
  EXPECT_EQ(circuits_.active_circuits(), 0u);
  EXPECT_EQ(fabric_.link_records(), 0u);
  EXPECT_EQ(fabric_.read(compute_a_, a.compute_base, 64, Time::ms(1)).status,
            TransactionStatus::kCircuitDown);
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, PairOnTwoLinksDetachingTheOpticalRiderFreesOnlyItsPorts) {
  const TwoLinkPair p = ride_two_links();
  ASSERT_TRUE(fabric_.detach(compute_a_, p.second.segment));
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  EXPECT_EQ(used_ports(compute_a_), 0u);
  EXPECT_EQ(used_ports(membrick_), 0u);
  EXPECT_EQ(fabric_.link_records(), 1u);
  EXPECT_EQ(fabric_.packet_links(), 1u);
  EXPECT_TRUE(fabric_.read(compute_a_, p.third.compute_base, 64, Time::ms(2)).ok());

  ASSERT_TRUE(fabric_.detach(compute_a_, p.first.segment));
  EXPECT_EQ(fabric_.packet_links(), 1u);  // the third segment still rides it
  ASSERT_TRUE(fabric_.detach(compute_a_, p.third.segment));
  expect_pristine();
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, PairOnTwoLinksDetachingThePacketRidersFreesOnlyTheRoute) {
  const TwoLinkPair p = ride_two_links();
  ASSERT_TRUE(fabric_.detach(compute_a_, p.first.segment));
  EXPECT_EQ(fabric_.packet_links(), 1u);  // the third segment still rides it
  EXPECT_EQ(fabric_.link_records(), 2u);
  ASSERT_TRUE(fabric_.detach(compute_a_, p.third.segment));
  EXPECT_EQ(fabric_.packet_links(), 0u);
  EXPECT_EQ(fabric_.link_records(), 1u);
  EXPECT_EQ(switch_.ports_in_use(), 4u);
  EXPECT_EQ(used_ports(compute_a_), 2u);
  EXPECT_TRUE(fabric_.read(compute_a_, p.second.compute_base, 64, Time::ms(2)).ok());

  ASSERT_TRUE(fabric_.detach(compute_a_, p.second.segment));
  expect_pristine();
  EXPECT_NO_THROW(fabric_.check_invariants());
}

TEST_F(LinkLifecycleTest, DetachLeavesNoLinkRecord) {
  const Attachment a = attach(3);
  EXPECT_EQ(fabric_.link_records(), 1u);
  ASSERT_TRUE(fabric_.read(compute_a_, a.compute_base, 64, Time::ms(1)).ok());
  ASSERT_TRUE(fabric_.detach(compute_a_, a.segment));
  EXPECT_EQ(fabric_.link_records(), 0u);
  expect_pristine();
}

}  // namespace
}  // namespace dredbox::memsys
