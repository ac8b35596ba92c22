#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cross_port.hpp"
#include "core/datacenter.hpp"
#include "optics/spine.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dredbox::core {

/// Spine-traffic counters of one rack's NIC, for reports and audits.
struct RackLinkStats {
  std::uint64_t tx_messages = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_messages = 0;
  /// Requests refused at this rack because the outbound link was down.
  std::uint64_t fail_fast = 0;
};

/// What one Cluster::advance_all call did.
struct ClusterRunStats {
  /// Distinct event ticks the scheduler visited.
  std::size_t rounds = 0;
  /// Spine messages (requests and replies) delivered.
  std::uint64_t messages = 0;
};

/// A multi-rack dReDBox deployment: one full Datacenter per rack, joined
/// by an optical spine switch over which each rack exports a disaggregated
/// gateway memory window to its peers. Cross-rack reads and writes are
/// split-phase — request message over the spine, served against the target
/// rack's own remote-memory fabric through a gateway VM booted via that
/// rack's control plane, reply message back — so every byte of cross-rack
/// traffic exercises the same full stack as intra-rack traffic.
///
/// Each rack keeps its own event queue, clock and RNG; advance_all()
/// interleaves them on one thread, earliest tick first. A cross-rack
/// message is scheduled straight onto the target rack's queue, at least
/// one spine propagation delay after its send.
class Cluster {
 public:
  /// Requires config.racks to be non-empty; validates the config and
  /// throws std::invalid_argument listing every error. Boots one gateway
  /// VM per rack (throwing std::runtime_error if a gateway cannot come
  /// up) and schedules any configured spine faults.
  explicit Cluster(const DatacenterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const DatacenterConfig& config() const { return config_; }

  std::size_t size() const { return racks_.size(); }
  Datacenter& rack(std::size_t r) { return *racks_.at(r); }
  const Datacenter& rack(std::size_t r) const { return *racks_.at(r); }

  optics::SpineSwitch& spine() { return spine_; }
  const optics::SpineSwitch& spine() const { return spine_; }

  /// Rack r's NIC onto the spine; the workload layer installs its
  /// completion handler here and issues cross-rack traffic through it.
  CrossRackPort& port(std::size_t r);

  /// Bytes of the gateway window rack r exports to every peer.
  std::uint64_t gateway_window_bytes(std::size_t r) const;

  RackLinkStats link_stats(std::size_t r) const;

  /// FNV-1a digest of every request rack r *served* (source rack, address,
  /// fabric status, completion tick, in service order). Folded into the
  /// cluster run digest so the determinism proof covers the target-side
  /// schedule, not just each source's view.
  std::uint64_t served_digest(std::size_t r) const;

  /// Schedules the configured spine faults, each at `base` + its `at`
  /// offset (with the matching restore `duration` later). The cluster
  /// workload engine arms at its window start; drivers without a
  /// workload can arm at zero for wiring-absolute fault times. At most
  /// one arming per cluster; `base` must not lie in any rack's past.
  void arm_spine_faults(sim::Time base);
  bool spine_faults_armed() const { return faults_armed_; }

  /// Advances every rack to `until`: repeatedly finds the earliest head
  /// tick t over all rack queues and runs each rack whose head is t to t,
  /// in ascending rack index, then parks every clock at `until`. Exact
  /// without lookahead reasoning: a cross-rack message lands at least one
  /// propagation delay after its send, so it never reaches a rack whose
  /// clock has passed it, and within one tick a rack sees events in
  /// scheduling order (FIFO within a timestamp).
  ///
  /// Heads are polled from every queue once on entry and then cached: a
  /// rack's head is re-read only after it ran, and a cross-rack send
  /// lowers its target's head to the landing tick. A tournament tree over
  /// the cached heads names the next rack to run; each head change
  /// replays only that rack's leaf-to-root path. Under DREDBOX_AUDIT every
  /// tick re-checks the cache against each queue and the tree's root
  /// against a full scan.
  ClusterRunStats advance_all(sim::Time until);

  /// Total spine + racks instantaneous power.
  double power_draw_watts() const;

  std::string describe() const;

 private:
  class RackPort;

  /// Target-side half of a cross-rack request: serve it against rack
  /// `target`'s fabric through its gateway brick, then send the reply.
  void serve(std::uint32_t target, std::uint32_t src, std::uint32_t slot, std::uint64_t address,
             std::uint32_t bytes, bool write);
  /// Source-side half: retire pending slot `slot` and hand the completion
  /// to the rack's installed handler.
  void complete(std::uint32_t src, std::uint32_t slot, bool ok);

  /// Schedules a spine message onto rack `target`'s queue and lowers that
  /// rack's cached head to `when`. Every cross-rack event goes through here.
  void send(std::uint32_t target, sim::Time when, sim::EventQueue::Action action,
            const char* label);
  /// Re-elects the winner of every tree node on rack r's leaf-to-root path.
  void replay(std::uint32_t r);
  /// Audit: every cached head equals its queue's next_time(), and the
  /// tree's root is the argmin of (head, rack index) over all racks.
  void check_heads() const;

  void wire_spine();
  void boot_gateways();

  struct Gateway {
    hw::VmId vm;
    hw::BrickId compute;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
  };

  DatacenterConfig config_;
  std::vector<std::unique_ptr<Datacenter>> racks_;
  optics::SpineSwitch spine_;
  std::vector<Gateway> gateways_;
  std::vector<std::unique_ptr<RackPort>> ports_;
  bool faults_armed_ = false;
  /// Spine messages delivered so far (requests served plus replies).
  std::uint64_t delivered_ = 0;
  /// Per-rack head tick as advance_all() last knew it (see there), padded
  /// with infinite heads up to the tree's leaf count.
  std::vector<sim::Time> heads_;
  /// Tournament (winner) tree over heads_: tree_[1] is the root, node i
  /// has children 2i and 2i+1, leaf r sits at tree_[leaves + r]. Each node
  /// holds the rack index with the smaller (head, index) of its children.
  std::vector<std::uint32_t> tree_;
};

}  // namespace dredbox::core
