#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/rack.hpp"
#include "memsys/circuit_path.hpp"
#include "memsys/transaction.hpp"
#include "net/packet_network.hpp"
#include "optics/circuit.hpp"
#include "sim/metrics.hpp"
#include "sim/retry.hpp"

namespace dredbox::memsys {

/// Physical medium carrying an attachment's traffic: intra-tray pairs ride
/// the tray's electrical circuit; cross-tray pairs ride an optical circuit
/// through the rack switch (Section II); and when the system runs low on
/// physical switch ports, traffic falls back to the packet-based network
/// with orchestrator-programmed lookup tables (Section III).
enum class LinkMedium : std::uint8_t { kElectrical, kOptical, kPacket };

std::string to_string(LinkMedium medium);

/// A live attachment of remote memory to a dCOMPUBRICK: the dMEMBRICK
/// segment, the RMST entry installed at the compute side, and the circuit
/// carrying the traffic.
struct Attachment {
  hw::BrickId compute;
  hw::BrickId membrick;
  hw::SegmentId segment;        // id on the dMEMBRICK
  std::uint64_t compute_base = 0;  // brick-physical window at the source
  std::uint64_t size = 0;
  hw::CircuitId circuit;
  LinkMedium medium = LinkMedium::kOptical;
  /// Parallel lanes bonded into this pair's link (Section II: multiple
  /// links "can be used to provide more aggregate bandwidth").
  std::size_t lanes = 1;
  /// Parameters of the link this attachment rides, kept so repair() can
  /// rebuild the exact pre-failure path (hop count and fibre run).
  std::size_t switch_hops = 1;
  double fiber_length_m = 10.0;
  sim::Time established_at;
};

struct AttachRequest {
  hw::BrickId compute;
  hw::BrickId membrick;
  std::uint64_t bytes = 1ull << 30;
  std::size_t switch_hops = 1;
  double fiber_length_m = 10.0;
  /// Lanes to bond for aggregate bandwidth; each lane consumes one
  /// transceiver port per brick (plus switch ports when optical). Ignored
  /// when an existing link between the pair is reused.
  std::size_t lanes = 1;
  /// When true (default) the fabric uses the tray's electrical circuit for
  /// intra-tray pairs instead of burning optical switch ports.
  bool prefer_electrical_intra_tray = true;
  /// When true and a circuit cannot be wired (switch or brick ports
  /// exhausted), the attachment falls back to the packet substrate
  /// (requires a PacketNetwork attached to the fabric).
  bool allow_packet_fallback = false;
};

/// Why an attach failed — surfaced to the orchestrator so it can pick a
/// different dMEMBRICK or fall back to the packet substrate.
enum class AttachError {
  kNoMemory,        // dMEMBRICK cannot carve a contiguous segment
  kNoComputePort,   // requesting brick has no free circuit-facing port
  kNoMemoryPort,    // serving brick has no free circuit-facing port
  kNoSwitchPorts,   // optical switch exhausted ("running low in terms of
                    //  physical ports", Section III)
  kRmstFull,        // compute brick's segment table is full
  kBrickFailed,     // serving dMEMBRICK has crashed
};

std::string to_string(AttachError err);

/// The remote-memory fabric: control plane (attach/detach — carve a
/// segment, wire a circuit, install the RMST entry) and data plane
/// (read/write transactions with per-stage latency attribution) over the
/// mainline circuit-switched interconnect.
class RemoteMemoryFabric {
 public:
  RemoteMemoryFabric(hw::Rack& rack, optics::CircuitManager& circuits,
                     const CircuitPathLatencies& latencies = {});

  /// Attaches the exploratory packet substrate so attach() can fall back
  /// to it when circuits are unavailable. Both bricks of a fallback pair
  /// must be registered in the network; the fabric programs the lookup
  /// tables (the Section III control-path role) on first use.
  void set_packet_network(net::PacketNetwork* network) { packet_net_ = network; }
  /// Number of live packet lookup-table routes (for introspection).
  std::size_t packet_links() const;

  /// Wires rack-wide telemetry in: attach/detach counters, per-access
  /// round-trip histograms ("memsys.read.latency_ns" — the Fig. 8
  /// quantity), RMST occupancy gauges and kFabric trace spans. Null
  /// detaches telemetry again. Instrument pointers are cached here so the
  /// data-plane hot path never does a name lookup.
  void set_telemetry(sim::Telemetry* telemetry);
  /// The wired telemetry bundle (null when uninstrumented). Components
  /// layered on top of the fabric (e.g. the DMA engine) inherit it.
  sim::Telemetry* telemetry() const { return telemetry_; }

  // --- control plane ---
  std::optional<Attachment> attach(const AttachRequest& request, sim::Time now);
  AttachError last_error() const { return last_error_; }

  /// Detaches one attachment (removes RMST entry, frees the segment,
  /// tears the circuit down when it was the last user). Returns false
  /// when the segment is unknown for that compute brick.
  bool detach(hw::BrickId compute, hw::SegmentId segment);

  /// Result of re-pointing an attachment during VM migration.
  struct MigratedAttachment {
    Attachment attachment;     // updated record (new compute brick/window)
    bool new_circuit = false;  // a fresh cross-connect had to be wired
  };

  /// Re-points an attachment from one dCOMPUBRICK to another *without
  /// touching the data*: the dMEMBRICK segment stays where it is; only
  /// the RMST entry moves and a circuit to the new brick is wired (or
  /// reused). This is the disaggregation dividend for VM migration —
  /// remote memory never gets copied. Returns nullopt (state unchanged)
  /// when the new brick lacks ports/RMST slots or the switch lacks ports.
  std::optional<MigratedAttachment> migrate_attachment(hw::SegmentId segment,
                                                       hw::BrickId from, hw::BrickId to,
                                                       sim::Time now);

  // --- failure injection / repair ---
  /// Simulates a fault on an optical circuit (fibre cut, switch failure):
  /// the cross-connects drop and the endpoint transceivers lose link; a
  /// bonded link dies as a whole. Subsequent transactions over attachments
  /// riding it complete with TransactionStatus::kCircuitDown. Returns false
  /// for unknown ids or non-optical links.
  bool fail_circuit(hw::CircuitId circuit);

  /// Repairs a failed attachment by wiring a fresh circuit (reusing the
  /// surviving segment and RMST window). Every attachment that shared the
  /// dead circuit is healed at once. Returns the repaired attachment, or
  /// nullopt when no spare ports exist.
  std::optional<Attachment> repair(hw::BrickId compute, hw::SegmentId segment, sim::Time now);

  /// Reacts to circuits the CircuitManager tore down behind the fabric's
  /// back (insertion-loss drift, switch-port failure): releases the brick
  /// transceiver ports of every torn circuit, tears sibling lanes of any
  /// bond a torn circuit belonged to (a bonded link dies as a whole) and
  /// erases the link's row. Attachments stay installed — their
  /// transactions report kCircuitDown until repaired.
  void on_circuits_torn(const std::vector<optics::Circuit>& torn);

  /// Moves one attachment's traffic to the packet substrate (Section III
  /// fallback) without touching the data: the RMST window, segment and
  /// backing bytes are preserved; only the link record changes. Used when
  /// a circuit cannot be re-provisioned. Returns the updated attachment or
  /// nullopt (state unchanged) when no packet path exists.
  std::optional<Attachment> failover_to_packet(hw::BrickId compute, hw::SegmentId segment,
                                               sim::Time now);

  /// Evacuates one attachment off its dMEMBRICK onto `new_membrick`: a new
  /// segment is carved there, connectivity is wired (reusing any existing
  /// pair link, else electrical/optical/packet in order of preference) and
  /// the RMST entry is re-pointed while keeping the compute-side window
  /// byte-identical. The old segment is released and its circuit torn when
  /// last rider. The segment id changes (ids are brick-namespaced); the
  /// returned attachment carries the new one. Nullopt => state unchanged.
  std::optional<Attachment> relocate_segment(hw::BrickId compute, hw::SegmentId old_segment,
                                             hw::BrickId new_membrick, sim::Time now);

  // --- fault injection: RMST corruption & scrubbing ---
  /// Flips dest_base bits of the `ordinal`-th RMST entry installed for
  /// `compute` (a modelled SEU in the PL's segment table). Subsequent
  /// transactions through the entry report kCorruptMapping until the table
  /// is scrubbed. Returns false when the brick has no such entry.
  bool corrupt_rmst(hw::BrickId compute, std::size_t ordinal = 0);

  /// Rebuilds every RMST entry of `compute` from the fabric's attachment
  /// records and the dMEMBRICK segment tables (the ground truth the
  /// orchestrator holds). Returns the number of entries rewritten.
  std::size_t scrub_rmst(hw::BrickId compute);

  /// Retry policy for the data plane. Unset (default) => transactions fail
  /// fast exactly as before; set => execute() retries recoverable statuses
  /// with exponential backoff, scrubs corrupt RMST entries, re-provisions
  /// dead circuits and falls back to the packet substrate.
  void set_retry_policy(std::optional<sim::RetryPolicy> policy) { retry_policy_ = policy; }
  const std::optional<sim::RetryPolicy>& retry_policy() const { return retry_policy_; }

  std::vector<Attachment> attachments_of(hw::BrickId compute) const;
  const std::vector<Attachment>& all_attachments() const { return attachments_; }
  std::uint64_t attached_bytes(hw::BrickId compute) const;
  std::size_t attachment_count() const { return attachments_.size(); }

  // --- data plane ---
  /// `ctx`, when valid, parents the recorded fabric span (and every
  /// recovery event of the retry loop) under the caller's trace — the
  /// workload-op → transaction → retry/fallback → completion chain. The
  /// default (invalid) context makes each traced transaction its own
  /// trace root.
  Transaction read(hw::BrickId compute, std::uint64_t address, std::uint32_t bytes,
                   sim::Time when, const sim::TraceContext& ctx = {});
  Transaction write(hw::BrickId compute, std::uint64_t address, std::uint32_t bytes,
                    sim::Time when, const sim::TraceContext& ctx = {});

  const CircuitPathLatencies& latencies() const { return latencies_; }

  /// Number of live electrical intra-tray links (for introspection).
  std::size_t electrical_links() const;
  /// Number of live links of any medium: the records the datapath resolves
  /// links through (for introspection).
  std::size_t link_records() const { return live_links_.size(); }

  /// Deep consistency audit of the control-plane state: every attachment
  /// references live bricks of the right kinds, its segment is really
  /// carved on the dMEMBRICK for the attached dCOMPUBRICK, the matching
  /// RMST entry is installed at the compute side, no (compute, segment)
  /// pair is attached twice, and each attachment rides a live link of its
  /// pair, medium and lane count. Each live link has one row, at least one
  /// rider (else it leaked), a lane count its wiring matches, transceiver
  /// ports still held, and — when optical — every lane live in the circuit
  /// manager between those ports with the row's propagation. Only an
  /// optical link may be missing while ridden (fail_circuit() models fibre
  /// cuts; transactions then report kCircuitDown until repair), and then
  /// its circuit must be dead. Throws ContractViolation on the first broken
  /// invariant. Wired into every control-plane mutation when built with
  /// -DDREDBOX_AUDIT=ON; callable directly in any build.
  void check_invariants() const;

 private:
  /// One live link between a (dCOMPUBRICK, dMEMBRICK) pair, whatever its
  /// medium: an intra-tray backplane bundle, a bond of optical circuits
  /// through the switch, or a packet lookup-table route. Made by the wire_*
  /// helpers and erased on the release path, so a missing row means the
  /// link is down. The fields the per-op datapath reads come first.
  struct LiveLink {
    hw::CircuitId id;  // what attachments and RMST entries carry (a bond's primary)
    LinkMedium medium = LinkMedium::kOptical;
    std::size_t lanes = 1;
    sim::Time propagation;  // one way
    sim::Time busy_until;   // cable occupancy for serialization contention
    hw::BrickId compute;
    hw::BrickId membrick;
    /// One wired lane: a transceiver port on each brick and, when optical,
    /// the circuit through the switch (siblings die with the primary).
    struct Lane {
      hw::PortId compute_port;
      hw::PortId membrick_port;
      hw::CircuitId circuit;  // invalid on a backplane lane
    };
    std::vector<Lane> wired;  // empty for a packet route
  };

  hw::Rack& rack_;
  optics::CircuitManager& circuits_;
  CircuitPathLatencies latencies_;
  net::PacketNetwork* packet_net_ = nullptr;
  std::vector<Attachment> attachments_;
  /// The one table of live links; the datapath resolves a transaction's
  /// link with one scan of it, keyed on the id the RMST entry carries.
  std::vector<LiveLink> live_links_;
  /// Per-(dMEMBRICK, controller) occupancy, indexed [brick id][controller]:
  /// a brick dimensioned with more memory controllers serves more
  /// concurrent transactions (Section II). A brick's row is sized when it
  /// first gets a segment and is kept for the fabric's lifetime.
  std::vector<std::vector<sim::Time>> mc_busy_until_;
  AttachError last_error_ = AttachError::kNoMemory;
  std::optional<sim::RetryPolicy> retry_policy_;
  /// Electrical and packet link ids live in ranges the optical manager
  /// never uses.
  std::uint32_t next_electrical_id_ = 0x40000000u;
  std::uint32_t next_packet_id_ = 0x80000000u;

  sim::Telemetry* telemetry_ = nullptr;
  sim::metrics::Counter* attaches_metric_ = nullptr;
  sim::metrics::Counter* attach_failures_metric_ = nullptr;
  sim::metrics::Counter* detaches_metric_ = nullptr;
  sim::metrics::Counter* transactions_metric_ = nullptr;
  sim::metrics::Counter* failed_tx_metric_ = nullptr;
  sim::metrics::Histogram* read_latency_metric_ = nullptr;
  sim::metrics::Histogram* write_latency_metric_ = nullptr;
  sim::metrics::Gauge* rmst_entries_metric_ = nullptr;
  sim::metrics::Gauge* rmst_mapped_metric_ = nullptr;
  sim::metrics::Counter* retries_metric_ = nullptr;
  sim::metrics::Counter* retry_exhausted_metric_ = nullptr;
  sim::metrics::Counter* reprovisions_metric_ = nullptr;
  sim::metrics::Counter* packet_failovers_metric_ = nullptr;
  sim::metrics::Counter* rmst_scrubs_metric_ = nullptr;
  sim::metrics::Counter* rmst_corruptions_metric_ = nullptr;
  sim::metrics::Counter* relocations_metric_ = nullptr;

  /// The link an attachment rides, as the wiring helpers return it and as
  /// attachment records copy it (ride()).
  struct Link {
    hw::CircuitId id;
    LinkMedium medium = LinkMedium::kOptical;
    std::size_t lanes = 1;
    std::size_t switch_hops = 1;
    double fiber_length_m = 10.0;
    hw::PortId out_port{0};  // compute-side port of lane 0 (0: reused / packet)
  };
  static Link link_of(const Attachment& a);
  static void ride(Attachment& a, const Link& link, sim::Time now);

  std::optional<Attachment> attach_impl(const AttachRequest& request, sim::Time now);
  std::vector<Attachment>::iterator find_record(hw::BrickId compute, hw::SegmentId segment);
  /// The link an existing attachment of the pair rides (shared by every
  /// segment between the two bricks), if any.
  std::optional<Link> pair_link(hw::BrickId compute, hw::BrickId membrick) const;
  /// True when both bricks have `lanes` free circuit ports; sets
  /// last_error_ otherwise.
  bool ports_free(hw::BrickId compute, hw::BrickId membrick, std::size_t lanes);
  // Wiring: `want` gives lanes, hop count and fibre run. The electrical
  // path needs ports_free() first; the optical path bonds up to want.lanes
  // circuits and returns how many it got (nullopt for none); the packet
  // path reuses or programs a lookup-table route.
  Link wire_electrical(hw::BrickId compute, hw::BrickId membrick, Link want);
  std::optional<Link> wire_optical(hw::BrickId compute, hw::BrickId membrick, Link want);
  std::optional<Link> wire_packet(hw::BrickId compute, hw::BrickId membrick, Link want);
  /// Tears link `id` down when no attachment rides it, whatever its medium.
  void release_if_unused(hw::CircuitId id);
  /// The live link whose id is `lane` or, when optical, whose bond holds
  /// circuit `lane`.
  std::vector<LiveLink>::iterator link_holding(hw::CircuitId lane);
  /// Frees every lane's transceiver ports, tears the lanes' live circuits
  /// down (a bond dies whole) and erases the row. Returns whether any
  /// circuit was still live.
  bool tear(std::vector<LiveLink>::iterator link);
  /// The datapath's lookup: the live link with id `id`, or null.
  LiveLink* find_link(hw::CircuitId id);
  /// Sizes `membrick`'s row of the controller occupancy table.
  void track_controllers(hw::BrickId membrick);
  Transaction execute(TransactionKind kind, hw::BrickId compute, std::uint64_t address,
                      std::uint32_t bytes, sim::Time when, const sim::TraceContext& parent);
  Transaction execute_path(TransactionKind kind, hw::BrickId compute, std::uint64_t address,
                           std::uint32_t bytes, sim::Time when, const sim::TraceContext& ctx);
  sim::Time serialization_time(std::uint32_t bytes, LinkMedium medium,
                               std::size_t lanes) const;
  const Attachment* find_attachment(hw::BrickId compute, std::uint64_t address) const;
  bool same_tray(hw::BrickId a, hw::BrickId b) const;
};

}  // namespace dredbox::memsys
