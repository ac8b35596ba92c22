#include "memsys/remote_memory.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"
#include "sim/span.hpp"

namespace dredbox::memsys {

namespace {

// Interned breakdown components for the per-transaction datapath: resolved
// once at startup so execute_path() charges by 2-byte id instead of paying
// a registry scan per stage per transaction (ISSUE 9b).
const sim::ComponentId kBdTglLookup = sim::component_id("TGL lookup (RMST)");
const sim::ComponentId kBdCircuitWait = sim::component_id("circuit wait");
const sim::ComponentId kBdSerialization = sim::component_id("serialization");
const sim::ComponentId kBdSerdesTx = sim::component_id("GTH serdes (TX)");
const sim::ComponentId kBdSerdesRx = sim::component_id("GTH serdes (RX)");
const sim::ComponentId kBdSerdesReturn = sim::component_id("GTH serdes (return)");
const sim::ComponentId kBdOpticalProp = sim::component_id("optical propagation");
const sim::ComponentId kBdElectricalProp = sim::component_id("electrical propagation");
const sim::ComponentId kBdGlueLogic = sim::component_id("glue logic (dMEMBRICK)");
const sim::ComponentId kBdMcWait = sim::component_id("memory controller wait");
const sim::ComponentId kBdMemAccess = sim::component_id("memory access");
const sim::ComponentId kBdRetryBackoff = sim::component_id("retry backoff");
const sim::ComponentId kBdReprovision = sim::component_id("circuit re-provision");

// Re-points one RMST entry: the table has no in-place update, so the entry
// is removed and re-inserted (it moves to the end of the insertion order).
void repoint(hw::Rmst& rmst, hw::SegmentId old_segment, const hw::RmstEntry& entry) {
  rmst.remove(old_segment);
  rmst.insert(entry);
}

}  // namespace

std::string to_string(TransactionKind kind) {
  return kind == TransactionKind::kRead ? "read" : "write";
}

std::string to_string(LinkMedium medium) {
  switch (medium) {
    case LinkMedium::kElectrical:
      return "electrical (intra-tray)";
    case LinkMedium::kOptical:
      return "optical (cross-tray)";
    case LinkMedium::kPacket:
      return "packet (fallback)";
  }
  return "<unknown link medium>";
}

std::string to_string(TransactionStatus status) {
  switch (status) {
    case TransactionStatus::kOk:
      return "ok";
    case TransactionStatus::kNoMapping:
      return "no-mapping";
    case TransactionStatus::kCircuitDown:
      return "circuit-down";
    case TransactionStatus::kCorruptMapping:
      return "corrupt-mapping";
    case TransactionStatus::kBrickFailed:
      return "brick-failed";
  }
  return "<unknown status>";
}

std::string to_string(AttachError err) {
  switch (err) {
    case AttachError::kNoMemory:
      return "no contiguous memory on dMEMBRICK";
    case AttachError::kNoComputePort:
      return "no free circuit port on dCOMPUBRICK";
    case AttachError::kNoMemoryPort:
      return "no free circuit port on dMEMBRICK";
    case AttachError::kNoSwitchPorts:
      return "optical switch out of ports";
    case AttachError::kRmstFull:
      return "RMST full";
    case AttachError::kBrickFailed:
      return "dMEMBRICK has failed";
  }
  return "<unknown attach error>";
}

RemoteMemoryFabric::RemoteMemoryFabric(hw::Rack& rack, optics::CircuitManager& circuits,
                                       const CircuitPathLatencies& latencies)
    : rack_{rack}, circuits_{circuits}, latencies_{latencies} {}

void RemoteMemoryFabric::set_telemetry(sim::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    attaches_metric_ = attach_failures_metric_ = detaches_metric_ = nullptr;
    transactions_metric_ = failed_tx_metric_ = nullptr;
    read_latency_metric_ = write_latency_metric_ = nullptr;
    rmst_entries_metric_ = rmst_mapped_metric_ = nullptr;
    retries_metric_ = retry_exhausted_metric_ = reprovisions_metric_ = nullptr;
    packet_failovers_metric_ = rmst_scrubs_metric_ = rmst_corruptions_metric_ = nullptr;
    relocations_metric_ = nullptr;
    return;
  }
  auto& m = telemetry->metrics();
  attaches_metric_ = &m.counter("memsys.fabric.attaches");
  attach_failures_metric_ = &m.counter("memsys.fabric.attach_failures");
  detaches_metric_ = &m.counter("memsys.fabric.detaches");
  transactions_metric_ = &m.counter("memsys.fabric.transactions");
  failed_tx_metric_ = &m.counter("memsys.fabric.failed_transactions");
  // Round trips sit in the hundreds of ns (electrical / optical) up to a
  // few us (packet fallback); RunningStats inside the histogram keeps the
  // exact mean/min/max for out-of-range samples.
  read_latency_metric_ = &m.histogram("memsys.read.latency_ns", 0.0, 10000.0, 50);
  write_latency_metric_ = &m.histogram("memsys.write.latency_ns", 0.0, 10000.0, 50);
  rmst_entries_metric_ = &m.gauge("hw.rmst.entries");
  rmst_mapped_metric_ = &m.gauge("hw.rmst.mapped_bytes");
  retries_metric_ = &m.counter("memsys.fabric.retries");
  retry_exhausted_metric_ = &m.counter("memsys.fabric.retry_exhausted");
  reprovisions_metric_ = &m.counter("memsys.fabric.reprovisions");
  packet_failovers_metric_ = &m.counter("memsys.fabric.packet_failovers");
  rmst_scrubs_metric_ = &m.counter("memsys.fabric.rmst_scrubs");
  rmst_corruptions_metric_ = &m.counter("memsys.fabric.rmst_corruptions");
  relocations_metric_ = &m.counter("memsys.fabric.relocations");
}

bool RemoteMemoryFabric::same_tray(hw::BrickId a, hw::BrickId b) const {
  return rack_.brick(a).tray() == rack_.brick(b).tray();
}

std::size_t RemoteMemoryFabric::electrical_links() const {
  return static_cast<std::size_t>(
      std::count_if(live_links_.begin(), live_links_.end(),
                    [](const LiveLink& l) { return l.medium == LinkMedium::kElectrical; }));
}

std::size_t RemoteMemoryFabric::packet_links() const {
  return static_cast<std::size_t>(
      std::count_if(live_links_.begin(), live_links_.end(),
                    [](const LiveLink& l) { return l.medium == LinkMedium::kPacket; }));
}

std::optional<Attachment> RemoteMemoryFabric::attach(const AttachRequest& request,
                                                     sim::Time now) {
  auto result = attach_impl(request, now);
  if (telemetry_ != nullptr) {
    if (result) {
      attaches_metric_->add();
      rmst_entries_metric_->add(1.0);
      rmst_mapped_metric_->add(static_cast<double>(result->size));
      if (telemetry_->tracing()) {
        sim::Span span{telemetry_->tracer(), sim::TraceCategory::kFabric, "attach", now};
        span.arg("compute", std::to_string(request.compute.value))
            .arg("membrick", std::to_string(request.membrick.value))
            .arg("bytes", std::to_string(result->size))
            .arg("medium", to_string(result->medium));
        span.end(now);
      }
    } else {
      attach_failures_metric_->add();
    }
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return result;
}

RemoteMemoryFabric::Link RemoteMemoryFabric::link_of(const Attachment& a) {
  return Link{a.circuit, a.medium, a.lanes, a.switch_hops, a.fiber_length_m, hw::PortId{0}};
}

void RemoteMemoryFabric::ride(Attachment& a, const Link& link, sim::Time now) {
  a.circuit = link.id;
  a.medium = link.medium;
  a.lanes = link.lanes;
  a.switch_hops = link.switch_hops;
  a.fiber_length_m = link.fiber_length_m;
  a.established_at = now;
}

std::vector<Attachment>::iterator RemoteMemoryFabric::find_record(hw::BrickId compute,
                                                                  hw::SegmentId segment) {
  return std::find_if(attachments_.begin(), attachments_.end(), [&](const Attachment& a) {
    return a.compute == compute && a.segment == segment;
  });
}

std::optional<RemoteMemoryFabric::Link> RemoteMemoryFabric::pair_link(
    hw::BrickId compute, hw::BrickId membrick) const {
  for (const auto& a : attachments_) {
    if (a.compute == compute && a.membrick == membrick) return link_of(a);
  }
  return std::nullopt;
}

bool RemoteMemoryFabric::ports_free(hw::BrickId compute, hw::BrickId membrick,
                                    std::size_t lanes) {
  if (rack_.brick(compute).free_port_count(/*circuit_based=*/true) < lanes) {
    last_error_ = AttachError::kNoComputePort;
    return false;
  }
  if (rack_.brick(membrick).free_port_count(/*circuit_based=*/true) < lanes) {
    last_error_ = AttachError::kNoMemoryPort;
    return false;
  }
  return true;
}

RemoteMemoryFabric::Link RemoteMemoryFabric::wire_electrical(hw::BrickId compute,
                                                             hw::BrickId membrick, Link want) {
  // Tray backplane cross-connect: no optical switch ports involved.
  LiveLink link{hw::CircuitId{next_electrical_id_++}, LinkMedium::kElectrical, want.lanes,
                latencies_.electrical_propagation, sim::Time::zero(), compute, membrick, {}};
  for (std::size_t l = 0; l < want.lanes; ++l) {
    auto* cport = rack_.brick(compute).find_free_port(/*circuit_based=*/true);
    auto* mport = rack_.brick(membrick).find_free_port(/*circuit_based=*/true);
    cport->connected = true;
    mport->connected = true;
    link.wired.push_back(LiveLink::Lane{cport->id, mport->id, hw::CircuitId{}});
  }
  want.id = link.id;
  want.medium = LinkMedium::kElectrical;
  want.out_port = link.wired.front().compute_port;
  live_links_.push_back(std::move(link));
  return want;
}

std::optional<RemoteMemoryFabric::Link> RemoteMemoryFabric::wire_optical(hw::BrickId compute,
                                                                         hw::BrickId membrick,
                                                                         Link want) {
  // One circuit per lane, all bonded under the first (primary) id.
  LiveLink link{hw::CircuitId{}, LinkMedium::kOptical, 0, sim::Time::zero(), sim::Time::zero(),
                compute, membrick, {}};
  for (std::size_t l = 0; l < want.lanes; ++l) {
    auto* cport = rack_.brick(compute).find_free_port(/*circuit_based=*/true);
    auto* mport = rack_.brick(membrick).find_free_port(/*circuit_based=*/true);
    if (cport == nullptr || mport == nullptr) {
      last_error_ =
          cport == nullptr ? AttachError::kNoComputePort : AttachError::kNoMemoryPort;
      break;
    }
    optics::CircuitRequest creq;
    creq.a = optics::CircuitEndpoint{compute, cport->id, -3.7, 1.2};
    creq.b = optics::CircuitEndpoint{membrick, mport->id, -3.7, 1.2};
    creq.hops = want.switch_hops;
    creq.fiber_length_m = want.fiber_length_m;
    auto circuit = circuits_.establish(creq);
    if (!circuit) {
      last_error_ = AttachError::kNoSwitchPorts;
      break;
    }
    cport->connected = true;
    mport->connected = true;
    if (link.wired.empty()) {
      link.id = circuit->id;
      link.propagation = circuit->propagation_delay();
      want.out_port = cport->id;
    }
    link.wired.push_back(LiveLink::Lane{cport->id, mport->id, circuit->id});
  }
  if (link.wired.empty()) return std::nullopt;
  link.lanes = link.wired.size();
  want.id = link.id;
  want.medium = LinkMedium::kOptical;
  want.lanes = link.lanes;
  live_links_.push_back(std::move(link));
  return want;
}

std::optional<RemoteMemoryFabric::Link> RemoteMemoryFabric::wire_packet(hw::BrickId compute,
                                                                        hw::BrickId membrick,
                                                                        Link want) {
  // Packet substrate (Section III): when the system runs low on physical
  // circuit ports, the orchestrator programs packet-switch lookup tables
  // instead of a dedicated circuit; one route serves the whole pair.
  if (packet_net_ == nullptr || !packet_net_->has_brick(compute) ||
      !packet_net_->has_brick(membrick)) {
    return std::nullopt;
  }
  want.medium = LinkMedium::kPacket;
  want.lanes = 1;
  want.out_port = hw::PortId{0};
  const auto route = std::find_if(live_links_.begin(), live_links_.end(), [&](const LiveLink& l) {
    return l.medium == LinkMedium::kPacket && l.compute == compute && l.membrick == membrick;
  });
  if (route != live_links_.end()) {
    want.id = route->id;
    return want;
  }
  if (!packet_net_->connected(compute, membrick)) {
    packet_net_->connect(compute, membrick, want.fiber_length_m);
  }
  want.id = hw::CircuitId{next_packet_id_++};
  live_links_.push_back(LiveLink{want.id, LinkMedium::kPacket, 1, sim::Time::zero(),
                                 sim::Time::zero(), compute, membrick, {}});
  return want;
}

void RemoteMemoryFabric::release_if_unused(hw::CircuitId id) {
  if (std::any_of(attachments_.begin(), attachments_.end(),
                  [&](const Attachment& a) { return a.circuit == id; })) {
    return;
  }
  if (const auto link = link_holding(id); link != live_links_.end()) tear(link);
}

std::vector<RemoteMemoryFabric::LiveLink>::iterator RemoteMemoryFabric::link_holding(
    hw::CircuitId lane) {
  return std::find_if(live_links_.begin(), live_links_.end(), [&](const LiveLink& l) {
    if (l.medium != LinkMedium::kOptical) return l.id == lane;
    return std::any_of(l.wired.begin(), l.wired.end(),
                       [&](const LiveLink::Lane& w) { return w.circuit == lane; });
  });
}

bool RemoteMemoryFabric::tear(std::vector<LiveLink>::iterator link) {
  bool live = false;
  for (const LiveLink::Lane& lane : link->wired) {
    rack_.brick(link->compute).port(lane.compute_port.value).connected = false;
    rack_.brick(link->membrick).port(lane.membrick_port.value).connected = false;
    if (lane.circuit.valid() && circuits_.find_ref(lane.circuit) != nullptr) {
      circuits_.teardown(lane.circuit);
      live = true;
    }
  }
  live_links_.erase(link);
  return live;
}

RemoteMemoryFabric::LiveLink* RemoteMemoryFabric::find_link(hw::CircuitId id) {
  for (auto& l : live_links_) {
    if (l.id == id) return &l;
  }
  return nullptr;
}

void RemoteMemoryFabric::track_controllers(hw::BrickId membrick) {
  const std::size_t controllers =
      std::max<std::size_t>(1, rack_.memory_brick(membrick).config().memory_controllers);
  if (mc_busy_until_.size() <= membrick.value) {
    mc_busy_until_.resize(membrick.value + 1);
  }
  auto& row = mc_busy_until_[membrick.value];
  if (row.size() < controllers) row.resize(controllers, sim::Time::zero());
}

std::optional<Attachment> RemoteMemoryFabric::attach_impl(const AttachRequest& request,
                                                          sim::Time now) {
  auto& compute = rack_.compute_brick(request.compute);
  auto& membrick = rack_.memory_brick(request.membrick);

  if (membrick.failed()) {
    last_error_ = AttachError::kBrickFailed;
    return std::nullopt;
  }
  if (compute.tgl().rmst().full()) {
    last_error_ = AttachError::kRmstFull;
    return std::nullopt;
  }
  if (membrick.largest_free_extent() < request.bytes) {
    last_error_ = AttachError::kNoMemory;
    return std::nullopt;
  }

  // Reuse the pair's link, else wire the full bond (a short optical bond
  // is rolled back), else fall back to the packet substrate if allowed.
  Link want;
  want.lanes = std::max<std::size_t>(1, request.lanes);
  want.switch_hops = request.switch_hops;
  want.fiber_length_m = request.fiber_length_m;
  std::optional<Link> link = pair_link(request.compute, request.membrick);
  if (!link && ports_free(request.compute, request.membrick, want.lanes)) {
    if (request.prefer_electrical_intra_tray && same_tray(request.compute, request.membrick)) {
      link = wire_electrical(request.compute, request.membrick, want);
    } else if (circuits_.optical_switch().free_ports() < 2 * want.switch_hops * want.lanes) {
      last_error_ = AttachError::kNoSwitchPorts;
    } else {
      link = wire_optical(request.compute, request.membrick, want);
      if (link && link->lanes < want.lanes) {
        release_if_unused(link->id);
        link.reset();
      }
    }
  }
  if (!link && request.allow_packet_fallback) {
    link = wire_packet(request.compute, request.membrick, want);
  }
  if (!link) return std::nullopt;

  auto segment = membrick.allocate(request.bytes, request.compute);
  if (!segment) {
    // largest_free_extent was checked above; reaching here means a race in
    // caller logic. Keep the invariant: undo the link if fresh.
    last_error_ = AttachError::kNoMemory;
    release_if_unused(link->id);
    return std::nullopt;
  }

  hw::RmstEntry entry;
  entry.segment = segment->id;
  entry.base = compute.find_remote_window(request.bytes);
  entry.size = request.bytes;
  entry.dest_brick = request.membrick;
  entry.dest_base = segment->base;
  entry.out_port = link->out_port;
  entry.circuit = link->id;
  compute.tgl().rmst().insert(entry);

  Attachment a;
  a.compute = request.compute;
  a.membrick = request.membrick;
  a.segment = segment->id;
  a.compute_base = entry.base;
  a.size = request.bytes;
  ride(a, *link, now);
  attachments_.push_back(a);
  track_controllers(request.membrick);
  return a;
}

bool RemoteMemoryFabric::detach(hw::BrickId compute, hw::SegmentId segment) {
  const auto it = find_record(compute, segment);
  if (it == attachments_.end()) return false;

  const Attachment removed = *it;
  attachments_.erase(it);

  rack_.compute_brick(removed.compute).tgl().rmst().remove(segment);
  rack_.memory_brick(removed.membrick).release(segment);

  if (telemetry_ != nullptr) {
    detaches_metric_->add();
    rmst_entries_metric_->add(-1.0);
    rmst_mapped_metric_->add(-static_cast<double>(removed.size));
  }

  release_if_unused(removed.circuit);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return true;
}

std::optional<RemoteMemoryFabric::MigratedAttachment> RemoteMemoryFabric::migrate_attachment(
    hw::SegmentId segment, hw::BrickId from, hw::BrickId to, sim::Time now) {
  const auto it = find_record(from, segment);
  if (it == attachments_.end()) return std::nullopt;

  auto& new_compute = rack_.compute_brick(to);
  if (new_compute.tgl().rmst().full()) {
    last_error_ = AttachError::kRmstFull;
    return std::nullopt;
  }

  // Wire (or reuse) connectivity between the destination brick and the
  // serving dMEMBRICK before touching the source side, so failure leaves
  // the old attachment intact. A fresh link is one lane on the record's
  // hop count and fibre run.
  std::optional<Link> link = pair_link(to, it->membrick);
  const bool wired_fresh = !link;
  if (!link) {
    if (!ports_free(to, it->membrick, 1)) return std::nullopt;
    Link want = link_of(*it);
    want.lanes = 1;
    link = same_tray(to, it->membrick) ? wire_electrical(to, it->membrick, want)
                                       : wire_optical(to, it->membrick, want);
    if (!link) return std::nullopt;
  }

  // Move the RMST entry: remove at the source, install at the destination.
  auto& old_rmst = rack_.compute_brick(from).tgl().rmst();
  const auto old_entry = old_rmst.find_segment(segment);
  old_rmst.remove(segment);

  hw::RmstEntry entry;
  entry.segment = segment;
  entry.base = new_compute.find_remote_window(it->size);
  entry.size = it->size;
  entry.dest_brick = it->membrick;
  entry.dest_base = old_entry ? old_entry->dest_base : 0;
  entry.out_port = link->out_port;
  entry.circuit = link->id;
  new_compute.tgl().rmst().insert(entry);

  rack_.memory_brick(it->membrick).reassign(segment, to);

  const hw::CircuitId old_circuit = it->circuit;
  it->compute = to;
  it->compute_base = entry.base;
  ride(*it, *link, now);
  const Attachment updated = *it;
  release_if_unused(old_circuit);

  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return MigratedAttachment{updated, wired_fresh};
}

bool RemoteMemoryFabric::fail_circuit(hw::CircuitId circuit) {
  // Only the optical substrate is subject to this fault model (fibres and
  // beam-steering cross-connects); the tray backplane is passive copper.
  const auto link = link_holding(circuit);
  const bool any = link != live_links_.end() && link->medium == LinkMedium::kOptical && tear(link);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return any;
}

std::optional<Attachment> RemoteMemoryFabric::repair(hw::BrickId compute,
                                                     hw::SegmentId segment, sim::Time now) {
  const auto it = find_record(compute, segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->medium != LinkMedium::kOptical) return *it;          // nothing to repair
  if (circuits_.find_ref(it->circuit) != nullptr) return *it;  // circuit is healthy

  // Rebuild the exact pre-failure link: same hop count, same fibre run,
  // re-bonding up to the original lane count (degrading gracefully to
  // fewer lanes when ports ran scarce in the meantime, never below one).
  const auto link = wire_optical(compute, it->membrick, link_of(*it));
  if (!link) return std::nullopt;  // could not wire even one lane

  // Heal every attachment (and RMST entry) that rode the dead circuit. The
  // compute-side window must come back byte-identical: only the link
  // record changes, never base or size.
  const hw::CircuitId dead = it->circuit;
  for (auto& a : attachments_) {
    if (a.circuit != dead) continue;
    ride(a, *link, now);
    auto& rmst = rack_.compute_brick(a.compute).tgl().rmst();
    if (auto entry = rmst.find_segment(a.segment)) {
      entry->circuit = link->id;
      entry->out_port = link->out_port;
      repoint(rmst, a.segment, *entry);
      DREDBOX_ENSURE(entry->base == a.compute_base && entry->size == a.size,
                     "repair changed the RMST window of segment " + a.segment.to_string());
    }
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return *it;
}

void RemoteMemoryFabric::on_circuits_torn(const std::vector<optics::Circuit>& torn) {
  for (const auto& c : torn) {
    // The manager already dropped `c`; tearing its link takes the bond
    // siblings. A circuit the fabric did not wire still frees its ports.
    rack_.brick(c.a.brick).port(c.a.port.value).connected = false;
    rack_.brick(c.b.brick).port(c.b.port.value).connected = false;
    if (const auto link = link_holding(c.id); link != live_links_.end()) tear(link);
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
}

std::optional<Attachment> RemoteMemoryFabric::failover_to_packet(hw::BrickId compute,
                                                                 hw::SegmentId segment,
                                                                 sim::Time now) {
  const auto it = find_record(compute, segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->medium == LinkMedium::kPacket) return *it;  // already failed over
  const auto link = wire_packet(compute, it->membrick, link_of(*it));
  if (!link) return std::nullopt;

  // Re-point the RMST entry; window and backing bytes stay untouched.
  auto& rmst = rack_.compute_brick(compute).tgl().rmst();
  if (auto entry = rmst.find_segment(segment)) {
    entry->circuit = link->id;
    repoint(rmst, segment, *entry);
  }

  const hw::CircuitId old_circuit = it->circuit;
  ride(*it, *link, now);
  const Attachment updated = *it;
  release_if_unused(old_circuit);
  if (packet_failovers_metric_ != nullptr) packet_failovers_metric_->add();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return updated;
}

std::optional<Attachment> RemoteMemoryFabric::relocate_segment(hw::BrickId compute,
                                                               hw::SegmentId old_segment,
                                                               hw::BrickId new_membrick,
                                                               sim::Time now) {
  const auto it = find_record(compute, old_segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->membrick == new_membrick) return *it;  // already there

  auto& new_mb = rack_.memory_brick(new_membrick);
  if (new_mb.failed()) {
    last_error_ = AttachError::kBrickFailed;
    return std::nullopt;
  }
  if (new_mb.largest_free_extent() < it->size) {
    last_error_ = AttachError::kNoMemory;
    return std::nullopt;
  }

  // Wire (or reuse) connectivity to the new dMEMBRICK before touching the
  // old side, so failure leaves the attachment intact. Preference order:
  // shared pair link, one electrical lane within a tray (even when the
  // attachment was optical by preference), one optical lane, packet.
  Link want = link_of(*it);
  want.lanes = 1;
  std::optional<Link> link = pair_link(compute, new_membrick);
  if (!link && ports_free(compute, new_membrick, 1)) {
    link = same_tray(compute, new_membrick) ? wire_electrical(compute, new_membrick, want)
                                            : wire_optical(compute, new_membrick, want);
  }
  if (!link) link = wire_packet(compute, new_membrick, want);
  if (!link) {
    last_error_ = AttachError::kNoSwitchPorts;
    return std::nullopt;
  }

  // Carve the replacement segment (ids are namespaced by the carving
  // brick, so relocation necessarily issues a new segment id).
  auto new_seg = new_mb.allocate(it->size, compute);
  if (!new_seg) {
    last_error_ = AttachError::kNoMemory;
    release_if_unused(link->id);
    return std::nullopt;
  }

  // Re-point the RMST entry, keeping the compute-side window identical.
  hw::RmstEntry entry;
  entry.segment = new_seg->id;
  entry.base = it->compute_base;
  entry.size = it->size;
  entry.dest_brick = new_membrick;
  entry.dest_base = new_seg->base;
  entry.out_port = link->out_port;
  entry.circuit = link->id;
  repoint(rack_.compute_brick(compute).tgl().rmst(), old_segment, entry);

  const Attachment old = *it;
  it->membrick = new_membrick;
  it->segment = new_seg->id;
  ride(*it, *link, now);
  const Attachment result = *it;

  // Release the old backing bytes and the old link when last rider.
  rack_.memory_brick(old.membrick).release(old_segment);
  release_if_unused(old.circuit);
  track_controllers(new_membrick);
  if (relocations_metric_ != nullptr) relocations_metric_->add();
  DREDBOX_ENSURE(result.compute_base == old.compute_base && result.size == old.size,
                 "relocation changed the compute-side window");
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return result;
}

bool RemoteMemoryFabric::corrupt_rmst(hw::BrickId compute, std::size_t ordinal) {
  auto& rmst = rack_.compute_brick(compute).tgl().rmst();
  std::size_t seen = 0;
  for (const auto& a : attachments_) {
    if (a.compute != compute) continue;
    if (seen++ != ordinal) continue;
    auto entry = rmst.find_segment(a.segment);
    if (!entry) return false;
    hw::RmstEntry mangled = *entry;
    // A modelled SEU in the PL's segment comparators: the destination
    // offset picks up flipped bits, scattering accesses over wrong bytes.
    mangled.dest_base ^= 0x5a5a000ull;
    repoint(rmst, a.segment, mangled);
    if (rmst_corruptions_metric_ != nullptr) rmst_corruptions_metric_->add();
    return true;
  }
  return false;
}

std::size_t RemoteMemoryFabric::scrub_rmst(hw::BrickId compute) {
  auto& rmst = rack_.compute_brick(compute).tgl().rmst();
  std::size_t rewritten = 0;
  for (const auto& a : attachments_) {
    if (a.compute != compute) continue;
    const auto backing = rack_.memory_brick(a.membrick).find_segment(a.segment);
    if (!backing) continue;
    const auto entry = rmst.find_segment(a.segment);
    hw::RmstEntry fixed;
    fixed.segment = a.segment;
    fixed.base = a.compute_base;
    fixed.size = a.size;
    fixed.dest_brick = a.membrick;
    fixed.dest_base = backing->base;
    fixed.out_port = entry ? entry->out_port : hw::PortId{0};
    fixed.circuit = a.circuit;
    repoint(rmst, a.segment, fixed);
    ++rewritten;
  }
  if (rewritten > 0 && rmst_scrubs_metric_ != nullptr) rmst_scrubs_metric_->add();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return rewritten;
}

std::vector<Attachment> RemoteMemoryFabric::attachments_of(hw::BrickId compute) const {
  std::vector<Attachment> out;
  for (const auto& a : attachments_) {
    if (a.compute == compute) out.push_back(a);
  }
  return out;
}

std::uint64_t RemoteMemoryFabric::attached_bytes(hw::BrickId compute) const {
  std::uint64_t total = 0;
  for (const auto& a : attachments_) {
    if (a.compute == compute) total += a.size;
  }
  return total;
}

sim::Time RemoteMemoryFabric::serialization_time(std::uint32_t bytes, LinkMedium medium,
                                                 std::size_t lanes) const {
  const double bits = static_cast<double>(bytes + latencies_.framing_bytes) * 8.0;
  const double rate = medium == LinkMedium::kElectrical ? latencies_.electrical_rate_gbps
                                                        : latencies_.line_rate_gbps;
  // Bonded lanes stripe the payload (aggregate-bandwidth mode, Section II).
  return sim::Time::ns(bits / (rate * static_cast<double>(std::max<std::size_t>(1, lanes))));
}

const Attachment* RemoteMemoryFabric::find_attachment(hw::BrickId compute,
                                                      std::uint64_t address) const {
  for (const auto& a : attachments_) {
    if (a.compute == compute && address >= a.compute_base &&
        address - a.compute_base < a.size) {
      return &a;
    }
  }
  return nullptr;
}

// dredbox-lint: hot-path-begin — execute()/execute_path() are the per-op
// datapath (one traversal per remote read/write, plus one per retry
// attempt); steady state must not allocate. Tracing-gated telemetry and
// the fault-recovery branches are cold and carry suppressions.
Transaction RemoteMemoryFabric::execute(TransactionKind kind, hw::BrickId compute,
                                        std::uint64_t address, std::uint32_t bytes,
                                        sim::Time when, const sim::TraceContext& parent) {
  // The fabric span's causal identity: nested under the caller's trace
  // when one was passed (workload op, DMA chunk), a fresh root otherwise.
  // Minting never draws from the simulation Rng, so tracing on/off leaves
  // the op stream and digests untouched.
  sim::TraceContext ctx;
  const bool tracing = telemetry_ != nullptr && telemetry_->tracing();
  if (tracing) {
    auto& tracer = telemetry_->tracer();
    ctx = parent.valid() ? tracer.child_of(parent) : tracer.begin_trace();
  }

  Transaction tx = execute_path(kind, compute, address, bytes, when, ctx);

  // Recovery loop: with a retry policy set, failed transactions back off
  // exponentially and attack the cause — scrub a corrupted RMST, wire a
  // replacement circuit, or fall back to the packet substrate. Attempts
  // are bounded by the policy (count and hard deadline), so a transaction
  // against a truly dead resource still completes, just not ok().
  if (!tx.ok() && retry_policy_.has_value()) {
    sim::BackoffSchedule schedule{*retry_policy_, when};
    sim::Breakdown accumulated = tx.breakdown;
    sim::Time t = tx.completed_at;
    std::uint32_t retries = 0;
    while (!tx.ok()) {
      // A crashed dMEMBRICK is not recoverable from the data plane; the
      // orchestrator has to evacuate the segment first.
      if (tx.status == TransactionStatus::kBrickFailed) break;
      const Attachment* a = find_attachment(compute, address);
      if (a == nullptr) break;  // genuine decode fault: no window installed

      const auto delay = schedule.next(t);
      if (!delay) {
        if (retry_exhausted_metric_ != nullptr) retry_exhausted_metric_->add();
        break;
      }
      accumulated.charge(kBdRetryBackoff, *delay);
      if (tracing) {
        telemetry_->tracer().record_span(t, t + *delay, sim::TraceCategory::kFabric,
                                         "retry backoff",
                                         {{"status", to_string(tx.status)}},
                                         telemetry_->tracer().child_of(ctx));
      }
      t += *delay;

      bool recovered = true;
      if (tx.status == TransactionStatus::kCorruptMapping ||
          tx.status == TransactionStatus::kNoMapping) {
        scrub_rmst(compute);
        if (tracing) {
          telemetry_->tracer().record_span(t, t, sim::TraceCategory::kFabric, "RMST scrub", {},
                                           telemetry_->tracer().child_of(ctx));
        }
      } else if (tx.status == TransactionStatus::kCircuitDown) {
        if (repair(compute, a->segment, t).has_value()) {
          accumulated.charge(kBdReprovision, circuits_.setup_time());
          if (tracing) {
            telemetry_->tracer().record_span(t, t + circuits_.setup_time(),
                                             sim::TraceCategory::kFabric,
                                             "circuit re-provision", {},
                                             telemetry_->tracer().child_of(ctx));
          }
          t += circuits_.setup_time();
          if (reprovisions_metric_ != nullptr) reprovisions_metric_->add();
        } else if (failover_to_packet(compute, a->segment, t).has_value()) {
          if (tracing) {
            telemetry_->tracer().record_span(t, t, sim::TraceCategory::kFabric,
                                             "packet failover", {},
                                             telemetry_->tracer().child_of(ctx));
          }
        } else {
          recovered = false;  // no optical spare, no packet path: give up
        }
      }
      if (!recovered) break;

      ++retries;
      if (retries_metric_ != nullptr) retries_metric_->add();
      Transaction attempt = execute_path(kind, compute, address, bytes, t, ctx);
      accumulated.merge(attempt.breakdown);
      tx = attempt;
      t = tx.completed_at;
    }
    tx.issued_at = when;
    tx.completed_at = std::max(tx.completed_at, t);
    tx.breakdown = accumulated;
    tx.retries = retries;
  }

  if (telemetry_ != nullptr) {
    transactions_metric_->add();
    if (tx.ok()) {
      auto* latency = kind == TransactionKind::kRead ? read_latency_metric_ : write_latency_metric_;
      latency->observe(tx.round_trip().as_ns());
    } else {
      failed_tx_metric_->add();
    }
    if (telemetry_->tracing()) {
      sim::Span span{telemetry_->tracer(), sim::TraceCategory::kFabric,
                     kind == TransactionKind::kRead ? "remote read" : "remote write", tx.issued_at};
      span.context(ctx);
      span.arg("bytes", std::to_string(tx.bytes)).arg("status", to_string(tx.status));  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
      // dredbox-lint: ignore[hot-path-alloc] tracing-gated
      if (tx.retries > 0) span.arg("retries", std::to_string(tx.retries));
      // Per-op critical-path breakdown, keyed on the span itself so a
      // report reader sees where this transaction's round trip went.
      for (const auto& [component, amount] : tx.breakdown.components()) {
        span.arg(std::string{"bd."}.append(component), sim::strformat("%.3f", amount.as_ns()));  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
      }
      span.end(tx.completed_at);
    }
  }
  tx.ctx = ctx;
  return tx;
}

Transaction RemoteMemoryFabric::execute_path(TransactionKind kind, hw::BrickId compute,
                                             std::uint64_t address, std::uint32_t bytes,
                                             sim::Time when, const sim::TraceContext& ctx) {
  Transaction tx;
  tx.kind = kind;
  tx.source = compute;
  tx.address = address;
  tx.bytes = bytes;
  tx.issued_at = when;

  auto& cb = rack_.compute_brick(compute);

  // The APU forwards the transaction to the TGL via its master ports; the
  // TGL identifies the remote segment (fully associative RMST match).
  tx.breakdown.append(kBdTglLookup, latencies_.tgl_lookup);
  sim::Time t = when + latencies_.tgl_lookup;

  auto route = cb.tgl().route(address);
  if (!route) {
    tx.status = TransactionStatus::kNoMapping;
    tx.completed_at = t;
    return tx;
  }
  tx.destination = route->entry->dest_brick;
  tx.remote_address = route->remote_addr;

  // The serving dMEMBRICK, resolved once for the whole traversal.
  const hw::MemoryBrick& mb = rack_.memory_brick(tx.destination);

  // A crashed dMEMBRICK never answers: the transaction dies at the TGL
  // (the modelled equivalent of an AXI timeout back to the APU).
  if (mb.failed()) {
    tx.status = TransactionStatus::kBrickFailed;
    tx.completed_at = t;
    return tx;
  }

  // Cross-check the RMST entry against the dMEMBRICK's segment table: a
  // corrupted entry (SEU in the PL comparators) would scatter the access
  // over the wrong backing bytes, so it is refused instead.
  const auto backing = mb.find_segment(route->entry->segment);
  if (!backing || backing->owner != compute || backing->base != route->entry->dest_base) {
    tx.status = TransactionStatus::kCorruptMapping;
    tx.completed_at = t;
    return tx;
  }

  const hw::MemoryTechnology tech = mb.config().technology;

  // One lookup resolves the link: medium, lanes, propagation and cable
  // occupancy. No live link means it is down (a failed or torn optical
  // circuit awaiting repair).
  LiveLink* link = find_link(route->entry->circuit);
  if (link == nullptr) {
    tx.status = TransactionStatus::kCircuitDown;
    tx.completed_at = t;
    return tx;
  }

  // Packet-substrate attachments delegate the whole round trip to the
  // packet network model (NI, on-brick switches, MAC/PHY).
  if (link->medium == LinkMedium::kPacket) {
    net::Packet pkt =
        kind == TransactionKind::kRead
            ? packet_net_->remote_read(compute, tx.destination, tx.remote_address, bytes, t,
                                       tech, ctx)
            : packet_net_->remote_write(compute, tx.destination, tx.remote_address, bytes, t,
                                        tech, ctx);
    tx.breakdown.merge(pkt.breakdown);
    tx.completed_at = pkt.delivered_at;
    return tx;
  }

  const bool electrical = link->medium == LinkMedium::kElectrical;
  const sim::Time serdes = electrical ? latencies_.electrical_serdes : latencies_.serdes;
  const sim::Time propagation = link->propagation;

  // Array occupancy: first-word latency plus streaming time for the
  // payload at the controller's bandwidth.
  const bool hmc = tech == hw::MemoryTechnology::kHmc;
  const double array_gbps = hmc ? latencies_.hmc_bandwidth_gbps : latencies_.ddr_bandwidth_gbps;
  const sim::Time mem_access = (hmc ? latencies_.hmc_access : latencies_.ddr_access) +
                               sim::Time::ns(static_cast<double>(bytes) * 8.0 / array_gbps);

  // Outbound: request (write carries payload; read is header-only) waits
  // for the cable, then crosses serdes, the wire and serdes again.
  const std::uint32_t out_bytes = kind == TransactionKind::kWrite ? bytes : 0;
  const sim::Time out_ser = serialization_time(out_bytes, link->medium, link->lanes);
  const sim::Time send = std::max(t, link->busy_until);
  const sim::Time circuit_wait = send - t;
  link->busy_until = send + out_ser;
  t = send + out_ser + serdes + propagation + serdes + latencies_.glue_logic;

  // dMEMBRICK: glue logic steers the transaction to one of the brick's
  // memory controllers (address-interleaved); a busy controller delays
  // the access, so bricks dimensioned with more controllers sustain more
  // concurrent transactions (Section II).
  DREDBOX_REQUIRE(tx.destination.value < mc_busy_until_.size() &&
                      mc_busy_until_[tx.destination.value].size() ==
                          std::max<std::size_t>(1, mb.config().memory_controllers),
                  "controller table row not sized for dMEMBRICK " + tx.destination.to_string());
  auto& controllers = mc_busy_until_[tx.destination.value];
  const std::size_t mc =
      static_cast<std::size_t>(tx.remote_address >> 12) % controllers.size();
  sim::Time& mc_busy = controllers[mc];
  const sim::Time mc_start = std::max(t, mc_busy);
  const sim::Time mc_wait = mc_start - t;
  mc_busy = mc_start + mem_access;

  // Return: read carries payload back; write returns a short ack.
  const std::uint32_t back_bytes = kind == TransactionKind::kRead ? bytes : 0;
  const sim::Time back_ser = serialization_time(back_bytes, link->medium, link->lanes);
  t = mc_start + mem_access + back_ser + serdes * 2 + propagation;

  // The Fig. 8 breakdown, written once in pipeline (first-appearance)
  // order; serialization and propagation sum both directions.
  tx.breakdown.append(kBdCircuitWait, circuit_wait);
  tx.breakdown.append(kBdSerialization, out_ser + back_ser);
  tx.breakdown.append(kBdSerdesTx, serdes);
  tx.breakdown.append(electrical ? kBdElectricalProp : kBdOpticalProp, propagation * 2);
  tx.breakdown.append(kBdSerdesRx, serdes);
  tx.breakdown.append(kBdGlueLogic, latencies_.glue_logic);
  tx.breakdown.append(kBdMcWait, mc_wait);
  tx.breakdown.append(kBdMemAccess, mem_access);
  tx.breakdown.append(kBdSerdesReturn, serdes * 2);

  tx.completed_at = t;
  return tx;
}
// dredbox-lint: hot-path-end

void RemoteMemoryFabric::check_invariants() const {
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    const Attachment& a = attachments_[i];
    DREDBOX_INVARIANT(a.size > 0, "attachment maps zero bytes");
    DREDBOX_INVARIANT(a.circuit.valid(), "attachment has no link record");
    for (std::size_t j = i + 1; j < attachments_.size(); ++j) {
      DREDBOX_INVARIANT(attachments_[j].compute != a.compute ||
                            attachments_[j].segment != a.segment,
                        "segment " + a.segment.to_string() + " attached twice to brick " +
                            a.compute.to_string());
    }

    // The consuming side: a live dCOMPUBRICK with the RMST entry installed.
    DREDBOX_INVARIANT(rack_.has_brick(a.compute) &&
                          rack_.brick(a.compute).kind() == hw::BrickKind::kCompute,
                      "attachment consumer " + a.compute.to_string() +
                          " is not a live dCOMPUBRICK");
    const auto entry = rack_.compute_brick(a.compute).tgl().rmst().find_segment(a.segment);
    DREDBOX_INVARIANT(entry.has_value(), "segment " + a.segment.to_string() +
                                             " has no RMST entry on brick " +
                                             a.compute.to_string());
    DREDBOX_INVARIANT(entry->base == a.compute_base && entry->size == a.size &&
                          entry->dest_brick == a.membrick,
                      "RMST entry for segment " + a.segment.to_string() +
                          " disagrees with the attachment record");

    // The serving side: every mapped segment is backed by a live dMEMBRICK
    // that still carves that segment for this consumer.
    DREDBOX_INVARIANT(rack_.has_brick(a.membrick) &&
                          rack_.brick(a.membrick).kind() == hw::BrickKind::kMemory,
                      "attachment server " + a.membrick.to_string() +
                          " is not a live dMEMBRICK");
    const auto segment = rack_.memory_brick(a.membrick).find_segment(a.segment);
    DREDBOX_INVARIANT(segment.has_value(), "segment " + a.segment.to_string() +
                                               " is not carved on dMEMBRICK " +
                                               a.membrick.to_string());
    DREDBOX_INVARIANT(segment->owner == a.compute && segment->size == a.size,
                      "dMEMBRICK segment " + a.segment.to_string() +
                          " disagrees with the attachment record");

    // The attachment rides a live link of its pair, medium and lane count.
    // Only an optical link may be gone (failed or torn, awaiting repair),
    // and then its circuit must be dead too.
    const auto link = std::find_if(live_links_.begin(), live_links_.end(),
                                   [&](const LiveLink& l) { return l.id == a.circuit; });
    if (link == live_links_.end()) {
      DREDBOX_INVARIANT(
          a.medium == LinkMedium::kOptical && circuits_.find_ref(a.circuit) == nullptr,
          "segment " + a.segment.to_string() + " rides link " + a.circuit.to_string() +
              ", which has no live-link row");
      continue;
    }
    DREDBOX_INVARIANT(link->compute == a.compute && link->membrick == a.membrick &&
                          link->medium == a.medium,
                      "segment " + a.segment.to_string() + " rides link " +
                          a.circuit.to_string() + " of another pair or medium");
    DREDBOX_INVARIANT(a.lanes == link->lanes,
                      "segment " + a.segment.to_string() + " records " +
                          std::to_string(a.lanes) + " lanes on a " +
                          std::to_string(link->lanes) + "-lane link");
  }

  // Each live link has one row and a rider (anything else is a leaked
  // circuit, switch port or transceiver port), wires as many lanes as it
  // counts and holds their ports; an optical lane is a live circuit
  // between those ports with the row's propagation.
  for (std::size_t i = 0; i < live_links_.size(); ++i) {
    const LiveLink& link = live_links_[i];
    for (std::size_t j = i + 1; j < live_links_.size(); ++j) {
      DREDBOX_INVARIANT(live_links_[j].id != link.id,
                        "link " + link.id.to_string() + " has two rows");
    }
    DREDBOX_INVARIANT(std::any_of(attachments_.begin(), attachments_.end(),
                                  [&](const Attachment& a) { return a.circuit == link.id; }),
                      "link " + link.id.to_string() + " leaked: no attachment rides it");
    if (link.medium == LinkMedium::kPacket) {
      DREDBOX_INVARIANT(link.lanes == 1 && link.wired.empty(),
                        "packet link " + link.id.to_string() + " wires lanes");
      continue;
    }
    DREDBOX_INVARIANT(!link.wired.empty() && link.lanes == link.wired.size(),
                      "link " + link.id.to_string() + " counts " +
                          std::to_string(link.lanes) + " lanes but wires " +
                          std::to_string(link.wired.size()));
    const bool electrical = link.medium == LinkMedium::kElectrical;
    DREDBOX_INVARIANT(electrical ? link.propagation == latencies_.electrical_propagation
                                 : link.wired.front().circuit == link.id,
                      "link " + link.id.to_string() +
                          (electrical ? " has the wrong backplane propagation"
                                      : " is not named after its primary circuit"));
    for (const LiveLink::Lane& lane : link.wired) {
      DREDBOX_INVARIANT(rack_.brick(link.compute).port(lane.compute_port.value).connected &&
                            rack_.brick(link.membrick).port(lane.membrick_port.value).connected,
                        "link " + link.id.to_string() +
                            " has a lane on a disconnected transceiver port");
      if (electrical) continue;
      const optics::Circuit* circuit = circuits_.find_ref(lane.circuit);
      DREDBOX_INVARIANT(circuit != nullptr && circuit->a.brick == link.compute &&
                            circuit->a.port == lane.compute_port &&
                            circuit->b.brick == link.membrick &&
                            circuit->b.port == lane.membrick_port &&
                            circuit->propagation_delay() == link.propagation,
                        "link " + link.id.to_string() + " lane " + lane.circuit.to_string() +
                            " is not a live circuit between its ports with its propagation");
    }
  }
}

Transaction RemoteMemoryFabric::read(hw::BrickId compute, std::uint64_t address,
                                     std::uint32_t bytes, sim::Time when,
                                     const sim::TraceContext& ctx) {
  return execute(TransactionKind::kRead, compute, address, bytes, when, ctx);
}

Transaction RemoteMemoryFabric::write(hw::BrickId compute, std::uint64_t address,
                                      std::uint32_t bytes, sim::Time when,
                                      const sim::TraceContext& ctx) {
  return execute(TransactionKind::kWrite, compute, address, bytes, when, ctx);
}

}  // namespace dredbox::memsys
