// Ablation: circuit-switched mainline vs exploratory packet-switched
// interconnect (Sections II-III). Memory interconnection occurs via
// circuit switching "as a means of minimizing the critical KPI of remote
// access latency"; packet switching exists to cater for cases where the
// system runs low on physical ports. This bench quantifies the latency
// cost of the packet fallback and the port-scalability it buys.

#include <algorithm>
#include <cstdio>

#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"
#include "sim/report.hpp"

namespace {
using namespace dredbox;
}

int main() {
  std::printf("=== Ablation: circuit-switched vs packet-switched remote access ===\n\n");

  // --- circuit path (cross-tray, so the optical substrate carries it;
  // the electrical intra-tray case is abl_intra_tray's subject) ---
  hw::Rack rack;
  const hw::TrayId tray_a = rack.add_tray();
  const hw::TrayId tray_b = rack.add_tray();
  const hw::BrickId cpu = rack.add_compute_brick(tray_a).id();
  const hw::BrickId mem = rack.add_memory_brick(tray_b).id();
  optics::OpticalSwitch sw;
  optics::CircuitManager circuits{sw};
  memsys::RemoteMemoryFabric fabric{rack, circuits};
  memsys::AttachRequest areq;
  areq.compute = cpu;
  areq.membrick = mem;
  areq.bytes = 1ull << 30;
  const auto attachment = fabric.attach(areq, sim::Time::zero());
  if (!attachment) {
    std::printf("attach failed\n");
    return 1;
  }

  // --- packet path ---
  net::PacketNetwork network;
  network.add_brick(cpu);
  network.add_brick(mem);
  network.connect(cpu, mem, 10.0);

  sim::TextTable table{{"payload (B)", "circuit RT (ns)", "packet RT (ns)", "packet overhead"}};
  sim::Time quiet = sim::Time::zero();  // once every table transaction is done
  for (std::uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    const auto circuit_tx =
        fabric.read(cpu, attachment->compute_base, bytes, sim::Time::ms(bytes));
    const auto packet_tx =
        network.remote_read(cpu, mem, 0x0, bytes, sim::Time::ms(bytes));
    const double c = circuit_tx.round_trip().as_ns();
    const double p = packet_tx.latency().as_ns();
    table.add_row({std::to_string(bytes), sim::TextTable::num(c, 0),
                   sim::TextTable::num(p, 0), sim::TextTable::pct((p - c) / c)});
    quiet = std::max({quiet, circuit_tx.completed_at, packet_tx.delivered_at});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Probe on idle links: issued before `quiet`, the probes would queue
  // behind the table's 4 KiB reads and report that wait as their latency.
  const auto c64 = fabric.read(cpu, attachment->compute_base, 64, quiet);
  const auto p64 = network.remote_read(cpu, mem, 0x0, 64, quiet);
  std::printf("64 B circuit-path breakdown:\n%s\n", c64.breakdown.to_string().c_str());
  std::printf("64 B packet-path breakdown:\n%s\n", p64.breakdown.to_string().c_str());

  std::printf("Port economics: a circuit pins 2 switch ports per brick pair for its\n");
  std::printf("lifetime; the packet substrate multiplexes many destinations over one\n");
  std::printf("port via lookup tables programmed by orchestration (Section III).\n\n");

  const bool circuit_wins = c64.round_trip() < p64.latency();
  std::printf("Design-choice check: circuit switching minimizes remote access latency\n");
  std::printf("  (%.0f ns vs %.0f ns for 64 B) -> %s\n", c64.round_trip().as_ns(),
              p64.latency().as_ns(), circuit_wins ? "CONFIRMED" : "NOT confirmed");
  return circuit_wins ? 0 : 1;
}
