#include "sim/component.hpp"

#include <array>
#include <atomic>
#include <string>

#include "sim/annotations.hpp"
#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

/// Hard ceiling on distinct component labels. The datapath's fixed
/// vocabulary is ~50 labels; 256 leaves generous headroom for tests and
/// future stages while keeping reverse lookup a flat array index.
constexpr std::size_t kMaxComponents = 256;

/// Every label the shipped datapath charges, interned at registry
/// construction so steady-state interning is a read-only scan and the
/// id assignment is deterministic (table order) regardless of which
/// subsystem touches the registry first.
constexpr std::string_view kKnownLabels[] = {
    // net/packet_network.cpp — the Fig. 8 pipeline stages.
    "TGL / NI injection",
    "on-brick switch (dCOMPUBRICK)",
    "on-brick switch (dMEMBRICK)",
    "serialization",
    "congestion penalty",
    "MAC/PHY (dCOMPUBRICK)",
    "MAC/PHY (dMEMBRICK)",
    "FEC encode/decode",
    "optical propagation",
    "electrical propagation",
    "loss retransmissions",
    "glue logic (dMEMBRICK)",
    "memory access",
    // memsys/remote_memory.cpp — the transaction execute path.
    "TGL lookup (RMST)",
    "circuit wait",
    "GTH serdes (TX)",
    "GTH serdes (RX)",
    "GTH serdes (return)",
    "memory controller wait",
    "retry backoff",
    "circuit re-provision",
    // orch/sdm_controller.cpp — scale-up / scale-down control plane.
    "SDM-C queueing",
    "SDM-C inspect+reserve",
    "switch ctl queueing",
    "switch programming",
    "brick wake-up",
    "Scale-up API relay",
    "agent RPC + glue config",
    "hotplug queueing (per brick)",
    "baremetal hotplug",
    "hypervisor handoff",
    "QEMU DIMM add + guest online",
    "guest shrink + hot-remove",
    "agent RPC",
    // orch/accel_manager.cpp — near-data acceleration phases.
    "bitstream transfer",
    "PCAP reconfiguration",
    "descriptor transfer",
    "near-data processing",
    "result transfer",
    "stream from dMEMBRICK",
    "data transfer to dCOMPUBRICK",
    "CPU processing",
    // orch/migration.cpp — VM/page migration phases.
    "pre-copy (local memory)",
    "stop-and-copy (residual)",
    "pause/resume",
    "re-point preparation (overlapped)",
    "glue-logic switchover",
    "balloon reclaim (donor)",
};

/// Append-only intern table. Writers (cold: unknown labels only) append
/// under `mu_` and publish with a release store of `count_`; readers scan
/// the first `count_` entries lock-free — each labels_[i] below count_ was
/// fully constructed before the release store that made it visible, so
/// the parallel sweep's label lookups never contend on the mutex for
/// labels that already exist.
class Registry {
 public:
  Registry() {
    for (const std::string_view label : kKnownLabels) intern(label);
  }

  ComponentId intern(std::string_view label) {
    if (const auto existing = find(label)) return *existing;
    MutexLock lock{mu_};
    // Re-scan under the lock: another thread may have interned `label`
    // between the optimistic lookup and lock acquisition.
    if (const auto existing = find(label)) return *existing;
    const std::size_t index = count_.load(std::memory_order_relaxed);
    DREDBOX_INVARIANT(index < kMaxComponents,
                      "component registry overflow: more than 256 distinct "
                      "breakdown labels interned — labels are meant to be a "
                      "small fixed vocabulary, not per-op data");
    labels_[index] = std::string{label};
    count_.store(index + 1, std::memory_order_release);
    return static_cast<ComponentId>(index);
  }

  std::optional<ComponentId> find(std::string_view label) const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (labels_[i] == label) return static_cast<ComponentId>(i);
    }
    return std::nullopt;
  }

  std::string_view label(ComponentId id) const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    DREDBOX_INVARIANT(id < n, "component_label: id was never interned");
    return labels_[id];
  }

  std::size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  Mutex mu_;
  std::array<std::string, kMaxComponents> labels_;
  std::atomic<std::size_t> count_{0};
};

Registry& registry() {
  // The label table is append-only and thread-safe (acquire/release
  // publish, mutex-guarded inserts): ids are stable for the process
  // lifetime, so no simulation result can leak across runs through it.
  // dredbox-lint: ignore[mutable-global] append-only interning table, process-wide by design
  static Registry instance;
  return instance;
}

}  // namespace

ComponentId component_id(std::string_view label) { return registry().intern(label); }

std::optional<ComponentId> component_id_if_interned(std::string_view label) {
  return registry().find(label);
}

std::string_view component_label(ComponentId id) { return registry().label(id); }

std::size_t component_count() { return registry().size(); }

}  // namespace dredbox::sim
