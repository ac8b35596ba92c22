#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/contract.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Ordered accumulation of named latency contributions. Used to produce the
/// paper's Fig. 8-style round-trip breakdown: each pipeline stage charges
/// its share under a stable component name, and the report preserves the
/// order in which components first appeared (i.e., pipeline order).
///
/// Storage is a fixed inline array keyed by interned ComponentId: a
/// Breakdown embedded in a pooled Transaction or Packet never heap-
/// allocates, and every writer charges by a 2-byte id it interned once at
/// namespace scope. Reporting lookups (of/has) still accept labels.
///
/// Two writers: charge() searches for the component and accumulates, for
/// sites where components repeat or arrive in no fixed order (per-hop
/// packet traversal, retry merges); append() writes a component known to
/// be new, for a pipeline that sums its stages first and writes each once
/// in order (the fabric's per-transaction datapath).
class Breakdown {
 public:
  /// Distinct components one op can accumulate. The widest real path (a
  /// remote read's full Fig. 8 pipeline merged with retry/re-provision
  /// charges and the migration stages) stays under 20; exceeding this is
  /// an invariant violation, not a reallocation.
  static constexpr std::size_t kMaxComponents = 24;

  /// Adds `amount` under the interned component, appending it on its first
  /// charge.
  void charge(ComponentId component, Time amount) {
    for (std::size_t i = 0; i < count_; ++i) {
      if (ids_[i] == component) {
        times_[i] += amount;
        return;
      }
    }
    append(component, amount);
  }

  /// Appends a component that is not yet present, without searching for
  /// it (the search is an audit-build precondition check only).
  void append(ComponentId component, Time amount) {
    DREDBOX_REQUIRE(!has(component), "Breakdown::append: component already charged");
    DREDBOX_INVARIANT(count_ < kMaxComponents,
                      "Breakdown overflow: one op charged more than kMaxComponents "
                      "distinct components — grow kMaxComponents only if the "
                      "pipeline genuinely grew");
    ids_[count_] = component;
    times_[count_] = amount;
    ++count_;
  }

  /// Sum over all components.
  Time total() const;

  /// Contribution of one component; Time::zero() if absent.
  Time of(std::string_view component) const;
  Time of(ComponentId component) const;

  bool has(std::string_view component) const;
  bool has(ComponentId component) const;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Resolved (label, time) pairs in first-appearance order. Built on
  /// demand for reporting/tracing consumers; the views point at registry-
  /// owned storage and outlive the Breakdown.
  std::vector<std::pair<std::string_view, Time>> components() const;

  /// Raw interned entries in first-appearance order (hot-path reads).
  const ComponentId* ids() const { return ids_; }
  const Time* times() const { return times_; }

  /// Merges another breakdown (component-wise addition, order preserved,
  /// new components appended).
  void merge(const Breakdown& other);

  /// Scales every component (e.g., averaging over N runs with 1.0/N).
  void scale_all(double factor);

  /// Drops all components (re-issue of a pooled op starts from a clean
  /// breakdown — see the stale-field sweep in ISSUE 9).
  void clear() { count_ = 0; }

  /// Multi-line rendering: one component per line with ns value, percentage
  /// of the total, and a proportional bar.
  std::string to_string(std::size_t bar_width = 40) const;

 private:
  /// Index of `component` in ids_, or count_ if absent.
  std::size_t find(ComponentId component) const;

  ComponentId ids_[kMaxComponents];
  Time times_[kMaxComponents];
  std::uint8_t count_ = 0;
};

}  // namespace dredbox::sim
