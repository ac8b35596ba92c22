// Tests for the interned component-label registry (ISSUE 9b) and the
// Breakdown behaviours that ride on it: deterministic ids for the shipped
// vocabulary, lock-free lookups that never grow the registry, id/label
// query equivalence, clear() for pooled reuse, the fixed-capacity overflow
// invariant and the append-only writer.

#include "sim/component.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/breakdown.hpp"
#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

TEST(ComponentRegistryTest, InterningIsIdempotent) {
  const ComponentId a = component_id("TGL lookup (RMST)");
  const ComponentId b = component_id("TGL lookup (RMST)");
  EXPECT_EQ(a, b);
  EXPECT_EQ(component_label(a), "TGL lookup (RMST)");
}

TEST(ComponentRegistryTest, ShippedVocabularyIsPreInterned) {
  // The datapath's labels are interned at registry construction, so the
  // namespace-scope component_id() calls never take the registry's write
  // lock for them. A representative label from each charging subsystem:
  const std::size_t before = component_count();
  for (const char* label : {"serialization", "optical propagation",
                            "electrical propagation", "memory access",
                            "TGL lookup (RMST)", "retry backoff",
                            "circuit re-provision", "switch programming",
                            "pre-copy (local memory)"}) {
    EXPECT_TRUE(component_id_if_interned(label).has_value())
        << label << " is not pre-interned";
  }
  EXPECT_EQ(component_count(), before) << "lookups must not grow the registry";
}

TEST(ComponentRegistryTest, LookupOfUnknownLabelDoesNotIntern) {
  const std::size_t before = component_count();
  EXPECT_FALSE(component_id_if_interned("never-interned-label-xyzzy").has_value());
  EXPECT_EQ(component_count(), before);
}

TEST(ComponentRegistryTest, NewLabelsGetFreshStableIds) {
  const ComponentId fresh = component_id("test-component-fresh-label");
  EXPECT_EQ(component_label(fresh), "test-component-fresh-label");
  const auto found = component_id_if_interned("test-component-fresh-label");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, fresh);
}

TEST(BreakdownInterningTest, IdAndStringChargesAreEquivalent) {
  const ComponentId id = component_id("serialization");
  Breakdown by_id;
  by_id.charge(id, Time::ns(120));
  Breakdown by_label;
  by_label.charge(component_id("serialization"), Time::ns(120));
  EXPECT_EQ(by_id.of(id), by_label.of("serialization"));
  EXPECT_EQ(by_id.of("serialization"), Time::ns(120));
  EXPECT_TRUE(by_id.has(id));
  EXPECT_TRUE(by_label.has("serialization"));
}

TEST(BreakdownInterningTest, OfUnknownLabelIsZeroWithoutInterning) {
  Breakdown breakdown;
  breakdown.charge(component_id("serialization"), Time::ns(5));
  const std::size_t before = component_count();
  EXPECT_EQ(breakdown.of("no-such-component-ever"), Time::zero());
  EXPECT_FALSE(breakdown.has("no-such-component-ever"));
  EXPECT_EQ(component_count(), before)
      << "querying a breakdown must never grow the global registry";
}

TEST(BreakdownInterningTest, ClearResetsForPooledReuse) {
  Breakdown breakdown;
  breakdown.charge(component_id("serialization"), Time::ns(10));
  breakdown.charge(component_id("memory access"), Time::ns(20));
  ASSERT_EQ(breakdown.size(), 2u);
  breakdown.clear();
  EXPECT_TRUE(breakdown.empty());
  EXPECT_EQ(breakdown.total(), Time::zero());
  EXPECT_EQ(breakdown.of("serialization"), Time::zero());
  // Reuse after clear starts a fresh first-appearance order.
  breakdown.charge(component_id("memory access"), Time::ns(7));
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_EQ(breakdown.components()[0].first, "memory access");
}

TEST(BreakdownInterningTest, OverflowPastFixedCapacityTrips) {
  Breakdown breakdown;
  for (std::size_t i = 0; i < Breakdown::kMaxComponents; ++i) {
    breakdown.charge(component_id("test-overflow-" + std::to_string(i)), Time::ns(1));
  }
  EXPECT_EQ(breakdown.size(), Breakdown::kMaxComponents);
  // Re-charging an existing component still works at capacity...
  breakdown.charge(component_id("test-overflow-0"), Time::ns(1));
  EXPECT_EQ(breakdown.of("test-overflow-0"), Time::ns(2));
  // ...but a 25th distinct component is an invariant violation, not a
  // reallocation: per-op components are a small fixed vocabulary.
  EXPECT_THROW(breakdown.charge(component_id("test-overflow-one-too-many"), Time::ns(1)),
               ContractViolation);
}

TEST(BreakdownInterningTest, AppendPastFixedCapacityTrips) {
  Breakdown breakdown;
  for (std::size_t i = 0; i < Breakdown::kMaxComponents; ++i) {
    breakdown.append(component_id("test-overflow-" + std::to_string(i)), Time::ns(1));
  }
  EXPECT_THROW(breakdown.append(component_id("test-overflow-one-too-many"), Time::ns(1)),
               ContractViolation);
}

TEST(BreakdownInterningTest, AppendOfAPresentComponentIsAPrecondition) {
  Breakdown breakdown;
  breakdown.append(component_id("serialization"), Time::ns(1));
#if DREDBOX_AUDIT_ENABLED
  EXPECT_THROW(breakdown.append(component_id("serialization"), Time::ns(1)), ContractViolation);
#else
  // Release builds trust the caller: the precondition is not searched for.
  breakdown.append(component_id("serialization"), Time::ns(1));
  EXPECT_EQ(breakdown.size(), 2u);
#endif
}

TEST(BreakdownInterningTest, ComponentsViewsPointAtRegistryStorage) {
  std::string_view serialization_view;
  {
    Breakdown breakdown;
    breakdown.charge(component_id("serialization"), Time::ns(3));
    serialization_view = breakdown.components()[0].first;
  }  // breakdown destroyed; the view must remain valid (registry-owned)
  EXPECT_EQ(serialization_view, "serialization");
  EXPECT_EQ(serialization_view, component_label(*component_id_if_interned("serialization")));
}

}  // namespace
}  // namespace dredbox::sim
