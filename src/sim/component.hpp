#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace dredbox::sim {

/// Interned identifier for a latency-breakdown component label (ISSUE 9b).
///
/// The datapath used to key every Breakdown entry on a std::string, which
/// meant one heap copy per component per transaction. Labels come from a
/// small fixed vocabulary (the Fig. 8 pipeline stages plus the orchestration
/// stages), so they are interned once in a process-wide registry and ops
/// carry 2-byte ids. The registry is populated at static initialization
/// with every label the datapath charges; unknown labels (tests, future
/// stages) intern lazily under a mutex — a cold path by construction.
using ComponentId = std::uint16_t;

/// Interns `label`, returning its stable id. Idempotent: the same label
/// always maps to the same id for the life of the process. Charge sites
/// call this once at namespace scope and cache the id (known labels never
/// take the insertion path).
ComponentId component_id(std::string_view label);

/// Id for `label` if it has ever been interned, std::nullopt otherwise.
/// Lets read-side queries (Breakdown::of / has) answer "absent" for a
/// label nothing ever charged without growing the registry.
std::optional<ComponentId> component_id_if_interned(std::string_view label);

/// Reverse lookup. The returned view points at registry-owned storage and
/// stays valid for the life of the process. Asking for an id that was
/// never handed out is a contract violation.
std::string_view component_label(ComponentId id);

/// Number of labels interned so far (test/introspection hook).
std::size_t component_count();

}  // namespace dredbox::sim
