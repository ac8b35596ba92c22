#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace dredbox::net {

/// Timing model of one direction of an inter-rack light path through the
/// optical spine: fixed propagation (fiber length plus the spine's
/// transit) and a serialization term from the line rate.
struct InterRackLinkConfig {
  /// One-way propagation, rack NIC to rack NIC through the spine (strictly
  /// positive).
  sim::Time propagation = sim::Time::ns(500);
  double bandwidth_gbps = 100.0;
};

/// One direction of an inter-rack link, owned by the *sending* rack: its
/// up/down state is flipped only by that rack's own fault events and read
/// only on that rack's send path.
///
/// Semantics mirror the intra-rack fabric's fail-fast story: a down link
/// rejects new requests at the sender; traffic already in flight (light
/// already launched) is never retroactively dropped.
class InterRackLink {
 public:
  explicit InterRackLink(const InterRackLinkConfig& config = {}) : config_{config} {}

  const InterRackLinkConfig& config() const { return config_; }

  /// Serialization delay of `bytes` at the configured line rate.
  sim::Time serialize(std::uint32_t bytes) const {
    // bits / (gbps * 1e9 / s) = bits * 1000 / gbps picoseconds.
    const double ps = static_cast<double>(bytes) * 8.0 * 1000.0 / config_.bandwidth_gbps;
    return sim::Time::ps(static_cast<std::int64_t>(ps));
  }

  /// Total one-way latency of a `bytes` message: propagation + wire time.
  sim::Time one_way(std::uint32_t bytes) const { return config_.propagation + serialize(bytes); }

  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Sender-side accounting, charged per accepted message.
  void on_send(std::uint32_t bytes) {
    ++tx_messages_;
    tx_bytes_ += bytes;
  }
  /// Charged per request refused because the link was down.
  void on_fail_fast() { ++fail_fast_; }

  std::uint64_t tx_messages() const { return tx_messages_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t fail_fast() const { return fail_fast_; }

 private:
  InterRackLinkConfig config_;
  bool up_ = true;
  std::uint64_t tx_messages_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t fail_fast_ = 0;
};

}  // namespace dredbox::net
