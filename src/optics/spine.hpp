#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace dredbox::optics {

/// Shape of the inter-rack optical spine switch (ROADMAP item 2): the
/// rack-to-rack circuit layer sitting above every rack's own beam-steering
/// switch. Racks attach with one duplex port each; rack pairs are
/// provisioned as static circuits at datacenter wiring time (the spine is
/// circuit-switched like the intra-rack fabric, but its circuits live for
/// the deployment, not per attachment).
struct SpineSwitchConfig {
  /// Duplex port radix; one port per rack.
  std::size_t ports = 64;
  /// Circuit setup cost charged per provisioned rack pair at wiring.
  sim::Time switching_time = sim::Time::us(25);
  double per_port_power_w = 1.5;
  /// Loss added to any rack-to-rack light path crossing the spine.
  double insertion_loss_db = 1.5;
};

/// Wiring-time model of the spine: port accounting, provisioned rack-pair
/// circuits and the power/loss the device contributes to the TCO and
/// link-budget stories. Deliberately holds no simulation-time state — the
/// time-varying side of the spine (per-direction link health, in-flight
/// messages) lives in the per-rack net::InterRackLink objects each rack
/// owns.
class SpineSwitch {
 public:
  explicit SpineSwitch(const SpineSwitchConfig& config = {});

  const SpineSwitchConfig& config() const { return config_; }

  /// Attaches rack `rack` to the next free port; returns the port index.
  /// Throws std::runtime_error when the radix is exhausted.
  std::uint32_t attach_rack(std::uint32_t rack);

  /// Records a provisioned duplex circuit between two attached racks and
  /// returns the cumulative setup time charged so far (each pair costs
  /// config().switching_time once, at wiring).
  sim::Time provision(std::uint32_t rack_a, std::uint32_t rack_b);

  std::size_t ports_used() const { return attached_.size(); }
  std::size_t circuits() const { return circuits_; }
  bool attached(std::uint32_t rack) const;

  /// Static power of the lit ports.
  double power_draw_watts() const {
    return static_cast<double>(attached_.size()) * config_.per_port_power_w;
  }

  std::string describe() const;

 private:
  SpineSwitchConfig config_;
  std::vector<std::uint32_t> attached_;  // rack id per used port, in attach order
  std::size_t circuits_ = 0;
  sim::Time setup_charged_ = sim::Time::zero();
};

}  // namespace dredbox::optics
