// Multi-rack datacenter driver: builds N racks joined by an optical spine,
// places one tenant class per rack, points a share of every rack's
// read/write stream at peer racks' gateway windows, and runs the coupled
// simulation once on the cluster's earliest-tick scheduler. Prints the
// run summary and its digest; stdout is byte-identical across same-seed
// runs.
//
//   $ ./datacenter                              # 2 racks
//   $ ./datacenter --racks 16 --cross-share 0.15
//   $ ./datacenter --fault-rack 0 --fault-at-ms 1 --fault-for-ms 2
//
// Exit status: 0 on success, 1 when the run breaks conservation
// (offered != completed + failed), 2 on a usage or config error.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "cli_args.hpp"
#include "core/scenario.hpp"
#include "workload/cluster.hpp"

using namespace dredbox;
using cli::kMaxCount;
using cli::kMaxMs;
using cli::parse_count;
using cli::parse_real;

namespace {

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: datacenter [options]\n"
      "  --racks N        racks on the spine (default 2)\n"
      "  --seed N         deployment seed (default 1)\n"
      "  --duration-ms X  generation window (default 2)\n"
      "  --cross-share X  fraction of reads/writes crossing the spine (default 0.10)\n"
      "  --vms N          VMs per rack (default 1)\n"
      "  --fault-rack N   rack whose spine uplink fails (default: no fault)\n"
      "  --fault-at-ms X  fault onset (default 1)\n"
      "  --fault-for-ms X fault duration (default 1)\n");
}

struct Options {
  std::uint64_t racks = 2;
  std::uint64_t seed = 1;
  double duration_ms = 2.0;
  double cross_share = 0.10;
  std::uint64_t vms = 1;
  std::optional<std::uint64_t> fault_rack;
  double fault_at_ms = 1.0;
  double fault_for_ms = 1.0;
};

core::ScenarioBuilder make_builder(const Options& o) {
  core::RackSpec rack;
  rack.trays = 1;
  rack.compute_bricks_per_tray = 2;
  rack.memory_bricks_per_tray = 2;
  core::ScenarioBuilder builder;
  builder.add_racks(o.racks, rack)
      .cross_rack_share(o.cross_share)
      .seed(o.seed)
      .compute_local_memory_bytes(8ull << 30)
      .memory_pool_bytes(32ull << 30);
  if (o.fault_rack) {
    builder.spine_fault(*o.fault_rack, sim::Time::ms(o.fault_at_ms),
                        sim::Time::ms(o.fault_for_ms));
  }
  return builder;
}

workload::WorkloadConfig make_workload(const Options& o) {
  workload::WorkloadConfig config;
  config.duration = sim::Time::ms(o.duration_ms);
  config.drain_grace = sim::Time::ms(1);
  for (std::size_t r = 0; r < o.racks; ++r) {
    workload::TenantSpec tenant;
    tenant.name = "rack" + std::to_string(r);
    tenant.home_rack = r;
    tenant.vms = o.vms;
    tenant.local_bytes = 512ull << 20;
    tenant.remote_bytes = 1ull << 30;
    tenant.loop = workload::LoopMode::kClosed;
    tenant.outstanding = 2;
    tenant.rate_hz = 50000.0;
    tenant.mix = {0.65, 0.35, 0.0};
    config.tenants.push_back(tenant);
  }
  return config;
}

/// Fills `o` from argv. Returns the exit status to stop with (0 after
/// --help, 2 on a bad flag), or nullopt to go on and run.
std::optional<int> parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "datacenter: %s needs a value\n", arg.c_str());
      usage(stderr);
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t fault_rack = 0;
    bool ok = false;
    if (arg == "--racks") {
      ok = parse_count(value, 1, kMaxCount, o.racks);
    } else if (arg == "--seed") {
      ok = parse_count(value, 0, UINT64_MAX, o.seed);
    } else if (arg == "--duration-ms") {
      ok = parse_real(value, 0.0, kMaxMs, o.duration_ms);
    } else if (arg == "--cross-share") {
      ok = parse_real(value, 0.0, 1.0, o.cross_share);
    } else if (arg == "--vms") {
      ok = parse_count(value, 1, kMaxCount, o.vms);
    } else if (arg == "--fault-rack") {
      ok = parse_count(value, 0, kMaxCount, fault_rack);
      if (ok) o.fault_rack = fault_rack;
    } else if (arg == "--fault-at-ms") {
      ok = parse_real(value, 0.0, kMaxMs, o.fault_at_ms);
    } else if (arg == "--fault-for-ms") {
      ok = parse_real(value, 0.0, kMaxMs, o.fault_for_ms);
    } else {
      std::fprintf(stderr, "datacenter: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "datacenter: bad value for %s: '%s'\n", arg.c_str(), value);
      usage(stderr);
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (const std::optional<int> status = parse_args(argc, argv, o)) return *status;

  // Both the scenario builder and the cluster engine validate their
  // configs and throw std::invalid_argument listing every error; those
  // are the caller's mistakes, so they end as usage errors.
  std::optional<core::Scenario> scenario;
  std::optional<workload::ClusterEngine> engine;
  try {
    scenario.emplace(make_builder(o).build());
    engine.emplace(scenario->cluster(), make_workload(o));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "datacenter: %s\n", e.what());
    usage(stderr);
    return 2;
  }

  std::printf("== dReDBox multi-rack datacenter ==\n");
  std::printf("%llu racks on the spine, %.1f ms window, cross-rack share %.2f%s\n\n",
              static_cast<unsigned long long>(o.racks), o.duration_ms, o.cross_share,
              o.fault_rack ? ", spine fault scheduled" : "");

  const workload::ClusterResult result = engine->run();
  std::printf("%s\n", result.summary().c_str());

  if (result.offered != result.completed + result.failed) {
    std::printf("conservation BROKEN: offered %llu != completed %llu + failed %llu\n",
                static_cast<unsigned long long>(result.offered),
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.failed));
    return 1;
  }
  std::printf("conservation: offered = completed + failed\n");
  return 0;
}
