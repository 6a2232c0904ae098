// Benchmark workloads and their input generation (harness work, untimed).
//
// A workload fixes a domain chain, a path count and per-path rate, the
// collector tuning and the store backend.  generate() runs the simulator
// harness (trace + sim modules) once per benchmark run: it draws the
// multi-path Zipf trace from the seed, propagates every path through the
// chain (1% Bernoulli loss in the first transit domain, optional jitter),
// and buckets each HOP's observations into reporting rounds sorted by
// local time.  The timed pipeline then receives only these packets and
// timestamps; the ground truth stays with the benchmark's correctness gate.
#ifndef VPMBENCH_WORKLOAD_HPP
#define VPMBENCH_WORKLOAD_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/prefix.hpp"
#include "net/time.hpp"

namespace vpmbench {

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> domains;  ///< chain; HOPs = 2 * (size - 1)
  std::size_t paths = 0;
  double packets_per_path_round = 0.0;  ///< mean; Zipf 0.8 path mix
  std::size_t rounds = 0;               ///< reporting rounds per pass
  double sample_rate = 0.0;
  double cut_rate = 0.0;
  std::size_t jitter_domain = 0;  ///< chain index; 0 = no jitter
  vpm::net::Duration jitter{0};
  bool durable = false;          ///< SegmentStorage instead of memory
  std::size_t poll_every = 1;    ///< consumers poll every Nth round
};

// Shared by every workload (the scenario engine's defaults).
inline constexpr vpm::net::Duration kRoundLength = vpm::net::milliseconds(50);
inline constexpr double kZipfS = 0.8;
inline constexpr double kLossRate = 0.01;  ///< in chain domain 1
inline constexpr std::size_t kLossDomain = 1;
inline constexpr vpm::net::Duration kDomainDelay =
    vpm::net::microseconds(500);
inline constexpr vpm::net::Duration kLinkDelay = vpm::net::microseconds(50);

/// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload(const std::string& name);

/// One HOP's observations in one reporting round, in local-time order.
struct HopRound {
  std::vector<vpm::net::Packet> packets;
  std::vector<vpm::net::Timestamp> when;
};

struct Inputs {
  std::vector<vpm::net::PrefixPair> paths;
  std::vector<std::vector<HopRound>> rounds;  ///< [hop][round]
  std::uint64_t trace_packets = 0;            ///< packets sent per pass
  std::uint64_t observations = 0;             ///< HOP observations per pass
  // Ground truth for the correctness gate.
  std::vector<std::vector<std::uint64_t>> observed;  ///< [hop][path]
  std::vector<std::uint64_t> loss_offered;    ///< [path] into kLossDomain
  std::vector<std::uint64_t> loss_delivered;  ///< [path] out of it
};

[[nodiscard]] Inputs generate(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace vpmbench

#endif  // VPMBENCH_WORKLOAD_HPP
