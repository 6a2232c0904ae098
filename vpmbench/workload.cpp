#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "loss/bernoulli.hpp"
#include "sim/path_run.hpp"
#include "sim/scenario_common.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpmbench {

namespace net = vpm::net;
namespace sim = vpm::sim;

// Each workload exercises one layer and bypasses the others (README.md
// has the measured shares): line-rate the collector, dense-receipts the
// verifier, wide-durable the export/store/fetch path.
WorkloadSpec workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "line-rate") {
    w.domains = {"S", "X", "D"};
    w.paths = 2000;
    w.packets_per_path_round = 50.0;
    w.rounds = 8;
    w.sample_rate = 0.02;  // just above the 1/64 marker floor
    w.cut_rate = 2e-4;
  } else if (name == "dense-receipts") {
    w.domains = {"S", "X", "Y", "Z", "D"};
    w.paths = 200;
    w.packets_per_path_round = 50.0;
    w.rounds = 12;
    w.sample_rate = 0.3;
    w.cut_rate = 0.01;
    w.jitter_domain = 3;  // the last transit domain
    w.jitter = net::microseconds(20);
  } else if (name == "wide-durable") {
    w.domains = {"S", "X", "D"};
    w.paths = 5000;
    w.packets_per_path_round = 2.0;
    w.rounds = 16;
    w.sample_rate = 0.05;
    w.cut_rate = 2e-3;
    w.durable = true;
    w.poll_every = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

namespace {

struct MergedObs {
  net::Packet packet;
  net::Timestamp when;
};

}  // namespace

Inputs generate(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::size_t n_domains = spec.domains.size();
  const std::size_t n_hops = 2 * (n_domains - 1);
  const std::int64_t round_ns = kRoundLength.nanoseconds();
  const double pps = static_cast<double>(spec.paths) *
                     spec.packets_per_path_round /
                     kRoundLength.seconds();

  Inputs in;
  vpm::trace::MultiPathTrace multi = vpm::trace::generate_multi_path(
      sim::scenario::multi_path_config(spec.paths, kZipfS, pps, kRoundLength,
                                       spec.rounds, seed));
  in.paths = std::move(multi.paths);
  in.trace_packets = multi.packets.size();

  std::vector<std::vector<std::uint32_t>> by_path(spec.paths);
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    by_path[multi.path_of[i]].push_back(static_cast<std::uint32_t>(i));
  }

  in.observed.assign(n_hops, std::vector<std::uint64_t>(spec.paths, 0));
  in.loss_offered.assign(spec.paths, 0);
  in.loss_delivered.assign(spec.paths, 0);
  std::vector<std::vector<std::vector<MergedObs>>> buckets(
      n_hops, std::vector<std::vector<MergedObs>>(spec.rounds));

  std::vector<net::Packet> path_trace;
  for (std::size_t p = 0; p < spec.paths; ++p) {
    path_trace.clear();
    for (std::uint32_t i : by_path[p]) {
      net::Packet pkt = multi.packets[i];
      pkt.origin_time = sim::scenario::quantize_us(pkt.origin_time);
      path_trace.push_back(pkt);
    }

    sim::PathEnvironment env;
    env.seed = sim::scenario::mix(seed ^ (0x9E3779B97F4A7C15ull + p));
    env.domains.resize(n_domains);
    env.links.resize(n_domains - 1);
    for (std::size_t d = 1; d + 1 < n_domains; ++d) {
      env.domains[d].delay_of = [](sim::PacketIndex) { return kDomainDelay; };
    }
    if (spec.jitter_domain != 0) {
      env.domains[spec.jitter_domain].jitter = spec.jitter;
    }
    vpm::loss::BernoulliLoss loss(kLossRate,
                                  sim::scenario::mix(seed ^ (0xB10Bull + p)));
    env.domains[kLossDomain].loss = &loss;
    for (sim::LinkSegment& link : env.links) link.delay = kLinkDelay;

    const sim::PathRunResult run = sim::run_path(path_trace, env);
    in.loss_offered[p] =
        run.hop_observations[sim::PathEnvironment::ingress_hop(kLossDomain)]
            .size();
    in.loss_delivered[p] =
        run.hop_observations[sim::PathEnvironment::egress_hop(kLossDomain)]
            .size();
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      in.observed[pos][p] = run.hop_observations[pos].size();
      in.observations += run.hop_observations[pos].size();
      for (const sim::Obs& o : run.hop_observations[pos]) {
        // Bucket by local observation time (what a HOP's reporting clock
        // sees); stragglers past the last boundary fold into the last
        // round, as in sim::run_scenario.
        const net::Timestamp when = sim::scenario::quantize_us(o.when);
        const std::size_t r = std::min<std::size_t>(
            spec.rounds - 1,
            static_cast<std::size_t>(when.nanoseconds() / round_ns));
        buckets[pos][r].push_back(MergedObs{path_trace[o.pkt], when});
      }
    }
  }
  multi.packets = {};
  multi.path_of = {};

  in.rounds.assign(n_hops, std::vector<HopRound>(spec.rounds));
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    for (std::size_t r = 0; r < spec.rounds; ++r) {
      std::vector<MergedObs>& bucket = buckets[pos][r];
      std::sort(bucket.begin(), bucket.end(),
                [](const MergedObs& a, const MergedObs& b) {
                  if (a.when != b.when) return a.when < b.when;
                  return a.packet.sequence < b.packet.sequence;
                });
      HopRound& out = in.rounds[pos][r];
      out.packets.reserve(bucket.size());
      out.when.reserve(bucket.size());
      for (const MergedObs& o : bucket) {
        out.packets.push_back(o.packet);
        out.when.push_back(o.when);
      }
      bucket = {};
    }
  }
  return in;
}

}  // namespace vpmbench
