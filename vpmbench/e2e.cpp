// vpm_e2e — the end-to-end VPM benchmark: packets in, findings out.
//
//   vpm_e2e --workload <line-rate|dense-receipts|wide-durable> --seed <n>
//           --seconds <s> --trace <0|1> [--scratch <dir>]
//           [--spans-out <file>] [--commit <id>]
//
// One single-threaded process.  It first generates the workload's inputs
// from the seed (harness work, untimed), then repeats PASSES over those
// inputs until --seconds have elapsed.  A pass builds a fresh pipeline
// (timed as set-up) and runs it in a closed loop, one reporting round at a
// time:
//
//   ShardedCollector::observe_batch (synchronous, 1 shard) -> drain
//     -> WireExporter (emit, end_round, flush) -> ReceiptStore::ingest
//     -> FetchClient::poll (WireImporter) -> IncrementalPathVerifier
//
// Round r+1 is observed only after round r has been exported and polled.
// A pass ends with a clean closing drain, finish(), settle polls,
// finalize() and analyze() — the honest, fault-free path of
// sim::run_scenario with the simulator kept out of the timed region.
// Pass 0 is a warm-up and reports nothing.  With --trace 1, odd passes
// record spans (spans.hpp) and give the per-layer numbers, even passes run
// untraced so the tracing overhead is measured in the same process.
//
// Every pass runs the correctness gate; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}, and the exit code is
// nonzero when the gate fails.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/incremental_verifier.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/segment_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "net/simd_dispatch.hpp"
#include "sim/scenario_common.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

namespace fs = std::filesystem;
namespace net = vpm::net;
namespace core = vpm::core;
namespace dissem = vpm::dissem;
namespace collector = vpm::collector;
using namespace vpmbench;

constexpr dissem::DomainKey kKey = 0x5CE7A110;
constexpr std::size_t kMaxChunkBytes = 4 * 1024;
constexpr std::uint64_t kGapPatience = 3;
constexpr std::size_t kSettlePolls = kGapPatience + 16;
constexpr double kLossTolerance = 1e-9;  // honest receipts count exactly
const std::string kConsumer = "verifiers";
#if defined(__clang__)
constexpr const char* kCompiler = "";  // __VERSION__ names clang itself
#else
constexpr const char* kCompiler = "g++ ";
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch = ".bench_out/scratch";
  std::string spans_out;
  std::string commit = "unknown";
};

/// Resident set size in MB (10^6 bytes), from /proc/self/status.
double rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Linear-interpolation quantile (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median of the lowest quarter of `v` (at least one value).
double lowest_quarter_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize(std::max<std::size_t>(1, (v.size() + 3) / 4));
  return median(std::move(v));
}

using SelfTimes =
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>;

std::int64_t self_of(const SelfTimes& s, Layer l) {
  return s[static_cast<std::size_t>(l)];
}

/// Everything one pass measured and checked.
struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  double loop_s = 0.0;  ///< timed-loop wall time (rounds + closing)
  double mem_mb = 0.0;
  std::vector<double> latency_ms;  ///< one per (HOP, round) delivered
  std::vector<double> dwell_ms;    ///< one per envelope fed
  SelfTimes self_ns{};

  // Collector.
  collector::DataPlaneOps ops;
  std::uint64_t unknown = 0;
  std::uint64_t drained_paths = 0;
  std::size_t arena_bytes = 0;
  std::size_t temp_peak = 0;
  std::size_t emitted_peak = 0;
  // Export.
  std::uint64_t envelope_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t sections = 0;
  std::uint64_t chunks = 0;
  std::uint64_t epoch_splits = 0;
  std::size_t peak_buffer = 0;
  // Store.
  std::uint64_t store_rejected = 0;
  std::size_t retained_peak = 0;
  std::uint64_t lag_peak = 0;
  std::size_t disk_peak = 0;
  std::size_t segments_unlinked = 0;
  // Fetch.
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t fed_bytes = 0;
  std::uint64_t gaps = 0;
  std::uint64_t transient_retries = 0;
  std::uint64_t ack_rejections = 0;
  // Verify.
  std::uint64_t add_round_calls = 0;
  std::uint64_t receipts = 0;
  std::size_t pending_ingress_peak = 0;
  std::size_t tail_aggregates_peak = 0;
  std::uint64_t expired_unmatched = 0;
  // Correctness gate.
  std::uint64_t reports_shipped = 0;
  std::uint64_t reports_failed = 0;
  std::uint64_t paths = 0;
  std::uint64_t wrong_paths = 0;
  double estimated_loss = 0.0;
  double true_loss = 0.0;
};

PassResult run_pass(const WorkloadSpec& w, const Inputs& in, Tracer& tr,
                    std::uint32_t pass, const fs::path& scratch) {
  PassResult res;
  res.traced = tr.enabled();
  const std::size_t n_hops = in.rounds.size();
  const std::size_t n_paths = in.paths.size();

  // Memory baseline: inputs resident, previous pass released.
  malloc_trim(0);
  const double rss_base = rss_mb();
  double rss_peak = rss_base;
  const fs::path store_dir = scratch / ("pass-" + std::to_string(pass));
  if (w.durable) fs::remove_all(store_dir);

  // --- set-up ---------------------------------------------------------------
  const std::int64_t setup_start = now_ns();
  core::PathLayout layout;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    layout.hops.push_back(static_cast<net::HopId>(pos + 1));
    layout.domain_of.push_back(w.domains[(pos + 1) / 2]);
  }

  std::vector<collector::MonitoringCache::Config> hop_cfg(n_hops);
  std::vector<std::unique_ptr<collector::ShardedCollector>> collectors;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    collector::MonitoringCache::Config& c = hop_cfg[pos];
    c.protocol.marker_rate = 1.0 / 64.0;
    c.tuning = core::HopTuning{.sample_rate = w.sample_rate,
                               .cut_rate = w.cut_rate};
    c.self = layout.hops[pos];
    c.previous_hop = pos == 0 ? net::kNoHop : layout.hops[pos - 1];
    c.next_hop = pos + 1 == n_hops ? net::kNoHop : layout.hops[pos + 1];
    collector::ShardedCollector::Config scfg;
    scfg.cache = c;
    scfg.shard_count = 1;
    collectors.push_back(
        std::make_unique<collector::ShardedCollector>(scfg, in.paths));
  }

  auto store = w.durable
                   ? std::make_unique<dissem::ReceiptStore>(
                         dissem::make_segment_storage(
                             dissem::SegmentStoreConfig{.directory =
                                                            store_dir}))
                   : std::make_unique<dissem::ReceiptStore>();
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    store->register_producer(layout.hops[pos], kKey);
  }
  store->register_consumer(kConsumer);

  // Per HOP, indexed by sequence - 1: payload bytes and ingest time.
  struct Ingested {
    std::size_t bytes = 0;
    std::int64_t at_ns = 0;
  };
  std::vector<std::vector<Ingested>> ingested(n_hops);
  std::vector<std::unique_ptr<dissem::WireExporter>> exporters;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    exporters.push_back(std::make_unique<dissem::WireExporter>(
        dissem::WireExporter::Config{.producer = layout.hops[pos],
                                     .key = kKey,
                                     .max_chunk_bytes = kMaxChunkBytes},
        [&, pos](dissem::Envelope&& e) {
          const auto span = tr.span(Layer::kIngest);
          const std::size_t bytes = e.payload.size();
          (void)store->ingest(std::move(e));
          ingested[pos].push_back(Ingested{bytes, now_ns()});
        }));
  }

  const core::IncrementalPathVerifier::Config vcfg{
      .layout = layout,
      .retain_rounds = w.rounds + 16,
      .margin_boundaries = 2,
  };
  std::vector<core::IncrementalPathVerifier> verifiers;
  verifiers.reserve(n_paths);
  for (std::size_t p = 0; p < n_paths; ++p) verifiers.emplace_back(vcfg);

  std::vector<std::unique_ptr<dissem::WireImporter>> importers;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    importers.push_back(std::make_unique<dissem::WireImporter>(
        vpm::sim::scenario::path_table(hop_cfg[pos], in.paths)));
  }

  std::vector<std::vector<std::uint64_t>> wire_packets(
      n_hops, std::vector<std::uint64_t>(n_paths, 0));
  std::vector<std::unique_ptr<dissem::FetchClient>> clients;
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    dissem::FetchClient::Config ccfg;
    ccfg.consumer = kConsumer;
    ccfg.producer = layout.hops[pos];
    ccfg.producer_name = layout.domain_of[pos];
    ccfg.hop = layout.hops[pos];
    ccfg.gap_patience_polls = kGapPatience;
    ccfg.seed = 0xC11E57ull + pos;
    clients.push_back(std::make_unique<dissem::FetchClient>(
        *importers[pos], *store, ccfg,
        [&, pos](std::vector<core::IndexedPathDrain>&& groups) {
          const auto span = tr.span(Layer::kAddRound);
          for (core::IndexedPathDrain& g : groups) {
            for (const core::AggregateReceipt& a : g.drain.aggregates) {
              wire_packets[pos][g.path] += a.packet_count;
            }
            res.receipts +=
                g.drain.samples.samples.size() + g.drain.aggregates.size();
            ++res.add_round_calls;
            verifiers[g.path].add_round(layout.hops[pos], std::move(g.drain));
          }
        },
        [&](core::RoundGap&&) { ++res.gaps; }));
  }
  res.setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;

  // --- the closed loop ------------------------------------------------------
  // A (HOP, round) report is delivered once the HOP's fetch client has fed
  // the last envelope the exporter sealed for that round.
  struct Pending {
    std::uint64_t last_sequence = 0;
    std::int64_t drain_start_ns = 0;
  };
  std::vector<std::deque<Pending>> pending(n_hops);
  const auto poll = [&](std::size_t pos) {
    const std::uint64_t before = clients[pos]->last_fed();
    const std::int64_t start = now_ns();
    {
      const auto span = tr.span(Layer::kPoll);
      clients[pos]->poll();
    }
    const std::int64_t end = now_ns();
    const std::uint64_t after = clients[pos]->last_fed();
    ++res.polls;
    if (after == before) ++res.empty_polls;
    for (std::uint64_t seq = before + 1; seq <= after; ++seq) {
      const Ingested& g = ingested[pos][seq - 1];
      res.dwell_ms.push_back(static_cast<double>(start - g.at_ns) * 1e-6);
      res.fed_bytes += g.bytes;
    }
    while (!pending[pos].empty() &&
           pending[pos].front().last_sequence <= after) {
      res.latency_ms.push_back(
          static_cast<double>(end - pending[pos].front().drain_start_ns) *
          1e-6);
      pending[pos].pop_front();
    }
  };
  const auto export_drain = [&](std::size_t pos, bool closing) {
    core::VectorSink sink;
    {
      const auto span = tr.span(Layer::kDrain);
      collectors[pos]->drain(sink, /*flush_open=*/closing);
    }
    res.drained_paths += n_paths;
    std::vector<core::IndexedPathDrain> stream = std::move(sink).take();
    const auto span = tr.span(Layer::kExport);
    core::emit_stream(*exporters[pos], std::move(stream));
    if (closing) {
      exporters[pos]->finish();
    } else {
      exporters[pos]->end_round();
      exporters[pos]->flush();
    }
  };
  // Untimed, between rounds.
  const auto sample_state = [&] {
    rss_peak = std::max(rss_peak, rss_mb());
    res.retained_peak = std::max(res.retained_peak, store->stored_envelopes());
    res.disk_peak =
        std::max(res.disk_peak, store->storage_stats().bytes_on_disk);
    if (!res.traced) return;
    std::size_t ingress = 0;
    std::size_t tails = 0;
    for (const core::IncrementalPathVerifier& v : verifiers) {
      const core::IncrementalPathVerifier::ResidentStats s =
          v.resident_stats();
      ingress += s.pending_ingress_samples;
      tails += s.tail_aggregate_receipts;
    }
    res.pending_ingress_peak = std::max(res.pending_ingress_peak, ingress);
    res.tail_aggregates_peak = std::max(res.tail_aggregates_peak, tails);
  };

  std::int64_t loop_ns = 0;
  for (std::size_t r = 0; r < w.rounds; ++r) {
    tr.set_position(pass, static_cast<std::uint32_t>(r));
    const std::int64_t round_start = now_ns();
    {
      const auto round_span = tr.span(Layer::kRound);
      for (std::size_t pos = 0; pos < n_hops; ++pos) {
        const HopRound& hr = in.rounds[pos][r];
        const auto span = tr.span(Layer::kObserve);
        collectors[pos]->observe_batch(hr.packets, hr.when);
      }
      const std::int64_t drain_start = now_ns();
      for (std::size_t pos = 0; pos < n_hops; ++pos) {
        export_drain(pos, /*closing=*/false);
        pending[pos].push_back(
            Pending{exporters[pos]->next_sequence() - 1, drain_start});
        ++res.reports_shipped;
      }
      if ((r + 1) % w.poll_every == 0) {
        for (std::size_t pos = 0; pos < n_hops; ++pos) {
          res.lag_peak = std::max(res.lag_peak,
                                  exporters[pos]->next_sequence() - 1 -
                                      clients[pos]->last_fed());
        }
        for (std::size_t pos = 0; pos < n_hops; ++pos) poll(pos);
      }
    }
    loop_ns += now_ns() - round_start;
    sample_state();
  }
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    res.arena_bytes += collectors[pos]->arena_bytes();
  }

  tr.set_position(pass, static_cast<std::uint32_t>(w.rounds));
  std::vector<core::PathAnalysis> analyses;
  const std::int64_t close_start = now_ns();
  {
    const auto round_span = tr.span(Layer::kRound);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      export_drain(pos, /*closing=*/true);
    }
    const auto settled = [&] {
      for (std::size_t pos = 0; pos < n_hops; ++pos) {
        if (clients[pos]->last_fed() + 1 != exporters[pos]->next_sequence()) {
          return false;
        }
      }
      return true;
    };
    for (std::size_t i = 0; i < kSettlePolls && !settled(); ++i) {
      for (std::size_t pos = 0; pos < n_hops; ++pos) poll(pos);
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      const auto span = tr.span(Layer::kPoll);
      clients[pos]->finalize();
    }
    const auto span = tr.span(Layer::kAnalyze);
    analyses.reserve(n_paths);
    for (const core::IncrementalPathVerifier& v : verifiers) {
      analyses.push_back(v.analyze());
    }
  }
  loop_ns += now_ns() - close_start;
  sample_state();
  res.loop_s = static_cast<double>(loop_ns) * 1e-9;
  res.mem_mb = rss_peak - rss_base;
  if (res.traced) res.self_ns = tr.self_ns(pass);

  // --- per-layer counters (untimed) ----------------------------------------
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    res.ops += collectors[pos]->ops();
    res.unknown += collectors[pos]->unknown_path_packets();
    if (const collector::MonitoringCache* c = collectors[pos]->shard_cache(0)) {
      res.temp_peak = std::max(res.temp_peak, c->temp_buffer_peak_records());
      res.emitted_peak =
          std::max(res.emitted_peak, c->emitted_peak_records());
    }
    const dissem::WireExporter::Stats& ex = exporters[pos]->stats();
    res.envelope_bytes += ex.envelope_bytes;
    res.payload_bytes += ex.payload_bytes;
    res.sections += ex.sample_batches + ex.aggregate_batches;
    res.chunks += ex.chunks;
    res.epoch_splits += ex.epoch_splits;
    res.peak_buffer = std::max(res.peak_buffer, ex.peak_buffer_bytes);
    const dissem::FetchClient::Stats& fs = clients[pos]->stats();
    res.transient_retries += fs.transient_retries;
    res.ack_rejections += fs.ack_rejections;
  }
  res.store_rejected = store->rejected_count();
  res.segments_unlinked = store->storage_stats().segments_unlinked;
  for (const core::IncrementalPathVerifier& v : verifiers) {
    res.expired_unmatched += v.resident_stats().expired_unmatched;
  }

  // --- correctness gate ------------------------------------------------------
  std::uint64_t undelivered = 0;
  for (const std::deque<Pending>& q : pending) undelivered += q.size();
  res.reports_failed =
      undelivered + res.gaps + res.ack_rejections + res.store_rejected;
  res.paths = n_paths;
  const std::string& lossy = w.domains[kLossDomain];
  std::uint64_t est_offered = 0;
  std::uint64_t est_delivered = 0;
  std::uint64_t true_offered = 0;
  std::uint64_t true_delivered = 0;
  for (std::size_t p = 0; p < n_paths; ++p) {
    const core::PathAnalysis& a = analyses[p];
    bool ok = a.all_links_consistent() && a.complete();
    const auto finding = std::find_if(
        a.domains.begin(), a.domains.end(),
        [&](const core::DomainFinding& d) { return d.domain == lossy; });
    if (finding == a.domains.end()) {
      ok = false;
    } else {
      est_offered += finding->loss.offered;
      est_delivered += finding->loss.delivered;
    }
    true_offered += in.loss_offered[p];
    true_delivered += in.loss_delivered[p];
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      if (wire_packets[pos][p] != in.observed[pos][p]) ok = false;
    }
    if (!ok) ++res.wrong_paths;
  }
  res.estimated_loss =
      1.0 - ratio(static_cast<double>(est_delivered),
                  static_cast<double>(est_offered));
  res.true_loss = 1.0 - ratio(static_cast<double>(true_delivered),
                              static_cast<double>(true_offered));

  // --- teardown (untimed) ---------------------------------------------------
  // The store must close its segment files before the directory goes.
  clients.clear();
  store.reset();
  if (w.durable) fs::remove_all(store_dir);
  return res;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void print_metrics(const char* heading, const std::vector<Metric>& ms) {
  std::cout << heading << "\n";
  for (const Metric& m : ms) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

template <typename F>
std::vector<double> collect(const std::vector<PassResult>& rs, F f) {
  std::vector<double> out;
  for (const PassResult& r : rs) out.push_back(f(r));
  return out;
}

/// The fastest quarter of `rs` by timed-loop wall time (at least one).
/// Every pass repeats identical work on a fresh pipeline, so what differs
/// between passes is interference from other tenants of the host, which
/// only ever adds time; timings are taken over the least disturbed passes.
std::vector<PassResult> fastest_quarter(std::vector<PassResult> rs) {
  std::sort(rs.begin(), rs.end(), [](const PassResult& a, const PassResult& b) {
    return a.loop_s < b.loop_s;
  });
  rs.resize(std::max<std::size_t>(1, (rs.size() + 3) / 4));
  return rs;
}

std::vector<double> pooled(const std::vector<PassResult>& rs,
                           std::vector<double> PassResult::*field) {
  std::vector<double> out;
  for (const PassResult& r : rs) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

std::string fingerprint(const Options& opt) {
  const char* env_simd = std::getenv("VPM_SIMD");
  std::ostringstream os;
  os << "{\"seed\": " << opt.seed
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(std::string(kCompiler) + __VERSION__)
     << ", \"build_type\": " << json_string(VPMBENCH_BUILD_TYPE)
     << ", \"lto\": " << (VPMBENCH_LTO ? "true" : "false")
     << ", \"simd_tier\": "
     << json_string(net::simd::tier_name(net::simd::active_tier()))
     << ", \"simd_detected\": "
     << json_string(net::simd::tier_name(net::simd::detected_tier()))
     << ", \"VPM_SIMD\": " << json_string(env_simd ? env_simd : "")
     << ", \"commit\": " << json_string(opt.commit) << "}";
  return os.str();
}

int run(const Options& opt) {
  const WorkloadSpec spec = workload(opt.workload);
  const std::int64_t gen_start = now_ns();
  const Inputs in = generate(spec, opt.seed);
  const double generate_s = static_cast<double>(now_ns() - gen_start) * 1e-9;
  fs::create_directories(opt.scratch);

  // Pass 0 warms caches and the allocator and is not reported.  Traced
  // runs alternate untraced (even) and traced (odd) passes.
  Tracer tr;
  std::vector<PassResult> passes;
  const std::size_t min_passes = opt.trace ? 5 : 3;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint32_t pass = 0;
       passes.size() < min_passes || now_ns() - start < budget_ns; ++pass) {
    tr.set_enabled(opt.trace && pass % 2 == 1);
    passes.push_back(run_pass(spec, in, tr, pass, opt.scratch));
  }
  fs::remove_all(opt.scratch);
  if (opt.trace && !opt.spans_out.empty()) {
    std::ofstream out(opt.spans_out);
    tr.write(out);
  }

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    (passes[i].traced ? traced : untraced).push_back(passes[i]);
  }

  // --- correctness gate, over every pass ------------------------------------
  std::uint64_t reports = 0, failed_reports = 0, paths = 0, wrong_paths = 0;
  bool loss_ok = true, hashes_ok = true, unknown_ok = true;
  for (const PassResult& r : passes) {
    reports += r.reports_shipped;
    failed_reports += r.reports_failed;
    paths += r.paths;
    wrong_paths += r.wrong_paths;
    loss_ok = loss_ok &&
              std::abs(r.estimated_loss - r.true_loss) <= kLossTolerance;
    hashes_ok = hashes_ok && r.ops.hash_computations == in.observations;
    unknown_ok = unknown_ok && r.unknown == 0;
  }
  const bool correct = wrong_paths == 0 && failed_reports == 0 && loss_ok &&
                       hashes_ok && unknown_ok;

  const double pkts = static_cast<double>(in.trace_packets);
  const double obs = static_cast<double>(in.observations);
  const auto mpps = [&](const PassResult& r) { return pkts / r.loop_s / 1e6; };
  const std::vector<PassResult> fast = fastest_quarter(untraced);
  const std::vector<double> latency = pooled(fast, &PassResult::latency_ms);
  const std::vector<Metric> e2e = {
      {"pipeline_mpps", median(collect(fast, mpps)), "Mpps"},
      {"report_latency_p50_ms", quantile(latency, 0.5), "ms"},
      {"report_latency_p90_ms", quantile(latency, 0.9), "ms"},
      {"wire_bytes_per_pkt",
       median(collect(untraced,
                      [&](const PassResult& r) {
                        return static_cast<double>(r.envelope_bytes) / pkts;
                      })),
       "B/pkt"},
      {"setup_s",
       lowest_quarter_median(
           collect(untraced, [](const PassResult& r) { return r.setup_s; })),
       "s"},
      {"pipeline_mem_mb",
       median(collect(untraced, [](const PassResult& r) { return r.mem_mb; })),
       "MB"},
  };

  std::cout << "vpm_e2e workload=" << spec.name << " seed=" << opt.seed
            << " passes=" << passes.size() << " (1 warm-up, "
            << untraced.size() << " untraced, " << traced.size()
            << " traced); per pass: " << spec.rounds << " rounds, "
            << in.trace_packets << " trace packets, " << in.observations
            << " HOP observations, " << spec.paths << " paths\n";
  std::cout << "fingerprint " << fingerprint(opt) << "\n";
  std::cout << "harness.generate_s = " << generate_s
            << " s (input generation; excluded from every system metric)\n";
  print_metrics("end-to-end (untraced passes; timings over the fastest "
                "quarter, set-up over the lowest quarter):",
                e2e);
  std::cout << "  latency samples: " << latency.size() << " (HOP, round) "
            << "reports over the fastest " << fast.size() << " of "
            << untraced.size() << " passes\n"
            << "  per-pass Mpps:";
  for (const PassResult& r : untraced) std::cout << " " << mpps(r);
  std::cout << "\n  per-pass latency p50/p90 ms:";
  for (const PassResult& r : untraced) {
    std::cout << " " << quantile(r.latency_ms, 0.5) << "/"
              << quantile(r.latency_ms, 0.9);
  }
  std::cout << "\n";
  std::cout << "correctness gate (" << (correct ? "PASS" : "FAIL") << "):\n"
            << "  verdict_error_ratio = "
            << ratio(static_cast<double>(wrong_paths),
                     static_cast<double>(paths))
            << " (" << wrong_paths << "/" << paths << " path analyses)\n"
            << "  failed_report_ratio = "
            << ratio(static_cast<double>(failed_reports),
                     static_cast<double>(reports))
            << " (" << failed_reports << "/" << reports << " reports)\n"
            << "  loss through " << spec.domains[kLossDomain]
            << ": estimated " << passes.back().estimated_loss << " vs true "
            << passes.back().true_loss << " (tolerance " << kLossTolerance
            << ")" << (loss_ok ? "" : " MISMATCH") << "\n"
            << "  hashes per observation "
            << ratio(static_cast<double>(
                         passes.back().ops.hash_computations),
                     obs)
            << (hashes_ok ? "" : " (expected 1)")
            << ", unknown packets " << passes.back().unknown << "\n";

  std::vector<Metric> layers;
  if (opt.trace) {
    const PassResult& last = traced.back();
    const std::vector<PassResult> traced_fast = fastest_quarter(traced);
    const auto per = [&](auto f) { return median(collect(traced_fast, f)); };
    const auto self = [](const PassResult& r, Layer l) {
      return static_cast<double>(self_of(r.self_ns, l));
    };
    const auto count = [](auto v) { return static_cast<double>(v); };
    const std::vector<double> dwell =
        pooled(traced_fast, &PassResult::dwell_ms);
    const double traced_mpps = median(collect(traced_fast, mpps));

    // Shares of the traced timed-loop wall time, by layer.
    const auto share = [&](std::initializer_list<Layer> ls) {
      return per([&](const PassResult& r) {
        double ns = 0.0;
        for (Layer l : ls) ns += self(r, l);
        return 100.0 * ns / (r.loop_s * 1e9);
      });
    };
    const double unattributed = per([&](const PassResult& r) {
      double ns = r.loop_s * 1e9;
      for (std::size_t l = 1; l < r.self_ns.size(); ++l) {
        ns -= static_cast<double>(r.self_ns[l]);
      }
      return 100.0 * ns / (r.loop_s * 1e9);
    });
    std::cout << "traced timed-loop wall time by layer (self time, median "
                 "share over the fastest quarter of traced passes):\n"
              << "  collector " << share({Layer::kObserve, Layer::kDrain})
              << "%, export " << share({Layer::kExport}) << "%, store "
              << share({Layer::kIngest}) << "%, fetch "
              << share({Layer::kPoll}) << "%, verify "
              << share({Layer::kAddRound, Layer::kAnalyze})
              << "%, unattributed " << unattributed << "%\n";

    layers = {
        {"collector.observe_ns_per_obs",
         per([&](const PassResult& r) {
           return self(r, Layer::kObserve) / obs;
         }),
         "ns"},
        {"collector.observe_s",
         per([&](const PassResult& r) {
           return self(r, Layer::kObserve) * 1e-9;
         }),
         "s"},
        {"collector.drain_ns_per_path",
         per([&](const PassResult& r) {
           return self(r, Layer::kDrain) / count(r.drained_paths);
         }),
         "ns"},
        {"collector.hashes_per_obs", count(last.ops.hash_computations) / obs,
         "hash/obs"},
        {"collector.sweep_accesses_per_obs",
         count(last.ops.marker_sweep_accesses) / obs, "access/obs"},
        {"collector.unknown_pkts", count(last.unknown), "count"},
        {"collector.arena_mb", count(last.arena_bytes) / 1e6, "MB"},
        {"collector.temp_buffer_peak_records", count(last.temp_peak), "count"},
        {"collector.emitted_peak_records", count(last.emitted_peak), "count"},
        {"export.self_s",
         per([&](const PassResult& r) {
           return self(r, Layer::kExport) * 1e-9;
         }),
         "s"},
        {"export.ns_per_payload_byte",
         per([&](const PassResult& r) {
           return self(r, Layer::kExport) / count(r.payload_bytes);
         }),
         "ns/B"},
        {"export.sections", count(last.sections), "count"},
        {"export.chunks", count(last.chunks), "count"},
        {"export.epoch_splits", count(last.epoch_splits), "count"},
        {"export.peak_buffer_kb", count(last.peak_buffer) / 1024.0, "KiB"},
        {"store.ingest_us_per_envelope",
         per([&](const PassResult& r) {
           return self(r, Layer::kIngest) / count(r.chunks) / 1e3;
         }),
         "us"},
        {"store.dwell_ms_p50", quantile(dwell, 0.5), "ms"},
        {"store.dwell_ms_p90", quantile(dwell, 0.9), "ms"},
        {"store.rejected", count(last.store_rejected), "count"},
        {"store.retained_peak", count(last.retained_peak), "count"},
        {"store.consumer_lag_peak", count(last.lag_peak), "count"},
        {"store.disk_peak_mb", count(last.disk_peak) / 1e6, "MB"},
        {"store.segments_unlinked", count(last.segments_unlinked), "count"},
        {"fetch.self_s",
         per([&](const PassResult& r) { return self(r, Layer::kPoll) * 1e-9; }),
         "s"},
        {"fetch.ns_per_payload_byte",
         per([&](const PassResult& r) {
           return self(r, Layer::kPoll) / count(r.fed_bytes);
         }),
         "ns/B"},
        {"fetch.polls", count(last.polls), "count"},
        {"fetch.empty_poll_ratio",
         ratio(count(last.empty_polls), count(last.polls)), "ratio"},
        {"fetch.gaps", count(last.gaps), "count"},
        {"fetch.transient_retries", count(last.transient_retries), "count"},
        {"fetch.ack_rejections", count(last.ack_rejections), "count"},
        {"verify.us_per_add_round",
         per([&](const PassResult& r) {
           return self(r, Layer::kAddRound) / count(r.add_round_calls) / 1e3;
         }),
         "us"},
        {"verify.ns_per_receipt",
         per([&](const PassResult& r) {
           return self(r, Layer::kAddRound) / count(r.receipts);
         }),
         "ns"},
        {"verify.analyze_ms",
         per([&](const PassResult& r) {
           return self(r, Layer::kAnalyze) / 1e6;
         }),
         "ms"},
        {"verify.pending_ingress_peak", count(last.pending_ingress_peak),
         "count"},
        {"verify.tail_aggregates_peak", count(last.tail_aggregates_peak),
         "count"},
        {"verify.expired_unmatched", count(last.expired_unmatched), "count"},
        {"harness.generate_s", generate_s, "s"},
        {"trace.overhead_pct",
         100.0 * (median(collect(fast, mpps)) / traced_mpps - 1.0), "%"},
        {"trace.unattributed_pct", unattributed, "%"},
    };
    print_metrics("per-layer (times over the fastest quarter of traced "
                  "passes, counts from the last):",
                  layers);
  }

  const std::vector<Metric>& reported = opt.trace ? layers : e2e;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << reports + paths
            << ", \"failed\": " << failed_reports + wrong_paths
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << json_string(reported[i].name)
              << ": {\"value\": " << json_number(reported[i].value)
              << ", \"unit\": " << json_string(reported[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "vpm_e2e: " << key << " needs a value\n";
      return 2;
    }
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--scratch") {
      opt.scratch = val;
    } else if (key == "--spans-out") {
      opt.spans_out = val;
    } else if (key == "--commit") {
      opt.commit = val;
    } else {
      std::cerr << "vpm_e2e: unknown option " << key << "\n";
      return 2;
    }
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "vpm_e2e: " << e.what() << "\n";
    return 2;
  }
}
