// In-memory span recorder for the traced benchmark run.
//
// Spans are opened from the benchmark's own code around each call into a
// layer (the library reads no clock).  Nesting follows the call stack: a
// span opened while another is open becomes its child, so the exporter's
// envelope consumer (store.ingest) nests under export.emit and the fetch
// client's round handler (verify.add_round) under fetch.poll.  Every span
// carries the pass and round it ran in; `round` spans are the roots.
// With tracing off, span() returns an inert scope and reads no clock.
#ifndef VPMBENCH_SPANS_HPP
#define VPMBENCH_SPANS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace vpmbench {

enum class Layer : std::uint8_t {
  kRound,
  kObserve,
  kDrain,
  kExport,
  kIngest,
  kPoll,
  kAddRound,
  kAnalyze,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                              Layer::kCount)>
    kLayerNames = {"round",       "collector.observe", "collector.drain",
                   "export.emit", "store.ingest",      "fetch.poll",
                   "verify.add_round", "verify.analyze"};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    Layer layer = Layer::kRound;
    std::int32_t parent = -1;
    std::uint32_t pass = 0;
    std::uint32_t round = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer* t, std::int32_t index) : tracer_(t), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_position(std::uint32_t pass, std::uint32_t round) noexcept {
    pass_ = pass;
    round_ = round;
  }

  [[nodiscard]] Scope span(Layer layer) {
    if (!enabled_) return Scope(nullptr, -1);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{layer, open_, pass_, round_, now_ns(), 0});
    open_ = index;
    return Scope(this, index);
  }

  /// Self time (duration minus the part covered by child spans) summed
  /// per layer over the spans of `pass`.
  [[nodiscard]] std::array<std::int64_t, static_cast<std::size_t>(
                                             Layer::kCount)>
  self_ns(std::uint32_t pass) const {
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> out{};
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t duration = s.end_ns - s.start_ns;
      self[i] += duration;
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].pass == pass) {
        out[static_cast<std::size_t>(spans_[i].layer)] += self[i];
      }
    }
    return out;
  }

  /// One line per span: pass, round, layer, parent index, start, end (ns).
  void write(std::ostream& out) const {
    out << "# index pass round layer parent start_ns end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ' ' << s.pass << ' ' << s.round << ' '
          << kLayerNames[static_cast<std::size_t>(s.layer)] << ' ' << s.parent
          << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
    }
  }

 private:
  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  std::uint32_t round_ = 0;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace vpmbench

#endif  // VPMBENCH_SPANS_HPP
