#pragma once
// Shared pieces of the Patty benchmark: options, the result record, timing
// and statistics helpers, and the in-memory span recorder used by traced
// runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Deliberate corruption of one checked value, applied after the code under
/// test produced it and before the benchmark checks it. The benchmark's
/// tests use it to show that every correctness check can fail.
enum class Inject { None, Fingerprint, Output, Verdict };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs (the benchmark's own tests).
  bool short_mode = false;
  Inject inject = Inject::None;
  /// Hardware threads of this host; bounds every worker budget.
  int nproc = 1;
};

/// What one run prints as its last line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed checks, printed to stderr

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed correctness check (keeps the first few messages).
  void wrong(const std::string& message) {
    correct = false;
    if (problems.size() < 20) problems.push_back(message);
  }
  void check(bool ok, const std::string& message) {
    if (!ok) wrong(message);
  }
};

/// Time from process start (static initialization) until now.
double seconds_since_process_start();
/// Peak resident set size of this process, MB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// `op_ms` holds `rounds` rounds of the same operations in the same order;
/// returns each operation's lowest latency over the rounds. Empty when the
/// rounds differ in length.
std::vector<double> per_operation_best(const std::vector<double>& op_ms,
                                       std::size_t rounds);

/// The five hand-written programs, by name.
const patty::corpus::CorpusProgram& handwritten(const std::string& name);

/// Seeded synthetic programs, renamed "<prefix><i>" so that the parts of a
/// corpus never share a name. `well_behaved` drops the racy indirect-scatter
/// kernel family.
std::vector<patty::corpus::CorpusProgram> synthetic(int count,
                                                    std::uint64_t seed,
                                                    bool well_behaved,
                                                    const std::string& prefix);

/// Canonical detection fingerprint of one program computed through the
/// sequential per-program calls (parse_and_check, SemanticModel::build,
/// detect_all). Throws std::runtime_error when the front-end fails.
std::string sequential_fingerprint(const std::string& source);

/// Flip one character of `s` (the injected fingerprint fault).
void flip_one_char(std::string& s);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome-trace JSON at the end.

class Trace {
 public:
  static Trace& global();

  void enable() { on_.store(true, std::memory_order_relaxed); }
  void disable() { on_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since process start
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint32_t thread = 0;
    std::int64_t subject = -1;  // program or request id
  };

  /// Id of the innermost open span on this thread (0 = none), and a way to
  /// make a span of another thread the parent of this thread's next spans.
  static std::uint32_t current();
  static void set_current(std::uint32_t span);

  /// Add `amount` to a named count (only while tracing is on).
  void count(const std::string& name, double amount);

  [[nodiscard]] double total_seconds(const std::string& name) const;
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] double counted(const std::string& name) const;
  /// Durations (s) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Seconds that direct children of spans named `parent` cover.
  [[nodiscard]] double child_seconds(const std::string& parent) const;

  /// Write {"traceEvents": [...]} to `path`; false on IO failure.
  bool write_chrome(const std::string& path) const;

 private:
  friend class Scope;
  std::uint32_t next_id() { return ++ids_; }
  void record(Span span);

  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span around one call into a layer. Costs one relaxed load and one
/// clock read when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t subject = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t subject_;
  Clock::time_point start_;
  bool traced_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

}  // namespace perfbench
