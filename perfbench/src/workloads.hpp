#pragma once
// The benchmark's three workloads and the traced-run layer measurements.
//
// Every workload runs whole rounds of the same operations until the run's
// time is up. A round times only the calls into Patty; the correctness
// checks that follow it are untimed.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up: build inputs, references, daemon; ends with a warm-up.
  virtual void setup(Outcome& out) = 0;
  /// One round of operations. Returns the seconds spent inside the timed
  /// calls (the round's own time, checks excluded).
  virtual double round(Outcome& out) = 0;
  /// End-of-run checks that need a reference computed once per run.
  virtual void finish(Outcome& out) = 0;
  /// The programs whose per-layer costs a traced run decomposes.
  [[nodiscard]] virtual std::vector<const patty::corpus::CorpusProgram*>
  layer_programs() const = 0;
  /// Human-readable per-workload metrics (printed above the result line).
  virtual void report(double measured_s) const = 0;

  /// Operations completed and their individual latencies (ms).
  std::uint64_t ops = 0;
  std::vector<double> op_ms;
};

std::unique_ptr<Workload> make_analyze(const Options& options);
std::unique_ptr<Workload> make_execute(const Options& options);
std::unique_ptr<Workload> make_serve(const Options& options);

/// Smaller instances run once by traced runs of the other workloads, so
/// that every per-layer metric is measured on every workload.
std::unique_ptr<Workload> make_execute_sweep(const Options& options);
std::unique_ptr<Workload> make_serve_sweep(const Options& options);

/// Traced runs only: the sequential per-program calls into lang, analysis,
/// patterns, corpus and transform (certification) over `programs`, each
/// under its own span.
void layer_pass(
    const std::vector<const patty::corpus::CorpusProgram*>& programs,
    const Options& options, Outcome& out);

/// Traced runs only: per-call cost probes of the runtime region shapes the
/// plan executor arms, and of the daemon's JSON codec.
void runtime_probes();
void codec_probe();

/// Turn the recorded spans and counts into the per-layer metrics.
void per_layer_metrics(const Options& options, double overhead_pct,
                       Outcome& out);

}  // namespace perfbench
