// The Patty benchmark's entry point.
//
//   patty_perfbench --workload analyze|execute|serve --seed N --seconds S
//                   --trace 0|1 [--short] [--inject fingerprint|output|verdict]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write their spans as a Chrome
// trace to .bench_out/. The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <exception>
#include <numeric>
#include <string>
#include <thread>

#include "analysis/interpreter.hpp"
#include "common.hpp"
#include "service/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: patty_perfbench --workload "
               "analyze|execute|serve --seed N --seconds S --trace 0|1 "
               "[--short] [--inject fingerprint|output|verdict]\n",
               message);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--short") {
      o.short_mode = true;
    } else if (arg == "--inject") {
      const std::string kind = value();
      if (kind == "fingerprint") o.inject = Inject::Fingerprint;
      else if (kind == "output") o.inject = Inject::Output;
      else if (kind == "verdict") o.inject = Inject::Verdict;
      else usage("unknown --inject kind");
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload != "analyze" && o.workload != "execute" &&
      o.workload != "serve")
    usage("--workload must be analyze, execute or serve");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  return o;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "analyze") return make_analyze(o);
  if (o.workload == "execute") return make_execute(o);
  return make_serve(o);
}

/// Whole rounds until `budget` seconds have passed (at least one).
std::vector<double> rounds(Workload& w, Outcome& out, double budget,
                           bool traced, const Options& o) {
  std::vector<double> own;
  const auto start = Clock::now();
  do {
    if (traced) {
      {
        Scope round("bench.round");
        own.push_back(w.round(out));
      }
      Scope layers("bench.layers");
      layer_pass(w.layer_programs(), o, out);
    } else {
      own.push_back(w.round(out));
    }
  } while (seconds_since(start) < budget);
  return own;
}

/// One traced round of a smaller instance of another workload.
void sweep(std::unique_ptr<Workload> w) {
  Outcome scratch;  // its correctness is checked by its own workload
  Trace::global().disable();
  w->setup(scratch);
  Trace::global().enable();
  {
    Scope s("bench.sweep");
    w->round(scratch);
  }
  w->finish(scratch);
}

void print_result(const Outcome& out) {
  for (const Outcome::Metric& m : out.metrics)
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.12g", m.value);
    if (i) json += ", ";
    json += patty::service::json::quote(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + patty::service::json::quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  Outcome out;
  try {
    std::filesystem::create_directories(".bench_out");
    std::unique_ptr<Workload> w = make(o);
    w->setup(out);
    const double setup_s = seconds_since_process_start();
    if (!o.trace) {
      const std::vector<double> own = rounds(*w, out, o.seconds, false, o);
      w->finish(out);
      const double own_s = std::accumulate(own.begin(), own.end(), 0.0);
      std::printf("rounds %zu, measured %.3f s\n", own.size(), own_s);
      w->report(own_s);
      out.metric("setup_s", setup_s, "s");
      out.metric("peak_rss_mb", peak_rss_mb(), "MB");
      // The host is shared: other load on it only ever adds time, and it
      // can slow most of a run's rounds. Throughput is taken from the
      // fastest round. Every round runs the same operations in the same
      // order; each operation's latency is its fastest over the rounds, and
      // the quantiles are taken over the operations of one round.
      out.metric("ops_per_s",
                 static_cast<double>(w->ops) / static_cast<double>(own.size()) /
                     *std::min_element(own.begin(), own.end()),
                 "1/s");
      const std::vector<double> best = per_operation_best(w->op_ms, own.size());
      out.check(!best.empty(),
                "rounds differ in their number of timed operations");
      out.metric("op_p50_ms", quantile(best, 0.50), "ms");
      out.metric("op_p99_ms", quantile(best, 0.99), "ms");
    } else {
      // Untraced rounds first, then the same rounds traced: the ratio of
      // their medians is the tracing overhead.
      const std::vector<double> plain =
          rounds(*w, out, o.seconds / 2, false, o);
      Trace::global().enable();
      const std::vector<double> traced =
          rounds(*w, out, o.seconds / 2, true, o);
      w->finish(out);
      runtime_probes();
      codec_probe();
      if (o.workload != "execute") sweep(make_execute_sweep(o));
      if (o.workload != "serve") sweep(make_serve_sweep(o));
      Trace::global().disable();
      const double overhead_pct =
          (median(traced) / median(plain) - 1.0) * 100.0;
      per_layer_metrics(o, overhead_pct, out);
      const std::string path = ".bench_out/trace-" + o.workload + "-" +
                               std::to_string(o.seed) + ".json";
      if (Trace::global().write_chrome(path))
        std::printf("trace written to %s\n", path.c_str());
      else
        out.wrong("could not write " + path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  } catch (const patty::analysis::RuntimeError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.message.c_str());
    return 1;
  }
  print_result(out);
  return 0;
}
