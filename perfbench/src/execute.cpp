// Workload `execute`: hand-written avistream, raytracer, matrix and
// histogram plus a small seeded sample of well-behaved synthetic programs.
// Each round runs every program on the sequential analysis::Interpreter, as
// transformed code under transform::ParallelPlanExecutor with the default
// tuning, and then tunes it with a fixed evaluation budget.
//
// desktop_search is left out: its certificate is residue-raced, yet the plan
// executor runs its loop in parallel and the run races on a shared list.
//
// Check: every transformed output, for the default tuning and for every
// configuration the tuner measures, equals the sequential interpreter's
// output recorded at set-up.

#include <cstdio>
#include <stdexcept>

#include "analysis/interpreter.hpp"
#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "transform/plan.hpp"
#include "tuning/tuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using patty::corpus::CorpusProgram;

constexpr std::uint64_t kTunerSeed = 2015;

struct Prepared {
  const CorpusProgram* source = nullptr;
  std::unique_ptr<patty::lang::Program> program;
  std::vector<patty::patterns::Candidate> candidates;
  patty::rt::TuningConfig defaults;
  patty::rt::TuningConfig space;  // what the tuner searches
  std::string reference;  // sequential interpreter output
};

/// The default tuning without its OrderPreservation and StageFusion knobs,
/// which stay at their defaults. OrderPreservation may change a program's
/// output by design; StageFusion of a replicated stage with its neighbour
/// changes raytracer's output now and then (see CHANGES.md).
patty::rt::TuningConfig tuning_space(const patty::rt::TuningConfig& defaults) {
  patty::rt::TuningConfig space;
  for (const auto& [name, param] : defaults.params())
    if (name.find(".order") == std::string::npos &&
        name.find(".fuse") == std::string::npos)
      space.define(param);
  return space;
}

void drop_one_line(std::string& text) {
  const std::size_t end = text.find('\n');
  text.erase(0, end == std::string::npos ? text.size() : end + 1);
}

class Execute final : public Workload {
 public:
  Execute(const Options& o, std::vector<std::string> handwritten_names,
          int synthetic_count, std::size_t tune_budget)
      : o_(o),
        names_(std::move(handwritten_names)),
        synthetic_count_(synthetic_count),
        tune_budget_(tune_budget) {}

  void setup(Outcome& out) override {
    samples_ = synthetic(synthetic_count_, o_.seed, /*well_behaved=*/true,
                         "exec");
    for (const std::string& name : names_)
      sources_.push_back(&handwritten(name));
    for (const CorpusProgram& p : samples_) sources_.push_back(&p);
    for (const CorpusProgram* src : sources_) {
      Prepared p;
      p.source = src;
      patty::DiagnosticSink diags;
      p.program = patty::lang::parse_and_check(src->source, diags);
      if (!p.program)
        throw std::runtime_error(src->name + ": " + diags.to_string());
      const auto model = patty::analysis::SemanticModel::build(*p.program);
      p.candidates = patty::patterns::detect_all(*model).candidates;
      p.defaults = patty::transform::default_tuning(p.candidates);
      p.space = tuning_space(p.defaults);
      patty::analysis::Interpreter interp(*p.program);
      interp.run_main();
      p.reference = interp.output();
      prepared_.push_back(std::move(p));
    }
    per_program_.resize(prepared_.size());
    Outcome warmup;
    round(warmup);
    for (const std::string& p : warmup.problems) out.wrong("warm-up: " + p);
    ops = 0;
    op_ms.clear();
    per_program_.assign(prepared_.size(), {});
    seq_s_.clear();
    par_s_.clear();
    tune_s_.clear();
  }

  double round(Outcome& out) override {
    double seq = 0, par = 0, tune = 0;
    for (std::size_t i = 0; i < prepared_.size(); ++i) {
      const Prepared& p = prepared_[i];
      const auto id = static_cast<std::int64_t>(i);
      const double seq_before = seq, par_before = par;
      seq += timed(out, [&] {
        Scope span("execute.sequential", id);
        patty::analysis::Interpreter interp(*p.program);
        interp.run_main();
        out.check(interp.output() == p.reference,
                  p.source->name + ": sequential output changed");
      });
      par += timed(out, [&] {
        Scope span("transform.plan_exec", id);
        patty::transform::ParallelPlanExecutor executor(*p.program,
                                                        p.candidates,
                                                        &p.defaults);
        executor.run_main();
        std::string output = executor.output();
        if (o_.inject == Inject::Output && i == 0) drop_one_line(output);
        out.check(output == p.reference,
                  p.source->name + ": transformed output differs from the "
                                   "sequential interpreter's");
        count_regions(executor);
      });
      per_program_[i].first.push_back(seq - seq_before);
      per_program_[i].second.push_back(par - par_before);
      tune += tune_program(out, p, id);
    }
    seq_s_.push_back(seq);
    par_s_.push_back(par);
    tune_s_.push_back(tune);
    Trace::global().count("passes.execute", 1);
    return seq + par + tune;
  }

  void finish(Outcome&) override {}

  [[nodiscard]] std::vector<const CorpusProgram*> layer_programs()
      const override {
    return sources_;
  }

  void report(double) const override {
    std::printf("execute: %zu programs, tuning budget %zu evaluations\n",
                prepared_.size(), tune_budget_);
    std::printf("sequential_run_s %.6f s\ntransformed_run_s %.6f s\n"
                "tune_s %.6f s\n",
                median(seq_s_), median(par_s_), median(tune_s_));
    for (std::size_t i = 0; i < prepared_.size(); ++i)
      std::printf("  %-16s sequential %8.3f ms  transformed %8.3f ms\n",
                  prepared_[i].source->name.c_str(),
                  median(per_program_[i].first) * 1e3,
                  median(per_program_[i].second) * 1e3);
  }

 private:
  /// Run one program operation, record its latency; a throw is a failed
  /// operation.
  template <typename Fn>
  double timed(Outcome& out, Fn&& fn) {
    ++out.attempted;
    ++ops;
    const auto start = Clock::now();
    try {
      fn();
    } catch (const patty::analysis::RuntimeError& e) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.message.c_str());
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    }
    const double s = seconds_since(start);
    op_ms.push_back(s * 1e3);
    return s;
  }

  static void count_regions(
      const patty::transform::ParallelPlanExecutor& executor) {
    Trace& trace = Trace::global();
    if (!trace.on()) return;
    for (const patty::transform::PlanReport& r : executor.reports()) {
      trace.count("transform.region_entries", static_cast<double>(r.runs));
      trace.count("transform.regions_parallel", r.ran_parallel ? 1 : 0);
      trace.count("transform.elements", static_cast<double>(r.elements));
    }
  }

  /// Random search with a fixed seed over the program's tuning space: the
  /// same configurations every round and every run, so rounds measure the
  /// same work. Every measured configuration's output is checked.
  double tune_program(Outcome& out, const Prepared& p, std::int64_t id) {
    if (p.space.size() == 0) return 0;
    const auto start = Clock::now();
    Scope span("tuning.tune", id);
    auto measure = [&](const patty::rt::TuningConfig& config) {
      ++out.attempted;
      ++ops;
      const auto t0 = Clock::now();
      patty::transform::ParallelPlanExecutor executor(*p.program, p.candidates,
                                                      &config);
      executor.run_main();
      const double s = seconds_since(t0);
      op_ms.push_back(s * 1e3);
      out.check(executor.output() == p.reference,
                p.source->name + ": tuned configuration changes the output");
      return s;
    };
    const auto tuner = patty::tuning::make_random_tuner(kTunerSeed);
    const patty::tuning::TuningRun run =
        tuner->tune(p.space, measure, tune_budget_);
    out.failed += run.failed_evaluations;
    Trace& trace = Trace::global();
    if (trace.on() && !run.history.empty()) {
      trace.count("tuning.evaluations", static_cast<double>(run.evaluations));
      trace.count("tuning.default_s", run.history.front().score);
      trace.count("tuning.best_s", run.best_score);
    }
    return seconds_since(start);
  }

  Options o_;
  std::vector<std::string> names_;
  int synthetic_count_;
  std::size_t tune_budget_;
  std::vector<CorpusProgram> samples_;
  std::vector<const CorpusProgram*> sources_;
  std::vector<Prepared> prepared_;
  std::vector<double> seq_s_, par_s_, tune_s_;
  // Per program: sequential and transformed run times, one per round.
  std::vector<std::pair<std::vector<double>, std::vector<double>>> per_program_;
};

}  // namespace

std::unique_ptr<Workload> make_execute(const Options& options) {
  return std::make_unique<Execute>(
      options,
      std::vector<std::string>{"avistream", "raytracer", "matrix", "histogram"},
      options.short_mode ? 1 : 4, options.short_mode ? 3 : 6);
}

std::unique_ptr<Workload> make_execute_sweep(const Options& options) {
  return std::make_unique<Execute>(
      options, std::vector<std::string>{"avistream", "matrix"}, 0, 3);
}

}  // namespace perfbench
