// Traced runs: the per-layer decomposition. Each public call into a layer
// runs under its own span; the per-layer metrics are read back from the
// spans and counts when the run ends.

#include <optional>

#include "analysis/callgraph.hpp"
#include "analysis/effects.hpp"
#include "analysis/interpreter.hpp"
#include "analysis/mhp.hpp"
#include "analysis/profiler.hpp"
#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "runtime/master_worker.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/pipeline.hpp"
#include "service/protocol.hpp"
#include "transform/certify.hpp"
#include "transform/plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using patty::corpus::CorpusProgram;

void certify_layers(const patty::lang::Program& program,
                    const std::vector<patty::patterns::Candidate>& candidates,
                    const std::string& name, std::int64_t id) {
  Trace& trace = Trace::global();
  {
    Scope span("transform.certify_program", id);
    const patty::transform::ProgramCertificate cert =
        patty::transform::certify_program(program, candidates, nullptr, name);
    trace.count("transform.certify.pairs",
                static_cast<double>(cert.summary.total()));
    trace.count("transform.certify.residue",
                static_cast<double>(cert.summary.residue));
    trace.count("transform.certify.probes",
                static_cast<double>(cert.probes.size()));
    for (const patty::transform::ProbeOutcome& p : cert.probes) {
      trace.count("transform.certify.probes_raced", p.raced ? 1 : 0);
      trace.count("race.schedules_explored",
                  static_cast<double>(p.schedules_explored));
    }
  }
  // The static half of certification on its own: region shapes, the MHP
  // graph and the conflict enumeration, with the effect and freshness
  // analyses the enumeration reads.
  Scope span("transform.certify.mhp", id);
  const auto shapes =
      patty::transform::plan_region_shapes(program, candidates, nullptr);
  const patty::analysis::MhpGraph graph =
      patty::transform::build_region_graph(shapes);
  const patty::analysis::MhpFacts facts(graph);
  const patty::analysis::CallGraph cg =
      patty::analysis::build_call_graph(program);
  const patty::analysis::EffectAnalysis effects(program, cg);
  const patty::analysis::FreshnessAnalysis freshness(program, cg, effects);
  const patty::analysis::MhpSummary summary =
      patty::analysis::enumerate_conflicts(graph, facts, effects, freshness);
  (void)summary;
}

/// Mean microseconds per call of `fn` over `calls` calls.
template <typename Fn>
double per_call_us(int calls, Fn&& fn) {
  const auto start = Clock::now();
  for (int i = 0; i < calls; ++i) fn();
  return seconds_since(start) * 1e6 / calls;
}

}  // namespace

void layer_pass(const std::vector<const CorpusProgram*>& programs,
                const Options& options, Outcome& out) {
  Trace& trace = Trace::global();
  trace.count("passes.layers", 1);
  {
    patty::corpus::FrontendConfig config;
    config.parallel = true;
    config.threads = options.nproc;
    Scope span("corpus.evaluate_corpus");
    patty::corpus::evaluate_corpus(programs, config);
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const CorpusProgram& p = *programs[i];
    const auto id = static_cast<std::int64_t>(i);
    try {
      std::unique_ptr<patty::lang::Program> parsed;
      {
        Scope span("lang.parse_and_check", id);
        patty::DiagnosticSink diags;
        parsed = patty::lang::parse_and_check(p.source, diags);
      }
      if (!parsed) {
        out.wrong(p.name + ": parse failed in the layer pass");
        continue;
      }
      trace.count("lang.loc", static_cast<double>(p.loc()));
      {
        Scope span("analysis.model_static", id);
        patty::analysis::SemanticModelOptions static_only;
        static_only.run_dynamic = false;
        patty::analysis::SemanticModel::build(*parsed, static_only);
      }
      {
        Scope span("analysis.profile", id);
        patty::analysis::Profiler profiler(*parsed);
        patty::analysis::Interpreter interp(*parsed, &profiler);
        interp.run_main();
      }
      std::unique_ptr<patty::analysis::SemanticModel> model;
      {
        Scope span("analysis.model_build", id);
        model = patty::analysis::SemanticModel::build(*parsed);
      }
      {
        Scope span("analysis.interpret", id);
        patty::analysis::Interpreter interp(*parsed);
        interp.run_main();
      }
      patty::patterns::DetectionResult detection;
      {
        Scope span("patterns.detect_all", id);
        detection = patty::patterns::detect_all(*model);
      }
      trace.count("patterns.candidates",
                  static_cast<double>(detection.candidates.size()));
      trace.count("patterns.rejected",
                  static_cast<double>(detection.rejected.size()));
      certify_layers(*parsed, detection.candidates, p.name, id);
    } catch (const patty::analysis::RuntimeError& e) {
      out.wrong(p.name + ": layer pass failed: " + e.message);
    }
  }
}

void runtime_probes() {
  // Per-call costs of the region shapes the plan executor arms, measured
  // with the runtime's telemetry off (the daemon turns it on process-wide).
  const bool telemetry = patty::observe::enabled();
  patty::observe::set_enabled(false);
  constexpr int kCalls = 200;
  Trace& trace = Trace::global();
  {
    // raytracer's nested pipeline: three stages, three elements per run.
    Scope span("runtime.pipeline");
    trace.count("runtime.pipeline_run_us", per_call_us(kCalls, [&] {
      using P = patty::rt::Pipeline<std::int64_t>;
      std::vector<P::Stage> stages;
      for (const char* name : {"A", "B", "C"})
        stages.push_back({name, [](std::int64_t& x) { x = x * 3 + 1; }});
      P pipeline(std::move(stages));
      std::int64_t next = 0;
      pipeline.run(
          [&]() -> std::optional<std::int64_t> {
            if (next == 3) return std::nullopt;
            return next++;
          },
          [](std::int64_t&&) {});
    }));
  }
  {
    Scope span("runtime.parallel_for");
    std::vector<std::int64_t> cells(64);
    trace.count("runtime.parallel_for_us", per_call_us(kCalls, [&] {
      patty::rt::parallel_for(0, 64, [&](std::int64_t i) { cells[i] += i; });
    }));
  }
  {
    Scope span("runtime.master_worker");
    std::vector<std::int64_t> slots(3);
    const std::vector<std::function<void()>> tasks = {
        [&] { slots[0] += 1; }, [&] { slots[1] += 2; }, [&] { slots[2] += 3; }};
    trace.count("runtime.master_worker_us", per_call_us(kCalls, [&] {
      patty::rt::MasterWorker(0).run(tasks);
    }));
  }
  patty::observe::set_enabled(telemetry);
}

void codec_probe() {
  // One detect request carrying a hand-written program and a reply shaped
  // like the daemon's, each encoded and decoded.
  using patty::service::Request;
  using patty::service::Response;
  namespace json = patty::service::json;
  Request req;
  req.id = 1;
  req.kind = patty::service::RequestKind::Detect;
  req.source = handwritten("avistream").source;
  Response resp;
  resp.id = 1;
  resp.ok = true;
  resp.kind = "detect";
  resp.result.set("fingerprint", sequential_fingerprint(req.source));
  resp.result.set("rejected", 2);
  constexpr int kCalls = 500;
  Scope span("service.codec");
  Trace::global().count("service.codec_us", per_call_us(kCalls, [&] {
    const std::string req_text = req.to_json().dump();
    const std::string resp_text = resp.to_json().dump();
    Request::from_json(*json::Value::parse(req_text), nullptr);
    Response::from_json(*json::Value::parse(resp_text), nullptr);
  }));
}

void per_layer_metrics(const Options& options, double overhead_pct,
                       Outcome& out) {
  const Trace& t = Trace::global();
  const double passes = std::max(1.0, t.counted("passes.layers"));
  const double exec_passes = std::max(1.0, t.counted("passes.execute"));
  auto per_pass = [&](const char* span) {
    return t.total_seconds(span) / passes;
  };
  auto rtt_ms = [&](const char* span) {
    return median(t.durations(span)) * 1e3;
  };

  const double parse = per_pass("lang.parse_and_check");
  const double build = per_pass("analysis.model_build");
  const double detect = per_pass("patterns.detect_all");
  const double frontend = per_pass("corpus.evaluate_corpus");
  out.metric("lang.parse_check_s", parse, "s");
  out.metric("lang.kloc_per_s", t.counted("lang.loc") / passes / 1e3 / parse,
             "kloc/s");
  out.metric("analysis.model_static_s", per_pass("analysis.model_static"), "s");
  out.metric("analysis.profile_s", per_pass("analysis.profile"), "s");
  out.metric("analysis.model_build_s", build, "s");
  out.metric("analysis.interpret_s", per_pass("analysis.interpret"), "s");
  out.metric("patterns.detect_s", detect, "s");
  out.metric("patterns.candidates", t.counted("patterns.candidates") / passes,
             "count");
  out.metric("patterns.rejected", t.counted("patterns.rejected") / passes,
             "count");
  out.metric("corpus.sequential_sum_s", parse + build + detect, "s");
  out.metric("corpus.frontend_s", frontend, "s");
  out.metric("corpus.speedup", (parse + build + detect) / frontend, "ratio");
  out.metric("transform.certify_s", per_pass("transform.certify_program"), "s");
  out.metric("transform.certify.mhp_s", per_pass("transform.certify.mhp"), "s");
  for (const char* name :
       {"transform.certify.pairs", "transform.certify.residue",
        "transform.certify.probes", "transform.certify.probes_raced",
        "race.schedules_explored"})
    out.metric(name, t.counted(name) / passes, "count");

  out.metric("transform.plan_exec_s",
             t.total_seconds("transform.plan_exec") / exec_passes, "s");
  for (const char* name : {"transform.region_entries",
                           "transform.regions_parallel", "transform.elements"})
    out.metric(name, t.counted(name) / exec_passes, "count");
  out.metric("runtime.pipeline_run_us", t.counted("runtime.pipeline_run_us"),
             "us");
  out.metric("runtime.parallel_for_us", t.counted("runtime.parallel_for_us"),
             "us");
  out.metric("runtime.master_worker_us", t.counted("runtime.master_worker_us"),
             "us");
  out.metric("tuning.evaluations",
             t.counted("tuning.evaluations") / exec_passes, "count");
  out.metric("tuning.tune_s", t.total_seconds("tuning.tune") / exec_passes,
             "s");
  out.metric("tuning.default_run_s",
             t.counted("tuning.default_s") / exec_passes, "s");
  out.metric("tuning.tuned_over_default",
             t.counted("tuning.best_s") / t.counted("tuning.default_s"),
             "ratio");

  out.metric("service.rtt_miss_ms", rtt_ms("service.rtt.miss"), "ms");
  out.metric("service.rtt_hit_ms", rtt_ms("service.rtt.hit"), "ms");
  out.metric("service.rtt_edit_ms", rtt_ms("service.rtt.edit"), "ms");
  out.metric("service.rtt_certify_ms", rtt_ms("service.rtt.certify"), "ms");
  out.metric("service.queue_wait_ms", t.counted("service.queue_wait_ms"), "ms");
  const double lookups = t.counted("service.cache_lookups");
  out.metric("service.cache_hit_ratio",
             t.counted("service.cache_hits") / lookups, "ratio");
  out.metric("service.cache_lookups", lookups, "count");
  out.metric("service.codec_us", t.counted("service.codec_us"), "us");

  // Share of the workload's own driving spans that no layer call covers.
  const char* root =
      options.workload == "serve" ? "serve.client" : "bench.round";
  out.metric("trace.unaccounted_pct",
             100.0 * (1.0 - t.child_seconds(root) / t.total_seconds(root)),
             "%");
  out.metric("trace.overhead_pct", overhead_pct, "%");
  out.metric("trace.spans", static_cast<double>(t.span_count()), "count");
}

}  // namespace perfbench
