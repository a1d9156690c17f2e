// Workload `analyze`: batch analysis of a seeded synthetic corpus plus the
// five hand-written programs, through the parallel front-end
// (corpus::evaluate_corpus) and then transform::certify_program for every
// program. Nothing is repeated within a round, so neither the daemon's model
// cache nor the transformed runtime takes part.
//
// Checks, each against a result computed apart from the code under test:
//  * detection scored against the generator's ground-truth labels, with
//    precision and recall floors;
//  * every program's detection fingerprint from the parallel front-end
//    equals the one from the sequential per-program calls;
//  * certification verdicts match each program's known answer: programs of
//    the well-behaved part are never residue-raced, programs carrying the
//    indirect-scatter family always are, and the hand-written programs have
//    fixed verdicts.

#include <cstdio>
#include <map>
#include <stdexcept>

#include "lang/ast.hpp"
#include "transform/certify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using patty::corpus::CorpusProgram;
using patty::transform::Verdict;

// Floors on detection quality over the whole corpus (generator labels plus
// the hand-written programs' labels). Observed values sit well above them
// on every seed tried; see README.md.
constexpr double kPrecisionFloor = 0.70;
constexpr double kRecallFloor = 0.85;

enum class Expect { Raced, NotRaced, Exactly };

struct Known {
  Expect expect = Expect::NotRaced;
  Verdict verdict = Verdict::CertifiedStatic;  // for Expect::Exactly
};

// Verdicts of the hand-written programs. desktop_search's foreach loop has
// a real race on the shared index list; matrix carries a residue pair the
// certifier cannot discharge (worst-case aliasing behind Mat.Get).
const std::map<std::string, Verdict>& handwritten_verdicts() {
  static const std::map<std::string, Verdict> verdicts = {
      {"avistream", Verdict::CertifiedStatic},
      {"raytracer", Verdict::CertifiedStatic},
      {"desktop_search", Verdict::ResidueRaced},
      {"matrix", Verdict::ResidueRaced},
      {"histogram", Verdict::CertifiedStatic},
  };
  return verdicts;
}

Verdict inverted(Verdict v) {
  return v == Verdict::ResidueRaced ? Verdict::CertifiedStatic
                                    : Verdict::ResidueRaced;
}

class Analyze final : public Workload {
 public:
  explicit Analyze(const Options& o) : o_(o) {}

  void setup(Outcome& out) override {
    // Two default-mix programs for every well-behaved one: certification
    // latencies of the two parts form two clusters, and the median op
    // latency must not sit in the gap between them.
    const int wb_count = o_.short_mode ? 4 : 70;
    std::vector<CorpusProgram> mix =
        synthetic(2 * wb_count, o_.seed, /*well_behaved=*/false, "mix");
    std::vector<CorpusProgram> wb = synthetic(
        wb_count, o_.seed ^ 0x5eed5eedULL, /*well_behaved=*/true, "wb");
    owned_.reserve(mix.size() + wb.size());
    for (CorpusProgram& p : mix) {
      owned_.push_back(std::move(p));
      known_.push_back({Expect::Raced});
    }
    for (CorpusProgram& p : wb) {
      owned_.push_back(std::move(p));
      known_.push_back({Expect::NotRaced});
    }
    for (const CorpusProgram* p : owned_ptrs()) programs_.push_back(p);
    for (const CorpusProgram* p : patty::corpus::handwritten()) {
      programs_.push_back(p);
      known_.push_back({Expect::Exactly, handwritten_verdicts().at(p->name)});
    }
    Outcome warmup;
    round(warmup);
    for (const std::string& p : warmup.problems) out.wrong("warm-up: " + p);
    ops = 0;
    op_ms.clear();
    frontend_s_.clear();
    certify_s_.clear();
    first_fingerprints_.clear();
  }

  double round(Outcome& out) override {
    const std::size_t n = programs_.size();
    std::vector<patty::corpus::ProgramArtifacts> artifacts(n);
    patty::corpus::FrontendConfig config;
    config.parallel = true;
    config.threads = o_.nproc;
    config.adopt = [&artifacts](patty::corpus::ProgramArtifacts&& a) {
      const std::size_t i = a.index;
      artifacts[i] = std::move(a);
    };

    const auto t0 = Clock::now();
    patty::corpus::CorpusReport report;
    {
      Scope span("analyze.frontend");
      report = patty::corpus::evaluate_corpus(programs_, config);
    }
    const double frontend = seconds_since(t0);

    std::vector<Verdict> verdicts(n, Verdict::CertifiedStatic);
    std::vector<bool> ok(n, false);
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (!artifacts[i].parsed) continue;
      const auto c0 = Clock::now();
      Scope span("analyze.certify", static_cast<std::int64_t>(i));
      const patty::transform::ProgramCertificate cert =
          patty::transform::certify_program(*artifacts[i].parsed,
                                            artifacts[i].detection->candidates,
                                            nullptr, programs_[i]->name);
      op_ms.push_back(seconds_since(c0) * 1e3);
      ok[i] = cert.error.empty();
      verdicts[i] = cert.verdict;
    }
    const double certify = seconds_since(t1);
    frontend_s_.push_back(frontend);
    certify_s_.push_back(certify);

    out.attempted += n;
    ops += n;
    const bool first = first_fingerprints_.empty();
    if (first) first_fingerprints_.assign(n, std::string());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = programs_[i]->name;
      if (!report.programs[i].error.empty() || !ok[i]) {
        ++out.failed;
        continue;
      }
      std::string fp = report.programs[i].fingerprint;
      if (o_.inject == Inject::Fingerprint && i == 0) flip_one_char(fp);
      if (first)
        first_fingerprints_[i] = fp;
      else
        out.check(fp == first_fingerprints_[i],
                  name + ": detection fingerprint changed between rounds");
      Verdict v = verdicts[i];
      if (o_.inject == Inject::Verdict && i == 0) v = inverted(v);
      const Known& k = known_[i];
      const bool raced = v == Verdict::ResidueRaced;
      const bool right = k.expect == Expect::Raced      ? raced
                         : k.expect == Expect::NotRaced ? !raced
                                                        : v == k.verdict;
      out.check(right, name + ": unexpected certificate verdict " +
                           patty::transform::verdict_name(v));
    }
    const patty::corpus::DetectionScore& s = report.total;
    out.check(s.precision() >= kPrecisionFloor,
              "detection precision " + std::to_string(s.precision()) +
                  " below floor");
    out.check(s.recall() >= kRecallFloor,
              "detection recall " + std::to_string(s.recall()) +
                  " below floor");
    precision_ = s.precision();
    recall_ = s.recall();
    return frontend + certify;
  }

  void finish(Outcome& out) override {
    // Reference: the sequential per-program calls, once per run.
    for (std::size_t i = 0; i < first_fingerprints_.size(); ++i) {
      if (first_fingerprints_[i].empty()) continue;  // counted as failed
      std::string reference;
      try {
        reference = sequential_fingerprint(programs_[i]->source);
      } catch (const std::exception& e) {
        out.wrong(programs_[i]->name + ": sequential front-end failed: " +
                  e.what());
        continue;
      }
      out.check(first_fingerprints_[i] == reference,
                programs_[i]->name +
                    ": parallel front-end fingerprint differs from the "
                    "sequential per-program calls");
    }
  }

  [[nodiscard]] std::vector<const CorpusProgram*> layer_programs()
      const override {
    return programs_;
  }

  void report(double) const override {
    std::printf("analyze: %zu programs, %d front-end workers\n",
                programs_.size(), o_.nproc);
    std::printf("frontend_s %.6f s\ncertify_s %.6f s\n", median(frontend_s_),
                median(certify_s_));
    std::printf("detection precision %.4f recall %.4f\n", precision_, recall_);
  }

 private:
  std::vector<const CorpusProgram*> owned_ptrs() const {
    std::vector<const CorpusProgram*> out;
    for (const CorpusProgram& p : owned_) out.push_back(&p);
    return out;
  }

  Options o_;
  std::vector<CorpusProgram> owned_;
  std::vector<const CorpusProgram*> programs_;
  std::vector<Known> known_;
  std::vector<std::string> first_fingerprints_;
  std::vector<double> frontend_s_;
  std::vector<double> certify_s_;
  double precision_ = 0;
  double recall_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_analyze(const Options& options) {
  return std::make_unique<Analyze>(options);
}

}  // namespace perfbench
