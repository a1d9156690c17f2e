// Workload `serve`: an in-process service::Server driven as a closed loop.
// Each client connection sends its next request only after the reply to the
// previous one arrived. Daemon workers plus client connections never exceed
// the host's hardware threads (minimum one of each).
//
// A round walks the seeded program pool once; for each program its client
// sends, in order:
//   1. detect on the program            first submission  -> cache miss
//   2. detect on the same source        exact resubmission -> cache hit
//   3. detect after a one-method edit   resubmission        -> miss today
//   4. certify on the original source   model already cached -> cache hit
// so each kind is a quarter of the traffic. Between rounds the benchmark
// empties the daemon's model cache, so every round starts cold and the
// cache never evicts.
//
// Checks: each detect fingerprint and certify verdict equals the result of
// calling the detector and certifier in-process on the same source; each
// reply's `cached` flag matches its kind; at the end, the daemon's answered
// count equals the requests the clients sent, its cache hits equal the
// exact resubmissions sent (kinds 2 and 4), and it evicted nothing.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "observe/metrics.hpp"
#include "patterns/detector.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "transform/certify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using patty::corpus::CorpusProgram;
using patty::service::Client;
using patty::service::Request;
using patty::service::RequestKind;
using patty::service::Response;

/// Insert an unused local at the top of main(): a one-method edit that
/// changes the source's content hash but no line number and no output.
std::string edit_one_method(const std::string& source) {
  const std::string anchor = "main() {";
  const std::size_t at = source.find(anchor);
  if (at == std::string::npos)
    throw std::runtime_error("program has no main() to edit");
  std::string edited = source;
  edited.insert(at + anchor.size(), " int bench_edit = 1;");
  return edited;
}

struct PoolEntry {
  std::string name;
  std::string base;
  std::string edited;
  std::string base_fingerprint;
  std::string edited_fingerprint;
  std::string verdict;
};

enum Kind { kMiss, kHit, kEdit, kCertify, kKinds };
const char* const kSpanNames[kKinds] = {"service.rtt.miss", "service.rtt.hit",
                                        "service.rtt.edit",
                                        "service.rtt.certify"};

struct Counts {
  std::uint64_t answered = 0;  // ok + error responses
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class Serve final : public Workload {
 public:
  Serve(const Options& o, int pool_size) : o_(o), pool_size_(pool_size) {
    workers_ = std::max(1, o.nproc / 2);
    clients_ = std::max(1, o.nproc - workers_);
  }

  ~Serve() override {
    clients_conns_.clear();
    if (server_) server_->stop();
  }

  void setup(Outcome& out) override {
    for (CorpusProgram& p :
         synthetic(pool_size_, o_.seed, /*well_behaved=*/false, "pool")) {
      PoolEntry e;
      e.name = p.name;
      e.base = std::move(p.source);
      e.edited = edit_one_method(e.base);
      reference(e);
      CorpusProgram layer_source;
      layer_source.name = e.name;
      layer_source.source = e.base;
      layer_sources_.push_back(std::move(layer_source));
      pool_.push_back(std::move(e));
    }

    static std::atomic<int> instance{0};
    patty::service::ServerOptions options;
    options.socket_path = ".bench_out/serve-" + std::to_string(::getpid()) +
                          "-" + std::to_string(instance++) + ".sock";
    options.workers = workers_;
    // One round caches two models per pool program; the cache is emptied
    // between rounds, so this bound is never reached.
    options.cache_bytes = std::size_t{1} << 30;
    server_ = std::make_unique<patty::service::Server>(options);
    server_->start();
    for (int c = 0; c < clients_; ++c) {
      Client client;
      std::string error;
      if (!client.connect(options.socket_path, &error))
        throw std::runtime_error("connect: " + error);
      clients_conns_.push_back(std::move(client));
    }

    Outcome warmup;
    round(warmup);
    for (const std::string& p : warmup.problems) out.wrong("warm-up: " + p);
    ops = 0;
    op_ms.clear();
    sent_ = 0;
    patty::observe::Registry::global()
        .histogram("service.queue_wait_ms")
        .reset();
    baseline_ = counts(out);
  }

  double round(Outcome& out) override {
    std::vector<std::vector<double>> rtts(static_cast<std::size_t>(clients_));
    std::vector<Outcome> results(static_cast<std::size_t>(clients_));
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    const std::uint32_t parent = Trace::current();
    for (int c = 0; c < clients_; ++c)
      threads.emplace_back([this, c, parent, &rtts, &results] {
        Trace::set_current(parent);
        Scope span("serve.client");
        for (std::size_t p = static_cast<std::size_t>(c); p < pool_.size();
             p += static_cast<std::size_t>(clients_))
          program_requests(static_cast<std::size_t>(c), p, rtts[c],
                           results[c]);
      });
    for (std::thread& t : threads) t.join();
    const double wall = seconds_since(start);
    server_->cache().clear();

    for (int c = 0; c < clients_; ++c) {
      const Outcome& r = results[static_cast<std::size_t>(c)];
      out.attempted += r.attempted;
      out.failed += r.failed;
      for (const std::string& p : r.problems) out.wrong(p);
      ops += r.attempted;
      sent_ += r.attempted;
      op_ms.insert(op_ms.end(), rtts[c].begin(), rtts[c].end());
    }
    Trace::global().count("passes.serve", 1);
    return wall;
  }

  void finish(Outcome& out) override {
    const Counts now = counts(out);
    const std::uint64_t rounds_done = sent_ / (kKinds * pool_.size());
    // The baseline stats reply is itself counted as answered, after its own
    // snapshot was taken.
    const std::uint64_t answered = now.answered - baseline_.answered - 1;
    out.check(answered == sent_, "daemon answered " + std::to_string(answered) +
                                     " of " + std::to_string(sent_) +
                                     " requests sent");
    const std::uint64_t hits = now.hits - baseline_.hits;
    const std::uint64_t misses = now.misses - baseline_.misses;
    out.check(hits == 2 * pool_.size() * rounds_done,
              "daemon cache hits " + std::to_string(hits) +
                  " differ from the exact resubmissions sent");
    out.check(misses == 2 * pool_.size() * rounds_done,
              "daemon cache misses " + std::to_string(misses) +
                  " differ from the new sources sent");
    out.check(now.evictions == baseline_.evictions, "daemon cache evicted");
    Trace& trace = Trace::global();
    trace.count("service.cache_hits", static_cast<double>(hits));
    trace.count("service.cache_lookups", static_cast<double>(hits + misses));
    queue_wait_ms_ = patty::observe::Registry::global()
                         .histogram("service.queue_wait_ms")
                         .snapshot()
                         .mean;
    trace.count("service.queue_wait_ms", queue_wait_ms_);
    clients_conns_.clear();
    server_->stop();
  }

  [[nodiscard]] std::vector<const CorpusProgram*> layer_programs()
      const override {
    std::vector<const CorpusProgram*> out;
    for (const CorpusProgram& p : layer_sources_) out.push_back(&p);
    return out;
  }

  void report(double measured_s) const override {
    std::printf("serve: %zu programs, %d daemon workers, %d clients\n",
                pool_.size(), workers_, clients_);
    std::printf("serve_rps %.3f 1/s\nserve_p50_ms %.4f ms\nserve_p99_ms "
                "%.4f ms\nservice.queue_wait_ms %.4f ms\n",
                static_cast<double>(ops) / measured_s, quantile(op_ms, 0.50),
                quantile(op_ms, 0.99), queue_wait_ms_);
  }

 private:
  /// In-process results on the same sources, computed apart from the daemon.
  static void reference(PoolEntry& e) {
    e.edited_fingerprint = sequential_fingerprint(e.edited);
    patty::DiagnosticSink diags;
    const auto program = patty::lang::parse_and_check(e.base, diags);
    if (!program) throw std::runtime_error(e.name + ": " + diags.to_string());
    const auto model = patty::analysis::SemanticModel::build(*program);
    const auto detection = patty::patterns::detect_all(*model);
    e.base_fingerprint = patty::patterns::detection_fingerprint(detection);
    e.verdict = patty::transform::verdict_name(
        patty::transform::certify_program(*program, detection.candidates,
                                          nullptr, e.name)
            .verdict);
  }

  void program_requests(std::size_t client, std::size_t p,
                        std::vector<double>& rtts, Outcome& out) {
    const PoolEntry& e = pool_[p];
    for (int kind = 0; kind < kKinds; ++kind) {
      Request req;
      req.id = static_cast<std::int64_t>(++request_ids_);
      req.kind = kind == kCertify ? RequestKind::Certify : RequestKind::Detect;
      req.source = kind == kEdit ? e.edited : e.base;
      ++out.attempted;
      std::string error;
      const auto t0 = Clock::now();
      std::optional<Response> resp;
      {
        Scope span(kSpanNames[kind], req.id);
        resp = clients_conns_[client].call(req, &error);
      }
      rtts.push_back(seconds_since(t0) * 1e3);
      if (!resp || !resp->ok) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: request failed: %s\n",
                     resp ? resp->error_message.c_str() : error.c_str());
        continue;
      }
      const bool want_cached = kind == kHit || kind == kCertify;
      out.check(resp->cached == want_cached,
                e.name + ": reply's cached flag does not match its kind");
      if (kind == kCertify) {
        std::string verdict = resp->result.at("verdict").as_string();
        if (o_.inject == Inject::Verdict && p == 0)
          verdict = verdict == "residue-raced" ? "certified-static"
                                               : "residue-raced";
        out.check(verdict == e.verdict,
                  e.name + ": daemon verdict " + verdict +
                      " differs from in-process " + e.verdict);
      } else {
        std::string fp = resp->result.at("fingerprint").as_string();
        if (o_.inject == Inject::Fingerprint && p == 0) flip_one_char(fp);
        out.check(fp == (kind == kEdit ? e.edited_fingerprint
                                       : e.base_fingerprint),
                  e.name + ": daemon fingerprint differs from in-process");
      }
    }
  }

  Counts counts(Outcome& out) {
    Request req;
    req.id = static_cast<std::int64_t>(++request_ids_);
    req.kind = RequestKind::Stats;
    std::string error;
    const std::optional<Response> resp = clients_conns_[0].call(req, &error);
    if (!resp || !resp->ok) {
      out.wrong("stats request failed: " + error);
      return {};
    }
    const auto& r = resp->result;
    Counts c;
    c.answered = static_cast<std::uint64_t>(
        r.at("requests").at("ok").as_int() +
        r.at("requests").at("error").as_int());
    c.hits = static_cast<std::uint64_t>(r.at("cache").at("hits").as_int());
    c.misses = static_cast<std::uint64_t>(r.at("cache").at("misses").as_int());
    c.evictions =
        static_cast<std::uint64_t>(r.at("cache").at("evictions").as_int());
    return c;
  }

  Options o_;
  int pool_size_;
  int workers_ = 1;
  int clients_ = 1;
  std::vector<PoolEntry> pool_;
  std::vector<CorpusProgram> layer_sources_;  // the pool, for layer passes
  std::unique_ptr<patty::service::Server> server_;
  std::vector<Client> clients_conns_;
  std::atomic<std::uint64_t> request_ids_{0};
  std::uint64_t sent_ = 0;
  Counts baseline_;
  double queue_wait_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& options) {
  return std::make_unique<Serve>(options, options.short_mode ? 4 : 256);
}

std::unique_ptr<Workload> make_serve_sweep(const Options& options) {
  return std::make_unique<Serve>(options, 4);
}

}  // namespace perfbench
