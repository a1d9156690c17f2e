#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "service/json.hpp"

namespace perfbench {

namespace {

const Clock::time_point process_start = Clock::now();

std::int64_t ns_since_start(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                              process_start)
      .count();
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = ++next;
  return mine;
}

thread_local std::uint32_t current_span = 0;

}  // namespace

double seconds_since_process_start() { return seconds_since(process_start); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> per_operation_best(const std::vector<double>& op_ms,
                                       std::size_t rounds) {
  if (rounds == 0 || op_ms.empty() || op_ms.size() % rounds != 0) return {};
  const std::size_t per_round = op_ms.size() / rounds;
  std::vector<double> best(op_ms.begin(), op_ms.begin() + per_round);
  for (std::size_t i = per_round; i < op_ms.size(); ++i)
    best[i % per_round] = std::min(best[i % per_round], op_ms[i]);
  return best;
}

const patty::corpus::CorpusProgram& handwritten(const std::string& name) {
  for (const patty::corpus::CorpusProgram* p : patty::corpus::handwritten())
    if (p->name == name) return *p;
  throw std::runtime_error("no hand-written program named " + name);
}

std::vector<patty::corpus::CorpusProgram> synthetic(int count,
                                                    std::uint64_t seed,
                                                    bool well_behaved,
                                                    const std::string& prefix) {
  patty::corpus::SyntheticConfig config;
  config.programs = count;
  config.seed = seed;
  config.indirect_kernels = !well_behaved;
  std::vector<patty::corpus::CorpusProgram> programs =
      patty::corpus::synthetic_suite(config);
  for (std::size_t i = 0; i < programs.size(); ++i)
    programs[i].name = prefix + std::to_string(i);
  return programs;
}

std::string sequential_fingerprint(const std::string& source) {
  patty::DiagnosticSink diags;
  const auto program = patty::lang::parse_and_check(source, diags);
  if (!program) throw std::runtime_error(diags.to_string());
  const auto model = patty::analysis::SemanticModel::build(*program);
  return patty::patterns::detection_fingerprint(
      patty::patterns::detect_all(*model));
}

void flip_one_char(std::string& s) {
  if (s.empty()) {
    s.push_back('x');
    return;
  }
  char& c = s[s.size() / 2];
  c = c == 'x' ? 'y' : 'x';
}

// ---------------------------------------------------------------------------

Trace& Trace::global() {
  static Trace trace;
  return trace;
}

std::uint32_t Trace::current() { return current_span; }
void Trace::set_current(std::uint32_t span) { current_span = span; }

void Trace::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Trace::count(const std::string& name, double amount) {
  if (!on()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += amount;
}

double Trace::total_seconds(const std::string& name) const {
  double total = 0;
  for (double d : durations(name)) total += d;
  return total;
}

std::size_t Trace::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double Trace::counted(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

double Trace::child_seconds(const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> parents;
  for (const Span& s : spans_)
    if (s.name == parent) parents.push_back(s.id);
  std::sort(parents.begin(), parents.end());
  double total = 0;
  for (const Span& s : spans_)
    if (std::binary_search(parents.begin(), parents.end(), s.parent))
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (const Span& s : spans_) {
    if (!first) out << ",";
    first = false;
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "\n{\"name\":" << patty::service::json::quote(s.name)
        << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << buf << ",\"args\":{\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"subject\":" << s.subject << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Scope::Scope(const char* name, std::int64_t subject)
    : name_(name), subject_(subject), start_(Clock::now()) {
  Trace& trace = Trace::global();
  if (!trace.on()) return;
  traced_ = true;
  id_ = trace.next_id();
  parent_ = current_span;
  current_span = id_;
}

Scope::~Scope() {
  if (!traced_) return;
  const Clock::time_point end = Clock::now();
  current_span = parent_;
  Trace::Span span;
  span.name = name_;
  span.start_ns = ns_since_start(start_);
  span.end_ns = ns_since_start(end);
  span.id = id_;
  span.parent = parent_;
  span.thread = thread_number();
  span.subject = subject_;
  Trace::global().record(std::move(span));
}

}  // namespace perfbench
