#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},          {"wall_mlups", "MLUP/s"},
      {"step_ms_p50", "ms"},     {"step_ms_p90", "ms"},
      {"job_ms_p50", "ms"},      {"job_ms_p90", "ms"},
      {"jobs_per_s", "1/s"},     {"success_ratio", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"sym.derive_s", "s"},
      {"ir.lower_s", "s"},
      {"ir.ops_per_cell", "flop"},
      {"backend.source_kb", "KiB"},
      {"backend.compile_cold_s", "s"},
      {"kernel_cache.load_s", "s"},
      {"field.init_s", "s"},
      {"kernel.phi_ms", "ms"},
      {"kernel.mu_ms", "ms"},
      {"kernel.gflops", "GFLOP/s"},
      {"kernel.flops_per_byte", "flop/B"},
      {"kernel.roofline_frac", "ratio"},
      {"boundary.fill_ms", "ms"},
      {"threads.speedup_2v1", "ratio"},
      {"exchange.ms", "ms"},
      {"exchange.bytes_per_step", "B"},
      {"exchange.rounds_per_step", "count"},
      {"mpi.wait_ms", "ms"},
      {"multiblock.overhead", "ratio"},
      {"serve.admit_ms", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p90", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.result_kb", "KiB"},
      {"serve.cold_job_ms", "ms"},
      {"kernel_cache.hit_ratio", "ratio"},
      {"json.parse_us", "us"},
      {"checksum.ms", "ms"},
      {"host.triad_gbs", "GB/s"},
      {"host.fma_gflops", "GFLOP/s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return m;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> w = {"solve_p1_3d", "multiblock_2d",
                                             "serve_mix"};
  return w;
}

// --- statistics ----------------------------------------------------------------

namespace {
long long rank_of(long long n, double p) {
  return static_cast<long long>(std::ceil(p * double(n) - 1e-9));
}
}  // namespace

std::optional<double> percentile(std::vector<double> v, double p) {
  const long long n = static_cast<long long>(v.size());
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  const long long k = std::max<long long>(1, rank_of(n, p));
  if (n - k < 10) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (k - 1), v.end());
  return v[std::size_t(k - 1)];
}

long long min_samples_for(double p) {
  for (long long n = 1;; ++n) {
    if (n - std::max<long long>(1, rank_of(n, p)) >= 10) return n;
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Value require_percentile(const std::vector<double>& v, double p,
                         const std::string& what) {
  const auto q = percentile(v, p);
  if (!q) {
    throw std::runtime_error(what + ": " + std::to_string(v.size()) +
                             " samples leave fewer than ten beyond p" +
                             std::to_string(int(std::lround(p * 100))));
  }
  return Value{*q, static_cast<long long>(v.size())};
}

Value windowed_percentile(const std::vector<double>& v, double p,
                          const std::string& what) {
  const std::size_t n = v.size();
  const std::size_t k = n / std::size_t(min_samples_for(p));
  if (k < 3) return require_percentile(v, p, what);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < k; ++i) {
    per_window.push_back(*percentile(
        std::vector<double>(v.begin() + std::ptrdiff_t(i * n / k),
                            v.begin() + std::ptrdiff_t((i + 1) * n / k)),
        p));
  }
  return Value{median(per_window), static_cast<long long>(n)};
}

void put_latency(std::map<std::string, Value>& out, const std::string& prefix,
                 const std::vector<double>& ms) {
  out[prefix + "_p50"] = require_percentile(ms, 0.5, prefix + "_p50");
  out[prefix + "_p90"] = windowed_percentile(ms, 0.9, prefix + "_p90");
}

// --- randomness ------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * double(next() >> 11) * 0x1.0p-53;
}

// --- spans ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open;

int thread_index() {
  static std::mutex m;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lk(m);
  const auto it = ids.find(std::this_thread::get_id());
  if (it != ids.end()) return it->second;
  const int id = int(ids.size());
  ids.emplace(std::this_thread::get_id(), id);
  return id;
}
}  // namespace

int Tracer::open(const std::string& name, long long job) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.job = job;
  s.tid = thread_index();
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.push_back(std::move(s));
  const int id = int(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[std::size_t(id)].end = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

int Tracer::record(const std::string& name, double start, double end,
                   int parent, long long job) {
  if (!enabled_) return -1;
  Span s{name, start, end, parent, job, thread_index()};
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.push_back(std::move(s));
  return int(spans_.size()) - 1;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && std::size_t(s.parent) < spans.size()) {
      kids[std::size_t(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::vector<Span> s = spans();
  const std::vector<double> self = self_times(s);
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    Layer& l = out[s[i].name];
    ++l.count;
    l.total_s += s[i].end - s[i].start;
    l.self_s += self[i];
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> s = spans();
  double t0 = s.empty() ? 0.0 : s.front().start;
  for (const auto& x : s) t0 = std::min(t0, x.start);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  s[i].tid, (s[i].start - t0) * 1e6,
                  (s[i].end - s[i].start) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s[i].name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s[i].parent
        << ",\"job\":" << s[i].job << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// --- context / process helpers -------------------------------------------------------

void Context::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // "5" resets the process's peak-RSS high-water mark (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
