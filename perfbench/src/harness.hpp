// Shared pieces of the benchmark program: the metric catalogue, the
// percentile rule, the benchmark-side span recorder, seeded randomness and
// the per-run context every workload receives.
#pragma once
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// --- clock -------------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ms_since(double t0) { return (now_s() - t0) * 1e3; }

// --- metric catalogue --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every untraced run prints (BENCHMARK.json's
/// "end_to_end" list, in the same order).
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics every traced run prints (BENCHMARK.json's
/// "per_layer" list).
const std::vector<MetricDef>& per_layer_metrics();
/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// A measured value plus the number of samples it summarizes (0 when it
/// is a single measurement or an exact count).
struct Value {
  double value = 0.0;
  long long n = 0;
};

// --- statistics ----------------------------------------------------------------

/// Nearest-rank percentile p in (0, 1) of `v`, reported only when at least
/// ten samples lie beyond it (n - ceil(p n) >= 10). A percentile with fewer
/// samples past it would be set by one or two outliers.
std::optional<double> percentile(std::vector<double> v, double p);
/// Smallest sample count for which percentile(., p) is defined.
long long min_samples_for(double p);
double median(std::vector<double> v);
/// percentile() that throws when the sample is too small (the workloads
/// size their measured phases so that this never fires).
Value require_percentile(const std::vector<double>& v, double p,
                         const std::string& what);

// --- seeded randomness -----------------------------------------------------------

/// splitmix64: tiny, fully specified, identical on every toolchain (the
/// standard library's distributions are not), so a seed means the same
/// inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t s_;
};

// --- spans -------------------------------------------------------------------------

/// Benchmark-side span recorder. Spans are opened around calls into the
/// library's layers and kept in memory until the run ends, then written as
/// one chrome://tracing JSON. A disabled recorder costs one branch per
/// span. Parents are tracked per thread; spans reconstructed from
/// timestamps (the serve events) name their parent explicitly.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< steady-clock seconds
    double end = 0.0;
    int parent = -1;
    long long job = -1;  ///< serve job id (spans of one job share it)
    int tid = 0;
  };
  /// Aggregate of all spans sharing a name.
  struct Layer {
    long long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time child spans cover
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  /// Opens a span on the calling thread; returns its id (-1 when off).
  int open(const std::string& name, long long job = -1);
  void close(int id);
  /// Records a finished span with explicit times and parent.
  int record(const std::string& name, double start, double end, int parent,
             long long job = -1);

  std::vector<Span> spans() const;
  std::map<std::string, Layer> layers() const;
  void write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, long long job = -1)
      : t_(t), id_(t.enabled() ? t.open(name, job) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the span). Exposed for the self-test.
std::vector<double> self_times(const std::vector<Tracer::Span>& spans);

// --- run context ---------------------------------------------------------------------

/// What one workload invocation receives and fills in.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Run-private scratch directory (kernel cache, socket, JIT scratch).
  std::string dir;
  /// Number of repeated set-ups whose median is setup_s.
  int setups = 1;
  /// Traced pass: record spans and measure the workload's layers.
  bool traced = false;
  /// Traced pass of the run's own workload: measure the phase untraced
  /// first, so the tracing overhead can be reported.
  bool measure_overhead = false;
  Tracer* tracer = nullptr;

  // outputs
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layers;
  /// End-to-end metrics of the untraced twin phase (measure_overhead).
  std::map<std::string, Value> e2e_untraced;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;

  /// Records one correctness check.
  void check(bool ok, const std::string& what);
};

/// Peak resident set size of this process since the last reset, in MiB
/// (VmHWM). reset_peak_rss() restarts the high-water mark so that the host
/// probe's large arrays do not count against the workload.
double peak_rss_mib();
void reset_peak_rss();

/// Creates `path` (and parents), removing whatever was there.
void fresh_dir(const std::string& path);

/// Tail percentile robust to a burst of interference from other tenants:
/// with at least three windows' worth of samples (min_samples_for(p) each),
/// the median over consecutive windows of each window's percentile;
/// otherwise require_percentile over all samples. `v` is in time order.
Value windowed_percentile(const std::vector<double>& v, double p,
                          const std::string& what);

/// Fills the end-to-end latency metrics shared by all workloads from per-
/// operation latencies (ms, in time order): <prefix>_p50 over all samples
/// and <prefix>_p90 by windowed_percentile.
void put_latency(std::map<std::string, Value>& out, const std::string& prefix,
                 const std::vector<double>& ms);

}  // namespace perfbench
