#include "host_probe.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

/// Size of the largest cache cpu0 sees (sysfs), in bytes.
double llc_bytes() {
  double best = 0.0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    double v = std::stod(s);
    const char suffix = s.back();
    if (suffix == 'K') v *= 1024.0;
    if (suffix == 'M') v *= 1024.0 * 1024.0;
    best = std::max(best, v);
  }
  return best > 0.0 ? best : 32.0 * 1024 * 1024;
}

template <typename F>
void on_threads(int threads, F&& f) {
  std::vector<std::thread> ts;
  for (int t = 1; t < threads; ++t) ts.emplace_back(f, t);
  f(0);
  for (auto& t : ts) t.join();
}

double triad_gbs(int threads, std::size_t n) {
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto range = [&](int t) {
    const std::size_t lo = n * std::size_t(t) / std::size_t(threads);
    const std::size_t hi = n * std::size_t(t + 1) / std::size_t(threads);
    return std::pair<std::size_t, std::size_t>(lo, hi);
  };
  // first touch by the thread that later streams the slice
  on_threads(threads, [&](int t) {
    const auto [lo, hi] = range(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    on_threads(threads, [&](int t) {
      const auto [lo, hi] = range(t);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    rates.push_back(24.0 * double(n) / (now_s() - t0) * 1e-9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return median(rates);
}

typedef double v8d __attribute__((vector_size(64)));

double fma_chain(long iters, double seed) {
  // 12 independent accumulators hide the FMA latency on every current core.
  v8d acc[12] = {};
  for (int k = 0; k < 12; ++k) {
    for (int l = 0; l < 8; ++l) acc[k][l] = seed + 0.001 * (k * 8 + l);
  }
  v8d m = {}, add = {};
  for (int l = 0; l < 8; ++l) {
    m[l] = 0.999999;
    add[l] = 1e-7;
  }
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < 12; ++k) acc[k] = acc[k] * m + add;
  }
  double s = 0.0;
  for (int k = 0; k < 12; ++k) {
    for (int l = 0; l < 8; ++l) s += acc[k][l];
  }
  return s;
}

double fma_gflops(int threads) {
  // ~0.1 s per repetition: long enough that clock ramp-up after the
  // threads start does not count.
  const long iters = 30'000'000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> sinks(std::size_t(threads), 0.0);
    const double t0 = now_s();
    on_threads(threads, [&](int t) {
      sinks[std::size_t(t)] = fma_chain(iters, 1.0 + t);
    });
    const double dt = now_s() - t0;
    volatile double sink = sinks[0];
    (void)sink;
    rates.push_back(2.0 * 8 * 12 * double(iters) * threads / dt * 1e-9);
  }
  return median(rates);
}

}  // namespace

HostSample probe_host(int threads) {
  HostSample h;
  h.llc_mib = llc_bytes() / (1024.0 * 1024.0);
  // Each array is four times the last-level cache (capped at 512 MiB).
  const double array_bytes =
      std::min(4.0 * llc_bytes(), 512.0 * 1024 * 1024);
  h.triad_array_mib = array_bytes / (1024.0 * 1024.0);
  h.triad_gbs = triad_gbs(threads, std::size_t(array_bytes / 8.0));
  h.fma_gflops = fma_gflops(threads);
  return h;
}

}  // namespace perfbench
