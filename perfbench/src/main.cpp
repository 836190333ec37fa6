// pfc_perfbench: the repository's end-to-end and per-layer benchmark.
//
//   pfc_perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir D
//   pfc_perfbench --self-test
//   pfc_perfbench --print-mix --seed N
//
// An untraced run (--trace 0) measures one workload and prints its
// end-to-end metrics; a traced run (--trace 1) records spans around every
// layer call, measures the run's workload untraced and then traced (the
// difference is the tracing overhead), and also runs the traced pass of
// the other two workloads, so one traced run prints every per-layer
// metric. The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py builds this binary and validates that line; see README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "host_probe.hpp"
#include "pfc/backend/jit.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Set-ups per untraced run (setup_s is their median). The P1 3-D set-up
/// is dominated by a cold compile of 10-14 s, the serve set-up by the P1
/// 2-D compile of 6-8 s; the multi-block set-up loads from a primed cache.
int setups_for(const std::string& w) {
  if (w == "solve_p1_3d") return 2;
  if (w == "serve_mix") return 2;
  return 15;
}

void run_workload(const std::string& w, Context& ctx) {
  if (w == "solve_p1_3d") return run_solve_p1_3d(ctx);
  if (w == "multiblock_2d") return run_multiblock_2d(ctx);
  if (w == "serve_mix") return run_serve_mix(ctx);
  throw std::invalid_argument("unknown workload " + w);
}

/// Knobs held fixed: no PFC_* variable of the caller's environment reaches
/// the library; JIT and compiler scratch files stay in the run directory.
void fix_environment(const std::string& dir) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PFC_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? std::size_t(eq - *e)
                                           : std::strlen(*e));
    }
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
  const auto abs = std::filesystem::absolute(dir);
  std::filesystem::create_directories(abs / "jit");
  std::filesystem::create_directories(abs / "tmp");
  ::setenv("PFC_JIT_TMPDIR", (abs / "jit").c_str(), 1);
  ::setenv("TMPDIR", (abs / "tmp").c_str(), 1);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, Value>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      throw std::runtime_error(std::string("metric not measured: ") + d.name);
    }
    out += first ? "" : ", ";
    first = false;
    out.append("\"").append(d.name).append("\": {\"value\": ");
    out.append(fmt(it->second.value)).append(", \"unit\": \"");
    out.append(d.unit).append("\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const char* title, const std::vector<MetricDef>& defs,
                 const std::map<std::string, Value>& values) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    if (it->second.n > 0) {
      std::printf("  %-26s %14.6g %-8s (n=%lld)\n", d.name, it->second.value,
                  d.unit, it->second.n);
    } else {
      std::printf("  %-26s %14.6g %s\n", d.name, it->second.value, d.unit);
    }
  }
}

void write_host(const std::string& path, const HostSample& a,
                const HostSample& b) {
  std::ofstream out(path);
  out << "{\"before\": {\"triad_gbs\": " << fmt(a.triad_gbs)
      << ", \"fma_gflops\": " << fmt(a.fma_gflops)
      << "}, \"after\": {\"triad_gbs\": " << fmt(b.triad_gbs)
      << ", \"fma_gflops\": " << fmt(b.fma_gflops)
      << "}, \"threads\": " << kComputeThreads
      << ", \"triad_array_mib\": " << fmt(a.triad_array_mib)
      << ", \"llc_mib\": " << fmt(a.llc_mib) << "}\n";
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool traced, const std::string& dir) {
  fresh_dir(dir);
  fix_environment(dir);
  Tracer tracer;
  tracer.set_enabled(traced);

  const HostSample before = probe_host(kComputeThreads);
  // Probed once up front (the library caches it), so no set-up pays for it.
  std::printf("SIMD width %d doubles (auto-probed)\n",
              pfc::backend::probe_native_vector_width());
  reset_peak_rss();

  std::vector<Context> done;
  std::vector<std::string> order{workload};
  if (traced) {
    for (const auto& w : workload_names()) {
      if (w != workload) order.push_back(w);
    }
  }
  for (const std::string& w : order) {
    Context ctx;
    ctx.seed = seed;
    // A traced run covers three workloads; each measured phase gets half
    // the budget (the sample-count floors still apply).
    ctx.seconds = traced ? seconds / 2.0 : seconds;
    ctx.dir = dir + "/" + w;
    ctx.setups = setups_for(w);
    ctx.traced = traced;
    ctx.measure_overhead = traced && w == workload;
    ctx.tracer = &tracer;
    std::printf("== %s (seed %llu, %s)\n", w.c_str(),
                (unsigned long long)seed, traced ? "traced" : "untraced");
    std::fflush(stdout);
    fresh_dir(ctx.dir);
    run_workload(w, ctx);
    done.push_back(std::move(ctx));
  }
  const double rss = peak_rss_mib();
  const HostSample after = probe_host(kComputeThreads);
  write_host(dir + "/host.json", before, after);
  std::printf("host (%d threads): triad %.2f -> %.2f GB/s, fma %.1f -> "
              "%.1f GFLOP/s (triad arrays %.0f MiB each, LLC %.0f MiB)\n",
              kComputeThreads, before.triad_gbs, after.triad_gbs,
              before.fma_gflops, after.fma_gflops, before.triad_array_mib,
              before.llc_mib);

  long long attempted = 0, failed = 0;
  for (const Context& c : done) {
    attempted += c.attempted;
    failed += c.failed;
    for (const auto& f : c.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const bool correct = failed == 0;
  Context& own = done.front();
  own.e2e["peak_rss_mb"] = {rss, 0};
  own.e2e["success_ratio"] = {1.0 - double(failed) / double(attempted),
                              attempted};
  std::printf("error_ratio %.6g (%lld failed of %lld attempted)\n",
              double(failed) / double(attempted), failed, attempted);

  if (!traced) {
    print_table("end-to-end:", end_to_end_metrics(), own.e2e);
    print_result(correct, attempted, failed, end_to_end_metrics(), own.e2e);
    return correct ? 0 : 1;
  }

  std::map<std::string, Value> layers;
  for (const Context& c : done) {
    for (const auto& [k, v] : c.layers) layers[k] = v;
  }
  layers["host.triad_gbs"] = {0.5 * (before.triad_gbs + after.triad_gbs), 2};
  layers["host.fma_gflops"] = {0.5 * (before.fma_gflops + after.fma_gflops),
                               2};
  const double fpb = layers.at("kernel.flops_per_byte").value;
  const double roof = std::min(layers["host.fma_gflops"].value,
                               layers["host.triad_gbs"].value * fpb);
  layers["kernel.roofline_frac"] = {layers.at("kernel.gflops").value / roof,
                                    0};
  const std::string lat =
      workload == "serve_mix" ? "job_ms_p50" : "step_ms_p50";
  layers["trace.overhead_ratio"] = {
      own.e2e.at(lat).value / own.e2e_untraced.at(lat).value, 0};

  std::printf("tracing overhead on %s (traced vs untraced phase):\n",
              workload.c_str());
  for (const MetricDef& d : end_to_end_metrics()) {
    const auto a = own.e2e_untraced.find(d.name);
    const auto b = own.e2e.find(d.name);
    if (a == own.e2e_untraced.end() || b == own.e2e.end()) continue;
    std::printf("  %-14s untraced %12.6g  traced %12.6g  diff %+8.3f%%\n",
                d.name, a->second.value, b->second.value,
                100.0 * (b->second.value / a->second.value - 1.0));
  }
  std::printf("layer self time (span minus child spans):\n");
  for (const auto& [name, l] : tracer.layers()) {
    std::printf("  %-22s count %7lld  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), l.count, l.total_s * 1e3, l.self_s * 1e3);
  }
  tracer.write_chrome(dir + "/trace.json");
  std::printf("chrome trace: %s/trace.json\n", dir.c_str());
  print_table("per-layer:", per_layer_metrics(), layers);
  print_result(correct, attempted, failed, per_layer_metrics(), layers);
  return correct ? 0 : 1;
}

// --- self-test -------------------------------------------------------------------

int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++bad;
      std::printf("self-test FAILED: %s\n", what);
    }
  };
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(i));
  expect(percentile(v, 0.9) && *percentile(v, 0.9) == 90.0,
         "p90 of 100 samples is the 90th");
  expect(percentile(v, 0.5) && *percentile(v, 0.5) == 50.0,
         "p50 of 100 samples is the 50th");
  v.pop_back();
  expect(!percentile(v, 0.9), "p90 needs ten samples beyond it (99 < 100)");
  std::vector<double> w(v.begin(), v.begin() + 19);
  expect(!percentile(w, 0.5), "p50 needs ten samples beyond it (19 < 20)");
  w.push_back(20.0);
  expect(percentile(w, 0.5) && *percentile(w, 0.5) == 10.0,
         "p50 of 20 samples is the 10th");
  expect(min_samples_for(0.9) == 100 && min_samples_for(0.5) == 20,
         "minimum sample counts");
  // 400 samples: 1..100 four times, with a burst doubling the second
  // window; three of four windows are clean, so the windowed p90 is 90.
  std::vector<double> series;
  for (int w4 = 0; w4 < 4; ++w4) {
    for (int i = 1; i <= 100; ++i) {
      series.push_back(double(i) * (w4 == 1 ? 2 : 1));
    }
  }
  expect(windowed_percentile(series, 0.9, "t").value == 90.0,
         "windowed p90 ignores a burst in one window");
  series.resize(200);  // two windows: too few, the plain p90 applies
  expect(windowed_percentile(series, 0.9, "t").value ==
             *percentile(series, 0.9),
         "windowed p90 needs three windows");

  const auto m1 = make_mix(7, 10), m2 = make_mix(7, 10), m3 = make_mix(8, 10);
  bool same = m1.size() == m2.size(), differs = false;
  for (std::size_t i = 0; i < m1.size() && same; ++i) {
    same = m1[i].name == m2[i].name && m1[i].spec == m2[i].spec;
    differs = differs || m1[i].name != m3[i].name;
  }
  expect(same, "the seeded serve mix repeats for one seed");
  expect(differs, "another seed gives another serve mix");
  bool shares = true;
  std::set<std::string> cold;
  for (std::size_t b = 0; b < 10; ++b) {
    int c = 0, p = 0;
    for (std::size_t i = 0; i < 20; ++i) {
      const MixEntry& e = m1[b * 20 + i];
      c += e.cold;
      p += e.p1;
      if (e.cold) cold.insert(e.name);
    }
    shares = shares && c == 1 && p == 4;
  }
  expect(shares, "every block of 20 has 1 fresh-dt and 4 P1 jobs");
  expect(cold.size() == 10, "fresh-dt jobs have distinct specs");

  std::vector<Tracer::Span> s(4);
  s[0] = {"p", 0.0, 10.0, -1, -1, 0};
  s[1] = {"a", 1.0, 3.0, 0, -1, 0};
  s[2] = {"b", 2.0, 5.0, 0, -1, 0};
  s[3] = {"c", 2.5, 3.5, 2, -1, 0};
  const auto self = self_times(s);
  expect(std::fabs(self[0] - 6.0) < 1e-12 && std::fabs(self[2] - 2.0) < 1e-12,
         "self time subtracts the union of child spans");

  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *list) names.insert(d.name);
  }
  expect(names.size() ==
             end_to_end_metrics().size() + per_layer_metrics().size(),
         "metric names are unique");
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: pfc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir DIR\n"
               "       pfc_perfbench --self-test\n"
               "       pfc_perfbench --print-mix --seed N\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> a;
  std::set<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test" || k == "--print-mix") {
      flags.insert(k);
    } else if (k.rfind("--", 0) == 0 && i + 1 < argc) {
      a[k] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (flags.count("--self-test")) return self_test();
    const std::uint64_t seed = std::stoull(a.count("--seed") ? a["--seed"] : "1");
    if (flags.count("--print-mix")) {
      for (const MixEntry& e : make_mix(seed, 5)) {
        std::printf("%s %s\n", e.name.c_str(), e.spec.dump(-1).c_str());
      }
      return 0;
    }
    for (const char* k : {"--workload", "--seconds", "--trace", "--dir"}) {
      if (!a.count(k)) return usage();
    }
    const std::string w = a["--workload"];
    const auto& known = workload_names();
    if (std::find(known.begin(), known.end(), w) == known.end()) {
      std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
      return 2;
    }
    const std::string trace = a["--trace"];
    if (trace != "0" && trace != "1") return usage();
    const double seconds = std::stod(a["--seconds"]);
    if (!(seconds > 0.0)) return usage();
    return run(w, seed, seconds, trace == "1", a["--dir"]);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pfc_perfbench: %s\n", e.what());
    return 1;
  }
}
