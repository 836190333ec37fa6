#include "pfc/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pfc/support/assert.hpp"

namespace pfc::obs {

double RunReport::mlups() const {
  return safe_rate(double(cell_updates), kernel_seconds_total) / 1e6;
}

double RunReport::kernel_seconds(const std::string& kernel_name) const {
  const auto it = kernel_timers.find(kernel_name);
  return it == kernel_timers.end() ? 0.0 : it->second.seconds;
}

double RunReport::exchange_bytes_per_second() const {
  return safe_rate(double(exchange_bytes), exchange_seconds);
}

double RunReport::worst_model_drift() const {
  double worst = 0.0;
  for (const auto& [target, a] : model_accuracy) {
    if (a.predicted_seconds <= 0.0) continue;
    worst = std::max(worst, std::abs(a.ratio - 1.0));
  }
  return worst;
}

Json ResilienceStats::to_json() const {
  return Json::object()
      .set("checkpoints", Json(checkpoints))
      .set("checkpoint_files", Json(checkpoint_files))
      .set("last_checkpoint_step", Json(double(last_checkpoint_step)))
      .set("rollbacks", Json(rollbacks))
      .set("dt_shrinks", Json(dt_shrinks))
      .set("faults_injected", Json(faults_injected))
      .set("restarted", Json(restarted))
      .set("restart_step", Json(double(restart_step)))
      .set("dt_current", Json(dt_current));
}

Json OverlapStats::to_json() const {
  return Json::object()
      .set("enabled", Json(enabled))
      .set("pack_seconds", Json(pack_seconds))
      .set("wait_seconds", Json(wait_seconds))
      .set("interior_seconds", Json(interior_seconds))
      .set("frontier_seconds", Json(frontier_seconds))
      .set("interior_cells", Json(double(interior_cells)))
      .set("frontier_cells", Json(double(frontier_cells)))
      .set("hidden_seconds", Json(hidden_seconds))
      .set("hidden_fraction", Json(hidden_fraction));
}

Json ThreadingStats::to_json() const {
  return Json::object()
      .set("threads", Json(double(threads)))
      .set("pin_policy", Json(pin_policy))
      .set("dispatch", Json(dispatch))
      .set("first_touch", Json(first_touch))
      .set("cpus", Json(double(cpus)))
      .set("cores", Json(double(cores)))
      .set("packages", Json(double(packages)))
      .set("numa_nodes", Json(double(numa_nodes)));
}

Json TuningRankEntry::to_json() const {
  return Json::object()
      .set("config", Json(config))
      .set("predicted_mlups", Json(predicted_mlups))
      .set("measured_mlups", Json(measured_mlups));
}

Json TuningStats::to_json() const {
  Json rank = Json::array();
  for (const auto& r : ranking) rank.push(r.to_json());
  return Json::object()
      .set("enabled", Json(enabled))
      .set("mode", Json(mode))
      .set("cache_hit", Json(cache_hit))
      .set("cache_key", Json(cache_key))
      .set("machine", Json(machine))
      .set("candidates", Json(double(candidates)))
      .set("measured_runs", Json(double(measured_runs)))
      .set("search_seconds", Json(search_seconds))
      .set("baseline_mlups", Json(baseline_mlups))
      .set("best_mlups", Json(best_mlups))
      .set("best_config", Json(best_config))
      .set("ranking", std::move(rank));
}

Json RunReport::to_json() const {
  std::map<std::string, TimerStat> timers;
  for (const auto& [k, t] : kernel_timers) timers["kernel/" + k] = t;
  if (exchange_seconds > 0.0) {
    timers["exchange"] = TimerStat{exchange_seconds, std::uint64_t(steps)};
  }
  const std::map<std::string, std::uint64_t> counters{
      {"steps", std::uint64_t(steps)},
      {"cell_updates", cell_updates},
      {"exchange_bytes", exchange_bytes},
  };
  const std::map<std::string, double> derived{
      {"mlups", mlups()},
      {"kernel_seconds_total", kernel_seconds_total},
      {"cells_per_step", double(cells_per_step)},
      {"num_blocks", double(num_blocks)},
      {"block_imbalance", block_imbalance},
      {"exchange_bytes_per_second", exchange_bytes_per_second()},
      {"worst_model_drift", worst_model_drift()},
  };
  Json j = make_report_json("run", name, timers, counters, derived);
  if (!model_accuracy.empty()) {
    Json ma = Json::object();
    for (const auto& [target, a] : model_accuracy) {
      ma.set(target, Json::object()
                         .set("predicted_seconds", Json(a.predicted_seconds))
                         .set("measured_seconds", Json(a.measured_seconds))
                         .set("ratio", Json(a.ratio)));
    }
    j.set("model_accuracy", std::move(ma));
  }
  Json h = health.to_json();
  h.set("policy", Json(health_policy_name(health_policy)));
  j.set("health", std::move(h));
  j.set("resilience", resilience.to_json());
  if (overlap.enabled) j.set("overlap", overlap.to_json());
  j.set("threading", threading.to_json());
  if (tuning.enabled) j.set("tuning", tuning.to_json());
  return j;
}

void CompileReport::add_stage(const std::string& stage, double seconds) {
  TimerStat& t = stage_timers[stage];
  t.seconds += seconds;
  t.count += 1;
}

double CompileReport::generation_seconds() const {
  double s = 0.0;
  for (const auto& [stage, t] : stage_timers) {
    if (stage != "jit") s += t.seconds;
  }
  return s;
}

double CompileReport::compile_seconds() const {
  const auto it = stage_timers.find("jit");
  return it == stage_timers.end() ? 0.0 : it->second.seconds;
}

Json CompileReport::to_json() const {
  std::map<std::string, TimerStat> timers;
  for (const auto& [k, t] : stage_timers) timers["stage/" + k] = t;
  const std::map<std::string, std::uint64_t> counters{
      {"ops_per_cell_pre", std::uint64_t(ops_per_cell_pre)},
      {"ops_per_cell_post", std::uint64_t(ops_per_cell_post)},
      {"num_kernels", std::uint64_t(kernel_names.size())},
      {"vector_width", std::uint64_t(vector_width)},
  };
  const std::map<std::string, double> derived{
      {"generation_seconds", generation_seconds()},
      {"compile_seconds", compile_seconds()},
      {"ops_per_cell_widened", ops_per_cell_widened},
  };
  Json j = make_report_json("compile", name, timers, counters, derived);
  Json names = Json::array();
  for (const auto& n : kernel_names) names.push(Json(n));
  j.set("kernels", std::move(names));
  j.set("backend_tier", Json(backend_tier));
  j.set("fallback_reason", Json(fallback_reason));
  j.set("fallback_attempts", Json(std::uint64_t(fallback_attempts)));
  if (cache_used) {
    j.set("cache", Json::object()
                       .set("hit", Json(cache_hit))
                       .set("key", Json(cache_key))
                       .set("hits", Json(cache_hits))
                       .set("misses", Json(cache_misses))
                       .set("evictions", Json(cache_evictions))
                       .set("bytes", Json(cache_bytes)));
  }
  return j;
}

Json make_report_json(const std::string& kind, const std::string& name,
                      const std::map<std::string, TimerStat>& timers,
                      const std::map<std::string, std::uint64_t>& counters,
                      const std::map<std::string, double>& derived) {
  Json jt = Json::object();
  for (const auto& [path, t] : timers) {
    jt.set(path, Json::object()
                     .set("seconds", Json(t.seconds))
                     .set("count", Json(t.count)));
  }
  Json jc = Json::object();
  for (const auto& [path, v] : counters) jc.set(path, Json(v));
  Json jd = Json::object();
  for (const auto& [path, v] : derived) jd.set(path, Json(v));
  return Json::object()
      .set("schema", Json(kReportSchema))
      .set("kind", Json(kind))
      .set("name", Json(name))
      .set("timers", std::move(jt))
      .set("counters", std::move(jc))
      .set("derived", std::move(jd));
}

void write_json(const std::string& path, const Json& j) {
  write_text(path, j.dump(2) + "\n");
}

void write_text(const std::string& path, const std::string& text) {
  // Atomic publish: a reader either sees the previous complete file or the
  // new complete file, never a torn write (rename(2) is atomic within a
  // filesystem, and the tmp file lives next to its target).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  PFC_REQUIRE(f != nullptr, "obs::write_text: cannot open " + tmp);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != text.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("obs::write_text: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("obs::write_text: cannot rename " + tmp + " to " + path);
  }
}

}  // namespace pfc::obs
