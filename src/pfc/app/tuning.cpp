#include "pfc/app/tuning.hpp"

#include <algorithm>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/backend/registry.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/support/sha256.hpp"

namespace pfc::app {

namespace {

/// Fixed search budget (measured runs, baseline included) — part of the
/// determinism contract, so it is a constant rather than an option.
constexpr int kTuneBudget = 8;
/// Measurement geometry: the job's own cells capped per axis, stepped a
/// handful of times. Small enough that a full search costs seconds, large
/// enough that the vector knobs still move the needle.
constexpr long long kMeasureCellCap = 48;
constexpr int kMeasureSteps = 4;

/// Lowers the model to optimized IR at one split setting (both PDEs, the
/// same path ModelCompiler::compile_updates takes).
std::vector<ir::Kernel> lower_model(const GrandChemModel& model,
                                    const CompileOptions& copts, bool split) {
  CompileOptions c = copts;
  c.split_phi = split;
  c.split_mu = split;
  fd::DiscretizeOptions dopts;
  dopts.dims = model.params().dims;
  dopts.dx = model.params().dx;
  dopts.dt = model.params().dt;
  dopts.rng_seed = model.params().rng_seed;
  const std::vector<fd::PdeUpdate> updates{model.phi_update(),
                                           model.mu_update()};
  std::vector<ir::Kernel> out;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    fd::DiscretizeOptions d = dopts;
    d.split_staggered = split;
    d.clamp_unit_interval = i == 0 && c.clamp_phi;
    d.renormalize_simplex = d.clamp_unit_interval;
    std::optional<FieldPtr> flux;
    std::vector<ir::Kernel> ks = ModelCompiler::lower(updates[i], d, c, &flux);
    for (auto& k : ks) out.push_back(std::move(k));
  }
  return out;
}

/// ECM-predicted MLUPS of the whole kernel chain: per-update times add, so
/// the chain rate is the harmonic combination of the per-kernel rates.
double chain_mlups(const std::vector<ir::Kernel>& kernels,
                   const std::array<long long, 3>& block,
                   const perf::MachineModel& m, int cores, int width) {
  double seconds_per_update = 0.0;
  for (const ir::Kernel& k : kernels) {
    const double mlups =
        perf::ecm_predict(k, block, m, perf::TrafficSource::LayerCondition,
                          width)
            .mlups(m, cores);
    if (mlups <= 0.0) return 0.0;
    seconds_per_update += 1.0 / mlups;
  }
  return seconds_per_update > 0.0 ? 1.0 / seconds_per_update : 0.0;
}

}  // namespace

std::string tuning_cache_dir(const CompileOptions& c) {
  if (!c.cache_dir.empty()) return c.cache_dir;
  return backend::kernel_cache_config_from_env().directory;
}

std::string tuning_model_hash(const GrandChemModel& model,
                              const SimulationOptions& opts) {
  // Canonical form: full kernels emitted as scalar C — independent of every
  // knob the tuner searches, sensitive to everything that changes the
  // numerics (model, dt, dx, CSE/hoisting/fast-math, clamp).
  CompileOptions canonical = opts.compile;
  canonical.vector_width = 1;
  canonical.streaming_stores = false;
  const std::vector<ir::Kernel> kernels =
      lower_model(model, canonical, /*split=*/false);
  backend::CEmitOptions eo;
  eo.fast_math = canonical.fast_math;
  eo.vector_width = 1;
  std::string text;
  bool first = true;
  for (const ir::Kernel& k : kernels) {
    eo.include_preamble = first;
    first = false;
    text += backend::emit_c(k, eo);
  }
  text += "\ncells=" + std::to_string(opts.cells[0]) + "x" +
          std::to_string(opts.cells[1]) + "x" + std::to_string(opts.cells[2]);
  text += "\nthreads=" + std::to_string(opts.threads);
  return support::sha256_hex(text);
}

void apply_tune_candidate(const perf::TuneCandidate& c,
                          SimulationOptions& opts) {
  opts.compile.split_phi = c.split;
  opts.compile.split_mu = c.split;
  opts.compile.vector_width = c.vector_width;
  opts.compile.streaming_stores = c.streaming_stores;
  opts.dispatch =
      c.dispatch == "dynamic" ? Dispatch::Dynamic : Dispatch::Static;
  opts.pin = support::parse_pin_policy(c.pin);
}

perf::TuneCandidate candidate_from_options(const SimulationOptions& opts) {
  perf::TuneCandidate c;
  c.split = opts.compile.split_phi && opts.compile.split_mu;
  if (opts.compile.backend == Backend::Interpreter) {
    c.vector_width = 1;
  } else if (opts.compile.vector_width > 0) {
    c.vector_width = opts.compile.vector_width;
  } else {
    c.vector_width = backend::probe_native_vector_width();
  }
  c.streaming_stores = opts.compile.streaming_stores && c.vector_width > 1;
  c.dispatch = opts.dispatch == Dispatch::Dynamic ? "dynamic" : "static";
  c.pin = support::pin_policy_name(opts.pin);
  return c;
}

obs::TuningStats autotune_apply(const GrandChemModel& model,
                                SimulationOptions& opts) {
  obs::TuningStats stats;
  if (opts.compile.tune == TuneMode::Off) return stats;
  stats.enabled = true;
  stats.mode = opts.compile.tune == TuneMode::Cached ? "cached" : "full";

  const support::Topology topo = support::Topology::detect();
  stats.machine = perf::machine_signature(topo, opts.machine);
  const std::string key =
      perf::tune_cache_key(tuning_model_hash(model, opts), stats.machine);
  stats.cache_key = key;
  const std::string dir = tuning_cache_dir(opts.compile);

  if (opts.compile.tune == TuneMode::Cached) {
    if (const auto hit = perf::load_tuned(dir, key)) {
      // Warm cache: the persisted winner applies with zero measured runs.
      stats.cache_hit = true;
      stats.best_config = hit->best.label();
      stats.best_mlups = hit->best_mlups;
      stats.baseline_mlups = hit->baseline_mlups;
      apply_tune_candidate(hit->best, opts);
      return stats;
    }
  }

  perf::TuneOptions to;
  to.budget = kTuneBudget;
  to.multi_threaded = opts.threads > 1;
  to.baseline = candidate_from_options(opts);
  if (opts.compile.backend == Backend::Interpreter) {
    to.max_vector_width = 1;  // the interpreter tier is scalar
  } else {
    const backend::Backend* vec =
        backend::BackendRegistry::instance().find("jit-vector");
    const int tier_cap =
        vec != nullptr ? vec->capabilities().max_vector_width : 1;
    to.max_vector_width =
        std::min(tier_cap, backend::probe_native_vector_width());
  }

  // ECM prior: the per-split kernel sets are lowered once; driver placement
  // knobs (dispatch/pin) are invisible to the analytic model, so
  // candidates differing only there tie and keep enumeration order.
  const std::vector<ir::Kernel> full_kernels =
      lower_model(model, opts.compile, /*split=*/false);
  const std::vector<ir::Kernel> split_kernels =
      lower_model(model, opts.compile, /*split=*/true);
  const int cores = std::max(1, std::min(opts.threads, opts.machine.cores));
  const perf::PriorFn prior = [&](const perf::TuneCandidate& c) {
    return chain_mlups(c.split ? split_kernels : full_kernels, opts.cells,
                       opts.machine, cores, c.vector_width);
  };

  // Ground truth: a short Simulation on a capped version of the job's own
  // domain, scored by the paper's MLUPS metric over kernel time. A
  // candidate that fails to build scores 0 and simply loses.
  const perf::MeasureFn measure = [&](const perf::TuneCandidate& c) {
    SimulationOptions mo = opts;
    mo.compile.tune = TuneMode::Off;
    mo.trace = {};
    mo.health = {};
    mo.resilience = {};
    for (std::size_t d = 0; d < 3; ++d) {
      mo.cells[d] = std::min(mo.cells[d], kMeasureCellCap);
    }
    apply_tune_candidate(c, mo);
    try {
      Simulation sim(model, mo);
      sim.init_phi([](long long, long long, long long, int comp) {
        return comp == 0 ? 1.0 : 0.0;
      });
      sim.init_mu([](long long, long long, long long, int) { return 0.0; });
      return sim.run(kMeasureSteps).mlups();
    } catch (const Error&) {
      return 0.0;
    }
  };

  const perf::TuneResult r = perf::tune(to, prior, measure);
  stats.candidates = r.candidates;
  stats.measured_runs = r.measured_runs;
  stats.search_seconds = r.search_seconds;
  stats.baseline_mlups = r.baseline_mlups;
  stats.best_mlups = r.best_mlups;
  stats.best_config = r.best.label();
  for (const perf::TuneMeasurement& m : r.ranking) {
    if (!m.measured) continue;
    stats.ranking.push_back(obs::TuningRankEntry{
        m.config.label(), m.predicted_mlups, m.measured_mlups});
  }
  apply_tune_candidate(r.best, opts);
  if (!dir.empty()) {
    perf::store_tuned(dir, key,
                      perf::TuneCacheEntry{r.best, r.best_mlups,
                                           r.baseline_mlups, r.measured_runs,
                                           r.search_seconds});
  }
  return stats;
}

}  // namespace pfc::app
