// The reporting API: drivers return a RunReport from run(), the compiler
// exposes a CompileReport, and both (plus the bench harness) emit one JSON
// schema, pfc-obs-report-v7 (kReportSchema):
//
//   {
//     "schema":   "pfc-obs-report-v7",
//     "kind":     "run" | "compile" | "bench",
//     "name":     "<producer>",
//     "timers":   { "<path>": {"seconds": s, "count": n}, ... },
//     "counters": { "<path>": n, ... },
//     "derived":  { "<stat>": x, ... }
//   }
//
// plus the sections below (validated when present):
//
//     "model_accuracy": { "<target>": {"predicted_seconds": p,
//                                      "measured_seconds": m,
//                                      "ratio": m/p}, ... } — <target> is
//                       "kernel/<ir name>" (ECM prediction, paper Fig. 2)
//                       or "exchange" (network model, Table 2).
//     "health":         HealthStats::to_json() + "policy" (run reports).
//     "resilience":     ResilienceStats::to_json() on every run report —
//                       checkpoints captured/written, rollbacks, dt
//                       shrinks, injected faults, restart provenance.
//     "backend_tier" / "fallback_reason" on every compile report — which
//                       rung of the JIT fallback chain (vector → scalar →
//                       interpreter) actually runs.
//     "overlap":        OverlapStats::to_json() — pack/wait/interior/
//                       frontier seconds, cell counts and the netmodel-
//                       derived hidden fraction; only on runs that
//                       overlapped (OverlapMode::InteriorFrontier).
//     "cache":          on compile reports whose JIT consulted the kernel
//                       cache — {"hit", "key", "hits", "misses",
//                       "evictions", "bytes"}.
//     "threading":      ThreadingStats::to_json() on every run report —
//                       pool width, pin policy, dispatch mode, first-touch
//                       placement, the topology the process saw and the
//                       temporal-blocking decision (DESIGN.md §11).
//     "tuning":         TuningStats::to_json() on run reports whose driver
//                       ran with tune != off (perf/autotune.hpp).
//
// Producers may add extra keys (e.g. quickstart embeds its CompileReport
// under "compile"); validators require only the six core sections. See
// tools/report_check.cpp for the machine check run by ctest; it accepts
// only the current schema, since no report is stored across revisions.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "pfc/obs/health.hpp"
#include "pfc/obs/registry.hpp"

namespace pfc::obs {

inline constexpr const char* kReportSchema = "pfc-obs-report-v7";

/// Model-vs-measured drift of one prediction target: how long the
/// performance model said a component should have taken over the whole run
/// vs. what the timers measured (the paper's Fig. 2 validation, tracked on
/// every run instead of only in benches).
struct ModelAccuracy {
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
  /// measured/predicted, safe_rate-guarded (1.0 = model exact, > 1 = slower
  /// than predicted, 0 = no prediction available).
  double ratio = 0.0;
};

/// Resilience accounting of one run (the v3 "resilience" report section):
/// how often the run checkpointed, rolled back, shrank dt or absorbed an
/// injected fault, and whether it was restored from disk. All-zero when the
/// resilience layer never acted.
struct ResilienceStats {
  std::uint64_t checkpoints = 0;       ///< in-memory snapshot captures
  std::uint64_t checkpoint_files = 0;  ///< on-disk manifests written
  long long last_checkpoint_step = 0;
  std::uint64_t rollbacks = 0;         ///< health-driven recoveries
  std::uint64_t dt_shrinks = 0;
  std::uint64_t faults_injected = 0;   ///< FaultPlan activations
  bool restarted = false;              ///< restored from disk at startup
  long long restart_step = 0;          ///< step the restore resumed at
  double dt_current = 0.0;             ///< dt after any shrinks

  Json to_json() const;
};

/// Communication-hiding accounting of one run (the v4 "overlap" report
/// section): phase timings of the split distributed step and the
/// netmodel-derived hidden-communication estimate. All-zero with
/// enabled == false when the driver ran the synchronous exchange.
struct OverlapStats {
  bool enabled = false;
  double pack_seconds = 0.0;      ///< begin(): pack + post (exposed)
  double wait_seconds = 0.0;      ///< finish(): wait + unpack + later axes
  double interior_seconds = 0.0;  ///< interior compute (hides the wait)
  double frontier_seconds = 0.0;  ///< frontier-shell compute (exposed)
  long long interior_cells = 0;   ///< per-step local interior cells
  long long frontier_cells = 0;   ///< per-step local frontier-shell cells
  /// Communication time the netmodel says was hidden behind interior
  /// compute: min(interior_seconds, predicted comm seconds).
  double hidden_seconds = 0.0;
  /// hidden_seconds / predicted comm seconds, clamped to [0, 1].
  double hidden_fraction = 0.0;

  Json to_json() const;
};

/// Execution-resources accounting of one run (the v6 "threading" section):
/// pool geometry, worker placement policy and the temporal-blocking
/// decision. Always serialized, so consumers can read how a run used the
/// node even for single-threaded runs (the all-default shape).
struct ThreadingStats {
  int threads = 1;
  std::string pin_policy = "none";  ///< "none" | "compact" | "scatter"
  std::string dispatch = "static";  ///< "dynamic" | "static"
  bool first_touch = false;         ///< arrays placed by the pinned pool
  /// Topology as visible to the process (after the affinity mask).
  int cpus = 0;
  int cores = 0;
  int packages = 0;
  int numa_nodes = 0;
  /// Temporal-blocking (wavefront) decision.
  bool blocking_enabled = false;
  long long blocking_tile_rows = 0;
  long long blocking_lookahead = 0;
  int fused_stages = 0;          ///< kernels in the fused chain (0 = unfused)
  long long fused_substeps = 0;  ///< substeps that actually ran fused
  std::string blocking_reason;   ///< sizing rationale / why disabled
  /// Modeled memory traffic per cell update over the chain (bytes).
  double bytes_per_update_unfused = 0.0;
  double bytes_per_update_fused = 0.0;

  Json to_json() const;
};

/// One row of the autotuner's prior-vs-measured ranking: a candidate
/// configuration with the ECM-model prediction that ordered it and the
/// short-run measurement that judged it.
struct TuningRankEntry {
  std::string config;            ///< canonical candidate label
  double predicted_mlups = 0.0;  ///< ECM/layer-condition prior
  double measured_mlups = 0.0;   ///< short measured run (ground truth)

  Json to_json() const;
};

/// Measured-autotuning decision of one run (the v7 "tuning" section):
/// whether the winning configuration came from the per-machine tuning cache
/// or a fresh measured search, what the search cost, and how the analytic
/// prior ranked against reality. enabled == false (tune = off, the default)
/// omits the section.
struct TuningStats {
  bool enabled = false;
  std::string mode;            ///< "cached" | "full"
  bool cache_hit = false;      ///< winner came from the persisted cache
  std::string cache_key;       ///< SHA-256 over (model hash, machine sig)
  std::string machine;         ///< machine signature the key embeds
  int candidates = 0;          ///< configurations enumerated
  int measured_runs = 0;       ///< short runs executed (0 on a cache hit)
  double search_seconds = 0.0; ///< wall time of the measured search
  double baseline_mlups = 0.0; ///< the spec's own configuration, measured
  double best_mlups = 0.0;     ///< the winner, measured
  std::string best_config;     ///< canonical label of the winner
  std::vector<TuningRankEntry> ranking;  ///< measured candidates, search order

  Json to_json() const;
};

/// Cumulative signals of a (possibly distributed) simulation run. Returned
/// by Simulation::run() / DistributedSimulation::run(); totals cover the
/// simulation's whole lifetime, not just the last run() call, so the
/// deprecated accessors and the report always agree.
struct RunReport {
  std::string name = "run";
  long long steps = 0;
  long long cells_per_step = 0;     ///< interior cells of one lattice update
  std::uint64_t cell_updates = 0;   ///< Heun's two substeps count as one
  std::map<std::string, TimerStat> kernel_timers;  ///< by kernel IR name
  double kernel_seconds_total = 0.0;
  double exchange_seconds = 0.0;    ///< ghost exchange (distributed runs)
  std::uint64_t exchange_bytes = 0; ///< bytes sent to remote ranks, total
  int num_blocks = 1;
  /// max/mean of per-block kernel seconds (1.0 = perfectly balanced; 0 if
  /// nothing ran yet).
  double block_imbalance = 0.0;
  std::vector<StepStats> recent_steps;  ///< ring-buffer tail, oldest first

  /// Model-vs-measured drift by target ("kernel/<name>", "exchange");
  /// filled by the drivers via perf::fill_model_accuracy. Empty when no
  /// kernel ran yet.
  std::map<std::string, ModelAccuracy> model_accuracy;
  /// In-situ health findings (all-zero when monitoring is disabled).
  HealthStats health;
  /// Policy the run's health monitor applied (serialized with health).
  HealthPolicy health_policy = HealthPolicy::Warn;
  /// Checkpoint/rollback/restart accounting (v3 "resilience" section).
  ResilienceStats resilience;
  /// Communication-hiding accounting (v4 "overlap" section; serialized
  /// only when enabled).
  OverlapStats overlap;
  /// Execution-resources accounting (v6 "threading" section).
  ThreadingStats threading;
  /// Measured-autotuning decision (v7 "tuning" section; serialized only
  /// when enabled).
  TuningStats tuning;
  /// Worst measured/predicted ratio distance from 1.0 across all targets
  /// with a prediction (0.0 when model_accuracy is empty).
  double worst_model_drift() const;

  /// Million lattice-cell updates per second over kernel time only — the
  /// paper's MLUP/s metric. Guarded: 0.0 before any step ran.
  double mlups() const;
  /// Seconds accumulated by one kernel (0.0 if it never ran).
  double kernel_seconds(const std::string& kernel_name) const;
  /// Exchange bandwidth in bytes/s (0.0 for node-level runs).
  double exchange_bytes_per_second() const;

  Json to_json() const;
};

/// Per-stage timings and op counts of one ModelCompiler::compile() (paper
/// Table 1 / "generation vs compile time" discussion).
struct CompileReport {
  std::string name = "compile";
  /// Pipeline stages: "discretize", "ir_build" (CSE + hoisting),
  /// "schedule", "emit", "jit" (external compiler).
  std::map<std::string, TimerStat> stage_timers;
  /// Normalized per-cell FLOPs summed over kernels, before (raw stencil
  /// RHS) and after (optimized IR body) CSE/hoisting.
  long long ops_per_cell_pre = 0;
  long long ops_per_cell_post = 0;
  /// SIMD width (doubles per lane vector) the C backend emitted with; 1 for
  /// scalar code and the interpreter backend.
  int vector_width = 1;
  /// Per-cell FLOPs after widening: packable ops amortize over the vector
  /// width, lane-serial calls (transcendentals, RNG) do not. Equals
  /// ops_per_cell_post at width 1.
  double ops_per_cell_widened = 0.0;
  std::vector<std::string> kernel_names;  ///< IR names, execution order
  /// Which rung of the degradation chain actually executes: "vector"
  /// (JIT, SIMD width > 1), "scalar" (JIT, width 1) or "interpreter".
  std::string backend_tier = "interpreter";
  /// First failure that forced a downgrade (empty when the requested
  /// backend compiled cleanly).
  std::string fallback_reason;
  /// External-compiler invocations that failed before the surviving tier.
  int fallback_attempts = 0;
  /// Kernel-cache provenance (v5 "cache" section). cache_used is false
  /// when no cache was configured; the section is emitted only when true.
  bool cache_used = false;
  bool cache_hit = false;        ///< this compile was served from the cache
  std::string cache_key;         ///< SHA-256 content address (64 hex chars)
  std::uint64_t cache_hits = 0;  ///< process-wide counters after this call
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;  ///< resident cached shared-object bytes

  void add_stage(const std::string& stage, double seconds);
  /// Symbolic-pipeline time: every stage except the external compiler.
  double generation_seconds() const;
  /// External ("jit") compiler time; 0.0 for the interpreter backend.
  double compile_seconds() const;

  Json to_json() const;
};

/// Assembles the shared report schema from raw sections. RunReport,
/// CompileReport and the bench harness all funnel through this so every
/// producer emits the same shape.
Json make_report_json(const std::string& kind, const std::string& name,
                      const std::map<std::string, TimerStat>& timers,
                      const std::map<std::string, std::uint64_t>& counters,
                      const std::map<std::string, double>& derived);

/// Writes `j` to `path` with a trailing newline; throws pfc::Error on I/O
/// failure.
void write_json(const std::string& path, const Json& j);

/// Writes raw text to `path`; throws pfc::Error on I/O failure. (The trace
/// exporter uses this for compact one-line JSON dumps.)
void write_text(const std::string& path, const std::string& text);

}  // namespace pfc::obs
