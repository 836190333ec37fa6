// Measured autotuner over the codegen/driver knob space (ROADMAP item 3,
// paper §5's search story brought to the CPU path): the ECM/layer-condition
// model orders the candidates as a *prior*, short measured runs are the
// ground truth, and the winner persists in a per-(model, machine) tuning
// cache next to the kernel cache so a warm daemon compiles the fastest
// configuration on first submit.
//
// The layer split mirrors the rest of the repo: this file knows the knob
// space, the deterministic search order and the cache format, but cannot
// see app types — the driver-level glue (app/tuning.hpp) injects the prior
// and the measurement as std::function hooks and maps TuneCandidate onto
// SimulationOptions.
//
// Determinism guarantees (DESIGN.md §13):
//   * enumerate_candidates() is a fixed nested loop — no wall clock, no
//     randomness, no hardware probing inside the decision path;
//   * the measurement order is (baseline, then prior-descending with
//     enumeration order as the tie-break), truncated to a fixed budget;
//   * the winner is the best *measured* candidate, ties resolved toward the
//     earlier measurement — so the baseline wins exact ties and the tuned
//     configuration is never slower than the default by construction.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pfc/obs/json.hpp"
#include "pfc/perf/machine.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::perf {

/// Schema tag of one persisted tuning-cache entry. Any other value (or a
/// parse failure) makes the entry stale: loads miss and the caller re-runs
/// the measured search.
inline constexpr const char* kTuneCacheSchema = "pfc-tune-v1";

/// One point of the knob space. Driver-level spellings ("static"/"dynamic",
/// pin-policy names) keep this layer free of app enums and make the JSON
/// form self-describing.
struct TuneCandidate {
  bool split = false;            ///< split staggered-flux kernels (φ and µ)
  int vector_width = 1;          ///< emitted SIMD width: 1/2/4/8
  bool streaming_stores = false; ///< non-temporal stores (width > 1 only)
  std::string dispatch = "static";  ///< "static" | "dynamic"
  std::string pin = "none";         ///< "none" | "compact" | "scatter"

  /// Canonical one-line label ("split=1 w=4 nt=0 dispatch=static
  /// pin=none") — the identity two candidates are
  /// compared by and the spelling reports/caches use.
  std::string label() const;

  obs::Json to_json() const;
  /// Strict decode (unknown keys, wrong types and out-of-range widths
  /// throw pfc::Error naming `where`).
  static TuneCandidate from_json(const obs::Json& j, const std::string& where);
};

inline bool operator==(const TuneCandidate& a, const TuneCandidate& b) {
  return a.label() == b.label();
}

/// One search step: the candidate, the prior that ordered it, and (when the
/// budget reached it) its measurement.
struct TuneMeasurement {
  TuneCandidate config;
  double predicted_mlups = 0.0;
  double measured_mlups = 0.0;
  bool measured = false;
};

struct TuneOptions {
  /// Maximum measured runs, baseline included. Candidates beyond the budget
  /// are pruned by the prior alone.
  int budget = 8;
  /// Widest SIMD width to enumerate (the jit-vector tier's capability
  /// intersected with the probed ISA).
  int max_vector_width = 8;
  /// false collapses the driver placement knobs (dispatch/pin) to their
  /// single-thread defaults — they cannot matter without a pool.
  bool multi_threaded = false;
  /// The caller's own configuration: always measured first, so the winner
  /// is ≥ the default by construction.
  TuneCandidate baseline;
};

struct TuneResult {
  TuneCandidate best;
  double best_mlups = 0.0;
  double baseline_mlups = 0.0;
  std::vector<TuneMeasurement> ranking;  ///< search order; measured first
  int candidates = 0;      ///< enumerated configurations
  int measured_runs = 0;   ///< measurements actually executed
  double search_seconds = 0.0;
};

/// ECM-model MLUPS of a candidate (higher = tried earlier).
using PriorFn = std::function<double(const TuneCandidate&)>;
/// Short measured run of a candidate; returns MLUPS (ground truth).
using MeasureFn = std::function<double(const TuneCandidate&)>;

/// The fixed, deterministic candidate enumeration: split × vector_width
/// (1..max, powers of two) × streaming_stores (vector widths only) × —
/// when multi_threaded — dispatch and pin policy. Single-thread enumerations keep dispatch "static" and pin
/// "none".
std::vector<TuneCandidate> enumerate_candidates(const TuneOptions& o);

/// Runs the budgeted search: enumerate, order by (baseline, prior desc,
/// enumeration order), measure the first `budget`, pick the best measured.
/// A baseline outside the enumeration is prepended rather than lost.
TuneResult tune(const TuneOptions& o, const PriorFn& prior,
                const MeasureFn& measure);

// --- persistent per-machine tuning cache -----------------------------------

/// What persists for one (model, machine) pair.
struct TuneCacheEntry {
  TuneCandidate best;
  double best_mlups = 0.0;
  double baseline_mlups = 0.0;
  int measured_runs = 0;        ///< search cost when the entry was written
  double search_seconds = 0.0;
};

/// Deterministic signature of the machine the measurements are valid on:
/// topology extents (cpus/cores/packages/NUMA nodes after the affinity
/// mask) plus the analytic machine model's identity.
std::string machine_signature(const support::Topology& t,
                              const MachineModel& m);

/// Content address of one cache entry: SHA-256 over (model hash, machine
/// signature). Stable across runs and processes by construction.
std::string tune_cache_key(const std::string& model_hash,
                           const std::string& machine_sig);

/// File the entry lives in: `<dir>/tune-<key>.json`, beside the kernel
/// cache's shared objects.
std::string tune_cache_path(const std::string& dir, const std::string& key);

/// Loads the persisted winner. Missing file, parse failure, wrong schema or
/// a malformed candidate all return nullopt — the caller falls back to a
/// full measured search (a corrupt cache can cost time, never correctness).
std::optional<TuneCacheEntry> load_tuned(const std::string& dir,
                                         const std::string& key);

/// Atomically publishes the winner (tmp + rename, the obs::write_text
/// discipline); creates `dir` if needed. Throws pfc::Error on I/O failure.
void store_tuned(const std::string& dir, const std::string& key,
                 const TuneCacheEntry& entry);

}  // namespace pfc::perf
