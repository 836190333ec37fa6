// Driver-level glue for the measured autotuner (perf/autotune.hpp): maps
// TuneCandidate onto SimulationOptions, derives the (model hash, machine
// signature) cache identity, injects the ECM prior and the short-run
// measurement, and applies CompileOptions::tune to a job's options before
// the real Simulation is constructed (run_job calls autotune_apply).
#pragma once

#include "pfc/app/simulation.hpp"
#include "pfc/perf/autotune.hpp"

namespace pfc::app {

/// Directory the tuning cache lives in — the same resolution as the kernel
/// cache: compile.cache_dir when set, else PFC_KERNEL_CACHE_DIR, else ""
/// (no persistence; a search still runs but its winner is not kept).
std::string tuning_cache_dir(const CompileOptions& c);

/// Content hash identifying the *tuning problem*: SHA-256 over the
/// canonical (full-kernel, scalar) generated C source of the model plus
/// the domain extents and thread count. Knobs the tuner itself searches
/// (split, width, streaming stores, driver placement) are deliberately
/// excluded so every candidate of one problem shares one key.
std::string tuning_model_hash(const GrandChemModel& model,
                              const SimulationOptions& opts);

/// Writes a candidate's knobs into the options (compile: split/width/
/// streaming stores; driver: dispatch/pin).
void apply_tune_candidate(const perf::TuneCandidate& c,
                          SimulationOptions& opts);

/// The reverse map: the options' current knob settings as a candidate (the
/// search baseline). vector_width 0 resolves to the probed native width.
perf::TuneCandidate candidate_from_options(const SimulationOptions& opts);

/// Applies opts.compile.tune in place:
///   Off    — no-op, returns a disabled TuningStats.
///   Cached — a warm tuning cache applies the persisted winner with zero
///            measured runs; a miss behaves like Full.
///   Full   — budgeted measured search (ECM prior ordering, baseline first),
///            winner applied to `opts` and persisted when a cache directory
///            is configured.
/// The returned stats land in the run report's v7 "tuning" section.
obs::TuningStats autotune_apply(const GrandChemModel& model,
                                SimulationOptions& opts);

}  // namespace pfc::app
