// The node-level driver: one block, no communicator. Simulation is a thin
// facade over the block-forest driver (distributed.hpp) on a 1×1×1 forest,
// so examples, physics tests and kernel benchmarks run exactly the step
// loop a distributed run does — Algorithm 1 with the ghost exchange
// reduced to in-place boundary fills — plus the node-level schedules that
// need the whole domain in one block: static slab dispatch over a pinned
// pool, first-touch placement and the fused wavefront substep.
#pragma once

#include "pfc/app/distributed.hpp"

namespace pfc::app {

struct SimulationOptions : DomainSetters<SimulationOptions> {
  int threads = 1;
  TimeScheme time_scheme = TimeScheme::Euler;
  /// Worker→CPU binding policy of the pool (threads > 1).
  support::PinPolicy pin = support::PinPolicy::None;
  /// First-touch the field arrays through the pool so each worker's slab
  /// is resident on its local NUMA node. On by default: with the static
  /// dispatch below it is free, and harmless on single-node-memory boxes.
  bool first_touch = true;
  Dispatch dispatch = Dispatch::Static;
  BlockingMode blocking = BlockingMode::Off;
  /// Tile height for BlockingMode::Fixed (rows along the outer axis).
  long long blocking_tile_rows = 0;

  SimulationOptions& with_threads(int t) {
    threads = t;
    return *this;
  }
  SimulationOptions& with_pin(support::PinPolicy p) {
    pin = p;
    return *this;
  }
  SimulationOptions& with_blocking(BlockingMode m, long long tile_rows = 0) {
    blocking = m;
    blocking_tile_rows = tile_rows;
    return *this;
  }
};

class Simulation {
 public:
  /// When `opts.resilience.restart_from` names a checkpoint directory, the
  /// simulation restores φ/µ/step/time (and dt, recompiling if a shrink had
  /// been applied) from it; skip init_*() in that case.
  Simulation(GrandChemModel model, const SimulationOptions& opts);

  const GrandChemModel& model() const { return driver_.model(); }
  const CompiledModel& compiled() const { return driver_.compiled(); }

  /// Current state (reads after the most recent completed step).
  Array& phi() { return driver_.phi(0); }
  Array& mu() { return driver_.mu(0); }
  const Array& phi() const { return driver_.phi(0); }
  const Array& mu() const { return driver_.mu(0); }

  /// Sets φ/µ via a callback over interior cells, then fills ghosts.
  /// The callback returns the value for (x, y, z, component).
  void init_phi(const DistributedSimulation::CellFn& f) {
    driver_.init_phi(f);
  }
  void init_mu(const DistributedSimulation::CellFn& f) {
    driver_.init_mu(f);
  }

  /// Advances `n` time steps and returns the cumulative run report (all
  /// steps since construction, so repeated bursts keep one consistent
  /// accounting).
  obs::RunReport run(int n) { return driver_.run(n); }

  long long step_count() const { return driver_.step_count(); }
  double time() const { return driver_.time(); }
  double dt() const { return driver_.dt(); }

  /// Cumulative report without advancing time (equals the last run()'s
  /// return value).
  obs::RunReport report() const { return driver_.report(); }
  const obs::Registry& registry() const { return driver_.registry(); }
  const obs::TraceRecorder& tracer() const { return driver_.tracer(); }
  const obs::HealthMonitor& health() const { return driver_.health(); }
  const obs::ResilienceStats& resilience_stats() const {
    return driver_.resilience_stats();
  }

  const perf::BlockingPlan& blocking_plan() const {
    return driver_.blocking_plan();
  }
  bool blocking_active() const { return driver_.blocking_active(); }
  /// The pool (null when threads == 1) — exposed for placement inspection.
  const ThreadPool* pool() const { return driver_.pool(); }

  void set_progress(ProgressOptions p) { driver_.set_progress(std::move(p)); }

 private:
  DistributedSimulation driver_;
};

// --- initial-condition helpers ----------------------------------------------

/// Smooth interface profile: 1 inside (d < 0), 0 outside, sinusoidal ramp
/// of width `w` (the obstacle potential's equilibrium profile).
double interface_profile(double signed_distance, double width);

}  // namespace pfc::app
