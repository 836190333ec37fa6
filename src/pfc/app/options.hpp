// Shared driver configuration: the domain-level knobs every driver needs
// (cell extents, boundary handling, code-generation options), factored out
// of SimulationOptions / DistributedOptions. Plain aggregate — member
// assignment and brace-init both keep working — with named-setter chaining
// for call sites that prefer fluent construction:
//
//   auto opts = app::SimulationOptions{}.with_cells(128, 128).with_threads(4);
#pragma once

#include <array>

#include "pfc/app/compiler.hpp"
#include "pfc/grid/boundary.hpp"
#include "pfc/obs/health.hpp"
#include "pfc/obs/trace.hpp"
#include "pfc/perf/machine.hpp"
#include "pfc/resilience/resilience.hpp"

namespace pfc::app {

/// Explicit time integrator. Heun (RK2) reuses the generated Euler-update
/// kernels: predictor step, corrector step, then averaging — the paper's
/// "further temporal discretization options" extension, realized purely at
/// the driver level.
enum class TimeScheme { Euler, Heun };

/// How kernel launches split the outer loop across the pool.
enum class Dispatch {
  /// parallel_for chunks re-enqueued per launch (the seed behaviour).
  Dynamic,
  /// Static slab ownership: worker w runs the same rows for every launch
  /// of every step — the rows first-touch placed on w's NUMA node.
  Static,
};

struct DomainOptions {
  /// Interior cells. For distributed runs this is the *global* domain; the
  /// block forest decomposes it.
  std::array<long long, 3> cells{64, 64, 1};
  grid::BoundaryKind boundary = grid::BoundaryKind::Periodic;
  CompileOptions compile;
  /// Span-timeline recording (chrome://tracing JSON); off by default.
  obs::TraceOptions trace;
  /// In-situ physics health monitoring; off by default.
  obs::HealthOptions health;
  /// Machine the ECM/drift layer models this run against. Defaults to the
  /// PFC_MACHINE env preset (perf::default_machine()), else Skylake-SP.
  perf::MachineModel machine = perf::default_machine();
  /// Checkpoint/restart and health-driven recovery; off by default.
  resilience::ResilienceOptions resilience;
};

/// DomainOptions plus its named setters, each returning the driver's own
/// options type (CRTP) so a fluent chain keeps the driver-specific setters
/// in reach.
template <class Derived>
struct DomainSetters : DomainOptions {
  Derived& with_cells(long long nx, long long ny, long long nz = 1) {
    cells = {nx, ny, nz};
    return self();
  }
  Derived& with_boundary(grid::BoundaryKind b) {
    boundary = b;
    return self();
  }
  Derived& with_compile(const CompileOptions& c) {
    compile = c;
    return self();
  }
  Derived& with_trace(const obs::TraceOptions& t) {
    trace = t;
    return self();
  }
  Derived& with_health(const obs::HealthOptions& h) {
    health = h;
    return self();
  }
  Derived& with_machine(const perf::MachineModel& m) {
    machine = m;
    return self();
  }
  Derived& with_resilience(const resilience::ResilienceOptions& r) {
    resilience = r;
    return self();
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace pfc::app
