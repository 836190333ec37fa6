#include "pfc/app/simulation.hpp"

#include <cmath>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

namespace pfc::app {

namespace {

/// The whole domain as the only block of a 1×1×1 forest.
DistributedOptions single_block(const SimulationOptions& o) {
  DistributedOptions d;
  static_cast<DomainOptions&>(d) = o;
  d.blocks_per_dim = {1, 1, 1};
  d.threads = o.threads;
  d.time_scheme = o.time_scheme;
  return d;
}

}  // namespace

double interface_profile(double signed_distance, double width) {
  if (signed_distance <= -width / 2) return 1.0;
  if (signed_distance >= width / 2) return 0.0;
  return 0.5 - 0.5 * std::sin(M_PI * signed_distance / width);
}

Simulation::Simulation(GrandChemModel model, const SimulationOptions& opts)
    : driver_(std::move(model), single_block(opts), /*comm=*/nullptr,
              {opts.pin, opts.first_touch, opts.dispatch, opts.blocking,
               opts.blocking_tile_rows},
              "simulation") {}

}  // namespace pfc::app
