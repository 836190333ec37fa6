// Static-dispatch equivalence tests: statically-owned slab launches over a
// pinned, first-touch placed pool must reproduce the serial reference step
// order bitwise, and so must dynamic chunked dispatch.
#include <gtest/gtest.h>

#include <cmath>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"

namespace pfc::app {
namespace {

void init_disk(Simulation& sim, double cx, double cy, double r) {
  sim.init_phi([&](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r;
    const double solid = interface_profile(d, 6.0);
    if (c == 0) return 1.0 - solid;
    return c == 1 ? solid : 0.0;
  });
  sim.init_mu([](long long x, long long, long long, int) {
    return 0.01 * std::sin(0.3 * double(x));
  });
}

TEST(ThreadedStaticBitwise, PinnedStaticMatchesSerial) {
  // Static slab ownership + compact pinning + first-touch placement must
  // not perturb a single bit relative to the serial reference.
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  SimulationOptions serial;
  serial.cells = {40, 40, 1};
  serial.threads = 1;
  SimulationOptions par = serial;
  par.threads = 4;
  par.pin = support::PinPolicy::Compact;
  par.dispatch = Dispatch::Static;
  par.first_touch = true;
  Simulation s1(m, serial), s4(m, par);
  for (Simulation* s : {&s1, &s4}) init_disk(*s, 20, 20, 10);
  s1.run(15);
  s4.run(15);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(s1.phi(), s4.phi()), 0.0);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(s1.mu(), s4.mu()), 0.0);
}

TEST(ThreadedStaticBitwise, DynamicAndStaticDispatchAgree) {
  GrandChemParams p = make_two_phase(2);
  GrandChemModel m(p);
  SimulationOptions dyn;
  dyn.cells = {40, 32, 1};
  dyn.threads = 3;
  dyn.dispatch = Dispatch::Dynamic;
  SimulationOptions stat = dyn;
  stat.dispatch = Dispatch::Static;
  Simulation sd(m, dyn), ss(m, stat);
  for (Simulation* s : {&sd, &ss}) init_disk(*s, 20, 16, 9);
  sd.run(10);
  ss.run(10);
  EXPECT_DOUBLE_EQ(Array::max_abs_diff(sd.phi(), ss.phi()), 0.0);
}

}  // namespace
}  // namespace pfc::app
