// One driver over every layout: Heun, overlap and the rank's thread pool in
// multi-block runs, checked against the single-block facade and against
// each other. The JIT compiles without FMA contraction so that block-edge
// cells (the kernels' scalar remainder loop) round like the vector body.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"

namespace pfc::app {
namespace {

double phi_init(long long x, long long y, long long, int c) {
  const double d = std::sqrt(double((x - 16) * (x - 16) + (y - 16) * (y - 16)));
  const double solid = interface_profile(d - 8.0, 10.0);
  return c == 1 ? solid : 1.0 - solid;
}

double mu_init(long long x, long long y, long long, int) {
  return 0.01 * std::sin(0.2 * double(x)) * std::cos(0.2 * double(y));
}

CompileOptions no_contraction() {
  CompileOptions c;
  c.jit_extra_flags = "-ffp-contract=off";
  return c;
}

DistributedOptions heun_blocks(std::array<int, 3> blocks) {
  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = blocks;
  o.time_scheme = TimeScheme::Heun;
  o.compile = no_contraction();
  return o;
}

/// Runs `steps` on `ranks` in-process ranks and returns rank 0's gathered φ.
std::vector<double> run_ranks(const GrandChemModel& model,
                              const DistributedOptions& o, int ranks,
                              int steps) {
  std::vector<double> phi;
  mpi::run(ranks, [&](mpi::Comm& comm) {
    DistributedSimulation dist(model, o, &comm);
    dist.init(&phi_init, &mu_init);
    dist.run(steps);
    std::vector<double> got = dist.gather_phi();
    if (comm.rank() == 0) phi = std::move(got);
  });
  return phi;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DistributedHeun, TwoByTwoBlocksOnTwoRanksMatchSingleBlock) {
  GrandChemModel model(make_two_phase(2));
  SimulationOptions so;
  so.cells = {32, 32, 1};
  so.time_scheme = TimeScheme::Heun;
  so.compile = no_contraction();
  Simulation single(model, so);
  single.init_phi(&phi_init);
  single.init_mu(&mu_init);
  single.run(8);

  const std::vector<double> got =
      run_ranks(model, heun_blocks({2, 2, 1}), 2, 8);
  const Array& ref = single.phi();
  ASSERT_EQ(got.size(), std::size_t(32 * 32 * ref.components()));
  double max_err = 0.0;
  for (int c = 0; c < ref.components(); ++c) {
    for (long long y = 0; y < 32; ++y) {
      for (long long x = 0; x < 32; ++x) {
        const double g = got[std::size_t(x + 32 * y + 32 * 32 * c)];
        max_err = std::max(max_err, std::abs(g - ref.at(x, y, 0, c)));
      }
    }
  }
  EXPECT_LE(max_err, 1e-13);
}

TEST(DistributedHeun, OverlapBitwiseOnFourRanks) {
  GrandChemModel model(make_two_phase(2));
  DistributedOptions o = heun_blocks({4, 2, 1});
  const std::vector<double> sync = run_ranks(model, o, 4, 6);
  o.overlap = OverlapMode::InteriorFrontier;
  const std::vector<double> overlapped = run_ranks(model, o, 4, 6);
  ASSERT_FALSE(sync.empty());
  EXPECT_TRUE(bitwise_equal(sync, overlapped))
      << "Heun with interior/frontier overlap must match the synchronous "
         "exchange bit for bit";
}

TEST(DistributedThreads, MultiBlockTwoThreadsBitwise) {
  GrandChemModel model(make_two_phase(2));
  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile = no_contraction();
  o.compile.split_phi = true;  // staggered flux arrays in every block
  o.compile.split_mu = true;
  const std::vector<double> one = run_ranks(model, o, 2, 6);
  o.threads = 2;
  const std::vector<double> two = run_ranks(model, o, 2, 6);
  ASSERT_FALSE(one.empty());
  EXPECT_TRUE(bitwise_equal(one, two))
      << "static slab launches on the rank's pool must not change a bit";

  DistributedSimulation probe(model, o, nullptr);
  ASSERT_NE(probe.pool(), nullptr);
  const obs::RunReport rep = probe.run(0);
  EXPECT_EQ(rep.threading.threads, 2);
  EXPECT_EQ(rep.threading.dispatch, "static");
  EXPECT_FALSE(probe.blocking_active());
  EXPECT_FALSE(probe.blocking_plan().reason.empty())
      << "a multi-block layout must say why temporal blocking is off";
}

}  // namespace
}  // namespace pfc::app
