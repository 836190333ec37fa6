// Distributed-vs-single-block cross-validation: the strongest integration
// test of the runtime — a multi-rank, multi-block run must reproduce the
// single-block trajectory exactly (same kernels, same global coordinates).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "pfc/app/simulation.hpp"
#include "pfc/app/params.hpp"
#include "pfc/obs/report.hpp"

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

std::vector<double> reference_run(const GrandChemModel& model, int steps) {
  SimulationOptions o;
  o.cells = {32, 32, 1};
  Simulation sim(model, o);
  sim.init_phi(&phi_init);
  sim.init_mu(&mu_init);
  sim.run(steps);
  std::vector<double> out;
  for (int c = 0; c < sim.phi().components(); ++c) {
    for (long long y = 0; y < 32; ++y) {
      for (long long x = 0; x < 32; ++x) {
        out.push_back(sim.phi().at(x, y, 0, c));
      }
    }
  }
  return out;
}

TEST(DistributedTest, SerialMultiBlockMatchesSingleBlock) {
  GrandChemModel model(make_two_phase(2));
  const auto ref = reference_run(model, 10);

  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  DistributedSimulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  dist.run(10);
  const auto got = dist.gather_phi();  // layout (x + 32(y + 32 z), c)

  ASSERT_EQ(got.size(), ref.size());
  double max_err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - ref[i]));
  }
  EXPECT_LT(max_err, 1e-13);
}

TEST(DistributedTest, TwoRanksMatchSingleBlock) {
  GrandChemModel model(make_two_phase(2));
  const auto ref = reference_run(model, 8);

  mpi::run(2, [&](mpi::Comm& comm) {
    DistributedOptions o;
    o.cells = {32, 32, 1};
    o.blocks_per_dim = {2, 2, 1};
    DistributedSimulation dist(model, o, &comm);
    EXPECT_EQ(dist.num_local_blocks(), 2);
    dist.init(&phi_init, &mu_init);
    const obs::RunReport rep = dist.run(8);
    // ghost bytes crossed a rank, so the netmodel entry appears (no
    // ASSERT here: every rank must reach the collective gather below)
    EXPECT_GT(rep.exchange_bytes, 0u);
    const auto ex = rep.model_accuracy.find("exchange");
    EXPECT_TRUE(ex != rep.model_accuracy.end());
    if (ex != rep.model_accuracy.end()) {
      EXPECT_GT(ex->second.predicted_seconds, 0.0);
    }
    const auto got = dist.gather_phi();
    ASSERT_EQ(got.size(), ref.size());
    double max_err = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      max_err = std::max(max_err, std::abs(got[i] - ref[i]));
    }
    EXPECT_LT(max_err, 1e-13) << "rank " << comm.rank();
  });
}

TEST(DistributedTest, FourRanksConserveSimplexGlobally) {
  GrandChemModel model(make_two_phase(2));
  mpi::run(4, [&](mpi::Comm& comm) {
    DistributedOptions o;
    o.cells = {32, 32, 1};
    o.blocks_per_dim = {4, 2, 1};
    DistributedSimulation dist(model, o, &comm);
    dist.init(&phi_init, &mu_init);
    const obs::RunReport rep = dist.run(12);
    const double s0 = comm.allreduce_sum(dist.local_phi_sum(0));
    const double s1 = comm.allreduce_sum(dist.local_phi_sum(1));
    EXPECT_NEAR(s0 + s1, 32.0 * 32.0, 1e-8);
    // the report carries the communication volume of this rank
    EXPECT_GT(rep.exchange_bytes, 0u);
    EXPECT_EQ(rep.steps, 12);
    EXPECT_GT(rep.mlups(), 0.0);
    EXPECT_GE(rep.block_imbalance, 1.0);
  });
}

TEST(DistributedTest, SplitKernelsDistributedMatchReference) {
  GrandChemModel model(make_two_phase(2));
  const auto ref = reference_run(model, 6);
  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 1, 1};
  o.compile.split_phi = true;
  o.compile.split_mu = true;
  DistributedSimulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  dist.run(6);
  const auto got = dist.gather_phi();
  double max_err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - ref[i]));
  }
  EXPECT_LT(max_err, 1e-9);
}

TEST(DistributedTest, RunZeroStepsYieldsZeroedReport) {
  GrandChemModel model(make_two_phase(2));
  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile.backend = Backend::Interpreter;
  DistributedSimulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  const obs::RunReport rep = dist.run(0);
  EXPECT_EQ(rep.steps, 0);
  EXPECT_EQ(rep.cell_updates, 0u);
  EXPECT_EQ(rep.mlups(), 0.0);
  EXPECT_EQ(rep.kernel_seconds_total, 0.0);
  EXPECT_EQ(rep.block_imbalance, 0.0);
  EXPECT_TRUE(rep.kernel_timers.empty());
  EXPECT_EQ(rep.health.checks, 0);
  EXPECT_EQ(rep.num_blocks, 4);
  // init's ghost exchange is not a timed step: no drift entries yet
  EXPECT_EQ(rep.model_accuracy.count("exchange"), 0u);
}

TEST(DistributedTest, TracedHealthMonitoredMultiBlockRun) {
  GrandChemModel model(make_two_phase(2));
  DistributedOptions o;
  o.cells = {32, 32, 1};
  o.blocks_per_dim = {2, 2, 1};
  o.compile.backend = Backend::Interpreter;
  o.with_trace(obs::TraceOptions{}.enable().with_path(
      ::testing::TempDir() + "pfc_test_dist_trace.json"));
  o.with_health(obs::HealthOptions{}.enable());
  DistributedSimulation dist(model, o, nullptr);
  dist.init(&phi_init, &mu_init);
  const obs::RunReport rep = dist.run(3);

  EXPECT_EQ(rep.health.checks, 3);
  EXPECT_EQ(rep.health.total_violations(), 0u);
  for (const auto& [name, t] : rep.kernel_timers) {
    ASSERT_TRUE(rep.model_accuracy.count("kernel/" + name)) << name;
  }
  // a serial run's ghost fills are local copies — no byte crosses a rank,
  // so there is no wire traffic for the netmodel to predict
  EXPECT_EQ(rep.exchange_bytes, 0u);
  EXPECT_EQ(rep.model_accuracy.count("exchange"), 0u);

  // per-block kernel spans and exchange spans land in the timeline
  std::set<double> blocks;
  std::size_t exchange_spans = 0;
  const obs::Json doc = dist.tracer().to_chrome_json();
  for (const obs::Json& e : doc.find("traceEvents")->elements()) {
    const std::string& cat = e.find("cat")->str();
    const obs::Json* args = e.find("args");
    if (cat == "kernel" && args != nullptr && args->find("block")) {
      blocks.insert(args->find("block")->number());
    }
    if (cat == "ghost") ++exchange_spans;
  }
  EXPECT_EQ(blocks.size(), 4u) << "every block must tag its kernel spans";
  EXPECT_EQ(exchange_spans, 6u) << "two exchanges per step";
  std::remove(
      (::testing::TempDir() + "pfc_test_dist_trace.json").c_str());
}

}  // namespace
}  // namespace pfc::app
