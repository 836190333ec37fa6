// Observability subsystem: registry hierarchy, counter determinism under
// the thread pool, JSON round-trips, and the driver/compiler reporting
// contract (RunReport kernel names == CompiledModel kernel IR names).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/registry.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/thread_pool.hpp"

namespace pfc::obs {
namespace {

TEST(ObsRegistryTest, ScopedTimersComposeHierarchicalPaths) {
  Registry reg;
  {
    ScopedTimer outer(reg, "step");
    {
      ScopedTimer inner(reg, "kernel");
      ScopedTimer leaf(reg, "phi_full");
      EXPECT_EQ(leaf.path(), "step/kernel/phi_full");
    }
    ScopedTimer sibling(reg, "exchange");
    EXPECT_EQ(sibling.path(), "step/exchange");
  }
  const auto timers = reg.timers();
  ASSERT_TRUE(timers.count("step"));
  ASSERT_TRUE(timers.count("step/kernel"));
  ASSERT_TRUE(timers.count("step/kernel/phi_full"));
  ASSERT_TRUE(timers.count("step/exchange"));
  EXPECT_EQ(timers.at("step").count, 1u);
  // a parent's accumulated time covers its children
  EXPECT_GE(timers.at("step").seconds,
            timers.at("step/kernel/phi_full").seconds);
}

TEST(ObsRegistryTest, ScopesOfDifferentRegistriesDoNotNest) {
  Registry a, b;
  ScopedTimer ta(a, "outer");
  ScopedTimer tb(b, "inner");
  EXPECT_EQ(tb.path(), "inner") << "foreign registry must start a new root";
}

TEST(ObsRegistryTest, StepRingWrapsKeepingNewestOldestFirst) {
  Registry reg(4);
  for (long long i = 0; i < 10; ++i) {
    StepStats s;
    s.step = i;
    s.cell_updates = std::uint64_t(i) * 100;
    reg.push_step(s);
  }
  EXPECT_EQ(reg.steps_recorded(), 10);
  const auto recent = reg.recent_steps();
  ASSERT_EQ(recent.size(), 4u) << "ring must cap at its capacity";
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i].step, (long long)(6 + i))
        << "oldest-first order after wraparound";
    EXPECT_EQ(recent[i].cell_updates, std::uint64_t(6 + i) * 100);
  }
  // exactly at the wrap boundary: capacity pushes leave 0..3 in order
  Registry exact(4);
  for (long long i = 0; i < 4; ++i) {
    StepStats s;
    s.step = i;
    exact.push_step(s);
  }
  const auto full = exact.recent_steps();
  ASSERT_EQ(full.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(full[i].step, (long long)(i));
  }
}

TEST(ObsRegistryTest, CounterDeterministicAcrossThreads) {
  Registry reg;
  Counter& c = reg.counter("updates");
  ThreadPool pool(4);
  const std::int64_t n = 100000;
  pool.parallel_for(0, n, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) c.add(2);
  });
  pool.run_on_all([&](int) { c.add(1); });
  EXPECT_EQ(c.value(), std::uint64_t(2 * n) + std::uint64_t(pool.num_threads()));
  EXPECT_EQ(reg.counter_value("updates"), c.value());
}

TEST(ObsRegistryTest, SafeRateGuardsEmptyDenominators) {
  EXPECT_EQ(safe_rate(5.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, -1.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(6.0, 2.0), 3.0);
  RunReport empty;
  EXPECT_EQ(empty.mlups(), 0.0);
  EXPECT_EQ(empty.exchange_bytes_per_second(), 0.0);
}

TEST(ObsRegistryTest, SafeRateGuardsNonFiniteOperands) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(safe_rate(inf, 2.0), 0.0);
  EXPECT_EQ(safe_rate(std::nan(""), 2.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, inf), 0.0);
  EXPECT_EQ(safe_rate(0.0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(5.0, std::numeric_limits<double>::denorm_min() * 0.0),
            0.0);
  // signed numerators pass through: rates may legitimately be deltas
  EXPECT_DOUBLE_EQ(safe_rate(-6.0, 2.0), -3.0);
}

TEST(ObsRegistryTest, StepRingBufferKeepsTail) {
  Registry reg(/*ring_capacity=*/4);
  for (long long s = 1; s <= 10; ++s) {
    reg.push_step({s, double(s), 0.0, 0, 100});
  }
  EXPECT_EQ(reg.steps_recorded(), 10);
  const auto steps = reg.recent_steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps.front().step, 7);
  EXPECT_EQ(steps.back().step, 10);
  EXPECT_DOUBLE_EQ(steps.back().kernel_seconds, 10.0);
}

TEST(ObsJsonTest, RoundTripPreservesStructure) {
  Json j = Json::object()
               .set("schema", Json(kReportSchema))
               .set("pi", Json(3.141592653589793))
               .set("count", Json(std::uint64_t(42)))
               .set("flag", Json(true))
               .set("text", Json("line\n\"quoted\"\ttab"))
               .set("arr", Json::array().push(Json(1)).push(
                               Json::object().set("k", Json(2.5))));
  std::string err;
  const Json back = Json::parse(j.dump(2), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(back == j);
  // compact form round-trips too
  const Json back2 = Json::parse(j.dump(-1), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(back2 == j);
}

TEST(ObsJsonTest, ParseRejectsMalformedInput) {
  std::string err;
  Json::parse("{\"a\": }", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  Json::parse("{} trailing", &err);
  EXPECT_FALSE(err.empty());
}

TEST(ObsJsonTest, ParseRejectsNestingBeyondTheDepthCap) {
  // A million open brackets: an error, not a stack overflow.
  std::string err;
  const Json deep = Json::parse(std::string(1000000, '['), &err);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(deep.kind(), Json::Kind::Null);
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;

  // Exactly at the cap still parses; one level more does not.
  const auto nested = [](int levels) {
    return std::string(std::size_t(levels), '[') +
           std::string(std::size_t(levels), ']');
  };
  Json::parse(nested(kJsonMaxDepth), &err);
  EXPECT_TRUE(err.empty()) << err;
  Json::parse(nested(kJsonMaxDepth + 1), &err);
  EXPECT_FALSE(err.empty());
}

TEST(ObsReportTest, RunReportJsonHasSharedSchema) {
  RunReport r;
  r.name = "test";
  r.steps = 3;
  r.cells_per_step = 100;
  r.cell_updates = 300;
  r.kernel_timers["phi_full"] = {0.25, 3};
  r.kernel_seconds_total = 0.25;
  const Json j = r.to_json();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->str(), kReportSchema);
  EXPECT_EQ(j.find("kind")->str(), "run");
  ASSERT_NE(j.find("timers"), nullptr);
  ASSERT_NE(j.find("timers")->find("kernel/phi_full"), nullptr);
  ASSERT_NE(j.find("counters"), nullptr);
  EXPECT_EQ(j.find("counters")->find("cell_updates")->number(), 300.0);
  ASSERT_NE(j.find("derived"), nullptr);
  EXPECT_NEAR(j.find("derived")->find("mlups")->number(), 300.0 / 0.25 / 1e6,
              1e-12);
}

app::SimulationOptions interp_opts(bool split) {
  app::SimulationOptions o;
  o.with_cells(24, 24);
  o.compile.backend = app::Backend::Interpreter;
  o.compile.split_phi = split;
  o.compile.split_mu = split;
  return o;
}

void init_disk(app::Simulation& sim) {
  sim.init_phi([](long long x, long long y, long long, int c) {
    const double d =
        std::sqrt(double((x - 12) * (x - 12) + (y - 12) * (y - 12))) - 6.0;
    const double s = app::interface_profile(d, 4.0);
    return c == 1 ? s : 1.0 - s;
  });
  sim.init_mu([](long long, long long, long long, int) { return 0.0; });
}

TEST(ObsReportTest, RunReportKernelNamesMatchCompiledKernelIrNames) {
  app::GrandChemModel model(app::make_two_phase(2));
  for (const bool split : {false, true}) {
    app::Simulation sim(model, interp_opts(split));
    init_disk(sim);
    const RunReport rep = sim.run(2);

    std::vector<std::string> ir_names;
    for (const auto& ck : sim.compiled().phi_kernels) {
      ir_names.push_back(ck.ir.name);
    }
    for (const auto& ck : sim.compiled().mu_kernels) {
      ir_names.push_back(ck.ir.name);
    }
    ASSERT_EQ(rep.kernel_timers.size(), ir_names.size())
        << "split=" << split;
    for (const auto& name : ir_names) {
      EXPECT_TRUE(rep.kernel_timers.count(name))
          << "missing kernel timer '" << name << "' (split=" << split << ")";
      EXPECT_EQ(rep.kernel_timers.at(name).count, 2u) << name;
    }
    // and the compile report advertises the same names
    const auto& cr_names = sim.compiled().compile_report().kernel_names;
    ASSERT_EQ(cr_names.size(), ir_names.size());
    for (std::size_t i = 0; i < ir_names.size(); ++i) {
      EXPECT_EQ(cr_names[i], ir_names[i]);
    }
  }
}

TEST(ObsReportTest, HeunSubstepsCountAsOneLatticeUpdate) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::SimulationOptions o = interp_opts(false);
  o.time_scheme = app::TimeScheme::Heun;
  app::Simulation sim(model, o);
  init_disk(sim);
  const RunReport rep = sim.run(3);
  EXPECT_EQ(rep.cell_updates, 3u * 24u * 24u)
      << "Heun's two substeps must count as one update";
  // ...while every kernel really ran twice per step
  for (const auto& [name, t] : rep.kernel_timers) {
    EXPECT_EQ(t.count, 6u) << name;
  }
}

TEST(ObsReportTest, RunZeroStepsYieldsZeroedReport) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts(false));
  init_disk(sim);
  const RunReport rep = sim.run(0);
  EXPECT_EQ(rep.steps, 0);
  EXPECT_EQ(rep.cell_updates, 0u);
  EXPECT_EQ(rep.mlups(), 0.0);
  EXPECT_EQ(rep.kernel_seconds_total, 0.0);
  EXPECT_EQ(rep.block_imbalance, 0.0);
  EXPECT_TRUE(rep.kernel_timers.empty());
  EXPECT_TRUE(rep.model_accuracy.empty());
  EXPECT_EQ(rep.worst_model_drift(), 0.0);
  EXPECT_EQ(rep.health.checks, 0);
  // the empty report still serializes to the full v2 schema
  const Json j = rep.to_json();
  EXPECT_EQ(j.find("schema")->str(), kReportSchema);
  ASSERT_NE(j.find("health"), nullptr);
  EXPECT_EQ(j.find("health")->find("checks")->number(), 0.0);
}

TEST(ObsReportTest, ModelAccuracyCoversEveryGeneratedKernel) {
  app::GrandChemModel model(app::make_two_phase(2));
  for (const bool split : {false, true}) {
    app::Simulation sim(model, interp_opts(split));
    init_disk(sim);
    const RunReport rep = sim.run(2);
    for (const auto& [name, t] : rep.kernel_timers) {
      const auto it = rep.model_accuracy.find("kernel/" + name);
      ASSERT_NE(it, rep.model_accuracy.end())
          << "no model_accuracy entry for kernel " << name;
      EXPECT_TRUE(std::isfinite(it->second.ratio)) << name;
      EXPECT_GE(it->second.ratio, 0.0) << name;
      EXPECT_GE(it->second.predicted_seconds, 0.0) << name;
      EXPECT_DOUBLE_EQ(it->second.measured_seconds, t.seconds) << name;
    }
    EXPECT_TRUE(std::isfinite(rep.worst_model_drift()));
    // the section survives the JSON round trip
    const Json j = rep.to_json();
    ASSERT_NE(j.find("model_accuracy"), nullptr);
    EXPECT_EQ(j.find("model_accuracy")->items().size(),
              rep.model_accuracy.size());
    ASSERT_NE(j.find("derived")->find("worst_model_drift"), nullptr);
  }
}

TEST(ObsReportTest, CumulativeAcrossBursts) {
  app::GrandChemModel model(app::make_two_phase(2));
  app::Simulation sim(model, interp_opts(false));
  init_disk(sim);
  const RunReport r1 = sim.run(2);
  const RunReport r2 = sim.run(3);
  EXPECT_EQ(r1.steps, 2);
  EXPECT_EQ(r2.steps, 5);
  EXPECT_GE(r2.kernel_seconds_total, r1.kernel_seconds_total);
  EXPECT_EQ(r2.cell_updates, 5u * 24u * 24u);
}

}  // namespace
}  // namespace pfc::obs
