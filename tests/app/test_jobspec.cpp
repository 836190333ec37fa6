// Options JSON round-trips (the serve daemon's lossless-config contract)
// and the pfc-jobspec-v1 schema: strict decoding, validation, and the
// deterministic run_job engine.
#include <gtest/gtest.h>

#include <string>

#include "pfc/app/distributed.hpp"
#include "pfc/app/jobspec.hpp"
#include "pfc/app/options_json.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/json.hpp"

namespace pfc::app {
namespace {

using obs::Json;

/// Field-for-field equality via the lossless JSON form: to_json writes
/// every member, so equal JSON means equal options.
void expect_roundtrip(const SimulationOptions& opts) {
  const Json j = simulation_options_to_json(opts);
  const SimulationOptions back = simulation_options_from_json(j, "opts");
  EXPECT_TRUE(j == simulation_options_to_json(back)) << j.dump(2);
}

void expect_roundtrip(const DistributedOptions& opts) {
  const Json j = distributed_options_to_json(opts);
  const DistributedOptions back = distributed_options_from_json(j, "opts");
  EXPECT_TRUE(j == distributed_options_to_json(back)) << j.dump(2);
}

TEST(OptionsJson, DefaultsRoundTrip) {
  expect_roundtrip(SimulationOptions{});
  expect_roundtrip(DistributedOptions{});
}

// The exact presets the examples construct (quickstart single, quickstart
// --overlap, distributed_demo) survive to_json -> from_json unchanged.
TEST(OptionsJson, ExamplePresetsRoundTrip) {
  auto health = obs::HealthOptions{}.enable().every(100);

  auto quickstart = SimulationOptions{}.with_cells(128, 128).with_health(health);
  quickstart.threads = 4;
  quickstart.with_trace(obs::TraceOptions{}.enable().with_path("trace.json"));
  quickstart.with_resilience(resilience::ResilienceOptions{}.every(50).with_directory(
      "quickstart_ckpt"));
  expect_roundtrip(quickstart);

  auto overlap = DistributedOptions{}
                     .with_cells(128, 128)
                     .with_blocks(2, 2)
                     .with_overlap(OverlapMode::InteriorFrontier)
                     .with_threads(4)
                     .with_health(health);
  expect_roundtrip(overlap);

  auto demo = DistributedOptions{}
                  .with_cells(96, 96)
                  .with_blocks(2, 2)
                  .with_health(obs::HealthOptions{}.enable().with_policy(
                      obs::HealthPolicy::Throw))
                  .with_overlap(OverlapMode::InteriorFrontier)
                  .with_threads(2);
  expect_roundtrip(demo);
}

TEST(OptionsJson, EveryFieldSurvives) {
  SimulationOptions opts;
  opts.cells = {48, 32, 4};
  opts.boundary = grid::BoundaryKind::ZeroGradient;
  opts.threads = 3;
  opts.time_scheme = TimeScheme::Heun;
  opts.compile.backend = Backend::Interpreter;
  opts.compile.split_phi = true;
  opts.compile.split_mu = true;
  opts.compile.fast_math = true;
  opts.compile.cse = false;
  opts.compile.hoist_invariants = false;
  opts.compile.clamp_phi = false;
  opts.compile.schedule = true;
  opts.compile.schedule_beam_width = 7;
  opts.compile.vector_width = 8;
  opts.compile.streaming_stores = true;
  opts.compile.jit_extra_flags = "-ffp-contract=off";
  opts.compile.fail_jit_attempts = 2;
  opts.compile.cache_dir = "/tmp/pfc_cache";
  opts.compile.cache_max_bytes = 1234567;
  opts.trace.enabled = true;
  opts.trace.sample_every = 5;
  opts.trace.max_events = 999;
  opts.trace.path = "t.json";
  opts.health.enabled = true;
  opts.health.every_n_steps = 7;
  opts.health.policy = obs::HealthPolicy::Recover;
  opts.health.phase_sum_tol = 1e-7;
  opts.machine = perf::MachineModel::by_name("zen2");
  opts.machine.cores = 48;
  opts.resilience.checkpoint_every = 11;
  opts.resilience.directory = "ckpt";
  opts.resilience.restart_from = "ckpt_old";
  opts.resilience.max_retries = 5;
  opts.resilience.dt_shrink = 0.5;
  opts.resilience.faults.nan_step = 13;
  opts.resilience.faults.nan_cell = {1, 2, 3};
  opts.resilience.faults.fail_jit_attempts = 1;
  opts.resilience.faults.truncate_checkpoint = true;
  expect_roundtrip(opts);

  DistributedOptions dopts;
  dopts.cells = {96, 96, 1};
  dopts.blocks_per_dim = {4, 2, 1};
  dopts.overlap = OverlapMode::InteriorFrontier;
  dopts.threads = 2;
  dopts.compile.fast_math = true;
  expect_roundtrip(dopts);
}

TEST(OptionsJson, MachinePresetStringAccepted) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("machine", Json("zen2"));
  const SimulationOptions back = simulation_options_from_json(j, "opts");
  EXPECT_EQ(back.machine.name, perf::MachineModel::by_name("zen2").name);
}

TEST(OptionsJson, UnknownKeyNamesThePath) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("bogus_knob", Json(1.0));
  try {
    simulation_options_from_json(j, "opts");
    FAIL() << "unknown key must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_knob"), std::string::npos)
        << e.what();
  }
}

// Distributed runs step with Heun too; the scheme survives the codec.
TEST(DriverOptionsJson, DistributedTimeSchemeRoundTrips) {
  DistributedOptions o;
  o.time_scheme = TimeScheme::Heun;
  expect_roundtrip(o);
  EXPECT_EQ(distributed_options_from_json(distributed_options_to_json(o),
                                          "opts")
                .time_scheme,
            TimeScheme::Heun);
}

// A forest block carries its own global offset; the single-block options
// have no such knob, so the strict decoder refuses it like any unknown key.
TEST(DriverOptionsJson, BlockOffsetKeyRejected) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("block_offset", Json::array().push(Json(8.0)).push(Json(16.0))
                            .push(Json(0.0)));
  EXPECT_THROW(simulation_options_from_json(j, "opts"), Error);
}

TEST(OptionsJson, TypeMismatchNamesThePath) {
  Json j = simulation_options_to_json(SimulationOptions{});
  j.set("threads", Json("four"));
  try {
    simulation_options_from_json(j, "opts");
    FAIL() << "type mismatch must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos)
        << e.what();
  }
}

TEST(OptionsJson, BadEnumRejected) {
  Json j = compile_options_to_json(CompileOptions{});
  j.set("backend", Json("fortran"));
  EXPECT_THROW(compile_options_from_json(j, "compile"), Error);
}

TEST(JobSpec, RoundTripsLosslessly) {
  JobSpec spec;
  spec.name = "roundtrip";
  spec.steps = 42;
  spec.mode = "distributed";
  spec.model.preset = "p1";
  spec.model.dims = 3;
  spec.model.dt = 0.005;
  spec.model.rng_seed = 7;  // epsilon/noise left unset: absence round-trips
  spec.initial.kind = "uniform";
  spec.initial.solid_phase = 0;
  spec.distributed.threads = 2;

  const Json j = spec.to_json();
  const JobSpec back = JobSpec::from_json(j);
  EXPECT_TRUE(j == back.to_json()) << j.dump(2);
  EXPECT_TRUE(back.model.dt.has_value());
  EXPECT_FALSE(back.model.epsilon.has_value());
}

TEST(JobSpec, RequiresSchemaTag) {
  Json j = JobSpec{}.to_json();
  j.set("schema", Json("pfc-jobspec-v0"));
  EXPECT_THROW(JobSpec::from_json(j), Error);
  EXPECT_THROW(JobSpec::parse("{}"), Error);
  EXPECT_THROW(JobSpec::parse("not json"), Error);
}

TEST(JobSpec, ValidateRejectsBadValues) {
  {
    JobSpec s;
    s.model.preset = "unknown_model";
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.mode = "mpi";
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.model.dt = -0.5;
    EXPECT_THROW(s.validate(), Error);
  }
  {
    JobSpec s;
    s.initial.radius_fraction = 0.9;
    EXPECT_THROW(s.validate(), Error);
  }
}

TEST(JobSpec, MakeParamsAppliesOverrides) {
  JobSpec spec;
  spec.model.preset = "two_phase";
  spec.model.dims = 2;
  spec.model.dt = 0.004;
  spec.model.epsilon = 3.0;
  spec.model.rng_seed = 99;
  const GrandChemParams p = spec.make_params();
  EXPECT_EQ(p.dims, 2);
  EXPECT_DOUBLE_EQ(p.dt, 0.004);
  EXPECT_DOUBLE_EQ(p.epsilon, 3.0);
  EXPECT_EQ(p.rng_seed, 99u);

  JobSpec bad = spec;
  bad.initial.solid_phase = 99;  // >= p.phases
  EXPECT_THROW(bad.make_params(), Error);
}

TEST(JobSpec, RunJobIsDeterministic) {
  JobSpec spec;
  spec.name = "det";
  spec.steps = 2;
  spec.simulation.cells = {16, 16, 1};
  spec.simulation.compile.backend = Backend::Interpreter;

  const JobResult a = run_job(spec);
  const JobResult b = run_job(spec);
  EXPECT_EQ(a.steps, 2);
  EXPECT_EQ(a.run.steps, 2);
  EXPECT_NE(a.phi_checksum, 0u);
  EXPECT_EQ(a.phi_checksum, b.phi_checksum);
  EXPECT_EQ(a.mu_checksum, b.mu_checksum);

  const Json j = a.to_json();
  ASSERT_NE(j.find("phi_fnv1a64"), nullptr);
  EXPECT_EQ(j.find("phi_fnv1a64")->str().size(), 16u);
}

}  // namespace
}  // namespace pfc::app
