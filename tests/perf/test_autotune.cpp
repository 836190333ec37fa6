// Autotuner tests (DESIGN.md §13): candidate codec strictness, deterministic
// enumeration, the baseline-keeps-ties search contract, tuning-cache key
// stability, store/load round-trip, and the corruption/staleness fallback —
// plus the app-level glue (candidate <-> SimulationOptions mapping, the
// knob-independent model hash) and the ctest-chained cache-hit pair
// (PFC_TEST_TUNE_DIR): a warm search populates the cache, the second tune of
// the same preset performs zero measured runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/app/tuning.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/perf/autotune.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::perf {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under /tmp, removed on destruction.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "pfc_tune_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    PFC_REQUIRE(made != nullptr, "mkdtemp failed in test");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

bool is_lower_hex(const std::string& s) {
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

TuneCandidate rich_candidate() {
  TuneCandidate c;
  c.split = true;
  c.vector_width = 4;
  c.streaming_stores = true;
  c.dispatch = "dynamic";
  c.pin = "compact";
  return c;
}

TEST(TuneCandidateCodec, RoundTripsAndRejectsMalformedInput) {
  const TuneCandidate c = rich_candidate();
  const TuneCandidate d = TuneCandidate::from_json(c.to_json(), "test");
  EXPECT_TRUE(c == d);
  EXPECT_EQ(c.label(), d.label());

  obs::Json unknown = c.to_json();
  unknown.set("bogus", obs::Json(1.0));
  EXPECT_THROW(TuneCandidate::from_json(unknown, "test"), Error);

  obs::Json bad_width = c.to_json();
  bad_width.set("vector_width", obs::Json(3.0));
  EXPECT_THROW(TuneCandidate::from_json(bad_width, "test"), Error);

  obs::Json bad_dispatch = c.to_json();
  bad_dispatch.set("dispatch", obs::Json(std::string("sideways")));
  EXPECT_THROW(TuneCandidate::from_json(bad_dispatch, "test"), Error);
}

TEST(TuneSearch, EnumerationIsDeterministicAndPrunesSingleThreadKnobs) {
  TuneOptions o;
  o.max_vector_width = 8;
  o.multi_threaded = false;
  const std::vector<TuneCandidate> a = enumerate_candidates(o);
  const std::vector<TuneCandidate> b = enumerate_candidates(o);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label()) << "index " << i;
  }
  for (const TuneCandidate& c : a) {
    // Driver placement cannot matter without a pool — collapsed.
    EXPECT_EQ(c.dispatch, "static");
    EXPECT_EQ(c.pin, "none");
    EXPECT_TRUE(c.vector_width == 1 || c.vector_width == 2 ||
                c.vector_width == 4 || c.vector_width == 8);
    if (c.vector_width == 1) {
      EXPECT_FALSE(c.streaming_stores);
    }
  }
  // The multi-threaded space is a strict superset: dispatch and pin open up.
  TuneOptions mt = o;
  mt.multi_threaded = true;
  const std::vector<TuneCandidate> m = enumerate_candidates(mt);
  EXPECT_GT(m.size(), a.size());
  bool saw_dynamic = false;
  for (const TuneCandidate& c : m) saw_dynamic |= c.dispatch == "dynamic";
  EXPECT_TRUE(saw_dynamic);
}

TEST(TuneSearch, BaselineIsMeasuredFirstAndKeepsExactTies) {
  TuneOptions o;
  o.budget = 5;
  o.max_vector_width = 4;
  o.multi_threaded = false;
  int calls = 0;
  const TuneResult r = tune(
      o, [](const TuneCandidate&) { return 1.0; },
      [&](const TuneCandidate&) {
        ++calls;
        return 2.5;
      });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(r.measured_runs, 5);
  ASSERT_FALSE(r.ranking.empty());
  // Position 0 is always the caller's own configuration...
  EXPECT_TRUE(r.ranking[0].config == o.baseline);
  EXPECT_TRUE(r.ranking[0].measured);
  // ...and an exact tie resolves toward it: tuned is never slower than the
  // default by construction.
  EXPECT_TRUE(r.best == o.baseline);
  EXPECT_EQ(r.best_mlups, 2.5);
  EXPECT_EQ(r.baseline_mlups, 2.5);
}

TEST(TuneSearch, StrictlyFasterCandidateReplacesBaseline) {
  TuneOptions o;
  o.budget = 10;
  o.max_vector_width = 8;  // 14 candidates, so the budget truncates
  o.multi_threaded = false;
  const TuneResult r = tune(
      o, [](const TuneCandidate&) { return 0.0; },
      [](const TuneCandidate& c) { return c.vector_width > 1 ? 4.0 : 1.0; });
  EXPECT_GT(r.best.vector_width, 1);
  EXPECT_EQ(r.best_mlups, 4.0);
  EXPECT_EQ(r.baseline_mlups, 1.0);
  EXPECT_GE(r.best_mlups, r.baseline_mlups);
  EXPECT_EQ(r.measured_runs, 10);
  EXPECT_GT(r.candidates, r.measured_runs);  // budget truncated the space
}

TEST(TuneSearch, PriorOrdersMeasurementsAfterTheBaseline) {
  TuneOptions o;
  o.budget = 3;
  o.max_vector_width = 2;
  o.multi_threaded = false;
  std::vector<int> measured_widths;
  tune(
      o, [](const TuneCandidate& c) { return double(c.vector_width); },
      [&](const TuneCandidate& c) {
        measured_widths.push_back(c.vector_width);
        return 1.0;
      });
  ASSERT_EQ(measured_widths.size(), 3u);
  EXPECT_EQ(measured_widths[0], 1);  // the baseline itself
  // Highest-prior candidates (width 2) fill the remaining budget.
  EXPECT_EQ(measured_widths[1], 2);
  EXPECT_EQ(measured_widths[2], 2);
}

TEST(TuneCache, KeyIsStableAndContentAddressed) {
  const std::string a = tune_cache_key("model-a", "machine-a");
  EXPECT_EQ(a, tune_cache_key("model-a", "machine-a"));
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(is_lower_hex(a));
  EXPECT_NE(a, tune_cache_key("model-b", "machine-a"));
  EXPECT_NE(a, tune_cache_key("model-a", "machine-b"));
  EXPECT_EQ(tune_cache_path("/some/dir", a), "/some/dir/tune-" + a + ".json");

  const support::Topology topo = support::Topology::detect();
  const MachineModel m;
  EXPECT_EQ(machine_signature(topo, m), machine_signature(topo, m));
  EXPECT_NE(machine_signature(topo, m).find("cores="), std::string::npos);
}

TEST(TuneCache, StoreThenLoadRoundTrips) {
  TempDir dir;
  const std::string key = tune_cache_key("model", "machine");
  TuneCacheEntry e;
  e.best = rich_candidate();
  e.best_mlups = 123.5;
  e.baseline_mlups = 88.25;
  e.measured_runs = 8;
  e.search_seconds = 1.5;
  store_tuned(dir.path, key, e);

  const auto back = load_tuned(dir.path, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->best == e.best);
  EXPECT_EQ(back->best_mlups, e.best_mlups);
  EXPECT_EQ(back->baseline_mlups, e.baseline_mlups);
  EXPECT_EQ(back->measured_runs, e.measured_runs);
  EXPECT_EQ(back->search_seconds, e.search_seconds);
}

TEST(TuneCache, CorruptStaleOrMismatchedEntriesMissToFullSearch) {
  TempDir dir;
  const std::string key = tune_cache_key("model", "machine");
  // Missing file: plain miss.
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());

  // Truncated garbage: parse failure is a miss, not an error.
  {
    std::ofstream out(tune_cache_path(dir.path, key));
    out << "{ \"schema\": \"pfc-tu";
  }
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());

  // A well-formed entry under the wrong key (machine changed, file copied
  // over): the embedded key mismatch makes it stale.
  TuneCacheEntry e;
  e.best = rich_candidate();
  e.best_mlups = 10.0;
  store_tuned(dir.path, key, e);
  const std::string other = tune_cache_key("model", "other-machine");
  fs::copy_file(tune_cache_path(dir.path, key),
                tune_cache_path(dir.path, other),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(load_tuned(dir.path, other).has_value());
  ASSERT_TRUE(load_tuned(dir.path, key).has_value());  // original still fine

  // An entry written before the temporal-blocking axis was retired: its
  // candidate still carries "blocking"/"blocking_tile_rows", which the
  // strict decoder refuses, so it loads as a miss. The same entry without
  // those keys loads.
  const std::string legacy = tune_cache_key("model", "legacy-machine");
  const auto write_legacy = [&](const char* blocking_keys) {
    std::ofstream out(tune_cache_path(dir.path, legacy));
    out << "{\"schema\": \"pfc-tune-v1\", \"key\": \"" << legacy
        << "\", \"best\": {\"split\": false, \"vector_width\": 8, "
           "\"streaming_stores\": false, \"dispatch\": \"static\", "
        << blocking_keys
        << "\"pin\": \"none\"}, \"best_mlups\": 5.0, "
           "\"baseline_mlups\": 5.0, \"measured_runs\": 8, "
           "\"search_seconds\": 1.0}";
  };
  write_legacy("\"blocking\": \"off\", \"blocking_tile_rows\": 0, ");
  EXPECT_FALSE(load_tuned(dir.path, legacy).has_value());
  write_legacy("");
  EXPECT_TRUE(load_tuned(dir.path, legacy).has_value());

  // A schema from the future (or a foreign tool) is stale too.
  {
    std::string text;
    {
      std::ifstream in(tune_cache_path(dir.path, key));
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    std::string::size_type at = text.find("pfc-tune-v1");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string("pfc-tune-v1").size(), "pfc-tune-v9");
    std::ofstream out(tune_cache_path(dir.path, key));
    out << text;
  }
  EXPECT_FALSE(load_tuned(dir.path, key).has_value());
}

TEST(AppTuning, CandidateAndOptionsRoundTrip) {
  const TuneCandidate c = rich_candidate();
  app::SimulationOptions opts;
  app::apply_tune_candidate(c, opts);
  EXPECT_TRUE(app::candidate_from_options(opts) == c);
  EXPECT_TRUE(opts.compile.split_phi);
  EXPECT_EQ(opts.compile.vector_width, 4);
  EXPECT_EQ(opts.dispatch, app::Dispatch::Dynamic);
}

TEST(AppTuning, ModelHashExcludesTunedKnobsButSeesTheProblem) {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions a;
  a.cells = {24, 24, 1};
  const std::string ha = app::tuning_model_hash(model, a);
  EXPECT_EQ(ha.size(), 64u);
  EXPECT_TRUE(is_lower_hex(ha));

  // Every knob the tuner searches maps to the same key...
  app::SimulationOptions b = a;
  app::apply_tune_candidate(rich_candidate(), b);
  EXPECT_EQ(ha, app::tuning_model_hash(model, b));

  // ...while a different problem (domain extents) re-keys.
  app::SimulationOptions c = a;
  c.cells = {48, 24, 1};
  EXPECT_NE(ha, app::tuning_model_hash(model, c));
}

TEST(AppTuning, TuneModeOffIsANoOp) {
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts;
  opts.cells = {16, 16, 1};
  opts.compile.tune = app::TuneMode::Off;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.measured_runs, 0);
}

/// ctest-chained pair (see tests/CMakeLists.txt): the fixture setup runs a
/// full measured search into PFC_TEST_TUNE_DIR; the dependent test re-tunes
/// the identical preset in "cached" mode and must perform zero measured
/// runs. Skipped when run outside the fixture (no env var).
app::SimulationOptions chain_preset(const char* dir) {
  app::SimulationOptions o;
  o.cells = {24, 24, 1};
  o.compile.cache_dir = dir;
  return o;
}

TEST(TuneCacheChain, WarmSearchPopulatesCache) {
  const char* dir = std::getenv("PFC_TEST_TUNE_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "PFC_TEST_TUNE_DIR not set (ctest fixture only)";
  }
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts = chain_preset(dir);
  opts.compile.tune = app::TuneMode::Full;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.mode, "full");
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_GE(stats.measured_runs, 1);
  EXPECT_GE(stats.best_mlups, stats.baseline_mlups);
  // The winner persisted beside the kernel cache.
  const std::string path = perf::tune_cache_path(dir, stats.cache_key);
  EXPECT_TRUE(fs::exists(path)) << path;
}

TEST(TuneCacheChain, SecondTuneZeroMeasuredRuns) {
  const char* dir = std::getenv("PFC_TEST_TUNE_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "PFC_TEST_TUNE_DIR not set (ctest fixture only)";
  }
  app::GrandChemParams params = app::make_p1(2);
  app::GrandChemModel model(params);
  app::SimulationOptions opts = chain_preset(dir);
  opts.compile.tune = app::TuneMode::Cached;
  const obs::TuningStats stats = app::autotune_apply(model, opts);
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.mode, "cached");
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(stats.measured_runs, 0);
  EXPECT_FALSE(stats.best_config.empty());
  EXPECT_GE(stats.best_mlups, stats.baseline_mlups);
}

}  // namespace
}  // namespace pfc::perf
