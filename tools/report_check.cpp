// Validates a pfc-obs report JSON file against the shared schema
// (pfc-obs-report-v7 only — no report is stored across revisions),
// including the optional model_accuracy (ECM/netmodel drift), health,
// resilience, overlap (communication-hiding phase split), cache
// (kernel-cache provenance) and threading (execution resources) sections.
// Run by ctest against the file quickstart emits, so every producer that
// funnels through obs::make_report_json stays honest.
//
// With --trace the argument is instead a chrome://tracing trace file (as
// written by obs::TraceRecorder) and the structure of its traceEvents is
// validated, including that kernel and ghost-exchange spans are present.
//
// With --checkpoint the argument is a checkpoint manifest (as written by
// pfc::resilience::write_checkpoint): schema, required keys, the per-array
// entries (shape/offset/count/checksum format, contiguous offsets) and the
// state file's existence and exact size are validated.
//
// With --require-vector-width the report must additionally carry a
// counters/vector_width entry (either top-level or inside an embedded
// "compile" sub-report, as quickstart writes it) whose value is one of the
// supported SIMD widths {1, 2, 4, 8}. This keeps the compile pipeline's
// vectorization decision visible in every report funnel.
//
// With --require-overlap the report must carry an enabled "overlap"
// section: the interior/frontier phase timers of a communication-
// hiding run. Its internal consistency (hidden_fraction in [0, 1], cell
// counts tiling the local lattice) is validated whenever the section is
// present, flag or not.
//
// With --require-cache the compile report (top-level or embedded under
// "compile") must carry the "cache" section: kernel-cache provenance
// (hit flag, 64-hex content key, process-wide hit/miss/evict/byte
// counters). The section is structurally validated whenever present.
//
// With --require-threading the run report must carry the "threading"
// section (pool width >= 1, pinning/dispatch policy, first-touch flag and
// the temporal-blocking decision). The section is structurally validated
// whenever present, flag or not.
//
// With --jobspec the argument is a pfc-jobspec-v1 file; it is parsed with
// the same strict decoder the serve daemon uses (unknown keys and type
// mismatches are errors) and cross-field validated.
//
// With --metrics the argument is a pfc-serve-metrics-v1 snapshot (what
// the daemon's "metrics" request returns): schema, per-family type/help,
// label shapes and histogram consistency (cumulative bucket counts are
// monotone, end at "+Inf" and agree with the total count) are validated.
// Any further arguments name families that must exist with a nonzero
// total — what the serve_roundtrip test pins after running real jobs.
//
// With --prom the argument is a Prometheus text exposition (the daemon's
// "metrics_text" reply): every sample's family must carry # HELP and
// # TYPE lines before its first sample, metric names must match the
// Prometheus charset, counters must end in _total, and histograms must
// expose _bucket/_sum/_count series with a "+Inf" bucket.
//
// Usage: report_check [--require-vector-width] [--require-overlap]
//                     [--require-cache] [--require-threading]
//                     <report.json> [expected-kind]
//        report_check --trace <trace.json>
//        report_check --checkpoint <manifest.json>
//        report_check --jobspec <jobspec.json>
//        report_check --metrics <metrics.json> [required-family...]
//        report_check --prom <metrics.prom>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/obs/metrics.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/resilience/checkpoint.hpp"

namespace {

int g_errors = 0;

void fail(const std::string& msg) {
  std::fprintf(stderr, "report_check: %s\n", msg.c_str());
  ++g_errors;
}

void check_finite_nonneg(const pfc::obs::Json& v, const std::string& where) {
  if (!v.is_number()) {
    fail(where + ": expected a number");
    return;
  }
  const double x = v.number();
  if (!(x >= 0.0)) fail(where + ": negative or non-finite value");
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    fail(std::string("cannot open ") + path);
    return "";
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void check_finite(const pfc::obs::Json& v, const std::string& where) {
  if (!v.is_number()) {
    fail(where + ": expected a number");
    return;
  }
  const double x = v.number();
  if (!(x - x == 0.0)) fail(where + ": non-finite value");
}

/// --trace mode: structural validation of a chrome://tracing document.
int check_trace(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  const pfc::obs::Json* events =
      j.is_object() ? j.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    fail("top level must be an object with a \"traceEvents\" array");
    return 1;
  }
  std::size_t kernel_spans = 0, ghost_spans = 0, slab_spans = 0;
  for (std::size_t i = 0; i < events->elements().size(); ++i) {
    const pfc::obs::Json& e = events->elements()[i];
    const std::string where = "traceEvents[" + std::to_string(i) + ']';
    if (!e.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      if (!e.find(key)) fail(where + ": missing \"" + key + '"');
    }
    if (g_errors) continue;
    check_finite(*e.find("ts"), where + "/ts");
    const std::string ph =
        e.find("ph")->is_string() ? e.find("ph")->str() : "";
    if (ph != "X" && ph != "i") {
      fail(where + ": ph must be \"X\" or \"i\"");
      continue;
    }
    if (ph == "X") {
      if (!e.find("dur")) {
        fail(where + ": complete event without \"dur\"");
      } else {
        check_finite(*e.find("dur"), where + "/dur");
      }
    }
    const std::string cat =
        e.find("cat")->is_string() ? e.find("cat")->str() : "";
    if (ph == "X" && cat == "kernel") ++kernel_spans;
    if (ph == "X" && cat == "ghost") ++ghost_spans;
    if (ph == "X" && cat == "slab") ++slab_spans;
  }
  if (kernel_spans == 0) fail("no kernel spans (cat \"kernel\", ph \"X\")");
  if (ghost_spans == 0) {
    fail("no ghost-exchange/boundary spans (cat \"ghost\", ph \"X\")");
  }
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (%zu events: %zu kernel, %zu ghost, "
              "%zu slab spans)\n",
              path, events->elements().size(), kernel_spans, ghost_spans,
              slab_spans);
  return 0;
}

/// --checkpoint mode: structural validation of a checkpoint manifest plus
/// the existence and exact size of the state file it references.
int check_checkpoint(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  if (!j.is_object()) {
    fail("top level must be an object");
    return 1;
  }
  for (const char* key : {"schema", "step", "time", "dt", "rng_seed",
                          "layout", "data_file", "arrays"}) {
    if (!j.find(key)) fail(std::string("missing required key \"") + key + '"');
  }
  if (g_errors) return 1;
  if (!j.find("schema")->is_string() ||
      j.find("schema")->str() != pfc::resilience::kCheckpointSchema) {
    fail(std::string("schema must be \"") +
         pfc::resilience::kCheckpointSchema + '"');
  }
  check_finite_nonneg(*j.find("step"), "step");
  check_finite_nonneg(*j.find("time"), "time");
  check_finite_nonneg(*j.find("dt"), "dt");
  if (j.find("dt")->is_number() && !(j.find("dt")->number() > 0.0)) {
    fail("dt must be positive");
  }
  if (!j.find("layout")->is_string() || j.find("layout")->str().empty()) {
    fail("layout must be a non-empty string");
  }
  const pfc::obs::Json& arrays = *j.find("arrays");
  if (!arrays.is_array() || arrays.elements().empty()) {
    fail("arrays must be a non-empty array");
    return 1;
  }
  double expected_offset = 0.0;
  for (std::size_t i = 0; i < arrays.elements().size(); ++i) {
    const pfc::obs::Json& e = arrays.elements()[i];
    const std::string where = "arrays[" + std::to_string(i) + ']';
    if (!e.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    for (const char* key :
         {"name", "components", "size", "offset", "count", "fnv1a64"}) {
      if (!e.find(key)) fail(where + ": missing \"" + key + '"');
    }
    if (g_errors) continue;
    check_finite_nonneg(*e.find("components"), where + "/components");
    check_finite_nonneg(*e.find("offset"), where + "/offset");
    check_finite_nonneg(*e.find("count"), where + "/count");
    if (e.find("offset")->is_number() &&
        e.find("offset")->number() != expected_offset) {
      fail(where + ": offsets are not contiguous");
    }
    if (e.find("count")->is_number()) {
      expected_offset += e.find("count")->number();
    }
    const pfc::obs::Json* sum = e.find("fnv1a64");
    if (!sum->is_string() || sum->str().rfind("0x", 0) != 0 ||
        sum->str().size() != 18) {
      fail(where + ": fnv1a64 must be an \"0x\" + 16-hex-digit string");
    }
  }
  // the state file must exist next to the manifest and match the manifest's
  // total element count exactly
  std::string dir(path);
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  const std::string data_path = dir + "/" + j.find("data_file")->str();
  std::FILE* f = std::fopen(data_path.c_str(), "rb");
  if (!f) {
    fail("state file missing: " + data_path);
  } else {
    std::fseek(f, 0, SEEK_END);
    const long fsize = std::ftell(f);
    std::fclose(f);
    if (double(fsize) != expected_offset * double(sizeof(double))) {
      fail("state file " + data_path + " has " + std::to_string(fsize) +
           " bytes, manifest expects " +
           std::to_string((long long)(expected_offset * sizeof(double))));
    }
  }
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (checkpoint, %zu arrays, %lld doubles)\n",
              path, arrays.elements().size(), (long long)expected_offset);
  return 0;
}

/// --require-vector-width: the SIMD width the compile pipeline chose must
/// be recorded and supported. Quickstart-style run reports embed the
/// CompileReport under "compile"; compile reports carry it top-level.
void check_vector_width(const pfc::obs::Json& j) {
  const pfc::obs::Json* counters = j.find("counters");
  const pfc::obs::Json* vw =
      counters && counters->is_object() ? counters->find("vector_width")
                                        : nullptr;
  if (!vw) {
    if (const pfc::obs::Json* compile = j.find("compile")) {
      const pfc::obs::Json* cc =
          compile->is_object() ? compile->find("counters") : nullptr;
      if (cc && cc->is_object()) vw = cc->find("vector_width");
    }
  }
  if (!vw) {
    fail("counters/vector_width missing (checked top-level and embedded "
         "\"compile\" report)");
    return;
  }
  if (!vw->is_number()) {
    fail("counters/vector_width: expected a number");
    return;
  }
  const double w = vw->number();
  if (w != 1.0 && w != 2.0 && w != 4.0 && w != 8.0) {
    fail("counters/vector_width: " + std::to_string(w) +
         " is not a supported SIMD width (1, 2, 4 or 8)");
  }
}

/// "overlap" section: phase timers and cell counts of the
/// interior/frontier communication-hiding split. `local_cells` (from
/// derived/cells_per_step, 0 if absent) pins the decomposition: interior
/// and frontier must tile the rank's per-step lattice exactly.
void check_overlap(const pfc::obs::Json& o, double local_cells) {
  if (!o.is_object()) {
    fail("overlap must be an object");
    return;
  }
  const pfc::obs::Json* enabled = o.find("enabled");
  if (!enabled || enabled->kind() != pfc::obs::Json::Kind::Bool) {
    fail("overlap/enabled must be a bool");
  }
  for (const char* key :
       {"pack_seconds", "wait_seconds", "interior_seconds",
        "frontier_seconds", "interior_cells", "frontier_cells",
        "hidden_seconds", "hidden_fraction"}) {
    const pfc::obs::Json* v = o.find(key);
    if (!v) {
      fail(std::string("overlap: missing \"") + key + '"');
      continue;
    }
    check_finite_nonneg(*v, std::string("overlap/") + key);
  }
  if (g_errors) return;
  const double hf = o.find("hidden_fraction")->number();
  if (hf > 1.0) fail("overlap/hidden_fraction must be in [0, 1]");
  const double cells = o.find("interior_cells")->number() +
                       o.find("frontier_cells")->number();
  if (local_cells > 0.0 && cells != local_cells) {
    fail("overlap: interior_cells + frontier_cells (" +
         std::to_string((long long)cells) +
         ") must tile the local lattice (derived/cells_per_step = " +
         std::to_string((long long)local_cells) + ')');
  }
}

/// "threading" section: execution resources of a run — pool width,
/// placement policy and the temporal-blocking decision.
void check_threading(const pfc::obs::Json& t) {
  if (!t.is_object()) {
    fail("threading must be an object");
    return;
  }
  for (const char* key : {"threads", "cpus", "cores", "packages",
                          "numa_nodes"}) {
    const pfc::obs::Json* v = t.find(key);
    if (!v) {
      fail(std::string("threading: missing \"") + key + '"');
      continue;
    }
    check_finite_nonneg(*v, std::string("threading/") + key);
  }
  const pfc::obs::Json* pin = t.find("pin_policy");
  if (!pin || !pin->is_string() ||
      (pin->str() != "none" && pin->str() != "compact" &&
       pin->str() != "scatter")) {
    fail("threading/pin_policy must be \"none\", \"compact\" or \"scatter\"");
  }
  const pfc::obs::Json* dispatch = t.find("dispatch");
  if (!dispatch || !dispatch->is_string() ||
      (dispatch->str() != "dynamic" && dispatch->str() != "static")) {
    fail("threading/dispatch must be \"dynamic\" or \"static\"");
  }
  const pfc::obs::Json* ft = t.find("first_touch");
  if (!ft || ft->kind() != pfc::obs::Json::Kind::Bool) {
    fail("threading/first_touch must be a bool");
  }
  const pfc::obs::Json* b = t.find("blocking");
  if (!b || !b->is_object()) {
    fail("threading/blocking must be an object");
    return;
  }
  const pfc::obs::Json* enabled = b->find("enabled");
  if (!enabled || enabled->kind() != pfc::obs::Json::Kind::Bool) {
    fail("threading/blocking/enabled must be a bool");
  }
  for (const char* key :
       {"tile_rows", "lookahead", "fused_stages", "fused_substeps",
        "bytes_per_update_unfused", "bytes_per_update_fused"}) {
    const pfc::obs::Json* v = b->find(key);
    if (!v) {
      fail(std::string("threading/blocking: missing \"") + key + '"');
      continue;
    }
    check_finite_nonneg(*v, std::string("threading/blocking/") + key);
  }
  const pfc::obs::Json* reason = b->find("reason");
  if (!reason || !reason->is_string()) {
    fail("threading/blocking/reason must be a string");
  }
  // an enabled blocking plan must carry a positive tile
  if (!g_errors && enabled->boolean() &&
      b->find("tile_rows")->number() < 1.0) {
    fail("threading/blocking enabled but tile_rows < 1");
  }
}

/// "tuning" section: measured-autotuning decision of a run — mode,
/// cache identity, search cost and the prior-vs-measured ranking.
void check_tuning(const pfc::obs::Json& t) {
  if (!t.is_object()) {
    fail("tuning must be an object");
    return;
  }
  const pfc::obs::Json* enabled = t.find("enabled");
  if (!enabled || enabled->kind() != pfc::obs::Json::Kind::Bool) {
    fail("tuning/enabled must be a bool");
  }
  const pfc::obs::Json* mode = t.find("mode");
  if (!mode || !mode->is_string() ||
      (mode->str() != "cached" && mode->str() != "full")) {
    fail("tuning/mode must be \"cached\" or \"full\"");
  }
  const pfc::obs::Json* hit = t.find("cache_hit");
  if (!hit || hit->kind() != pfc::obs::Json::Kind::Bool) {
    fail("tuning/cache_hit must be a bool");
  }
  const pfc::obs::Json* key = t.find("cache_key");
  if (!key || !key->is_string() || key->str().size() != 64 ||
      key->str().find_first_not_of("0123456789abcdef") != std::string::npos) {
    fail("tuning/cache_key must be a 64-hex-digit content hash");
  }
  const pfc::obs::Json* machine = t.find("machine");
  if (!machine || !machine->is_string() || machine->str().empty()) {
    fail("tuning/machine must be a non-empty string");
  }
  for (const char* k : {"candidates", "measured_runs", "search_seconds",
                        "baseline_mlups", "best_mlups"}) {
    const pfc::obs::Json* v = t.find(k);
    if (!v) {
      fail(std::string("tuning: missing \"") + k + '"');
      continue;
    }
    check_finite_nonneg(*v, std::string("tuning/") + k);
  }
  const pfc::obs::Json* best = t.find("best_config");
  if (!best || !best->is_string() || best->str().empty()) {
    fail("tuning/best_config must be a non-empty string");
  }
  const pfc::obs::Json* ranking = t.find("ranking");
  if (!ranking || !ranking->is_array()) {
    fail("tuning/ranking must be an array");
    return;
  }
  for (std::size_t i = 0; i < ranking->elements().size(); ++i) {
    const pfc::obs::Json& row = ranking->elements()[i];
    const std::string where = "tuning/ranking[" + std::to_string(i) + ']';
    if (!row.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    const pfc::obs::Json* config = row.find("config");
    if (!config || !config->is_string() || config->str().empty()) {
      fail(where + "/config must be a non-empty string");
    }
    for (const char* k : {"predicted_mlups", "measured_mlups"}) {
      const pfc::obs::Json* v = row.find(k);
      if (!v) {
        fail(where + ": missing \"" + k + '"');
        continue;
      }
      check_finite_nonneg(*v, where + '/' + k);
    }
  }
  if (g_errors) return;
  // Invariants of the search contract: a cache hit performed zero measured
  // runs, a fresh search measured at least the baseline, and the winner is
  // never slower than the baseline (it is measured first and keeps ties).
  if (hit->boolean() && t.find("measured_runs")->number() != 0.0) {
    fail("tuning: cache_hit is true but measured_runs != 0");
  }
  if (!hit->boolean() && t.find("measured_runs")->number() < 1.0) {
    fail("tuning: fresh search must report measured_runs >= 1");
  }
  if (t.find("best_mlups")->number() <
      t.find("baseline_mlups")->number()) {
    fail("tuning: best_mlups below baseline_mlups (the baseline is always "
         "measured, so the winner can never be slower)");
  }
}

/// "cache" section: kernel-cache provenance of a compile report.
void check_cache(const pfc::obs::Json& c) {
  if (!c.is_object()) {
    fail("cache must be an object");
    return;
  }
  const pfc::obs::Json* hit = c.find("hit");
  if (!hit || hit->kind() != pfc::obs::Json::Kind::Bool) {
    fail("cache/hit must be a bool");
  }
  const pfc::obs::Json* key = c.find("key");
  if (!key || !key->is_string() || key->str().size() != 64 ||
      key->str().find_first_not_of("0123456789abcdef") != std::string::npos) {
    fail("cache/key must be a 64-hex-digit content hash");
  }
  for (const char* k : {"hits", "misses", "evictions", "bytes"}) {
    const pfc::obs::Json* v = c.find(k);
    if (!v) {
      fail(std::string("cache: missing \"") + k + '"');
      continue;
    }
    check_finite_nonneg(*v, std::string("cache/") + k);
  }
  // a hit implies the process saw at least one earlier acquire of this key
  if (!g_errors && hit->boolean() && c.find("hits")->number() < 1.0) {
    fail("cache/hit is true but cache/hits is 0");
  }
}

/// One labeled series of a --metrics family. Returns the series' scalar
/// total (value, or count for histograms) so required-family checks can
/// assert nonzero activity.
double check_metric_series(const pfc::obs::Json& v, const std::string& type,
                           const std::string& where) {
  if (!v.is_object()) {
    fail(where + ": expected an object");
    return 0.0;
  }
  const pfc::obs::Json* labels = v.find("labels");
  if (!labels || !labels->is_object()) {
    fail(where + "/labels must be an object");
  } else {
    for (const auto& [k, lv] : labels->items()) {
      if (!lv.is_string()) fail(where + "/labels/" + k + ": expected a string");
    }
  }
  if (type == "counter" || type == "gauge") {
    const pfc::obs::Json* value = v.find("value");
    if (!value) {
      fail(where + ": missing \"value\"");
      return 0.0;
    }
    if (type == "counter") {
      check_finite_nonneg(*value, where + "/value");
    } else {
      check_finite(*value, where + "/value");
    }
    return value->is_number() ? value->number() : 0.0;
  }
  // histogram
  const pfc::obs::Json* count = v.find("count");
  const pfc::obs::Json* sum = v.find("sum");
  const pfc::obs::Json* buckets = v.find("buckets");
  if (!count || !sum || !buckets) {
    fail(where + ": histogram needs \"count\", \"sum\" and \"buckets\"");
    return 0.0;
  }
  check_finite_nonneg(*count, where + "/count");
  check_finite(*sum, where + "/sum");
  if (!buckets->is_array() || buckets->elements().empty()) {
    fail(where + "/buckets must be a non-empty array");
    return 0.0;
  }
  double prev = 0.0;
  bool saw_inf = false;
  for (std::size_t i = 0; i < buckets->elements().size(); ++i) {
    const pfc::obs::Json& b = buckets->elements()[i];
    const std::string bw = where + "/buckets[" + std::to_string(i) + ']';
    if (!b.is_object()) {
      fail(bw + ": expected an object");
      continue;
    }
    const pfc::obs::Json* le = b.find("le");
    const pfc::obs::Json* bc = b.find("count");
    if (!le || !bc) {
      fail(bw + ": needs \"le\" and \"count\"");
      continue;
    }
    if (le->is_string()) {
      if (le->str() != "+Inf") {
        fail(bw + "/le: string edge must be \"+Inf\"");
      } else if (i + 1 != buckets->elements().size()) {
        fail(bw + "/le: \"+Inf\" must be the last bucket");
      } else {
        saw_inf = true;
      }
    } else {
      check_finite_nonneg(*le, bw + "/le");
    }
    check_finite_nonneg(*bc, bw + "/count");
    if (bc->is_number()) {
      if (bc->number() < prev) {
        fail(bw + "/count: cumulative counts must be nondecreasing");
      }
      prev = bc->number();
    }
  }
  if (!saw_inf) fail(where + "/buckets: missing the \"+Inf\" bucket");
  if (count->is_number() && prev != count->number()) {
    fail(where + ": +Inf bucket count (" +
         std::to_string((long long)prev) + ") must equal count (" +
         std::to_string((long long)count->number()) + ')');
  }
  return count->is_number() ? count->number() : 0.0;
}

/// --metrics mode: structural validation of a pfc-serve-metrics-v1
/// snapshot; `required` families must exist with a nonzero total.
int check_metrics(const char* path, const std::vector<std::string>& required) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  if (!j.is_object()) {
    fail("top level must be an object");
    return 1;
  }
  const pfc::obs::Json* schema = j.find("schema");
  if (!schema || !schema->is_string() ||
      schema->str() != pfc::obs::kMetricsSchema) {
    fail(std::string("schema must be \"") + pfc::obs::kMetricsSchema + '"');
  }
  const pfc::obs::Json* metrics = j.find("metrics");
  if (!metrics || !metrics->is_object()) {
    fail("\"metrics\" must be an object");
    return 1;
  }
  // The serve daemon's families have pinned kinds: a registry refactor
  // must not silently demote pfc_jobs_rejected_total to a gauge or grow
  // pfc_tenant_inflight series without their tenant label.
  static const std::map<std::string, std::string> kServeKinds = {
      {"pfc_jobs_submitted_total", "counter"},
      {"pfc_jobs_finished_total", "counter"},
      {"pfc_jobs_failed_total", "counter"},
      {"pfc_jobs_rejected_total", "counter"},
      {"pfc_jobs_cancelled_total", "counter"},
      {"pfc_jobs_deadline_exceeded_total", "counter"},
      {"pfc_jobs_watchdog_killed_total", "counter"},
      {"pfc_queue_depth", "gauge"},
      {"pfc_jobs_inflight", "gauge"},
      {"pfc_tenant_inflight", "gauge"},
      {"pfc_job_duration_seconds", "histogram"},
      {"pfc_job_queue_seconds", "histogram"},
  };
  std::map<std::string, double> totals;
  for (const auto& [name, fam] : metrics->items()) {
    const std::string where = "metrics/" + name;
    if (!pfc::obs::valid_metric_name(name)) {
      fail(where + ": invalid metric name");
    }
    if (!fam.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    const pfc::obs::Json* type = fam.find("type");
    const pfc::obs::Json* help = fam.find("help");
    const pfc::obs::Json* values = fam.find("values");
    if (!type || !type->is_string() ||
        (type->str() != "counter" && type->str() != "gauge" &&
         type->str() != "histogram")) {
      fail(where + "/type must be \"counter\", \"gauge\" or \"histogram\"");
      continue;
    }
    if (!help || !help->is_string() || help->str().empty()) {
      fail(where + "/help must be a non-empty string");
    }
    const auto pinned = kServeKinds.find(name);
    if (pinned != kServeKinds.end() && type->str() != pinned->second) {
      fail(where + "/type must be \"" + pinned->second +
           "\" (serve-family kind is pinned), got \"" + type->str() + '"');
    }
    if (!values || !values->is_array() || values->elements().empty()) {
      fail(where + "/values must be a non-empty array");
      continue;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < values->elements().size(); ++i) {
      const std::string vw = where + "/values[" + std::to_string(i) + ']';
      total += check_metric_series(values->elements()[i], type->str(), vw);
      if (name == "pfc_tenant_inflight") {
        const pfc::obs::Json* labels = values->elements()[i].find("labels");
        if (!labels || labels->find("tenant") == nullptr) {
          fail(vw + ": pfc_tenant_inflight series needs a \"tenant\" label");
        }
      }
    }
    totals[name] = total;
  }
  for (const std::string& name : required) {
    auto it = totals.find(name);
    if (it == totals.end()) {
      fail("required family \"" + name + "\" is missing");
    } else if (!(it->second > 0.0)) {
      fail("required family \"" + name + "\" has a zero total");
    }
  }
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (metrics, %zu families, %zu required)\n",
              path, metrics->items().size(), required.size());
  return 0;
}

/// --prom mode: lint of the Prometheus text exposition.
int check_prom(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::set<std::string> helped;
  std::set<std::string> sampled;  // families with >= 1 sample line
  std::map<std::string, std::set<std::string>> histogram_series;
  std::map<std::string, bool> histogram_inf;
  std::size_t samples = 0;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? end : end - start);
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(lineno);
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name counter|gauge|histogram"
      std::size_t p = line.find_first_not_of(' ', 1);
      if (p == std::string::npos) continue;
      const std::size_t kw_end = line.find(' ', p);
      const std::string kw =
          line.substr(p, kw_end == std::string::npos ? kw_end : kw_end - p);
      if (kw != "HELP" && kw != "TYPE") continue;  // other comments are legal
      if (kw_end == std::string::npos) {
        fail(where + ": # " + kw + " without a metric name");
        continue;
      }
      p = line.find_first_not_of(' ', kw_end);
      const std::size_t name_end = line.find(' ', p);
      const std::string name = line.substr(
          p, name_end == std::string::npos ? name_end : name_end - p);
      if (!pfc::obs::valid_metric_name(name)) {
        fail(where + ": invalid metric name \"" + name + '"');
        continue;
      }
      if (sampled.count(name) != 0) {
        fail(where + ": # " + kw + " for \"" + name +
             "\" after its first sample");
      }
      if (kw == "HELP") {
        if (name_end == std::string::npos ||
            line.find_first_not_of(' ', name_end) == std::string::npos) {
          fail(where + ": # HELP " + name + " has no text");
        }
        if (!helped.insert(name).second) {
          fail(where + ": duplicate # HELP for \"" + name + '"');
        }
      } else {
        const std::string type =
            name_end == std::string::npos
                ? ""
                : line.substr(line.find_first_not_of(' ', name_end));
        if (type != "counter" && type != "gauge" && type != "histogram") {
          fail(where + ": # TYPE " + name + " has unknown type \"" + type +
               '"');
        }
        if (!types.emplace(name, type).second) {
          fail(where + ": duplicate # TYPE for \"" + name + '"');
        }
      }
      continue;
    }
    // sample line: name[{labels}] value
    const std::size_t name_end = line.find_first_of("{ ");
    const std::string series =
        line.substr(0, name_end == std::string::npos ? name_end : name_end);
    if (!pfc::obs::valid_metric_name(series)) {
      fail(where + ": invalid metric name \"" + series + '"');
      continue;
    }
    // resolve the family: histogram series drop a _bucket/_sum/_count
    // suffix, everything else is its own family
    std::string family = series;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t len = std::strlen(suffix);
      if (series.size() > len &&
          series.compare(series.size() - len, len, suffix) == 0) {
        const std::string base = series.substr(0, series.size() - len);
        auto it = types.find(base);
        if (it != types.end() && it->second == "histogram") {
          family = base;
          histogram_series[base].insert(suffix);
          break;
        }
      }
    }
    auto type_it = types.find(family);
    if (type_it == types.end()) {
      fail(where + ": sample \"" + series + "\" has no preceding # TYPE");
      continue;
    }
    if (helped.count(family) == 0) {
      fail(where + ": sample \"" + series + "\" has no preceding # HELP");
    }
    if (type_it->second == "counter" &&
        (series.size() < 6 ||
         series.compare(series.size() - 6, 6, "_total") != 0)) {
      fail(where + ": counter \"" + series + "\" must end in _total");
    }
    if (type_it->second == "histogram" && family == series) {
      fail(where + ": histogram \"" + family +
           "\" sample must be a _bucket/_sum/_count series");
    }
    if (family != series && series.size() > 7 &&
        series.compare(series.size() - 7, 7, "_bucket") == 0 &&
        line.find("le=\"+Inf\"") != std::string::npos) {
      histogram_inf[family] = true;
    }
    // the value is the last space-separated token
    const std::size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos) {
      fail(where + ": sample without a value");
    } else {
      char* endp = nullptr;
      const std::string value = line.substr(sp + 1);
      std::strtod(value.c_str(), &endp);
      if (endp == value.c_str() || *endp != '\0') {
        fail(where + ": unparseable sample value \"" + value + '"');
      }
    }
    sampled.insert(family);
    ++samples;
  }
  for (const auto& [name, type] : types) {
    if (helped.count(name) == 0) {
      fail("# TYPE " + name + " without a # HELP line");
    }
    if (type != "histogram") continue;
    const auto& series = histogram_series[name];
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (series.count(suffix) == 0) {
        fail("histogram \"" + name + "\" has no " + suffix + " series");
      }
    }
    if (!histogram_inf[name]) {
      fail("histogram \"" + name + "\" has no le=\"+Inf\" bucket");
    }
  }
  if (types.empty()) fail("no # TYPE lines (empty exposition)");
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (prometheus, %zu families, %zu samples)\n",
              path, types.size(), samples);
  return 0;
}

/// --jobspec mode: strict decode + cross-field validation of a job spec.
int check_jobspec(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  try {
    const pfc::app::JobSpec spec = pfc::app::JobSpec::parse(text);
    std::printf("report_check: %s OK (jobspec \"%s\", preset %s, %lld "
                "steps, mode %s)\n",
                path, spec.name.c_str(), spec.model.preset.c_str(),
                spec.steps, spec.mode.c_str());
    return 0;
  } catch (const pfc::Error& e) {
    fail(e.what());
    std::fprintf(stderr, "report_check: %s FAILED (1 error)\n", path);
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--trace") == 0) {
    return check_trace(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--checkpoint") == 0) {
    return check_checkpoint(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--jobspec") == 0) {
    return check_jobspec(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--metrics") == 0) {
    std::vector<std::string> required;
    for (int i = 3; i < argc; ++i) required.emplace_back(argv[i]);
    return check_metrics(argv[2], required);
  }
  if (argc == 3 && std::strcmp(argv[1], "--prom") == 0) {
    return check_prom(argv[2]);
  }
  bool require_vector_width = false;
  bool require_overlap = false;
  bool require_cache = false;
  bool require_threading = false;
  bool require_tuning = false;
  while (argc >= 2 && std::strncmp(argv[1], "--", 2) == 0) {
    if (std::strcmp(argv[1], "--require-vector-width") == 0) {
      require_vector_width = true;
    } else if (std::strcmp(argv[1], "--require-overlap") == 0) {
      require_overlap = true;
    } else if (std::strcmp(argv[1], "--require-cache") == 0) {
      require_cache = true;
    } else if (std::strcmp(argv[1], "--require-threading") == 0) {
      require_threading = true;
    } else if (std::strcmp(argv[1], "--require-tuning") == 0) {
      require_tuning = true;
    } else {
      std::fprintf(stderr, "report_check: unknown flag %s\n", argv[1]);
      return 2;
    }
    --argc;
    ++argv;
  }
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: report_check [--require-vector-width] "
                 "[--require-overlap] [--require-cache] "
                 "[--require-threading] [--require-tuning] "
                 "<report.json> [kind]\n"
                 "       report_check --trace <trace.json>\n"
                 "       report_check --checkpoint <manifest.json>\n"
                 "       report_check --jobspec <jobspec.json>\n"
                 "       report_check --metrics <metrics.json> "
                 "[required-family...]\n"
                 "       report_check --prom <metrics.prom>\n");
    return 2;
  }
  const std::string text = read_file(argv[1]);
  if (g_errors) return 1;

  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  if (!j.is_object()) fail("top level must be an object");

  // the six required sections
  for (const char* key :
       {"schema", "kind", "name", "timers", "counters", "derived"}) {
    if (!j.find(key)) fail(std::string("missing required key \"") + key + '"');
  }
  if (g_errors) return 1;

  // Every emitter writes the current schema and no report is stored
  // across revisions, so only the current one is accepted.
  if (!j.find("schema")->is_string() ||
      j.find("schema")->str() != pfc::obs::kReportSchema) {
    fail(std::string("schema must be \"") + pfc::obs::kReportSchema + '"');
  }
  const pfc::obs::Json& kind = *j.find("kind");
  if (!kind.is_string() || (kind.str() != "run" && kind.str() != "compile" &&
                            kind.str() != "bench")) {
    fail("kind must be \"run\", \"compile\" or \"bench\"");
  }
  if (argc == 3 && kind.is_string() && kind.str() != argv[2]) {
    fail(std::string("expected kind \"") + argv[2] + "\", got \"" +
         kind.str() + '"');
  }
  if (!j.find("name")->is_string() || j.find("name")->str().empty()) {
    fail("name must be a non-empty string");
  }

  const pfc::obs::Json& timers = *j.find("timers");
  if (!timers.is_object()) {
    fail("timers must be an object");
  } else {
    for (const auto& [path, t] : timers.items()) {
      if (!t.is_object() || !t.find("seconds") || !t.find("count")) {
        fail("timers/" + path + ": expected {\"seconds\", \"count\"}");
        continue;
      }
      check_finite_nonneg(*t.find("seconds"), "timers/" + path + "/seconds");
      check_finite_nonneg(*t.find("count"), "timers/" + path + "/count");
    }
  }

  const pfc::obs::Json& counters = *j.find("counters");
  if (!counters.is_object()) {
    fail("counters must be an object");
  } else {
    for (const auto& [path, v] : counters.items()) {
      check_finite_nonneg(v, "counters/" + path);
    }
  }

  const pfc::obs::Json& derived = *j.find("derived");
  if (!derived.is_object()) {
    fail("derived must be an object");
  } else {
    for (const auto& [stat, v] : derived.items()) {
      check_finite_nonneg(v, "derived/" + stat);
    }
  }

  // Optional sections (run reports always carry health; compile/bench
  // reports may omit both)
  if (const pfc::obs::Json* ma = j.find("model_accuracy")) {
    if (!ma->is_object()) {
      fail("model_accuracy must be an object");
    } else {
      for (const auto& [target, a] : ma->items()) {
        const std::string where = "model_accuracy/" + target;
        if (!a.is_object()) {
          fail(where + ": expected an object");
          continue;
        }
        for (const char* key :
             {"predicted_seconds", "measured_seconds", "ratio"}) {
          const pfc::obs::Json* v = a.find(key);
          if (!v) {
            fail(where + ": missing \"" + key + '"');
            continue;
          }
          check_finite_nonneg(*v, where + '/' + key);
        }
      }
    }
  }
  if (const pfc::obs::Json* h = j.find("health")) {
    if (!h->is_object()) {
      fail("health must be an object");
    } else {
      const pfc::obs::Json* policy = h->find("policy");
      if (!policy || !policy->is_string() ||
          (policy->str() != "ignore" && policy->str() != "warn" &&
           policy->str() != "throw" && policy->str() != "recover")) {
        fail("health/policy must be \"ignore\", \"warn\", \"throw\" or "
             "\"recover\"");
      }
      for (const auto& [stat, v] : h->items()) {
        if (stat == "policy") continue;
        check_finite_nonneg(v, "health/" + stat);
      }
    }
  }

  // Run reports carry "resilience", compile reports carry the
  // backend tier of the degradation chain
  if (const pfc::obs::Json* r = j.find("resilience")) {
    if (!r->is_object()) {
      fail("resilience must be an object");
    } else {
      for (const char* key :
           {"checkpoints", "checkpoint_files", "rollbacks", "dt_shrinks",
            "faults_injected", "dt_current"}) {
        const pfc::obs::Json* v = r->find(key);
        if (!v) {
          fail(std::string("resilience: missing \"") + key + '"');
          continue;
        }
        check_finite_nonneg(*v, std::string("resilience/") + key);
      }
      const pfc::obs::Json* restarted = r->find("restarted");
      if (!restarted ||
          restarted->kind() != pfc::obs::Json::Kind::Bool) {
        fail("resilience/restarted must be a bool");
      }
    }
  } else if (kind.is_string() && kind.str() == "run") {
    fail("run reports must carry a \"resilience\" section");
  }
  if (const pfc::obs::Json* tier = j.find("backend_tier")) {
    if (!tier->is_string() ||
        (tier->str() != "vector" && tier->str() != "scalar" &&
         tier->str() != "interpreter")) {
      fail("backend_tier must be \"vector\", \"scalar\" or \"interpreter\"");
    }
    const pfc::obs::Json* attempts = j.find("fallback_attempts");
    if (!attempts) {
      fail("backend_tier present but \"fallback_attempts\" missing");
    } else {
      check_finite_nonneg(*attempts, "fallback_attempts");
    }
  } else if (kind.is_string() && kind.str() == "compile") {
    fail("compile reports must carry \"backend_tier\"");
  }

  // Overlap phase split of a communication-hiding run.
  const pfc::obs::Json* overlap = j.find("overlap");
  if (overlap != nullptr) {
    const pfc::obs::Json* cps =
        derived.is_object() ? derived.find("cells_per_step") : nullptr;
    check_overlap(*overlap,
                  cps != nullptr && cps->is_number() ? cps->number() : 0.0);
  } else if (require_overlap) {
    fail("--require-overlap: report carries no \"overlap\" section");
  }
  if (require_overlap && overlap != nullptr) {
    const pfc::obs::Json* enabled = overlap->find("enabled");
    if (enabled == nullptr ||
        enabled->kind() != pfc::obs::Json::Kind::Bool ||
        !enabled->boolean()) {
      fail("--require-overlap: overlap/enabled must be true");
    }
  }

  if (require_vector_width) check_vector_width(j);

  // Kernel-cache provenance of a compile report. Run reports
  // embed their compile report under "compile" (as quickstart writes it).
  const pfc::obs::Json* cache = j.find("cache");
  if (cache == nullptr) {
    if (const pfc::obs::Json* compile = j.find("compile")) {
      if (compile->is_object()) cache = compile->find("cache");
    }
  }
  if (cache != nullptr) {
    check_cache(*cache);
  } else if (require_cache) {
    fail("--require-cache: report carries no \"cache\" section (checked "
         "top-level and embedded \"compile\" report)");
  }

  // Execution resources of a run (pool width, pinning policy, first-touch
  // placement, temporal-blocking decision). Mandatory on run reports;
  // compile/bench reports never carry it.
  const pfc::obs::Json* threading = j.find("threading");
  if (threading != nullptr) {
    check_threading(*threading);
  } else if (kind.is_string() && kind.str() == "run") {
    fail("run reports must carry a \"threading\" section");
  }
  if (require_threading) {
    if (threading == nullptr) {
      fail("--require-threading: report carries no \"threading\" section");
    } else if (!g_errors) {
      const pfc::obs::Json* threads = threading->find("threads");
      if (threads == nullptr || !threads->is_number() ||
          threads->number() < 1.0) {
        fail("--require-threading: threading/threads must be >= 1");
      }
    }
  }

  // The measured-autotuning decision. Optional (runs with tune = off never
  // write it).
  const pfc::obs::Json* tuning = j.find("tuning");
  if (tuning != nullptr) {
    check_tuning(*tuning);
  } else if (require_tuning) {
    fail("--require-tuning: report carries no \"tuning\" section");
  }
  if (require_tuning && tuning != nullptr && !g_errors) {
    const pfc::obs::Json* enabled = tuning->find("enabled");
    if (enabled == nullptr ||
        enabled->kind() != pfc::obs::Json::Kind::Bool ||
        !enabled->boolean()) {
      fail("--require-tuning: tuning/enabled must be true");
    }
  }

  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", argv[1],
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (kind=%s, %zu timers, %zu counters)\n",
              argv[1], kind.str().c_str(), timers.items().size(),
              counters.items().size());
  return 0;
}
