// End-to-end serve round-trip: a JobServer on a Unix socket accepts two
// identical pfc-jobspec-v1 jobs; the second is served from the content-
// addressed kernel cache (cache.hit=true, near-zero external-compiler
// time) and both are bitwise-identical to a direct in-process run_job.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/serve/server.hpp"
#include "pfc/serve/transport.hpp"

#include "serve_testutil.hpp"

namespace pfc::serve {
namespace {

using obs::Json;

app::JobSpec small_spec() {
  app::JobSpec spec;
  spec.name = "serve-roundtrip";
  spec.steps = 3;
  spec.simulation.cells = {32, 32, 1};
  spec.simulation.threads = 1;
  return spec;
}

const Json& field(const Json& j, const char* key) {
  const Json* v = j.find(key);
  EXPECT_NE(v, nullptr) << "missing \"" << key << "\" in " << j.dump(-1);
  static const Json null_json;
  return v != nullptr ? *v : null_json;
}

TEST(Serve, RoundTripSecondJobHitsKernelCache) {
  TempDir tmp;
  backend::KernelCache::shared().reset();

  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 2;
  opts.cache.directory = tmp.path + "/cache";
  opts.quiet = true;
  JobServer server(opts);
  server.start();

  Client client(opts.socket_path);
  const Json pong = client.ping();
  EXPECT_EQ(field(pong, "event").str(), "pong");
  EXPECT_EQ(field(pong, "protocol").str(), kProtocolVersion);

  // A malformed spec is rejected at the dispatcher with an error event and
  // must not take the daemon down.
  const Json rejected = client.submit(Json::object());
  EXPECT_EQ(field(rejected, "event").str(), "error");

  const Json spec_json = small_spec().to_json();
  std::vector<Json> events;
  const Json first = client.submit(spec_json, &events);
  ASSERT_EQ(field(first, "event").str(), "finished") << first.dump(-1);
  // accepted and started stream before the terminal event
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(field(events[0], "event").str(), "accepted");
  EXPECT_EQ(field(events[1], "event").str(), "started");

  const Json second = client.submit(spec_json);
  ASSERT_EQ(field(second, "event").str(), "finished") << second.dump(-1);

  // Identical jobs, identical fields.
  const Json& r1 = field(first, "result");
  const Json& r2 = field(second, "result");
  EXPECT_EQ(field(r1, "phi_fnv1a64").str(), field(r2, "phi_fnv1a64").str());
  EXPECT_EQ(field(r1, "mu_fnv1a64").str(), field(r2, "mu_fnv1a64").str());

  // The second submit is a kernel-cache hit with near-zero compile time.
  const Json& cache = field(field(r2, "compile"), "cache");
  EXPECT_TRUE(field(cache, "hit").boolean()) << cache.dump(-1);
  EXPECT_GE(field(cache, "hits").number(), 1.0);
  const Json* timers = field(r2, "compile").find("timers");
  ASSERT_NE(timers, nullptr);
  const Json* jit = timers->find("jit");
  if (jit != nullptr) {
    EXPECT_LE(field(*jit, "seconds").number(), 0.05);
  }

  // Daemon results match a direct in-process run bitwise (no cache for the
  // local run: its spec carries no cache_dir and the env is untouched).
  const app::JobResult local = app::run_job(small_spec());
  const Json local_json = local.to_json();
  EXPECT_EQ(field(r1, "phi_fnv1a64").str(),
            field(local_json, "phi_fnv1a64").str());
  EXPECT_EQ(field(r1, "mu_fnv1a64").str(),
            field(local_json, "mu_fnv1a64").str());

  // list reflects both finished jobs, with the telemetry enrichment.
  const Json listing = client.list();
  const auto jobs = field(listing, "jobs").elements();
  ASSERT_EQ(jobs.size(), 2u);
  for (const Json& job : jobs) {
    EXPECT_EQ(field(job, "state").str(), "finished");
    EXPECT_EQ(field(job, "name").str(), "serve-roundtrip");
    EXPECT_EQ(field(job, "preset").str(), "two_phase");
    EXPECT_GT(field(job, "submitted_unix").number(), 0.0);
    EXPECT_EQ(field(job, "fraction").number(), 1.0);
    EXPECT_GE(field(job, "duration_seconds").number(), 0.0);
    EXPECT_GE(field(job, "queued_seconds").number(), 0.0);
  }
  const auto statuses = server.jobs();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].state, "finished");

  // Client-driven shutdown unblocks wait().
  const Json bye = client.shutdown_server();
  EXPECT_EQ(field(bye, "event").str(), "bye");
  server.wait();
  backend::KernelCache::shared().reset();
}

TEST(Serve, ProgressEventsStreamMonotoneToCompletion) {
  TempDir tmp;
  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 1;
  opts.quiet = true;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  app::JobSpec spec = small_spec();
  spec.name = "progress-job";
  spec.steps = 24;
  spec.progress_every = 4;  // samples at steps 4, 8, ..., 24

  std::vector<Json> events;
  const Json terminal = client.submit(spec.to_json(), &events);
  ASSERT_EQ(field(terminal, "event").str(), "finished") << terminal.dump(-1);
  EXPECT_GE(field(terminal, "duration_seconds").number(), 0.0);
  EXPECT_GE(field(terminal, "queued_seconds").number(), 0.0);

  int progress_count = 0;
  long long prev_step = 0;
  bool saw_started = false;
  for (const Json& ev : events) {
    const std::string kind = field(ev, "event").str();
    if (kind == "started") {
      saw_started = true;
      EXPECT_GE(field(ev, "queued_seconds").number(), 0.0);
      continue;
    }
    if (kind != "progress") continue;
    ++progress_count;
    const long long step = (long long)(field(ev, "step").number());
    EXPECT_GT(step, prev_step) << "progress steps must strictly increase";
    EXPECT_EQ(step % 4, 0) << "samples land on the configured cadence";
    prev_step = step;
    EXPECT_EQ(field(ev, "steps_total").number(), 24.0);
    EXPECT_EQ(field(ev, "fraction").number(), double(step) / 24.0);
    EXPECT_GE(field(ev, "mlups").number(), 0.0);
    EXPECT_GE(field(ev, "eta_seconds").number(), 0.0);
    EXPECT_EQ(field(ev, "health_violations").number(), 0.0);
  }
  EXPECT_TRUE(saw_started);
  EXPECT_GE(progress_count, 3);
  EXPECT_EQ(prev_step, 24) << "the final sample covers the last step";

  // list reflects the completed progress.
  const Json listing = client.list();
  const auto jobs = field(listing, "jobs").elements();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(field(jobs[0], "step").number(), 24.0);
  EXPECT_EQ(field(jobs[0], "fraction").number(), 1.0);
  server.stop();
}

TEST(Serve, MetricsOpsExposeJobActivity) {
  TempDir tmp;
  backend::KernelCache::shared().reset();
  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 1;
  opts.cache.directory = tmp.path + "/cache";
  opts.quiet = true;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  const Json spec_json = small_spec().to_json();
  ASSERT_EQ(field(client.submit(spec_json), "event").str(), "finished");
  ASSERT_EQ(field(client.submit(spec_json), "event").str(), "finished");

  // The shared registry is process-wide and cumulative, so assert floors.
  const Json snap = client.metrics();
  EXPECT_EQ(field(snap, "schema").str(), obs::kMetricsSchema);
  const Json& metrics = field(snap, "metrics");
  const auto family_total = [&](const char* name) {
    const Json* fam = metrics.find(name);
    EXPECT_NE(fam, nullptr) << "missing family " << name;
    if (fam == nullptr) return 0.0;
    double total = 0.0;
    for (const Json& v : field(*fam, "values").elements()) {
      const Json* value = v.find("value");
      const Json* count = v.find("count");
      total += value != nullptr ? value->number()
                                : (count != nullptr ? count->number() : 0.0);
    }
    return total;
  };
  EXPECT_GE(family_total("pfc_jobs_submitted_total"), 2.0);
  EXPECT_GE(family_total("pfc_jobs_finished_total"), 2.0);
  EXPECT_GE(family_total("pfc_job_duration_seconds"), 2.0);
  EXPECT_GE(family_total("pfc_job_queue_seconds"), 2.0);
  EXPECT_GE(family_total("pfc_kernel_cache_hits_total"), 1.0)
      << "second identical job must hit the daemon's kernel cache";
  EXPECT_GE(family_total("pfc_kernel_cache_misses_total"), 1.0);
  EXPECT_GE(family_total("pfc_worker_busy_seconds_total"), 0.0);
  // idle daemon: nothing queued or running right now
  EXPECT_EQ(family_total("pfc_queue_depth"), 0.0);
  EXPECT_EQ(family_total("pfc_jobs_inflight"), 0.0);
  EXPECT_GT(family_total("pfc_job_mlups"), 0.0);

  // histogram internal consistency: +Inf cumulative == count
  const Json& dur = *metrics.find("pfc_job_duration_seconds");
  EXPECT_EQ(field(dur, "type").str(), "histogram");
  for (const Json& v : field(dur, "values").elements()) {
    const auto& buckets = field(v, "buckets").elements();
    ASSERT_FALSE(buckets.empty());
    EXPECT_EQ(field(buckets.back(), "le").str(), "+Inf");
    EXPECT_EQ(field(buckets.back(), "count").number(),
              field(v, "count").number());
  }

  // Prometheus exposition of the same registry
  const std::string prom = client.metrics_text();
  EXPECT_NE(prom.find("# TYPE pfc_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP pfc_queue_depth"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pfc_job_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("pfc_job_duration_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("pfc_job_mlups{preset=\"two_phase\"}"),
            std::string::npos);

  server.stop();
  backend::KernelCache::shared().reset();
}

TEST(Serve, ThreadRequestClampedToBudget) {
  // Admission control: workers × threads_per_job must not oversubscribe
  // the machine, so an absurd per-job thread request is clamped to
  // hardware_threads() / workers (floor 1) and counted in
  // pfc_threads_clamped_total. The job still runs to completion.
  TempDir tmp;
  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 2;
  opts.quiet = true;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  app::JobSpec greedy = small_spec();
  greedy.name = "greedy-job";
  greedy.simulation.threads = 1024;
  const Json terminal = client.submit(greedy.to_json());
  ASSERT_EQ(field(terminal, "event").str(), "finished") << terminal.dump(-1);

  const int budget =
      std::max(1, ThreadPool::hardware_threads() / opts.workers);
  const Json& run = field(field(terminal, "result"), "run");
  const Json& threading = field(run, "threading");
  EXPECT_EQ(field(threading, "threads").number(), double(budget));

  const Json snap = client.metrics();
  const Json* fam = field(snap, "metrics").find("pfc_threads_clamped_total");
  ASSERT_NE(fam, nullptr);
  double clamped = 0.0;
  for (const Json& v : field(*fam, "values").elements()) {
    clamped += field(v, "value").number();
  }
  EXPECT_GE(clamped, 1.0);

  // A modest request inside the budget passes through untouched.
  app::JobSpec modest = small_spec();
  modest.simulation.threads = 1;
  const Json ok = client.submit(modest.to_json());
  ASSERT_EQ(field(ok, "event").str(), "finished");
  EXPECT_EQ(field(field(field(ok, "result"), "run"), "threading")
                .find("threads")
                ->number(),
            1.0);
  server.stop();
}

TEST(Serve, FailedJobReportsErrorAndServerSurvives) {
  TempDir tmp;
  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 1;
  opts.quiet = true;
  JobServer server(opts);
  server.start();
  Client client(opts.socket_path);

  // Valid spec, impossible job: solid_phase out of range fails inside the
  // worker (make_params), not the dispatcher — the job errors, the daemon
  // lives on.
  app::JobSpec bad = small_spec();
  bad.initial.solid_phase = 7;
  const Json terminal = client.submit(bad.to_json());
  EXPECT_EQ(field(terminal, "event").str(), "error");
  // job-level errors carry the same timing fields as finished events
  EXPECT_GE(field(terminal, "duration_seconds").number(), 0.0);
  EXPECT_GE(field(terminal, "queued_seconds").number(), 0.0);

  const Json pong = client.ping();
  EXPECT_EQ(field(pong, "event").str(), "pong");
  const auto statuses = server.jobs();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, "failed");
  EXPECT_FALSE(statuses[0].error.empty());
  server.stop();
}

// One protocol line of a million '[' used to recurse the JSON parser off
// the stack and kill the daemon; the depth cap turns it into a protocol
// error on that connection only.
TEST(Serve, DeeplyNestedLineDoesNotKillDaemon) {
  TempDir tmp;
  ServeOptions opts;
  opts.socket_path = tmp.path + "/serve.sock";
  opts.workers = 1;
  opts.quiet = true;
  JobServer server(opts);
  server.start();
  {
    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = opts.socket_path;
    const int fd = connect_endpoint(ep);
    LineChannel conn(fd);
    const std::string line = std::string(1000000, '[') + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
      if (n <= 0) break;  // the daemon may drop us once it saw the line
      off += std::size_t(n);
    }
    Json reply;
    try {
      reply = conn.read_json();
    } catch (const std::exception&) {
      // a reset connection is as good as a closed one
    }
    EXPECT_FALSE(reply.is_object())
        << "a nested-bracket line must not be answered as a request";
  }
  Client client(opts.socket_path);
  EXPECT_EQ(field(client.ping(), "event").str(), "pong");
  server.stop();
}

}  // namespace
}  // namespace pfc::serve
