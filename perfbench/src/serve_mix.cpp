// serve_mix: a daemon (serve::JobServer, 2 workers, fresh kernel cache)
// driven in a closed loop by 4 client connections from this process. Each
// client waits for its job's "finished" event before it submits again, the
// way a parameter-sweep script does.
//
// Why: the protocol, admission, queueing, result serialization and kernel-
// cache layers do the work here. Jobs are seeded draws from a pool of a
// dozen specs — mostly small two_phase jobs, a minority of P1 jobs —
// so repeats share kernels; 1 submission in 20 carries a fresh dt whose
// kernel misses the cache and pays a cold compile. With 4 clients on 2
// workers, head-of-line blocking behind cold and heavy jobs shows up in
// job_ms_p90.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "pfc/app/jobspec.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pfc;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
/// Submissions come in blocks of 20 with a fixed composition and fixed
/// positions of the job kinds; the seed permutes the specs within a kind and
/// picks the spec that gets a fresh dt. A measured phase is whole blocks,
/// so every phase has exactly these shares and the same queueing pattern.
constexpr int kBlock = 20;
/// Block slots of the fresh-dt job and of the four P1 jobs; the other 15
/// slots hold every two_phase spec three times. P1 jobs are a fifth of the
/// mix, so the 90th percentile of per-step times falls in the middle of
/// the P1 cluster (the top fifth), not at its edge.
constexpr int kColdSlot = 0;
constexpr int kP1Slots[] = {3, 8, 13, 18};
/// At least 200 jobs (10 blocks) per phase: p90 needs 100 samples, ten
/// beyond it.
constexpr long long kMinJobs = 200;

struct PoolSpec {
  const char* name;
  bool p1;
  long long edge;
  long long steps;
  double radius;
  int solid_phase;
};

/// Every warm job costs about the same on a worker (~150 ms: a P1 job is
/// mostly its symbolic pipeline, a two_phase job mostly its steps), and
/// within a kind the specs share cells and steps. The latency and per-step
/// distributions then have one cluster per kind instead of a ladder of
/// job sizes, so p50 and p90 sit inside a cluster, not on the edge between
/// two, and the closed loop's queueing is the same from run to run.
constexpr PoolSpec kPool[] = {
    {"tp-a", false, 96, 600, 0.30, 1}, {"tp-b", false, 96, 600, 0.22, 1},
    {"tp-c", false, 96, 600, 0.28, 1}, {"tp-d", false, 96, 600, 0.35, 1},
    {"tp-e", false, 96, 600, 0.25, 1}, {"p1-a", true, 56, 30, 0.30, 1},
    {"p1-b", true, 56, 30, 0.25, 2},   {"p1-c", true, 56, 30, 0.35, 3},
    {"p1-d", true, 56, 30, 0.20, 1},
};
constexpr int kTwoPhaseSpecs = 5;
constexpr int kP1Specs = 4;

app::JobSpec make_spec(const PoolSpec& p) {
  app::JobSpec s;
  s.name = p.name;
  s.model.preset = p.p1 ? "p1" : "two_phase";
  s.model.dims = 2;
  s.initial.kind = "disk";
  s.initial.radius_fraction = p.radius;
  s.initial.solid_phase = p.solid_phase;
  s.steps = p.steps;
  s.mode = "single";
  s.simulation.cells = {p.edge, p.edge, 1};
  s.simulation.threads = 1;
  s.simulation.compile.tune = app::TuneMode::Off;
  return s;
}

/// One client's record of one job, all times client-side.
struct JobRecord {
  std::size_t slot = 0;  ///< index into the mix
  long long job = -1;
  double submit = 0.0, accepted = 0.0, started = 0.0, finished = 0.0;
  std::string terminal;
  std::string phi, mu;
  double kernel_s = 0.0;  ///< the job's kernel seconds (its run report)
  std::size_t result_bytes = 0;
};

/// A closed-loop client pool over `mix`, starting at slot `first`.
struct LoadPhase {
  std::vector<JobRecord> records;
  double wall_s = 0.0;
  std::size_t end = 0;  ///< first slot not submitted
};

LoadPhase drive(const std::string& endpoint, const std::vector<MixEntry>& mix,
                std::size_t first, double seconds) {
  std::atomic<std::size_t> next{first};
  std::atomic<std::size_t> limit{std::numeric_limits<std::size_t>::max()};
  std::mutex mutex;
  LoadPhase out;
  const double t0 = now_s();
  const auto client = [&]() {
    serve::Client c(endpoint);
    for (;;) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= limit.load() || slot >= mix.size()) break;
      JobRecord r;
      r.slot = slot;
      r.submit = now_s();
      try {
        const obs::Json ev =
            c.submit(mix[slot].spec, [&](const obs::Json& e) {
              const obs::Json* kind = e.find("event");
              if (kind == nullptr) return;
              if (kind->str() == "accepted") {
                r.accepted = now_s();
                r.job = (long long)e.find("job")->number();
              } else if (kind->str() == "started") {
                r.started = now_s();
              }
            });
        r.finished = now_s();
        r.result_bytes = ev.dump(-1).size() + 1;
        if (const obs::Json* k = ev.find("event")) r.terminal = k->str();
        if (r.terminal == "finished") {
          const obs::Json& res = *ev.find("result");
          r.phi = res.find("phi_fnv1a64")->str();
          r.mu = res.find("mu_fnv1a64")->str();
          r.kernel_s = res.find("run")
                           ->find("derived")
                           ->find("kernel_seconds_total")
                           ->number();
        }
      } catch (const std::exception& e) {
        // A transport failure is a failed job, not a crashed benchmark.
        r.finished = now_s();
        r.terminal = std::string("client error: ") + e.what();
      }
      {
        std::lock_guard<std::mutex> lk(mutex);
        out.records.push_back(std::move(r));
      }
      // Time is up: finish the current block of submissions, so the phase
      // always holds whole blocks (the mix's exact shares).
      if (now_s() - t0 >= seconds && limit.load() == SIZE_MAX) {
        const std::size_t at = next.load();
        std::size_t stop = (at - first + kBlock - 1) / kBlock * kBlock;
        stop = first + std::max<std::size_t>(stop, std::size_t(kMinJobs));
        std::size_t expected = SIZE_MAX;
        limit.compare_exchange_strong(expected, stop);
      }
    }
  };
  std::vector<std::thread> ts;
  for (int i = 0; i < kClients; ++i) ts.emplace_back(client);
  for (auto& t : ts) t.join();
  out.wall_s = now_s() - t0;
  out.end = std::min(limit.load(), mix.size());
  std::sort(out.records.begin(), out.records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.slot < b.slot;
            });
  return out;
}

}  // namespace

std::vector<MixEntry> make_mix(std::uint64_t seed, std::size_t blocks) {
  Rng rng(seed ^ 0x73657276ull);
  const auto shuffle = [&](std::vector<int>& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::swap(v[i], v[rng.below(i + 1)]);
    }
  };
  const double base_dt = app::make_two_phase(2).dt;
  std::vector<MixEntry> mix;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<int> tp, p1;
    for (int i = 0; i < 3 * kTwoPhaseSpecs; ++i) tp.push_back(i / 3);
    for (int i = 0; i < kP1Specs; ++i) p1.push_back(kTwoPhaseSpecs + i);
    shuffle(tp);
    shuffle(p1);
    const int cold_pick = int(rng.below(kTwoPhaseSpecs));
    for (int slot = 0, next_tp = 0, next_p1 = 0; slot < kBlock; ++slot) {
      const bool is_cold = slot == kColdSlot;
      const bool is_p1 = std::find(std::begin(kP1Slots), std::end(kP1Slots),
                                   slot) != std::end(kP1Slots);
      const int pick = is_cold ? cold_pick
                       : is_p1 ? p1[std::size_t(next_p1++)]
                               : tp[std::size_t(next_tp++)];
      app::JobSpec s = make_spec(kPool[pick]);
      MixEntry e;
      e.cold = is_cold;
      e.p1 = is_p1;
      e.cells = kPool[pick].edge * kPool[pick].edge;
      e.steps = kPool[pick].steps;
      if (is_cold) {
        // A dt no other job uses: its generated source, and so its cache
        // key, is new.
        s.model.dt = base_dt * (1.0 - 1e-4 * double(b + 1));
        s.name = std::string(kPool[pick].name) + "-dt" + std::to_string(b + 1);
      }
      e.name = s.name;
      e.spec = s.to_json();
      mix.push_back(std::move(e));
    }
  }
  return mix;
}

void run_serve_mix(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  const std::vector<MixEntry> mix = make_mix(ctx.seed, 100);
  const std::string socket = ctx.dir + "/serve.sock";
  const std::string endpoint = "unix:" + socket;

  // Set-up: daemon start to ready, plus the pool's two kernels (two_phase
  // and P1 at their base dt) primed through the daemon itself.
  std::unique_ptr<serve::JobServer> server;
  std::vector<double> setup_s;
  std::string cache;
  const int setups = ctx.traced ? 1 : ctx.setups;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    cache = ctx.dir + "/kc" + std::to_string(i);
    fresh_dir(cache);
    backend::KernelCache::shared().reset();
    Scope span(tr, "setup");
    const double t0 = now_s();
    serve::ServeOptions so;
    so.socket_path = socket;
    so.workers = kWorkers;
    so.cache.directory = cache;
    so.quiet = true;
    server = std::make_unique<serve::JobServer>(so);
    server->start();
    serve::Client(endpoint).ping();
    std::vector<std::thread> primes;
    std::atomic<int> primed{0};
    for (int p : {0, kTwoPhaseSpecs}) {
      primes.emplace_back([&, p] {
        try {
          const obs::Json ev =
              serve::Client(endpoint).submit(make_spec(kPool[p]).to_json());
          const obs::Json* k = ev.find("event");
          if (k != nullptr && k->str() == "finished") ++primed;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve_mix: priming: %s\n", e.what());
        }
      });
    }
    for (auto& t : primes) t.join();
    ctx.check(primed == 2, "serve_mix: priming job failed");
    setup_s.push_back(now_s() - t0);
    std::printf("setup %d: %.3f s\n", i, setup_s.back());
  }
  ctx.e2e["setup_s"] = {median(setup_s), (long long)setup_s.size()};

  const auto measure = [&](std::size_t first,
                           std::map<std::string, Value>& out) {
    LoadPhase ph = drive(endpoint, mix, first, ctx.seconds);
    std::vector<double> job_ms, step_ms;
    double updates = 0.0;
    long long ok = 0;
    for (const JobRecord& r : ph.records) {
      const MixEntry& e = mix[r.slot];
      job_ms.push_back((r.finished - r.submit) * 1e3);
      if (r.terminal == "finished") {
        ++ok;
        updates += double(e.cells) * double(e.steps);
        step_ms.push_back(r.kernel_s * 1e3 / double(e.steps));
      }
      ctx.check(r.terminal == "finished",
                "serve_mix: job " + e.name + " ended with " + r.terminal);
    }
    out["jobs_per_s"] = {double(ok) / ph.wall_s, ok};
    out["wall_mlups"] = {updates / ph.wall_s * 1e-6, ok};
    put_latency(out, "job_ms", job_ms);
    put_latency(out, "step_ms", step_ms);
    return ph;
  };
  std::size_t first = 0;
  if (ctx.measure_overhead) {
    tr.set_enabled(false);
    first = measure(0, ctx.e2e_untraced).end;
    tr.set_enabled(true);
  }
  const auto stats0 = backend::KernelCache::shared().stats();
  const LoadPhase ph = measure(first, ctx.e2e);
  const auto stats1 = backend::KernelCache::shared().stats();

  if (ctx.traced) {
    std::vector<double> admit, queue, run, result_kb, cold_ms;
    for (const JobRecord& r : ph.records) {
      const int job = tr.record("serve.job", r.submit, r.finished, -1, r.job);
      tr.record("serve.admit", r.submit, r.accepted, job, r.job);
      tr.record("serve.queue", r.accepted, r.started, job, r.job);
      tr.record("serve.run", r.started, r.finished, job, r.job);
      admit.push_back((r.accepted - r.submit) * 1e3);
      queue.push_back((r.started - r.accepted) * 1e3);
      run.push_back((r.finished - r.started) * 1e3);
      result_kb.push_back(double(r.result_bytes) / 1024.0);
      if (mix[r.slot].cold) cold_ms.push_back((r.finished - r.submit) * 1e3);
    }
    const long long n = (long long)ph.records.size();
    ctx.layers["serve.admit_ms"] = {median(admit), n};
    ctx.layers["serve.queue_ms_p50"] =
        require_percentile(queue, 0.5, "serve.queue_ms_p50");
    ctx.layers["serve.queue_ms_p90"] =
        require_percentile(queue, 0.9, "serve.queue_ms_p90");
    ctx.layers["serve.run_ms"] = {median(run), n};
    ctx.layers["serve.result_kb"] = {median(result_kb), n};
    ctx.layers["serve.cold_job_ms"] = {median(cold_ms),
                                       (long long)cold_ms.size()};
    const double hits = double(stats1.hits - stats0.hits);
    const double misses = double(stats1.misses - stats0.misses);
    ctx.layers["kernel_cache.hit_ratio"] = {hits / (hits + misses),
                                            (long long)(hits + misses)};
  }
  server->stop();
  server.reset();

  // Correctness: every result equals, bitwise (FNV-1a of the fields), the
  // first result of its spec and an in-process run_job of that spec.
  Scope gate(tr, "gate");
  std::map<std::string, std::pair<std::string, std::string>> first_result;
  for (const JobRecord& r : ph.records) {
    if (r.terminal != "finished") continue;
    const auto [it, inserted] =
        first_result.emplace(mix[r.slot].name, std::make_pair(r.phi, r.mu));
    if (!inserted) {
      ctx.check(it->second == std::make_pair(r.phi, r.mu),
                "serve_mix: " + mix[r.slot].name +
                    " differs from its first result");
    }
  }
  std::vector<double> parse_us;
  for (const auto& [name, sums] : first_result) {
    const auto e = std::find_if(mix.begin(), mix.end(), [&](const MixEntry& m) {
      return m.name == name;
    });
    const std::string text = e->spec.dump(-1);
    app::JobSpec spec;
    for (int rep = 0; rep < (ctx.traced ? 20 : 1); ++rep) {
      const double t0 = now_s();
      {
        Scope span(tr, "json.parse");
        spec = app::JobSpec::parse(text);
      }
      parse_us.push_back((now_s() - t0) * 1e6);
    }
    spec.simulation.compile.cache_dir = cache;
    const app::JobResult res = app::run_job(spec);
    char phi[17], mu[17];
    std::snprintf(phi, sizeof phi, "%016llx",
                  (unsigned long long)res.phi_checksum);
    std::snprintf(mu, sizeof mu, "%016llx",
                  (unsigned long long)res.mu_checksum);
    ctx.check(sums.first == phi && sums.second == mu,
              "serve_mix: " + name + " differs from an in-process run_job");
  }
  std::printf("gate serve_mix: %zu jobs over %zu distinct specs checked "
              "against first results and in-process run_job\n",
              ph.records.size(), first_result.size());

  if (ctx.traced) {
    ctx.layers["json.parse_us"] = {median(parse_us),
                                   (long long)parse_us.size()};
    // app::interior_checksum on the state of the largest two_phase job.
    const PoolSpec& big = kPool[kTwoPhaseSpecs - 1];
    app::SimulationOptions so;
    so.cells = {big.edge, big.edge, 1};
    so.compile = fixed_compile(cache);
    app::Simulation sim(app::GrandChemModel(app::make_two_phase(2)), so);
    sim.init_phi([](long long x, long long, long long, int c) {
      return c == 1 ? double(x % 7) / 7.0 : 1.0 - double(x % 7) / 7.0;
    });
    std::vector<double> ck;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 21; ++rep) {
      const double t0 = now_s();
      {
        Scope span(tr, "checksum");
        sink = sink ^ app::interior_checksum(sim.phi()) ^
               app::interior_checksum(sim.mu());
      }
      ck.push_back((now_s() - t0) * 1e3);
    }
    ctx.layers["checksum.ms"] = {median(ck), (long long)ck.size()};
  }

  // Generated kernels against the IR interpreter on reduced copies of the
  // pool's two models.
  const auto disk = [](double eps) {
    return [eps](long long x, long long y, long long, int c) {
      const double r = std::hypot(double(x) - 12.0, double(y) - 12.0) - 6.0;
      const double s = app::interface_profile(r, 2.5 * eps);
      return c == 1 ? s : c == 0 ? 1.0 - s : 0.0;
    };
  };
  const app::GrandChemParams tp = app::make_two_phase(2);
  const app::GrandChemParams p1 = app::make_p1(2);
  interpreter_gate(ctx, tp, {24, 24, 1}, grid::BoundaryKind::Periodic,
                   disk(tp.epsilon), 10, cache, "serve_mix two_phase");
  interpreter_gate(ctx, p1, {24, 24, 1}, grid::BoundaryKind::Periodic,
                   disk(p1.epsilon), 5, cache, "serve_mix p1");
}

}  // namespace perfbench
