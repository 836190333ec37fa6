// multiblock_2d: two_phase in 2-D, 512^2 global cells in 8x8 blocks,
// synchronous ghost exchange, two in-process ranks with one thread each.
//
// Why: the kernels are cheap and the blocks small, so per-block launches
// and ghost exchange are a large share of each step; the compile layer
// does almost nothing (the kernel cache is primed before the set-ups).
// This guards both time-stepping classes (Simulation,
// DistributedSimulation) and the exchange path.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "pfc/app/distributed.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/mpi/simmpi.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pfc;

constexpr int kRanks = 2;
constexpr long long kEdge = 512;
constexpr int kBlocks = 8;
/// Multi-block vs single-block agreement (see the gate below).
constexpr double kSingleBlockTolerance = 1e-13;

/// Seeded solid disks (phase 1) in the melt (phase 0) on an `n`-cell
/// periodic domain; distances use the nearest periodic image.
CellFn seeded_disks(std::uint64_t seed, std::array<long long, 3> n,
                    double epsilon) {
  Rng rng(seed ^ 0x6d75ull);
  struct Disk {
    double x, y, r;
  };
  // A fixed count: the set-up evaluates every disk at every cell.
  std::vector<Disk> disks(4);
  for (auto& d : disks) {
    d.x = rng.uniform(0.0, 1.0) * double(n[0]);
    d.y = rng.uniform(0.0, 1.0) * double(n[1]);
    d.r = rng.uniform(0.06, 0.16) * double(n[0]);
  }
  const double w = 2.5 * epsilon;
  return [=](long long x, long long y, long long, int c) {
    double solid = 0.0;
    for (const auto& d : disks) {
      double dx = std::fabs(double(x) - d.x), dy = std::fabs(double(y) - d.y);
      dx = std::min(dx, double(n[0]) - dx);
      dy = std::min(dy, double(n[1]) - dy);
      solid = std::max(solid, app::interface_profile(
                                  std::sqrt(dx * dx + dy * dy) - d.r, w));
    }
    return c == 1 ? solid : 1.0 - solid;
  };
}

/// What the rank threads hand back.
struct Shared {
  std::vector<double> setup_s;
  std::vector<double> step_ms;        // rank 0's run(1) times
  std::vector<double> wait_ms[kRanks];  // per-rank post-step sync
  double wall_s = 0.0;
  long long steps = 0;  // measured steps
  long long total_steps = 0;
  std::vector<double> phi;  // gathered global phi
  std::vector<double> exchange_ms;
  double exchange_bytes = 0.0;
  double exchange_rounds = 0.0;
  struct {
    std::vector<double> step_ms;
    double wall_s = 0.0;
    long long steps = 0;
  } untraced;  // the untraced twin phase of a traced run
};

void put_phase(std::map<std::string, Value>& out,
               const std::vector<double>& step_ms, double wall_s,
               long long n) {
  out["wall_mlups"] = {double(n) * double(kEdge * kEdge) / wall_s * 1e-6, n};
  out["jobs_per_s"] = {double(n) / wall_s, n};
  put_latency(out, "step_ms", step_ms);
  put_latency(out, "job_ms", step_ms);
}

/// GhostExchange::exchange of phi and mu on the workload's decomposition,
/// driven directly (exchange.*).
void measure_exchange(Context& ctx, mpi::Comm& comm,
                      const app::GrandChemModel& model, Shared& sh) {
  grid::BlockForest forest({kEdge, kEdge, 1}, {kBlocks, kBlocks, 1}, kRanks,
                           2, grid::BoundaryKind::Periodic);
  std::vector<std::unique_ptr<Array>> store;
  std::vector<grid::LocalBlockField> phi_l, mu_l;
  for (const grid::Block* b : forest.blocks_of_rank(comm.rank())) {
    const std::array<std::int64_t, 3> n{b->size[0], b->size[1], b->size[2]};
    store.push_back(std::make_unique<Array>(model.phi_src(), n, 1));
    phi_l.push_back({b, store.back().get()});
    store.push_back(std::make_unique<Array>(model.mu_src(), n, 1));
    mu_l.push_back({b, store.back().get()});
  }
  const int comps = std::max(model.phi_src()->components(),
                             model.mu_src()->components());
  grid::GhostExchange ex(forest, &comm, comps, 1);
  ex.exchange(phi_l, 1);  // first round sizes the buffers
  ex.exchange(mu_l, 2);
  const std::size_t rounds0 = ex.rounds();
  const int reps = 100;
  double bytes = 0.0;
  for (int r = 0; r < reps; ++r) {
    comm.barrier();
    const double t0 = now_s();
    {
      Scope s(*ctx.tracer, "exchange");
      ex.exchange(phi_l, 1);
      bytes += double(ex.last_bytes_sent());
      ex.exchange(mu_l, 2);
      bytes += double(ex.last_bytes_sent());
    }
    if (comm.rank() == 0) sh.exchange_ms.push_back(ms_since(t0));
  }
  const double all_bytes = comm.allreduce_sum(bytes / reps);
  if (comm.rank() == 0) {
    sh.exchange_bytes = all_bytes;
    sh.exchange_rounds = double(ex.rounds() - rounds0) / reps;
  }
}

}  // namespace

void run_multiblock_2d(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  const app::GrandChemParams params = app::make_two_phase(2);
  const std::array<long long, 3> cells{kEdge, kEdge, 1};
  const CellFn phi0 = seeded_disks(ctx.seed, cells, params.epsilon);
  const auto zero = [](long long, long long, long long, int) { return 0.0; };

  const std::string cache = ctx.dir + "/kc";
  fresh_dir(cache);
  backend::KernelCache::shared().reset();
  app::DistributedOptions o;
  o.cells = cells;
  o.blocks_per_dim = {kBlocks, kBlocks, 1};
  o.overlap = app::OverlapMode::Off;
  o.threads = 1;
  o.boundary = grid::BoundaryKind::Periodic;
  o.compile = fixed_compile(cache);
  {
    const double t0 = now_s();
    app::ModelCompiler(o.compile).compile(app::GrandChemModel(params));
    std::printf("kernel cache primed in %.3f s\n", now_s() - t0);
  }

  Shared sh;
  const int setups = ctx.traced ? 1 : ctx.setups;
  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const bool root = comm.rank() == 0;
    std::unique_ptr<app::DistributedSimulation> ds;
    for (int i = 0; i < setups; ++i) {
      ds.reset();
      comm.barrier();
      // Drop the in-memory index: each set-up loads the kernels from the
      // primed cache directory, as a freshly started process would.
      if (root) backend::KernelCache::shared().reset();
      comm.barrier();
      const double t0 = now_s();
      if (ctx.traced && root) {
        Scope span(tr, "setup");
        const SetupLayers l = measure_setup_layers(ctx, params, o.compile);
        ctx.layers["sym.derive_s"] = {l.derive_s, 0};
        ctx.layers["ir.lower_s"] = {l.lower_s, 0};
        ctx.layers["kernel_cache.load_s"] = {l.load_s, 0};
      }
      comm.barrier();
      {
        Scope span(tr, ctx.traced ? "field.init" : "setup");
        ds = std::make_unique<app::DistributedSimulation>(
            app::GrandChemModel(params), o, &comm);
        ds->init(phi0, zero);
      }
      comm.barrier();
      if (root) {
        sh.setup_s.push_back(now_s() - t0);
        std::printf("setup %d: %.4f s\n", i, sh.setup_s.back());
      }
    }

    ds->run(2);  // warm-up
    comm.barrier();
    const auto phase = [&]() {
      const double t0 = now_s();
      long long n = 0;
      for (;;) {
        const double ts = now_s();
        {
          Scope span(tr, "sim.step");
          ds->run(1);
        }
        const double step = ms_since(ts);
        ++n;
        const double tw = now_s();
        const double stop =
            comm.allreduce_max(root && phase_done(t0, ctx.seconds, n,
                                                  min_samples_for(0.9))
                                   ? 1.0
                                   : 0.0);
        tr.record("mpi.wait", tw, now_s(), -1);
        sh.wait_ms[comm.rank()].push_back(ms_since(tw));
        if (root) sh.step_ms.push_back(step);
        if (stop > 0.0) break;
      }
      if (root) {
        sh.wall_s = now_s() - t0;
        sh.steps = n;
      }
    };
    if (ctx.measure_overhead) {
      // The untraced twin phase (for the tracing overhead).
      if (root) tr.set_enabled(false);
      comm.barrier();
      phase();
      comm.barrier();
      if (root) {
        sh.untraced = {std::move(sh.step_ms), sh.wall_s, sh.steps};
        sh.step_ms.clear();
        for (auto& w : sh.wait_ms) w.clear();
        tr.set_enabled(true);
      }
      comm.barrier();
    }
    phase();
    std::vector<double> phi = ds->gather_phi();
    if (root) {
      sh.phi = std::move(phi);
      sh.total_steps = ds->step_count();
    }
    if (ctx.traced) {
      measure_exchange(ctx, comm, app::GrandChemModel(params), sh);
    }
  });

  const long long n = sh.steps;
  ctx.attempted += n;
  ctx.e2e["setup_s"] = {median(sh.setup_s), (long long)sh.setup_s.size()};
  put_phase(ctx.e2e, sh.step_ms, sh.wall_s, n);
  if (ctx.measure_overhead) {
    put_phase(ctx.e2e_untraced, sh.untraced.step_ms, sh.untraced.wall_s,
              sh.untraced.steps);
  }

  // Correctness 1: the gathered multi-block field against a single-block
  // run of the same domain for the same number of steps. The two classes
  // do not agree bit for bit: a block's last cells in x run in the
  // kernel's scalar remainder loop, which rounds differently from the
  // vector body the single block runs them in (1 ulp). The gate therefore
  // allows kSingleBlockTolerance, the bound the library's own multi-block
  // tests use, and prints how many values differ in their bits.
  // The replay also times single-block steps on the same cores, the
  // reference of multiblock.overhead.
  Scope gate(tr, "gate");
  app::SimulationOptions so;
  so.cells = cells;
  so.boundary = grid::BoundaryKind::Periodic;
  so.threads = kRanks;
  so.compile = o.compile;
  app::Simulation single(app::GrandChemModel(params), so);
  single.init_phi(phi0);
  single.init_mu(zero);
  std::vector<double> single_ms;
  for (long long s = 0; s < sh.total_steps; ++s) {
    const double ts = now_s();
    single.run(1);
    single_ms.push_back(ms_since(ts));
  }
  const Array& sp = single.phi();
  const std::size_t plane = std::size_t(kEdge * kEdge);
  bool same_size = sh.phi.size() == plane * std::size_t(sp.components());
  long long not_bitwise = 0;
  double max_diff = 0.0;
  bool within = same_size;
  for (int c = 0; c < sp.components() && same_size; ++c) {
    for (long long y = 0; y < kEdge; ++y) {
      for (long long x = 0; x < kEdge; ++x) {
        const double a = sp.at(x, y, 0, c);
        const double b = sh.phi[std::size_t(x + kEdge * y) + plane * c];
        if (std::memcmp(&a, &b, sizeof a) != 0) {
          ++not_bitwise;
          max_diff = std::max(max_diff, std::fabs(a - b));
          within = within && std::fabs(a - b) <= kSingleBlockTolerance;
        }
      }
    }
  }
  std::printf("gate multiblock_2d: gathered phi after %lld steps vs the "
              "single-block run: max|dphi| %.3g (tolerance %.0e), %lld of "
              "%zu values not bitwise equal\n",
              sh.total_steps, max_diff, kSingleBlockTolerance, not_bitwise,
              sh.phi.size());
  ctx.check(within,
            "multiblock_2d: gathered phi differs from the single block");
  check_phi_range(ctx, sp, "multiblock_2d");

  if (ctx.traced) {
    ctx.layers["exchange.ms"] = {median(sh.exchange_ms),
                                 (long long)sh.exchange_ms.size()};
    ctx.layers["exchange.bytes_per_step"] = {sh.exchange_bytes, 0};
    ctx.layers["exchange.rounds_per_step"] = {sh.exchange_rounds, 0};
    double wait = 0.0;
    for (const auto& w : sh.wait_ms) wait += median(w) / kRanks;
    ctx.layers["mpi.wait_ms"] = {wait, (long long)sh.wait_ms[0].size()};
    // Steady-state single-block steps (the first ones pay page faults).
    const std::vector<double> tail(
        single_ms.begin() + std::ptrdiff_t(single_ms.size() / 4),
        single_ms.end());
    ctx.layers["multiblock.overhead"] = {
        ctx.e2e["step_ms_p50"].value / median(tail), (long long)tail.size()};
  }

  // Correctness 2: generated kernels against the IR interpreter on a
  // reduced copy of the same problem.
  const std::array<long long, 3> small{64, 64, 1};
  interpreter_gate(ctx, params, small, grid::BoundaryKind::Periodic,
                   seeded_disks(ctx.seed, small, params.epsilon), 10, cache,
                   "multiblock_2d");
}

}  // namespace perfbench
