// solve_p1_3d: the paper's P1 ternary-eutectic model in 3-D on one block.
//
// Why: the generated kernels do nearly all of the step work (thousands of
// flops per cell, compute-bound) and the external compiler does most of
// setup_s, so this workload shows kernel, code-generation and JIT-compile
// changes.
#include <cmath>
#include <cstdio>
#include <memory>

#include "pfc/app/params.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/ir/opcount.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pfc;

constexpr long long kEdge = 64;
constexpr grid::BoundaryKind kBoundary = grid::BoundaryKind::ZeroGradient;

/// Seeded lamellar eutectic front over an `n`-cell domain: three solid
/// phases in lamellae along x under a gently undulating front along z.
CellFn eutectic_front(std::uint64_t seed, std::array<long long, 3> n,
                      double epsilon) {
  Rng rng(seed);
  const int lamellae = 3 + int(rng.below(4));
  const int offset = int(rng.below(3));
  const double z0 = rng.uniform(0.22, 0.34) * double(n[2]);
  const double amp = rng.uniform(0.0, 0.03) * double(n[2]);
  const double nx = double(n[0]);
  return [=](long long x, long long, long long z, int c) {
    const double zf = z0 + amp * std::sin(2.0 * M_PI * double(x) / nx);
    const double front =
        app::interface_profile(double(z) - zf, 2.5 * epsilon);
    if (c == 0) return 1.0 - front;
    const int lamella = 1 + (offset + int(x * lamellae / n[0])) % 3;
    return c == lamella ? front : 0.0;
  };
}

/// One step of the single-block algorithm rebuilt from public calls on a
/// copy of the simulation's state: each CompiledKernel::run and each
/// grid::fill_ghosts is timed on its own (kernel.*, boundary.fill_ms).
void measure_sweeps(Context& ctx, const app::Simulation& sim,
                    std::array<long long, 3> cells) {
  Tracer& tr = *ctx.tracer;
  const app::GrandChemModel& m = sim.model();
  const std::array<std::int64_t, 3> n{cells[0], cells[1], cells[2]};
  ThreadPool pool(kComputeThreads);
  const SlabPlan plan = SlabPlan::make(0, cells[2], kComputeThreads, 1);
  Array ps(m.phi_src(), n, 1), pd(m.phi_dst(), n, 1);
  Array us(m.mu_src(), n, 1), ud(m.mu_dst(), n, 1);
  ps.copy_from(sim.phi());
  us.copy_from(sim.mu());
  const auto bind = [&](const ir::Kernel& k) {
    backend::Binding b;
    for (const auto& f : k.fields) {
      Array* a = f->id() == m.phi_src()->id()   ? &ps
                 : f->id() == m.phi_dst()->id() ? &pd
                 : f->id() == m.mu_src()->id()  ? &us
                 : f->id() == m.mu_dst()->id()  ? &ud
                                                : nullptr;
      if (a == nullptr) throw std::runtime_error("unbound field " + f->name());
      b.arrays.push_back(a);
    }
    return b;
  };
  const app::CompiledModel& cm = sim.compiled();
  std::vector<double> phi_ms, mu_ms, fill_ms;
  double t = sim.time();
  long long step = sim.step_count();
  for (int rep = 0; rep < 21; ++rep, ++step, t += sim.dt()) {
    double t0 = now_s();
    {
      Scope s(tr, "kernel.phi");
      for (const auto& k : cm.phi_kernels) {
        k.run(bind(k.ir), cells, t, step, &pool, nullptr, nullptr, &plan);
      }
    }
    phi_ms.push_back(ms_since(t0));
    t0 = now_s();
    {
      Scope s(tr, "boundary.fill");
      grid::fill_ghosts(pd, kBoundary);
    }
    double fill = ms_since(t0);
    t0 = now_s();
    {
      Scope s(tr, "kernel.mu");
      for (const auto& k : cm.mu_kernels) {
        k.run(bind(k.ir), cells, t, step, &pool, nullptr, nullptr, &plan);
      }
    }
    mu_ms.push_back(ms_since(t0));
    t0 = now_s();
    {
      Scope s(tr, "boundary.fill");
      grid::fill_ghosts(ud, kBoundary);
    }
    fill_ms.push_back(fill + ms_since(t0));
    ps.swap_data(pd);
    us.swap_data(ud);
  }
  ctx.layers["kernel.phi_ms"] = {median(phi_ms), (long long)phi_ms.size()};
  ctx.layers["kernel.mu_ms"] = {median(mu_ms), (long long)mu_ms.size()};
  ctx.layers["boundary.fill_ms"] = {median(fill_ms),
                                    (long long)fill_ms.size()};

  // Computed traffic: every IR load and store moves 8 bytes (no cache
  // reuse credited), so flops per byte is a lower bound.
  double flops = 0.0, bytes = 0.0;
  for (const auto* group : {&cm.phi_kernels, &cm.mu_kernels}) {
    for (const auto& k : *group) {
      const ir::OpCounts o = ir::count_ops(k.ir);
      flops += double(o.adds + o.muls + o.divs + o.sqrts + o.rsqrts +
                      o.blends + o.transcendental);
      bytes += 8.0 * double(o.loads + o.stores);
    }
  }
  const double cells_n = double(cells[0] * cells[1] * cells[2]);
  const double kernel_s = (median(phi_ms) + median(mu_ms)) * 1e-3;
  ctx.layers["kernel.gflops"] = {flops * cells_n / kernel_s * 1e-9, 21};
  ctx.layers["kernel.flops_per_byte"] = {flops / bytes, 0};
}

}  // namespace

void run_solve_p1_3d(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  const app::GrandChemParams params = app::make_p1(3);
  const std::array<long long, 3> cells{kEdge, kEdge, kEdge};
  const CellFn phi0 = eutectic_front(ctx.seed, cells, params.epsilon);
  const auto zero = [](long long, long long, long long, int) { return 0.0; };

  app::SimulationOptions opts;
  opts.cells = cells;
  opts.boundary = kBoundary;
  opts.threads = kComputeThreads;
  opts.dispatch = app::Dispatch::Static;

  // Set-up: a clean start each time — empty kernel cache directory and
  // in-memory index — up to the first step being ready.
  std::unique_ptr<app::Simulation> sim;
  std::vector<double> setup_s;
  const int setups = ctx.traced ? 1 : ctx.setups;
  for (int i = 0; i < setups; ++i) {
    const std::string cache = ctx.dir + "/kc" + std::to_string(i);
    fresh_dir(cache);
    backend::KernelCache::shared().reset();
    sim.reset();
    opts.compile = fixed_compile(cache);
    Scope span(tr, "setup");
    const double t0 = now_s();
    if (ctx.traced) {
      const SetupLayers l = measure_setup_layers(ctx, params, opts.compile);
      ctx.layers["ir.ops_per_cell"] = {l.ops_per_cell, 0};
      ctx.layers["backend.source_kb"] = {l.source_kb, 0};
      ctx.layers["backend.compile_cold_s"] = {l.backend_s(), 0};
      const double tf = now_s();
      {
        Scope s(tr, "field.init");
        sim = std::make_unique<app::Simulation>(app::GrandChemModel(params),
                                                opts);
        sim->init_phi(phi0);
        sim->init_mu(zero);
      }
      ctx.layers["field.init_s"] = {now_s() - tf, 0};
    } else {
      sim = std::make_unique<app::Simulation>(app::GrandChemModel(params),
                                              opts);
      sim->init_phi(phi0);
      sim->init_mu(zero);
    }
    setup_s.push_back(now_s() - t0);
    std::printf("setup %d: %.3f s (vector width %d)\n", i, setup_s.back(),
                sim->compiled().compile_report().vector_width);
  }
  ctx.e2e["setup_s"] = {median(setup_s), (long long)setup_s.size()};
  const std::string cache = opts.compile.cache_dir;

  sim->run(2);  // warm-up: first-touch, branch predictors, page faults
  const double cells_n = double(cells[0] * cells[1] * cells[2]);
  const auto phase = [&](std::map<std::string, Value>& out) {
    std::vector<double> ms;
    const double t0 = now_s();
    while (!phase_done(t0, ctx.seconds, (long long)ms.size(),
                       min_samples_for(0.9))) {
      Scope span(tr, "sim.step");
      const double ts = now_s();
      sim->run(1);
      ms.push_back(ms_since(ts));
    }
    const double wall = now_s() - t0;
    const long long n = (long long)ms.size();
    out["wall_mlups"] = {double(n) * cells_n / wall * 1e-6, n};
    out["jobs_per_s"] = {double(n) / wall, n};
    put_latency(out, "step_ms", ms);
    put_latency(out, "job_ms", ms);
    ctx.attempted += n;
  };
  if (ctx.measure_overhead) {
    tr.set_enabled(false);
    phase(ctx.e2e_untraced);
    tr.set_enabled(true);
  }
  phase(ctx.e2e);
  check_phi_range(ctx, sim->phi(), "solve_p1_3d");

  if (ctx.traced) {
    measure_sweeps(ctx, *sim, cells);
    // Plain single-threaded baseline of the same problem and state.
    app::SimulationOptions one = opts;
    one.threads = 1;
    app::Simulation serial(app::GrandChemModel(params), one);
    serial.phi().copy_from(sim->phi());
    serial.mu().copy_from(sim->mu());
    serial.run(1);
    std::vector<double> ms;
    while ((long long)ms.size() < min_samples_for(0.5) + 1) {
      Scope span(tr, "sim.step_1thread");
      const double ts = now_s();
      serial.run(1);
      ms.push_back(ms_since(ts));
    }
    ctx.layers["threads.speedup_2v1"] = {
        median(ms) / ctx.e2e["step_ms_p50"].value, (long long)ms.size()};
  }
  sim.reset();

  // Correctness: the generated kernels against the IR interpreter on a
  // reduced copy of the same problem (same model, same seeded front).
  const std::array<long long, 3> small{12, 12, 16};
  Scope span(tr, "gate");
  interpreter_gate(ctx, params, small, kBoundary,
                   eutectic_front(ctx.seed, small, params.epsilon), 3, cache,
                   "solve_p1_3d");
}

}  // namespace perfbench
