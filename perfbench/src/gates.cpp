#include <cmath>

#include "pfc/backend/kernel_cache.hpp"
#include "pfc/ir/opcount.hpp"
#include "workloads.hpp"

namespace perfbench {

pfc::app::CompileOptions fixed_compile(const std::string& cache_dir) {
  pfc::app::CompileOptions c;
  c.backend = pfc::app::Backend::Jit;
  c.vector_width = 0;
  c.tune = pfc::app::TuneMode::Off;
  c.cache_dir = cache_dir;
  return c;
}

void interpreter_gate(Context& ctx, const pfc::app::GrandChemParams& params,
                      std::array<long long, 3> cells,
                      pfc::grid::BoundaryKind boundary, const CellFn& phi0,
                      int steps, const std::string& cache_dir,
                      const std::string& label) {
  using namespace pfc;
  const auto zero = [](long long, long long, long long, int) { return 0.0; };
  app::GrandChemModel model(params);
  app::SimulationOptions o;
  o.cells = cells;
  o.boundary = boundary;
  o.compile = fixed_compile(cache_dir);
  app::Simulation jit(model, o);
  o.compile.backend = app::Backend::Interpreter;
  app::Simulation interp(model, o);
  for (app::Simulation* s : {&jit, &interp}) {
    s->init_phi(phi0);
    s->init_mu(zero);
    s->run(steps);
  }
  const double dphi = Array::max_abs_diff(jit.phi(), interp.phi());
  const double dmu = Array::max_abs_diff(jit.mu(), interp.mu());
  std::printf("gate %s: JIT vs interpreter after %d steps on %lldx%lldx%lld: "
              "max|dphi| %.3g, max|dmu| %.3g (tolerance %.0e)\n",
              label.c_str(), steps, cells[0], cells[1], cells[2], dphi, dmu,
              kInterpTolerance);
  ctx.check(std::isfinite(dphi) && std::isfinite(dmu) &&
                dphi <= kInterpTolerance && dmu <= kInterpTolerance,
            label + ": JIT differs from the interpreter");
}

void check_phi_range(Context& ctx, const pfc::Array& phi,
                     const std::string& label) {
  bool ok = true;
  const auto n = phi.size();
  for (int c = 0; c < phi.components() && ok; ++c) {
    for (long long z = 0; z < n[2] && ok; ++z) {
      for (long long y = 0; y < n[1] && ok; ++y) {
        for (long long x = 0; x < n[0]; ++x) {
          const double v = phi.at(x, y, z, c);
          if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
            ok = false;
            break;
          }
        }
      }
    }
  }
  ctx.check(ok, label + ": phi left [0, 1] or is not finite");
}

bool phase_done(double t0, double seconds, long long n, long long min_n) {
  const double el = now_s() - t0;
  return (el >= seconds && n >= min_n) || el >= 4.0 * seconds + 30.0;
}

SetupLayers measure_setup_layers(Context& ctx,
                                 const pfc::app::GrandChemParams& params,
                                 const pfc::app::CompileOptions& co) {
  using namespace pfc;
  Tracer& tr = *ctx.tracer;
  SetupLayers s;
  std::optional<app::GrandChemModel> model;
  fd::PdeUpdate phi_pde, mu_pde;
  double t0 = now_s();
  {
    Scope span(tr, "sym.derive");
    model.emplace(params);
    const double tu = now_s();
    phi_pde = model->phi_update();
    mu_pde = model->mu_update();
    s.updates_s = now_s() - tu;
  }
  s.derive_s = now_s() - t0;

  // The same discretization settings ModelCompiler::compile uses.
  fd::DiscretizeOptions d;
  d.dims = params.dims;
  d.dx = params.dx;
  d.dt = params.dt;
  d.rng_seed = params.rng_seed;
  t0 = now_s();
  {
    Scope span(tr, "ir.lower");
    fd::DiscretizeOptions dp = d;
    dp.clamp_unit_interval = co.clamp_phi;
    dp.renormalize_simplex = co.clamp_phi;
    std::optional<FieldPtr> flux;
    app::ModelCompiler::lower(phi_pde, dp, co, &flux);
    app::ModelCompiler::lower(mu_pde, d, co, &flux);
  }
  s.lower_s = now_s() - t0;

  t0 = now_s();
  std::optional<app::CompiledModel> compiled;
  {
    Scope span(tr, "backend.compile");
    compiled.emplace(app::ModelCompiler(co).compile(*model));
  }
  s.compile_s = now_s() - t0;
  s.source_kb = double(compiled->generated_source().size()) / 1024.0;
  for (const auto* group : {&compiled->phi_kernels, &compiled->mu_kernels}) {
    for (const auto& k : *group) {
      s.ops_per_cell += double(ir::count_ops(k.ir).normalized_flops());
    }
  }

  backend::KernelCache::shared().reset();
  t0 = now_s();
  {
    Scope span(tr, "kernel_cache.load");
    backend::KernelCacheConfig cfg;
    cfg.directory = co.cache_dir;
    cfg.max_bytes = co.cache_max_bytes;
    const auto r = backend::KernelCache::shared().acquire(
        compiled->generated_source(), backend::JitLibrary::Options{}, cfg);
    s.load_hit = r.hit;
  }
  s.load_s = now_s() - t0;
  ctx.check(s.load_hit, "kernel cache missed a source it had just compiled");
  return s;
}

}  // namespace perfbench
