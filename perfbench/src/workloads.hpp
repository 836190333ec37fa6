// The three workloads and the helpers they share. Each run_* function sets
// up its workload `ctx.setups` times (setup_s is the median), measures its
// phase for at least ctx.seconds, checks the outputs and fills ctx.
#pragma once
#include <functional>
#include <string>

#include "harness.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/json.hpp"

namespace perfbench {

void run_solve_p1_3d(Context& ctx);
void run_multiblock_2d(Context& ctx);
void run_serve_mix(Context& ctx);

/// One submission of the serve mix.
struct MixEntry {
  std::string name;  ///< spec name; fresh-dt entries get a unique one
  bool cold = false; ///< fresh dt: the kernel misses the cache
  bool p1 = false;
  long long cells = 0;
  long long steps = 0;
  pfc::obs::Json spec;  ///< pfc-jobspec-v1
};
/// The seeded submission sequence: `blocks` blocks of 20, each holding
/// exactly 1 fresh-dt two_phase job, 4 P1 jobs and every two_phase spec
/// three times, kinds at fixed positions, specs in seeded order. The same
/// seed always gives the same sequence.
std::vector<MixEntry> make_mix(std::uint64_t seed, std::size_t blocks);

/// Compute threads per workload: static slabs make every step wait for its
/// slowest worker, so the workloads leave half of a 4-core host free.
inline constexpr int kComputeThreads = 2;

/// Absolute tolerance of the JIT-vs-interpreter gate. The interpreter
/// evaluates the IR in plain scalar order; the JIT may contract
/// multiply-adds and vectorize, so the fields agree to rounding, not bits.
inline constexpr double kInterpTolerance = 1e-9;

using CellFn = std::function<double(long long, long long, long long, int)>;

/// The compile knobs every workload holds fixed: JIT backend, auto-probed
/// SIMD width, autotuning off, kernel cache in `cache_dir`.
pfc::app::CompileOptions fixed_compile(const std::string& cache_dir);

/// Correctness gate shared by all workloads: runs `steps` steps of the
/// reduced problem (`params`, `cells`) once through the JIT (kernels from
/// `cache_dir`) and once through the IR interpreter, and records whether
/// every φ and µ value agrees within kInterpTolerance.
void interpreter_gate(Context& ctx, const pfc::app::GrandChemParams& params,
                      std::array<long long, 3> cells,
                      pfc::grid::BoundaryKind boundary, const CellFn& phi0,
                      int steps, const std::string& cache_dir,
                      const std::string& label);

/// Records whether every interior φ value is finite and within [0, 1].
void check_phi_range(Context& ctx, const pfc::Array& phi,
                     const std::string& label);

/// The stop rule of every timed loop started at `t0`: at least `seconds`
/// elapsed and at least `min_n` samples, or a hard cap of 4x the budget
/// plus 30 s (a percentile that then lacks samples fails the run).
bool phase_done(double t0, double seconds, long long n, long long min_n);

/// The set-up path of one model taken apart into its layers (traced runs):
/// model + PDE derivation, lowering of both PDEs, the full compile call
/// into `co.cache_dir`, and a kernel-cache load of the same source after
/// the in-memory index was dropped (a disk hit, as a fresh process sees).
struct SetupLayers {
  double derive_s = 0.0;   ///< GrandChemModel + phi_update + mu_update
  double updates_s = 0.0;  ///< the phi_update + mu_update part of it
  double lower_s = 0.0;    ///< ModelCompiler::lower of both PDEs
  double compile_s = 0.0;  ///< ModelCompiler::compile (whole call)
  double load_s = 0.0;     ///< KernelCache::acquire on the warm cache
  bool load_hit = false;
  double source_kb = 0.0;
  double ops_per_cell = 0.0;  ///< normalized flops, all kernels
  /// compile_s without the derivation and lowering it repeats: code
  /// emission plus the external compiler (on an empty cache) and dlopen.
  double backend_s() const { return compile_s - updates_s - lower_s; }
};
SetupLayers measure_setup_layers(Context& ctx,
                                 const pfc::app::GrandChemParams& params,
                                 const pfc::app::CompileOptions& co);

}  // namespace perfbench
