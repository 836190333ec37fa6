#include "pfc/app/distributed.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "pfc/perf/drift.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::app {

namespace {

std::array<std::int64_t, 3> flux_size(const std::array<long long, 3>& n,
                                      int dims) {
  std::array<std::int64_t, 3> s{1, 1, 1};
  for (int d = 0; d < dims; ++d) s[std::size_t(d)] = n[std::size_t(d)] + 1;
  return s;
}

std::array<std::int64_t, 3> cell_size(const std::array<long long, 3>& n) {
  return {n[0], n[1], n[2]};
}

// JIT fault injection must reach the ctor's compile (member-init list).
CompileOptions compile_opts_with_faults(const DomainOptions& o) {
  CompileOptions c = o.compile;
  c.fail_jit_attempts =
      resilience::effective_faults(o.resilience).fail_jit_attempts;
  return c;
}

/// Peels the `width`-thick shell off `full`, outermost dim first, into
/// disjoint slabs (≤ 2·dims of them); returns the remaining inset box.
/// Degenerate boxes (2·width ≥ extent) leave an empty interior with the
/// whole box covered by slabs — still correct, just nothing to overlap.
backend::CellRange peel_frontier(const backend::CellRange& full,
                                 const std::array<long long, 3>& width,
                                 int dims,
                                 std::vector<backend::CellRange>& slabs) {
  backend::CellRange inner = full;
  for (int d = dims - 1; d >= 0; --d) {
    const auto dd = std::size_t(d);
    if (width[dd] <= 0) continue;
    backend::CellRange lo = inner, hi = inner;
    lo.hi[dd] = std::min(inner.hi[dd], inner.lo[dd] + width[dd]);
    hi.lo[dd] = std::max(lo.hi[dd], inner.hi[dd] - width[dd]);
    if (lo.cells() > 0) slabs.push_back(lo);
    if (hi.cells() > 0) slabs.push_back(hi);
    inner.lo[dd] = lo.hi[dd];
    inner.hi[dd] = hi.lo[dd];
  }
  return inner;
}

/// Frontier width per kernel of one execution group, back to front: every
/// kernel writing the exchanged field needs a `ghost`-wide shell (the
/// exchange packs those edge cells), and an upstream kernel j feeding a
/// downstream kernel l must widen l's shell by l's read offsets into j's
/// output (plus the iteration-extent difference on the high side).
std::vector<std::array<long long, 3>> frontier_widths(
    const std::vector<CompiledKernel>& kernels, std::uint64_t exchanged_id,
    int dims, int ghost) {
  std::vector<std::array<long long, 3>> w(kernels.size(), {0, 0, 0});
  for (std::size_t j = kernels.size(); j-- > 0;) {
    for (const auto& wr : kernels[j].ir.writes) {
      if (wr->id() == exchanged_id) {
        for (int d = 0; d < dims; ++d) {
          w[j][std::size_t(d)] =
              std::max(w[j][std::size_t(d)], (long long)ghost);
        }
      }
    }
    for (std::size_t l = j + 1; l < kernels.size(); ++l) {
      const auto reads = backend::read_offset_ranges(kernels[l].ir);
      for (const auto& wr : kernels[j].ir.writes) {
        const auto it = reads.find(wr->id());
        if (it == reads.end()) continue;
        for (int d = 0; d < dims; ++d) {
          const auto dd = std::size_t(d);
          const long long extent_diff = kernels[j].ir.extent_plus[dd] -
                                        kernels[l].ir.extent_plus[dd];
          w[j][dd] = std::max(
              {w[j][dd], w[l][dd] + it->second.hi[dd],
               w[l][dd] + extent_diff - it->second.lo[dd]});
        }
      }
    }
  }
  return w;
}

}  // namespace

DistributedSimulation::DistributedSimulation(const GrandChemModel& model,
                                             const DistributedOptions& opts,
                                             mpi::Comm* comm)
    : DistributedSimulation(model, opts, comm, NodeSchedule{},
                            "distributed") {}

DistributedSimulation::DistributedSimulation(GrandChemModel model,
                                             const DistributedOptions& opts,
                                             mpi::Comm* comm,
                                             const NodeSchedule& node,
                                             std::string report_name)
    : model_(std::move(model)),
      opts_(opts),
      node_(node),
      report_name_(std::move(report_name)),
      forest_(opts.cells, opts.blocks_per_dim,
              comm != nullptr ? comm->size() : 1, model_.params().dims,
              opts.boundary),
      comm_(comm),
      compiled_(ModelCompiler(compile_opts_with_faults(opts)).compile(model_)),
      pool_(opts.threads > 1 ? std::make_unique<ThreadPool>(ThreadPoolOptions{
                                   opts.threads, node.pin})
                             : nullptr),
      exchange_(forest_, comm,
                std::max(model_.phi_src()->components(),
                         model_.mu_src()->components())),
      health_(opts.health, &reg_) {
  const int my_rank = comm != nullptr ? comm->rank() : 0;
  const bool heun = opts.time_scheme == TimeScheme::Heun;
  ThreadPool* ft = first_touch_pool();
  for (const grid::Block* b : forest_.blocks_of_rank(my_rank)) {
    const auto n = cell_size(b->size);
    auto lb = std::make_unique<LocalBlock>(LocalBlock{
        b, Array(model_.phi_src(), n, 1, ft), Array(model_.phi_dst(), n, 1, ft),
        Array(model_.mu_src(), n, 1, ft), Array(model_.mu_dst(), n, 1, ft),
        std::nullopt, std::nullopt, std::nullopt, std::nullopt});
    allocate_flux(*lb);
    if (heun) {
      lb->phi_0.emplace(model_.phi_src(), n, 1, ft);
      lb->mu_0.emplace(model_.mu_src(), n, 1, ft);
    }
    locals_.push_back(std::move(lb));
  }

  tracer_.configure(opts.trace, /*pid=*/my_rank);
  if (tracer_.enabled()) {
    // compile stages as instant events at the timeline origin, carrying
    // their duration as args.seconds (the stages ran before the epoch)
    for (const auto& [stage, t] : compiled_.compile_report().stage_timers) {
      tracer_.instant(tracer_.intern("compile/" + stage), "compile", -1,
                      t.seconds);
    }
  }
  if (!locals_.empty()) {
    // cache ECM predictions once: block geometry/threads are fixed from here
    std::vector<const ir::Kernel*> kernels;
    for (const auto& ck : compiled_.phi_kernels) kernels.push_back(&ck.ir);
    for (const auto& ck : compiled_.mu_kernels) kernels.push_back(&ck.ir);
    predicted_mlups_ = perf::predicted_mlups_by_kernel(
        kernels, locals_.front()->block->size, opts.machine, opts.threads,
        compiled_.compile_report().vector_width);
  }
  const support::Topology topo = support::Topology::detect();
  topology_ = {int(topo.cpus.size()), topo.cores, topo.packages, topo.nodes};
  setup_schedule();

  dt_current_ = model_.params().dt;
  faults_ = resilience::effective_faults(opts.resilience);
  if (!opts.resilience.restart_from.empty()) restore_from_disk();
}

void DistributedSimulation::allocate_flux(LocalBlock& lb) {
  const int dims = model_.params().dims;
  lb.phi_flux.reset();
  lb.mu_flux.reset();
  if (compiled_.phi_flux_field) {
    lb.phi_flux.emplace(*compiled_.phi_flux_field,
                        flux_size(lb.block->size, dims), 0,
                        first_touch_pool());
  }
  if (compiled_.mu_flux_field) {
    lb.mu_flux.emplace(*compiled_.mu_flux_field,
                       flux_size(lb.block->size, dims), 0,
                       first_touch_pool());
  }
}

long long DistributedSimulation::local_cells() const {
  long long cells = 0;
  for (const auto& lb : locals_) {
    cells += lb->block->size[0] * lb->block->size[1] * lb->block->size[2];
  }
  return cells;
}

void DistributedSimulation::setup_schedule() {
  slab_plan_ = SlabPlan{};
  wavefront_ = WavefrontSchedule{};
  blocking_ = perf::BlockingPlan{};
  compute_overlap_regions();
  if (locals_.empty()) return;
  LocalBlock& lb = *locals_.front();
  const std::array<long long, 3>& n = lb.block->size;
  const int dims = model_.params().dims;
  const long long n_outer = n[std::size_t(dims - 1)];
  const int nt = pool_ != nullptr ? pool_->num_threads() : 1;
  // In 1-D the slab axis is the vectorized axis: keep boundaries aligned
  // so the static launches match parallel_for's chunk rounding bitwise.
  const int align =
      dims == 1 ? std::max(1, compiled_.compile_report().vector_width) : 1;
  slab_plan_ = SlabPlan::make(0, n_outer, nt, align);

  // The fused schedule fills ghosts in place between tiles, which is only
  // the exchange when every ghost is a local boundary fill.
  if (forest_.blocks().size() != 1 || comm_ != nullptr) {
    blocking_.reason =
        "temporal blocking needs the forest's only block and no "
        "communicator (every ghost a local fill)";
    return;
  }
  if (node_.blocking == BlockingMode::Off) {
    blocking_.reason = "temporal blocking not requested";
    return;
  }
  std::vector<const CompiledKernel*> chain;
  std::vector<const ir::Kernel*> irs;
  for (const auto& ck : compiled_.phi_kernels) chain.push_back(&ck);
  for (const auto& ck : compiled_.mu_kernels) chain.push_back(&ck);
  for (const CompiledKernel* ck : chain) irs.push_back(&ck->ir);
  WavefrontSchedule ws =
      build_wavefront(chain, dims, /*ghost=*/1,
                      [&](std::uint64_t id) { return array_of(lb, id); });
  if (!ws.valid()) {
    blocking_.reason =
        "no fusable wavefront schedule (1-D chain, or a domain-edge "
        "prologue stage reads a mid-chain ghosted field)";
    return;
  }
  blocking_ = perf::blocking_plan(irs, n, opts_.machine, nt, ws.span,
                                  /*ghost=*/1);
  if (node_.blocking == BlockingMode::Fixed) {
    blocking_.enabled = node_.blocking_tile_rows > 0;
    blocking_.tile_rows = node_.blocking_tile_rows;
    blocking_.reason = blocking_.enabled
                           ? "fixed tile height requested"
                           : "BlockingMode::Fixed needs tile_rows > 0";
  }
  if (!blocking_.enabled) return;
  // Prologue strips of adjacent workers must not overlap — decline fusion
  // (rather than racing) when a slab is too thin.
  for (int w = 0; w < nt; ++w) {
    const auto [lo, hi] = slab_plan_.slab(w, 0, n_outer);
    if (hi - lo < ws.min_slab_rows) {
      blocking_.enabled = false;
      blocking_.reason = "worker slab of " + std::to_string(hi - lo) +
                         " rows is thinner than the " +
                         std::to_string(ws.min_slab_rows) +
                         " the wavefront prologue needs";
      return;
    }
  }
  wavefront_ = std::move(ws);
}

void DistributedSimulation::compute_overlap_regions() {
  phi_regions_.clear();
  mu_regions_.clear();
  overlap_interior_cells_ = 0;
  overlap_frontier_cells_ = 0;
  if (opts_.overlap != OverlapMode::InteriorFrontier || locals_.empty()) {
    return;
  }
  const int dims = model_.params().dims;
  const std::array<long long, 3> n = locals_.front()->block->size;

  const auto build = [&](const std::vector<CompiledKernel>& kernels,
                         std::uint64_t exchanged_id,
                         int ghost) -> std::vector<KernelRegions> {
    const auto widths = frontier_widths(kernels, exchanged_id, dims, ghost);
    std::vector<KernelRegions> regions(kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const backend::CellRange full = backend::full_range(kernels[i].ir, n);
      regions[i].interior =
          peel_frontier(full, widths[i], dims, regions[i].frontier);
    }
    return regions;
  };
  phi_regions_ = build(compiled_.phi_kernels, model_.phi_dst()->id(),
                       locals_.front()->phi_dst.ghost_layers());
  mu_regions_ = build(compiled_.mu_kernels, model_.mu_dst()->id(),
                      locals_.front()->mu_dst.ghost_layers());

  // Per-step cell accounting on the dst-kernel lattice (extent_plus = 0,
  // so interior + frontier = block cells, summed over local blocks).
  PFC_ASSERT(!phi_regions_.empty());
  const long long block_cells = n[0] * n[1] * n[2];
  const long long interior = phi_regions_.back().interior.cells();
  overlap_interior_cells_ = interior * (long long)locals_.size();
  overlap_frontier_cells_ =
      (block_cells - interior) * (long long)locals_.size();
}

Array* DistributedSimulation::array_of(LocalBlock& lb,
                                       std::uint64_t id) const {
  if (id == model_.phi_src()->id()) return &lb.phi_src;
  if (id == model_.phi_dst()->id()) return &lb.phi_dst;
  if (id == model_.mu_src()->id()) return &lb.mu_src;
  if (id == model_.mu_dst()->id()) return &lb.mu_dst;
  if (compiled_.phi_flux_field && id == (*compiled_.phi_flux_field)->id()) {
    return &*lb.phi_flux;
  }
  if (compiled_.mu_flux_field && id == (*compiled_.mu_flux_field)->id()) {
    return &*lb.mu_flux;
  }
  return nullptr;
}

backend::Binding DistributedSimulation::bind(const ir::Kernel& k,
                                             LocalBlock& lb) const {
  backend::Binding b;
  b.block_offset = lb.block->offset;
  for (const auto& f : k.fields) {
    Array* a = array_of(lb, f->id());
    PFC_REQUIRE(a != nullptr, "driver: kernel needs unknown field " +
                                  f->name());
    b.arrays.push_back(a);
  }
  return b;
}

std::vector<grid::LocalBlockField> DistributedSimulation::field_view(
    Array LocalBlock::*member) {
  std::vector<grid::LocalBlockField> v;
  v.reserve(locals_.size());
  for (auto& lb : locals_) v.push_back({lb->block, &((*lb).*member)});
  return v;
}

void DistributedSimulation::init_field(Array LocalBlock::*member,
                                       const CellFn& f, int tag) {
  for (auto& lb : locals_) {
    Array& a = (*lb).*member;
    const auto& off = lb->block->offset;
    const auto& n = lb->block->size;
    for (int c = 0; c < a.components(); ++c) {
      for (long long z = 0; z < n[2]; ++z) {
        for (long long y = 0; y < n[1]; ++y) {
          for (long long x = 0; x < n[0]; ++x) {
            a.at(x, y, z, c) = f(x + off[0], y + off[1], z + off[2], c);
          }
        }
      }
    }
  }
  exchange_field(member, tag, nullptr);
}

void DistributedSimulation::init_phi(const CellFn& f) {
  init_field(&LocalBlock::phi_src, f, /*tag=*/0);
}

void DistributedSimulation::init_mu(const CellFn& f) {
  init_field(&LocalBlock::mu_src, f, /*tag=*/1);
}

void DistributedSimulation::exchange_field(Array LocalBlock::*member, int tag,
                                           StepCost* cost) {
  const auto view = field_view(member);
  if (cost == nullptr) {
    exchange_.exchange(view, tag);
    return;
  }
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  Timer timer;
  const double ts = tr != nullptr ? tr->now_us() : 0.0;
  exchange_.exchange(view, tag);
  const double s = timer.seconds();
  if (tr != nullptr) {
    tr->complete("exchange", "ghost", ts, s * 1e6, step_, -1);
  }
  reg_.add_time("exchange", s);
  cost->exchange_seconds += s;
  const std::uint64_t b = exchange_.last_bytes_sent();
  reg_.counter("exchange_bytes").add(b);
  cost->exchange_bytes += b;
}

void DistributedSimulation::refresh_src_ghosts(StepCost* cost) {
  exchange_field(&LocalBlock::phi_src, /*tag=*/0, cost);
  exchange_field(&LocalBlock::mu_src, /*tag=*/1, cost);
}

void DistributedSimulation::sweep_blocks(
    const std::vector<CompiledKernel>& kernels, double t, StepCost& cost) {
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  const SlabPlan* plan = launch_plan();
  for (auto& lbp : locals_) {
    LocalBlock& lb = *lbp;
    const int block_id = lb.block->linear_id;
    Timer block_timer;
    for (const auto& ck : kernels) {
      Timer timer;
      const double ts = tr != nullptr ? tr->now_us() : 0.0;
      ck.run(bind(ck.ir, lb), lb.block->size, t, step_, pool_.get(), tr,
             nullptr, plan);
      const double s = timer.seconds();
      if (tr != nullptr) {
        tr->complete(ck.ir.name.c_str(), "kernel", ts, s * 1e6, step_,
                     block_id);
      }
      reg_.add_time("kernel/" + ck.ir.name, s);
    }
    const double block_s = block_timer.seconds();
    reg_.add_time("block/" + std::to_string(block_id), block_s);
    cost.kernel_seconds += block_s;
  }
}

// Communication-hiding group (OverlapMode::InteriorFrontier): compute the
// frontier shell first (the cells the exchange packs), post the exchange
// nonblocking, run the interior while messages fly, then complete the
// exchange. Kernel/block timer counts stay identical to the synchronous
// path (one add per block/kernel/step) so the drift model's launches ×
// cells_per_launch accounting stays honest.
void DistributedSimulation::sweep_overlapped(
    const std::vector<CompiledKernel>& kernels,
    const std::vector<KernelRegions>& regions, Array LocalBlock::*dst,
    int tag, double t, StepCost& cost) {
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  const SlabPlan* plan = launch_plan();
  std::vector<double> acc(locals_.size() * kernels.size(), 0.0);
  const auto sweep = [&](bool frontier) {
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      LocalBlock& lb = *locals_[i];
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const CompiledKernel& ck = kernels[ki];
        Timer timer;
        if (frontier) {
          for (const auto& slab : regions[ki].frontier) {
            ck.run(bind(ck.ir, lb), lb.block->size, t, step_, nullptr,
                   nullptr, &slab);
          }
        } else if (regions[ki].interior.cells() > 0) {
          ck.run(bind(ck.ir, lb), lb.block->size, t, step_, pool_.get(), tr,
                 &regions[ki].interior, plan);
        }
        acc[i * kernels.size() + ki] += timer.seconds();
      }
    }
  };
  const auto phase = [&](const char* name, const char* cat, const auto& fn) {
    Timer timer;
    const double ts = tr != nullptr ? tr->now_us() : 0.0;
    fn();
    const double s = timer.seconds();
    if (tr != nullptr) tr->complete(name, cat, ts, s * 1e6, step_, -1);
    reg_.add_time(name, s);
    return s;
  };

  phase("kernel.frontier", "kernel", [&] { sweep(/*frontier=*/true); });
  const auto view = field_view(dst);
  const double pack_s =
      phase("exchange.pack", "ghost", [&] { exchange_.begin(view, tag); });
  const std::uint64_t b = exchange_.last_bytes_sent();
  reg_.counter("exchange_bytes").add(b);
  cost.exchange_bytes += b;
  phase("kernel.interior", "kernel", [&] { sweep(/*frontier=*/false); });
  const double wait_s =
      phase("exchange.wait", "ghost", [&] { exchange_.finish(); });

  // Only pack + wait are exposed exchange time in this mode.
  reg_.add_time("exchange", pack_s + wait_s);
  cost.exchange_seconds += pack_s + wait_s;

  for (std::size_t i = 0; i < locals_.size(); ++i) {
    double block_s = 0.0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const double s = acc[i * kernels.size() + ki];
      reg_.add_time("kernel/" + kernels[ki].ir.name, s);
      block_s += s;
    }
    reg_.add_time("block/" + std::to_string(locals_[i]->block->linear_id),
                  block_s);
    cost.kernel_seconds += block_s;
  }
}

void DistributedSimulation::sweep_fused(double t, StepCost& cost) {
  obs::TraceRecorder* tr = trace_this_step_ ? &tracer_ : nullptr;
  LocalBlock& lb = *locals_.front();
  WavefrontRun wr;
  wr.schedule = &wavefront_;
  for (const auto& st : wavefront_.stages) {
    wr.bindings.push_back(bind(st.kernel->ir, lb));
  }
  wr.cells = lb.block->size;
  wr.t = t;
  wr.t_step = step_;
  wr.pool = pool_.get();
  wr.plan = &slab_plan_;
  wr.boundary = opts_.boundary;
  wr.tile_rows = blocking_.tile_rows;
  const double ts = tr != nullptr ? tr->now_us() : 0.0;
  Timer timer;
  const std::vector<double> stage_seconds = run_wavefront(wr);
  if (tr != nullptr) {
    tr->complete("wavefront", "kernel", ts, timer.seconds() * 1e6, step_,
                 lb.block->linear_id);
  }
  double block_s = 0.0;
  for (std::size_t j = 0; j < wavefront_.stages.size(); ++j) {
    reg_.add_time("kernel/" + wavefront_.stages[j].kernel->ir.name,
                  stage_seconds[j]);
    block_s += stage_seconds[j];
  }
  reg_.add_time("block/" + std::to_string(lb.block->linear_id), block_s);
  cost.kernel_seconds += block_s;
  ++fused_substeps_;
  // φ_dst ghosts were completed inside the schedule (transverse per row
  // band, outer axis at the barrier); only µ_dst still needs its fill.
  exchange_field(&LocalBlock::mu_dst, /*tag=*/3, &cost);
}

void DistributedSimulation::substep(double t, StepCost& cost) {
  if (blocking_active()) {
    sweep_fused(t, cost);
  } else if (opts_.overlap == OverlapMode::InteriorFrontier) {
    sweep_overlapped(compiled_.phi_kernels, phi_regions_,
                     &LocalBlock::phi_dst, /*tag=*/2, t, cost);
    sweep_overlapped(compiled_.mu_kernels, mu_regions_, &LocalBlock::mu_dst,
                     /*tag=*/3, t, cost);
  } else {
    sweep_blocks(compiled_.phi_kernels, t, cost);
    exchange_field(&LocalBlock::phi_dst, /*tag=*/2, &cost);
    sweep_blocks(compiled_.mu_kernels, t, cost);
    exchange_field(&LocalBlock::mu_dst, /*tag=*/3, &cost);
  }
  for (auto& lb : locals_) {
    lb->phi_src.swap_data(lb->phi_dst);
    lb->mu_src.swap_data(lb->mu_dst);
  }
}

obs::RunReport DistributedSimulation::run(int steps) {
  const long long cells = local_cells();
  obs::Counter& updates = reg_.counter("cell_updates");
  const auto& res = opts_.resilience;
  const bool recovery =
      health_.enabled() && opts_.health.policy == obs::HealthPolicy::Recover;
  // Baseline rollback target: without one, a violation before the first
  // periodic checkpoint would be unrecoverable.
  if ((recovery || res.checkpoint_every > 0) && !snapshot_.valid()) {
    capture_checkpoint(/*to_disk=*/false);
  }
  // run(n) advances n *net* steps: a rollback rewinds step_, and the loop
  // keeps going until the target is reached (bounded by max_retries).
  const long long target = step_ + steps;
  while (step_ < target) {
    // Cooperative cancellation at step granularity: a cancelled/expired
    // job stops within one step, checkpoints when configured (so a client
    // cancel is resumable), then surfaces as JobCancelled. All ranks share
    // one in-process token, so they agree without a reduction; a real-MPI
    // transport would broadcast the flag instead.
    if (progress_.cancel != nullptr && progress_.cancel->requested()) {
      if (!res.directory.empty()) capture_checkpoint(/*to_disk=*/true);
      throw JobCancelled(progress_.cancel->kind(),
                         progress_.cancel->reason());
    }
    const double dt = dt_current_;
    Timer step_wall;
    trace_this_step_ = tracer_.sampled(step_);
    const double step_ts = trace_this_step_ ? tracer_.now_us() : 0.0;
    StepCost cost;
    if (opts_.time_scheme == TimeScheme::Euler) {
      substep(time_, cost);
    } else {
      // Heun: u1 = u0 + dt f(u0); u2 = u1 + dt f(u1); u_new = (u0 + u2) / 2
      // Staging copy and trapezoidal average are memory-bound; both split
      // across the pool (ghosts are refreshed by the exchange below, so
      // blending them too is harmless).
      for (auto& lb : locals_) {
        lb->phi_0->copy_from(lb->phi_src, pool_.get());
        lb->mu_0->copy_from(lb->mu_src, pool_.get());
      }
      substep(time_, cost);       // src now holds u1
      substep(time_ + dt, cost);  // src now holds u2
      for (auto& lb : locals_) {
        lb->phi_src.average_with(*lb->phi_0, pool_.get());
        lb->mu_src.average_with(*lb->mu_0, pool_.get());
      }
      refresh_src_ghosts(&cost);
    }
    ++step_;
    time_ += dt;
    // One lattice update per step, whatever the scheme — Heun's two
    // substeps advance time once. Rolled-back steps stay counted: the
    // counter measures work actually performed.
    updates.add(std::uint64_t(cells));
    reg_.push_step({step_, cost.kernel_seconds, cost.exchange_seconds,
                    cost.exchange_bytes, std::uint64_t(cells)});
    if (trace_this_step_) {
      tracer_.complete("step", "step", step_ts, tracer_.now_us() - step_ts,
                       step_ - 1, -1);
    }
    maybe_inject_nan();
    const bool cp_due =
        res.checkpoint_every > 0 && step_ % res.checkpoint_every == 0;
    std::uint64_t found = 0;
    // A checkpoint-due step always scans (when monitoring is on), so a
    // capture never preserves unverified state.
    if (health_.due(step_) || (cp_due && health_.enabled())) {
      for (const auto& lb : locals_) {
        health_.scan_block(lb->phi_src, &lb->mu_src);
      }
      found = health_.finish_scan(step_);  // throws under Throw
    }
    // Ranks must agree on rollback vs. checkpoint: each rank only scans
    // its own blocks, so reduce the finding over the communicator.
    double global_found = double(found);
    if (comm_ != nullptr && (recovery || cp_due) && health_.enabled()) {
      global_found = comm_->allreduce_sum(global_found);
    }
    if (global_found > 0 && recovery) {
      if (retries_ >= res.max_retries) {
        throw Error("pfc resilience: violation at step " +
                    std::to_string(step_) + " persists after " +
                    std::to_string(retries_) + " rollbacks, giving up");
      }
      ++retries_;
      last_violation_step_ = std::max(last_violation_step_, step_);
      rollback();
      continue;
    }
    // Progress beyond the troubled step means the recovery worked.
    if (step_ > last_violation_step_) retries_ = 0;
    if (cp_due && global_found == 0) {
      capture_checkpoint(!res.directory.empty());
    }
    record_progress(step_wall.seconds());
  }
  if (tracer_.enabled()) {
    const bool multi_rank = comm_ != nullptr && comm_->size() > 1;
    tracer_.write(multi_rank ? obs::rank_trace_path(opts_.trace.path,
                                                    comm_->rank())
                             : opts_.trace.path);
  }
  return report();
}

void DistributedSimulation::record_progress(double step_wall_seconds) {
  step_seconds_ewma_ =
      step_seconds_ewma_ <= 0.0
          ? step_wall_seconds
          : kProgressEwmaAlpha * step_wall_seconds +
                (1.0 - kProgressEwmaAlpha) * step_seconds_ewma_;
  if (!progress_.sink || progress_.every <= 0) return;
  if (step_ % progress_.every != 0 || step_ <= last_progress_step_) return;
  last_progress_step_ = step_;
  ProgressUpdate u;
  u.step = step_;
  u.steps_total = progress_.steps_total;
  u.fraction = progress_.steps_total > 0
                   ? double(step_) / double(progress_.steps_total)
                   : 0.0;
  u.step_seconds_ewma = step_seconds_ewma_;
  u.mlups = obs::safe_rate(double(local_cells()), step_seconds_ewma_) / 1e6;
  u.eta_seconds =
      progress_.steps_total > 0 && progress_.steps_total > step_
          ? double(progress_.steps_total - step_) * step_seconds_ewma_
          : 0.0;
  u.health_violations = health_.stats().total_violations();
  progress_.sink(u);
}

obs::RunReport DistributedSimulation::report() const {
  obs::RunReport r;
  r.name = report_name_;
  r.steps = step_;
  r.cell_updates = reg_.counter_value("cell_updates");
  r.num_blocks = static_cast<int>(locals_.size());
  r.cells_per_step = local_cells();
  double block_max = 0.0, block_sum = 0.0;
  int block_n = 0;
  for (const auto& [path, t] : reg_.timers()) {
    if (path.rfind("kernel/", 0) == 0) {
      r.kernel_timers[path.substr(7)] = t;
      r.kernel_seconds_total += t.seconds;
    } else if (path == "exchange") {
      r.exchange_seconds = t.seconds;
    } else if (path == "exchange.pack") {
      r.overlap.pack_seconds = t.seconds;
    } else if (path == "exchange.wait") {
      r.overlap.wait_seconds = t.seconds;
    } else if (path == "kernel.interior") {
      r.overlap.interior_seconds = t.seconds;
    } else if (path == "kernel.frontier") {
      r.overlap.frontier_seconds = t.seconds;
    } else if (path.rfind("block/", 0) == 0) {
      block_max = std::max(block_max, t.seconds);
      block_sum += t.seconds;
      ++block_n;
    }
  }
  r.exchange_bytes = reg_.counter_value("exchange_bytes");
  r.block_imbalance =
      obs::safe_rate(block_max, block_sum / std::max(block_n, 1));
  r.recent_steps = reg_.recent_steps();
  r.health = health_.stats();
  r.health_policy = opts_.health.policy;
  r.resilience = res_stats_;
  r.resilience.dt_current = dt_current_;
  r.overlap.enabled = opts_.overlap == OverlapMode::InteriorFrontier;
  r.overlap.interior_cells = overlap_interior_cells_;
  r.overlap.frontier_cells = overlap_frontier_cells_;
  r.threading.threads = opts_.threads;
  r.threading.pin_policy = support::pin_policy_name(node_.pin);
  r.threading.dispatch =
      node_.dispatch == Dispatch::Static ? "static" : "dynamic";
  r.threading.first_touch = node_.first_touch && pool_ != nullptr;
  r.threading.cpus = topology_[0];
  r.threading.cores = topology_[1];
  r.threading.packages = topology_[2];
  r.threading.numa_nodes = topology_[3];
  r.threading.blocking_enabled = blocking_active();
  r.threading.blocking_tile_rows = blocking_.tile_rows;
  r.threading.blocking_lookahead = blocking_.lookahead;
  r.threading.fused_stages = int(wavefront_.stages.size());
  r.threading.fused_substeps = fused_substeps_;
  r.threading.blocking_reason = blocking_.reason;
  r.threading.bytes_per_update_unfused = blocking_.bytes_per_update_unfused;
  r.threading.bytes_per_update_fused = blocking_.bytes_per_update_fused;
  // fill_model_accuracy derives hidden_seconds/hidden_fraction from the
  // overlap phase timers and the netmodel comm prediction.
  const long long cells_per_launch =
      locals_.empty() ? 0 : r.cells_per_step / (long long)locals_.size();
  perf::fill_model_accuracy(r, predicted_mlups_, cells_per_launch,
                            model_.params().dims);
  return r;
}

std::string DistributedSimulation::layout_signature() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, ";phases=%d;mu=%d", model_.params().phases,
                model_.params().num_mu());
  return forest_.layout_signature() + buf;
}

int DistributedSimulation::file_rank() const {
  return comm_ != nullptr ? comm_->rank() : -1;
}

void DistributedSimulation::capture_checkpoint(bool to_disk) {
  std::vector<const Array*> snap;
  for (const auto& lb : locals_) {
    snap.push_back(&lb->phi_src);
    snap.push_back(&lb->mu_src);
  }
  snapshot_.capture({step_, time_, dt_current_}, snap);
  ++res_stats_.checkpoints;
  res_stats_.last_checkpoint_step = step_;
  if (!to_disk) return;
  resilience::CheckpointMeta meta;
  meta.step = step_;
  meta.time = time_;
  meta.dt = dt_current_;
  meta.rng_seed = model_.params().rng_seed;
  meta.layout = layout_signature();
  meta.health = health_.stats();
  meta.counters["cell_updates"] = reg_.counter_value("cell_updates");
  meta.counters["exchange_bytes"] = reg_.counter_value("exchange_bytes");
  std::vector<resilience::CheckpointArray> arrays;
  for (const auto& lb : locals_) {
    const std::string id = std::to_string(lb->block->linear_id);
    arrays.push_back({"phi/block" + id, &lb->phi_src});
    arrays.push_back({"mu/block" + id, &lb->mu_src});
  }
  resilience::write_checkpoint(opts_.resilience.directory, meta, arrays,
                               file_rank(), faults_.truncate_checkpoint);
  if (faults_.truncate_checkpoint) ++res_stats_.faults_injected;
  ++res_stats_.checkpoint_files;
}

void DistributedSimulation::rollback() {
  PFC_REQUIRE(snapshot_.valid(), "resilience: no snapshot to roll back to");
  std::vector<Array*> snap;
  for (auto& lb : locals_) {
    snap.push_back(&lb->phi_src);
    snap.push_back(&lb->mu_src);
  }
  snapshot_.restore(snap);
  refresh_src_ghosts();
  step_ = snapshot_.meta().step;
  time_ = snapshot_.meta().time;
  ++res_stats_.rollbacks;
  const double shrink = opts_.resilience.dt_shrink;
  if (shrink > 0.0 && shrink < 1.0) {
    rebuild_with_dt(dt_current_ * shrink);
    ++res_stats_.dt_shrinks;
  }
  if (comm_ == nullptr || comm_->rank() == 0) {
    std::fprintf(stderr,
                 "pfc resilience: rolled back to step %lld (retry %d/%d, "
                 "dt=%g)\n",
                 step_, retries_, opts_.resilience.max_retries, dt_current_);
  }
}

void DistributedSimulation::rebuild_with_dt(double new_dt) {
  // with_dt() shares the model's Field handles, so the recompiled kernels
  // bind to the existing φ/µ arrays; only the flux scratch fields are new.
  model_ = model_.with_dt(new_dt);
  dt_current_ = new_dt;
  compiled_ = ModelCompiler(opts_.compile).compile(model_);
  for (auto& lb : locals_) allocate_flux(*lb);
  // The schedule holds CompiledKernel/Array pointers into the old compiled
  // model — rebuild it against the fresh one.
  setup_schedule();
}

void DistributedSimulation::maybe_inject_nan() {
  if (fault_nan_fired_ || faults_.nan_step < 0 || step_ != faults_.nan_step) {
    return;
  }
  fault_nan_fired_ = true;
  // Global cell coordinates: only the owning rank's block gets the NaN.
  std::array<long long, 3> c = faults_.nan_cell;
  const auto& g = forest_.global_cells();
  for (int d = 0; d < 3; ++d) {
    c[std::size_t(d)] = std::clamp(c[std::size_t(d)], 0LL,
                                   g[std::size_t(d)] - 1);
  }
  for (auto& lb : locals_) {
    const auto& off = lb->block->offset;
    const auto& n = lb->block->size;
    bool inside = true;
    for (int d = 0; d < 3; ++d) {
      const auto ld = c[std::size_t(d)] - off[std::size_t(d)];
      if (ld < 0 || ld >= n[std::size_t(d)]) inside = false;
    }
    if (!inside) continue;
    lb->phi_src.at(c[0] - off[0], c[1] - off[1], c[2] - off[2], 0) =
        std::numeric_limits<double>::quiet_NaN();
    ++res_stats_.faults_injected;
    std::fprintf(stderr,
                 "pfc fault: injected NaN into phi at step %lld, global "
                 "cell (%lld,%lld,%lld)\n",
                 step_, c[0], c[1], c[2]);
    break;
  }
}

void DistributedSimulation::restore_from_disk() {
  std::vector<resilience::RestoreArray> arrays;
  for (auto& lb : locals_) {
    const std::string id = std::to_string(lb->block->linear_id);
    arrays.push_back({"phi/block" + id, &lb->phi_src});
    arrays.push_back({"mu/block" + id, &lb->mu_src});
  }
  const resilience::CheckpointMeta meta = resilience::read_checkpoint(
      opts_.resilience.restart_from, arrays, layout_signature(), file_rank());
  PFC_REQUIRE(meta.rng_seed == model_.params().rng_seed,
              "resilience: checkpoint rng_seed " +
                  std::to_string(meta.rng_seed) +
                  " differs from the model's " +
                  std::to_string(model_.params().rng_seed) +
                  " — restart would change the noise stream");
  refresh_src_ghosts();
  step_ = meta.step;
  time_ = meta.time;
  health_.restore_stats(meta.health);
  if (meta.dt != dt_current_) rebuild_with_dt(meta.dt);
  res_stats_.restarted = true;
  res_stats_.restart_step = meta.step;
}

double DistributedSimulation::local_phi_sum(int c) const {
  double s = 0.0;
  for (const auto& lb : locals_) s += lb->phi_src.interior_sum(c);
  return s;
}

std::vector<double> DistributedSimulation::gather_phi() const {
  const auto& g = forest_.global_cells();
  const int comps = model_.phi_src()->components();
  const std::size_t plane = std::size_t(g[0] * g[1] * g[2]);
  std::vector<double> out(plane * std::size_t(comps), 0.0);

  const auto put_block = [&](const grid::Block& b,
                             const std::vector<double>& data) {
    std::size_t i = 0;
    for (int c = 0; c < comps; ++c) {
      for (long long z = 0; z < b.size[2]; ++z) {
        for (long long y = 0; y < b.size[1]; ++y) {
          for (long long x = 0; x < b.size[0]; ++x) {
            const std::size_t gi =
                std::size_t((x + b.offset[0]) +
                            g[0] * ((y + b.offset[1]) +
                                    g[1] * (z + b.offset[2])));
            out[gi + plane * std::size_t(c)] = data[i++];
          }
        }
      }
    }
  };
  // (c, z, y, x) interior order, x fastest — put_block's order.
  const auto block_data = [](const LocalBlock& lb) {
    std::vector<double> d(std::size_t(lb.phi_src.interior_count()));
    lb.phi_src.copy_interior_out(d.data());
    return d;
  };

  for (const auto& lb : locals_) put_block(*lb->block, block_data(*lb));
  if (comm_ == nullptr) return out;

  constexpr int kGatherTag = 7000000;
  if (comm_->rank() == 0) {
    for (const auto& b : forest_.blocks()) {
      if (b.owner == 0) continue;
      std::vector<double> data(
          std::size_t(b.size[0] * b.size[1] * b.size[2] * comps));
      comm_->recv_vec(b.owner, kGatherTag + b.linear_id, data);
      put_block(b, data);
    }
    for (int r = 1; r < comm_->size(); ++r) {
      comm_->send_vec(r, kGatherTag - 1, out);
    }
  } else {
    for (const auto& lb : locals_) {
      comm_->send_vec(0, kGatherTag + lb->block->linear_id,
                      block_data(*lb));
    }
    comm_->recv_vec(0, kGatherTag - 1, out);
  }
  return out;
}

}  // namespace pfc::app
