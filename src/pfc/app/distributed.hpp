// The time-stepping driver: Algorithm 1 over a rank's blocks of a
// waLBerla-style block forest (paper §4), the ghost fills of steps 2/4
// done by block-forest ghost exchange:
//
//   1. φ_dst ← φ-kernel(φ_src^D..C.., µ_src)   on every local block
//   2. exchange φ_dst ghosts
//   3. µ_dst ← µ-kernel(µ_src, φ_src, φ_dst)   on every local block
//   4. exchange µ_dst ghosts
//   5. swap φ_src ↔ φ_dst and µ_src ↔ µ_dst
//
// Each rank owns the blocks the Morton curve assigns it; the model is
// generated and JIT-compiled once per rank and shared across its blocks.
// A node-level run is a forest with one block and no communicator — the
// Simulation facade (simulation.hpp) — where the exchange degenerates to
// in-place boundary fills and the fused wavefront schedule becomes legal.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "pfc/app/options.hpp"
#include "pfc/app/progress.hpp"
#include "pfc/app/wavefront.hpp"
#include "pfc/grid/ghost_exchange.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/perf/blocking.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/support/topology.hpp"

namespace pfc::app {

/// How the distributed step schedules ghost exchange against compute.
enum class OverlapMode {
  /// Synchronous: sweep all cells, then exchange (the seed behaviour).
  Off,
  /// Communication hiding: compute the frontier shell first, post the
  /// exchange nonblocking, compute the interior while messages fly, then
  /// complete the exchange. Bitwise-identical results to Off.
  InteriorFrontier,
};

struct DistributedOptions : DomainSetters<DistributedOptions> {
  /// `cells` (from DomainOptions) is the *global* domain, decomposed into
  /// `blocks_per_dim` equal blocks per dimension.
  std::array<int, 3> blocks_per_dim{2, 2, 1};
  /// Exchange/compute scheduling of the step (see OverlapMode).
  OverlapMode overlap = OverlapMode::Off;
  /// Thread-pool size of the rank. Every block launch splits its outer
  /// axis across the pool in static slabs (the overlap interior included),
  /// and the pool first-touches the block arrays; 1 = the rank's own
  /// thread runs everything.
  int threads = 1;
  TimeScheme time_scheme = TimeScheme::Euler;

  DistributedOptions& with_blocks(int bx, int by, int bz = 1) {
    blocks_per_dim = {bx, by, bz};
    return *this;
  }
  DistributedOptions& with_overlap(OverlapMode m) {
    overlap = m;
    return *this;
  }
  DistributedOptions& with_threads(int t) {
    threads = t;
    return *this;
  }
};

/// One rank's part of a run. Construct inside an mpi::run callback (or with
/// comm == nullptr for serial multi-block execution).
class DistributedSimulation {
 public:
  /// With `opts.resilience.restart_from` set, every rank restores its own
  /// blocks from the per-rank checkpoint files; skip init() in that case.
  DistributedSimulation(const GrandChemModel& model,
                        const DistributedOptions& opts, mpi::Comm* comm);
  /// Pinned in place: the exchange and the blocks point into the forest.
  DistributedSimulation(const DistributedSimulation&) = delete;
  DistributedSimulation& operator=(const DistributedSimulation&) = delete;

  /// The rank's model (a dt shrink replaces it with a rescaled copy).
  const GrandChemModel& model() const { return model_; }
  const grid::BlockForest& forest() const { return forest_; }
  int num_local_blocks() const { return static_cast<int>(locals_.size()); }
  /// The rank-wide compiled model (kernels are shared across local blocks).
  const CompiledModel& compiled() const { return compiled_; }

  /// State of local block `i` (reads after the most recent completed step).
  Array& phi(int i) { return locals_[std::size_t(i)]->phi_src; }
  Array& mu(int i) { return locals_[std::size_t(i)]->mu_src; }
  const Array& phi(int i) const { return locals_[std::size_t(i)]->phi_src; }
  const Array& mu(int i) const { return locals_[std::size_t(i)]->mu_src; }

  using CellFn = std::function<double(long long, long long, long long, int)>;
  /// Sets φ (µ) from *global* cell coordinates, then exchanges ghosts.
  void init_phi(const CellFn& f);
  void init_mu(const CellFn& f);
  void init(const CellFn& phi_f, const CellFn& mu_f) {
    init_phi(phi_f);
    init_mu(mu_f);
  }

  /// Advances `steps` net time steps (a rollback rewinds and the loop
  /// keeps going) and returns the cumulative run report of this rank:
  /// kernel timers, exchange bytes/seconds, block imbalance.
  obs::RunReport run(int steps);

  long long step_count() const { return step_; }
  /// Accumulated simulation time. Summed step by step (not step * dt): dt
  /// may shrink after a rollback, and a checkpointed time restores bitwise
  /// because the manifest stores the accumulated double exactly.
  double time() const { return time_; }
  /// Current time-step size (params().dt until a rollback shrank it).
  double dt() const { return dt_current_; }

  /// Cumulative report without advancing time.
  obs::RunReport report() const;
  const obs::Registry& registry() const { return reg_; }
  /// The span recorder (pid = rank; multi-rank runs write per-rank files
  /// via obs::rank_trace_path).
  const obs::TraceRecorder& tracer() const { return tracer_; }
  /// The in-situ health monitor of this rank's blocks.
  const obs::HealthMonitor& health() const { return health_; }
  /// Checkpoint/rollback accounting of this rank.
  const obs::ResilienceStats& resilience_stats() const { return res_stats_; }

  /// The temporal-blocking decision (sized tile, or why it is off).
  const perf::BlockingPlan& blocking_plan() const { return blocking_; }
  /// True when steps run the fused wavefront schedule.
  bool blocking_active() const {
    return blocking_.enabled && wavefront_.valid();
  }
  /// The rank's pool (null when threads == 1).
  const ThreadPool* pool() const { return pool_.get(); }

  /// Enables periodic progress sampling: run() invokes p.sink every
  /// p.every completed steps (on the stepping thread; see progress.hpp).
  void set_progress(ProgressOptions p) { progress_ = std::move(p); }

  /// Sum over local blocks of component c of phi (for cross-validation).
  double local_phi_sum(int c) const;

  /// Gathers the full global phi field onto every rank (test utility; the
  /// production path writes per-block VTK instead).
  /// Entry (x + gx*(y + gy*z), c).
  std::vector<double> gather_phi() const;

 private:
  friend class Simulation;

  /// Node-level scheduling that only the single-block facade exposes
  /// (SimulationOptions); a distributed run takes the defaults.
  struct NodeSchedule {
    support::PinPolicy pin = support::PinPolicy::None;
    bool first_touch = true;
    Dispatch dispatch = Dispatch::Static;
    BlockingMode blocking = BlockingMode::Off;
    long long blocking_tile_rows = 0;
  };

  DistributedSimulation(GrandChemModel model, const DistributedOptions& opts,
                        mpi::Comm* comm, const NodeSchedule& node,
                        std::string report_name);

  struct LocalBlock {
    const grid::Block* block;
    Array phi_src, phi_dst, mu_src, mu_dst;
    std::optional<Array> phi_flux, mu_flux;
    /// Heun predictor storage for the state at the step start.
    std::optional<Array> phi_0, mu_0;
  };

  /// Interior box + disjoint frontier slabs of one kernel's iteration
  /// space. The frontier covers every cell whose value the exchange round
  /// reads (directly or through a downstream kernel of the same group);
  /// the interior touches no ghost-dependent data, so it can run while the
  /// exchange is in flight. Widths are derived from the read-offset ranges
  /// marshal() computes, so split staggered pipelines get correct shells.
  struct KernelRegions {
    backend::CellRange interior;
    std::vector<backend::CellRange> frontier;
  };

  /// Kernel/exchange seconds and exchanged bytes of the step in progress.
  struct StepCost {
    double kernel_seconds = 0.0;
    double exchange_seconds = 0.0;
    std::uint64_t exchange_bytes = 0;
  };

  backend::Binding bind(const ir::Kernel& k, LocalBlock& lb) const;
  Array* array_of(LocalBlock& lb, std::uint64_t field_id) const;
  std::vector<grid::LocalBlockField> field_view(Array LocalBlock::*member);
  void init_field(Array LocalBlock::*member, const CellFn& f, int tag);
  void allocate_flux(LocalBlock& lb);
  ThreadPool* first_touch_pool() const {
    return node_.first_touch ? pool_.get() : nullptr;
  }
  /// Static slab ownership for block launches (null = dynamic chunks).
  const SlabPlan* launch_plan() const {
    return node_.dispatch == Dispatch::Static && pool_ ? &slab_plan_ : nullptr;
  }
  long long local_cells() const;

  // --- one step ---
  /// One Euler substep over all local blocks, src/dst swap included.
  void substep(double t, StepCost& cost);
  void sweep_blocks(const std::vector<CompiledKernel>& kernels, double t,
                    StepCost& cost);
  void sweep_overlapped(const std::vector<CompiledKernel>& kernels,
                        const std::vector<KernelRegions>& regions,
                        Array LocalBlock::*dst, int tag, double t,
                        StepCost& cost);
  /// Fused (wavefront) φ/µ sweep of the single local block.
  void sweep_fused(double t, StepCost& cost);
  /// Exchanges one field's ghosts; a non-null `cost` times and traces the
  /// round as step work (init/restore/rollback refreshes are untimed).
  void exchange_field(Array LocalBlock::*member, int tag, StepCost* cost);

  /// (Re)derives the slab plan, wavefront schedule, blocking decision and
  /// overlap regions from the compiled kernels (ctor and rebuild_with_dt).
  void setup_schedule();
  void compute_overlap_regions();

  // --- resilience (rollback is rank-coordinated) ---
  std::string layout_signature() const;
  int file_rank() const;  ///< rank suffix for checkpoint files (−1 serial)
  /// Captures the in-memory rollback snapshot; also writes the on-disk
  /// checkpoint when `to_disk`.
  void capture_checkpoint(bool to_disk);
  /// Restores the last snapshot (state, step, time) and applies the
  /// configured dt shrink.
  void rollback();
  /// Regenerates + recompiles the kernels with a new dt (dt folds into the
  /// generated code) and rebinds the flux scratch arrays.
  void rebuild_with_dt(double new_dt);
  /// Fires FaultPlan::nan_step once when due (right after `step_` advanced).
  void maybe_inject_nan();
  void restore_from_disk();
  /// Re-exchanges ghosts of both src fields (after restore/rollback/Heun).
  void refresh_src_ghosts(StepCost* cost = nullptr);
  /// Updates the step-time EWMA and emits a progress sample when due.
  void record_progress(double step_wall_seconds);

  /// Owned copy (shares the caller's Field handles) so a dt shrink can
  /// regenerate kernels without mutating the caller's model.
  GrandChemModel model_;
  DistributedOptions opts_;
  NodeSchedule node_;
  std::string report_name_;
  grid::BlockForest forest_;
  mpi::Comm* comm_;
  CompiledModel compiled_;
  /// Declared before the blocks: first-touch initialization runs on the
  /// (pinned) pool during array construction.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<LocalBlock>> locals_;
  grid::GhostExchange exchange_;
  /// Static outer-axis slab ownership of a block, shared by first-touch,
  /// every kernel launch (Dispatch::Static) and the wavefront schedule.
  SlabPlan slab_plan_;
  WavefrontSchedule wavefront_;
  perf::BlockingPlan blocking_;
  long long fused_substeps_ = 0;
  /// Per-kernel interior/frontier decomposition, parallel to
  /// compiled_.phi_kernels / mu_kernels (empty when overlap is Off).
  std::vector<KernelRegions> phi_regions_, mu_regions_;
  /// Per-step local cell counts of the decomposition (dst-kernel lattice).
  long long overlap_interior_cells_ = 0;
  long long overlap_frontier_cells_ = 0;
  long long step_ = 0;
  double time_ = 0.0;
  /// Live dt: starts at params().dt, shrunk by rollbacks (kernels are
  /// recompiled to match — dt is folded into the generated code).
  double dt_current_ = 0.0;
  resilience::FaultPlan faults_;
  bool fault_nan_fired_ = false;
  resilience::Snapshot snapshot_;
  obs::ResilienceStats res_stats_;
  int retries_ = 0;
  long long last_violation_step_ = -1;
  obs::Registry reg_;
  obs::TraceRecorder tracer_;
  obs::HealthMonitor health_;
  /// ECM-predicted MLUP/s per kernel at the local block size and pool
  /// width (cached; feeds model_accuracy).
  std::map<std::string, double> predicted_mlups_;
  /// cpus/cores/packages/NUMA nodes as seen at construction (the report's
  /// threading section; probed once, not per report).
  std::array<int, 4> topology_{};
  /// True while the current step is on the trace sampling grid.
  bool trace_this_step_ = false;
  ProgressOptions progress_;
  double step_seconds_ewma_ = 0.0;
  long long last_progress_step_ = -1;
};

}  // namespace pfc::app
