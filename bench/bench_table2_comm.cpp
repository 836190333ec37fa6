// Regenerates paper Table 2: communication options on Piz Daint with 128
// GPUs, setup P1 with 400^3 cells per GPU — MLUP/s per GPU for the four
// combinations of communication overlap and GPUDirect. Runs on the analytic
// GPU + network models (DESIGN.md §2); the paper's numbers are 395 / 403 /
// 422 / 440.
//
// A second, measured axis runs the runtime's actual interior/frontier
// overlap (OverlapMode::InteriorFrontier, DESIGN.md §8) against the
// synchronous step on this host: 4 in-process ranks, multi-block, both
// modes bitwise-identical. Exports BENCH_table2_comm.json with the
// analytic table plus the measured hidden fraction and speedup.
#include <cmath>

#include "bench_common.hpp"

#include "pfc/app/simulation.hpp"
#include "pfc/perf/gpu_model.hpp"
#include "pfc/perf/netmodel.hpp"
#include "pfc/support/timer.hpp"

using namespace pfc;
using namespace pfc::bench;

namespace {

struct MeasuredMode {
  double wall_s = 0.0;
  obs::RunReport report;
};

/// One 4-rank multi-block run of the P1-style two-phase model; returns
/// rank 0's report and the slowest rank's wall time (the step is
/// bulk-synchronous, so that is the step duration that matters).
MeasuredMode run_measured(app::OverlapMode mode, int steps) {
  app::GrandChemParams params = app::make_two_phase(2);
  app::GrandChemModel model(params);
  MeasuredMode out;
  mpi::run(4, [&](mpi::Comm& comm) {
    const auto opts = app::DistributedOptions{}
                          .with_cells(256, 256)
                          .with_blocks(4, 2)
                          .with_overlap(mode);
    app::DistributedSimulation sim(model, opts, &comm);
    sim.init(
        [&](long long x, long long y, long long, int c) {
          const double d = std::sqrt(double((x - 128) * (x - 128) +
                                            (y - 128) * (y - 128))) -
                           70.0;
          const double s = app::interface_profile(d, 2.5 * params.epsilon);
          return c == 1 ? s : 1.0 - s;
        },
        [](long long, long long, long long, int) { return 0.0; });
    sim.run(2);  // warm the JIT'd code paths and message buffers
    comm.barrier();
    Timer t;
    const obs::RunReport rep = sim.run(steps);
    const double wall = comm.allreduce_max(t.seconds());
    if (comm.rank() == 0) {
      out.wall_s = wall;
      out.report = rep;
    }
  });
  return out;
}

}  // namespace

int main() {
  const perf::GpuModel gpu = perf::GpuModel::p100();
  const perf::NetworkModel net;
  const std::array<long long, 3> block{400, 400, 400};
  const double cells = 400.0 * 400.0 * 400.0;

  // per-step compute time: all four P1 kernels (phi-full + mu-split pair,
  // the paper's best combination) with full transformations
  perf::GpuTransformConfig cfg;
  cfg.schedule = cfg.remat = cfg.fences = true;
  std::vector<ir::Kernel> kernels;
  for (auto& k : lower_kernels(Which::PhiP1, false)) kernels.push_back(k);
  for (auto& k : lower_kernels(Which::MuP1, true)) kernels.push_back(k);
  const double compute_mlups = perf::gpu_step_mlups(kernels, cfg, gpu, block);
  const double compute_s = cells / (compute_mlups * 1e6);

  const double bytes = perf::ghost_bytes_per_step(block, 4, 2);
  const int msgs = perf::messages_per_step(3);

  std::printf("=== Table 2: communication options, P1, 400^3 per GPU, 128 "
              "GPUs ===\n\n");
  std::printf("kernel-only rate: %.0f MLUP/s per GPU; ghost volume %.1f MB "
              "per step\n\n", compute_mlups, bytes / 1e6);
  std::printf("%-9s %-10s %16s %14s\n", "overlap", "GPUDirect",
              "MLUP/s per GPU", "paper");
  print_rule(55);
  const int paper[4] = {395, 403, 422, 440};
  int i = 0;
  for (bool overlap : {false, true}) {
    for (bool gpudirect : {false, true}) {
      const double t =
          perf::step_time(compute_s, bytes, msgs, {overlap, gpudirect}, net);
      std::printf("%-9s %-10s %16.0f %14d\n", overlap ? "yes" : "no",
                  gpudirect ? "yes" : "no", cells / t / 1e6, paper[i++]);
    }
  }
  print_rule(55);
  std::printf("\n[structure under test: overlap > GPUDirect > neither, "
              "with ~5-12%% total spread]\n");

  // --- measured axis: the runtime's real overlap on this host ---
  const int steps = 40;
  const MeasuredMode off = run_measured(app::OverlapMode::Off, steps);
  const MeasuredMode on =
      run_measured(app::OverlapMode::InteriorFrontier, steps);
  const double speedup = off.wall_s > 0.0 ? off.wall_s / on.wall_s : 0.0;
  const obs::OverlapStats& ov = on.report.overlap;

  std::printf("\n=== measured: interior/frontier overlap, 4 ranks, "
              "4x2 blocks of 64x128, %d steps ===\n\n", steps);
  std::printf("%-22s %12s %12s\n", "mode", "wall [ms]", "exch [ms]");
  print_rule(50);
  std::printf("%-22s %12.1f %12.1f\n", "synchronous",
              1e3 * off.wall_s, 1e3 * off.report.exchange_seconds);
  std::printf("%-22s %12.1f %12.1f\n", "interior/frontier",
              1e3 * on.wall_s, 1e3 * on.report.exchange_seconds);
  print_rule(50);
  std::printf("\nhidden fraction %.2f (interior %.1f ms vs. predicted wire "
              "time), speedup %.2fx\n",
              ov.hidden_fraction, 1e3 * ov.interior_seconds, speedup);
  std::printf("[in-process simmpi has near-zero wire time, so the wall "
              "clock mostly shows the\n split-sweep overhead; the hidden "
              "fraction + the analytic rows above give the\n expected gain "
              "once real network latency/bandwidth is in the loop]\n");

  // the modelled step the drift layer compares against the phase timers
  const double model_step_s = perf::overlapped_step_time(
      ov.interior_seconds / steps, ov.frontier_seconds / steps,
      double(on.report.exchange_bytes) / steps, perf::messages_per_step(2),
      net);

  write_bench_report(
      "table2_comm",
      bench_report_json(
          "table2_comm",
          {
              {"analytic_mlups_no_overlap",
               cells / perf::step_time(compute_s, bytes, msgs,
                                       {false, false}, net) / 1e6},
              {"analytic_mlups_overlap",
               cells / perf::step_time(compute_s, bytes, msgs,
                                       {true, false}, net) / 1e6},
              {"measured_off_wall_seconds", off.wall_s},
              {"measured_overlap_wall_seconds", on.wall_s},
              {"measured_hidden_fraction", ov.hidden_fraction},
              {"measured_hidden_seconds", ov.hidden_seconds},
              {"measured_interior_seconds", ov.interior_seconds},
              {"measured_frontier_seconds", ov.frontier_seconds},
              {"measured_speedup", speedup},
              {"modelled_overlap_step_seconds", model_step_s},
          },
          {{"off.exchange", {off.report.exchange_seconds,
                             std::uint64_t(steps)}},
           {"overlap.exchange", {on.report.exchange_seconds,
                                 std::uint64_t(steps)}}},
          {{"steps", std::uint64_t(steps)},
           {"exchange_bytes", on.report.exchange_bytes}}));
  return 0;
}
