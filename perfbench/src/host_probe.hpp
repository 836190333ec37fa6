// Host probe: a STREAM-triad loop and a peak-FMA loop run in the
// benchmark's own process at the workload's thread count, before and after
// every workload. They are the roofline denominators and the drift signal:
// a slower run on a slower host shows up here too.
#pragma once

namespace perfbench {

struct HostSample {
  double triad_gbs = 0.0;    ///< a[i] = b[i] + s * c[i], 24 B per element
  double fma_gflops = 0.0;   ///< 2 flops per lane per fused multiply-add
  double triad_array_mib = 0.0;
  double llc_mib = 0.0;
};

/// Runs both loops on `threads` threads.
HostSample probe_host(int threads);

}  // namespace perfbench
