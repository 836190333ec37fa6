#include "pfc/grid/boundary.hpp"

namespace pfc::grid {

namespace {

/// Iterates the array range extended by ghosts in axes < `axis` (already
/// filled by earlier sweeps) and interior in axes > `axis`.
struct Range {
  std::int64_t lo[3], hi[3];
};

Range sweep_range(const Array& a, int axis) {
  Range r;
  const int g = a.ghost_layers();
  for (int d = 0; d < 3; ++d) {
    const bool used = d < a.field()->spatial_dims();
    const int gd = used ? g : 0;
    if (d < axis) {
      r.lo[d] = -gd;
      r.hi[d] = a.size()[std::size_t(d)] + gd;
    } else {
      r.lo[d] = 0;
      r.hi[d] = a.size()[std::size_t(d)];
    }
  }
  return r;
}

}  // namespace

void fill_ghosts_axis(Array& a, int axis, BoundaryKind kind, bool lower,
                      bool upper) {
  if (a.ghost_layers() == 0 || axis >= a.field()->spatial_dims()) return;
  const Range r = sweep_range(a, axis);
  const int g = a.ghost_layers();
  const std::int64_t n = a.size()[std::size_t(axis)];

  for (int c = 0; c < a.components(); ++c) {
    for (std::int64_t u = r.lo[(axis + 1) % 3]; u < r.hi[(axis + 1) % 3];
         ++u) {
      for (std::int64_t v = r.lo[(axis + 2) % 3]; v < r.hi[(axis + 2) % 3];
           ++v) {
        const auto cell = [&](std::int64_t w) -> double& {
          std::int64_t xyz[3];
          xyz[axis] = w;
          xyz[(axis + 1) % 3] = u;
          xyz[(axis + 2) % 3] = v;
          return a.at(xyz[0], xyz[1], xyz[2], c);
        };
        for (int gi = 1; gi <= g; ++gi) {
          if (kind == BoundaryKind::Periodic) {
            if (lower) cell(-gi) = cell(n - gi);
            if (upper) cell(n - 1 + gi) = cell(gi - 1);
          } else {
            if (lower) cell(-gi) = cell(0);
            if (upper) cell(n - 1 + gi) = cell(n - 1);
          }
        }
      }
    }
  }
}

void fill_ghosts(Array& a, BoundaryKind kind) {
  for (int axis = 0; axis < a.field()->spatial_dims(); ++axis) {
    fill_ghosts_axis(a, axis, kind);
  }
}

}  // namespace pfc::grid
