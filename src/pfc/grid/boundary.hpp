// Single-block boundary handling: fills ghost layers either periodically or
// with zero-gradient (Neumann) copies of the boundary cells. Distributed
// runs use ghost_exchange for inter-block faces and these fills only at
// true domain boundaries.
#pragma once

#include "pfc/field/array.hpp"

namespace pfc::grid {

enum class BoundaryKind { Periodic, ZeroGradient };

/// Fills all ghost layers of `a` along every used spatial dimension.
/// Axis-sequential sweeps (x, then y, then z) over the already-extended
/// range fill edge and corner ghosts without diagonal copies.
void fill_ghosts(Array& a, BoundaryKind kind);

/// Fills ghosts along a single axis (used by the distributed runtime for
/// non-periodic domain boundaries on boundary blocks).
void fill_ghosts_axis(Array& a, int axis, BoundaryKind kind,
                      bool lower = true, bool upper = true);

}  // namespace pfc::grid
