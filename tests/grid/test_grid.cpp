// Block forest, boundary fills, ghost exchange and in-process MPI tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <set>

#include "pfc/grid/blockforest.hpp"
#include "pfc/grid/ghost_exchange.hpp"
#include "pfc/grid/vtk.hpp"
#include "pfc/mpi/simmpi.hpp"

namespace pfc::grid {
namespace {

TEST(MortonTest, OrderAndUniqueness) {
  EXPECT_EQ(morton_encode(0, 0, 0), 0u);
  EXPECT_EQ(morton_encode(1, 0, 0), 1u);
  EXPECT_EQ(morton_encode(0, 1, 0), 2u);
  EXPECT_EQ(morton_encode(1, 1, 0), 3u);
  EXPECT_EQ(morton_encode(0, 0, 1), 4u);
  std::set<std::uint64_t> seen;
  for (std::uint32_t z = 0; z < 8; ++z) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t x = 0; x < 8; ++x) {
        EXPECT_TRUE(seen.insert(morton_encode(x, y, z)).second);
      }
    }
  }
}

TEST(BlockForestTest, PartitionInvariants) {
  BlockForest f({64, 64, 32}, {4, 4, 2}, 5, 3);
  EXPECT_EQ(f.blocks().size(), 32u);
  // every cell covered exactly once
  long long volume = 0;
  for (const auto& b : f.blocks()) {
    volume += b.size[0] * b.size[1] * b.size[2];
    EXPECT_EQ(b.size[0], 16);
    EXPECT_EQ(b.size[1], 16);
    EXPECT_EQ(b.size[2], 16);
  }
  EXPECT_EQ(volume, 64ll * 64 * 32);
  // all ranks used, near-equal loads
  const auto [mx, mn] = f.rank_load_extremes();
  EXPECT_GE(mn, 32 / 5);
  EXPECT_LE(mx, 32 / 5 + 1);
}

TEST(BlockForestTest, UnevenDivisionRejected) {
  EXPECT_THROW(BlockForest({65, 64, 1}, {4, 4, 1}, 2, 2), Error);
}

TEST(BlockForestTest, NeighborsPeriodicAndWalls) {
  BlockForest fp({32, 32, 1}, {4, 2, 1}, 1, 2, BoundaryKind::Periodic);
  const Block& corner = fp.block_at({0, 0, 0});
  const Block* left = fp.neighbor(corner, 0, -1);
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->index[0], 3);  // wrapped

  BlockForest fw({32, 32, 1}, {4, 2, 1}, 1, 2, BoundaryKind::ZeroGradient);
  EXPECT_EQ(fw.neighbor(fw.block_at({0, 0, 0}), 0, -1), nullptr);
  const Block* right = fw.neighbor(fw.block_at({0, 0, 0}), 0, +1);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(right->index[0], 1);
}

TEST(BlockForestTest, MortonChunksAreSpatiallyCompact) {
  // consecutive blocks on the curve differ in exactly one step most of the
  // time; at least verify each rank's chunk is contiguous in linear_id
  BlockForest f({64, 64, 64}, {4, 4, 4}, 8, 3);
  for (int r = 0; r < 8; ++r) {
    auto blocks = f.blocks_of_rank(r);
    ASSERT_FALSE(blocks.empty());
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_EQ(blocks[i]->linear_id, blocks[i - 1]->linear_id + 1);
    }
  }
}

TEST(BoundaryTest, PeriodicFillsCorners) {
  auto fld = Field::create("b", 2, 1);
  Array a(fld, {4, 4, 1}, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) a.at(x, y, 0) = 10.0 * x + y;
  }
  fill_ghosts(a, BoundaryKind::Periodic);
  EXPECT_DOUBLE_EQ(a.at(-1, 0, 0), a.at(3, 0, 0));
  EXPECT_DOUBLE_EQ(a.at(4, 2, 0), a.at(0, 2, 0));
  // corner ghost: periodic wrap in both axes
  EXPECT_DOUBLE_EQ(a.at(-1, -1, 0), a.at(3, 3, 0));
  EXPECT_DOUBLE_EQ(a.at(4, 4, 0), a.at(0, 0, 0));
}

TEST(BoundaryTest, ZeroGradientCopiesEdge) {
  auto fld = Field::create("b", 2, 1);
  Array a(fld, {4, 4, 1}, 2);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) a.at(x, y, 0) = 10.0 * x + y;
  }
  fill_ghosts(a, BoundaryKind::ZeroGradient);
  EXPECT_DOUBLE_EQ(a.at(-1, 2, 0), a.at(0, 2, 0));
  EXPECT_DOUBLE_EQ(a.at(-2, 2, 0), a.at(0, 2, 0));
  EXPECT_DOUBLE_EQ(a.at(5, 1, 0), a.at(3, 1, 0));
  EXPECT_DOUBLE_EQ(a.at(-1, -1, 0), a.at(0, 0, 0));
}

/// Fills an array from a global function of cell coordinates.
void fill_global(Array& a, const Block& b,
                 const std::function<double(long long, long long, long long,
                                            int)>& f) {
  for (int c = 0; c < a.components(); ++c) {
    for (long long z = 0; z < b.size[2]; ++z) {
      for (long long y = 0; y < b.size[1]; ++y) {
        for (long long x = 0; x < b.size[0]; ++x) {
          a.at(x, y, z, c) = f(x + b.offset[0], y + b.offset[1],
                               z + b.offset[2], c);
        }
      }
    }
  }
}

double global_pattern(long long x, long long y, long long z, int c) {
  return std::sin(0.1 * double(x)) + 10.0 * double(y) + 100.0 * double(z) +
         1000.0 * c;
}

TEST(GhostExchangeTest, SerialMultiBlockPeriodic) {
  BlockForest f({16, 16, 1}, {2, 2, 1}, 1, 2, BoundaryKind::Periodic);
  auto fld = Field::create("u", 2, 2);
  std::vector<std::unique_ptr<Array>> arrays;
  std::vector<LocalBlockField> view;
  for (const auto& b : f.blocks()) {
    arrays.push_back(
        std::make_unique<Array>(fld, std::array<std::int64_t, 3>{8, 8, 1}, 1));
    fill_global(*arrays.back(), b, global_pattern);
    view.push_back({&b, arrays.back().get()});
  }
  GhostExchange ex(f, nullptr);
  ex.exchange(view, 0);

  // every ghost must equal the periodic global pattern
  for (std::size_t i = 0; i < view.size(); ++i) {
    const Block& b = *view[i].block;
    const Array& a = *view[i].array;
    for (int c = 0; c < 2; ++c) {
      for (long long y = -1; y < 9; ++y) {
        for (long long x = -1; x < 9; ++x) {
          const long long gx = (x + b.offset[0] + 16) % 16;
          const long long gy = (y + b.offset[1] + 16) % 16;
          ASSERT_DOUBLE_EQ(a.at(x, y, 0, c), global_pattern(gx, gy, 0, c))
              << "block " << b.index[0] << "," << b.index[1] << " ghost ("
              << x << "," << y << ") c=" << c;
        }
      }
    }
  }
}

TEST(GhostExchangeTest, DistributedMatchesGlobalPattern3D) {
  mpi::run(3, [&](mpi::Comm& comm) {
    BlockForest f({12, 12, 12}, {2, 2, 2}, comm.size(), 3,
                  BoundaryKind::Periodic);
    auto fld = Field::create("u3", 3, 1);
    std::vector<std::unique_ptr<Array>> arrays;
    std::vector<LocalBlockField> view;
    for (const auto* b : f.blocks_of_rank(comm.rank())) {
      arrays.push_back(std::make_unique<Array>(
          fld, std::array<std::int64_t, 3>{6, 6, 6}, 1));
      fill_global(*arrays.back(), *b, global_pattern);
      view.push_back({b, arrays.back().get()});
    }
    GhostExchange ex(f, &comm);
    ex.exchange(view, 0);
    EXPECT_GT(ex.last_bytes_sent(), 0u);

    for (const auto& lf : view) {
      const Block& b = *lf.block;
      const Array& a = *lf.array;
      for (long long z = -1; z < 7; ++z) {
        for (long long y = -1; y < 7; ++y) {
          for (long long x = -1; x < 7; ++x) {
            const long long gx = (x + b.offset[0] + 12) % 12;
            const long long gy = (y + b.offset[1] + 12) % 12;
            const long long gz = (z + b.offset[2] + 12) % 12;
            ASSERT_DOUBLE_EQ(a.at(x, y, z), global_pattern(gx, gy, gz, 0));
          }
        }
      }
    }
  });
}

TEST(GhostExchangeTest, ZeroGradientAtDomainWalls) {
  BlockForest f({8, 8, 1}, {2, 1, 1}, 1, 2, BoundaryKind::ZeroGradient);
  auto fld = Field::create("w", 2, 1);
  std::vector<std::unique_ptr<Array>> arrays;
  std::vector<LocalBlockField> view;
  for (const auto& b : f.blocks()) {
    arrays.push_back(
        std::make_unique<Array>(fld, std::array<std::int64_t, 3>{4, 8, 1}, 1));
    fill_global(*arrays.back(), b, global_pattern);
    view.push_back({&b, arrays.back().get()});
  }
  GhostExchange ex(f, nullptr);
  ex.exchange(view, 0);
  const Array& left = *view[0].array;
  EXPECT_DOUBLE_EQ(left.at(-1, 3, 0), left.at(0, 3, 0));  // wall
  EXPECT_DOUBLE_EQ(left.at(4, 3, 0), global_pattern(4, 3, 0, 0));  // seam
}

/// A one-block forest without a communicator is the node-level driver's
/// layout: its exchange must give grid::fill_ghosts' bits in every ghost,
/// corners and edges included.
void expect_single_block_fill_bitwise(int dims, BoundaryKind kind,
                                      int ghosts) {
  const std::array<long long, 3> n{7, dims > 1 ? 5 : 1, dims > 2 ? 6 : 1};
  BlockForest f(n, {1, 1, 1}, 1, dims, kind);
  auto fld = Field::create("s", dims, 2);
  const std::array<std::int64_t, 3> size{n[0], n[1], n[2]};
  Array via_exchange(fld, size, ghosts), via_fill(fld, size, ghosts);
  fill_global(via_exchange, f.blocks().front(), global_pattern);
  fill_global(via_fill, f.blocks().front(), global_pattern);

  GhostExchange ex(f, nullptr, 2, ghosts);
  ex.exchange({{&f.blocks().front(), &via_exchange}}, 0);
  fill_ghosts(via_fill, kind);
  EXPECT_EQ(ex.last_bytes_sent(), 0u);

  std::array<long long, 3> g{0, 0, 0};
  for (int d = 0; d < dims; ++d) g[std::size_t(d)] = ghosts;
  for (int c = 0; c < 2; ++c) {
    for (long long z = -g[2]; z < n[2] + g[2]; ++z) {
      for (long long y = -g[1]; y < n[1] + g[1]; ++y) {
        for (long long x = -g[0]; x < n[0] + g[0]; ++x) {
          const double a = via_exchange.at(x, y, z, c);
          const double b = via_fill.at(x, y, z, c);
          ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
              << dims << "-D cell (" << x << "," << y << "," << z
              << ") c=" << c;
        }
      }
    }
  }
}

TEST(SingleBlockForestFill, Periodic2D) {
  expect_single_block_fill_bitwise(2, BoundaryKind::Periodic, 1);
}

TEST(SingleBlockForestFill, ZeroGradient2D) {
  expect_single_block_fill_bitwise(2, BoundaryKind::ZeroGradient, 1);
}

TEST(SingleBlockForestFill, Periodic3DTwoGhostLayers) {
  expect_single_block_fill_bitwise(3, BoundaryKind::Periodic, 2);
}

TEST(SingleBlockForestFill, ZeroGradient3D) {
  expect_single_block_fill_bitwise(3, BoundaryKind::ZeroGradient, 1);
}

TEST(VtkTest, WritesValidHeader) {
  auto fld = Field::create("v", 2, 2);
  Array a(fld, {4, 3, 1}, 1);
  a.fill(1.5);
  const std::string path = "/tmp/pfc_test_out.vtk";
  write_vtk(path, {&a}, 0.5);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("DIMENSIONS 4 3 1"), std::string::npos);
  EXPECT_NE(all.find("SCALARS v_0 double 1"), std::string::npos);
  EXPECT_NE(all.find("SCALARS v_1 double 1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pfc::grid

namespace pfc::mpi {
namespace {

TEST(SimMpiTest, PointToPoint) {
  run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const double v = 42.5;
      c.send(1, 7, &v, sizeof v);
    } else {
      double v = 0;
      c.recv(0, 7, &v, sizeof v);
      EXPECT_DOUBLE_EQ(v, 42.5);
    }
  });
}

TEST(SimMpiTest, FifoPerChannel) {
  run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(1, 1, &i, sizeof i);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        c.recv(0, 1, &v, sizeof v);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(SimMpiTest, TagsIndependent) {
  run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const int a = 1, b = 2;
      c.send(1, 100, &a, sizeof a);
      c.send(1, 200, &b, sizeof b);
    } else {
      int b = 0, a = 0;
      c.recv(0, 200, &b, sizeof b);  // out of order by tag
      c.recv(0, 100, &a, sizeof a);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(SimMpiTest, NonblockingRoundTrip) {
  run(4, [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    double out = 10.0 * c.rank();
    double in = -1;
    auto rr = c.irecv(prev, 5, &in, sizeof in);
    auto sr = c.isend(next, 5, &out, sizeof out);
    c.wait(rr);
    c.wait(sr);
    EXPECT_DOUBLE_EQ(in, 10.0 * prev);
  });
}

TEST(SimMpiTest, Collectives) {
  run(5, [](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_sum(double(c.rank())), 0 + 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(c.allreduce_max(double(c.rank() % 3)), 2.0);
    c.barrier();
    // a second round must not see stale values
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 5.0);
  });
}

TEST(SimMpiTest, SizeMismatchThrows) {
  EXPECT_THROW(run(2,
                   [](Comm& c) {
                     if (c.rank() == 0) {
                       double v = 1;
                       c.send(1, 3, &v, sizeof v);
                       float w = 0;  // wrong size on purpose
                       c.recv(1, 4, &w, sizeof w);
                     } else {
                       double v = 0;
                       c.recv(0, 3, &v, sizeof v);
                       c.send(0, 4, &v, sizeof v);
                     }
                   }),
               Error);
}

}  // namespace
}  // namespace pfc::mpi
