#include "bump/assigner.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bump/bump_grid.h"

namespace rlplan::bump {
namespace {

TEST(BumpGrid, GeneratesPeripheralSites) {
  const Rect die{10.0, 10.0, 8.0, 6.0};
  BumpGridConfig config;
  config.pitch_mm = 1.0;
  config.rings = 1;
  config.edge_margin_mm = 0.5;
  const auto sites = make_peripheral_sites(die, config);
  EXPECT_GT(sites.size(), 10u);
  // All sites inside the die, within the margin band.
  for (const auto& s : sites) {
    EXPECT_TRUE(die.contains(s.position));
    EXPECT_FALSE(die.inflated(-1.6).contains(s.position))
        << "site deep inside the die core";
    EXPECT_EQ(s.capacity, config.wires_per_site);
  }
}

TEST(BumpGrid, MoreRingsMoreSites) {
  const Rect die{0.0, 0.0, 10.0, 10.0};
  BumpGridConfig one;
  one.rings = 1;
  BumpGridConfig three;
  three.rings = 3;
  EXPECT_GT(make_peripheral_sites(die, three).size(),
            make_peripheral_sites(die, one).size());
}

TEST(BumpGrid, TinyDieFallsBackToCenterSite) {
  const Rect die{0.0, 0.0, 0.3, 0.3};
  BumpGridConfig config;
  config.edge_margin_mm = 0.25;
  const auto sites = make_peripheral_sites(die, config);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].position, die.center());
}

TEST(BumpGrid, DeterministicOrder) {
  const Rect die{2.0, 3.0, 9.0, 7.0};
  const auto a = make_peripheral_sites(die, {});
  const auto b = make_peripheral_sites(die, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position);
  }
}

TEST(BumpGrid, RejectsBadConfig) {
  const Rect die{0.0, 0.0, 5.0, 5.0};
  BumpGridConfig bad;
  bad.pitch_mm = 0.0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
  bad = {};
  bad.rings = 0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
  bad = {};
  bad.wires_per_site = 0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
}

ChipletSystem simple_pair(int wires) {
  return ChipletSystem("p", 40.0, 20.0,
                       {{"a", 8.0, 8.0, 10.0}, {"b", 8.0, 8.0, 10.0}},
                       {{0, 1, wires}});
}

TEST(BumpAssigner, AssignsAllWires) {
  const auto sys = simple_pair(100);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 100);
  EXPECT_GT(report.total_mm, 0.0);
  EXPECT_EQ(report.per_net_mm.size(), 1u);
  EXPECT_DOUBLE_EQ(report.per_net_mm[0], report.total_mm);
}

TEST(BumpAssigner, WirelengthScalesWithDistance) {
  const auto sys = simple_pair(64);
  Floorplan near_fp(sys);
  near_fp.place(0, {2.0, 6.0});
  near_fp.place(1, {12.0, 6.0});
  Floorplan far_fp(sys);
  far_fp.place(0, {2.0, 6.0});
  far_fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;
  EXPECT_LT(assigner.assign(sys, near_fp).total_mm,
            assigner.assign(sys, far_fp).total_mm);
}

TEST(BumpAssigner, WirelengthLowerBoundedByGapTimesWires) {
  // Each wire spans at least the inter-die gap along x.
  const auto sys = simple_pair(32);
  Floorplan fp(sys);
  fp.place(0, {0.0, 6.0});   // right edge at 8
  fp.place(1, {30.0, 6.0});  // left edge at 30 -> gap 22
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_GE(report.total_mm, 32 * (30.0 - 8.0) * 0.9);
}

TEST(BumpAssigner, BetterThanWorstCaseCenterEstimate) {
  // Facing-edge bumps beat center-to-center distance for adjacent dies.
  const auto sys = simple_pair(16);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {20.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  const double center_wl = fp.center_wirelength();
  EXPECT_LT(report.total_mm, center_wl);
}

TEST(BumpAssigner, CapacityOverflowsReported) {
  // A die with tiny perimeter capacity but a huge bus must overflow.
  BumpGridConfig config;
  config.pitch_mm = 4.0;
  config.rings = 1;
  config.wires_per_site = 1;
  const auto sys = simple_pair(500);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner(config);
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 500);
  EXPECT_GT(report.capacity_overflows, 0);
}

TEST(BumpAssigner, NoOverflowWithAmpleCapacity) {
  const auto sys = simple_pair(32);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;  // default: 16 wires x many sites
  EXPECT_EQ(assigner.assign(sys, fp).capacity_overflows, 0);
}

TEST(BumpAssigner, ThrowsOnUnplacedEndpoint) {
  const auto sys = simple_pair(8);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  const BumpAssigner assigner;
  EXPECT_THROW(assigner.assign(sys, fp), std::logic_error);
}

TEST(BumpAssigner, MultiNetCompetitionConsumesCapacity) {
  // A hub die connected to two partners: the second net must use sites
  // farther from its partner because the first consumed the best ones.
  const ChipletSystem sys("hub", 60.0, 20.0,
                          {{"hub", 8.0, 8.0, 10.0},
                           {"l", 8.0, 8.0, 10.0},
                           {"r", 8.0, 8.0, 10.0}},
                          {{0, 1, 200}, {0, 2, 200}});
  Floorplan fp(sys);
  fp.place(0, {26.0, 6.0});
  fp.place(1, {2.0, 6.0});
  fp.place(2, {50.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 400);
  // Both nets should have similar lengths by symmetry.
  EXPECT_NEAR(report.per_net_mm[0], report.per_net_mm[1],
              report.per_net_mm[0] * 0.2);
}

TEST(BumpAssigner, TotalIsSumOfPerNetLengths) {
  const ChipletSystem sys("hub", 60.0, 20.0,
                          {{"hub", 8.0, 8.0, 10.0},
                           {"l", 8.0, 8.0, 10.0},
                           {"r", 8.0, 8.0, 10.0}},
                          {{0, 1, 200}, {0, 2, 200}});
  Floorplan fp(sys);
  fp.place(0, {26.0, 6.0});
  fp.place(1, {2.0, 6.0});
  fp.place(2, {50.0, 6.0});
  const auto report = BumpAssigner{}.assign(sys, fp);
  ASSERT_EQ(report.per_net_mm.size(), 2u);
  double total = 0.0;
  for (const double mm : report.per_net_mm) total += mm;
  EXPECT_NEAR(total, report.total_mm, 1e-9);
}

TEST(BumpGrid, TotalCapacity) {
  std::vector<BumpSite> sites{{{0, 0}, 4}, {{1, 0}, 4}, {{2, 0}, 8}};
  EXPECT_EQ(total_capacity(sites), 16);
}

}  // namespace
}  // namespace rlplan::bump
