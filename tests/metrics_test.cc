// Unit tests for cycle accounting, stats helpers, and table rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/accounting.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace vread::metrics {
namespace {

TEST(CycleAccounting, ChargesAccumulatePerThreadAndCategory) {
  CycleAccounting acct;
  ThreadId a = acct.register_thread("vcpu0", "vm1");
  ThreadId b = acct.register_thread("vhost0", "host");
  acct.charge(a, CycleCategory::kClientApp, 100);
  acct.charge(a, CycleCategory::kClientApp, 50);
  acct.charge(a, CycleCategory::kVirtioCopy, 25);
  acct.charge(b, CycleCategory::kVhostNet, 10);
  EXPECT_EQ(acct.thread_total(a), 175u);
  EXPECT_EQ(acct.thread_total(a, CycleCategory::kClientApp), 150u);
  EXPECT_EQ(acct.thread_total(a, CycleCategory::kVirtioCopy), 25u);
  EXPECT_EQ(acct.thread_total(b), 10u);
  EXPECT_EQ(acct.thread_name(a), "vcpu0");
  EXPECT_EQ(acct.thread_group(b), "host");
}

TEST(CycleAccounting, GroupAggregation) {
  CycleAccounting acct;
  ThreadId a = acct.register_thread("vcpu0", "vm1");
  ThreadId b = acct.register_thread("io0", "vm1");
  ThreadId c = acct.register_thread("vcpu1", "vm2");
  acct.charge(a, CycleCategory::kClientApp, 100);
  acct.charge(b, CycleCategory::kVhostNet, 40);
  acct.charge(c, CycleCategory::kClientApp, 7);
  EXPECT_EQ(acct.group_total("vm1"), 140u);
  EXPECT_EQ(acct.group_total("vm1", CycleCategory::kVhostNet), 40u);
  EXPECT_EQ(acct.group_total("vm2"), 7u);
  EXPECT_EQ(acct.group_total("nope"), 0u);
}

TEST(CycleAccounting, SnapshotDeltas) {
  CycleAccounting acct;
  ThreadId a = acct.register_thread("vcpu0", "vm1");
  acct.charge(a, CycleCategory::kClientApp, 100);
  acct.note_busy(a, 500);
  auto snap = acct.snapshot();
  acct.charge(a, CycleCategory::kClientApp, 30);
  acct.note_busy(a, 70);
  // New thread after the snapshot counts from zero.
  ThreadId b = acct.register_thread("late", "vm1");
  acct.charge(b, CycleCategory::kClientApp, 5);
  EXPECT_EQ(acct.group_total_since(snap, "vm1", CycleCategory::kClientApp), 35u);
  EXPECT_EQ(acct.group_total_since(snap, "vm1"), 35u);
  EXPECT_EQ(acct.group_busy_since(snap, "vm1"), 70);
}

TEST(CycleAccounting, ResetZeroesEverything) {
  CycleAccounting acct;
  ThreadId a = acct.register_thread("t", "g");
  acct.charge(a, CycleCategory::kOther, 9);
  acct.note_busy(a, 9);
  acct.reset();
  EXPECT_EQ(acct.thread_total(a), 0u);
  EXPECT_EQ(acct.thread_busy_time(a), 0);
}

TEST(Categories, AllHaveNames) {
  for (std::uint8_t i = 0; i < kNumCategories; ++i) {
    EXPECT_STRNE(to_string(static_cast<CycleCategory>(i)), "?");
  }
}

TEST(Stats, Throughput) {
  EXPECT_DOUBLE_EQ(throughput_mbps(100'000'000, sim::sec(1)), 100.0);
  EXPECT_DOUBLE_EQ(throughput_mbps(50'000'000, sim::ms(500)), 100.0);
  EXPECT_DOUBLE_EQ(throughput_mbps(1, 0), 0.0);
}

TEST(Stats, Rates) {
  EXPECT_DOUBLE_EQ(rate_per_sec(5000, sim::sec(1)), 5000.0);
  EXPECT_DOUBLE_EQ(rate_per_sec(100, sim::ms(100)), 1000.0);
}

TEST(Stats, PercentHelpers) {
  EXPECT_DOUBLE_EQ(percent_gain(100.0, 120.0), 20.0);
  EXPECT_DOUBLE_EQ(percent_gain(100.0, 60.0), -40.0);
  EXPECT_DOUBLE_EQ(percent_reduction(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(percent_gain(0.0, 5.0), 0.0);
}

TEST(Table, RendersAlignedCells) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(21.333), "+21.3%");
  EXPECT_EQ(fmt_pct(-11.3), "-11.3%");
}

TEST(BarChart, ScalesBarsToMax) {
  BarChart chart("title", "MBps");
  chart.add("a", 100.0).add("b", 50.0);
  std::ostringstream os;
  chart.print(os, 10);
  std::string out = os.str();
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
  EXPECT_NE(out.find("100.0 MBps"), std::string::npos);
}

}  // namespace
}  // namespace vread::metrics
