//===- bench/fig03_collectors.cpp - Figure 3: collector comparison --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 3: geometric-mean total time of the workloads under full-heap
// mark-sweep (MS), Immix (IX), and the sticky generational variants
// (S-MS, S-IX), across heap sizes, with no failures. The paper uses this
// to motivate Sticky Immix as the high-performance baseline; the expected
// shape is S-IX fastest (especially in small heaps), MS slowest.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<std::pair<const char *, CollectorKind>> Collectors = {
    {"MS", CollectorKind::MarkSweep},
    {"IX", CollectorKind::Immix},
    {"S-MS", CollectorKind::StickyMarkSweep},
    {"S-IX", CollectorKind::StickyImmix},
};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  std::map<std::pair<CollectorKind, double>, Series> Runs;
  for (const auto &[Name, Kind] : Collectors) {
    for (double Factor : heapFactors()) {
      for (const Profile *P : Profiles) {
        RuntimeConfig Config = paperBaseConfig();
        Config.Collector = Kind;
        Config.HeapBytes = heapBytesFor(*P, Factor);
        Runs[{Kind, Factor}].push_back(runPoint(*P, Config));
      }
    }
  }

  // Normalize everything to S-IX at the largest heap (the fastest
  // configuration in the paper's plot).
  Table Fig("Figure 3: DaCapo-style geomean time by collector and heap "
            "size (normalized to S-IX at the largest heap; '-' = some "
            "workload did not complete)");
  Fig.setHeader(
      {"heap(xmin)", "MS", "IX", "S-MS", "S-IX", "S-IX geomean ms"});
  const Series &Base =
      Runs.at({CollectorKind::StickyImmix, heapFactors().back()});
  for (double Factor : heapFactors()) {
    std::vector<std::string> Row;
    Row.push_back(Table::num(Factor, 2));
    for (const auto &[Name, Kind] : Collectors)
      Row.push_back(Table::num(geomeanVs(Runs.at({Kind, Factor}), Base), 3));
    std::vector<double> Times;
    for (const AggregateResult &Agg :
         Runs.at({CollectorKind::StickyImmix, Factor}))
      if (Agg.Completed)
        Times.push_back(Agg.MeanMs);
    Row.push_back(Table::num(Times.empty() ? std::nan("") : geomean(Times), 1));
    Fig.addRow(Row);
  }
  Fig.print();
  return 0;
}
