//===- bench/fig05_compensation.cpp - Figure 5: compensation study --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 5: geomean time versus heap size, comparing
//   - S-IX^PCM with no failures (the floor),
//   - 10% failures without memory compensation (reduced usable memory),
//   - 10% failures with compensation (isolates fragmentation + false
//     failures),
//   - 10% failures with compensation and two-page clustering (the best
//     failure-tolerant configuration).
// Expected shape: the NoComp curve sits well above the compensated one at
// small heaps and converges as the heap grows; clustering pulls the
// compensated curve down toward the no-failure floor.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

struct Curve {
  const char *Name;
  double Rate;
  bool Compensate;
  unsigned ClusterPages;
};

const std::vector<Curve> Curves = {
    {"f=0", 0.0, true, 0},
    {"f=10% NoComp", 0.10, false, 0},
    {"f=10% Comp", 0.10, true, 0},
    {"f=10% Comp 2CL", 0.10, true, 2},
};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  std::map<std::pair<const Curve *, double>, Series> Runs;
  for (const Curve &C : Curves) {
    for (double Factor : heapFactors()) {
      for (const Profile *P : Profiles) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, Factor);
        Config.FailureRate = C.Rate;
        Config.CompensateForFailures = C.Compensate;
        Config.ClusteringRegionPages = C.ClusterPages;
        Runs[{&C, Factor}].push_back(runPoint(*P, Config));
      }
    }
  }

  // Normalize all curves to the no-failure configuration at the largest
  // heap.
  const Series &Floor = Runs.at({&Curves[0], heapFactors().back()});
  Table Fig("Figure 5: geomean time vs heap size (normalized to the "
            "no-failure run at the largest heap)");
  Fig.setHeader({"heap(xmin)", "f=0", "f=10% NoComp", "f=10% Comp",
                 "f=10% Comp 2CL"});
  for (double Factor : heapFactors()) {
    std::vector<std::string> Row = {Table::num(Factor, 2)};
    for (const Curve &C : Curves)
      Row.push_back(Table::num(geomeanVs(Runs.at({&C, Factor}), Floor), 3));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: NoComp >> Comp at small heaps, converging by ~3x "
              "min; clustering removes most of the remaining gap\n");
  return 0;
}
