//===- bench/abl02_region_size.cpp - Clustering region-size ablation ------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Section 7.3: is a bigger clustering region better? Larger regions
// initially keep more whole pages intact, but the advantage degenerates
// toward the two-page case as failures accumulate, while metadata and
// map-cache pressure grow. This sweeps region sizes 1/2/4/8 pages at
// 10/25/50% failures.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<unsigned> Regions = {1, 2, 4, 8};
const std::vector<double> Rates = {0.10, 0.25, 0.50};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  Series Base;
  std::map<std::pair<unsigned, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (unsigned Pages : Regions) {
      for (double Rate : Rates) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Rate;
        Config.ClusteringRegionPages = Pages;
        Runs[{Pages, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Section 7.3 ablation: clustering region size (normalized "
            "time vs unmodified S-IX / mean borrowed pages)");
  Fig.setHeader({"region", "f=10%", "f=25%", "f=50%", "borrow f=25%"});
  for (unsigned Pages : Regions) {
    char Label[32];
    std::snprintf(Label, sizeof(Label), "%u page%s", Pages,
                  Pages == 1 ? "" : "s");
    std::vector<std::string> Row = {Label};
    for (double Rate : Rates)
      Row.push_back(Table::num(geomeanVs(Runs.at({Pages, Rate}), Base), 3));
    Row.push_back(meanBorrowed(Runs.at({Pages, 0.25})));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: gains beyond two-page regions quickly degenerate "
              "to the two-page case while metadata costs grow\n");
  return 0;
}
