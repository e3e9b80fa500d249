//===- bench/abl04_line_marking.cpp - Conservative vs exact marking -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Design-choice ablation from DESIGN.md: Immix's conservative line
// marking (small objects mark one line; the sweep implicitly keeps the
// next) trades a little space for much cheaper marking. Exact marking
// marks every covered line. This compares both, with and without
// failures, to show the trade-off survives failure awareness.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  const std::vector<double> Rates = {0.0, 0.25};
  std::map<std::pair<bool, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    for (bool Conservative : {true, false}) {
      for (double Rate : Rates) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.ConservativeLineMarking = Conservative;
        Config.FailureRate = Rate;
        Config.ClusteringRegionPages = Rate > 0.0 ? 2 : 0;
        Runs[{Conservative, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Ablation: conservative vs exact line marking (exact "
            "normalized to conservative)");
  Fig.setHeader({"failure rate", "exact / conservative"});
  for (double Rate : Rates) {
    double Norm = geomeanVs(Runs.at({false, Rate}), Runs.at({true, Rate}));
    Fig.addRow({Table::num(Rate * 100, 0) + "%", Table::num(Norm, 3)});
  }
  Fig.print();
  return 0;
}
