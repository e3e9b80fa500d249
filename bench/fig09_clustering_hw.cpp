//===- bench/fig09_clustering_hw.cpp - Figure 9: clustering hardware ------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 9: the proposed clustering hardware (redirection maps with
// metadata charged to each failing region) at one- and two-page region
// granularity, against no clustering, for Immix lines of 64/128/256 B
// and 0-50% failures.
//   (a) mean normalized time: no-clustering curves are worst (L256
//       cannot run many workloads at 25%+); with clustering, larger
//       Immix lines win again because fragmentation is gone.
//   (b) demand for perfect (borrowed) pages: two-page clustering cuts it
//       about 3x by manufacturing logically perfect pages.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<unsigned> ClusterModes = {0, 1, 2};
const std::vector<size_t> LineSizes = {64, 128, 256};
const std::vector<double> Rates = {0.0, 0.10, 0.25, 0.50};

const char *clLabel(unsigned Cl) {
  return Cl == 0 ? "noCL" : (Cl == 1 ? "1CL" : "2CL");
}

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  Series Base;
  std::map<std::tuple<unsigned, size_t, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (unsigned Cl : ClusterModes) {
      for (size_t Line : LineSizes) {
        for (double Rate : Rates) {
          RuntimeConfig Config = paperBaseConfig();
          Config.LineSize = Line;
          Config.HeapBytes = heapBytesFor(*P, 2.0);
          Config.FailureRate = Rate;
          Config.ClusteringRegionPages = Cl;
          Runs[{Cl, Line, Rate}].push_back(runPoint(*P, Config));
        }
      }
    }
  }

  Table FigA("Figure 9(a): mean normalized time at 2x heap "
             "(vs unmodified S-IX; '-' = did not complete)");
  FigA.setHeader({"config", "f=0%", "f=10%", "f=25%", "f=50%"});
  for (unsigned Cl : ClusterModes) {
    for (size_t Line : LineSizes) {
      char Label[32];
      std::snprintf(Label, sizeof(Label), "%s L%zu", clLabel(Cl), Line);
      std::vector<std::string> Row = {Label};
      for (double Rate : Rates)
        Row.push_back(
            Table::num(geomeanVs(Runs.at({Cl, Line, Rate}), Base), 3));
      FigA.addRow(Row);
    }
  }
  FigA.print();

  Table FigB("Figure 9(b): mean borrowed perfect pages per run (DRAM "
             "pages fussy allocators had to borrow)");
  FigB.setHeader({"config", "f=0%", "f=10%", "f=25%", "f=50%"});
  for (unsigned Cl : ClusterModes) {
    for (size_t Line : LineSizes) {
      char Label[32];
      std::snprintf(Label, sizeof(Label), "%s L%zu", clLabel(Cl), Line);
      std::vector<std::string> Row = {Label};
      for (double Rate : Rates)
        Row.push_back(meanBorrowed(Runs.at({Cl, Line, Rate})));
      FigB.addRow(Row);
    }
  }
  FigB.print();
  std::printf("paper: clustering greatly reduces overhead and cuts "
              "perfect-page demand ~3x at two-page granularity; with "
              "clustering, 256 B lines are best again\n");
  return 0;
}
