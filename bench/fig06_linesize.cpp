//===- bench/fig06_linesize.cpp - Figure 6: Immix line size ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 6(a): without failures, larger Immix lines perform better
// (fewer slow paths, less metadata), especially in small heaps.
// Figure 6(b): at 10% uniform failures (no clustering), false failures
// punish the larger lines - one dead 64 B PCM line wastes a whole 256 B
// Immix line - reversing the preference in constrained heaps.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<size_t> LineSizes = {64, 128, 256};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  std::map<std::tuple<bool, size_t, double>, Series> Runs;
  for (bool Failing : {false, true}) {
    for (size_t Line : LineSizes) {
      for (double Factor : heapFactors()) {
        for (const Profile *P : Profiles) {
          RuntimeConfig Config = paperBaseConfig();
          Config.LineSize = Line;
          Config.HeapBytes = heapBytesFor(*P, Factor);
          Config.FailureRate = Failing ? 0.10 : 0.0;
          Runs[{Failing, Line, Factor}].push_back(runPoint(*P, Config));
        }
      }
    }
  }

  const Series &Floor = Runs.at({false, 256, heapFactors().back()});
  for (bool Failing : {false, true}) {
    Table Fig(Failing
                  ? "Figure 6(b): line size at 10% failures, no "
                    "clustering (normalized to L256 f=0 at max heap)"
                  : "Figure 6(a): line size without failures "
                    "(normalized to L256 f=0 at max heap)");
    Fig.setHeader({"heap(xmin)", "L64", "L128", "L256"});
    for (double Factor : heapFactors()) {
      std::vector<std::string> Row = {Table::num(Factor, 2)};
      for (size_t Line : LineSizes)
        Row.push_back(Table::num(
            geomeanVs(Runs.at({Failing, Line, Factor}), Floor), 3));
      Fig.addRow(Row);
    }
    Fig.print();
  }
  std::printf("paper: larger lines win without failures; at 10%% "
              "failures false failures erode the L256 advantage in "
              "small heaps\n");
  return 0;
}
