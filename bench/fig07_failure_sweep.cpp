//===- bench/fig07_failure_sweep.cpp - Figure 7: failure-rate sweep -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 7: failure rates 0-50% at a fixed 2x heap for Immix line sizes
// 64/128/256 B, without hardware clustering. The larger the line, the
// earlier false failures dominate: L256 degrades almost immediately and
// stops completing workloads at high rates (a terminated curve, printed
// as '-'); L128 crosses over around 15%; L64 degrades most gracefully.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<size_t> LineSizes = {64, 128, 256};
const std::vector<double> Rates = {0.0,  0.05, 0.10, 0.15, 0.20,
                                   0.25, 0.30, 0.40, 0.50};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  Series Base;
  std::map<std::pair<size_t, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (size_t Line : LineSizes) {
      for (double Rate : Rates) {
        RuntimeConfig Config = paperBaseConfig();
        Config.LineSize = Line;
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Rate;
        Runs[{Line, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Figure 7: failure-rate sweep at 2x heap, no clustering "
            "(normalized to unmodified S-IX; '-' = did not complete)");
  Fig.setHeader({"failed %", "L64", "L128", "L256"});
  for (double Rate : Rates) {
    std::vector<std::string> Row = {
        Table::num(Rate * 100.0, 0)};
    for (size_t Line : LineSizes)
      Row.push_back(Table::num(geomeanVs(Runs.at({Line, Rate}), Base), 3));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: larger lines suffer false failures sooner; L256 "
              "fails to run many workloads at high rates without "
              "clustering\n");
  return 0;
}
