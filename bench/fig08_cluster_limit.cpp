//===- bench/fig08_cluster_limit.cpp - Figure 8: clustering limit study ---===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 8: instead of failing individual 64 B lines with probability p,
// fail aligned regions of 2^N lines wholesale with probability p (so the
// per-line failure probability is unchanged but gaps between failures
// are at least 2^N). Sweeping the cluster granularity from 64 B to 16 KB
// at 10/25/50% failures with 256 B Immix lines shows how dramatically
// clustering mitigates fragmentation: the paper's 25% and 50% curves
// cannot even start below 128 B granularity.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<size_t> ClusterLines = {1, 2, 4, 8, 16, 32, 64, 128, 256};
const std::vector<double> Rates = {0.10, 0.25, 0.50};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  Series Base;
  std::map<std::pair<size_t, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (double Rate : Rates) {
      for (size_t Lines : ClusterLines) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Rate;
        Config.Pattern = FailurePattern::ClusterLimit;
        Config.ClusterLines = Lines;
        Runs[{Lines, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Figure 8: S-IX^PCM (L256) with failures clustered at "
            "power-of-two granularities, normalized to unmodified S-IX "
            "('-' = did not complete)");
  Fig.setHeader({"cluster", "f=10%", "f=25%", "f=50%"});
  for (size_t Lines : ClusterLines) {
    std::vector<std::string> Row = {
        Table::bytes(Lines * PcmLineSize)};
    for (double Rate : Rates)
      Row.push_back(Table::num(geomeanVs(Runs.at({Lines, Rate}), Base), 3));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: performance improves dramatically with cluster "
              "granularity; at 256 B clustering, even 50%% failures cost "
              "only ~20%%\n");
  return 0;
}
