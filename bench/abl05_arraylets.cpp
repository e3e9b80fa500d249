//===- bench/abl05_arraylets.cpp - Software arrays vs clustering hw -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Section 3.3.3 poses the alternatives for large objects under failures:
// a purely-software fix (discontiguous arrays, which need no contiguous
// perfect pages) versus the proposed clustering hardware (which
// manufactures logically perfect pages). This ablation races them on the
// large-object-heavy workloads at 10-50% failures, against the
// no-mitigation configuration.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<double> Rates = {0.10, 0.25, 0.50};

struct Mode {
  const char *Name;
  bool Arraylets;
  unsigned ClusterPages;
};

const std::vector<Mode> Modes = {
    {"LOS noCL", false, 0},
    {"LOS 2CL", false, 2},
    {"arraylets noCL", true, 0},
    {"arraylets 2CL", true, 2},
};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  // Focus on the array-heavy profiles where large-object policy matters.
  std::vector<const Profile *> Profiles;
  for (const char *Name : {"xalan", "eclipse", "hsqldb", "sunflow"})
    if (const Profile *P = findProfile(Name))
      Profiles.push_back(P);

  Series Base;
  std::map<std::pair<const Mode *, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (const Mode &M : Modes) {
      for (double Rate : Rates) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Rate;
        Config.ClusteringRegionPages = M.ClusterPages;
        Config.UseDiscontiguousArrays = M.Arraylets;
        Runs[{&M, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Section 3.3.3 ablation: large-object strategies on the "
            "array-heavy workloads (normalized to unmodified S-IX)");
  Fig.setHeader({"strategy", "f=10%", "f=25%", "f=50%",
                 "borrowed pages f=50%"});
  for (const Mode &M : Modes) {
    std::vector<std::string> Row = {M.Name};
    for (double Rate : Rates)
      Row.push_back(Table::num(geomeanVs(Runs.at({&M, Rate}), Base), 3));
    Row.push_back(meanBorrowed(Runs.at({&M, 0.50})));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: discontiguous arrays make large objects "
              "failure-robust in software (Z-rays report <13%% "
              "overhead); clustering achieves it in hardware and also "
              "helps everything else\n");
  return 0;
}
