//===- bench/fig10_per_benchmark.cpp - Figure 10: per-benchmark CL --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 10: per-benchmark normalized time with one- and two-page
// clustering hardware at 10/25/50% failures. Expected: two-page
// clustering is consistently better until rates approach the 50%-of-
// region threshold, where pmd and jython (medium-object heavy) are
// most sensitive; xalan benefits enormously from the perfect pages
// two-page clustering manufactures.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<double> Rates = {0.10, 0.25, 0.50};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  Series Base;
  std::map<std::pair<unsigned, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (unsigned Cl : {1u, 2u}) {
      for (double Rate : Rates) {
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Rate;
        Config.ClusteringRegionPages = Cl;
        Runs[{Cl, Rate}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Figure 10: per-benchmark normalized time with clustering "
            "hardware (vs unmodified S-IX)");
  Fig.setHeader({"benchmark", "1CL f=10%", "1CL f=25%", "1CL f=50%",
                 "2CL f=10%", "2CL f=25%", "2CL f=50%"});
  for (size_t I = 0; I != Profiles.size(); ++I) {
    std::vector<std::string> Row = {Profiles[I]->Name};
    for (unsigned Cl : {1u, 2u})
      for (double Rate : Rates)
        Row.push_back(
            Table::num(normalizedTime(Runs.at({Cl, Rate})[I], Base[I]), 3));
    Fig.addRow(Row);
  }
  std::vector<std::string> Geo = {"geomean"};
  for (unsigned Cl : {1u, 2u}) {
    for (double Rate : Rates) {
      std::vector<double> Norms;
      size_t Dnf = 0;
      for (size_t I = 0; I != Profiles.size(); ++I) {
        double Norm = normalizedTime(Runs.at({Cl, Rate})[I], Base[I]);
        if (std::isnan(Norm))
          ++Dnf;
        else
          Norms.push_back(Norm);
      }
      double G = Norms.empty() ? std::nan("") : geomean(Norms);
      Geo.push_back(Table::num(G, 3) +
                    (Dnf ? " (" + std::to_string(Dnf) + " dnf)" : ""));
    }
  }
  Fig.addRow(Geo);
  Fig.print();
  std::printf("paper: 2CL beats 1CL except at very high failure rates; "
              "pmd/jython most sensitive near the two-page 50%% "
              "threshold\n");
  return 0;
}
