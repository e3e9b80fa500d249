//===- bench/fig04_overhead.cpp - Figure 4: per-benchmark overhead --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Figure 4: per-benchmark time of failure-aware Sticky Immix with
// two-page clustering (S-IX^PCM_2CL) at 0/10/25/50% failed lines, at 2x
// min heap, normalized to the unmodified S-IX collector. Headline
// expectations: ~1.00 at 0% (no overhead without failures), low single
// digits at 10%, ~12% at 50%; pmd and jython worst (medium-object
// heavy); the buggy lusearch shows its counter-intuitive improvement
// with rising failure rate and is excluded from the geomean.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

using namespace wearmem;

namespace {

const std::vector<double> Rates = {0.0, 0.10, 0.25, 0.50};

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  // Figure 4 includes the buggy lusearch alongside the analysis set.
  std::vector<const Profile *> Profiles = selectedProfiles();
  if (findProfile("lusearch") &&
      std::find(Profiles.begin(), Profiles.end(),
                findProfile("lusearch")) == Profiles.end())
    Profiles.push_back(findProfile("lusearch"));

  Series Base;
  std::map<double, Series> Pcm;
  for (const Profile *P : Profiles) {
    // Baseline: unmodified Sticky Immix on regular memory.
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    // Failure-aware with two-page clustering at each failure rate.
    for (double Rate : Rates) {
      RuntimeConfig Config = paperBaseConfig();
      Config.HeapBytes = heapBytesFor(*P, 2.0);
      Config.FailureRate = Rate;
      Config.ClusteringRegionPages = 2;
      Pcm[Rate].push_back(runPoint(*P, Config));
    }
  }

  Table Fig("Figure 4: S-IX^PCM_2CL time at 2x heap normalized to "
            "unmodified S-IX ('(buggy)' rows excluded from geomean)");
  Fig.setHeader({"benchmark", "f=0%", "f=10%", "f=25%", "f=50%"});
  for (size_t I = 0; I != Profiles.size(); ++I) {
    const Profile *P = Profiles[I];
    std::vector<std::string> Row;
    Row.push_back(P->Buggy ? std::string(P->Name) + " (buggy)"
                           : std::string(P->Name));
    for (double Rate : Rates)
      Row.push_back(Table::num(normalizedTime(Pcm.at(Rate)[I], Base[I]), 3));
    Fig.addRow(Row);
  }
  // Geomean over the analysis set only. This is a per-benchmark bar
  // figure, so aggregate over the completers and call out any
  // did-not-finish workloads instead of dropping the whole column.
  std::vector<std::string> Geo = {"geomean"};
  std::vector<std::string> Over = {"mean overhead %"};
  for (double Rate : Rates) {
    std::vector<double> Norms;
    size_t Dnf = 0;
    for (size_t I = 0; I != Profiles.size(); ++I) {
      if (Profiles[I]->Buggy)
        continue;
      double Norm = normalizedTime(Pcm.at(Rate)[I], Base[I]);
      if (std::isnan(Norm))
        ++Dnf;
      else
        Norms.push_back(Norm);
    }
    double G = Norms.empty() ? std::nan("") : geomean(Norms);
    std::string Suffix =
        Dnf ? " (" + std::to_string(Dnf) + " dnf)" : "";
    Geo.push_back(Table::num(G, 3) + Suffix);
    Over.push_back(Table::num((G - 1.0) * 100.0, 1) + Suffix);
  }
  Fig.addRow(Geo);
  Fig.addRow(Over);
  Fig.print();
  std::printf("paper: 0%% overhead at f=0; 3.9%% at f=10%%; 12.4%% at "
              "f=50%% (max 40%%, pmd)\n");
  return 0;
}
