//===- bench/abl01_wear_leveling.cpp - Wear leveling considered harmful ---===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Section 7.2 ablation. Two memories wear out under the same skewed
// write traffic until the same fraction of lines has failed: one with
// Start-Gap wear leveling (failures uniformly scattered), one without
// (failures concentrated in the hot region). With failure-aware software
// the *concentrated* maps should cost less - leveling maximizes
// fragmentation, which is the paper's "wear leveling considered harmful"
// claim.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

#include "pcm/WearSimulation.h"

using namespace wearmem;

namespace {

const std::vector<double> Targets = {0.10, 0.25};

std::shared_ptr<FailureMap> wearMap(bool Leveled, double Target) {
  WearSimConfig Config;
  Config.NumLines = 512 * PcmLinesPerPage; // A 2 MiB tile.
  Config.MeanLineLifetime = 300;
  Config.HotFraction = 0.10;
  Config.HotWeight = 0.9;
  Config.UseStartGap = Leveled;
  Config.GapInterval = 4;
  WearSimResult Result = simulateWear(Config, Target);
  return std::make_shared<FailureMap>(std::move(Result.Map));
}

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  std::vector<const Profile *> Profiles = selectedProfiles();
  // Pre-generate the four wear maps (shared across profiles).
  std::map<std::pair<bool, double>, std::shared_ptr<FailureMap>> Maps;
  for (bool Leveled : {false, true})
    for (double Target : Targets)
      Maps[{Leveled, Target}] = wearMap(Leveled, Target);

  Series Base;
  std::map<std::pair<bool, double>, Series> Runs;
  for (const Profile *P : Profiles) {
    Base.push_back(runPoint(*P, baselineConfig(*P, 2.0)));
    for (bool Leveled : {false, true}) {
      for (double Target : Targets) {
        std::shared_ptr<FailureMap> Map = Maps.at({Leveled, Target});
        RuntimeConfig Config = paperBaseConfig();
        Config.HeapBytes = heapBytesFor(*P, 2.0);
        Config.FailureRate = Map->failedFraction();
        Config.Pattern = FailurePattern::Custom;
        Config.CustomFailureMap = Map;
        Runs[{Leveled, Target}].push_back(runPoint(*P, Config));
      }
    }
  }

  Table Fig("Section 7.2 ablation: wear-leveled (uniform) vs unleveled "
            "(concentrated) failure maps at equal failed fractions "
            "(normalized to unmodified S-IX)");
  Fig.setHeader({"wear pattern", "f=10%", "f=25%", "mean working run"});
  for (bool Leveled : {false, true}) {
    std::vector<std::string> Row = {Leveled ? "leveled (Start-Gap)"
                                            : "concentrated"};
    for (double Target : Targets)
      Row.push_back(
          Table::num(geomeanVs(Runs.at({Leveled, Target}), Base), 3));
    Row.push_back(
        Table::num(Maps.at({Leveled, Targets[0]})->meanWorkingRun(), 1));
    Fig.addRow(Row);
  }
  Fig.print();
  std::printf("paper: leveling spreads failures uniformly and maximizes "
              "fragmentation; concentrated wear is cheaper for "
              "failure-aware software\n");
  return 0;
}
