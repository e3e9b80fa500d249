//===- support/CliArgs.cpp - Shared command-line parsing helpers ----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace wearmem;

bool cli::splitEqFlag(const char *Arg, const char *Name,
                      std::string &Value) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0)
    return false;
  if (Arg[Len] == '\0') {
    Value.clear();
    return true;
  }
  if (Arg[Len] != '=')
    return false;
  Value = Arg + Len + 1;
  return true;
}

bool cli::parseU64(const char *V, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(V, &End, 0);
  return *V != '\0' && End != V && *End == '\0' && errno == 0;
}

bool cli::parseDouble(const char *V, double &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtod(V, &End);
  return *V != '\0' && End != V && *End == '\0' && errno == 0;
}

bool cli::parseCollector(const std::string &Name, CollectorKind &Out) {
  if (Name == "ms")
    Out = CollectorKind::MarkSweep;
  else if (Name == "ix")
    Out = CollectorKind::Immix;
  else if (Name == "s-ms")
    Out = CollectorKind::StickyMarkSweep;
  else if (Name == "s-ix")
    Out = CollectorKind::StickyImmix;
  else
    return false;
  return true;
}

const char *cli::collectorFlagName(CollectorKind Kind) {
  switch (Kind) {
  case CollectorKind::MarkSweep:
    return "ms";
  case CollectorKind::Immix:
    return "ix";
  case CollectorKind::StickyMarkSweep:
    return "s-ms";
  case CollectorKind::StickyImmix:
    return "s-ix";
  }
  return "?";
}

const char *cli::collectorNameList() { return "ms, ix, s-ms, s-ix"; }

bool cli::consumeMarkFlag(int Argc, char **Argv, int &I, MarkFlags &Flags,
                          std::string &Err) {
  const char *Arg = Argv[I];
  auto SetPacing = [&Flags](MarkPacing P) {
    Flags.BothPacings |= Flags.anyMode() && Flags.Pacing != P;
    Flags.Pacing = P;
    return true;
  };
  if (std::strcmp(Arg, "--incremental-mark") == 0)
    return SetPacing(MarkPacing::Incremental);
  if (std::strcmp(Arg, "--concurrent-mark") == 0)
    return SetPacing(MarkPacing::Concurrent);
  std::string Value;
  if (splitEqFlag(Arg, "--mark-budget", Value)) {
    // "--mark-budget=N" carries the value; bare "--mark-budget N" takes
    // the next argument (both tools' styles accepted).
    if (Value.empty()) {
      if (I + 1 >= Argc) {
        Err = "--mark-budget requires a value";
        return true;
      }
      Value = Argv[++I];
    }
    uint64_t Budget = 0;
    if (!parseU64(Value.c_str(), Budget)) {
      Err = "bad --mark-budget value: " + Value;
      return true;
    }
    Flags.MarkBudget = Budget;
    Flags.MarkBudgetSet = true;
    return true;
  }
  return false;
}

const char *cli::validateMarkFlags(const MarkFlags &Flags,
                                   CollectorKind Collector) {
  if (Flags.BothPacings)
    return "--incremental-mark and --concurrent-mark are mutually "
           "exclusive (two pacings of the same cycle machinery)";
  if (Flags.anyMode() && !isImmix(Collector))
    return "--incremental-mark/--concurrent-mark require an Immix "
           "collector (ix or s-ix)";
  if (Flags.MarkBudgetSet && !Flags.anyMode())
    return "--mark-budget requires --incremental-mark or "
           "--concurrent-mark";
  return nullptr;
}
