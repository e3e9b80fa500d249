//===- support/CliArgs.h - Shared command-line parsing helpers --*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag-parsing primitives both command-line tools share:
/// strict numeric parsing (the whole token must parse; trailing junk,
/// overflow, and empty values are errors, never silently clamped),
/// "--name=value" splitting, and collector-name parsing. Validation
/// failures exit with BSD sysexits EX_USAGE (64) in every tool, so CI
/// can tell a usage error from a runtime verdict.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SUPPORT_CLIARGS_H
#define WEARMEM_SUPPORT_CLIARGS_H

#include "heap/HeapConfig.h"

#include <cstdint>
#include <string>

namespace wearmem {
namespace cli {

/// BSD sysexits EX_USAGE: bad flags or malformed values.
constexpr int ExitUsage = 64;

/// Matches "--name" or "--name=value" style arguments. Returns true when
/// \p Arg is exactly \p Name (Value cleared) or starts with "Name=" (the
/// remainder lands in \p Value).
bool splitEqFlag(const char *Arg, const char *Name, std::string &Value);

/// Strict strtoull: the entire token must be a valid number.
bool parseU64(const char *V, uint64_t &Out);

/// Strict strtod: the entire token must be a valid number.
bool parseDouble(const char *V, double &Out);

/// Parses a collector short name: "ms", "ix", "s-ms", "s-ix".
bool parseCollector(const std::string &Name, CollectorKind &Out);

/// \name Marking-mode flags
/// The --incremental-mark / --concurrent-mark / --mark-budget triple
/// both tools share: one consume-style parser that accepts either flag
/// style ("--mark-budget=512" and "--mark-budget 512"), and one
/// validator for the combination rules. Tools print the returned error
/// and exit ExitUsage.
/// @{

struct MarkFlags {
  MarkPacing Pacing = MarkPacing::StopTheWorld;
  /// Both pacing flags were given; validateMarkFlags rejects it.
  bool BothPacings = false;
  uint64_t MarkBudget = 0;
  bool MarkBudgetSet = false;
  /// True when any marking mode is requested.
  bool anyMode() const { return Pacing != MarkPacing::StopTheWorld; }
};

/// Attempts to consume the mark-related flag at Argv[I]. Returns true
/// when the argument was one of the marking flags (advancing \p I past
/// any consumed value); malformed values land in \p Err (non-empty =
/// print + exit ExitUsage). Returns false for unrelated arguments.
bool consumeMarkFlag(int Argc, char **Argv, int &I, MarkFlags &Flags,
                     std::string &Err);

/// Validates the flag combination against the chosen collector. Returns
/// nullptr when valid, else a static error message: both modes at once,
/// a marking mode on a non-Immix collector, or a budget without a mode.
const char *validateMarkFlags(const MarkFlags &Flags,
                              CollectorKind Collector);

/// @}

/// The short flag name for a collector (inverse of parseCollector).
const char *collectorFlagName(CollectorKind Kind);

/// Comma-separated collector names for usage messages.
const char *collectorNameList();

} // namespace cli
} // namespace wearmem

#endif // WEARMEM_SUPPORT_CLIARGS_H
