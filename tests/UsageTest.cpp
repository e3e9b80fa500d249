//===- tests/UsageTest.cpp - Tool help/usage contract tests ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Executes the real wearmem_run / wearmem_soak / wearmem_serve tools and
// the seven gate binaries (paths injected at compile time) and pins
// their command-line contract:
//
//  - a tool's --help exits 0 and its flag table matches the declared
//    flag set exactly, both ways - a flag added to a parser without a
//    help line, or a help line for a flag the parser dropped, fails here;
//  - unknown options and malformed values exit 64 (cli::ExitUsage) with
//    a diagnostic that names the offending flag. For the gates that also
//    covers out-of-range --reps/--scale and a flag the gate does not
//    declare; all of them are rejected before any leg runs.
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

struct ToolResult {
  int ExitCode = -1;
  std::string Output; ///< stdout and stderr interleaved.
};

/// Runs a tool command line through the shell, capturing both streams.
ToolResult runTool(const std::string &CmdLine) {
  ToolResult R;
  FILE *Pipe = popen((CmdLine + " 2>&1").c_str(), "r");
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

/// Every distinct `--flag` token mentioned anywhere in Text.
std::set<std::string> flagsIn(const std::string &Text) {
  std::set<std::string> Flags;
  for (size_t I = 0; (I = Text.find("--", I)) != std::string::npos;) {
    size_t End = I + 2;
    while (End < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-'))
      ++End;
    if (End > I + 2)
      Flags.insert(Text.substr(I, End - I));
    I = End;
  }
  return Flags;
}

/// Asserts the help text's flag vocabulary equals Declared, reporting
/// the drift in both directions.
void expectFlagSetMatches(const std::string &Help,
                          const std::vector<std::string> &Declared) {
  std::set<std::string> InHelp = flagsIn(Help);
  std::set<std::string> Expected(Declared.begin(), Declared.end());
  for (const std::string &F : Expected)
    EXPECT_TRUE(InHelp.count(F)) << "declared flag missing from --help: "
                                 << F;
  for (const std::string &F : InHelp)
    EXPECT_TRUE(Expected.count(F))
        << "--help mentions an undeclared flag: " << F;
}

// The declared flag tables, mirroring the two parsers. A parser change
// that skips the matching usage() edit shows up as a set difference
// above; keep all three in sync.
const std::vector<std::string> RunFlags = {
    "--list",          "--profile",
    "--collector",     "--adversary",
    "--heap-factor",   "--heap-mb",
    "--failure-rate",  "--cluster",
    "--line",          "--no-compensate",
    "--arraylets",     "--dynamic-failures",
    "--incremental-mark", "--concurrent-mark",
    "--mark-budget",
    "--gc-threads",    "--mutator-threads",
    "--mutator-lanes", "--reps",
    "--seed",          "--trace",
    "--metrics-out",   "--snapshot-every",
    "--help"};

const std::vector<std::string> SoakFlags = {
    "--profile",         "--collector",
    "--adversary",       "--campaign",
    "--seed",            "--heap-factor",
    "--heap-mb",         "--failure-rate",
    "--clustering",      "--max-debt-pages",
    "--audit-every",     "--volume-scale",
    "--wear-sim",        "--crash-campaign",
    "--incremental-mark", "--concurrent-mark",
    "--mark-budget",
    "--gc-threads",      "--mutator-threads",
    "--mutator-lanes",   "--reps",
    "--jobs",            "--trace",
    "--metrics-out",     "--snapshot-every",
    "--lifetime",        "--lifetime-checkpoints",
    "--lifetime-years",  "--lifetime-base-lines",
    "--lifetime-growth", "--escalate",
    "--verify-determinism", "--with-timing",
    "--help"};

const std::vector<std::string> ServeFlags = {
    "--tenants",          "--profile",
    "--arrival-rate",     "--duration",
    "--queue-depth",      "--quota-policy",
    "--shard-order",      "--adversary-tenant",
    "--campaign",         "--lanes",
    "--collector",        "--gc-threads",
    "--failure-rate",     "--heap-factor",
    "--warmup-scale",     "--session-steps",
    "--window-pages",     "--backpressure-lines",
    "--seed",             "--json",
    "--with-timing",      "--verify-determinism",
    "--help"};

TEST(UsageTest, RunHelpExitsZeroAndMatchesDeclaredFlags) {
  ToolResult R = runTool(std::string(WEARMEM_RUN_BIN) + " --help");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("usage: wearmem_run"), std::string::npos);
  expectFlagSetMatches(R.Output, RunFlags);
}

TEST(UsageTest, SoakHelpExitsZeroAndMatchesDeclaredFlags) {
  ToolResult R = runTool(std::string(WEARMEM_SOAK_BIN) + " --help");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
  expectFlagSetMatches(R.Output, SoakFlags);
}

TEST(UsageTest, ServeHelpExitsZeroAndMatchesDeclaredFlags) {
  ToolResult R = runTool(std::string(WEARMEM_SERVE_BIN) + " --help");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("usage: wearmem_serve"), std::string::npos);
  expectFlagSetMatches(R.Output, ServeFlags);
}

/// Runs a command line that must be rejected as a usage error naming
/// \p MustMention.
void expectUsageError(const std::string &CmdLine, const char *MustMention) {
  ToolResult R = runTool(CmdLine);
  EXPECT_EQ(R.ExitCode, wearmem::cli::ExitUsage) << CmdLine << "\n"
                                                 << R.Output;
  EXPECT_NE(R.Output.find(MustMention), std::string::npos)
      << "diagnostic for '" << CmdLine << "' does not name " << MustMention
      << ":\n"
      << R.Output;
}

TEST(UsageTest, UnknownOptionExitsUsageNamingTheFlag) {
  for (const char *Bin : {WEARMEM_RUN_BIN, WEARMEM_SOAK_BIN, WEARMEM_SERVE_BIN})
    expectUsageError(std::string(Bin) + " --no-such-flag", "--no-such-flag");
}

TEST(UsageTest, MalformedValuesExitUsageNamingTheFlag) {
  struct Case {
    const char *Bin;
    const char *Args;
    const char *MustMention;
  };
  const Case Cases[] = {
      {WEARMEM_RUN_BIN, "--cluster=banana", "--cluster"},
      {WEARMEM_RUN_BIN, "--failure-rate=2", "--failure-rate"},
      {WEARMEM_RUN_BIN, "--line=100", "--line"},
      {WEARMEM_RUN_BIN, "--gc-threads=0", "--gc-threads"},
      {WEARMEM_RUN_BIN, "--incremental-mark --mark-budget=potato",
       "--mark-budget"},
      {WEARMEM_RUN_BIN, "--incremental-mark --collector=ms",
       "--incremental-mark"},
      {WEARMEM_RUN_BIN, "--concurrent-mark --collector=ms",
       "--concurrent-mark"},
      {WEARMEM_RUN_BIN, "--concurrent-mark --incremental-mark",
       "--concurrent-mark"},
      {WEARMEM_RUN_BIN, "--mark-budget=8", "--mark-budget"},
      {WEARMEM_SOAK_BIN, "--seed banana", "--seed"},
      {WEARMEM_SOAK_BIN, "--gc-threads 0", "--gc-threads"},
      {WEARMEM_SOAK_BIN, "--profile", "--profile"}, // Missing value.
      {WEARMEM_SOAK_BIN, "--mark-budget 8", "--mark-budget"},
      {WEARMEM_SOAK_BIN, "--incremental-mark --collector ms",
       "--incremental-mark"},
      {WEARMEM_SOAK_BIN, "--concurrent-mark --collector ms",
       "--concurrent-mark"},
      {WEARMEM_SOAK_BIN, "--concurrent-mark --incremental-mark",
       "--concurrent-mark"},
      {WEARMEM_SOAK_BIN, "--incremental-mark --lifetime",
       "--incremental-mark"},
      {WEARMEM_SOAK_BIN, "--concurrent-mark --crash-campaign 2",
       "--concurrent-mark"},
      {WEARMEM_SERVE_BIN, "--tenants=0", "--tenants"},
      {WEARMEM_SERVE_BIN, "--tenants=banana", "--tenants"},
      {WEARMEM_SERVE_BIN, "--arrival-rate=0", "--arrival-rate"},
      {WEARMEM_SERVE_BIN, "--arrival-rate=-3", "--arrival-rate"},
      {WEARMEM_SERVE_BIN, "--quota-policy=fair", "--quota-policy"},
      {WEARMEM_SERVE_BIN, "--shard-order=random", "--shard-order"},
      {WEARMEM_SERVE_BIN, "--tenants=2 --adversary-tenant=2",
       "--adversary-tenant"},
      {WEARMEM_SERVE_BIN, "--queue-depth=0", "--queue-depth"},
      {WEARMEM_SERVE_BIN, "--session-steps=0", "--session-steps"},
      {WEARMEM_SERVE_BIN, "--failure-rate=2", "--failure-rate"},
  };
  for (const Case &C : Cases)
    expectUsageError(std::string(C.Bin) + " " + C.Args, C.MustMention);
}

TEST(UsageTest, GatesRejectBadFlagsBeforeRunning) {
  struct Gate {
    const char *Bin;
    bool Scale; ///< Declares --scale.
    bool Timed; ///< Declares --reps and --no-timing-gate.
  };
  const Gate Gates[] = {
      {PERF01_BIN, false, false}, {PERF02_BIN, true, true},
      {PERF03_BIN, true, true},   {PERF04_BIN, true, true},
      {PERF05_BIN, true, true},   {ROB01_BIN, true, false},
      {SERVE01_BIN, true, true},
  };
  for (const Gate &G : Gates) {
    std::string Bin = std::string(G.Bin) + " ";
    expectUsageError(Bin + "--no-such-flag", "--no-such-flag");
    expectUsageError(Bin + "--seed banana", "--seed");
    expectUsageError(Bin + "--seed -1", "--seed");
    expectUsageError(Bin + "--out", "--out"); // Missing value.
    if (G.Scale) {
      expectUsageError(Bin + "--scale abc", "--scale");
      expectUsageError(Bin + "--scale 0", "--scale");
    } else {
      expectUsageError(Bin + "--scale 1", "--scale");
    }
    if (G.Timed) {
      expectUsageError(Bin + "--reps 0", "--reps");
      expectUsageError(Bin + "--reps -1", "--reps");
    } else {
      expectUsageError(Bin + "--reps 1", "--reps");
      expectUsageError(Bin + "--no-timing-gate", "--no-timing-gate");
    }
  }
}

TEST(UsageTest, UnopenableGateOutputExitsOne) {
  // Exit 1 is reserved for "cannot open --out"; gate verdicts exit 2 and
  // up, so CI can tell a broken path from a failed check.
  ToolResult R = runTool(std::string(PERF01_BIN) +
                         " --out /nonexistent/dir/x.json");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("cannot open"), std::string::npos) << R.Output;
}

TEST(UsageTest, ListExitsZero) {
  ToolResult R = runTool(std::string(WEARMEM_RUN_BIN) + " --list");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("pmd"), std::string::npos);
}

} // namespace
