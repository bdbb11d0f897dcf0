//===- bench/BenchCommon.h - Shared bench-harness helpers ------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure bench binaries: uniform
/// CLI parsing (--jobs/--seed/--refs — every bench binary accepts the
/// same flags), the standard scale (overridable via --refs or
/// MDABT_REFS for quick runs), the pure-interpreter oracle, and
/// uniform printing.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_BENCH_BENCHCOMMON_H
#define MDABT_BENCH_BENCHCOMMON_H

#include "dbt/Engine.h"
#include "guest/Interpreter.h"
#include "reporting/Experiment.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mdabt {
namespace bench {

/// CLI options shared by every bench binary.
struct Options {
  /// Worker threads for the experiment matrix; 0 = hardware
  /// concurrency.  Results are bit-identical for every value.
  unsigned Jobs = 0;
  /// Base seed for randomized campaigns (chaos_soak).
  uint64_t Seed = 0xC0FFEE;
  /// Per-run memory-reference target; 0 = default (MDABT_REFS or the
  /// standard 1.5M).
  uint64_t Refs = 0;
  /// Enable the static alignment analysis (EngineConfig::Analysis) for
  /// every engine run the bench performs.
  bool Analysis = false;
  /// Enable hybrid static AOT pre-translation (EngineConfig::Aot =
  /// AotMode::Hybrid) for every engine run the bench performs.
  bool Aot = false;
};

/// Parse all of \p Text as an unsigned number in \p Base (0 also takes
/// 0x/0 prefixes).  False on an empty string, a sign, trailing
/// characters or overflow.
inline bool parseUnsigned(const char *Text, int Base, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, Base);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = V;
  return true;
}

/// Parse the shared flags (--jobs N, --seed S, --refs R, --analysis,
/// --aot; value flags accept both "--flag N" and "--flag=N").
/// Recognized flags are removed from argv so binaries with their own
/// flags can layer on top.  Unknown arguments are left in place.  Exits
/// with a usage message on a malformed value.
inline Options parseArgs(int &Argc, char **Argv) {
  Options Opt;
  auto Fail = [&](const char *Flag) {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--seed S] [--refs R] [--analysis] "
                 "[--aot]\n"
                 "error: bad value for %s\n",
                 Argv[0], Flag);
    std::exit(2);
  };
  auto TakeValue = [&](const char *Flag, int &I,
                       const char *&Value) -> bool {
    size_t Len = std::strlen(Flag);
    if (std::strncmp(Argv[I], Flag, Len) != 0)
      return false;
    if (Argv[I][Len] == '=') {
      Value = Argv[I] + Len + 1;
      return true;
    }
    if (Argv[I][Len] == '\0') {
      if (I + 1 >= Argc)
        Fail(Flag);
      Value = Argv[++I];
      return true;
    }
    return false;
  };
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    uint64_t V = 0;
    if (TakeValue("--jobs", I, Value)) {
      if (!parseUnsigned(Value, 10, V) || V > 4096)
        Fail("--jobs");
      Opt.Jobs = static_cast<unsigned>(V);
    } else if (TakeValue("--seed", I, Value)) {
      if (!parseUnsigned(Value, 0, Opt.Seed))
        Fail("--seed");
    } else if (TakeValue("--refs", I, Value)) {
      if (!parseUnsigned(Value, 10, V) || V <= 10000)
        Fail("--refs");
      Opt.Refs = V;
    } else if (std::strcmp(Argv[I], "--analysis") == 0) {
      Opt.Analysis = true;
    } else if (std::strcmp(Argv[I], "--aot") == 0) {
      Opt.Aot = true;
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
  Argv[Argc] = nullptr;
  return Opt;
}

/// The scale every experiment uses.  --refs wins over the MDABT_REFS
/// environment override (e.g. MDABT_REFS=200000 for a smoke pass).
inline workloads::ScaleConfig stdScale(const Options &Opt = Options()) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 1'500'000;
  if (const char *Env = std::getenv("MDABT_REFS")) {
    long long V = std::atoll(Env);
    if (V > 10000)
      Scale.TotalRefs = static_cast<uint64_t>(V);
  }
  if (Opt.Refs != 0)
    Scale.TotalRefs = Opt.Refs;
  return Scale;
}

/// Standard bench banner.
inline void banner(const char *Title, const char *PaperShape) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", Title);
  std::printf("Paper-expected shape: %s\n", PaperShape);
  std::printf("==============================================================="
              "=================\n");
}

/// Observable final state of a pure-interpreter run: the ground truth
/// engine runs are checked against.  The interpreter decodes fresh
/// guest bytes for every instruction, so it is also the
/// self-modifying-code oracle.
struct InterpOracle {
  uint32_t Gpr[guest::NumGPR] = {};
  uint64_t Checksum = 0;
  uint64_t MemoryHash = 0;
};

/// Interpret \p Image to completion; a run that does not halt is fatal.
inline InterpOracle interpretOracle(const guest::GuestImage &Image) {
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  guest::GuestCPU Cpu;
  Cpu.reset(Image);
  guest::Interpreter Interp(Mem);
  Interp.run(Cpu, 500'000'000ULL);
  if (!Cpu.Halted) {
    std::fprintf(stderr, "error: oracle run of %s did not halt\n",
                 Image.Name.c_str());
    std::exit(1);
  }
  InterpOracle O;
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    O.Gpr[I] = Cpu.Gpr[I];
  O.Checksum = Cpu.Checksum;
  O.MemoryHash = dbt::fnv1a(Mem.data(), Mem.size());
  return O;
}

/// Print the table; when MDABT_CSV names a directory, also write
/// <dir>/<Name>.csv so plots can be regenerated from the raw data.
inline void printTable(const TablePrinter &T, const char *Name = nullptr) {
  std::fputs(T.toText().c_str(), stdout);
  std::printf("\n");
  const char *Dir = std::getenv("MDABT_CSV");
  if (!Dir || !Name)
    return;
  std::string Path = std::string(Dir) + "/" + Name + ".csv";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::string Csv = T.toCsv();
    std::fwrite(Csv.data(), 1, Csv.size(), F);
    std::fclose(F);
    std::printf("(csv written to %s)\n\n", Path.c_str());
  }
}

} // namespace bench
} // namespace mdabt

#endif // MDABT_BENCH_BENCHCOMMON_H
