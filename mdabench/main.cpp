//===- mdabench/main.cpp - The MDABT benchmark ----------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sets up one seeded workload several times, then runs timed passes
/// over it in a closed loop of worker threads and prints every metric
/// by name with its unit (README.md).  The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
///   mdabench --workload W --seed N --seconds S --trace 0|1
///            [--out DIR] [--git-sha SHA]
///   mdabench --selftest [--out DIR]
///
/// --trace 0 measures untraced and reports the end-to-end metrics.
/// --trace 1 alternates untraced and traced passes and reports the
/// per-layer metrics: modeled counters, wall-clock spans recorded around
/// each call into a library layer, and the tracing overhead.  Every run is checked against the interpreter oracle
/// computed in set-up, and every repeat of a cell must reproduce the
/// first one's modeled behaviour bit for bit.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "dbt/TranslationService.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace mdabench;

namespace {

struct Options {
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Closed-loop clients: one per hardware thread.
  unsigned Workers = std::max(1u, std::thread::hardware_concurrency());
  std::string OutDir = ".bench_build/out";
  std::string GitSha = "unknown";
  bool SelfTest = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: mdabench --workload paper_matrix|serving|verified_aot "
               "--seed N --seconds S --trace 0|1\n"
               "                [--out DIR] [--git-sha SHA]\n"
               "       mdabench --selftest [--out DIR]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options Opt;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--selftest") {
      Opt.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opt.WorkloadName = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Opt.Seed = std::strtoull(V, &End, 0);
      HaveSeed = *End == '\0';
      if (!HaveSeed)
        usage("bad --seed");
    } else if (A == "--seconds") {
      Opt.Seconds = std::strtod(V, &End);
      if (*End || !(Opt.Seconds > 0.0) || Opt.Seconds > 3600.0)
        usage("bad --seconds");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      Opt.Trace = V[0] == '1';
    } else if (A == "--out") {
      Opt.OutDir = V;
    } else if (A == "--git-sha") {
      Opt.GitSha = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!Opt.SelfTest) {
    if (!HaveWorkload || !HaveSeed)
      usage("--workload and --seed are required");
    const std::vector<std::string> &Names = workloadNames();
    if (std::find(Names.begin(), Names.end(), Opt.WorkloadName) ==
        Names.end())
      usage(("unknown workload " + Opt.WorkloadName).c_str());
  }
  return Opt;
}

// -- statistics --------------------------------------------------------------

/// Quantile \p Q of \p V with linear interpolation between order
/// statistics (0 for an empty sample).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratio(double A, double B) { return B > 0.0 ? A / B : 0.0; }

/// Shortest round-trip decimal form of \p V (non-finite values become 0:
/// JSON has no NaN).
std::string num(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec;
  return std::string(Buf, End);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

// -- provenance ----------------------------------------------------------------

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  for (unsigned I = 0; I != 3; ++I)
    if (!__get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                     &Regs[4 * I + 2], &Regs[4 * I + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S = Brand;
  size_t B = S.find_first_not_of(' ');
  return B == std::string::npos ? "unknown" : S.substr(B);
#else
  return "unknown";
#endif
}

double peakRssMiB() {
  struct rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// -- timed passes ----------------------------------------------------------------

/// One completed run of a phase.
struct Sample {
  size_t Cell = 0;
  size_t Pass = 0;
  bool Traced = false;
  RunOutcome Out;
};

/// Everything one timed phase produced (or the traced or untraced part
/// of it, see subset()).
struct Phase {
  double WallS = 0.0;
  size_t Passes = 0;
  std::vector<Sample> Runs;
  /// Per cell: modeled counters and signature of its first run.
  std::vector<std::optional<RunCounters>> First;
  std::vector<uint64_t> FirstSig;
  uint64_t Failed = 0;
  uint64_t Nondeterministic = 0;
  std::vector<double> ReloadMs; ///< serving: one per pass

  std::vector<double> latencies() const {
    std::vector<double> L;
    for (const Sample &S : Runs)
      L.push_back(S.Out.LatencyMs);
    return L;
  }
};

/// The runs of \p All that were (\p Traced) or were not traced.
Phase subset(const Phase &All, bool Traced) {
  Phase P = All;
  P.Runs.clear();
  P.Failed = 0;
  std::vector<bool> PassSeen(All.Passes, false);
  P.Passes = 0;
  for (const Sample &S : All.Runs) {
    if (S.Traced != Traced)
      continue;
    P.Runs.push_back(S);
    P.Failed += S.Out.Ok ? 0 : 1;
    if (!PassSeen[S.Pass]) {
      PassSeen[S.Pass] = true;
      ++P.Passes;
    }
  }
  return P;
}

/// Runs the timed phase of one workload.  Workers take run indices
/// (cell = index mod cells) so that the runs form whole passes: a new
/// pass starts only before the deadline and within the pass limit, and
/// the first pass always runs.  With a trace recorder, odd passes are
/// traced and even ones not, so tracing overhead is measured against
/// untraced runs interleaved with it in time (at least two passes run).
/// For `serving`, each pass gets its own service loaded from the set-up
/// artifact when its first run is handed out, so warm tenants hit and
/// first-seen tenants miss in every pass alike, with no barrier between
/// passes.
class PhaseRunner {
public:
  PhaseRunner(const Workload &W, unsigned Workers, SpanRecorder *TraceRec)
      : W(W), Workers(Workers), TraceRec(TraceRec),
        ProbeCell(W.Cells.size(), false) {
    // Probe each program once: on the first cell that runs it.
    std::vector<const Program *> Seen;
    for (size_t C = 0; C != W.Cells.size(); ++C)
      if (std::find(Seen.begin(), Seen.end(), W.Cells[C].Prog) == Seen.end()) {
        Seen.push_back(W.Cells[C].Prog);
        ProbeCell[C] = true;
      }
  }

  /// Run whole passes until \p Seconds have elapsed (at least one pass,
  /// at most \p MaxPasses).
  Phase run(double Seconds, size_t MaxPasses) {
    P = Phase();
    P.First.assign(W.Cells.size(), std::nullopt);
    P.FirstSig.assign(W.Cells.size(), 0);
    Next = 0;
    Done = false;
    Limit = std::max<size_t>(MaxPasses, MinPasses());
    auto T0 = Clock::now();
    Deadline = T0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Seconds));
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != Workers; ++T)
      Threads.emplace_back([this] { work(); });
    for (std::thread &T : Threads)
      T.join();
    P.WallS = std::chrono::duration<double>(Clock::now() - T0).count();
    P.Passes = P.Runs.size() / W.Cells.size();
    PassService.reset();
    return P;
  }

private:
  struct Ticket {
    size_t Index = 0;
    std::shared_ptr<dbt::TranslationService> Service;
  };

  std::optional<Ticket> take() {
    std::lock_guard<std::mutex> Lock(M);
    size_t Cells = W.Cells.size();
    if (Done)
      return std::nullopt;
    if (Next % Cells == 0) {
      size_t Pass = Next / Cells;
      if (Pass >= MinPasses() && (Clock::now() >= Deadline || Pass >= Limit)) {
        Done = true;
        return std::nullopt;
      }
      if (W.Serving)
        PassService = loadService(Pass);
    }
    return Ticket{Next++, PassService};
  }

  std::shared_ptr<dbt::TranslationService> loadService(size_t Pass) {
    auto Service = std::make_shared<dbt::TranslationService>();
    auto L0 = Clock::now();
    Span S(recorderFor(Pass), "service.load", passSpanId(Pass));
    std::string Err;
    if (!Service->load(W.ArtifactPath, nullptr, &Err)) {
      std::fprintf(stderr, "mdabench: reload failed: %s\n", Err.c_str());
      std::exit(1);
    }
    P.ReloadMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - L0).count());
    return Service;
  }

  size_t MinPasses() const { return TraceRec ? 2 : 1; }
  SpanRecorder *recorderFor(size_t Pass) const {
    return Pass % 2 == 1 ? TraceRec : nullptr;
  }

  void work() {
    while (std::optional<Ticket> T = take()) {
      size_t Cell = T->Index % W.Cells.size();
      size_t Pass = T->Index / W.Cells.size();
      SpanRecorder *Rec = recorderFor(Pass);
      bool Probe = Rec && Pass == 1 && ProbeCell[Cell];
      RunOutcome O =
          runCell(W, W.Cells[Cell], T->Service.get(), Rec, T->Index, Probe);
      T.reset(); // the last run of a pass frees its service
      record(Cell, Pass, Rec != nullptr, std::move(O));
    }
  }

  void record(size_t Cell, size_t Pass, bool Traced, RunOutcome O) {
    std::lock_guard<std::mutex> Lock(M);
    if (!O.Ok) {
      ++P.Failed;
      std::fprintf(stderr, "mdabench: FAIL %s diverged from its oracle (%s)\n",
                   W.Cells[Cell].Label.c_str(), dbt::runErrorName(O.Error));
    }
    if (!P.First[Cell]) {
      P.First[Cell] = O.Counters;
      P.FirstSig[Cell] = O.Signature;
    } else if (P.FirstSig[Cell] != O.Signature) {
      ++P.Nondeterministic;
      std::fprintf(stderr,
                   "mdabench: FAIL %s repeated with different modeled "
                   "behaviour\n",
                   W.Cells[Cell].Label.c_str());
    }
    O.Counters.Values.clear(); // the first run's counters suffice
    P.Runs.push_back({Cell, Pass, Traced, std::move(O)});
  }

  const Workload &W;
  const unsigned Workers;
  SpanRecorder *const TraceRec;
  std::vector<bool> ProbeCell;
  std::mutex M; ///< guards everything below while a phase runs
  Phase P;
  size_t Next = 0;
  bool Done = false;
  size_t Limit = 0;
  Clock::time_point Deadline;
  std::shared_ptr<dbt::TranslationService> PassService;
};

// -- metrics -----------------------------------------------------------------------

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

/// Per-cell modeled counters summed over one pass.
struct PassTotals {
  double Cycles = 0.0;
  double GuestInsts = 0.0;
  double CodeKiB = 0.0; ///< mean code-cache size per cell
  std::map<std::string, double> C;
  double LogCpiSum = 0.0;
  size_t Cells = 0;

  explicit PassTotals(const Phase &P) {
    const std::vector<std::string> &Names = counterNames();
    for (const std::optional<RunCounters> &F : P.First) {
      if (!F)
        continue;
      ++Cells;
      Cycles += static_cast<double>(F->Cycles);
      GuestInsts += static_cast<double>(F->GuestInsts);
      LogCpiSum += std::log(ratio(static_cast<double>(F->Cycles),
                                  static_cast<double>(F->GuestInsts)));
      for (size_t I = 0; I != Names.size(); ++I)
        C[Names[I]] += static_cast<double>(F->Values[I]);
    }
    CodeKiB = ratio(C["dbt.code_words"] * 4.0 / 1024.0,
                    static_cast<double>(Cells));
  }
  double geomeanCpi() const {
    return Cells ? std::exp(LogCpiSum / static_cast<double>(Cells)) : 0.0;
  }
  double operator[](const char *Name) const {
    auto It = C.find(Name);
    return It == C.end() ? 0.0 : It->second;
  }
};

double guestInstsRetired(const Phase &P, const Workload &W) {
  double N = 0.0;
  for (const Sample &S : P.Runs)
    N += static_cast<double>(W.Cells[S.Cell].Prog->Expected.Insts);
  return N;
}

std::vector<Metric> endToEndMetrics(const Phase &U, const Workload &W,
                                    const std::vector<double> &SetupS) {
  std::vector<double> L = U.latencies();
  return {
      {"setup_s", "s", quantile(SetupS, 0.5)},
      {"run_p50_ms", "ms", quantile(L, 0.5)},
      {"run_p90_ms", "ms", quantile(L, 0.9)},
      {"guest_mips", "Minst/s", guestInstsRetired(U, W) / U.WallS / 1e6},
      {"modeled_cpi", "cycles/inst", PassTotals(U).geomeanCpi()},
      {"peak_rss_mib", "MiB", peakRssMiB()},
  };
}

/// Mean of a per-run field over a phase.
template <typename F> double meanOver(const Phase &P, F Field) {
  double S = 0.0;
  for (const Sample &X : P.Runs)
    S += Field(X.Out);
  return ratio(S, static_cast<double>(P.Runs.size()));
}

/// Tracing overhead in percent: the median over cells of each cell's
/// traced / untraced median latency.  Pairing by cell keeps the mix of
/// fast and slow cells out of the comparison.
double traceOverheadPct(const Phase &U, const Phase &T, size_t Cells) {
  std::vector<std::vector<double>> ByCellU(Cells), ByCellT(Cells);
  for (const Sample &S : U.Runs)
    ByCellU[S.Cell].push_back(S.Out.LatencyMs);
  for (const Sample &S : T.Runs)
    ByCellT[S.Cell].push_back(S.Out.LatencyMs);
  std::vector<double> Ratios;
  for (size_t C = 0; C != Cells; ++C)
    if (!ByCellU[C].empty() && !ByCellT[C].empty())
      Ratios.push_back(
          ratio(quantile(ByCellT[C], 0.5), quantile(ByCellU[C], 0.5)));
  return (quantile(Ratios, 0.5) - 1.0) * 100.0;
}

double meanSpanMs(const SpanRecorder &Rec, const char *Name) {
  return ratio(Rec.totalMs(Name), static_cast<double>(Rec.count(Name)));
}

std::vector<Metric>
perLayerMetrics(const Phase &All, const Workload &W, unsigned Workers,
                const SpanRecorder &TraceRec,
                const std::vector<std::unique_ptr<SpanRecorder>> &SetupRecs,
                const std::vector<double> &SaveMs,
                const std::vector<double> &LoadMs) {
  Phase U = subset(All, false), T = subset(All, true);
  PassTotals X(All);
  double G = X.GuestInsts, Cyc = X.Cycles, Host = X["host.insts"];
  double Lookups = X["dispatch.table_hits"] + X["dispatch.table_misses"];

  std::vector<double> BuildMs;
  double OracleMs = 0.0;
  for (const std::unique_ptr<SpanRecorder> &R : SetupRecs) {
    BuildMs.push_back(R->totalMs("workloads.build"));
    OracleMs += R->totalMs("guest.oracle");
  }
  double OracleInsts = 0.0;
  for (const Program &P : W.Programs)
    OracleInsts += static_cast<double>(P.Expected.Insts);
  OracleInsts *= static_cast<double>(SetupRecs.size());

  double EngineNs = 0.0, EngineHost = 0.0;
  size_t HostIdx = static_cast<size_t>(
      std::find(counterNames().begin(), counterNames().end(), "host.insts") -
      counterNames().begin());
  for (const Sample &S : T.Runs) {
    EngineNs += S.Out.EngineMs * 1e6;
    EngineHost += static_cast<double>(T.First[S.Cell]->Values[HostIdx]);
  }

  double Busy = 0.0;
  for (const Sample &S : All.Runs)
    Busy += S.Out.LatencyMs;

  return {
      {"failed_share", "fraction",
       ratio(static_cast<double>(All.Failed),
             static_cast<double>(All.Runs.size()))},
      {"workloads.build_ms", "ms", quantile(BuildMs, 0.5)},
      {"guest.oracle_ns_per_inst", "ns/inst",
       ratio(OracleMs * 1e6, OracleInsts)},
      {"guest.interp_share", "fraction", ratio(X["interp.insts"], G)},
      {"mda.make_policy_ms", "ms",
       meanOver(T, [](const RunOutcome &O) { return O.PolicyMs; })},
      {"mda.traps_per_minst", "1/Minst",
       ratio(X["dbt.fault_traps"] * 1e6, G)},
      {"mda.patches_per_trap", "patches/trap",
       ratio(X["dbt.patches"], X["dbt.fault_traps"])},
      {"analysis.alignment_ms", "ms",
       meanSpanMs(TraceRec, "analysis.alignment")},
      {"analysis.cfg_ms", "ms", meanSpanMs(TraceRec, "analysis.cfg")},
      {"analysis.verify_words_per_inst", "words/inst",
       ratio(X["verify.words"], G)},
      {"dbt.engine_run_ms", "ms",
       meanOver(T, [](const RunOutcome &O) { return O.EngineMs; })},
      {"dbt.engine_ns_per_host_inst", "ns/inst", ratio(EngineNs, EngineHost)},
      {"dbt.digest_ms", "ms", meanSpanMs(TraceRec, "dbt.digest")},
      {"dbt.native_share", "fraction", ratio(X["cycles.native"], Cyc)},
      {"dbt.interp_share", "fraction", ratio(X["cycles.interp"], Cyc)},
      {"dbt.translate_share", "fraction", ratio(X["cycles.translate"], Cyc)},
      {"dbt.monitor_share", "fraction", ratio(X["cycles.monitor"], Cyc)},
      {"dbt.chain_share", "fraction", ratio(X["cycles.chain"], Cyc)},
      {"dbt.traps_share", "fraction", ratio(X["cycles.traps"], Cyc)},
      {"dbt.aot_startup_share", "fraction",
       ratio(X["aot.startup_cycles"], Cyc)},
      {"dbt.table_hit_rate", "fraction",
       ratio(X["dispatch.table_hits"], Lookups)},
      {"dbt.table_probes_per_lookup", "probes/lookup",
       ratio(X["dispatch.table_probes"], Lookups)},
      {"dbt.ic_misses_per_kinst", "1/kinst",
       ratio(X["dispatch.ic_misses"] * 1e3, G)},
      {"dbt.trace_formed", "count", X["trace.formed"]},
      {"dbt.trace_deopts", "count", X["trace.deopts"]},
      {"dbt.smc_invalidations", "count", X["smc.invalidations"]},
      {"dbt.fusion_saved_words", "words", X["fusion.saved_words"]},
      {"dbt.code_kib", "KiB", X.CodeKiB},
      {"host.insts_per_guest_inst", "inst/inst", ratio(Host, G)},
      {"host.l1d_miss_per_kinst", "1/kinst",
       ratio(X["host.l1d_misses"] * 1e3, Host)},
      {"host.l2_miss_per_kinst", "1/kinst",
       ratio(X["host.l2_misses"] * 1e3, Host)},
      {"service.hit_rate", "fraction",
       ratio(X["cache.hits"], X["cache.hits"] + X["cache.misses"])},
      {"service.save_ms", "ms", quantile(SaveMs, 0.5)},
      {"service.load_ms", "ms", quantile(LoadMs, 0.5)},
      {"service.footprint_kib", "KiB",
       static_cast<double>(W.FootprintBytes) / 1024.0},
      {"support.pool_efficiency", "fraction",
       ratio(Busy, static_cast<double>(Workers) * All.WallS * 1e3)},
      {"bench.trace_overhead_pct", "%",
       traceOverheadPct(U, T, W.Cells.size())},
  };
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           num(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  return Out + "}";
}

// -- the benchmark proper ------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 9;

std::unique_ptr<Workload> setUpOrDie(const Options &Opt, SpanRecorder *Rec,
                                     unsigned Setup) {
  std::string Err;
  std::unique_ptr<Workload> W =
      setUpWorkload(Opt.WorkloadName, Opt.Seed, Opt.Workers, Opt.OutDir, Rec,
                    setupSpanId(Setup), Err);
  if (!W) {
    std::fprintf(stderr, "mdabench: set-up failed: %s\n", Err.c_str());
    std::exit(1);
  }
  return W;
}

const char *roleName(Role R) {
  switch (R) {
  case Role::Matrix:
    return "matrix";
  case Role::Warm:
    return "warm";
  case Role::FirstSeen:
    return "first-seen";
  case Role::Hostile:
    return "hostile";
  }
  return "?";
}

void printLatency(const char *What, const Phase &P, const Workload &W,
                  unsigned Workers) {
  std::vector<double> L = P.latencies();
  std::printf("%-9s runs %zu in %zu passes, %.2f s on %u workers; run ms "
              "q1 %.3f p50 %.3f q3 %.3f p90 %.3f max %.3f\n",
              What, P.Runs.size(), P.Passes, P.WallS, Workers,
              quantile(L, 0.25), quantile(L, 0.5), quantile(L, 0.75),
              quantile(L, 0.9), quantile(L, 1.0));
  std::map<Role, std::vector<double>> ByRole;
  for (const Sample &S : P.Runs)
    ByRole[W.Cells[S.Cell].Kind].push_back(S.Out.LatencyMs);
  for (const auto &[R, V] : ByRole)
    std::printf("  %-10s runs %6zu  run ms p50 %9.3f p90 %9.3f\n",
                roleName(R), V.size(), quantile(V, 0.5), quantile(V, 0.9));
}

/// Median run latency of each pass, as a JSON array.
std::string passMedians(const Phase &P) {
  std::map<size_t, std::vector<double>> ByPass;
  for (const Sample &S : P.Runs)
    ByPass[S.Pass].push_back(S.Out.LatencyMs);
  std::string Out = "[";
  for (const auto &[Pass, L] : ByPass)
    Out += (Out.size() > 1 ? ", " : "") + num(quantile(L, 0.5));
  return Out + "]";
}

/// Per-cell run count and latency quartiles, as a JSON array.
std::string cellTable(const Phase &P, const Workload &W) {
  std::vector<std::vector<double>> ByCell(W.Cells.size());
  for (const Sample &S : P.Runs)
    ByCell[S.Cell].push_back(S.Out.LatencyMs);
  std::string Out = "[";
  for (size_t C = 0; C != W.Cells.size(); ++C)
    Out += std::string(C ? ",\n " : "") + "{\"cell\": " +
           jsonString(W.Cells[C].Label) + ", \"role\": " +
           jsonString(roleName(W.Cells[C].Kind)) +
           ", \"runs\": " + std::to_string(ByCell[C].size()) +
           ", \"q1_ms\": " + num(quantile(ByCell[C], 0.25)) +
           ", \"p50_ms\": " + num(quantile(ByCell[C], 0.5)) +
           ", \"q3_ms\": " + num(quantile(ByCell[C], 0.75)) + "}";
  return Out + "]";
}

int runBenchmark(const Options &Opt) {
  std::error_code Ec;
  std::filesystem::create_directories(Opt.OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "mdabench: cannot create %s\n", Opt.OutDir.c_str());
    return 1;
  }

  // Set up several times; the last set-up serves the timed phases.
  std::vector<double> SetupS, SaveMs, LoadMs;
  std::vector<std::unique_ptr<SpanRecorder>> SetupRecs;
  std::unique_ptr<Workload> W;
  for (unsigned S = 0; S != SetupRepeats; ++S) {
    SpanRecorder *Rec = nullptr;
    if (Opt.Trace)
      Rec = SetupRecs.emplace_back(std::make_unique<SpanRecorder>()).get();
    W.reset();
    auto T0 = Clock::now();
    W = setUpOrDie(Opt, Rec, S);
    SetupS.push_back(std::chrono::duration<double>(Clock::now() - T0).count());
    if (W->Serving) {
      SaveMs.push_back(W->SaveMs);
      LoadMs.push_back(W->LoadMs);
    }
  }

  std::string Provenance =
      "{\"workload\": " + jsonString(Opt.WorkloadName) +
      ", \"seed\": " + std::to_string(Opt.Seed) +
      ", \"workers\": " + std::to_string(Opt.Workers) +
      ", \"setups\": " + std::to_string(SetupRepeats) +
      ", \"seconds\": " + num(Opt.Seconds) +
      ", \"trace\": " + (Opt.Trace ? "1" : "0") +
      ", \"cells_per_pass\": " + std::to_string(W->Cells.size()) +
      ", \"build_type\": " + jsonString(MDABENCH_BUILD_TYPE) +
      ", \"compiler\": " + jsonString(MDABENCH_COMPILER) +
      ", \"cpu\": " + jsonString(cpuModel()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"git_sha\": " + jsonString(Opt.GitSha) + "}";
  std::printf("provenance: %s\n", Provenance.c_str());
  std::printf("set-up    %u times, s: q1 %.4f median %.4f q3 %.4f\n",
              SetupRepeats, quantile(SetupS, 0.25), quantile(SetupS, 0.5),
              quantile(SetupS, 0.75));

  SpanRecorder TraceRec;
  Phase All = PhaseRunner(*W, Opt.Workers, Opt.Trace ? &TraceRec : nullptr)
                  .run(Opt.Seconds, SIZE_MAX);
  Phase U = subset(All, false);
  printLatency("untraced", U, *W, Opt.Workers);
  LoadMs.insert(LoadMs.end(), All.ReloadMs.begin(), All.ReloadMs.end());

  std::vector<Metric> Metrics;
  std::string SpansJson;
  if (!Opt.Trace) {
    Metrics = endToEndMetrics(All, *W, SetupS);
  } else {
    printLatency("traced", subset(All, true), *W, Opt.Workers);
    Metrics = perLayerMetrics(All, *W, Opt.Workers, TraceRec, SetupRecs,
                              SaveMs, LoadMs);
    std::printf("span self time (traced passes, then each set-up):\n");
    auto PrintSpans = [](const SpanRecorder &Rec) {
      for (const auto &[Name, S] : Rec.summarize())
        std::printf("  %-22s n %7llu  total %10.2f ms  self %10.2f ms\n",
                    Name.c_str(), static_cast<unsigned long long>(S.Count),
                    S.TotalMs, S.SelfMs);
    };
    PrintSpans(TraceRec);
    for (const std::unique_ptr<SpanRecorder> &R : SetupRecs)
      PrintSpans(*R);
    SpansJson = "{\"traced\": " + TraceRec.toJson();
    for (size_t I = 0; I != SetupRecs.size(); ++I)
      SpansJson += ",\n\"setup_" + std::to_string(I) +
                   "\": " + SetupRecs[I]->toJson();
    SpansJson += "}\n";
  }

  for (const Metric &M : Metrics)
    std::printf("metric %-32s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  bool Correct = All.Failed == 0 && All.Nondeterministic == 0;
  std::string Result = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(All.Runs.size()) +
                       ", \"failed\": " + std::to_string(All.Failed) +
                       ", \"metrics\": " + metricsJson(Metrics) + "}";

  // The record: provenance, metrics and the latency quartiles, one file
  // per workload, seed and trace mode; spans beside it.
  std::string Stem = Opt.OutDir + "/" + Opt.WorkloadName + "-seed" +
                     std::to_string(Opt.Seed) + "-trace" +
                     (Opt.Trace ? "1" : "0");
  std::vector<double> L = U.latencies();
  if (std::FILE *F = std::fopen((Stem + ".json").c_str(), "w")) {
    std::fprintf(F,
                 "{\"provenance\": %s,\n\"setup_s\": [%s, %s, %s],\n"
                 "\"untraced_run_ms\": {\"q1\": %s, \"p50\": %s, \"q3\": %s, "
                 "\"p90\": %s, \"runs\": %zu, \"passes\": %zu},\n"
                 "\"nondeterministic\": %llu,\n\"untraced_pass_p50_ms\": %s,\n"
                 "\"untraced_cells\": %s,\n"
                 "\"result\": %s}\n",
                 Provenance.c_str(), num(quantile(SetupS, 0.25)).c_str(),
                 num(quantile(SetupS, 0.5)).c_str(),
                 num(quantile(SetupS, 0.75)).c_str(),
                 num(quantile(L, 0.25)).c_str(), num(quantile(L, 0.5)).c_str(),
                 num(quantile(L, 0.75)).c_str(), num(quantile(L, 0.9)).c_str(),
                 U.Runs.size(), U.Passes,
                 static_cast<unsigned long long>(All.Nondeterministic),
                 passMedians(U).c_str(), cellTable(U, *W).c_str(),
                 Result.c_str());
    std::fclose(F);
  }
  if (!SpansJson.empty())
    if (std::FILE *F = std::fopen((Stem + "-spans.json").c_str(), "w")) {
      std::fputs(SpansJson.c_str(), F);
      std::fclose(F);
    }

  std::printf("%s\n", Result.c_str());
  return 0;
}

// -- self-test ---------------------------------------------------------------------

/// The benchmark checks itself: (1) a corrupted oracle is caught, run by
/// run; (2) the modeled behaviour of every cell is bit-identical across
/// two set-ups and across 1 worker vs all workers.
int selfTest(Options Opt) {
  int Failures = 0;
  auto Check = [&](bool Ok, const std::string &What) {
    std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
    if (!Ok)
      ++Failures;
  };
  std::error_code Ec;
  std::filesystem::create_directories(Opt.OutDir, Ec);
  unsigned All = Opt.Workers;

  // (1) Corrupt one expected memory hash, checksum and register each.
  {
    Opt.WorkloadName = "serving";
    std::unique_ptr<Workload> W = setUpOrDie(Opt, nullptr, 0);
    Program &Hash = W->Programs[0], &Sum = W->Programs[1],
            &Reg = W->Programs[2];
    Hash.Expected.MemoryHash ^= 1;
    Sum.Expected.Checksum += 1;
    Reg.Expected.Gpr[3] ^= 0x100;
    uint64_t Expect = 0;
    for (const Cell &C : W->Cells)
      if (C.Prog == &Hash || C.Prog == &Sum || C.Prog == &Reg)
        ++Expect;
    Phase P = PhaseRunner(*W, All, nullptr).run(0.0, 1);
    Check(Expect > 0 && P.Failed == Expect,
          "corrupted oracle caught: " + std::to_string(P.Failed) + " of " +
              std::to_string(Expect) + " affected runs failed, " +
              std::to_string(P.Runs.size()) + " runs");
  }

  // (2) Determinism across set-ups and worker counts.
  for (const std::string &Name : workloadNames()) {
    Opt.WorkloadName = Name;
    std::unique_ptr<Workload> A = setUpOrDie(Opt, nullptr, 0);
    Phase Serial = PhaseRunner(*A, 1, nullptr).run(0.0, 1);
    std::unique_ptr<Workload> B = setUpOrDie(Opt, nullptr, 1);
    Phase Parallel = PhaseRunner(*B, All, nullptr).run(0.0, 2);
    Check(Serial.Failed == 0 && Parallel.Failed == 0,
          Name + ": every run matches its oracle");
    Check(Parallel.Nondeterministic == 0,
          Name + ": repeated passes reproduce modeled behaviour");
    Check(Serial.FirstSig == Parallel.FirstSig,
          Name + ": 1 worker and " + std::to_string(All) +
              " workers give bit-identical modeled behaviour");
    PassTotals X(Serial), Y(Parallel);
    Check(X.geomeanCpi() == Y.geomeanCpi() && X.C == Y.C,
          Name + ": modeled_cpi " + num(X.geomeanCpi()) +
              " and the counter sums are identical");
  }
  std::printf("%s\n", Failures ? "selftest FAILED" : "selftest passed");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  return Opt.SelfTest ? selfTest(Opt) : runBenchmark(Opt);
}
