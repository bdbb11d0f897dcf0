//===- mdabench/Workloads.cpp ---------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/AlignmentAnalysis.h"
#include "analysis/CfgRecovery.h"
#include "dbt/TranslationService.h"
#include "guest/GuestMemory.h"
#include "guest/Interpreter.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"
#include "workloads/Hostile.h"
#include "workloads/SpecPrograms.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <unistd.h>

using namespace mdabench;
using mda::MechanismKind;

namespace {

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// Interpreter instruction cap: far above any benchmark program, low
/// enough that a runaway guest fails set-up instead of hanging it.
constexpr uint64_t OracleMaxInsts = 2'000'000'000ULL;

// -- the paper's mechanisms at their Fig. 16 settings ----------------------
const mda::PolicySpec Eh{MechanismKind::ExceptionHandling, 50, false, 0,
                         false};
const mda::PolicySpec Dpeh{MechanismKind::Dpeh, 50, false, 0, false};
const mda::PolicySpec DynProf{MechanismKind::DynamicProfiling, 50, false, 0,
                              false};
const mda::PolicySpec Static{MechanismKind::StaticProfiling, 0, false, 0,
                             false};
const mda::PolicySpec Direct{MechanismKind::Direct, 0, false, 0, false};
// -- the production-shaped serving policies (bench/serving_throughput) -----
const mda::PolicySpec EhRearrange{MechanismKind::ExceptionHandling, 50, true,
                                  0, false};
const mda::PolicySpec DpehRetranslate{MechanismKind::Dpeh, 50, false, 4,
                                      false};

/// Serving rows: exactly the rows bench/serving_throughput replays.
/// Like its round-robin, a pass requests every tenant once, so each
/// tenant (warm, first-seen or hostile) has an equal share of the mix.
const char *const ServingRows[] = {"164.gzip", "179.art", "433.milc",
                                   "482.sphinx3"};

/// verified_aot rows: thirteen selected rows, from MDA-heavy (179.art,
/// 188.ammp) to quiet (470.lbm, 482.sphinx3).  The four rows whose code
/// caches reach 18-52K host words (178.galgel, 433.milc, 434.zeusmp,
/// 252.eon) take 2-4 s per run with the verifier on and are left out, so
/// a 20 s run holds enough runs to resolve p90.  The count is odd so the
/// median falls inside one cell's runs, not between two cells.
const char *const AotRows[] = {
    "179.art",      "188.ammp",    "200.sixtrack", "465.tonto",
    "453.povray",   "450.soplex",  "410.bwaves",   "471.omnetpp",
    "164.gzip",     "437.leslie3d", "400.perlbench", "470.lbm",
    "482.sphinx3"};

/// Per-row program seed: a new program (new immediates, new checksum,
/// new translation-cache keys) with the row's census unchanged.
uint64_t planSeed(uint64_t Seed, const char *Row, uint64_t Salt) {
  uint64_t State = Seed * 0x9e3779b97f4a7c15ULL ^ Salt;
  for (const char *P = Row; *P; ++P)
    State = State * 131 + static_cast<uint8_t>(*P);
  return splitMix64(State);
}

Oracle runOracle(const guest::GuestImage &Image, SpanRecorder *Rec,
                 uint64_t SetupId, int64_t Parent, std::string &Err) {
  Oracle O;
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  guest::GuestCPU Cpu;
  Cpu.reset(Image);
  guest::Interpreter Interp(Mem);
  {
    Span S(Rec, "guest.oracle", SetupId, Parent);
    O.Insts = Interp.run(Cpu, OracleMaxInsts);
  }
  if (!Cpu.Halted) {
    Err = "oracle for " + Image.Name + " did not halt";
    return O;
  }
  {
    Span S(Rec, "setup.digest", SetupId, Parent);
    O.MemoryHash = dbt::fnv1a(Mem.data(), Mem.size());
  }
  O.Checksum = Cpu.Checksum;
  std::memcpy(O.Gpr, Cpu.Gpr, sizeof(O.Gpr));
  std::memcpy(O.Qreg, Cpu.Qreg, sizeof(O.Qreg));
  return O;
}

bool matchesOracle(const dbt::RunResult &R, const Oracle &X) {
  return R.completed() && R.FinalCpu.Halted && R.Checksum == X.Checksum &&
         R.MemoryHash == X.MemoryHash &&
         std::memcmp(R.FinalCpu.Gpr, X.Gpr, sizeof(X.Gpr)) == 0 &&
         std::memcmp(R.FinalCpu.Qreg, X.Qreg, sizeof(X.Qreg)) == 0;
}

/// A program to synthesize in set-up: a catalog row under a plan seed.
struct ProgramRequest {
  const workloads::BenchmarkInfo *Info;
  uint64_t PlanSeed;
  bool NeedsTrain;
};

/// Build every requested program (REF, and TRAIN when asked) and run
/// its oracle, fanned across \p Workers.
bool buildPrograms(Workload &W, const std::vector<ProgramRequest> &Reqs,
                   const workloads::ScaleConfig &Scale, unsigned Workers,
                   SpanRecorder *Rec, uint64_t SetupId, int64_t Parent,
                   std::string &Err) {
  size_t Base = W.Programs.size();
  W.Programs.resize(Base + Reqs.size());
  std::vector<std::string> Errors(Reqs.size());
  parallelFor(Workers, Reqs.size(), [&](size_t I) {
    const ProgramRequest &Q = Reqs[I];
    Program &P = W.Programs[Base + I];
    workloads::ProgramPlan Plan = workloads::makePlan(*Q.Info, Scale);
    Plan.Seed = Q.PlanSeed;
    P.Name = Q.Info->Name;
    {
      Span S(Rec, "workloads.build", SetupId, Parent);
      P.Ref = workloads::buildProgram(Plan, workloads::InputKind::Ref);
      if (Q.NeedsTrain)
        P.Train = workloads::buildProgram(Plan, workloads::InputKind::Train);
    }
    P.Expected = runOracle(P.Ref, Rec, SetupId, Parent, Errors[I]);
  });
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Err = E;
      return false;
    }
  return true;
}

/// Seeded Fisher-Yates shuffle of the pass order.
void shuffleCells(std::vector<Cell> &Cells, uint64_t Seed) {
  RNG Rng(Seed ^ 0x5eed5eedULL);
  for (size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[Rng.below(I)]);
}

bool setUpPaperMatrix(Workload &W, unsigned Workers, SpanRecorder *Rec,
                      uint64_t SetupId, int64_t Parent, std::string &Err) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 1'500'000; // the figure benches' standard scale
  std::vector<ProgramRequest> Reqs;
  for (const workloads::BenchmarkInfo *Info : workloads::selectedBenchmarks())
    Reqs.push_back({Info, planSeed(W.Seed, Info->Name, 0), true});
  if (!buildPrograms(W, Reqs, Scale, Workers, Rec, SetupId, Parent, Err))
    return false;
  const std::pair<const char *, mda::PolicySpec> Columns[] = {
      {"eh", Eh}, {"dpeh", Dpeh}, {"dyn@50", DynProf},
      {"static", Static}, {"direct", Direct}};
  for (const Program &P : W.Programs)
    for (const auto &[Name, Spec] : Columns)
      W.Cells.push_back({&P, Spec, P.Name + "/" + Name, Role::Matrix});
  return true;
}

bool setUpVerifiedAot(Workload &W, unsigned Workers, SpanRecorder *Rec,
                      uint64_t SetupId, int64_t Parent, std::string &Err) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 375'000; // a quarter of the standard scale
  W.Config.Aot = dbt::AotMode::Hybrid;
  W.Config.Verify = true;
  W.Config.Analysis = true;
  W.Config.HashDispatch = true;
  W.Config.InlineCaches = true;
  W.Config.Fusion = true;
  std::vector<ProgramRequest> Reqs;
  for (const char *Row : AotRows)
    Reqs.push_back({workloads::findBenchmark(Row), planSeed(W.Seed, Row, 0),
                    false});
  if (!buildPrograms(W, Reqs, Scale, Workers, Rec, SetupId, Parent, Err))
    return false;
  for (const Program &P : W.Programs)
    W.Cells.push_back({&P, Dpeh, P.Name + "/dpeh", Role::Matrix});
  return true;
}

bool setUpServing(Workload &W, unsigned Workers, const std::string &OutDir,
                  SpanRecorder *Rec, uint64_t SetupId, int64_t Parent,
                  std::string &Err) {
  // A serving request is one short program run (bench/serving_throughput's
  // per-request scale), so fixed per-run costs dominate.
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 20'000;
  W.Serving = true;
  W.Config.Analysis = true;
  W.Config.HashDispatch = true;
  W.Config.InlineCaches = true;
  W.Config.Superblocks = true;

  std::vector<ProgramRequest> Reqs;
  for (const char *Row : ServingRows)
    Reqs.push_back({workloads::findBenchmark(Row), planSeed(W.Seed, Row, 1),
                    false});
  // First-seen tenants: the same rows under a second plan seed.  Code
  // the two seeds share is already in the artifact; what differs is
  // unique to each tenant, so its misses do not depend on scheduling.
  for (const char *Row : ServingRows)
    Reqs.push_back({workloads::findBenchmark(Row), planSeed(W.Seed, Row, 2),
                    false});
  if (!buildPrograms(W, Reqs, Scale, Workers, Rec, SetupId, Parent, Err))
    return false;
  std::vector<workloads::HostileProgram> Hostile;
  {
    Span S(Rec, "workloads.build", SetupId, Parent);
    Hostile = workloads::hostileCatalog();
  }
  for (workloads::HostileProgram &H : Hostile) {
    Program &P = W.Programs.emplace_back();
    P.Name = H.Name;
    P.Ref = std::move(H.Image);
    P.Expected = runOracle(P.Ref, Rec, SetupId, Parent, Err);
    if (!Err.empty())
      return false;
  }

  const size_t NumRows = std::size(ServingRows);
  // serving_throughput's eight SPEC tenants (row x policy) are the warm
  // set.  One first-seen tenant per row, under alternating policies:
  // two first-seen tenants on one image would share blocks the artifact
  // lacks, and whichever ran first would publish them.
  std::vector<Cell> Warm;
  for (size_t I = 0; I != NumRows; ++I) {
    const Program &P = W.Programs[I];
    Warm.push_back({&P, EhRearrange, P.Name + "/eh+rearrange", Role::Warm});
    Warm.push_back(
        {&P, DpehRetranslate, P.Name + "/dpeh+retranslate", Role::Warm});
  }
  W.Cells = Warm;
  for (size_t I = 0; I != NumRows; ++I) {
    const Program &P = W.Programs[NumRows + I];
    bool UseEh = I % 2 == 0;
    W.Cells.push_back({&P, UseEh ? EhRearrange : DpehRetranslate,
                       P.Name + "#new/" +
                           (UseEh ? "eh+rearrange" : "dpeh+retranslate"),
                       Role::FirstSeen});
  }
  for (size_t I = 2 * NumRows; I != W.Programs.size(); ++I) {
    const Program &P = W.Programs[I];
    W.Cells.push_back(
        {&P, DpehRetranslate, P.Name + "/dpeh+retranslate", Role::Hostile});
  }

  // Warm the service with one run of every warm tenant, save it, and
  // reload it the way each pass will.
  dbt::TranslationService Service;
  std::atomic<bool> Diverged{false};
  {
    Span S(Rec, "service.warm", SetupId, Parent);
    parallelFor(Workers, Warm.size(), [&](size_t I) {
      RunOutcome O = runCell(W, Warm[I], &Service, nullptr, 0, false);
      if (!O.Ok)
        Diverged = true;
    });
  }
  if (Diverged) {
    Err = "a serving warm-up run diverged from its oracle";
    return false;
  }
  W.ArtifactPath = OutDir + "/serving-" + std::to_string(W.Seed) + "-" +
                   std::to_string(getpid()) + "-" +
                   std::to_string(SetupId) + ".cache";
  {
    Span S(Rec, "service.save", SetupId, Parent);
    auto T0 = Clock::now();
    if (!Service.save(W.ArtifactPath, &Err))
      return false;
    W.SaveMs = msSince(T0);
  }
  dbt::TranslationService Reloaded;
  {
    Span S(Rec, "service.load", SetupId, Parent);
    auto T0 = Clock::now();
    if (!Reloaded.load(W.ArtifactPath, nullptr, &Err))
      return false;
    W.LoadMs = msSince(T0);
  }
  W.FootprintBytes = Reloaded.cache().footprintBytes();
  return true;
}

} // namespace

Workload::~Workload() {
  if (!ArtifactPath.empty())
    std::remove(ArtifactPath.c_str());
}

const std::vector<std::string> &mdabench::workloadNames() {
  static const std::vector<std::string> Names = {"paper_matrix", "serving",
                                                 "verified_aot"};
  return Names;
}

std::unique_ptr<Workload>
mdabench::setUpWorkload(const std::string &Name, uint64_t Seed,
                        unsigned Workers, const std::string &OutDir,
                        SpanRecorder *Rec, uint64_t SetupId,
                        std::string &Err) {
  auto W = std::make_unique<Workload>();
  W->Name = Name;
  W->Seed = Seed;
  Span Root(Rec, "setup", SetupId);
  bool Ok = false;
  if (Name == "paper_matrix")
    Ok = setUpPaperMatrix(*W, Workers, Rec, SetupId, Root.index(), Err);
  else if (Name == "serving")
    Ok = setUpServing(*W, Workers, OutDir, Rec, SetupId, Root.index(), Err);
  else if (Name == "verified_aot")
    Ok = setUpVerifiedAot(*W, Workers, Rec, SetupId, Root.index(), Err);
  else
    Err = "unknown workload '" + Name + "'";
  if (!Ok)
    return nullptr;
  shuffleCells(W->Cells, Seed);
  return W;
}

const std::vector<std::string> &mdabench::counterNames() {
  static const std::vector<std::string> Names = {
      "cycles.native",        "cycles.interp",        "cycles.translate",
      "cycles.monitor",       "cycles.chain",         "cycles.traps",
      "interp.insts",         "host.insts",           "host.l1d_misses",
      "host.l2_misses",       "dbt.fault_traps",      "dbt.patches",
      "dbt.code_words",       "verify.words",         "aot.startup_cycles",
      "dispatch.table_hits",  "dispatch.table_misses", "dispatch.table_probes",
      "dispatch.ic_misses",   "trace.formed",         "trace.deopts",
      "smc.invalidations",    "fusion.saved_words",   "cache.hits",
      "cache.misses"};
  return Names;
}

RunOutcome mdabench::runCell(const Workload &W, const Cell &C,
                             dbt::TranslationService *Svc, SpanRecorder *Rec,
                             uint64_t RunId, bool Probe) {
  RunOutcome O;
  Span Root(Rec, "run", RunId);
  const Program &P = *C.Prog;
  auto T0 = Clock::now();
  std::unique_ptr<dbt::MdaPolicy> Policy;
  {
    Span S(Rec, "mda.make_policy", RunId);
    Policy = mda::makePolicy(C.Spec, P.Train ? &*P.Train : nullptr);
  }
  O.PolicyMs = msSince(T0);
  dbt::EngineConfig Config = W.Config;
  Config.Service = Svc;
  dbt::RunResult R;
  {
    Span S(Rec, "dbt.engine_run", RunId);
    auto E0 = Clock::now();
    dbt::Engine Engine(P.Ref, *Policy, Config);
    R = Engine.run();
    O.EngineMs = msSince(E0);
  }
  O.LatencyMs = msSince(T0);

  {
    Span S(Rec, "bench.check", RunId);
    O.Ok = matchesOracle(R, P.Expected);
    O.Error = R.Error;
    std::string Modeled = R.Metrics.toJson();
    Modeled += std::to_string(R.Checksum) + "/" + std::to_string(R.MemoryHash);
    O.Signature = dbt::fnv1a(reinterpret_cast<const uint8_t *>(Modeled.data()),
                             Modeled.size());
    O.Counters.Cycles = R.Cycles;
    O.Counters.GuestInsts = P.Expected.Insts;
    for (const std::string &N : counterNames())
      O.Counters.Values.push_back(R.Counters.get(N));
  }

  if (!Probe)
    return O;
  // Probes: the per-run fixed costs the engine pays inside Engine::run,
  // timed alone on the same image.
  {
    guest::GuestMemory Mem;
    Mem.loadImage(P.Ref);
    Span S(Rec, "dbt.digest", RunId);
    static std::atomic<uint64_t> Sink{0};
    Sink ^= dbt::fnv1a(Mem.data(), Mem.size());
  }
  if (W.Config.Analysis || W.Config.Aot != dbt::AotMode::Off) {
    Span S(Rec, "analysis.alignment", RunId);
    analysis::AnalysisResult A = analysis::analyzeAlignment(P.Ref);
    (void)A;
  }
  if (W.Config.Aot != dbt::AotMode::Off) {
    Span S(Rec, "analysis.cfg", RunId);
    analysis::CfgResult Cfg = analysis::recoverCfg(P.Ref);
    (void)Cfg;
  }
  return O;
}
