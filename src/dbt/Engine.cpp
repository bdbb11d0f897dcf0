//===- dbt/Engine.cpp -----------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Engine façade: one Engine::run executes one run through
/// executeRun, whose per-run ExecutionContext holds ALL mutable run
/// state (see docs/SERVING.md for the serving-architecture split).
/// Shared leaf utilities (fnv1a, RunError names) live here too.
///
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"

#include "dbt/ExecutionContext.h"
#include "support/ZeroChunk.h"

#include <cstdio>
#include <cstdlib>

using namespace mdabt;
using namespace mdabt::dbt;

namespace {
constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

constexpr uint64_t fnvPrimePow(size_t K) {
  uint64_t P = 1;
  while (K--)
    P *= FnvPrime;
  return P;
}
/// What one all-zero chunk does to the state: H ^ 0 == H, so each of
/// its bytes only multiplies by the prime.
constexpr uint64_t FnvZeroChunk = fnvPrimePow(ZeroChunkBytes);

uint64_t fnvBytes(uint64_t H, const uint8_t *Bytes, size_t Size) {
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= FnvPrime;
  }
  return H;
}
} // namespace

uint64_t mdabt::dbt::fnv1a(const uint8_t *Bytes, size_t Size) {
  uint64_t H = FnvOffset;
  size_t I = 0;
  for (; Size - I >= ZeroChunkBytes; I += ZeroChunkBytes)
    H = isZeroChunk(Bytes + I) ? H * FnvZeroChunk
                               : fnvBytes(H, Bytes + I, ZeroChunkBytes);
  return fnvBytes(H, Bytes + I, Size - I);
}

const char *mdabt::dbt::runErrorName(RunError E) {
  switch (E) {
  case RunError::None:
    return "none";
  case RunError::MonitorStepLimit:
    return "monitor-step-limit";
  case RunError::TrapStorm:
    return "trap-storm";
  case RunError::PatchFailed:
    return "patch-failed";
  case RunError::TranslationFailed:
    return "translation-failed";
  case RunError::CacheThrash:
    return "cache-thrash";
  case RunError::VerifyFailed:
    return "verify-failed";
  case RunError::BudgetTranslations:
    return "budget-translations";
  case RunError::BudgetCodeBytes:
    return "budget-code-bytes";
  case RunError::BudgetChurn:
    return "budget-churn";
  }
  return "unknown";
}

const char *mdabt::dbt::aotModeName(AotMode M) {
  switch (M) {
  case AotMode::Off:
    return "off";
  case AotMode::Full:
    return "full";
  case AotMode::Hybrid:
    return "hybrid";
  }
  return "unknown";
}

MdaPolicy::~MdaPolicy() = default;

Engine::Engine(const guest::GuestImage &Image, MdaPolicy &Policy,
               EngineConfig Config)
    : Image(Image), Policy(Policy), Config(Config) {}

RunResult Engine::run() {
  if (Used) {
    // A second run would silently reuse policy state already specialized
    // by the first; that has produced corrupt figures before.  Hard
    // error in every build mode, not just under assert.
    std::fprintf(stderr, "mdabt fatal: Engine::run() called twice; one "
                         "Engine performs exactly one run\n");
    std::abort();
  }
  Used = true;
  return executeRun(Image, Policy, Config);
}
