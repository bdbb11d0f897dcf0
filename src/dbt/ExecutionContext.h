//===- dbt/ExecutionContext.h - Per-run execution state --------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run layer of the serving architecture (docs/SERVING.md).
/// executeRun builds one ExecutionContext, which owns ALL mutable state
/// of one guest run — guest memory and registers, the host code arena,
/// trap/patch bookkeeping, SMC epochs, budgets, degradation-ladder
/// state — and performs the run's monitor loop.  Demand blocks,
/// superblock traces and AOT units all enter the run's private
/// CodeSpace through one install step; demand blocks and traces come
/// from one acquire-or-translate step, which leases from the shared
/// cache when EngineConfig::Service is set and otherwise translates
/// locally.  Concurrent runs therefore never share mutable code.
///
/// Engine::run is the only caller; it enforces the one-run-per-Engine
/// rule and keeps the config alive for the run.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_EXECUTIONCONTEXT_H
#define MDABT_DBT_EXECUTIONCONTEXT_H

#include "dbt/Engine.h"

namespace mdabt {
namespace dbt {

/// Execute \p Image once under \p Policy with fresh per-run state.
/// \p Config must outlive the call; every cache lease the run took is
/// released before it returns.
RunResult executeRun(const guest::GuestImage &Image, MdaPolicy &Policy,
                     const EngineConfig &Config);

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_EXECUTIONCONTEXT_H
