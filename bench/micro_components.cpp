//===- bench/micro_components.cpp - Component microbenchmarks -------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the infrastructure itself:
/// interpreter and host-simulator throughput, translation speed, cache
/// model, codecs, and MDA stub generation.  These are not paper results;
/// they bound the wall-clock cost of the experiment harness.
///
//===----------------------------------------------------------------------===//

#include "dbt/Engine.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/Encoding.h"
#include "guest/Interpreter.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"
#include "mda/Policies.h"
#include "reporting/Experiment.h"
#include "support/CacheModel.h"
#include "support/RNG.h"

#include <benchmark/benchmark.h>

using namespace mdabt;

namespace {

guest::GuestImage sumLoop(uint32_t Iters, bool Misaligned) {
  guest::ProgramBuilder B("bench");
  uint32_t Buf = B.dataReserve(Iters * 4 + 16, 8);
  B.movri(0, static_cast<int32_t>(Buf + (Misaligned ? 1 : 0)));
  B.movri(1, 0);
  B.movri(2, 0);
  guest::ProgramBuilder::Label Loop = B.here();
  B.stl(guest::memIdx(0, 1, 2, 0), 1);
  B.ldl(3, guest::memIdx(0, 1, 2, 0));
  B.add(2, 3);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(guest::Cond::B, Loop);
  B.chk(2);
  B.halt();
  return B.build();
}

void BM_InterpreterThroughput(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(10000, false);
  guest::GuestMemory Mem;
  uint64_t Insts = 0;
  for (auto _ : State) {
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    guest::Interpreter Interp(Mem);
    Insts += Interp.run(Cpu);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpreterThroughput);

void BM_EngineDpehThroughput(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(10000, true);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    mda::DpehPolicy Policy(50);
    dbt::Engine Engine(Image, Policy);
    dbt::RunResult R = Engine.run();
    reporting::checkRunCompleted(R, "BM_EngineDpehThroughput");
    Cycles += R.Cycles;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Cycles));
  State.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_EngineDpehThroughput);

void BM_TranslateBlock(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(16, false);
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  // The hot loop body block.
  dbt::GuestBlock Entry = dbt::discoverBlock(Mem, Image.Entry);
  dbt::GuestBlock Body = dbt::discoverBlock(Mem, Entry.endPc());
  uint64_t Insts = 0;
  for (auto _ : State) {
    dbt::CachedTranslation P = dbt::Translator::translate(
        Body,
        [](uint32_t, const guest::GuestInst &) {
          return dbt::MemPlan::Inline;
        });
    benchmark::DoNotOptimize(P.Words.size());
    Insts += Body.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_TranslateBlock);

void BM_GuestDecode(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(16, false);
  uint64_t Count = 0;
  for (auto _ : State) {
    size_t Off = 0;
    while (Off < Image.Code.size()) {
      guest::GuestInst I;
      bool Ok = guest::decode(Image.Code.data(), Image.Code.size(), Off, I);
      benchmark::DoNotOptimize(Ok);
      if (!Ok)
        break;
      Off += I.Length;
      ++Count;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_GuestDecode);

void BM_HostDecode(benchmark::State &State) {
  host::CodeSpace Code;
  {
    host::HostAssembler Asm(Code);
    for (int I = 0; I != 64; ++I)
      host::emitMdaStore(Asm, 4, 1, 2, I);
    Asm.finish();
  }
  uint64_t Count = 0;
  for (auto _ : State) {
    for (uint32_t W = 0; W != Code.size(); ++W) {
      host::HostInst I;
      bool Ok = host::decodeHost(Code.word(W), I);
      benchmark::DoNotOptimize(Ok);
      ++Count;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_HostDecode);

void BM_CacheModel(benchmark::State &State) {
  MemoryHierarchy Hier;
  RNG Rng(7);
  std::vector<uint64_t> Addrs(4096);
  for (uint64_t &A : Addrs)
    A = Rng.below(1 << 22);
  uint64_t Count = 0;
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (uint64_t A : Addrs)
      Sum += Hier.data(A);
    benchmark::DoNotOptimize(Sum);
    Count += Addrs.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_CacheModel);

void BM_MdaStubGeneration(benchmark::State &State) {
  host::HostInst Faulting =
      host::memInst(host::HostOp::Ldl, 3, 8, 2);
  uint64_t Count = 0;
  for (auto _ : State) {
    host::CodeSpace Code;
    for (int I = 0; I != 64; ++I) {
      dbt::Translator::StubInfo S =
          dbt::Translator::emitStub(Code, Faulting, 0);
      benchmark::DoNotOptimize(S.End);
    }
    Count += 64;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_MdaStubGeneration);

} // namespace

BENCHMARK_MAIN();
