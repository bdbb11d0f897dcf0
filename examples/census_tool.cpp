//===- examples/census_tool.cpp - MDA census & translation inspector ------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inspect any Table-I benchmark the way the paper's section II does:
///
///   census_tool [benchmark] [train|ref]
///
/// Prints the MDA census (NMI, count, ratio), the Fig. 15 bias
/// breakdown, the ten hottest MDA instructions with their own ratios,
/// and — to show what the DBT actually emits — the annotated translation
/// of the block containing the hottest MDA site under the DPEH policy.
///
//===----------------------------------------------------------------------===//

#include "dbt/Disassembly.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/Translator.h"
#include "guest/Encoding.h"
#include "mda/Policies.h"
#include "reporting/Experiment.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace mdabt;

int main(int Argc, char **Argv) {
  const char *Name = Argc > 1 ? Argv[1] : "410.bwaves";
  workloads::InputKind Input =
      (Argc > 2 && std::strcmp(Argv[2], "train") == 0)
          ? workloads::InputKind::Train
          : workloads::InputKind::Ref;
  const workloads::BenchmarkInfo *Info = workloads::findBenchmark(Name);
  if (!Info) {
    std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name);
    return 1;
  }

  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 400000;
  guest::GuestImage Image = workloads::buildBenchmark(*Info, Input, Scale);

  // ---- census ---------------------------------------------------------------
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  guest::GuestCPU Cpu;
  Cpu.reset(Image);
  guest::MdaCensus Census;
  guest::Interpreter Interp(Mem);
  Interp.setObserver(&Census);
  Interp.run(Cpu);

  std::printf("%s (%s input): %s refs, %s MDAs (%s), NMI %u\n", Info->Name,
              Input == workloads::InputKind::Ref ? "ref" : "train",
              withCommas(Census.totalRefs()).c_str(),
              withCommas(Census.totalMdas()).c_str(),
              percent(Census.ratio()).c_str(), Census.nmi());
  std::printf("paper: %s MDAs (%s), NMI %u\n",
              paperCount(static_cast<uint64_t>(Info->PaperMdas)).c_str(),
              percent(Info->PaperRatio).c_str(), Info->PaperNmi);

  guest::MdaCensus::BiasBreakdown B = Census.biasBreakdown();
  std::printf("\nFig. 15 classes: <50%%: %u  =50%%: %u  >50%%: %u  "
              "=100%%: %u\n",
              B.Below50, B.Equal50, B.Above50, B.Always);

  // ---- hottest MDA instructions ---------------------------------------------
  std::vector<std::pair<uint32_t, guest::MdaCensus::SiteStats>> Sites(
      Census.sites().begin(), Census.sites().end());
  std::sort(Sites.begin(), Sites.end(), [](const auto &L, const auto &R) {
    return L.second.Mis > R.second.Mis;
  });
  std::printf("\nhottest MDA instructions:\n");
  size_t Shown = 0;
  for (const auto &KV : Sites) {
    if (KV.second.Mis == 0 || Shown == 10)
      break;
    guest::GuestInst Inst;
    std::string Text = "<outside code segment>";
    if (KV.first >= Image.CodeBase &&
        guest::decode(Image.Code.data(), Image.Code.size(),
                      KV.first - Image.CodeBase, Inst))
      Text = guest::disassemble(Inst, KV.first);
    std::printf("  %06x  %-34s %10s MDAs of %10s refs (%s) %s\n", KV.first,
                Text.c_str(), withCommas(KV.second.Mis).c_str(),
                withCommas(KV.second.Refs).c_str(),
                percent(static_cast<double>(KV.second.Mis) /
                        static_cast<double>(KV.second.Refs))
                    .c_str(),
                KV.second.IsStore ? "[store]" : "[load]");
    ++Shown;
  }

  // ---- what the translator emits for the hottest site ----------------------
  if (!Sites.empty() && Sites[0].second.Mis != 0) {
    uint32_t HotPc = Sites[0].first;
    // Find the start of the enclosing block: walk from the code base.
    guest::GuestMemory Mem2;
    Mem2.loadImage(Image);
    uint32_t BlockStart = Image.Entry;
    uint32_t Pc = Image.Entry;
    while (Pc < Image.codeEnd()) {
      dbt::GuestBlock Blk = dbt::discoverBlock(Mem2, Pc);
      if (HotPc >= Blk.StartPc && HotPc < Blk.endPc()) {
        BlockStart = Blk.StartPc;
        break;
      }
      Pc = Blk.endPc();
    }
    dbt::GuestBlock Blk = dbt::discoverBlock(Mem2, BlockStart);
    host::CodeSpace Code;
    // DPEH plan: inline the sequence for the known-hot site.
    dbt::Translation T = dbt::installPayload(
        Code,
        dbt::Translator::translate(
            Blk,
            [&](uint32_t InstPc, const guest::GuestInst &) {
              auto It = Census.sites().find(InstPc);
              return It != Census.sites().end() && It->second.Mis != 0
                         ? dbt::MemPlan::Inline
                         : dbt::MemPlan::Normal;
            }),
        /*Generation=*/0);
    std::printf("\nDPEH translation of the enclosing block:\n%s",
                dbt::dumpTranslation(T, Code).c_str());
  }
  return 0;
}
