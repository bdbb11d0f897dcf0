//===- analysis/HostVerifier.cpp - Code-cache structural lint -------------===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/HostVerifier.h"

#include "host/HostAssembler.h"
#include "host/HostEncoding.h"
#include "host/HostISA.h"
#include "host/MdaSequences.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>

namespace mdabt {
namespace analysis {

using namespace host;

const char *verifyIssueKindName(VerifyIssueKind K) {
  switch (K) {
  case VerifyIssueKind::PredecodeMismatch:
    return "predecode-mismatch";
  case VerifyIssueKind::Undecodable:
    return "undecodable";
  case VerifyIssueKind::BranchTargetBad:
    return "branch-target-bad";
  case VerifyIssueKind::PatchSiteBad:
    return "patch-site-bad";
  case VerifyIssueKind::ExitSiteBad:
    return "exit-site-bad";
  case VerifyIssueKind::MdaSequenceMalformed:
    return "mda-sequence-malformed";
  case VerifyIssueKind::IcWayBad:
    return "ic-way-bad";
  case VerifyIssueKind::StaleGuestCode:
    return "stale-guest-code";
  case VerifyIssueKind::FusedSiteBad:
    return "fused-site-bad";
  case VerifyIssueKind::AotUnreachable:
    return "aot-unreachable";
  }
  return "?";
}

std::string verifyIssueToString(const VerifyIssue &Issue) {
  return mdabt::format("%s at word %u (aux %u)",
                       verifyIssueKindName(Issue.Kind), Issue.Word,
                       Issue.Aux);
}

namespace {

/// Field-for-field equality of two decoded instructions.
bool sameInst(const HostInst &A, const HostInst &B) {
  return A.Op == B.Op && A.Ra == B.Ra && A.Rb == B.Rb && A.Rc == B.Rc &&
         A.IsLit == B.IsLit && A.Lit == B.Lit && A.Disp == B.Disp;
}

/// Home slot of region [Begin, End) in a table of \p Mask + 1 slots.
uint32_t homeSlot(uint32_t Begin, uint32_t End, uint32_t Mask) {
  uint64_t Key = (static_cast<uint64_t>(Begin) << 32 | End) *
                 0x9e3779b97f4a7c15ull;
  return static_cast<uint32_t>(Key >> 32) & Mask;
}

void setBits(std::vector<uint64_t> &Bits, uint32_t Begin, uint32_t End) {
  for (uint32_t W = Begin; W < End;) {
    uint32_t Bit = W & 63;
    uint32_t Take = std::min(64 - Bit, End - W);
    Bits[W >> 6] |= Take == 64 ? ~0ull : ((1ull << Take) - 1) << Bit;
    W += Take;
  }
}

bool testBit(const std::vector<uint64_t> &Bits, uint32_t W) {
  return Bits[W >> 6] >> (W & 63) & 1;
}

using WordIssues = std::vector<std::pair<uint32_t, uint32_t>>;

/// The (memo, word) content issues of memo \p Index.
std::pair<WordIssues::const_iterator, WordIssues::const_iterator>
issuesOf(const WordIssues &All, uint32_t Index) {
  if (All.empty())
    return {All.end(), All.end()};
  auto Lo = std::lower_bound(
      All.begin(), All.end(), Index,
      [](const std::pair<uint32_t, uint32_t> &P, uint32_t I) {
        return P.first < I;
      });
  auto Hi = std::upper_bound(
      Lo, All.end(), Index,
      [](uint32_t I, const std::pair<uint32_t, uint32_t> &P) {
        return I < P.first;
      });
  return {Lo, Hi};
}

/// Words per chunk of the snapshot compare.
constexpr uint32_t CompareChunk = 64;

} // namespace

/// One sweep: the checks, run against the verifier's memory.
struct CodeVerifier::Sweep {
  CodeVerifier &V;
  const CodeSpace &Code;
  const VerifierInput &Input;
  const uint32_t N;   ///< arena size
  const uint32_t Old; ///< arena size at the last clean sweep
  uint32_t Cursor = 0; ///< next memo of the last clean sweep to try
  /// Run of the last clean sweep's memos carried over in order and not
  /// yet copied: [RunBegin, RunBegin + RunLength).
  uint32_t RunBegin = 0, RunLength = 0;
  uint64_t MdaSequences = 0; ///< over all live regions, for check 6
  bool PastEnd = false;      ///< some live region ends past the arena
  VerifyReport Report;

  Sweep(CodeVerifier &V, const CodeSpace &C, const VerifierInput &I)
      : V(V), Code(C), Input(I), N(C.size()),
        Old(static_cast<uint32_t>(V.Snapshot.size())) {}

  void issue(VerifyIssueKind K, uint32_t Word, uint32_t Aux = 0) {
    Report.Issues.push_back({K, Word, Aux});
  }

  /// The decoded instruction at \p W.  Check 1 has proven the mirror
  /// equal to a fresh decode everywhere except at the words it flagged,
  /// which are decoded fresh.
  bool inst(uint32_t W, HostInst &I) const {
    if (!V.Flagged.empty() &&
        std::binary_search(V.Flagged.begin(), V.Flagged.end(), W))
      return decodeHost(Code.word(W), I);
    const CodeSpace::DecodedWord &D = Code.decodedWord(W);
    if (D.Valid)
      I = D.Inst;
    return D.Valid;
  }

  bool exempt(uint32_t W) const {
    return !Input.ExemptWords.empty() && Input.ExemptWords.count(W) != 0;
  }

  bool liveWord(int64_t W) const {
    return W >= 0 && W < N && testBit(V.LiveBits, static_cast<uint32_t>(W));
  }

  bool liveEntry(uint32_t W) const {
    if (W < N)
      return testBit(V.EntryBits, W);
    return std::find(V.FarEntries.begin(), V.FarEntries.end(), W) !=
           V.FarEntries.end();
  }

  /// Words below the old arena size that differ from the snapshot, in
  /// increasing order.  Words from the old size up were appended since
  /// (all of them, with an empty memory).
  void findChangedWords() {
    V.Changed.clear();
    const uint32_t *Now = Code.data();
    const uint32_t *Was = V.Snapshot.data();
    for (uint32_t C = 0; C < Old; C += CompareChunk) {
      uint32_t E = std::min(C + CompareChunk, Old);
      if (std::memcmp(Now + C, Was + C, (E - C) * sizeof(uint32_t)) == 0)
        continue;
      for (uint32_t W = C; W != E; ++W)
        if (Now[W] != Was[W])
          V.Changed.push_back(W);
    }
  }

  /// Check 1: the predecoded mirror agrees field for field with a fresh
  /// decode of the raw word, and valid entries round-trip through the
  /// encoder.  Covers the whole arena, dead regions included — a stale
  /// mirror entry anywhere means patch/clear bookkeeping went wrong.
  /// Unchanged words keep the proof of an earlier sweep.
  void checkPredecode() {
    V.Flagged.clear();
    size_t NumChanged = V.Changed.size();
    for (size_t K = 0, E = NumChanged + (N - Old); K != E; ++K) {
      uint32_t W = K < NumChanged ? V.Changed[K]
                                  : Old + static_cast<uint32_t>(K - NumChanged);
      HostInst Fresh;
      bool Valid = decodeHost(Code.word(W), Fresh);
      const CodeSpace::DecodedWord &Mirror = Code.decodedWord(W);
      if (Mirror.Valid != Valid) {
        V.Flagged.push_back(W);
        issue(VerifyIssueKind::PredecodeMismatch, W);
      } else if (Valid && (!sameInst(Mirror.Inst, Fresh) ||
                           encodeHost(Mirror.Inst) != Code.word(W))) {
        V.Flagged.push_back(W);
        issue(VerifyIssueKind::PredecodeMismatch, W, Code.word(W));
      }
    }
    Report.WordsChecked = N;
  }

  /// Gather the live regions (block bodies and stubs, in input order)
  /// with their memos, the live-word bitmap and the live entries.
  void collectLive() {
    // Grow every buffer geometrically (resize, not assign): an
    // exact-size reallocation each time the arena grows a little
    // fragments the heap of a long run.
    size_t Words = (static_cast<size_t>(N) + 63) / 64;
    V.LiveBits.resize(Words);
    std::fill(V.LiveBits.begin(), V.LiveBits.end(), 0);
    V.EntryBits.resize(Words);
    std::fill(V.EntryBits.begin(), V.EntryBits.end(), 0);
    V.FarEntries.clear();
    V.NextMemos.clear();
    V.NextBranches.clear();
    V.Undecodable.clear();
    V.MdaMalformed.clear();
    Cursor = 0;
    for (const VerifierBlock &B : Input.Blocks) {
      if (B.EntryWord < N)
        V.EntryBits[B.EntryWord >> 6] |= 1ull << (B.EntryWord & 63);
      else
        V.FarEntries.push_back(B.EntryWord);
      // The body, then each stub.  A region gets the last clean sweep's
      // memo if no changed word touches it, else a fresh scan (checks
      // 2, 3 and 6).
      for (size_t K = 0; K <= B.Stubs.size(); ++K) {
        VerifierRegion R =
            K == 0 ? VerifierRegion{B.EntryWord, B.EndWord} : B.Stubs[K - 1];
        setBits(V.LiveBits, R.Begin, std::min(R.End, N));
        PastEnd |= R.End > N && R.End > R.Begin;
        uint32_t Prev = V.Memos.empty() ? UINT32_MAX : previousMemo(R);
        if (Prev == UINT32_MAX || holdsChangedWord(R)) {
          scanFresh(R);
          continue;
        }
        MdaSequences += V.Memos[Prev].MdaSequences;
        if (RunLength != 0 && Prev == RunBegin + RunLength) {
          ++RunLength;
          continue;
        }
        copyRun();
        RunBegin = Prev;
        RunLength = 1;
      }
    }
    copyRun();
  }

  /// Index of the last clean sweep's memo for \p R, or UINT32_MAX.
  /// Live regions mostly keep their input order from sweep to sweep,
  /// so the memo after the previous hit is tried first; the table
  /// answers the rest.
  uint32_t previousMemo(const VerifierRegion &R) {
    auto Is = [&](uint32_t I) {
      return I < V.Memos.size() && V.Memos[I].Begin == R.Begin &&
             V.Memos[I].End == R.End;
    };
    if (!Is(Cursor)) {
      if (!V.SlotsBuilt)
        buildSlots();
      if (V.Slots.empty())
        return UINT32_MAX;
      uint32_t Mask = static_cast<uint32_t>(V.Slots.size()) - 1;
      uint32_t Slot = homeSlot(R.Begin, R.End, Mask);
      while (V.Slots[Slot] != 0 && !Is(V.Slots[Slot] - 1))
        Slot = (Slot + 1) & Mask;
      if (V.Slots[Slot] == 0)
        return UINT32_MAX;
      Cursor = V.Slots[Slot] - 1;
    }
    return Cursor++;
  }

  void buildSlots() {
    V.SlotsBuilt = true;
    V.Slots.clear();
    if (V.Memos.empty())
      return;
    size_t Cap = 16;
    while (Cap < 2 * V.Memos.size())
      Cap *= 2;
    V.Slots.resize(Cap);
    uint32_t Mask = static_cast<uint32_t>(Cap) - 1;
    for (uint32_t I = 0; I != V.Memos.size(); ++I) {
      uint32_t Slot = homeSlot(V.Memos[I].Begin, V.Memos[I].End, Mask);
      while (V.Slots[Slot] != 0)
        Slot = (Slot + 1) & Mask;
      V.Slots[Slot] = I + 1;
    }
  }

  void scanFresh(const VerifierRegion &R) {
    copyRun();
    RegionMemo M;
    M.Begin = R.Begin;
    M.End = R.End;
    scanRegion(M);
    MdaSequences += M.MdaSequences;
    V.NextMemos.push_back(M);
  }

  /// Append the pending run of carried memos, with their branches.
  void copyRun() {
    if (RunLength == 0)
      return;
    const RegionMemo &First = V.Memos[RunBegin];
    const RegionMemo &Last = V.Memos[RunBegin + RunLength - 1];
    uint32_t To = static_cast<uint32_t>(V.NextBranches.size());
    V.NextBranches.insert(V.NextBranches.end(),
                          V.Branches.begin() + First.FirstBranch,
                          V.Branches.begin() + Last.FirstBranch +
                              Last.NumBranches);
    size_t At = V.NextMemos.size();
    V.NextMemos.insert(V.NextMemos.end(), V.Memos.begin() + RunBegin,
                       V.Memos.begin() + RunBegin + RunLength);
    uint32_t Shift = To - First.FirstBranch; // wraps; unsigned is fine
    for (size_t I = At; I != V.NextMemos.size(); ++I)
      V.NextMemos[I].FirstBranch += Shift;
    RunLength = 0;
  }

  /// Whether \p R holds a word written or appended since the last
  /// clean sweep.
  bool holdsChangedWord(const VerifierRegion &R) const {
    if (R.End > Old)
      return true;
    auto It = std::lower_bound(V.Changed.begin(), V.Changed.end(), R.Begin);
    return It != V.Changed.end() && *It < R.End;
  }

  /// Checks 2, 3 and 6 over one region's words: undecodable words,
  /// branch words, and MDA sequences.  Words past the arena end are not
  /// read (checkRegions flags them).
  void scanRegion(RegionMemo &M) {
    uint32_t Index = static_cast<uint32_t>(V.NextMemos.size());
    M.FirstBranch = static_cast<uint32_t>(V.NextBranches.size());
    uint32_t End = std::min(M.End, N);
    for (uint32_t W = M.Begin; W < End; ++W) {
      HostInst I;
      if (!inst(W, I))
        V.Undecodable.push_back({Index, W});
      else if (isBranchFormat(I.Op))
        V.NextBranches.push_back({W, I.Disp});
    }
    M.NumBranches =
        static_cast<uint32_t>(V.NextBranches.size()) - M.FirstBranch;
    M.MdaSequences = scanMdaSequences(Index, M.Begin, End);
  }

  /// Check 6 on one region: every MDA sequence is complete and
  /// byte-exact.  A sequence start is unmistakable — `lda RegMdaT2`
  /// followed by `ldq_u` occurs nowhere else in translator output (the
  /// adaptive stub's alignment probe also begins `lda RegMdaT2` but is
  /// followed by `and`).
  uint32_t scanMdaSequences(uint32_t Index, uint32_t Begin, uint32_t End) {
    uint32_t Count = 0;
    for (uint32_t W = Begin; W < End; ++W) {
      HostInst Lda;
      if (!inst(W, Lda) || Lda.Op != HostOp::Lda || Lda.Ra != RegMdaT2)
        continue;
      HostInst Next;
      if (W + 1 >= End || !inst(W + 1, Next) || Next.Op != HostOp::LdqU)
        continue;
      ++Count;
      if (!checkOneMdaSequence(End, W, Lda, Next))
        V.MdaMalformed.push_back({Index, W});
      // Skip past the sequence body so its own ldq_u/lda words are
      // not re-probed (harmless, but noisy under corruption).
      W += (Next.Ra == RegMdaT1 ? mdaStoreLength() : mdaLoadLength()) - 1;
      W = std::min(W, End - 1);
    }
    return Count;
  }

  bool checkOneMdaSequence(uint32_t End, uint32_t W, const HostInst &Lda,
                           const HostInst &FirstLdqU) {
    uint8_t Rb = Lda.Rb;
    int32_t Disp = Lda.Disp;

    bool IsStore;
    unsigned Len;
    int32_t HighDisp;
    uint8_t DataReg;
    if (FirstLdqU.Ra == RegMdaT0) {
      // Load shape: the second ldq_u carries Disp + Size - 1 and the
      // final bis writes the destination.
      IsStore = false;
      Len = mdaLoadLength();
      if (W + Len > End)
        return false;
      HostInst High, Last;
      if (!inst(W + 2, High) || High.Op != HostOp::LdqU)
        return false;
      if (!inst(W + Len - 1, Last) || Last.Op != HostOp::Bis)
        return false;
      HighDisp = High.Disp;
      DataReg = Last.Rc;
    } else if (FirstLdqU.Ra == RegMdaT1) {
      // Store shape: the first ldq_u already carries the high
      // displacement; the first ins* carries the value register.
      IsStore = true;
      Len = mdaStoreLength();
      if (W + Len > End)
        return false;
      HostInst Ins;
      if (!inst(W + 3, Ins))
        return false;
      HighDisp = FirstLdqU.Disp;
      DataReg = Ins.Ra;
    } else {
      return false;
    }

    int64_t Size = static_cast<int64_t>(HighDisp) - Disp + 1;
    if (Size != 2 && Size != 4 && Size != 8)
      return false;

    // Re-emit the canonical sequence and require byte equality.
    CodeSpace &Scratch = V.Scratch;
    Scratch.clear();
    {
      HostAssembler Asm(Scratch);
      if (IsStore)
        emitMdaStore(Asm, static_cast<unsigned>(Size), DataReg, Rb, Disp);
      else
        emitMdaLoad(Asm, static_cast<unsigned>(Size), DataReg, Rb, Disp);
      Asm.finish();
    }
    return Scratch.size() == Len &&
           std::memcmp(Scratch.data(), Code.data() + W,
                       Len * sizeof(uint32_t)) == 0;
  }

  /// Checks 2 + 3: every live word decodes and every branch in live
  /// code lands inside a live region.  Branch targets are re-judged on
  /// every sweep: liveness changes without any word changing.
  void checkRegions() {
    Report.RegionsChecked = V.NextMemos.size();
    if (V.Undecodable.empty() && !PastEnd) {
      // Branches are stored in region then word order: one pass.
      for (const Branch &Br : V.NextBranches)
        checkBranch(Br);
      return;
    }
    for (uint32_t Index = 0; Index != V.NextMemos.size(); ++Index) {
      const RegionMemo &M = V.NextMemos[Index];
      auto [Und, UndEnd] = issuesOf(V.Undecodable, Index);
      auto Br = V.NextBranches.begin() + M.FirstBranch;
      for (auto BrEnd = Br + M.NumBranches; Br != BrEnd; ++Br) {
        for (; Und != UndEnd && Und->second < Br->Word; ++Und)
          issue(VerifyIssueKind::Undecodable, Und->second,
                Code.word(Und->second));
        checkBranch(*Br);
      }
      for (; Und != UndEnd; ++Und)
        issue(VerifyIssueKind::Undecodable, Und->second,
              Code.word(Und->second));
      if (M.End > N && M.End > M.Begin)
        issue(VerifyIssueKind::Undecodable, std::max(M.Begin, N), N);
    }
  }

  void checkBranch(const Branch &Br) {
    if (exempt(Br.Word))
      return;
    int64_t Target = static_cast<int64_t>(Br.Word) + 1 + Br.Disp;
    if (!liveWord(Target))
      issue(VerifyIssueKind::BranchTargetBad, Br.Word,
            static_cast<uint32_t>(Target));
  }

  /// Check 4: patched fault sites.
  void checkPatches() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierPatch &P : B.Patches) {
        if (P.Word >= N) {
          issue(VerifyIssueKind::PatchSiteBad, P.Word, N);
          continue;
        }
        HostInst I;
        if (!inst(P.Word, I)) {
          issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        if (P.Reverted) {
          // An adaptive revert restored the original trapping op.
          if (!accessesMemory(I.Op) || alignmentOf(I.Op) <= 1)
            issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        if (I.Op != HostOp::Br) {
          issue(VerifyIssueKind::PatchSiteBad, P.Word);
          continue;
        }
        uint32_t Target = P.Word + 1 + static_cast<uint32_t>(I.Disp);
        bool IntoOwnStub =
            std::any_of(B.Stubs.begin(), B.Stubs.end(),
                        [&](const VerifierRegion &S) {
                          return Target >= S.Begin && Target < S.End;
                        });
        if (!IntoOwnStub)
          issue(VerifyIssueKind::PatchSiteBad, P.Word, Target);
      }
    }
  }

  /// Check 5: exit sites are `Srv Exit` or a chain branch to a live
  /// translation entry.
  void checkExits() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (uint32_t W : B.ExitWords) {
        if (exempt(W))
          continue;
        if (W >= N) {
          issue(VerifyIssueKind::ExitSiteBad, W, N);
          continue;
        }
        HostInst I;
        if (!inst(W, I)) {
          issue(VerifyIssueKind::ExitSiteBad, W);
          continue;
        }
        if (I.Op == HostOp::Srv &&
            I.Disp == static_cast<int32_t>(SrvFunc::Exit))
          continue;
        if (I.Op == HostOp::Br) {
          uint32_t Target = W + 1 + static_cast<uint32_t>(I.Disp);
          if (liveEntry(Target))
            continue;
          issue(VerifyIssueKind::ExitSiteBad, W, Target);
          continue;
        }
        issue(VerifyIssueKind::ExitSiteBad, W);
      }
    }
  }

  /// Check 6, per live region in input order (the scan itself ran in
  /// scanMdaSequences, or at an earlier sweep for unchanged regions).
  void checkMdaSequences() {
    Report.MdaSequencesChecked = MdaSequences;
    for (const auto &[Index, W] : V.MdaMalformed)
      issue(VerifyIssueKind::MdaSequenceMalformed, W);
  }

  /// Check 7: inline-cache ways.  A disabled way must start with the
  /// guard branch that skips it; a filled way must be the byte-exact
  /// tag-compare shape for the engine's claimed (tag, target) pair, and
  /// the target must be a live translation entry.  The shape constants
  /// are re-derived here, independent of the engine's fill path.
  void checkIcWays() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierIcWay &W : B.IcWays) {
        if (Input.IcWayWords != 6) {
          // Unknown layout width: fail closed rather than mis-walk.
          issue(VerifyIssueKind::IcWayBad, W.Begin, Input.IcWayWords);
          continue;
        }
        if (static_cast<uint64_t>(W.Begin) + Input.IcWayWords > N) {
          issue(VerifyIssueKind::IcWayBad, W.Begin, N);
          continue;
        }
        if (!W.Filled) {
          // The guard branch skipping the way; a branch word is fully
          // determined by its opcode, register and displacement.
          static const uint32_t Guard =
              encodeHost(brInst(HostOp::Br, RegZero, 5));
          if (Code.word(W.Begin) != Guard)
            issue(VerifyIssueKind::IcWayBad, W.Begin, Code.word(W.Begin));
          continue;
        }
        uint32_t FinalBr = W.Begin + Input.IcWayWords - 1;
        int32_t Lo = static_cast<int16_t>(W.TargetGuestPc & 0xffff);
        int32_t Hi = static_cast<int32_t>(W.TargetGuestPc -
                                          static_cast<uint32_t>(Lo)) >>
                     16;
        int64_t Disp = static_cast<int64_t>(W.TargetEntry) -
                       (static_cast<int64_t>(FinalBr) + 1);
        // The three tag/target words are compared as decoded fields: a
        // memory- or branch-format word is exactly its opcode,
        // registers and displacement, and check 1 proved the mirror.
        static const uint32_t Fixed[3] = {
            encodeHost(
                opInst(HostOp::Zextl, RegZero, RegScratch1, RegScratch1)),
            encodeHost(
                opInst(HostOp::Cmpeq, RegExitPc, RegScratch1, RegScratch2)),
            encodeHost(brInst(HostOp::Beq, RegScratch2, 1)),
        };
        auto Is = [&](uint32_t K, HostOp Op, unsigned Ra, unsigned Rb,
                      int64_t D) {
          HostInst I;
          return inst(W.Begin + K, I) && I.Op == Op && I.Ra == Ra &&
                 I.Rb == Rb && I.Disp == D;
        };
        bool Ok =
            liveEntry(W.TargetEntry) &&
            Is(0, HostOp::Ldah, RegScratch1, RegZero, Hi) &&
            Is(1, HostOp::Lda, RegScratch1, RegScratch1, Lo) &&
            std::memcmp(Code.data() + W.Begin + 2, Fixed, sizeof(Fixed)) ==
                0 &&
            Is(5, HostOp::Br, RegZero, 0, Disp);
        if (!Ok)
          issue(VerifyIssueKind::IcWayBad, W.Begin, W.TargetEntry);
      }
    }
  }

  /// Check 8: guest-code coherence.  Every dirtied guest byte that
  /// falls inside a live translation's compiled ranges must be older
  /// than the translation itself (dirty epoch <= birth epoch) — a
  /// newer epoch means the engine's write barrier failed to invalidate
  /// a translation whose source bytes were rewritten.  The issue's
  /// word is the translation's entry; aux is the lowest offending
  /// guest byte.  The dirtied bytes are sorted once per sweep, so each
  /// range costs a binary search plus its own dirtied bytes.
  void checkGuestCoherence() {
    if (!Input.GuestDirtyEpoch || Input.GuestDirtyEpoch->empty())
      return;
    std::vector<std::pair<uint32_t, uint64_t>> &Dirty = V.Dirty;
    Dirty.clear();
    Dirty.insert(Dirty.end(), Input.GuestDirtyEpoch->begin(),
                 Input.GuestDirtyEpoch->end());
    std::sort(Dirty.begin(), Dirty.end());
    for (const VerifierBlock &B : Input.Blocks) {
      bool Stale = false;
      uint32_t Lowest = 0;
      for (const VerifierRegion &R : B.GuestRanges) {
        auto It = std::lower_bound(
            Dirty.begin(), Dirty.end(), R.Begin,
            [](const std::pair<uint32_t, uint64_t> &D, uint32_t Byte) {
              return D.first < Byte;
            });
        for (; It != Dirty.end() && It->first < R.End; ++It) {
          if (It->second <= B.BornEpoch)
            continue;
          if (!Stale || It->first < Lowest)
            Lowest = It->first;
          Stale = true;
          break; // sorted: the first one is the range's lowest
        }
      }
      if (Stale)
        issue(VerifyIssueKind::StaleGuestCode, B.EntryWord, Lowest);
    }
  }

  /// Check 9: fused-sequence integrity.  Every fused core must still be
  /// byte-exact against the words captured at install time, except at
  /// words the engine legitimately rewrote afterwards (patched fault
  /// sites, adaptive reverts) or quarantined (ExemptWords).  The
  /// issue's word is the first diverging word; aux is its current raw
  /// value.
  void checkFusedSites() {
    for (const VerifierBlock &B : Input.Blocks) {
      for (const VerifierFusedSite &F : B.FusedSites) {
        ++Report.FusedSitesChecked;
        if (F.Begin > F.End || F.Begin < B.EntryWord ||
            F.End > B.EndWord || F.End > N ||
            F.Words.size() != F.End - F.Begin) {
          issue(VerifyIssueKind::FusedSiteBad, F.Begin, F.End);
          continue;
        }
        if (std::memcmp(Code.data() + F.Begin, F.Words.data(),
                        F.Words.size_bytes()) == 0)
          continue;
        for (uint32_t K = 0; K != F.Words.size(); ++K) {
          uint32_t W = F.Begin + K;
          if (Code.word(W) == F.Words[K] || exempt(W))
            continue;
          bool Patched =
              std::any_of(B.Patches.begin(), B.Patches.end(),
                          [&](const VerifierPatch &P) {
                            return P.Word == W;
                          });
          if (Patched)
            continue;
          issue(VerifyIssueKind::FusedSiteBad, W, Code.word(W));
          break; // first diverging word per site is enough signal
        }
      }
    }
  }

  /// Check 10: AOT reachability.  An AOT-installed translation's guest
  /// ranges must all lie inside the statically recovered reachable set
  /// — the pre-translator can only ever install code the CFG-recovery
  /// pass proved the guest can reach.  The issue's word is the
  /// translation's entry; aux is the first uncovered guest byte.
  void checkAotReachability() {
    if (!Input.ReachableRanges)
      return;
    const std::vector<VerifierRegion> &Set = *Input.ReachableRanges;
    auto Covered = [&](uint32_t Begin, uint32_t End, uint32_t &Bad) {
      // Ranges are sorted and disjoint: the last one starting at or
      // before Begin must cover the whole [Begin, End) span (recovery
      // merges adjacent blocks).
      auto It = std::upper_bound(
          Set.begin(), Set.end(), Begin,
          [](uint32_t B, const VerifierRegion &R) { return B < R.Begin; });
      if (It != Set.begin() && End <= std::prev(It)->End)
        return true;
      Bad = Begin;
      return false;
    };
    for (const VerifierBlock &B : Input.Blocks) {
      if (!B.AotInstalled)
        continue;
      for (const VerifierRegion &G : B.GuestRanges) {
        uint32_t Bad = 0;
        if (!Covered(G.Begin, G.End, Bad)) {
          issue(VerifyIssueKind::AotUnreachable, B.EntryWord, Bad);
          break; // one uncovered range per block is enough signal
        }
      }
    }
  }

  void run() {
    findChangedWords();
    checkPredecode();
    collectLive();
    checkRegions();
    checkPatches();
    checkExits();
    checkMdaSequences();
    checkIcWays();
    checkGuestCoherence();
    checkFusedSites();
    checkAotReachability();
  }
};

VerifyReport CodeVerifier::verify(const CodeSpace &Code,
                                  const VerifierInput &Input) {
  if (Code.size() < Snapshot.size())
    reset(); // the arena was cleared: nothing remembered still applies
  bool Incremental = Remembers;
  Sweep S(*this, Code, Input);
  S.run();
  if (S.Report.ok()) {
    for (uint32_t W : Changed)
      Snapshot[W] = Code.word(W);
    if (Code.size() > S.Old) {
      Snapshot.resize(Code.size());
      std::memcpy(Snapshot.data() + S.Old, Code.data() + S.Old,
                  (Code.size() - S.Old) * sizeof(uint32_t));
    }
    Memos.swap(NextMemos);
    Branches.swap(NextBranches);
    SlotsBuilt = false;
    Remembers = true;
    return std::move(S.Report);
  }
  // A failing sweep reports exactly what a from-scratch sweep finds.
  reset();
  if (!Incremental)
    return std::move(S.Report);
  return verify(Code, Input);
}

void CodeVerifier::reset() {
  Remembers = false;
  Snapshot.clear();
  Memos.clear();
  Branches.clear();
  SlotsBuilt = false;
}

VerifyReport verifyCodeSpace(const CodeSpace &Code,
                             const VerifierInput &Input) {
  return CodeVerifier().verify(Code, Input);
}

} // namespace analysis
} // namespace mdabt
