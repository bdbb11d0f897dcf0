//===- mdabench/Spans.cpp -------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace mdabench;

namespace {
/// The innermost open span of this thread (-1 = none).
thread_local int64_t OpenSpan = -1;
} // namespace

Span::Span(SpanRecorder *Rec, const char *Name, uint64_t RunId,
           int64_t Parent)
    : Rec(Rec) {
  if (!Rec)
    return;
  PrevOpen = OpenSpan;
  Index = Rec->open(Name, RunId, Parent == ThreadParent ? OpenSpan : Parent);
  OpenSpan = Index;
}

Span::~Span() {
  if (!Rec)
    return;
  Rec->close(Index);
  OpenSpan = PrevOpen;
}

int64_t SpanRecorder::open(const char *Name, uint64_t RunId,
                           int64_t Parent) {
  SpanRecord S;
  S.Name = Name;
  S.Parent = Parent;
  S.RunId = RunId;
  S.StartNs = nanosSince(Epoch);
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(S);
  return static_cast<int64_t>(Spans.size() - 1);
}

void SpanRecorder::close(int64_t Index) {
  int64_t End = nanosSince(Epoch);
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Index)].EndNs = End;
}

std::map<std::string, SpanSummary> SpanRecorder::summarize() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back(
          {S.StartNs, S.EndNs});
  std::map<std::string, SpanSummary> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    // Union of the child intervals: children fanned out to several
    // threads overlap one another.
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (const auto &[B, E] : C) {
      int64_t From = std::max(B, Reach), To = std::min(E, S.EndNs);
      if (To > From)
        Covered += To - From;
      Reach = std::max(Reach, To);
    }
    SpanSummary &Sum = Out[S.Name];
    ++Sum.Count;
    Sum.TotalMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    Sum.SelfMs += static_cast<double>(S.EndNs - S.StartNs - Covered) / 1e6;
  }
  return Out;
}

double SpanRecorder::totalMs(const char *Name) const {
  std::lock_guard<std::mutex> Lock(M);
  int64_t Ns = 0;
  for (const SpanRecord &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) / 1e6;
}

uint64_t SpanRecorder::count(const char *Name) const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t N = 0;
  for (const SpanRecord &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      ++N;
  return N;
}

std::string SpanRecorder::toJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "[";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%lld,\"run\":%llu}",
                  I == 0 ? "" : ",", I, S.Name,
                  static_cast<long long>(S.StartNs),
                  static_cast<long long>(S.EndNs),
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.RunId));
    Out += Buf;
  }
  Out += "]";
  return Out;
}
