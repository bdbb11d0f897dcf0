//===- support/Stats.cpp --------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <cassert>
#include <cmath>

using namespace mdabt;

double mdabt::geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geometric mean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double mdabt::arithmeticMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

void CounterBag::add(const std::string &Name, uint64_t Delta) {
  for (auto &Entry : Entries) {
    if (Entry.first == Name) {
      Entry.second += Delta;
      return;
    }
  }
  Entries.push_back({Name, Delta});
}

void CounterBag::set(const std::string &Name, uint64_t Value) {
  for (auto &Entry : Entries) {
    if (Entry.first == Name) {
      Entry.second = Value;
      return;
    }
  }
  Entries.push_back({Name, Value});
}

uint64_t CounterBag::get(const std::string &Name) const {
  for (const auto &Entry : Entries)
    if (Entry.first == Name)
      return Entry.second;
  return 0;
}
