//===- perfbench/src/Measure.cpp ------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sys/resource.h>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  static const Clock::time_point Origin = Clock::now();
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - Origin)
      .count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

uint64_t perfbench::percentile(std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = (size_t)std::ceil(P / 100.0 * (double)Sorted.size());
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

int32_t Tracer::begin(const char *Name, int32_t Cell) {
  int32_t Parent = Open.empty() ? -1 : Open.back();
  uint64_t T = nowNs();
  Spans.push_back({Name, T, T, Parent, Cell});
  Open.push_back((int32_t)Spans.size() - 1);
  return Open.back();
}

void Tracer::end(int32_t Idx) {
  Spans[(size_t)Idx].End = nowNs();
  // Spans close in LIFO order (Scope is RAII).
  Open.pop_back();
}

int32_t Tracer::add(const char *Name, uint64_t Start, uint64_t End,
                    int32_t Parent, int32_t Cell) {
  Spans.push_back({Name, Start, End, Parent, Cell});
  return (int32_t)Spans.size() - 1;
}

std::map<std::string, uint64_t> Tracer::selfTimes(size_t From) const {
  std::vector<int64_t> Self(Spans.size() - From);
  for (size_t I = From; I < Spans.size(); ++I)
    Self[I - From] += (int64_t)(Spans[I].End - Spans[I].Start);
  for (size_t I = From; I < Spans.size(); ++I) {
    int32_t P = Spans[I].Parent;
    if (P >= (int32_t)From)
      Self[(size_t)P - From] -= (int64_t)(Spans[I].End - Spans[I].Start);
  }
  std::map<std::string, uint64_t> Out;
  for (size_t I = From; I < Spans.size(); ++I)
    Out[Spans[I].Name] += (uint64_t)std::max<int64_t>(0, Self[I - From]);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
             "\"cell\"],\n \"spans\": [",
             F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%s\n  [\"%s\", %llu, %llu, %d, %d]", I ? "," : "",
                 S.Name, (unsigned long long)S.Start,
                 (unsigned long long)S.End, S.Parent, S.Cell);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

HostRef::HostRef() {
  // One random cycle through 2^21 slots (8 MiB): Sattolo's algorithm
  // with a fixed generator, so every run chases the same chain.
  const uint32_t N = 1u << 21;
  Next.resize(N);
  std::iota(Next.begin(), Next.end(), 0u);
  uint64_t S = 0x243F6A8885A308D3ull;
  for (uint32_t I = N - 1; I > 0; --I) {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t J = (uint32_t)((S >> 33) % I);
    std::swap(Next[I], Next[J]);
  }
}

double HostRef::sampleMs() {
  uint64_t T0 = nowNs();
  uint32_t P = Sink;
  for (int I = 0; I < 200000; ++I)
    P = Next[P];
  Sink = P;
  return (double)(nowNs() - T0) / 1e6;
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0;
}
