//===- perfbench/src/Programs.h - Seeded benchmark inputs -------*- C++ -*-===//
///
/// \file
/// The MiniML programs the benchmark runs, generated from a seed, each
/// paired with its expected answer. The answers are computed here in C++
/// from the same seeded parameters (never by running tfgc), so they are an
/// independent oracle for every cell, compile and task result.
///
/// The seed changes the data the programs compute on (constants, element
/// values, which template each generated function uses) but not their
/// sizes, so every seed does the same amount of work.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small deterministic generator, identical on every host.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + (int64_t)(next() % (uint64_t)(Hi - Lo + 1));
  }

private:
  uint64_t S;
};

/// One gc_matrix program family.
struct Family {
  std::string Name;
  std::string Source;
  std::string Expected;
  size_t HeapBytes;
};

/// The five gc_matrix families: list churn, binary trees, generational
/// churn, a deep polymorphic stack, symbolic differentiation. \p Scale
/// shrinks the iteration counts (1 = full size; the self-test uses less).
std::vector<Family> gcFamilies(uint64_t Seed, double Scale);

/// compile_large's program: \p Templates generated functions over a fixed
/// prelude, plus the chain of group functions main calls.
struct LargeProgram {
  std::string Source;
  std::string Expected;
};
LargeProgram largeProgram(uint64_t Seed, unsigned Templates);

/// parallel_gc's tasking worker: `worker (seed, iters)`, one task per
/// argument pair, each with its expected checksum.
struct WorkerProgram {
  std::string Source;
  std::vector<std::pair<int64_t, int64_t>> TaskArgs;
  std::vector<std::string> Expected;
};
WorkerProgram workerProgram(uint64_t Seed, unsigned Tasks, double Scale);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
