// Prints "base_nodes seed digest" for every input the benchmark generates
// (the train graph for seeds 0..1023, the fixed served graph) — the table
// perfbench checks its inputs against.
#include <cinttypes>
#include <cstdio>

#include "common.h"
#include "data/scale.h"

namespace {

void Print(int64_t nodes, uint64_t seed) {
  ses::data::ScaleGraphOptions options;
  options.num_nodes = nodes;
  options.seed = seed;
  const uint64_t digest =
      ses::data::DatasetDigest(ses::data::MakeScaleGraph(options));
  std::printf("%" PRId64 " %" PRIu64 " %016" PRIx64 "\n", nodes, seed, digest);
}

}  // namespace

int main() {
  for (uint64_t seed = 0; seed < 1024; ++seed)
    Print(perfbench::kTrainFit.base_nodes, seed);
  Print(perfbench::kServedFit.base_nodes, perfbench::kServedSeed);
  return 0;
}
