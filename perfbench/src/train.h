// The train workload: SES two-phase Fit on the 10k-node scale graph.
#ifndef PERFBENCH_TRAIN_H_
#define PERFBENCH_TRAIN_H_

#include "common.h"

namespace perfbench {

void RunTrain(const RunArgs& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_TRAIN_H_
