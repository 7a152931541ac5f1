// The serve-write workload: open-loop predict/explain traffic against a
// trained SES model behind the micro-batching scheduler, with writes.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include "common.h"

namespace perfbench {

/// serve-write: a ShardedSession behind a ShardRouter, open-loop reads plus
/// version-bump writes that make later reads wait on an artifact rebuild.
void RunServeWrite(const RunArgs& args, Result* result);

/// Serves `model` over `ds` from one InferenceSession behind one
/// BatchScheduler, reads only, traced, for `seconds`, and
/// sets the serve.*, gen.* and core.cache_hit_frac metrics from it. The
/// train workload's traced run uses this to report those layers too.
void ProbeServing(const core::SesModel& model, const data::Dataset& ds,
                  uint64_t seed, double seconds, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
