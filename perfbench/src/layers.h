// Per-layer metrics of a traced run. Each is derived from spans the
// benchmark records around calls into one library module's public API.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "common.h"

namespace perfbench {

/// core.prep_s / core.phase1_s / core.phase2_s of one Fit: its two phases
/// as the model reports them, and the rest of the Fit's span (k-hop
/// adjacency, negatives, pair targets) as preparation.
void SetFitLayers(const core::SesModel& model, double fit_seconds,
                  Result* result);

/// Times the data-plane and model-serving calls of the `kernels`, `core` and
/// `graph` modules on the workload's own graph and model, each inside a
/// span, and sets from those spans: kernels.spmm_ms, core.cold_ms,
/// core.forward_ms, core.rebuild_ms, graph.partition_s,
/// graph.edge_cut_frac, core.shard_build_s and core.resident_rows_ratio.
void ProbeLayers(const core::SesModel& model, const data::Dataset& ds,
                 Result* result);

/// Median duration in seconds of the closed spans named `name`.
double MedianSpanSeconds(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
