// Reproduces Figure 7: optimization of the feature and structure masks
// during explainable training on Cora — training/validation loss curves
// (CSV) and feature-mask / structure-mask heatmap snapshots at the start,
// middle and end of training (PGM images).
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "viz/graph_export.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Fig 7] %s\n", profile.Describe().c_str());

  auto ds = data::MakeRealWorldByName("Cora", profile.real_scale, 1);
  core::SesOptions opt;
  opt.backbone = "GCN";
  core::SesModel ses(opt);
  auto cfg = profile.MakeTrainConfig(1);
  ses.Fit(ds, cfg);

  // Loss curves.
  util::Table curves("Figure 7: explainable-training loss curves (Cora)");
  curves.SetHeader({"epoch", "train_loss", "val_loss"});
  for (const auto& row : ses.loss_history())
    curves.AddRow({util::Table::Num(row[0], 0), util::Table::Num(row[1], 4),
                   util::Table::Num(row[2], 4)});
  curves.WriteCsv(bench::ArtifactDir() + "/fig7_loss_curves.csv");
  std::printf("loss curve: %zu epochs -> %s\n", ses.loss_history().size(),
              (bench::ArtifactDir() + "/fig7_loss_curves.csv").c_str());

  // Mask snapshots: the nnz-aligned feature mask reshaped to a band image
  // (rows = nodes sampled, cols = their nonzero features padded).
  const char* stage[] = {"epoch0", "mid", "final"};
  for (size_t s = 0; s < ses.mask_snapshots().size() && s < 3; ++s) {
    const tensor::Tensor& nnz_mask = ses.mask_snapshots()[s];
    // Render the first 100 nodes x up to 32 nonzeros each.
    const int64_t rows = std::min<int64_t>(100, ds.num_nodes());
    const int64_t cols = 32;
    tensor::Tensor img(rows, cols);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t lo = ds.features->row_ptr[static_cast<size_t>(r)];
      const int64_t hi = ds.features->row_ptr[static_cast<size_t>(r) + 1];
      for (int64_t c = 0; c < std::min(cols, hi - lo); ++c)
        img.At(r, c) = nnz_mask[lo + c];
    }
    const std::string path = bench::ArtifactDir() + "/fig7_feature_mask_" +
                             stage[s] + ".pgm";
    viz::WriteHeatmapPgm(img, path);
    std::printf("feature-mask snapshot %s -> %s (mean %.3f)\n", stage[s],
                path.c_str(), img.Mean());
  }

  // Final structure mask over k-hop pairs of nodes 0..99 (the paper shows
  // nodes 1700-1800; any contiguous block illustrates the same divergence).
  {
    const tensor::Tensor& m = ses.structure_mask_khop();
    const int64_t rows = std::min<int64_t>(100, ds.num_nodes());
    const int64_t cols = 32;
    tensor::Tensor img(rows, cols);
    for (int64_t r = 0; r < rows; ++r) {
      const auto nbrs = ses.khop().Neighbors(r);
      const int64_t off = ses.khop().PairOffset(r);
      for (int64_t c = 0; c < std::min<int64_t>(cols, nbrs.size()); ++c)
        img.At(r, c) = m[off + c];
    }
    const std::string path =
        bench::ArtifactDir() + "/fig7_structure_mask_final.pgm";
    viz::WriteHeatmapPgm(img, path);
    std::printf("structure-mask snapshot -> %s (mean %.3f min %.3f max %.3f)\n",
                path.c_str(), m.Mean(), m.Min(), m.Max());
  }
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
