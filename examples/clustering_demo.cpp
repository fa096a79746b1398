// Clustering with HeteSim similarity matrices (the paper's Table 6):
// because HeteSim is symmetric and semi-metric it can drive clustering
// directly. We cluster the conferences of the synthetic DBLP network with
// Normalized-Cut spectral clustering on the C-P-A-P-C HeteSim matrix and
// score against the planted four research areas with NMI, comparing
// against PathSim on the same path.

#include <cstdio>
#include <vector>

#include "baselines/pathsim.h"
#include "core/hetesim.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"
#include "learn/metrics.h"
#include "learn/spectral.h"

int main() {
  using namespace hetesim;
  DblpDataset dblp = GenerateDblp(DblpConfig{}).value();
  const HinGraph& graph = dblp.graph;
  std::printf("%s\n", graph.Summary().c_str());

  MetaPath cpapc = MetaPath::Parse(graph.schema(), "C-P-A-P-C").value();
  HeteSimEngine engine(graph);

  DenseMatrix hetesim_affinity = engine.Compute(cpapc).value();
  DenseMatrix pathsim_affinity = PathSimMatrix(graph, cpapc).value();

  const int k = dblp.num_areas;
  std::vector<int> hetesim_clusters =
      SpectralClusterNormalizedCut(hetesim_affinity, k).value();
  std::vector<int> pathsim_clusters =
      SpectralClusterNormalizedCut(pathsim_affinity, k).value();

  double hetesim_nmi =
      NormalizedMutualInformation(hetesim_clusters, dblp.conference_label).value();
  double pathsim_nmi =
      NormalizedMutualInformation(pathsim_clusters, dblp.conference_label).value();

  std::printf("Conference clustering along %s (k = %d):\n",
              cpapc.ToString().c_str(), k);
  std::printf("  %-10s %-8s %s\n", "conference", "cluster", "true area");
  for (Index c = 0; c < graph.NumNodes(dblp.conference); ++c) {
    std::printf("  %-10s %-8d %d\n", graph.NodeName(dblp.conference, c).c_str(),
                hetesim_clusters[static_cast<size_t>(c)],
                dblp.conference_label[static_cast<size_t>(c)]);
  }
  std::printf("\nNMI vs planted areas:  HeteSim %.4f   PathSim %.4f\n",
              hetesim_nmi, pathsim_nmi);
  return 0;
}
