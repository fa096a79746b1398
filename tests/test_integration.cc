// End-to-end integration tests: generated datasets driven through the full
// public API, mirroring the paper's experimental pipeline at test-friendly
// scale. These are the "does the system actually do the paper's job"
// checks behind the per-experiment benches.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/pathsim.h"
#include "baselines/pcrw.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "learn/metrics.h"
#include "learn/spectral.h"

namespace hetesim {
namespace {

AcmConfig SmallAcm() {
  AcmConfig config;
  config.num_papers = 500;
  config.num_authors = 400;
  config.num_affiliations = 60;
  config.num_terms = 150;
  config.venues_per_conference = 5;
  return config;
}

DblpConfig SmallDblp() {
  DblpConfig config;
  config.num_papers = 600;
  config.num_authors = 450;
  config.num_terms = 200;
  return config;
}

TEST(IntegrationAcm, StarAuthorProfilesToKdd) {
  // Table-1 analogue: the star author's top conference along A-P-V-C is
  // KDD, and the runners-up are in the data-mining area.
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  MetaPath apvc = *MetaPath::Parse(acm.graph.schema(), "APVC");
  std::vector<double> scores = *engine.ComputeSingleSource(apvc, acm.star_author);
  std::vector<Scored> top = TopK(scores, 3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(acm.graph.NodeName(acm.conference, top[0].id), "KDD");
  for (const Scored& item : top) {
    EXPECT_EQ(acm.conference_area[static_cast<size_t>(item.id)], 0)
        << acm.graph.NodeName(acm.conference, item.id);
  }
}

TEST(IntegrationAcm, ConferenceProfileFindsStarAuthor) {
  // Table-2 analogue: KDD's top author along C-V-P-A is the star author.
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  MetaPath cvpa = *MetaPath::Parse(acm.graph.schema(), "CVPA");
  Index kdd = *acm.graph.FindNode(acm.conference, "KDD");
  std::vector<double> scores = *engine.ComputeSingleSource(cvpa, kdd);
  std::vector<Scored> top = TopK(scores, 1);
  EXPECT_EQ(top[0].id, acm.star_author);
}

TEST(IntegrationAcm, SymmetryAcrossFullDataset) {
  // Table-3 analogue: HeteSim(A, C | APVC) is one number per pair, however
  // you query it; PCRW gives direction-dependent numbers.
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  MetaPath apvc = *MetaPath::Parse(acm.graph.schema(), "APVC");
  MetaPath cvpa = apvc.Reverse();
  DenseMatrix forward = engine.Compute(apvc).value();
  DenseMatrix backward = engine.Compute(cvpa).value();
  EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-9));
  DenseMatrix pcrw_forward = PcrwMatrix(acm.graph, apvc);
  DenseMatrix pcrw_backward = PcrwMatrix(acm.graph, cvpa);
  EXPECT_FALSE(pcrw_forward.ApproxEquals(pcrw_backward.Transpose(), 1e-3));
}

TEST(IntegrationAcm, RelatedAuthorsSelfFirst) {
  // Table-4 analogue: along A-P-V-C-V-P-A the most related author to the
  // star is the star itself (score 1); PCRW lacks this guarantee.
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  MetaPath apvcvpa = *MetaPath::Parse(acm.graph.schema(), "APVCVPA");
  std::vector<double> scores = *engine.ComputeSingleSource(apvcvpa, acm.star_author);
  std::vector<Scored> top = TopK(scores, 1);
  EXPECT_EQ(top[0].id, acm.star_author);
  EXPECT_NEAR(top[0].score, 1.0, 1e-9);
}

TEST(IntegrationAcm, RankDifferenceBeatsOrMatchesPcrwOnAverage) {
  // Fig-6 analogue in miniature: averaged over conferences, HeteSim's
  // (single, symmetric) ranking of authors is closer to the paper-count
  // ground truth than PCRW's. Following the paper, PCRW's score is the
  // average of its two direction-dependent rankings ("since PCRW has two
  // rank scores for two different orders, the results are the average rank
  // differences based on these two different orders").
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  MetaPath cvpa = *MetaPath::Parse(acm.graph.schema(), "CVPA");
  MetaPath apvc = cvpa.Reverse();
  DenseMatrix counts = acm.PaperCounts();
  DenseMatrix hetesim_scores = engine.Compute(cvpa).value();
  DenseMatrix pcrw_ca = PcrwMatrix(acm.graph, cvpa);
  DenseMatrix pcrw_ac = PcrwMatrix(acm.graph, apvc);
  double hetesim_total = 0.0;
  double pcrw_total = 0.0;
  const int top_n = 50;
  for (Index c = 0; c < acm.graph.NumNodes(acm.conference); ++c) {
    std::vector<double> truth = counts.Transpose().Row(c);
    hetesim_total += *AverageRankDifference(truth, hetesim_scores.Row(c), top_n);
    pcrw_total +=
        0.5 * (*AverageRankDifference(truth, pcrw_ca.Row(c), top_n) +
               *AverageRankDifference(truth, pcrw_ac.Transpose().Row(c), top_n));
  }
  EXPECT_LE(hetesim_total, pcrw_total * 1.05);
}

TEST(IntegrationDblp, QueryAucBeatsChanceAndPcrw) {
  // Table-5 analogue: ranking authors for each conference along C-P-A,
  // labeled authors of the conference's area rank above others. The
  // paper's own AUC values span 0.61-0.95 (many same-area authors never
  // publish in a given conference and tie at score 0), so the bar is
  // "well above chance" plus "at least as good as PCRW on average".
  DblpDataset dblp = *GenerateDblp(SmallDblp());
  HeteSimEngine engine(dblp.graph);
  MetaPath cpa = *MetaPath::Parse(dblp.graph.schema(), "CPA");
  double hetesim_auc = 0.0;
  double pcrw_auc = 0.0;
  int evaluated = 0;
  for (Index c = 0; c < dblp.graph.NumNodes(dblp.conference); ++c) {
    std::vector<double> hetesim_scores = *engine.ComputeSingleSource(cpa, c);
    std::vector<double> pcrw_scores = *PcrwSingleSource(dblp.graph, cpa, c);
    std::vector<bool> relevant;
    relevant.reserve(dblp.author_label.size());
    for (int label : dblp.author_label) {
      relevant.push_back(label == dblp.conference_label[static_cast<size_t>(c)]);
    }
    hetesim_auc += *AreaUnderRoc(hetesim_scores, relevant);
    pcrw_auc += *AreaUnderRoc(pcrw_scores, relevant);
    ++evaluated;
  }
  EXPECT_GT(hetesim_auc / evaluated, 0.55);
  EXPECT_GE(hetesim_auc, pcrw_auc - 0.02 * evaluated);
}

TEST(IntegrationDblp, ConferenceClusteringRecoversAreas) {
  // Table-6 analogue (venue clustering): NCut on the C-P-A-P-C HeteSim
  // matrix recovers the four planted areas near-perfectly.
  DblpDataset dblp = *GenerateDblp(SmallDblp());
  HeteSimEngine engine(dblp.graph);
  MetaPath cpapc = *MetaPath::Parse(dblp.graph.schema(), "CPAPC");
  DenseMatrix affinity = engine.Compute(cpapc).value();
  std::vector<int> clusters = *SpectralClusterNormalizedCut(affinity, 4);
  double nmi = *NormalizedMutualInformation(clusters, dblp.conference_label);
  EXPECT_GT(nmi, 0.9);
}

TEST(IntegrationDblp, PathSimAgreesOnSymmetricPathTask) {
  DblpDataset dblp = *GenerateDblp(SmallDblp());
  MetaPath cpapc = *MetaPath::Parse(dblp.graph.schema(), "CPAPC");
  DenseMatrix pathsim = *PathSimMatrix(dblp.graph, cpapc);
  std::vector<int> clusters = *SpectralClusterNormalizedCut(pathsim, 4);
  double nmi = *NormalizedMutualInformation(clusters, dblp.conference_label);
  EXPECT_GT(nmi, 0.9);
}

TEST(IntegrationDblp, CachedEngineSpeedsRepeatQueriesCorrectly) {
  DblpDataset dblp = *GenerateDblp(SmallDblp());
  auto cache = std::make_shared<PathMatrixCache>();
  HeteSimEngine cached(dblp.graph, {}, cache);
  MetaPath cpa = *MetaPath::Parse(dblp.graph.schema(), "CPA");
  std::vector<double> first = *cached.ComputeSingleSource(cpa, 0);
  std::vector<double> second = *cached.ComputeSingleSource(cpa, 0);
  EXPECT_EQ(first, second);
  EXPECT_GE(cache->stats().hits, 2u);
}

TEST(IntegrationAcm, TopKSearcherAgreesWithEngineAtScale) {
  AcmDataset acm = *GenerateAcm(SmallAcm());
  MetaPath apvc = *MetaPath::Parse(acm.graph.schema(), "APVC");
  HeteSimEngine engine(acm.graph);
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, apvc).value();
  std::vector<double> reference = *engine.ComputeSingleSource(apvc, acm.star_author);
  TopKResult result = *searcher.Query(acm.star_author, 5);
  std::vector<Scored> expected = TopK(reference, 5);
  ASSERT_EQ(result.items.size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(result.items[k].id, expected[k].id);
    EXPECT_NEAR(result.items[k].score, expected[k].score, 1e-9);
  }
}

TEST(IntegrationScale, PaperScaleAcmEndToEnd) {
  // Paper-scale sanity: 12K papers / 17K authors (the real crawl's size),
  // full APVC relevance matrix, pruned top-k, symmetry spot checks —
  // all in seconds on a laptop core.
  AcmConfig config;
  config.num_papers = 12000;
  config.num_authors = 17000;
  config.num_affiliations = 1800;
  config.num_terms = 1500;
  config.venues_per_conference = 14;
  AcmDataset acm = *GenerateAcm(config);
  EXPECT_EQ(acm.graph.NumNodes(acm.author), 17000);
  HeteSimEngine engine(acm.graph);
  MetaPath apvc = *MetaPath::Parse(acm.graph.schema(), "APVC");
  DenseMatrix scores = engine.Compute(apvc).value();
  EXPECT_EQ(scores.rows(), 17000);
  EXPECT_EQ(scores.cols(), 14);
  // Spot-check symmetry and range at scale.
  MetaPath cvpa = apvc.Reverse();
  for (Index a : {Index{0}, Index{123}, Index{16999}}) {
    for (Index c = 0; c < 14; ++c) {
      EXPECT_NEAR(scores(a, c), *engine.ComputePair(cvpa, c, a), 1e-9);
      EXPECT_GE(scores(a, c), 0.0);
      EXPECT_LE(scores(a, c), 1.0 + 1e-9);
    }
  }
  // Pruned search agrees with the matrix row.
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, apvc).value();
  TopKResult top = *searcher.Query(acm.star_author, 3);
  ASSERT_FALSE(top.items.empty());
  EXPECT_EQ(acm.graph.NodeName(acm.conference, top.items[0].id), "KDD");
}

TEST(IntegrationAcm, PathSemanticsDifferentiateRankings) {
  // Table-7 analogue: C-V-P-A (direct publication) and C-V-P-A-P-A
  // (co-author influence) rank authors differently.
  AcmDataset acm = *GenerateAcm(SmallAcm());
  HeteSimEngine engine(acm.graph);
  Index kdd = *acm.graph.FindNode(acm.conference, "KDD");
  MetaPath cvpa = *MetaPath::Parse(acm.graph.schema(), "CVPA");
  MetaPath cvpapa = *MetaPath::Parse(acm.graph.schema(), "CVPAPA");
  std::vector<double> direct = *engine.ComputeSingleSource(cvpa, kdd);
  std::vector<double> coauthor = *engine.ComputeSingleSource(cvpapa, kdd);
  // Rankings correlate (same community) but are not identical.
  std::vector<Scored> top_direct = TopK(direct, 10);
  std::vector<Scored> top_coauthor = TopK(coauthor, 10);
  bool identical = true;
  for (size_t k = 0; k < 10; ++k) {
    if (top_direct[k].id != top_coauthor[k].id) {
      identical = false;
      break;
    }
  }
  EXPECT_FALSE(identical);
}

}  // namespace
}  // namespace hetesim
