#include "datagen/dblp_generator.h"

#include <set>

#include <gtest/gtest.h>

namespace hetesim {
namespace {

DblpConfig SmallConfig() {
  DblpConfig config;
  config.num_papers = 400;
  config.num_authors = 300;
  config.num_terms = 150;
  return config;
}

TEST(DblpGenerator, SchemaMatchesFig3b) {
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  const Schema& schema = dblp.graph.schema();
  EXPECT_EQ(schema.NumObjectTypes(), 4);
  EXPECT_EQ(schema.NumRelations(), 3);
  for (char code : {'A', 'P', 'C', 'T'}) {
    EXPECT_TRUE(schema.TypeByCode(code).ok()) << code;
  }
}

TEST(DblpGenerator, TwentyConferencesFivePerArea) {
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  EXPECT_EQ(dblp.graph.NumNodes(dblp.conference), 20);
  ASSERT_EQ(dblp.conference_label.size(), 20u);
  std::vector<int> per_area(4, 0);
  for (int label : dblp.conference_label) ++per_area[static_cast<size_t>(label)];
  for (int count : per_area) EXPECT_EQ(count, 5);
  EXPECT_EQ(DblpConferenceNames().size(), 20u);
}

TEST(DblpGenerator, LabelsCoverEveryObject) {
  DblpConfig config = SmallConfig();
  DblpDataset dblp = *GenerateDblp(config);
  EXPECT_EQ(dblp.author_label.size(), static_cast<size_t>(config.num_authors));
  EXPECT_EQ(dblp.paper_label.size(), static_cast<size_t>(config.num_papers));
  for (int label : dblp.author_label) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
  for (int label : dblp.paper_label) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(DblpGenerator, PaperLabelsMatchConferenceLabels) {
  // A paper's planted label is the area of the conference it appears in.
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  const SparseMatrix& published = dblp.graph.Adjacency(dblp.published_in);
  for (Index p = 0; p < dblp.graph.NumNodes(dblp.paper); ++p) {
    auto confs = published.RowIndices(p);
    ASSERT_EQ(confs.size(), 1u);
    EXPECT_EQ(dblp.paper_label[static_cast<size_t>(p)],
              dblp.conference_label[static_cast<size_t>(confs[0])]);
  }
}

TEST(DblpGenerator, Deterministic) {
  DblpDataset a = *GenerateDblp(SmallConfig());
  DblpDataset b = *GenerateDblp(SmallConfig());
  EXPECT_TRUE(a.graph.Adjacency(a.writes).ApproxEquals(b.graph.Adjacency(b.writes)));
  EXPECT_EQ(a.author_label, b.author_label);
}

TEST(DblpGenerator, EveryPaperHasAuthorAndTerms) {
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  const SparseMatrix writes_t = dblp.graph.AdjacencyTranspose(dblp.writes);
  const SparseMatrix& terms = dblp.graph.Adjacency(dblp.has_term);
  for (Index p = 0; p < dblp.graph.NumNodes(dblp.paper); ++p) {
    EXPECT_GE(writes_t.RowNnz(p), 1);
    EXPECT_GE(terms.RowNnz(p), 1);
  }
}

TEST(DblpGenerator, CommunityStructurePlanted) {
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  // Authors publish mostly in their own area.
  DenseMatrix counts = dblp.graph.Adjacency(dblp.writes)
                           .Multiply(dblp.graph.Adjacency(dblp.published_in))
                           .ToDense();
  double in_area = 0.0;
  double total = 0.0;
  for (Index a = 0; a < counts.rows(); ++a) {
    for (Index c = 0; c < counts.cols(); ++c) {
      total += counts(a, c);
      if (dblp.author_label[static_cast<size_t>(a)] ==
          dblp.conference_label[static_cast<size_t>(c)]) {
        in_area += counts(a, c);
      }
    }
  }
  EXPECT_GT(in_area / total, 0.6);
}

TEST(DblpGenerator, ConfigValidation) {
  DblpConfig config = SmallConfig();
  config.num_authors = 1;
  EXPECT_TRUE(GenerateDblp(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.coauthor_same_area = -0.1;
  EXPECT_TRUE(GenerateDblp(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.terms_per_paper = 0;
  EXPECT_TRUE(GenerateDblp(config).status().IsInvalidArgument());
}

TEST(DblpGenerator, Table5ConferencesPresent) {
  DblpDataset dblp = *GenerateDblp(SmallConfig());
  // The nine conferences evaluated in the paper's Table 5 all exist.
  for (const char* name : {"KDD", "ICDM", "SDM", "SIGMOD", "ICDE", "VLDB",
                           "AAAI", "IJCAI", "SIGIR"}) {
    EXPECT_TRUE(dblp.graph.FindNode(dblp.conference, name).ok()) << name;
  }
}

}  // namespace
}  // namespace hetesim
