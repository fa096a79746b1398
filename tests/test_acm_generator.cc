#include "datagen/acm_generator.h"

#include <set>

#include <gtest/gtest.h>

namespace hetesim {
namespace {

AcmConfig SmallConfig() {
  AcmConfig config;
  config.num_papers = 300;
  config.num_authors = 250;
  config.num_affiliations = 40;
  config.num_terms = 120;
  config.venues_per_conference = 4;
  return config;
}

TEST(AcmGenerator, SchemaMatchesFig3a) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const Schema& schema = acm.graph.schema();
  EXPECT_EQ(schema.NumObjectTypes(), 7);
  EXPECT_EQ(schema.NumRelations(), 6);
  for (char code : {'P', 'A', 'F', 'T', 'S', 'V', 'C'}) {
    EXPECT_TRUE(schema.TypeByCode(code).ok()) << code;
  }
  for (const char* rel : {"writes", "published_in", "venue_of", "has_term",
                          "has_subject", "affiliated_with"}) {
    EXPECT_TRUE(schema.RelationByName(rel).ok()) << rel;
  }
}

TEST(AcmGenerator, SizesMatchConfig) {
  AcmConfig config = SmallConfig();
  AcmDataset acm = *GenerateAcm(config);
  EXPECT_EQ(acm.graph.NumNodes(acm.paper), config.num_papers);
  EXPECT_EQ(acm.graph.NumNodes(acm.author), config.num_authors);
  EXPECT_EQ(acm.graph.NumNodes(acm.affiliation), config.num_affiliations);
  EXPECT_EQ(acm.graph.NumNodes(acm.term), config.num_terms);
  EXPECT_EQ(acm.graph.NumNodes(acm.subject), config.num_subjects);
  EXPECT_EQ(acm.graph.NumNodes(acm.conference), 14);
  EXPECT_EQ(acm.graph.NumNodes(acm.venue), 14 * config.venues_per_conference);
}

TEST(AcmGenerator, TheFourteenConferences) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const std::vector<std::string> names = {"KDD",  "ICML", "COLT", "SIGMOD", "VLDB",
                                          "CIKM", "WWW",  "SIGIR", "SODA", "STOC",
                                          "SOSP", "SPAA", "SIGCOMM", "MobiCOMM"};
  ASSERT_EQ(acm.graph.NumNodes(acm.conference), 14);
  for (size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(acm.graph.NodeName(acm.conference, static_cast<Index>(c)), names[c]);
  }
}

TEST(AcmGenerator, DeterministicGivenSeed) {
  AcmDataset a = *GenerateAcm(SmallConfig());
  AcmDataset b = *GenerateAcm(SmallConfig());
  EXPECT_EQ(a.graph.TotalEdges(), b.graph.TotalEdges());
  EXPECT_TRUE(a.graph.Adjacency(a.writes).ApproxEquals(b.graph.Adjacency(b.writes)));
  EXPECT_EQ(a.author_area, b.author_area);
}

TEST(AcmGenerator, DifferentSeedsDiffer) {
  AcmConfig config = SmallConfig();
  AcmDataset a = *GenerateAcm(config);
  config.seed = 12345;
  AcmDataset b = *GenerateAcm(config);
  EXPECT_FALSE(a.graph.Adjacency(a.writes).ApproxEquals(b.graph.Adjacency(b.writes)));
}

TEST(AcmGenerator, EveryPaperHasVenueAuthorsTermsSubjects) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const SparseMatrix& published = acm.graph.Adjacency(acm.published_in);
  const SparseMatrix writes_t = acm.graph.AdjacencyTranspose(acm.writes);
  const SparseMatrix& terms = acm.graph.Adjacency(acm.has_term);
  const SparseMatrix& subjects = acm.graph.Adjacency(acm.has_subject);
  for (Index p = 0; p < acm.graph.NumNodes(acm.paper); ++p) {
    EXPECT_EQ(published.RowNnz(p), 1);    // exactly one venue
    EXPECT_GE(writes_t.RowNnz(p), 1);     // at least one author
    EXPECT_GE(terms.RowNnz(p), 1);
    EXPECT_GE(subjects.RowNnz(p), 1);
  }
}

TEST(AcmGenerator, EveryVenueBelongsToOneConference) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const SparseMatrix& venue_of = acm.graph.Adjacency(acm.venue_of);
  for (Index v = 0; v < acm.graph.NumNodes(acm.venue); ++v) {
    EXPECT_EQ(venue_of.RowNnz(v), 1);
  }
}

TEST(AcmGenerator, EveryAuthorHasOneAffiliation) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const SparseMatrix& affiliated = acm.graph.Adjacency(acm.affiliated_with);
  for (Index a = 0; a < acm.graph.NumNodes(acm.author); ++a) {
    EXPECT_EQ(affiliated.RowNnz(a), 1);
  }
}

TEST(AcmGenerator, StarAuthorIsMostProlific) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  const SparseMatrix& writes = acm.graph.Adjacency(acm.writes);
  const Index star_papers = writes.RowNnz(acm.star_author);
  int more_prolific = 0;
  for (Index a = 0; a < acm.graph.NumNodes(acm.author); ++a) {
    if (a != acm.star_author && writes.RowNnz(a) > star_papers) ++more_prolific;
  }
  EXPECT_EQ(more_prolific, 0);
  EXPECT_GT(star_papers, 5);
}

TEST(AcmGenerator, StarAuthorConcentratesOnKdd) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  DenseMatrix counts = acm.PaperCounts();
  Index kdd = *acm.graph.FindNode(acm.conference, "KDD");
  for (Index c = 0; c < counts.cols(); ++c) {
    if (c != kdd) {
      EXPECT_GT(counts(acm.star_author, kdd), counts(acm.star_author, c));
    }
  }
}

TEST(AcmGenerator, PaperCountsConsistentWithEdges) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  DenseMatrix counts = acm.PaperCounts();
  double total = 0.0;
  for (Index a = 0; a < counts.rows(); ++a) {
    for (Index c = 0; c < counts.cols(); ++c) total += counts(a, c);
  }
  // Every writes edge contributes exactly one (author, conference) path.
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(acm.graph.Adjacency(acm.writes).NumNonZeros()));
}

TEST(AcmGenerator, AreasCoverFourValues) {
  AcmDataset acm = *GenerateAcm(SmallConfig());
  EXPECT_EQ(acm.num_areas, 4);
  std::set<int> conference_areas(acm.conference_area.begin(),
                                 acm.conference_area.end());
  EXPECT_EQ(conference_areas.size(), 4u);
  std::set<int> author_areas(acm.author_area.begin(), acm.author_area.end());
  EXPECT_EQ(author_areas.size(), 4u);
  EXPECT_EQ(acm.author_area[static_cast<size_t>(acm.star_author)], 0);
}

TEST(AcmGenerator, HomeConferencesDominatePublications) {
  // Community structure: most authors publish a plurality of their papers
  // in their home area.
  AcmDataset acm = *GenerateAcm(SmallConfig());
  DenseMatrix counts = acm.PaperCounts();
  Index in_home_area = 0;
  Index total = 0;
  for (Index a = 0; a < counts.rows(); ++a) {
    for (Index c = 0; c < counts.cols(); ++c) {
      const double count = counts(a, c);
      total += static_cast<Index>(count);
      if (acm.conference_area[static_cast<size_t>(c)] ==
          acm.author_area[static_cast<size_t>(a)]) {
        in_home_area += static_cast<Index>(count);
      }
    }
  }
  EXPECT_GT(static_cast<double>(in_home_area) / static_cast<double>(total), 0.6);
}

TEST(AcmGenerator, ConfigValidation) {
  AcmConfig config = SmallConfig();
  config.num_papers = 0;
  EXPECT_TRUE(GenerateAcm(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.home_area_affinity = 1.5;
  EXPECT_TRUE(GenerateAcm(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.min_authors_per_paper = 3;
  config.max_authors_per_paper = 2;
  EXPECT_TRUE(GenerateAcm(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.productivity_exponent = 0.0;
  EXPECT_TRUE(GenerateAcm(config).status().IsInvalidArgument());
  config = SmallConfig();
  config.subjects_per_paper = 1000;
  EXPECT_TRUE(GenerateAcm(config).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
