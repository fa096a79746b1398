// Determinism regression tests for the synthetic-data generators: the same
// seed must produce a bitwise-identical graph on every platform and
// release, because the golden fixtures, the workload schedules, and every
// BENCH artifact assume the generated networks are stable. The digests are
// pinned in tests/data/golden/datagen_digests.txt (regeneration recipe in
// tests/data/golden/README.md).

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "datagen/io.h"
#include "datagen/random_hin.h"
#include "gtest/gtest.h"
#include "workload/schedule.h"

namespace hetesim {
namespace {

std::string SerializeGraph(const HinGraph& graph) {
  std::ostringstream out;
  Status status = SaveHinGraph(graph, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

std::string SerializeSparse(const SparseMatrix& matrix) {
  // Canonical text rendering of the CSR contents: in-memory and enough
  // for a digest.
  std::ostringstream out;
  out << matrix.rows() << "x" << matrix.cols() << "\n";
  for (Index r = 0; r < matrix.rows(); ++r) {
    auto indices = matrix.RowIndices(r);
    auto values = matrix.RowValues(r);
    for (size_t j = 0; j < indices.size(); ++j) {
      out << r << " " << indices[j] << " " << values[j] << "\n";
    }
  }
  return out.str();
}

uint64_t Digest(const std::string& text) {
  return workload::Fnv1a64(text.data(), text.size());
}

/// The pinned digests, keyed by generator label.
std::map<std::string, uint64_t> LoadFixture() {
  const std::string path =
      std::string(HETESIM_TEST_DATA_DIR) + "/golden/datagen_digests.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::map<std::string, uint64_t> digests;
  std::string name, hex;
  while (in >> name >> hex) {
    digests[name] = std::stoull(hex, nullptr, 16);
  }
  return digests;
}

std::string RandomTripartiteText(uint64_t seed = 123) {
  // RandomTripartite's nodes are anonymous (SaveHinGraph requires names), so
  // digest the structural content directly: every relation's adjacency.
  const HinGraph graph = RandomTripartite(40, 60, 20, 0.1, seed);
  std::ostringstream out;
  for (RelationId r = 0; r < graph.schema().NumRelations(); ++r) {
    out << graph.schema().RelationName(r) << "\n"
        << SerializeSparse(graph.Adjacency(r));
  }
  return out.str();
}

std::string RandomBipartiteText() {
  return SerializeSparse(RandomBipartiteAdjacency(50, 70, 0.08, /*seed=*/9));
}

/// The DBLP and ACM generators build the golden top-k fixtures (at these
/// default configs), every bench graph and perfbench's reference graph.
std::string DblpText(uint64_t seed = DblpConfig{}.seed) {
  DblpConfig config;
  config.seed = seed;
  Result<DblpDataset> dblp = GenerateDblp(config);
  EXPECT_TRUE(dblp.ok()) << dblp.status().ToString();
  return SerializeGraph(dblp->graph);
}

std::string AcmText(uint64_t seed = AcmConfig{}.seed) {
  AcmConfig config;
  config.seed = seed;
  Result<AcmDataset> acm = GenerateAcm(config);
  EXPECT_TRUE(acm.ok()) << acm.status().ToString();
  return SerializeGraph(acm->graph);
}

TEST(DatagenDeterminism, SameSeedIsBitwiseIdentical) {
  EXPECT_EQ(RandomTripartiteText(), RandomTripartiteText());
  EXPECT_EQ(RandomBipartiteText(), RandomBipartiteText());
  EXPECT_EQ(DblpText(), DblpText());
  EXPECT_EQ(AcmText(), AcmText());
}

TEST(DatagenDeterminism, DifferentSeedsDiffer) {
  EXPECT_NE(RandomTripartiteText(123), RandomTripartiteText(124));
  EXPECT_NE(SerializeSparse(RandomBipartiteAdjacency(50, 70, 0.08, 9)),
            SerializeSparse(RandomBipartiteAdjacency(50, 70, 0.08, 10)));
  EXPECT_NE(DblpText(11), DblpText(12));
  EXPECT_NE(AcmText(7), AcmText(8));
}

TEST(DatagenDeterminism, DigestsMatchCheckedInFixture) {
  const std::map<std::string, uint64_t> fixture = LoadFixture();
  ASSERT_FALSE(fixture.empty());
  const struct {
    const char* name;
    std::string text;
  } cases[] = {
      {"random_tripartite", RandomTripartiteText()},
      {"random_bipartite", RandomBipartiteText()},
      {"dblp", DblpText()},
      {"acm", AcmText()},
  };
  for (const auto& c : cases) {
    auto it = fixture.find(c.name);
    ASSERT_NE(it, fixture.end()) << c.name << " missing from fixture";
    EXPECT_EQ(Digest(c.text), it->second)
        << c.name << " drifted: generator output changed for a fixed seed. "
        << "If intentional, regenerate tests/data/golden/datagen_digests.txt "
        << "(see tests/data/golden/README.md). New digest: " << std::hex
        << "0x" << Digest(c.text);
  }
}

}  // namespace
}  // namespace hetesim
