// Golden-file regression for top-k relevance rankings: checked-in fixtures
// under tests/data/golden/ pin the exact ranked ids and scores (to 1e-12)
// of representative queries on the deterministic synthetic networks, so any
// numerical drift in the path decomposition, chain planner, SpGEMM kernels,
// or normalization fails loudly instead of silently reordering results.
//
// The paper's DBLP experiments use APC and APCPA; its venue-mediated path
// APVPA needs a venue type, which the synthetic DBLP schema (A, P, C, T)
// does not model — the ACM network (which has V) carries that fixture.
//
// Regenerate after an intentional semantic change with:
//   HETESIM_REGEN_GOLDEN=1 ./tests/test_golden
// (writes into the source tree via HETESIM_TEST_DATA_DIR, then re-verifies).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"

namespace hetesim {
namespace {

constexpr int kTopK = 10;
constexpr double kTolerance = 1e-12;
/// Rankings pinned per fixture. The fixture stores its own source ids:
/// regeneration picks the first `kNumSources` sources with a non-empty
/// ranking (synthetic Zipf productivity leaves some authors paperless, and
/// an all-empty golden file would pin nothing).
constexpr int kNumSources = 5;

std::string FixturePath(const std::string& name) {
  return std::string(HETESIM_TEST_DATA_DIR) + "/golden/" + name;
}

const HinGraph& DblpGraph() {
  static const DblpDataset* const kDataset =
      new DblpDataset(*GenerateDblp(DblpConfig{}));
  return kDataset->graph;
}

const HinGraph& AcmGraph() {
  static const AcmDataset* const kDataset =
      new AcmDataset(*GenerateAcm(AcmConfig{}));
  return kDataset->graph;
}

/// One source's golden ranking.
struct GoldenQuery {
  Index source = -1;
  std::vector<Scored> items;
};

std::vector<GoldenQuery> RunQueries(const TopKSearcher& searcher,
                                    const std::vector<Index>& sources) {
  std::vector<GoldenQuery> out;
  for (Index source : sources) {
    GoldenQuery q;
    q.source = source;
    q.items = searcher.Query(source, kTopK).value().items;
    out.push_back(std::move(q));
  }
  return out;
}

/// The first `kNumSources` sources whose ranking is non-empty, in id order.
std::vector<Index> PickSources(const TopKSearcher& searcher,
                               Index num_sources) {
  std::vector<Index> out;
  for (Index s = 0; s < num_sources && static_cast<int>(out.size()) < kNumSources;
       ++s) {
    if (!searcher.Query(s, kTopK).value().items.empty()) out.push_back(s);
  }
  return out;
}

void WriteFixture(const std::string& file, const std::string& dataset,
                  const std::string& path_spec,
                  const std::vector<GoldenQuery>& queries) {
  std::ofstream out(FixturePath(file));
  ASSERT_TRUE(out.is_open()) << FixturePath(file);
  out << "golden v1 dataset=" << dataset << " path=" << path_spec
      << " k=" << kTopK << "\n";
  char line[64];
  for (const GoldenQuery& q : queries) {
    out << "source " << q.source << "\n";
    for (const Scored& item : q.items) {
      std::snprintf(line, sizeof(line), "%lld %.17g\n",
                    static_cast<long long>(item.id), item.score);
      out << line;
    }
  }
  ASSERT_TRUE(out.good()) << FixturePath(file);
}

std::vector<GoldenQuery> ReadFixture(const std::string& file) {
  std::ifstream in(FixturePath(file));
  EXPECT_TRUE(in.is_open())
      << FixturePath(file)
      << " missing — regenerate with HETESIM_REGEN_GOLDEN=1 ./test_golden";
  std::vector<GoldenQuery> out;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string word;
    fields >> word;
    if (word == "source") {
      GoldenQuery q;
      fields >> q.source;
      out.push_back(std::move(q));
    } else {
      Scored item;
      item.id = static_cast<Index>(std::stoll(word));
      fields >> item.score;
      EXPECT_FALSE(out.empty()) << "item line before any 'source' in " << file;
      if (!out.empty()) out.back().items.push_back(item);
    }
  }
  return out;
}

void CheckAgainstGolden(const HinGraph& graph, const std::string& dataset,
                        const std::string& path_spec,
                        const std::string& file) {
  const MetaPath path = *MetaPath::Parse(graph.schema(), path_spec);
  TopKSearcher searcher = TopKSearcher::Prepare(graph, path).value();
  if (std::getenv("HETESIM_REGEN_GOLDEN") != nullptr) {
    const std::vector<Index> sources =
        PickSources(searcher, graph.NumNodes(path.SourceType()));
    WriteFixture(file, dataset, path_spec, RunQueries(searcher, sources));
  }
  const std::vector<GoldenQuery> golden = ReadFixture(file);
  ASSERT_EQ(golden.size(), static_cast<size_t>(kNumSources)) << file;
  std::vector<Index> sources;
  for (const GoldenQuery& q : golden) sources.push_back(q.source);
  const std::vector<GoldenQuery> actual = RunQueries(searcher, sources);
  for (size_t q = 0; q < golden.size(); ++q) {
    SCOPED_TRACE(path_spec + " source " + std::to_string(golden[q].source));
    ASSERT_FALSE(golden[q].items.empty());
    ASSERT_EQ(actual[q].items.size(), golden[q].items.size());
    for (size_t r = 0; r < golden[q].items.size(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_EQ(actual[q].items[r].id, golden[q].items[r].id);
      EXPECT_LE(std::abs(actual[q].items[r].score - golden[q].items[r].score),
                kTolerance)
          << "golden " << golden[q].items[r].score << " actual "
          << actual[q].items[r].score;
    }
  }
}

TEST(GoldenTopK, DblpApc) {
  CheckAgainstGolden(DblpGraph(), "dblp", "APC", "dblp_apc.topk");
}

TEST(GoldenTopK, DblpApcpa) {
  CheckAgainstGolden(DblpGraph(), "dblp", "APCPA", "dblp_apcpa.topk");
}

TEST(GoldenTopK, AcmApvpa) {
  CheckAgainstGolden(AcmGraph(), "acm", "APVPA", "acm_apvpa.topk");
}

}  // namespace
}  // namespace hetesim
