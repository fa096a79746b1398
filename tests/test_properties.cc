// Property-based sweeps: the semi-metric properties of Section 4.5, the
// structural invariants of the decomposition machinery and the agreement of
// every query entry point with the full matrix, checked across a grid of
// random networks (seed x density) and paths — plus a metamorphic suite
// over generated DBLP/ACM networks that re-checks the paper properties
// under every chain-plan kernel choice.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/pcrw.h"
#include "common/string_util.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "hin/digest.h"
#include "matrix/chain_plan.h"
#include "matrix/spgemm.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "store/store.h"
#include "test_util.h"

namespace hetesim {
namespace {

struct GraphCase {
  uint64_t seed;
  double density;
};

class RandomGraphProperties
    : public ::testing::TestWithParam<std::tuple<GraphCase, const char*>> {
 protected:
  RandomGraphProperties()
      : graph_(testing::RandomTripartite(9, 11, 7, std::get<0>(GetParam()).density,
                                         std::get<0>(GetParam()).seed)),
        path_(*MetaPath::Parse(graph_.schema(), std::get<1>(GetParam()))) {}
  HinGraph graph_;
  MetaPath path_;
};

TEST_P(RandomGraphProperties, NonNegativityAndSelfMaximum) {
  HeteSimEngine engine(graph_);
  DenseMatrix scores = engine.Compute(path_).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_GE(scores(i, j), -1e-15);
      EXPECT_LE(scores(i, j), 1.0 + 1e-10);
    }
  }
}

TEST_P(RandomGraphProperties, Symmetry) {
  HeteSimEngine engine(graph_);
  DenseMatrix forward = engine.Compute(path_).value();
  DenseMatrix backward = engine.Compute(path_.Reverse()).value();
  EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-10));
}

TEST_P(RandomGraphProperties, IdentityOfIndiscerniblesOnSymmetricPaths) {
  if (!path_.IsSymmetric()) GTEST_SKIP() << "asymmetric path";
  HeteSimEngine engine(graph_);
  DenseMatrix scores = engine.Compute(path_).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    // dis(a, a) = 1 - HeteSim(a, a) = 0 (every node reaches the middle in
    // these generated graphs), and no pair scores above the self-score.
    EXPECT_NEAR(scores(i, i), 1.0, 1e-10);
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_LE(scores(i, j), scores(i, i) + 1e-10);
    }
  }
}

TEST_P(RandomGraphProperties, NormalizedIsCosineOfUnnormalizedHalves) {
  HeteSimEngine normalized(graph_);
  HeteSimEngine raw(graph_, {.normalized = false});
  PathDecomposition d = DecomposePath(graph_, path_);
  SparseMatrix left = LeftReachMatrix(d);
  SparseMatrix right = RightReachMatrix(d);
  DenseMatrix n = normalized.Compute(path_).value();
  DenseMatrix u = raw.Compute(path_).value();
  for (Index i = 0; i < n.rows(); ++i) {
    const double li = left.RowNorm(i);
    for (Index j = 0; j < n.cols(); ++j) {
      const double rj = right.RowNorm(j);
      if (li > 0 && rj > 0) {
        EXPECT_NEAR(n(i, j), u(i, j) / (li * rj), 1e-10);
      }
    }
  }
}

TEST_P(RandomGraphProperties, CacheTransparency) {
  auto cache = std::make_shared<PathMatrixCache>();
  HeteSimEngine cached(graph_, {}, cache);
  HeteSimEngine uncached(graph_);
  EXPECT_TRUE(cached.Compute(path_).value().ApproxEquals(
      uncached.Compute(path_).value(), 1e-12));
  // Three queries, but each distinct half is computed exactly once; on a
  // symmetric path the two halves share one canonical cache entry.
  cached.Compute(path_).value();
  (void)cached.ComputePair(path_, 0, 0);
  EXPECT_EQ(cache->stats().misses, path_.IsSymmetric() ? 1u : 2u);
  EXPECT_GE(cache->stats().hits, 4u);
}

TEST_P(RandomGraphProperties, PooledComputeIsThreadCountInvariant) {
  // The pooled runtime must be a pure performance knob: num_threads 1
  // (inline), 2 (partial) and 0 (all hardware threads) agree entrywise.
  HeteSimEngine sequential(graph_);
  DenseMatrix expected = sequential.Compute(path_).value();
  for (int threads : {2, 0}) {
    HeteSimOptions options;
    options.num_threads = threads;
    HeteSimEngine pooled(graph_, options);
    DenseMatrix scores = pooled.Compute(path_).value();
    ASSERT_EQ(scores.rows(), expected.rows());
    ASSERT_EQ(scores.cols(), expected.cols());
    EXPECT_TRUE(scores.ApproxEquals(expected, 1e-12)) << threads;
    EXPECT_LE(scores.MaxAbsDiff(expected), 0.0) << threads;  // in fact bitwise
  }
}

TEST_P(RandomGraphProperties, SemiMetricPropertiesHoldUnderPooledPath) {
  // Re-assert Section 4.5 under num_threads = 0: range [0, 1], symmetry
  // (HeteSim(a,b|P) = HeteSim(b,a|P^-1)), and self-maximum (Property 4).
  HeteSimOptions options;
  options.num_threads = 0;
  HeteSimEngine engine(graph_, options);
  DenseMatrix forward = engine.Compute(path_).value();
  DenseMatrix backward = engine.Compute(path_.Reverse()).value();
  EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-10));
  for (Index i = 0; i < forward.rows(); ++i) {
    for (Index j = 0; j < forward.cols(); ++j) {
      EXPECT_GE(forward(i, j), -1e-15);
      EXPECT_LE(forward(i, j), 1.0 + 1e-10);
    }
  }
  if (path_.IsSymmetric()) {
    for (Index i = 0; i < forward.rows(); ++i) {
      EXPECT_NEAR(forward(i, i), 1.0, 1e-10);
      for (Index j = 0; j < forward.cols(); ++j) {
        EXPECT_LE(forward(i, j), forward(i, i) + 1e-10);
      }
    }
  }
}

TEST_P(RandomGraphProperties, PrunedTopKIsExact) {
  TopKSearcher searcher = TopKSearcher::Prepare(graph_, path_).value();
  const Index n = graph_.NumNodes(path_.SourceType());
  for (Index s = 0; s < n; ++s) {
    TopKResult pruned = *searcher.Query(s, 4);
    TopKResult exhaustive = *searcher.QueryExhaustive(s, 4);
    size_t positive = 0;
    while (positive < exhaustive.items.size() &&
           exhaustive.items[positive].score > 0.0) {
      ++positive;
    }
    ASSERT_EQ(pruned.items.size(), positive);
    for (size_t k = 0; k < positive; ++k) {
      EXPECT_EQ(pruned.items[k].id, exhaustive.items[k].id);
      EXPECT_NEAR(pruned.items[k].score, exhaustive.items[k].score, 1e-10);
    }
  }
}

TEST_P(RandomGraphProperties, PcrwRowsSumToAtMostOne) {
  DenseMatrix pcrw = PcrwMatrix(graph_, path_);
  for (Index i = 0; i < pcrw.rows(); ++i) {
    double sum = 0.0;
    for (Index j = 0; j < pcrw.cols(); ++j) sum += pcrw(i, j);
    EXPECT_LE(sum, 1.0 + 1e-10);
  }
}

TEST_P(RandomGraphProperties, DecompositionHalvesHaveMatchingMiddle) {
  PathDecomposition d = DecomposePath(graph_, path_);
  SparseMatrix left = LeftReachMatrix(d);
  SparseMatrix right = RightReachMatrix(d);
  EXPECT_EQ(left.cols(), d.middle_dimension);
  EXPECT_EQ(right.cols(), d.middle_dimension);
  EXPECT_EQ(left.rows(), graph_.NumNodes(path_.SourceType()));
  EXPECT_EQ(right.rows(), graph_.NumNodes(path_.TargetType()));
  EXPECT_EQ(d.edge_object_inserted, path_.length() % 2 == 1);
}

/// Asserts that `items` ranks exactly the positive entries of `row`, each
/// within 1e-12 of its score there, best first. Near-ties may order either
/// way, so ids are matched by value rather than by position.
void ExpectRanksPositiveEntries(const std::vector<Scored>& items,
                                const std::vector<double>& row) {
  std::vector<Index> positive;
  for (size_t t = 0; t < row.size(); ++t) {
    if (row[t] > 0.0) positive.push_back(static_cast<Index>(t));
  }
  std::vector<Index> ranked;
  for (size_t i = 0; i < items.size(); ++i) {
    ranked.push_back(items[i].id);
    EXPECT_NEAR(items[i].score, row[static_cast<size_t>(items[i].id)], 1e-12);
    if (i > 0) {
      EXPECT_LE(items[i].score, items[i - 1].score);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  EXPECT_EQ(ranked, positive);
}

TEST_P(RandomGraphProperties, EveryEntryPointAgreesWithCompute) {
  // Differential check of every query entry point against the full matrix:
  // the engine (pair, single-source and top-k) without and with a cache,
  // a searcher over that cache, a fresh cache reading a store the first one
  // was flushed to, and a service called in process and over its socket.
  HeteSimEngine uncached(graph_);
  const DenseMatrix expected = uncached.Compute(path_).value();
  const Index num_sources = expected.rows();
  const Index num_targets = expected.cols();
  std::vector<std::pair<Index, Index>> all_pairs;
  for (Index s = 0; s < num_sources; ++s) {
    for (Index t = 0; t < num_targets; ++t) all_pairs.emplace_back(s, t);
  }
  auto expect_engine_agrees = [&](const HeteSimEngine& engine, const char* label) {
    SCOPED_TRACE(label);
    const std::vector<double> pairs = engine.ComputePairs(path_, all_pairs).value();
    ASSERT_EQ(pairs.size(), all_pairs.size());
    for (Index s = 0; s < num_sources; ++s) {
      const std::vector<double> row = engine.ComputeSingleSource(path_, s).value();
      ASSERT_EQ(row.size(), static_cast<size_t>(num_targets));
      for (Index t = 0; t < num_targets; ++t) {
        const size_t at = static_cast<size_t>(s * num_targets + t);
        EXPECT_NEAR(engine.ComputePair(path_, s, t).value(), expected(s, t), 1e-12);
        EXPECT_NEAR(pairs[at], expected(s, t), 1e-12);
        EXPECT_NEAR(row[static_cast<size_t>(t)], expected(s, t), 1e-12);
      }
      const TopKResult top =
          engine.ComputeTopK(path_, s, static_cast<int>(num_targets)).value();
      ExpectRanksPositiveEntries(top.items, expected.Row(s));
    }
  };
  expect_engine_agrees(uncached, "uncached");

  auto cache = std::make_shared<PathMatrixCache>();
  expect_engine_agrees(HeteSimEngine(graph_, {}, cache), "cached");
  const TopKSearcher searcher =
      TopKSearcher::Prepare(graph_, path_, {}, QueryContext::Background(), cache.get())
          .value();
  for (Index s = 0; s < num_sources; ++s) {
    SCOPED_TRACE(s);
    const TopKResult top =
        searcher.Query(s, static_cast<int>(num_targets)).value();
    ExpectRanksPositiveEntries(top.items, expected.Row(s));
  }

  // A restarted process: a fresh cache over the store the first cache was
  // flushed to serves both halves without computing either.
  std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("hetesim_props_" + name);
  std::filesystem::remove_all(dir);
  StoreOptions store_options;
  store_options.directory = dir.string();
  store_options.graph_digest = GraphDigest(graph_);
  std::shared_ptr<MatrixStore> store = MatrixStore::Open(store_options).value();
  cache->AttachStore(store);
  ASSERT_TRUE(cache->FlushToStore().ok());
  auto restarted = std::make_shared<PathMatrixCache>();
  restarted->AttachStore(MatrixStore::Open(store_options).value());
  expect_engine_agrees(HeteSimEngine(graph_, {}, restarted), "store");
  EXPECT_EQ(restarted->ComputeCount(PathMatrixCache::LeftKey(path_)), 0u);
  EXPECT_EQ(restarted->ComputeCount(PathMatrixCache::RightKey(path_)), 0u);
  std::filesystem::remove_all(dir);

  // One service, called in process and through its socket server.
  std::unique_ptr<service::QueryService> svc =
      service::QueryService::Create(graph_, service::ServiceOptions{});
  service::ServerOptions server_options;
  server_options.socket_path = StrFormat(
      "%shsp_%d.sock", ::testing::TempDir().c_str(), static_cast<int>(getpid()));
  server_options.max_connections = 2;
  std::unique_ptr<service::SocketServer> server =
      service::SocketServer::Start(svc.get(), server_options).value();
  service::InProcessClient in_process(svc.get());
  service::SocketClient over_socket(server_options.socket_path);
  const std::pair<const char*, service::ServiceClient*> clients[] = {
      {"in process", &in_process}, {"socket", &over_socket}};
  for (const auto& [label, client] : clients) {
    SCOPED_TRACE(label);
    for (Index s = 0; s < num_sources; ++s) {
      SCOPED_TRACE(s);
      service::QueryRequest request;
      request.path = std::get<1>(GetParam());
      request.source = s;
      request.kind = service::QueryKind::kSingleSource;
      const service::QueryResponse single = client->Execute(request);
      ASSERT_EQ(single.outcome, service::ResponseOutcome::kOk) << single.message;
      ASSERT_EQ(single.scores.size(), static_cast<size_t>(num_targets));
      request.kind = service::QueryKind::kTopK;
      request.k = static_cast<int32_t>(num_targets);
      const service::QueryResponse top = client->Execute(request);
      ASSERT_EQ(top.outcome, service::ResponseOutcome::kOk) << top.message;
      ExpectRanksPositiveEntries(top.items, expected.Row(s));
      request.kind = service::QueryKind::kPair;
      for (Index t = 0; t < num_targets; ++t) {
        EXPECT_NEAR(single.scores[static_cast<size_t>(t)], expected(s, t), 1e-12);
        request.target = t;
        const service::QueryResponse pair = client->Execute(request);
        ASSERT_EQ(pair.outcome, service::ResponseOutcome::kOk) << pair.message;
        ASSERT_EQ(pair.scores.size(), 1u);
        EXPECT_NEAR(pair.scores[0], expected(s, t), 1e-12);
      }
    }
  }
  server->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsDensitiesPaths, RandomGraphProperties,
    ::testing::Combine(::testing::Values(GraphCase{1, 0.15}, GraphCase{2, 0.3},
                                         GraphCase{3, 0.5}, GraphCase{4, 0.8}),
                       ::testing::Values("AB", "ABC", "ABA", "ABCBA", "CBA",
                                         "BCB", "BAB", "ABCB")));

// --- Invariances of the measure ---

class InvarianceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvarianceProperty, UniformEdgeWeightScalingLeavesScoresUnchanged) {
  // Transition matrices row-normalize the adjacency, so scaling every
  // weight of a relation by a constant must not change any HeteSim score.
  HinGraph original = testing::RandomTripartite(8, 10, 6, 0.3, GetParam());
  HinGraphBuilder builder;
  const Schema& schema = original.schema();
  for (TypeId t = 0; t < schema.NumObjectTypes(); ++t) {
    EXPECT_TRUE(builder
                    .AddObjectType(schema.TypeName(t), schema.TypeCode(t))
                    .ok());
    builder.AddNodes(t, original.NumNodes(t));
  }
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    EXPECT_TRUE(builder
                    .AddRelation(schema.RelationName(r), schema.RelationSource(r),
                                 schema.RelationTarget(r))
                    .ok());
    const double scale = r == 0 ? 7.5 : 0.25;  // different constant per relation
    const SparseMatrix& w = original.Adjacency(r);
    for (Index i = 0; i < w.rows(); ++i) {
      auto indices = w.RowIndices(i);
      auto values = w.RowValues(i);
      for (size_t k = 0; k < indices.size(); ++k) {
        EXPECT_TRUE(builder.AddEdge(r, i, indices[k], values[k] * scale).ok());
      }
    }
  }
  HinGraph scaled = std::move(builder).Build();
  HeteSimEngine original_engine(original);
  HeteSimEngine scaled_engine(scaled);
  for (const char* spec : {"AB", "ABC", "ABA"}) {
    MetaPath original_path = *MetaPath::Parse(original.schema(), spec);
    MetaPath scaled_path = *MetaPath::Parse(scaled.schema(), spec);
    EXPECT_TRUE(original_engine.Compute(original_path).value()
                    .ApproxEquals(scaled_engine.Compute(scaled_path).value(), 1e-10))
        << spec;
  }
}

TEST_P(InvarianceProperty, NodeRelabelingPermutesScores) {
  // Renaming/reordering the objects of one type permutes the relevance
  // matrix rows accordingly — scores depend on structure, not on ids.
  HinGraph original = testing::RandomTripartite(9, 7, 5, 0.35, GetParam() + 100);
  const Schema& schema = original.schema();
  const Index na = original.NumNodes(0);
  Rng rng(GetParam() * 13 + 5);
  std::vector<Index> new_id(static_cast<size_t>(na));
  for (Index i = 0; i < na; ++i) new_id[static_cast<size_t>(i)] = i;
  rng.Shuffle(new_id);

  HinGraphBuilder builder;
  for (TypeId t = 0; t < schema.NumObjectTypes(); ++t) {
    EXPECT_TRUE(builder
                    .AddObjectType(schema.TypeName(t), schema.TypeCode(t))
                    .ok());
    builder.AddNodes(t, original.NumNodes(t));
  }
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    EXPECT_TRUE(builder
                    .AddRelation(schema.RelationName(r), schema.RelationSource(r),
                                 schema.RelationTarget(r))
                    .ok());
    const SparseMatrix& w = original.Adjacency(r);
    const bool permute_rows = schema.RelationSource(r) == 0;
    for (Index i = 0; i < w.rows(); ++i) {
      const Index row = permute_rows ? new_id[static_cast<size_t>(i)] : i;
      auto indices = w.RowIndices(i);
      auto values = w.RowValues(i);
      for (size_t k = 0; k < indices.size(); ++k) {
        // Type 0 never appears as a relation target in RandomTripartite.
        EXPECT_TRUE(builder.AddEdge(r, row, indices[k], values[k]).ok());
      }
    }
  }
  HinGraph permuted = std::move(builder).Build();
  HeteSimEngine original_engine(original);
  HeteSimEngine permuted_engine(permuted);
  MetaPath original_path = *MetaPath::Parse(original.schema(), "ABC");
  MetaPath permuted_path = *MetaPath::Parse(permuted.schema(), "ABC");
  DenseMatrix original_scores = original_engine.Compute(original_path).value();
  DenseMatrix permuted_scores = permuted_engine.Compute(permuted_path).value();
  for (Index i = 0; i < na; ++i) {
    for (Index j = 0; j < original_scores.cols(); ++j) {
      EXPECT_NEAR(original_scores(i, j),
                  permuted_scores(new_id[static_cast<size_t>(i)], j), 1e-10);
    }
  }
}

TEST_P(InvarianceProperty, DuplicateEdgeEqualsDoubledWeight) {
  // Two unit edges between the same endpoints behave exactly like one
  // weight-2 edge (Definition 8 works on weighted adjacency).
  HinGraphBuilder duplicate_builder;
  HinGraphBuilder weighted_builder;
  for (HinGraphBuilder* builder : {&duplicate_builder, &weighted_builder}) {
    EXPECT_TRUE(builder->AddObjectType("alpha", 'A').ok());
    EXPECT_TRUE(builder->AddObjectType("beta", 'B').ok());
    EXPECT_TRUE(builder->AddRelation("r", 0, 1).ok());
    builder->AddNodes(0, 3);
    builder->AddNodes(1, 3);
  }
  Rng rng(GetParam() + 200);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) {
      if (rng.Bernoulli(0.6)) {
        EXPECT_TRUE(duplicate_builder.AddEdge(0, i, j, 1.0).ok());
        EXPECT_TRUE(duplicate_builder.AddEdge(0, i, j, 1.0).ok());
        EXPECT_TRUE(weighted_builder.AddEdge(0, i, j, 2.0).ok());
      } else {
        EXPECT_TRUE(duplicate_builder.AddEdge(0, i, j, 1.0).ok());
        EXPECT_TRUE(weighted_builder.AddEdge(0, i, j, 1.0).ok());
      }
    }
  }
  HinGraph duplicated = std::move(duplicate_builder).Build();
  HinGraph weighted = std::move(weighted_builder).Build();
  HeteSimEngine duplicated_engine(duplicated);
  HeteSimEngine weighted_engine(weighted);
  MetaPath dup_path = *MetaPath::Parse(duplicated.schema(), "AB");
  MetaPath weight_path = *MetaPath::Parse(weighted.schema(), "AB");
  EXPECT_TRUE(duplicated_engine.Compute(dup_path).value()
                  .ApproxEquals(weighted_engine.Compute(weight_path).value(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceProperty,
                         ::testing::Values(71, 72, 73, 74));

// --- Atomic decomposition uniqueness (Property 1) across random graphs ---

class AtomicDecompositionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AtomicDecompositionProperty, ReconstructionIsExact) {
  HinGraph g = testing::RandomTripartite(10, 12, 8, 0.3, GetParam());
  for (RelationId r = 0; r < g.schema().NumRelations(); ++r) {
    for (bool forward : {true, false}) {
      AtomicDecomposition d = DecomposeAtomicRelation(g, {r, forward});
      EXPECT_TRUE(d.out.Multiply(d.in).ApproxEquals(
          g.StepAdjacency({r, forward}), 1e-12));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicDecompositionProperty,
                         ::testing::Values(10, 20, 30, 40, 50));

// --- Metamorphic suite over generated DBLP/ACM networks ---
//
// The grid above uses small uniform random tripartite graphs; this suite
// runs the paper properties on the *skewed* synthetic bibliographic
// networks (Zipf productivity, home-area affinity) and, crucially,
// re-checks each property under every chain-plan kernel choice: the three
// forced per-row SpGEMM accumulators, the adaptive default, and the
// all-dense representation switch. A paper property that holds under one
// accumulator but drifts under another is a kernel bug, not a modeling
// choice — the forced runs pin that down.

struct KernelChoice {
  const char* name;
  SpGemmOptions spgemm;
  ChainPlanOptions plan;
  /// Allowed deviation from the adaptive choice (index 0). The forced
  /// per-row accumulators document bitwise agreement with the seed kernel;
  /// the all-dense representation switch changes the accumulation object
  /// (never the association), so it is compared within rounding.
  double bitwise_tolerance;
};

const KernelChoice kKernelChoices[] = {
    {"adaptive", {}, {}, 0.0},
    {"sorted_merge", {RowKernel::kSortedMerge}, {}, 0.0},
    {"hash", {RowKernel::kHash}, {}, 0.0},
    {"dense_scratch", {RowKernel::kDenseScratch}, {}, 0.0},
    {"all_dense", {}, {.dense_switch_density = 0.0}, 1e-10},
};

struct MetamorphicCase {
  const char* dataset;
  uint64_t seed;
  const char* path;
};

void PrintTo(const MetamorphicCase& c, std::ostream* os) {
  *os << c.dataset << "_seed" << c.seed << "_" << c.path;
}

/// Generated networks shared across the suite (generation dominates the
/// test runtime, so each (dataset, seed) graph is built once).
const HinGraph& MetamorphicGraph(const std::string& dataset, uint64_t seed) {
  static std::map<std::string, HinGraph>* const kCache =
      new std::map<std::string, HinGraph>();  // hetesim-lint: allow(no-naked-new)
  const std::string key = dataset + ":" + std::to_string(seed);
  auto it = kCache->find(key);
  if (it != kCache->end()) return it->second;
  if (dataset == "dblp") {
    DblpConfig config;
    config.num_papers = 260;
    config.num_authors = 180;
    config.num_terms = 120;
    config.seed = seed;
    return kCache->emplace(key, std::move(GenerateDblp(config)->graph))
        .first->second;
  }
  AcmConfig config;
  config.num_papers = 220;
  config.num_authors = 180;
  config.num_affiliations = 40;
  config.num_terms = 120;
  config.num_subjects = 25;
  config.seed = seed;
  return kCache->emplace(key, std::move(GenerateAcm(config)->graph))
      .first->second;
}

/// Chain product through the planner with the choice's forced options.
SparseMatrix HalfProduct(const std::vector<SparseMatrix>& chain,
                         const KernelChoice& choice) {
  const ChainPlan plan = PlanChain(chain, choice.plan);
  return ExecuteChainPlan(chain, plan, /*num_threads=*/1, QueryContext::Background(),
                          choice.spgemm)
      .value();
}

/// HeteSim relevance matrix computed from the decomposition halves with a
/// pinned kernel choice (Equation 6: cosine-normalized meeting product).
DenseMatrix RelevanceViaKernel(const HinGraph& graph, const MetaPath& path,
                               const KernelChoice& choice, bool normalized) {
  const PathDecomposition d = DecomposePath(graph, path);
  const SparseMatrix left = HalfProduct(d.left_transitions, choice);
  const SparseMatrix right = HalfProduct(d.right_transitions, choice);
  DenseMatrix scores = left.Multiply(right.Transpose()).ToDense();
  if (!normalized) return scores;
  for (Index i = 0; i < scores.rows(); ++i) {
    const double li = left.RowNorm(i);
    for (Index j = 0; j < scores.cols(); ++j) {
      const double rj = right.RowNorm(j);
      if (li > 0.0 && rj > 0.0) scores(i, j) /= li * rj;
    }
  }
  return scores;
}

class MetamorphicKernelProperties
    : public ::testing::TestWithParam<MetamorphicCase> {
 protected:
  MetamorphicKernelProperties()
      : graph_(MetamorphicGraph(GetParam().dataset, GetParam().seed)),
        path_(*MetaPath::Parse(graph_.schema(), GetParam().path)) {}
  const HinGraph& graph_;
  MetaPath path_;
};

TEST_P(MetamorphicKernelProperties, KernelChoicesAgreeWithEngine) {
  HeteSimEngine engine(graph_);
  const DenseMatrix reference = engine.Compute(path_).value();
  std::vector<DenseMatrix> per_choice;
  for (const KernelChoice& choice : kKernelChoices) {
    SCOPED_TRACE(choice.name);
    per_choice.push_back(RelevanceViaKernel(graph_, path_, choice, true));
    const DenseMatrix& scores = per_choice.back();
    ASSERT_EQ(scores.rows(), reference.rows());
    ASSERT_EQ(scores.cols(), reference.cols());
    // The engine's own evaluation may associate the chain differently per
    // its cost model, so it is compared within rounding; the forced sparse
    // kernels are additionally held bitwise to the adaptive choice below.
    EXPECT_TRUE(scores.ApproxEquals(reference, 1e-10));
  }
  for (size_t c = 0; c < std::size(kKernelChoices); ++c) {
    SCOPED_TRACE(kKernelChoices[c].name);
    EXPECT_LE(per_choice[c].MaxAbsDiff(per_choice[0]),
              kKernelChoices[c].bitwise_tolerance);
  }
}

TEST_P(MetamorphicKernelProperties, SymmetryUnderEveryKernelChoice) {
  // HeteSim(a, b | P) == HeteSim(b, a | P^-1) (Section 4.5), re-derived
  // from scratch for the reversed path under each pinned kernel.
  for (const KernelChoice& choice : kKernelChoices) {
    SCOPED_TRACE(choice.name);
    const DenseMatrix forward = RelevanceViaKernel(graph_, path_, choice, true);
    const DenseMatrix backward =
        RelevanceViaKernel(graph_, path_.Reverse(), choice, true);
    EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-10));
  }
}

TEST_P(MetamorphicKernelProperties, RangeAndSelfMaximumUnderEveryKernelChoice) {
  for (const KernelChoice& choice : kKernelChoices) {
    SCOPED_TRACE(choice.name);
    const DenseMatrix scores = RelevanceViaKernel(graph_, path_, choice, true);
    for (Index i = 0; i < scores.rows(); ++i) {
      for (Index j = 0; j < scores.cols(); ++j) {
        EXPECT_GE(scores(i, j), -1e-15);
        EXPECT_LE(scores(i, j), 1.0 + 1e-10);
      }
    }
    if (!path_.IsSymmetric()) continue;
    for (Index i = 0; i < scores.rows(); ++i) {
      if (scores(i, i) > 1e-12) {
        // Objects that reach the middle at all score exactly 1 on
        // themselves (Property 4); Zipf productivity leaves some authors
        // with no papers, whose self-score is legitimately 0.
        EXPECT_NEAR(scores(i, i), 1.0, 1e-10);
      }
      for (Index j = 0; j < scores.cols(); ++j) {
        EXPECT_LE(scores(i, j), scores(i, i) + 1e-10);
      }
    }
  }
}

TEST_P(MetamorphicKernelProperties, OddPathEdgeObjectEquivalence) {
  // Definition 6 / Property 1 on an odd path: the middle atomic relation
  // splits through edge objects with sqrt weights, and `W_out * W_in` must
  // reconstruct the original step adjacency — here with the reconstruction
  // product itself executed through the chain planner under every kernel
  // choice, and the planned half products of the decomposed path held to
  // the reference reach matrices.
  if (path_.length() % 2 == 0) GTEST_SKIP() << "even path";
  const PathDecomposition d = DecomposePath(graph_, path_);
  ASSERT_TRUE(d.edge_object_inserted);
  const SparseMatrix left_reference = LeftReachMatrix(d);
  const SparseMatrix right_reference = RightReachMatrix(d);
  for (const KernelChoice& choice : kKernelChoices) {
    SCOPED_TRACE(choice.name);
    for (RelationId r = 0; r < graph_.schema().NumRelations(); ++r) {
      for (bool forward : {true, false}) {
        const AtomicDecomposition atomic =
            DecomposeAtomicRelation(graph_, {r, forward});
        const SparseMatrix reconstructed =
            HalfProduct({atomic.out, atomic.in}, choice);
        EXPECT_TRUE(reconstructed.ApproxEquals(
            graph_.StepAdjacency({r, forward}), 1e-12))
            << "relation " << r << (forward ? " forward" : " reverse");
      }
    }
    EXPECT_TRUE(
        HalfProduct(d.left_transitions, choice).ApproxEquals(left_reference, 1e-10));
    EXPECT_TRUE(HalfProduct(d.right_transitions, choice)
                    .ApproxEquals(right_reference, 1e-10));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DblpAcm, MetamorphicKernelProperties,
    ::testing::Values(MetamorphicCase{"dblp", 11, "APA"},
                      MetamorphicCase{"dblp", 11, "APCPA"},
                      MetamorphicCase{"dblp", 11, "AP"},
                      MetamorphicCase{"dblp", 23, "APC"},
                      MetamorphicCase{"dblp", 23, "APCP"},
                      MetamorphicCase{"acm", 7, "APA"},
                      MetamorphicCase{"acm", 7, "APVPA"},
                      MetamorphicCase{"acm", 19, "APVP"},
                      MetamorphicCase{"acm", 19, "PV"}));

}  // namespace
}  // namespace hetesim
