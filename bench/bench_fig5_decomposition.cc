// Fig. 5 of the paper: decomposition of an atomic relation through edge
// objects, and the HeteSim values of the toy bipartite graph before
// (Fig. 5c) and after (Fig. 5d) normalization. Expected shape: a2 connects
// b2/b3/b4 equally, yet is most related to b3, its exclusive neighbor —
// (0, 0.17, 0.33, 0.17) unnormalized, with normalization pushing the
// contrast further and making self-relatedness exactly 1.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/hetesim.h"
#include "hin/builder.h"
#include "hin/metapath.h"

namespace {

using namespace hetesim;

HinGraph BuildFig5() {
  HinGraphBuilder builder;
  TypeId a = builder.AddObjectType("typeA", 'A').value();
  TypeId b = builder.AddObjectType("typeB", 'B').value();
  RelationId rel = builder.AddRelation("rel", a, b).value();
  for (const char* name : {"a1", "a2", "a3"}) builder.AddNode(a, name);
  for (const char* name : {"b1", "b2", "b3", "b4"}) builder.AddNode(b, name);
  for (auto [s, t] : {std::pair{"a1", "b1"}, {"a1", "b2"}, {"a2", "b2"},
                      {"a2", "b3"}, {"a2", "b4"}, {"a3", "b4"}}) {
    if (!builder.AddEdgeByName(rel, s, t).ok()) std::abort();
  }
  return std::move(builder).Build();
}

void PrintMatrix(const HinGraph& g, const DenseMatrix& m, const char* title) {
  TypeId a = g.schema().TypeByCode('A').value();
  TypeId b = g.schema().TypeByCode('B').value();
  std::printf("%s\n        ", title);
  for (Index j = 0; j < m.cols(); ++j) {
    std::printf("%8s", g.NodeName(b, j).c_str());
  }
  std::printf("\n");
  for (Index i = 0; i < m.rows(); ++i) {
    std::printf("  %-4s", g.NodeName(a, i).c_str());
    for (Index j = 0; j < m.cols(); ++j) std::printf("%8.3f", m(i, j));
    std::printf("\n");
  }
}

void PrintFig5Tables() {
  HinGraph g = BuildFig5();
  MetaPath ab = MetaPath::Parse(g.schema(), "AB").value();
  RelationId rel = g.schema().RelationByName("rel").value();

  std::printf("Fig 5(a/b): atomic relation AB decomposed through %lld edge "
              "objects (one per relation instance)\n",
              static_cast<long long>(g.Adjacency(rel).NumNonZeros()));
  AtomicDecomposition d = DecomposeAtomicRelation(g, {rel, true});
  std::printf("  reconstruction W_out * W_in == W: %s\n",
              d.out.Multiply(d.in).ApproxEquals(g.Adjacency(rel)) ? "exact"
                                                                  : "BROKEN");

  HeteSimEngine raw(g, {.normalized = false});
  PrintMatrix(g, raw.Compute(ab).value(),
              "\nFig 5(c): HeteSim values before normalization "
              "(paper: a2 -> (0, 0.17, 0.33, 0.17))");
  HeteSimEngine normalized(g);
  PrintMatrix(g, normalized.Compute(ab).value(),
              "\nFig 5(d): HeteSim values after normalization "
              "(a2 most related to b3, its exclusive neighbor)");
}

void BM_AtomicDecomposition(benchmark::State& state) {
  HinGraph g = BuildFig5();
  RelationId rel = g.schema().RelationByName("rel").value();
  for (auto _ : state) {
    AtomicDecomposition d = DecomposeAtomicRelation(g, {rel, true});
    benchmark::DoNotOptimize(d.num_instances);
  }
}
BENCHMARK(BM_AtomicDecomposition);

void BM_Fig5FullMatrix(benchmark::State& state) {
  HinGraph g = BuildFig5();
  MetaPath ab = MetaPath::Parse(g.schema(), "AB").value();
  HeteSimEngine engine(g);
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(ab).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
}
BENCHMARK(BM_Fig5FullMatrix);

}  // namespace

int main(int argc, char** argv) {
  PrintFig5Tables();
  return hetesim::bench::BenchMain(argc, argv, "fig5_decomposition");
}
