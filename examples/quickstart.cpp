// Quickstart: build a tiny bibliographic network by hand (the paper's
// Fig. 4), parse relevance paths and query HeteSim.
//
// The network: three authors (Tom, Mary, Bob), five papers, two
// conferences (KDD, SIGMOD). Tom publishes only in KDD, so HeteSim should
// rate him far more relevant to KDD than to SIGMOD along the
// author-paper-conference (A-P-C) path.

#include <cstdio>

#include "core/hetesim.h"
#include "core/topk.h"
#include "hin/builder.h"
#include "hin/metapath.h"

int main() {
  using namespace hetesim;

  // 1. Declare the schema: object types and typed relations.
  HinGraphBuilder builder;
  TypeId author = builder.AddObjectType("author", 'A').value();
  TypeId paper = builder.AddObjectType("paper", 'P').value();
  TypeId conf = builder.AddObjectType("conference", 'C').value();
  RelationId writes = builder.AddRelation("writes", author, paper).value();
  RelationId published = builder.AddRelation("published_in", paper, conf).value();

  // 2. Add nodes and edges by name (nodes are created on first use).
  struct Edge {
    const char* src;
    const char* dst;
  };
  for (const Edge& e : {Edge{"Tom", "p1"}, {"Tom", "p2"}, {"Mary", "p2"},
                        {"Mary", "p3"}, {"Mary", "p4"}, {"Bob", "p4"},
                        {"Bob", "p5"}}) {
    Status added = builder.AddEdgeByName(writes, e.src, e.dst);
    if (!added.ok()) {
      std::fprintf(stderr, "AddEdgeByName: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  for (const Edge& e : {Edge{"p1", "KDD"}, {"p2", "KDD"}, {"p3", "KDD"},
                        {"p4", "SIGMOD"}, {"p5", "SIGMOD"}}) {
    Status added = builder.AddEdgeByName(published, e.src, e.dst);
    if (!added.ok()) {
      std::fprintf(stderr, "AddEdgeByName: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  HinGraph graph = std::move(builder).Build();
  std::printf("%s\n", graph.Summary().c_str());

  // 3. Parse a relevance path by type codes and evaluate HeteSim.
  MetaPath apc = MetaPath::Parse(graph.schema(), "A-P-C").value();
  HeteSimEngine engine(graph);
  DenseMatrix relevance = engine.Compute(apc).value();

  std::printf("HeteSim along %s (authors x conferences):\n",
              apc.ToString().c_str());
  for (Index a = 0; a < graph.NumNodes(author); ++a) {
    for (Index c = 0; c < graph.NumNodes(conf); ++c) {
      std::printf("  HeteSim(%-4s, %-6s) = %.4f\n",
                  graph.NodeName(author, a).c_str(),
                  graph.NodeName(conf, c).c_str(), relevance(a, c));
    }
  }

  // 4. Symmetry (Property 3): the reverse path gives the same scores.
  MetaPath cpa = apc.Reverse();
  Index tom = graph.FindNode(author, "Tom").value();
  Index kdd = graph.FindNode(conf, "KDD").value();
  double forward = engine.ComputePair(apc, tom, kdd).value();
  double backward = engine.ComputePair(cpa, kdd, tom).value();
  std::printf("\nSymmetry: HeteSim(Tom,KDD|APC) = %.6f, "
              "HeteSim(KDD,Tom|CPA) = %.6f\n", forward, backward);

  // 5. Same-typed relevance over the symmetric path A-P-C-P-A, and a top-k
  // query: who is most related to Tom through shared conferences?
  MetaPath apcpa = MetaPath::Parse(graph.schema(), "A-P-C-P-A").value();
  TopKSearcher searcher = TopKSearcher::Prepare(graph, apcpa).value();
  TopKResult top = searcher.Query(tom, 3).value();
  std::printf("\nTop authors related to Tom along %s:\n", apcpa.ToString().c_str());
  for (const Scored& item : top.items) {
    std::printf("  %-4s  %.4f\n", graph.NodeName(author, item.id).c_str(),
                item.score);
  }
  return 0;
}
