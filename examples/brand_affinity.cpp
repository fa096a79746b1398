// Brand affinity — the paper's Section 4.1 motivating example made
// runnable: "customers are more faithful to brands that manufacture many
// products purchased by the customers". We build a customer-product-brand
// network and measure customer-brand relatedness along C-P-B with HeteSim,
// contrasting it with the asymmetric PCRW view, then rebuild the network
// with new purchases to show the scores moving.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/pcrw.h"
#include "core/hetesim.h"
#include "hin/builder.h"
#include "hin/metapath.h"

namespace hetesim {
namespace {

struct Edge {
  const char* relation;  // "bought" or "made_by"
  std::string src;
  std::string dst;
};

/// Builds the network from `edges`. Nodes are numbered in order of first
/// appearance, so appending edges keeps every existing id.
Result<HinGraph> BuildNetwork(const std::vector<Edge>& edges) {
  HinGraphBuilder builder;
  HETESIM_ASSIGN_OR_RETURN(TypeId customer, builder.AddObjectType("customer", 'C'));
  HETESIM_ASSIGN_OR_RETURN(TypeId product, builder.AddObjectType("product", 'P'));
  HETESIM_ASSIGN_OR_RETURN(TypeId brand, builder.AddObjectType("brand", 'B'));
  HETESIM_RETURN_NOT_OK(builder.AddRelation("bought", customer, product).status());
  HETESIM_RETURN_NOT_OK(builder.AddRelation("made_by", product, brand).status());
  for (const Edge& e : edges) {
    HETESIM_ASSIGN_OR_RETURN(RelationId relation,
                             builder.schema().RelationByName(e.relation));
    HETESIM_RETURN_NOT_OK(builder.AddEdgeByName(relation, e.src, e.dst));
  }
  return std::move(builder).Build();
}

/// Prints HeteSim and PCRW customer-brand affinities along C-P-B.
Status PrintAffinities(const char* heading, const std::vector<Edge>& edges) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph g, BuildNetwork(edges));
  HETESIM_ASSIGN_OR_RETURN(MetaPath cpb, MetaPath::Parse(g.schema(), "C-P-B"));
  HETESIM_ASSIGN_OR_RETURN(DenseMatrix hetesim, HeteSimEngine(g).Compute(cpb));
  DenseMatrix pcrw = PcrwMatrix(g, cpb);
  const TypeId customer = cpb.SourceType();
  const TypeId brand = cpb.TargetType();
  std::printf("%s\n%-8s", heading, "");
  for (Index b = 0; b < g.NumNodes(brand); ++b) {
    std::printf("  %14s", g.NodeName(brand, b).c_str());
  }
  std::printf("\n");
  for (Index c = 0; c < g.NumNodes(customer); ++c) {
    std::printf("%-8s", g.NodeName(customer, c).c_str());
    for (Index b = 0; b < g.NumNodes(brand); ++b) {
      std::printf("  %6.3f (%4.2f)", hetesim(c, b), pcrw(c, b));
    }
    std::printf("\n");
  }
  std::printf("         (HeteSim, PCRW-in-parentheses)\n\n");
  return Status::OK();
}

}  // namespace
}  // namespace hetesim

int main() {
  using namespace hetesim;

  std::vector<Edge> edges = {
      {"bought", "ana", "phone_x"},      {"bought", "ana", "tablet_x"},
      {"bought", "ana", "watch_x"},      {"bought", "ben", "phone_x"},
      {"bought", "ben", "laptop_y"},     {"bought", "cleo", "laptop_y"},
      {"bought", "cleo", "monitor_y"},   {"bought", "cleo", "mouse_z"},
      {"made_by", "phone_x", "Xenon"},   {"made_by", "tablet_x", "Xenon"},
      {"made_by", "watch_x", "Xenon"},   {"made_by", "laptop_y", "Yotta"},
      {"made_by", "monitor_y", "Yotta"}, {"made_by", "mouse_z", "Zephyr"},
  };
  Status printed = PrintAffinities("Customer-brand affinity along C-P-B:", edges);

  // Ana buys only Xenon: affinity 1 mutuality needs Xenon to sell only to
  // Ana too — the symmetric measure reflects both sides. Now Ben doubles
  // down on Yotta; his Yotta affinity must rise, Xenon's fall.
  if (printed.ok()) {
    std::printf(">> ben buys two more Yotta products...\n\n");
    for (const char* name : {"keyboard_y", "dock_y"}) {
      edges.push_back({"bought", "ben", name});
      edges.push_back({"made_by", name, "Yotta"});
    }
    printed = PrintAffinities("After the new purchases:", edges);
  }
  if (!printed.ok()) {
    std::fprintf(stderr, "brand_affinity: %s\n", printed.ToString().c_str());
    return 1;
  }
  return 0;
}
