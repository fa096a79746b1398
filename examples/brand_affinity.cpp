// Brand affinity — the paper's Section 4.1 motivating example made
// runnable: "customers are more faithful to brands that manufacture many
// products purchased by the customers". We build a customer-product-brand
// network and measure customer-brand relatedness along C-P-B with HeteSim,
// contrasting it with the asymmetric PCRW view, and use the dynamic-graph
// API to show scores updating as new purchases stream in.

#include <cstdio>

#include "baselines/pcrw.h"
#include "core/hetesim.h"
#include "hin/builder.h"
#include "hin/dynamic.h"
#include "hin/metapath.h"

int main() {
  using namespace hetesim;

  HinGraphBuilder builder;
  TypeId customer = builder.AddObjectType("customer", 'C').value();
  TypeId product = builder.AddObjectType("product", 'P').value();
  TypeId brand = builder.AddObjectType("brand", 'B').value();
  RelationId bought = builder.AddRelation("bought", customer, product).value();
  RelationId made_by = builder.AddRelation("made_by", product, brand).value();

  struct Edge {
    RelationId relation;
    const char* src;
    const char* dst;
  };
  const Edge edges[] = {
      {bought, "ana", "phone_x"},    {bought, "ana", "tablet_x"},
      {bought, "ana", "watch_x"},    {bought, "ben", "phone_x"},
      {bought, "ben", "laptop_y"},   {bought, "cleo", "laptop_y"},
      {bought, "cleo", "monitor_y"}, {bought, "cleo", "mouse_z"},
      {made_by, "phone_x", "Xenon"}, {made_by, "tablet_x", "Xenon"},
      {made_by, "watch_x", "Xenon"}, {made_by, "laptop_y", "Yotta"},
      {made_by, "monitor_y", "Yotta"}, {made_by, "mouse_z", "Zephyr"},
  };
  for (const Edge& e : edges) {
    Status added = builder.AddEdgeByName(e.relation, e.src, e.dst);
    if (!added.ok()) {
      std::fprintf(stderr, "AddEdgeByName: %s\n", added.ToString().c_str());
      return 1;
    }
  }

  DynamicHinGraph network(std::move(builder).Build());
  MetaPath cpb = MetaPath::Parse(network.schema(), "C-P-B").value();

  auto print_affinities = [&](const char* heading) {
    const HinGraph& g = network.snapshot();
    HeteSimEngine engine(g);
    DenseMatrix hetesim = engine.Compute(cpb).value();
    DenseMatrix pcrw = PcrwMatrix(g, cpb);
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
  };

  print_affinities("Customer-brand affinity along C-P-B:");

  // Ana buys only Xenon: affinity 1 mutuality needs Xenon to sell only to
  // Ana too — the symmetric measure reflects both sides. Now Ben doubles
  // down on Yotta; his Yotta affinity must rise, Xenon's fall.
  std::printf(">> ben buys two more Yotta products...\n\n");
  Index ben = network.snapshot().FindNode(customer, "ben").value();
  for (const char* name : {"keyboard_y", "dock_y"}) {
    Index p = network.AddNode(product, name).value();
    if (!network.AddEdge(bought, ben, p).ok()) return 1;
    Index yotta = network.snapshot().FindNode(brand, "Yotta").value();
    if (!network.AddEdge(made_by, p, yotta).ok()) return 1;
  }
  print_affinities("After the new purchases (snapshot version bumped):");
  std::printf("snapshot version: %llu\n",
              static_cast<unsigned long long>(network.version()));
  return 0;
}
