#include "hin/graph.h"

#include <sstream>

#include "common/check.h"

namespace hetesim {

namespace {
const std::string& EmptyName() {
  // Leaked singleton: immune to static destruction order.
  static const std::string* const kEmpty = new std::string();  // hetesim-lint: allow(no-naked-new)
  return *kEmpty;
}
}  // namespace

HinGraph::HinGraph(Schema schema, std::vector<std::vector<std::string>> node_names,
                   std::vector<SparseMatrix> adjacency)
    : schema_(std::move(schema)),
      node_names_(std::move(node_names)),
      adjacency_(std::move(adjacency)) {
  HETESIM_CHECK_EQ(node_names_.size(),
                   static_cast<size_t>(schema_.NumObjectTypes()));
  HETESIM_CHECK_EQ(adjacency_.size(), static_cast<size_t>(schema_.NumRelations()));
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    const SparseMatrix& w = adjacency_[static_cast<size_t>(r)];
    HETESIM_CHECK_EQ(w.rows(), NumNodes(schema_.RelationSource(r)))
        << "relation" << schema_.RelationName(r);
    HETESIM_CHECK_EQ(w.cols(), NumNodes(schema_.RelationTarget(r)))
        << "relation" << schema_.RelationName(r);
    adjacency_transpose_.push_back(w.Transpose());
  }
  node_index_.resize(node_names_.size());
  for (size_t t = 0; t < node_names_.size(); ++t) {
    for (size_t i = 0; i < node_names_[t].size(); ++i) {
      const std::string& name = node_names_[t][i];
      if (!name.empty()) node_index_[t].emplace(name, static_cast<Index>(i));
    }
  }
}

Index HinGraph::NumNodes(TypeId type) const {
  HETESIM_CHECK(schema_.IsValidType(type));
  return static_cast<Index>(node_names_[static_cast<size_t>(type)].size());
}

Index HinGraph::TotalNodes() const {
  Index total = 0;
  for (TypeId t = 0; t < schema_.NumObjectTypes(); ++t) total += NumNodes(t);
  return total;
}

Index HinGraph::TotalEdges() const {
  Index total = 0;
  for (const SparseMatrix& w : adjacency_) total += w.NumNonZeros();
  return total;
}

const std::string& HinGraph::NodeName(TypeId type, Index id) const {
  HETESIM_CHECK(schema_.IsValidType(type));
  if (id < 0 || id >= NumNodes(type)) return EmptyName();
  return node_names_[static_cast<size_t>(type)][static_cast<size_t>(id)];
}

Result<Index> HinGraph::FindNode(TypeId type, const std::string& name) const {
  if (!schema_.IsValidType(type)) {
    return Status::InvalidArgument("invalid type id");
  }
  const auto& index = node_index_[static_cast<size_t>(type)];
  auto it = index.find(name);
  if (it == index.end()) {
    return Status::NotFound("no node '" + name + "' of type '" +
                            schema_.TypeName(type) + "'");
  }
  return it->second;
}

const SparseMatrix& HinGraph::Adjacency(RelationId relation) const {
  HETESIM_CHECK(schema_.IsValidRelation(relation));
  return adjacency_[static_cast<size_t>(relation)];
}

const SparseMatrix& HinGraph::AdjacencyTranspose(RelationId relation) const {
  HETESIM_CHECK(schema_.IsValidRelation(relation));
  return adjacency_transpose_[static_cast<size_t>(relation)];
}

const SparseMatrix& HinGraph::StepAdjacency(const RelationStep& step) const {
  return step.forward ? Adjacency(step.relation) : AdjacencyTranspose(step.relation);
}

SparseMatrix HinGraph::StepTransition(const RelationStep& step) const {
  return StepAdjacency(step).RowNormalized();
}

std::string HinGraph::Summary() const {
  std::ostringstream out;
  out << "HinGraph: " << TotalNodes() << " nodes, " << TotalEdges() << " edges\n";
  for (TypeId t = 0; t < schema_.NumObjectTypes(); ++t) {
    out << "  type " << schema_.TypeCode(t) << " (" << schema_.TypeName(t)
        << "): " << NumNodes(t) << " nodes\n";
  }
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    out << "  relation " << schema_.RelationName(r) << ": "
        << schema_.TypeName(schema_.RelationSource(r)) << " -> "
        << schema_.TypeName(schema_.RelationTarget(r)) << ", "
        << Adjacency(r).NumNonZeros() << " edges\n";
  }
  return out.str();
}

}  // namespace hetesim
