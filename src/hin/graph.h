#ifndef HETESIM_HIN_GRAPH_H_
#define HETESIM_HIN_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "hin/schema.h"
#include "matrix/sparse.h"

namespace hetesim {

/// \brief Heterogeneous information network `G = (V, E)` with an object-type
/// mapping and a link-type mapping (Definition 1), stored as one weighted
/// adjacency matrix per relation.
///
/// Node ids are *per-type* and dense: the nodes of type `T` are
/// `0 .. NumNodes(T)-1`, each with an optional human-readable name. The
/// adjacency matrix of relation `R: A -> B` is `|A| x |B|`; its transpose is
/// cached because both orientations are needed constantly (U and V of
/// Definition 8 are its row- and column-normalizations).
///
/// `HinGraph` is immutable after construction — build one with
/// `HinGraphBuilder` (builder.h) or load one with `LoadHinGraph`
/// (datagen/io.h).
class HinGraph {
 public:
  /// Constructed only by HinGraphBuilder / loaders; see builder.h.
  HinGraph(Schema schema, std::vector<std::vector<std::string>> node_names,
           std::vector<SparseMatrix> adjacency);

  HinGraph(const HinGraph&) = default;
  HinGraph& operator=(const HinGraph&) = default;
  HinGraph(HinGraph&&) noexcept = default;
  HinGraph& operator=(HinGraph&&) noexcept = default;

  /// The network schema.
  const Schema& schema() const { return schema_; }

  /// Number of nodes of `type`.
  Index NumNodes(TypeId type) const;
  /// Total number of nodes across all types.
  Index TotalNodes() const;
  /// Total number of stored edges across all relations.
  Index TotalEdges() const;

  /// Name of node `id` of `type` (empty if the node was added anonymously).
  const std::string& NodeName(TypeId type, Index id) const;
  /// Looks up a node by name within a type.
  [[nodiscard]] Result<Index> FindNode(TypeId type, const std::string& name) const;

  /// Weighted adjacency matrix `W` of `relation` (`|src| x |dst|`).
  const SparseMatrix& Adjacency(RelationId relation) const;
  /// Cached transpose of `Adjacency(relation)` (`|dst| x |src|`).
  const SparseMatrix& AdjacencyTranspose(RelationId relation) const;

  /// Adjacency of a traversal step: `Adjacency` when forward, the cached
  /// transpose when backward. Rows always index the step's source type.
  const SparseMatrix& StepAdjacency(const RelationStep& step) const;

  /// Transition probability matrix of a step (Definition 8): the step
  /// adjacency with rows L1-normalized. `U_AB` for forward steps; for a
  /// backward step over `R: B -> A` this equals `V_BA'`, consistent with
  /// Property 2 of the paper.
  SparseMatrix StepTransition(const RelationStep& step) const;

  /// Multi-line summary (types, counts, relations, edge counts).
  std::string Summary() const;

 private:
  Schema schema_;
  std::vector<std::vector<std::string>> node_names_;  // indexed by TypeId
  std::vector<std::unordered_map<std::string, Index>> node_index_;
  std::vector<SparseMatrix> adjacency_;            // indexed by RelationId
  std::vector<SparseMatrix> adjacency_transpose_;  // indexed by RelationId
};

}  // namespace hetesim

#endif  // HETESIM_HIN_GRAPH_H_
