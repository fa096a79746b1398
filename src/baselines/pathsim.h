#ifndef HETESIM_BASELINES_PATHSIM_H_
#define HETESIM_BASELINES_PATHSIM_H_

#include <vector>

#include "common/result.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/dense.h"

namespace hetesim {

/// \brief PathSim (Sun et al., VLDB 2011): meta-path-based similarity of
/// *same-typed* objects along a *symmetric* path.
///
///   PathSim(a, b | P) = 2 |paths a~>b| / (|paths a~>a| + |paths b~>b|)
///
/// where path counts are entries of the product of the raw (unnormalized)
/// adjacency matrices along `P`. Unlike HeteSim it is undefined for
/// asymmetric paths and different-typed endpoints — the restriction the
/// paper's Tables 4 and 6 highlight — so the API returns InvalidArgument
/// for non-symmetric paths.

/// Full |A| x |A| PathSim matrix along symmetric path `path`.
[[nodiscard]] Result<DenseMatrix> PathSimMatrix(const HinGraph& graph, const MetaPath& path);

/// PathSim of every object to `source` (one row of the matrix).
[[nodiscard]] Result<std::vector<double>> PathSimSingleSource(const HinGraph& graph,
                                                const MetaPath& path, Index source);

}  // namespace hetesim

#endif  // HETESIM_BASELINES_PATHSIM_H_
