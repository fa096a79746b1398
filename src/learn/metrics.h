#ifndef HETESIM_LEARN_METRICS_H_
#define HETESIM_LEARN_METRICS_H_

#include <vector>

#include "common/result.h"
#include "matrix/dense.h"

namespace hetesim {

/// \brief Normalized Mutual Information between two labelings of the same
/// objects, in [0, 1] (1 = identical partitions up to relabeling). The
/// clustering quality criterion of the paper's Table 6.
///
/// NMI = I(X; Y) / sqrt(H(X) H(Y)); degenerate cases where either labeling
/// has zero entropy return 1 if the partitions are identical as partitions,
/// else 0.
[[nodiscard]] Result<double> NormalizedMutualInformation(const std::vector<int>& labels_a,
                                           const std::vector<int>& labels_b);

/// \brief Area under the ROC curve of `scores` against binary `relevant`
/// flags — the ranking quality criterion of the paper's Table 5.
///
/// Computed via the Mann-Whitney statistic with midrank tie handling.
/// Errors when sizes differ or either class is empty.
[[nodiscard]] Result<double> AreaUnderRoc(const std::vector<double>& scores,
                            const std::vector<bool>& relevant);

/// Ranks of `scores` in descending order: `rank[i]` is the 1-based position
/// of object `i` (ties get the mean of their positions — "midranks").
std::vector<double> DescendingRanks(const std::vector<double>& scores);

/// \brief Mean absolute rank displacement between two score vectors over
/// the top `top_n` objects of `ground_truth` — the paper's Fig. 6 metric
/// ("average rank difference" of a measure's ranking vs. the paper-count
/// ground truth).
///
/// Objects are ranked descending under both vectors; the result averages
/// |rank_measure(i) - rank_truth(i)| over the `top_n` highest-truth objects.
[[nodiscard]] Result<double> AverageRankDifference(const std::vector<double>& ground_truth,
                                     const std::vector<double>& measure,
                                     int top_n);

}  // namespace hetesim

#endif  // HETESIM_LEARN_METRICS_H_
