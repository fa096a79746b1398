#include "learn/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace hetesim {

namespace {

/// Shannon entropy of a label histogram over `total` items.
double Entropy(const std::map<int, Index>& counts, double total) {
  double h = 0.0;
  for (const auto& [label, count] : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / total;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

Result<double> NormalizedMutualInformation(const std::vector<int>& labels_a,
                                           const std::vector<int>& labels_b) {
  if (labels_a.size() != labels_b.size()) {
    return Status::InvalidArgument("labelings must cover the same objects");
  }
  if (labels_a.empty()) {
    return Status::InvalidArgument("labelings must be non-empty");
  }
  const double n = static_cast<double>(labels_a.size());
  std::map<int, Index> counts_a;
  std::map<int, Index> counts_b;
  std::map<std::pair<int, int>, Index> joint;
  for (size_t i = 0; i < labels_a.size(); ++i) {
    ++counts_a[labels_a[i]];
    ++counts_b[labels_b[i]];
    ++joint[{labels_a[i], labels_b[i]}];
  }
  const double ha = Entropy(counts_a, n);
  const double hb = Entropy(counts_b, n);
  if (ha == 0.0 || hb == 0.0) {
    // One side is a single cluster: NMI is conventionally 1 when both are
    // the same single cluster, else 0.
    return (ha == 0.0 && hb == 0.0) ? 1.0 : 0.0;
  }
  double mutual = 0.0;
  for (const auto& [pair, count] : joint) {
    const double pxy = static_cast<double>(count) / n;
    const double px = static_cast<double>(counts_a[pair.first]) / n;
    const double py = static_cast<double>(counts_b[pair.second]) / n;
    mutual += pxy * std::log(pxy / (px * py));
  }
  return mutual / std::sqrt(ha * hb);
}

Result<double> AreaUnderRoc(const std::vector<double>& scores,
                            const std::vector<bool>& relevant) {
  if (scores.size() != relevant.size()) {
    return Status::InvalidArgument("scores and labels must align");
  }
  Index positives = 0;
  for (bool r : relevant) positives += r ? 1 : 0;
  const Index negatives = static_cast<Index>(relevant.size()) - positives;
  if (positives == 0 || negatives == 0) {
    return Status::InvalidArgument("AUC needs at least one positive and one negative");
  }
  // Mann-Whitney: AUC = (sum of positive midranks - P(P+1)/2) / (P*N),
  // ranking ascending by score.
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&scores](size_t x, size_t y) { return scores[x] < scores[y]; });
  double positive_rank_sum = 0.0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    // Items i..j-1 tie; each gets the midrank (1-based).
    const double midrank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (relevant[order[k]]) positive_rank_sum += midrank;
    }
    i = j;
  }
  const double p = static_cast<double>(positives);
  const double n = static_cast<double>(negatives);
  return (positive_rank_sum - p * (p + 1.0) / 2.0) / (p * n);
}

std::vector<double> DescendingRanks(const std::vector<double>& scores) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&scores](size_t x, size_t y) { return scores[x] > scores[y]; });
  std::vector<double> ranks(scores.size(), 0.0);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) ranks[order[k]] = midrank;
    i = j;
  }
  return ranks;
}

Result<double> AverageRankDifference(const std::vector<double>& ground_truth,
                                     const std::vector<double>& measure,
                                     int top_n) {
  if (ground_truth.size() != measure.size()) {
    return Status::InvalidArgument("score vectors must align");
  }
  if (ground_truth.empty()) {
    return Status::InvalidArgument("score vectors must be non-empty");
  }
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be positive");
  }
  const std::vector<double> truth_ranks = DescendingRanks(ground_truth);
  const std::vector<double> measure_ranks = DescendingRanks(measure);
  // The top_n objects by ground truth, i.e. truth rank <= top_n.
  double total = 0.0;
  Index counted = 0;
  for (size_t i = 0; i < truth_ranks.size(); ++i) {
    if (truth_ranks[i] <= static_cast<double>(top_n)) {
      total += std::abs(measure_ranks[i] - truth_ranks[i]);
      ++counted;
    }
  }
  if (counted == 0) {
    return Status::Internal("no objects within top_n ground-truth ranks");
  }
  return total / static_cast<double>(counted);
}

}  // namespace hetesim
