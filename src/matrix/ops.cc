#include "matrix/ops.h"

#include <cmath>

#include "common/check.h"
#include "matrix/chain_plan.h"

namespace hetesim {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  HETESIM_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) acc += v * v;
  return std::sqrt(acc);
}

void NormalizeL2(std::vector<double>& a) {
  const double norm = Norm2(a);
  if (norm == 0.0) return;
  for (double& v : a) v /= norm;
}

Result<SparseMatrix> MultiplyChain(const std::vector<SparseMatrix>& chain,
                                   int num_threads, const QueryContext& ctx) {
  if (chain.empty()) {
    return Status::InvalidArgument("empty matrix chain");
  }
  HETESIM_ASSIGN_OR_RETURN(
      SparseMatrix product,
      ExecuteChainPlan(chain, PlanChain(chain), num_threads, ctx));
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  return product;
}

SparseMatrix MultiplyChainLeftToRight(const std::vector<SparseMatrix>& chain) {
  HETESIM_CHECK(!chain.empty()) << "empty matrix chain";
  SparseMatrix product = chain[0];
  for (size_t i = 1; i < chain.size(); ++i) {
    product = product.Multiply(chain[i]);
  }
  return product;
}

std::vector<double> VectorThroughChain(std::vector<double> x,
                                       const std::vector<SparseMatrix>& chain) {
  for (const SparseMatrix& m : chain) {
    x = m.LeftMultiplyVector(x);
  }
  return x;
}

}  // namespace hetesim
