// Micro-benchmarks of the linear-algebra substrate every query rides on:
// SpGEMM across densities, transpose, row normalization, row cosine, and
// the sparse-vs-dense product crossover. These bound what the higher-level
// benches can possibly achieve and catch substrate regressions early.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/frontier.h"
#include "datagen/random_hin.h"
#include "matrix/ops.h"
#include "matrix/spgemm.h"

namespace {

using namespace hetesim;

SparseMatrix Square(Index n, double density, uint64_t seed) {
  return RandomBipartiteAdjacency(n, n, density, seed);
}

void BM_SpGemm(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  SparseMatrix a = Square(1000, density, 1);
  SparseMatrix b = Square(1000, density, 2);
  for (auto _ : state) {
    SparseMatrix c = a.Multiply(b);
    benchmark::DoNotOptimize(c.NumNonZeros());
  }
  state.counters["nnz"] = static_cast<double>(a.NumNonZeros());
}
BENCHMARK(BM_SpGemm)->Arg(2)->Arg(10)->Arg(50);

void BM_Transpose(benchmark::State& state) {
  SparseMatrix a = Square(2000, 0.01, 3);
  for (auto _ : state) {
    SparseMatrix t = a.Transpose();
    benchmark::DoNotOptimize(t.NumNonZeros());
  }
}
BENCHMARK(BM_Transpose);

void BM_RowNormalize(benchmark::State& state) {
  SparseMatrix a = Square(2000, 0.01, 4);
  for (auto _ : state) {
    SparseMatrix u = a.RowNormalized();
    benchmark::DoNotOptimize(u.NumNonZeros());
  }
}
BENCHMARK(BM_RowNormalize);

void BM_RowCosine(benchmark::State& state) {
  SparseMatrix a = Square(1000, 0.05, 5);
  Index r = 0;
  for (auto _ : state) {
    const Index s = (r + 1) % a.rows();
    double c = RowCosine(a.RowIndices(r), a.RowValues(r), a.RowIndices(s),
                         a.RowValues(s), /*normalized=*/true);
    benchmark::DoNotOptimize(c);
    r = (r + 1) % a.rows();
  }
}
BENCHMARK(BM_RowCosine);

void BM_SparseTimesDense(benchmark::State& state) {
  SparseMatrix a = Square(1000, 0.01, 6);
  DenseMatrix b = Square(1000, 0.2, 7).ToDense();
  for (auto _ : state) {
    DenseMatrix c = MultiplySparseDenseParallel(a, b).value();
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_SparseTimesDense);

void BM_VectorThroughChain(benchmark::State& state) {
  std::vector<SparseMatrix> chain = {Square(2000, 0.005, 8).RowNormalized(),
                                     Square(2000, 0.005, 9).RowNormalized(),
                                     Square(2000, 0.005, 10).RowNormalized()};
  std::vector<double> x(2000, 0.0);
  x[0] = 1.0;
  for (auto _ : state) {
    std::vector<double> y = VectorThroughChain(x, chain);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_VectorThroughChain);

}  // namespace

HETESIM_BENCH_MAIN("matrix_micro")
