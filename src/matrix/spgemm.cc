#include "matrix/spgemm.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace hetesim {

namespace {

/// Kernel-mix instruments (DESIGN.md §12): rows processed per accumulator
/// choice, plus rows written by the dense-output kernels. Recording is
/// chunk-granular — `Run` tallies locally and flushes once — so the hot row
/// loop carries no atomics.
struct SpGemmMetrics {
  Counter& rows_sorted_merge;
  Counter& rows_hash;
  Counter& rows_dense_scratch;
  Counter& dense_out_rows;
};

SpGemmMetrics& GlobalSpGemmMetrics() {
  static SpGemmMetrics metrics{
      MetricsRegistry::Global().GetCounter(
          "hetesim_spgemm_rows_sorted_merge_total"),
      MetricsRegistry::Global().GetCounter("hetesim_spgemm_rows_hash_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_spgemm_rows_dense_scratch_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_spgemm_dense_out_rows_total"),
  };
  return metrics;
}

/// Rows per context check when a product runs sequentially: small enough
/// that one stripe of even a dense-ish product completes in well under a
/// millisecond at DBLP scale, so cancellation latency stays bounded without
/// a parallel region.
constexpr Index kSequentialStripeRows = 64;

/// Rows whose Gustavson fill bound is at most this use the sorted-merge
/// accumulator: the merge is O(fill * log-ish) with no O(cols) scratch.
constexpr Index kSortedMergeMaxFill = 32;

/// The hash accumulator wins while the fill bound is below `cols / 16`;
/// past that the dense scratch's linear sweep amortizes better than
/// probing (measured crossover on the DBLP funnel products in
/// bench_chain_order: at fill ~cols/9 the scratch already beats the hash).
constexpr Index kHashWidthDivisor = 16;

/// Recoverable precondition for every kernel here: a dimension mismatch
/// reaching a Status-returning entry point is the caller's error and must
/// come back as InvalidArgument, not a process abort (only the seed oracle
/// `SparseMatrix::Multiply` keeps HETESIM_CHECK — DESIGN.md §11, lint rule
/// no-check-in-status-fn).
Status CheckInnerDims(Index a_cols, Index b_rows) {
  if (a_cols == b_rows) return Status::OK();
  return Status::InvalidArgument("inner dimension mismatch: a.cols()=" +
                                 std::to_string(a_cols) +
                                 " vs b.rows()=" + std::to_string(b_rows));
}

/// One chunk's slice of the output rows, pre-stitch, with the budget
/// charge for its buffers.
struct ChunkResult {
  std::vector<Index> row_sizes;
  std::vector<Index> col_idx;
  std::vector<double> values;
  MemoryReservation reservation;
};

/// Charges whatever `result`'s buffers grew since their last charge
/// against the context's budget, behind the `spgemm.alloc` fault point
/// (budgeted peak usage, not post-hoc accounting). Without a budget the
/// reservation stays empty.
Status ChargeGrowth(const QueryContext& ctx, ChunkResult& result) {
  if (HETESIM_FAULT_POINT("spgemm.alloc")) {
    return Status::ResourceExhausted("injected: spgemm.alloc");
  }
  const size_t bytes = result.col_idx.capacity() * sizeof(Index) +
                       result.values.capacity() * sizeof(double) +
                       result.row_sizes.capacity() * sizeof(Index);
  if (bytes <= result.reservation.bytes()) return Status::OK();
  HETESIM_ASSIGN_OR_RETURN(MemoryReservation grown,
                           ctx.Reserve(bytes - result.reservation.bytes()));
  result.reservation.Absorb(std::move(grown));
  return Status::OK();
}

/// \brief Per-chunk scratch shared by the three row accumulators.
///
/// Every accumulator folds the contribution `a_ik * b[k, j]` into column
/// `j`'s running sum in the exact visit order of the seed kernel
/// (ascending position in `a`'s row, then ascending position in `b`'s
/// row), and emits the surviving non-zero sums in ascending column order —
/// so all three produce bitwise-identical rows.
class AdaptiveRowKernels {
 public:
  AdaptiveRowKernels(Index out_cols, const SpGemmOptions& options)
      : out_cols_(out_cols), options_(options) {}

  /// Appends output rows `[row_begin, row_end)` of `a * b` to the chunk
  /// arrays, one `row_sizes` entry per row.
  void Run(const SparseMatrix& a, const SparseMatrix& b, Index row_begin,
           Index row_end, std::vector<Index>* row_sizes,
           std::vector<Index>* col_idx, std::vector<double>* values) {
    uint64_t rows_sorted_merge = 0;
    uint64_t rows_hash = 0;
    uint64_t rows_dense_scratch = 0;
    for (Index i = row_begin; i < row_end; ++i) {
      auto a_indices = a.RowIndices(i);
      Index fill_upper_bound = 0;
      for (Index k : a_indices) fill_upper_bound += b.RowNnz(k);
      const RowKernel kernel =
          options_.forced_kernel.value_or(ChooseRowKernel(fill_upper_bound, out_cols_));
      Index row_nnz = 0;
      switch (kernel) {
        case RowKernel::kSortedMerge:
          row_nnz = RowSortedMerge(a, b, i, col_idx, values);
          ++rows_sorted_merge;
          break;
        case RowKernel::kHash:
          row_nnz = RowHash(a, b, i, fill_upper_bound, col_idx, values);
          ++rows_hash;
          break;
        case RowKernel::kDenseScratch:
          row_nnz = RowDenseScratch(a, b, i, col_idx, values);
          ++rows_dense_scratch;
          break;
      }
      row_sizes->push_back(row_nnz);
    }
    // One flush per chunk keeps atomics off the per-row path (overhead
    // contract, DESIGN.md §12).
    if (MetricsEnabled()) {
      SpGemmMetrics& metrics = GlobalSpGemmMetrics();
      if (rows_sorted_merge != 0) {
        metrics.rows_sorted_merge.Increment(rows_sorted_merge);
      }
      if (rows_hash != 0) metrics.rows_hash.Increment(rows_hash);
      if (rows_dense_scratch != 0) {
        metrics.rows_dense_scratch.Increment(rows_dense_scratch);
      }
    }
  }

 private:
  /// Ping-pong merge: the running row stays sorted; each scaled `b` row is
  /// merged in, summing on column collisions. Entries whose sums cancel to
  /// exactly zero are kept until emit (they may receive later
  /// contributions), then skipped — matching the seed kernel's handling of
  /// transient zeros.
  Index RowSortedMerge(const SparseMatrix& a, const SparseMatrix& b, Index i,
                       std::vector<Index>* col_idx, std::vector<double>* values) {
    merge_cols_.clear();
    merge_vals_.clear();
    auto a_indices = a.RowIndices(i);
    auto a_values = a.RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const Index k = a_indices[ka];
      const double a_ik = a_values[ka];
      auto b_indices = b.RowIndices(k);
      auto b_values = b.RowValues(k);
      if (b_indices.empty()) continue;
      next_cols_.clear();
      next_vals_.clear();
      size_t p = 0;
      size_t q = 0;
      while (p < merge_cols_.size() && q < b_indices.size()) {
        if (merge_cols_[p] < b_indices[q]) {
          next_cols_.push_back(merge_cols_[p]);
          next_vals_.push_back(merge_vals_[p]);
          ++p;
        } else if (merge_cols_[p] > b_indices[q]) {
          next_cols_.push_back(b_indices[q]);
          next_vals_.push_back(a_ik * b_values[q]);
          ++q;
        } else {
          next_cols_.push_back(merge_cols_[p]);
          next_vals_.push_back(merge_vals_[p] + a_ik * b_values[q]);
          ++p;
          ++q;
        }
      }
      for (; p < merge_cols_.size(); ++p) {
        next_cols_.push_back(merge_cols_[p]);
        next_vals_.push_back(merge_vals_[p]);
      }
      for (; q < b_indices.size(); ++q) {
        next_cols_.push_back(b_indices[q]);
        next_vals_.push_back(a_ik * b_values[q]);
      }
      merge_cols_.swap(next_cols_);
      merge_vals_.swap(next_vals_);
    }
    Index row_nnz = 0;
    for (size_t p = 0; p < merge_cols_.size(); ++p) {
      if (merge_vals_[p] != 0.0) {
        col_idx->push_back(merge_cols_[p]);
        values->push_back(merge_vals_[p]);
        ++row_nnz;
      }
    }
    return row_nnz;
  }

  /// Open-addressing accumulator sized to the fill bound (load factor at
  /// most 1/2, so probing always terminates). Occupied slots are recorded
  /// for O(fill) cleanup and sorted by column at emit.
  Index RowHash(const SparseMatrix& a, const SparseMatrix& b, Index i,
                Index fill_upper_bound, std::vector<Index>* col_idx,
                std::vector<double>* values) {
    size_t capacity = 16;
    while (capacity < 2 * static_cast<size_t>(fill_upper_bound)) capacity <<= 1;
    if (table_cols_.size() < capacity) {
      table_cols_.assign(capacity, kEmptySlot);
      table_vals_.assign(capacity, 0.0);
    }
    // Probe within the row's own power-of-two window even when the table
    // is left larger by a previous row — slot choice must depend only on
    // the row's contents, never on what ran before it in this chunk.
    const size_t mask = capacity - 1;
    occupied_.clear();
    auto a_indices = a.RowIndices(i);
    auto a_values = a.RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const Index k = a_indices[ka];
      const double a_ik = a_values[ka];
      auto b_indices = b.RowIndices(k);
      auto b_values = b.RowValues(k);
      for (size_t kb = 0; kb < b_indices.size(); ++kb) {
        const Index j = b_indices[kb];
        size_t slot =
            (static_cast<uint64_t>(j) * UINT64_C(0x9E3779B97F4A7C15) >> 32) & mask;
        while (table_cols_[slot] != j) {
          if (table_cols_[slot] == kEmptySlot) {
            table_cols_[slot] = j;
            occupied_.push_back(slot);
            break;
          }
          slot = (slot + 1) & mask;
        }
        table_vals_[slot] += a_ik * b_values[kb];
      }
    }
    std::sort(occupied_.begin(), occupied_.end(),
              [&](size_t x, size_t y) { return table_cols_[x] < table_cols_[y]; });
    Index row_nnz = 0;
    for (size_t slot : occupied_) {
      const double v = table_vals_[slot];
      if (v != 0.0) {
        col_idx->push_back(table_cols_[slot]);
        values->push_back(v);
        ++row_nnz;
      }
      table_cols_[slot] = kEmptySlot;
      table_vals_[slot] = 0.0;
    }
    return row_nnz;
  }

  /// The seed strategy, verbatim: dense scratch, touched list, sort,
  /// read-then-zero emit that skips exact zeros.
  Index RowDenseScratch(const SparseMatrix& a, const SparseMatrix& b, Index i,
                        std::vector<Index>* col_idx, std::vector<double>* values) {
    if (accumulator_.size() < static_cast<size_t>(out_cols_)) {
      accumulator_.assign(static_cast<size_t>(out_cols_), 0.0);
    }
    touched_.clear();
    auto a_indices = a.RowIndices(i);
    auto a_values = a.RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const Index k = a_indices[ka];
      const double a_ik = a_values[ka];
      auto b_indices = b.RowIndices(k);
      auto b_values = b.RowValues(k);
      for (size_t kb = 0; kb < b_indices.size(); ++kb) {
        const Index j = b_indices[kb];
        if (accumulator_[static_cast<size_t>(j)] == 0.0) touched_.push_back(j);
        accumulator_[static_cast<size_t>(j)] += a_ik * b_values[kb];
      }
    }
    std::sort(touched_.begin(), touched_.end());
    Index row_nnz = 0;
    for (Index j : touched_) {
      const double v = accumulator_[static_cast<size_t>(j)];
      accumulator_[static_cast<size_t>(j)] = 0.0;
      if (v != 0.0) {
        col_idx->push_back(j);
        values->push_back(v);
        ++row_nnz;
      }
    }
    return row_nnz;
  }

  static constexpr Index kEmptySlot = -1;

  Index out_cols_;
  SpGemmOptions options_;
  // Dense scratch (allocated on first dense-scratch row of the chunk).
  std::vector<double> accumulator_;
  std::vector<Index> touched_;
  // Hash accumulator.
  std::vector<Index> table_cols_;
  std::vector<double> table_vals_;
  std::vector<size_t> occupied_;
  // Sorted-merge ping-pong buffers.
  std::vector<Index> merge_cols_;
  std::vector<double> merge_vals_;
  std::vector<Index> next_cols_;
  std::vector<double> next_vals_;
};

/// Stitches chunk outputs (ordered by chunk id == ascending row ranges)
/// into one CSR matrix.
SparseMatrix StitchChunks(Index rows, Index cols,
                          std::vector<ChunkResult> results) {
  std::vector<Index> row_ptr(static_cast<size_t>(rows) + 1, 0);
  if (results.size() == 1) {
    // Single-pass product: adopt the chunk buffers instead of copying them.
    // Output emission dominates funnel-shaped products, so this copy would
    // be a measurable fraction of the whole multiply.
    ChunkResult& only = results.front();
    HETESIM_CHECK_EQ(only.row_sizes.size(), static_cast<size_t>(rows));
    for (size_t r = 0; r < only.row_sizes.size(); ++r) {
      row_ptr[r + 1] = row_ptr[r] + only.row_sizes[r];
    }
    return SparseMatrix::FromCsr(rows, cols, std::move(row_ptr),
                                 std::move(only.col_idx), std::move(only.values));
  }
  size_t total_nnz = 0;
  for (const ChunkResult& result : results) total_nnz += result.values.size();
  std::vector<Index> col_idx;
  std::vector<double> values;
  col_idx.reserve(total_nnz);
  values.reserve(total_nnz);
  size_t row = 0;
  for (ChunkResult& result : results) {
    for (Index size : result.row_sizes) {
      row_ptr[row + 1] = row_ptr[row] + size;
      ++row;
    }
    col_idx.insert(col_idx.end(), result.col_idx.begin(), result.col_idx.end());
    values.insert(values.end(), result.values.begin(), result.values.end());
  }
  HETESIM_CHECK_EQ(row, static_cast<size_t>(rows));
  return SparseMatrix::FromCsr(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

/// Shared chunked driver for the dense-output kernels. `fill` writes the
/// disjoint row range `[row_begin, row_end)` of `out` — row-disjoint
/// writes, so results are bitwise identical at any thread count. The whole
/// output is reserved up front (it is allocated up front) and the context
/// is polled once per chunk.
template <typename FillRange>
Result<DenseMatrix> DenseOutDriver(Index rows, Index cols, int num_threads,
                                   const QueryContext& ctx, const FillRange& fill) {
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  if (HETESIM_FAULT_POINT("spgemm.alloc")) {
    return Status::ResourceExhausted("injected: spgemm.alloc");
  }
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(static_cast<size_t>(rows) * static_cast<size_t>(cols) *
                  sizeof(double)));
  DenseMatrix out(rows, cols);
  const int threads = ResolveNumThreads(num_threads);
  const bool sequential = threads <= 1 || rows < 2;
  const Index chunks =
      sequential ? std::max<Index>(
                       (rows + kSequentialStripeRows - 1) / kSequentialStripeRows, 1)
                 : std::min<Index>(static_cast<Index>(threads) * 4,
                                   std::max<Index>(rows, 1));
  const Index chunk_size = (rows + chunks - 1) / chunks;
  SharedStatus region_status;
  auto run_chunk = [&](Index c) {
    if (!region_status.ok()) return;
    Status alive = ctx.CheckAlive();
    if (!alive.ok()) {
      region_status.Update(std::move(alive));
      return;
    }
    const Index row_begin = c * chunk_size;
    const Index row_end = std::min(rows, row_begin + chunk_size);
    if (row_begin >= row_end) return;
    fill(out, row_begin, row_end);
    if (MetricsEnabled()) {
      GlobalSpGemmMetrics().dense_out_rows.Increment(
          static_cast<uint64_t>(row_end - row_begin));
    }
  };
  if (sequential || chunks < 2) {
    for (Index c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    GrainOptions grain;
    grain.cost_per_element = 1e9;  // each chunk id is its own block
    ParallelFor(0, chunks, threads, [&](int64_t chunk_begin, int64_t chunk_end) {
      for (int64_t c = chunk_begin; c < chunk_end; ++c) {
        run_chunk(static_cast<Index>(c));
      }
    }, grain);
  }
  HETESIM_RETURN_NOT_OK(region_status.status());
  return out;
}

/// Row-range fills for the four dense-output products. Skipping exact-zero
/// `a` entries never changes a finite sum bitwise (v + ±0.0 * w == v), so
/// all fills stay deterministic.
void FillSparseSparse(const SparseMatrix& a, const SparseMatrix& b,
                      DenseMatrix& out, Index row_begin, Index row_end) {
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out.RowData(i);
    auto a_indices = a.RowIndices(i);
    auto a_values = a.RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const double a_ik = a_values[ka];
      auto b_indices = b.RowIndices(a_indices[ka]);
      auto b_values = b.RowValues(a_indices[ka]);
      for (size_t kb = 0; kb < b_indices.size(); ++kb) {
        out_row[b_indices[kb]] += a_ik * b_values[kb];
      }
    }
  }
}

void FillDenseSparse(const DenseMatrix& a, const SparseMatrix& b,
                     DenseMatrix& out, Index row_begin, Index row_end) {
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out.RowData(i);
    const double* a_row = a.RowData(i);
    for (Index k = 0; k < b.rows(); ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      auto b_indices = b.RowIndices(k);
      auto b_values = b.RowValues(k);
      for (size_t kb = 0; kb < b_indices.size(); ++kb) {
        out_row[b_indices[kb]] += a_ik * b_values[kb];
      }
    }
  }
}

void FillSparseDense(const SparseMatrix& a, const DenseMatrix& b,
                     DenseMatrix& out, Index row_begin, Index row_end) {
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out.RowData(i);
    auto a_indices = a.RowIndices(i);
    auto a_values = a.RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const double a_ik = a_values[ka];
      const double* b_row = b.RowData(a_indices[ka]);
      for (Index j = 0; j < b.cols(); ++j) out_row[j] += a_ik * b_row[j];
    }
  }
}

void FillDenseDense(const DenseMatrix& a, const DenseMatrix& b,
                    DenseMatrix& out, Index row_begin, Index row_end) {
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out.RowData(i);
    const double* a_row = a.RowData(i);
    for (Index k = 0; k < b.rows(); ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      const double* b_row = b.RowData(k);
      for (Index j = 0; j < b.cols(); ++j) out_row[j] += a_ik * b_row[j];
    }
  }
}

}  // namespace

RowKernel ChooseRowKernel(Index fill_upper_bound, Index out_cols) {
  if (fill_upper_bound <= kSortedMergeMaxFill) return RowKernel::kSortedMerge;
  if (fill_upper_bound < out_cols / kHashWidthDivisor) return RowKernel::kHash;
  return RowKernel::kDenseScratch;
}

Result<SparseMatrix> MultiplySparseAdaptive(const SparseMatrix& a,
                                            const SparseMatrix& b, int num_threads,
                                            const QueryContext& ctx,
                                            const SpGemmOptions& options) {
  HETESIM_RETURN_NOT_OK(CheckInnerDims(a.cols(), b.rows()));
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  const int threads = ResolveNumThreads(num_threads);
  if (threads <= 1 || a.rows() < 2) {
    // Sequential: every stripe appends to one output buffer, which the
    // result adopts without a stitch copy. Each stripe still polls the
    // context and charges the buffer growth behind the fault point.
    std::vector<ChunkResult> results(1);
    ChunkResult& result = results.front();
    AdaptiveRowKernels kernels(b.cols(), options);
    for (Index row_begin = 0; row_begin < a.rows();
         row_begin += kSequentialStripeRows) {
      HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
      const Index row_end = std::min(a.rows(), row_begin + kSequentialStripeRows);
      kernels.Run(a, b, row_begin, row_end, &result.row_sizes, &result.col_idx,
                  &result.values);
      HETESIM_RETURN_NOT_OK(ChargeGrowth(ctx, result));
    }
    return StitchChunks(a.rows(), b.cols(), std::move(results));
  }
  const Index chunks = std::min<Index>(static_cast<Index>(threads) * 4,
                                       std::max<Index>(a.rows(), 1));
  const Index chunk_size = (a.rows() + chunks - 1) / chunks;
  std::vector<ChunkResult> results(static_cast<size_t>(chunks));
  SharedStatus region_status;
  GrainOptions grain;
  grain.cost_per_element = 1e9;  // each chunk id is its own block
  ParallelFor(0, chunks, threads, [&](int64_t chunk_begin, int64_t chunk_end) {
    AdaptiveRowKernels kernels(b.cols(), options);
    for (int64_t c = chunk_begin; c < chunk_end; ++c) {
      // A failed or cancelled region turns every remaining chunk into a
      // no-op: the pool task still runs and the region joins normally, so
      // promptness is bounded by the one chunk already in flight.
      if (!region_status.ok()) return;
      if (Status alive = ctx.CheckAlive(); !alive.ok()) {
        region_status.Update(std::move(alive));
        return;
      }
      const Index row_begin = static_cast<Index>(c) * chunk_size;
      const Index row_end = std::min(a.rows(), row_begin + chunk_size);
      if (row_begin >= row_end) continue;
      ChunkResult& result = results[static_cast<size_t>(c)];
      kernels.Run(a, b, row_begin, row_end, &result.row_sizes, &result.col_idx,
                  &result.values);
      if (Status charged = ChargeGrowth(ctx, result); !charged.ok()) {
        // Drop the uncharged buffers now rather than at region exit.
        result = ChunkResult();
        region_status.Update(std::move(charged));
        return;
      }
    }
  }, grain);
  HETESIM_RETURN_NOT_OK(region_status.status());
  return StitchChunks(a.rows(), b.cols(), std::move(results));
}

Result<DenseMatrix> MultiplySparseSparseDense(const SparseMatrix& a,
                                              const SparseMatrix& b, int num_threads,
                                              const QueryContext& ctx) {
  HETESIM_RETURN_NOT_OK(CheckInnerDims(a.cols(), b.rows()));
  return DenseOutDriver(a.rows(), b.cols(), num_threads, ctx,
                        [&](DenseMatrix& out, Index row_begin, Index row_end) {
                          FillSparseSparse(a, b, out, row_begin, row_end);
                        });
}

Result<DenseMatrix> MultiplyDenseSparseParallel(const DenseMatrix& a,
                                                const SparseMatrix& b, int num_threads,
                                                const QueryContext& ctx) {
  HETESIM_RETURN_NOT_OK(CheckInnerDims(a.cols(), b.rows()));
  return DenseOutDriver(a.rows(), b.cols(), num_threads, ctx,
                        [&](DenseMatrix& out, Index row_begin, Index row_end) {
                          FillDenseSparse(a, b, out, row_begin, row_end);
                        });
}

Result<DenseMatrix> MultiplySparseDenseParallel(const SparseMatrix& a,
                                                const DenseMatrix& b, int num_threads,
                                                const QueryContext& ctx) {
  HETESIM_RETURN_NOT_OK(CheckInnerDims(a.cols(), b.rows()));
  return DenseOutDriver(a.rows(), b.cols(), num_threads, ctx,
                        [&](DenseMatrix& out, Index row_begin, Index row_end) {
                          FillSparseDense(a, b, out, row_begin, row_end);
                        });
}

Result<DenseMatrix> MultiplyDenseDenseParallel(const DenseMatrix& a,
                                               const DenseMatrix& b, int num_threads,
                                               const QueryContext& ctx) {
  HETESIM_RETURN_NOT_OK(CheckInnerDims(a.cols(), b.rows()));
  return DenseOutDriver(a.rows(), b.cols(), num_threads, ctx,
                        [&](DenseMatrix& out, Index row_begin, Index row_end) {
                          FillDenseDense(a, b, out, row_begin, row_end);
                        });
}

}  // namespace hetesim
