#ifndef HETESIM_WORKLOAD_CONFIG_H_
#define HETESIM_WORKLOAD_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "workload/generators.h"

namespace hetesim::workload {

/// \file
/// The workload scenario DSL (genny-style, dependency-free).
///
/// A scenario is a line-oriented text file; `#` starts a comment, blank
/// lines are ignored. Each line is a directive followed by positional words
/// and/or `key=value` pairs:
///
/// \code
///   scenario steady_state_dblp
///   graph dblp papers=1200 authors=800 seed=7     # or: graph file path=g.hin
///   seed 42
///   tenants 4
///   queries 2000
///   warmup 100
///   arrival closed workers=8 think_ms=1.5         # closed loop + think time
///   arrival open rate_qps=400 workers=8           # open loop, Poisson arrivals
///   popularity zipf s=1.05                        # or: uniform | nurand
///   cache mb=64                                   # or: cache off | cache unlimited
///   store dir=/tmp/hs_store codec=lossless        # persistent tier (or: store off)
///   service on workers=2 queue_depth=8 memory_mb=64 retries=2   # admission pipeline
///   class pair_hot type=pair   path=A-P-A   weight=0.3 deadline_ms=200
///   class topk_c   type=topk   path=C-P-A   weight=0.5 k=10 deadline_ms=100 deadline_jitter_pct=50 popularity=nurand
///   class row_scan type=single path=A-P-C-P-A weight=0.2
/// \endcode
///
/// Weights are relative (normalized over the declared classes). Deadlines
/// are per query: `deadline_ms` is the mean, `deadline_jitter_pct` draws
/// uniformly in `mean * [1 - j/100, 1 + j/100]`; omitting `deadline_ms`
/// runs the class without a deadline. A per-class `popularity=` overrides
/// the scenario default. The full grammar is documented in
/// docs/performance.md §9.

/// Which engine entry point a query class exercises.
enum class QueryType {
  kPair,          ///< HeteSimEngine::ComputePairs, one (source, target)
  kSingleSource,  ///< HeteSimEngine::ComputeSingleSource, one full row
  kTopK,          ///< TopKSearcher::Query (prepared once per class)
};

/// How queries arrive.
enum class ArrivalMode {
  kClosedLoop,  ///< `workers` loops issue-think-repeat (think time exp-distributed)
  kOpenLoop,    ///< Poisson arrivals at `rate_qps`, served by `workers` loops
};

/// Source-popularity distribution (see workload/generators.h).
struct PopularitySpec {
  PopularityKind kind = PopularityKind::kUniform;
  double zipf_s = 1.05;  ///< Zipf exponent, used when kind == kZipf
};

/// Per-query deadline distribution. `mean_ms == 0` means no deadline.
struct DeadlineSpec {
  double mean_ms = 0;
  double jitter_pct = 0;  ///< uniform in mean * [1 - j/100, 1 + j/100]
};

/// One query class of the mix.
struct QueryClassSpec {
  std::string name;
  QueryType type = QueryType::kPair;
  std::string path_spec;  ///< MetaPath::Parse syntax, e.g. "C-P-A"
  double weight = 1.0;    ///< relative share of the mix
  int k = 10;             ///< top-k width (kTopK only)
  DeadlineSpec deadline;
  std::optional<PopularitySpec> popularity;  ///< override of the scenario default
};

/// Admission-pipeline knobs for service-mode scenarios (`service on ...`).
/// When enabled, the runner routes queries through a resident
/// `service::QueryService` (in-process, or over a Unix socket when the run
/// is given `--service-socket`) instead of calling the engine directly, so
/// overload scenarios exercise rejection/shedding/degradation.
struct ServiceSpec {
  bool enabled = false;
  /// Executor threads inside the service; 0 = the scenario's `workers`.
  int workers = 0;
  int queue_depth = 64;      ///< admission queue capacity
  size_t memory_mb = 0;      ///< service memory budget, 0 = unlimited
  double tenant_rate = 0;    ///< per-tenant quota, cost-seconds/s (0 = off)
  double tenant_burst = 1.0; ///< per-tenant burst, cost-seconds
  double truncate_slice_ms = 10.0;  ///< degraded top-k deadline slice
  /// Client-side retries per query beyond the first attempt (0 = plain
  /// client, no retry loop).
  int retries = 0;
};

/// Persistent path-matrix tier (`store dir=PATH [codec=...]` directive):
/// the runner opens a `MatrixStore` at `dir` against the scenario graph's
/// digest and attaches it under the cache (DESIGN.md §16), so cache misses
/// read from disk before recomputing and evictions demote instead of
/// dropping. The cold/warm-restart benchmark drives the same scenario file
/// twice against one directory to measure the readback advantage.
struct StoreSpec {
  bool enabled = false;
  std::string dir;
  /// Demotion encoding: "lossless" | "quantized" (store/codec.h).
  std::string codec = "lossless";
};

/// Where the graph under load comes from.
struct GraphSpec {
  enum class Kind { kDblp, kAcm, kFile };
  Kind kind = Kind::kDblp;
  int papers = 0;     ///< 0 = generator default
  int authors = 0;    ///< 0 = generator default
  uint64_t seed = 7;  ///< generator seed (dblp/acm)
  std::string path;   ///< kFile: datagen/io.h text format
};

/// A parsed scenario.
struct WorkloadConfig {
  std::string name = "unnamed";
  uint64_t seed = 1;        ///< master seed: schedule is a pure function of it
  int tenants = 1;          ///< round-robin-free: tenant drawn per query
  int64_t num_queries = 1000;
  int64_t warmup_queries = 0;  ///< executed but excluded from the report
  GraphSpec graph;
  ArrivalMode arrival = ArrivalMode::kClosedLoop;
  int workers = 4;
  double think_ms = 0;    ///< closed loop: mean exponential think time
  double rate_qps = 100;  ///< open loop: Poisson arrival rate
  PopularitySpec popularity;
  bool cache_enabled = true;
  size_t cache_mb = 0;  ///< 0 = unlimited (no memory budget)
  StoreSpec store;
  ServiceSpec service;
  std::vector<QueryClassSpec> classes;
};

/// Parses a scenario from DSL text. Errors carry the 1-based line number.
[[nodiscard]] Result<WorkloadConfig> ParseWorkloadConfig(std::string_view text);

/// Parses the scenario file at `path`.
[[nodiscard]] Result<WorkloadConfig> LoadWorkloadConfigFromFile(
    const std::string& path);

}  // namespace hetesim::workload

#endif  // HETESIM_WORKLOAD_CONFIG_H_
