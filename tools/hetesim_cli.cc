// hetesim_cli — command-line front end for the HeteSim library.
//
// Usage:
//   hetesim_cli generate --dataset acm|dblp --out FILE [--seed N]
//                        [--papers N] [--authors N]
//   hetesim_cli summary  --graph FILE
//   hetesim_cli paths    --graph FILE --from TYPE --to TYPE
//                        [--max-length N] [--symmetric]
//   hetesim_cli pair     --graph FILE --path SPEC --source NAME --target NAME
//                        [--unnormalized] [--threads N]
//   hetesim_cli topk     --graph FILE --path SPEC --source NAME [--k N]
//                        [--deadline-ms N]
//   hetesim_cli topk-pairs --graph FILE --path SPEC [--k N]
//                        [--exclude-diagonal]
//   hetesim_cli matrix   --graph FILE --path SPEC --out FILE.csv
//                        [--threads N] [--deadline-ms N] [--max-cache-mb N]
//   hetesim_cli materialize --graph FILE --store-dir DIR
//                        --paths SPEC[,SPEC...]
//                        [--store-codec lossless|quantized] [--threads N]
//   hetesim_cli workload --config FILE[,FILE...] [--out FILE.json]
//                        [--queries N] [--workers N] [--no-realtime]
//                        [--service-socket PATH]
//
// `materialize` is the paper's Section 4.6 offline step: it computes the
// left/right reachable-probability partials of every listed path and writes
// them, compressed, into the on-disk store at --store-dir. Query commands
// (`pair`, `topk`, `matrix`) then accept `--store-dir DIR` (plus
// `--store-codec` for demotion writes): misses are served from the store
// before recomputing, and evicted entries are demoted to it instead of
// dropped. A store recorded against a different graph is detected via a
// digest in its manifest and ignored.
//
// Exit codes: 0 success, 2 usage error (unparseable command line or invalid
// arguments), 1 runtime failure.
//
// --threads follows the library convention: 1 (default) is sequential,
// 0 uses every hardware thread via the shared pool.
//
// `topk` scatters the source's row of the path's left half through the
// right half's inverted index (DESIGN.md §14); without a cache that row is
// the source's propagated frontier, so only the right half is multiplied.
// `pair` without a cache propagates both ends' frontiers and combines them.
//
// --deadline-ms bounds a query's wall-clock time. `topk` degrades
// gracefully: on expiry it prints whatever partial ranking was accumulated
// plus an explicit truncation marker and exits 0; `matrix` and `pair` are
// all-or-nothing and report Deadline exceeded. --max-cache-mb caps the
// path-matrix cache's accounted bytes (a hard limit, enforced by eviction
// and by serving oversized products uncached).
//
// Observability (DESIGN.md §12): every command accepts
//   --metrics-out=FILE   dump the process-wide metrics registry after the
//                        command finishes. A `.json` extension selects the
//                        structured JSON sink; anything else gets the
//                        Prometheus text exposition.
//   --trace-out=FILE     record the query's span tree (engine / chain /
//                        top-k stages) and write it as JSON.
// Both options also accept the space-separated `--metrics-out FILE` form.
//
// Path SPECs use the meta-path syntax of MetaPath::Parse: type codes
// ("APVC", "A-P-V-C") or full type names ("author-paper-venue-conference").
// Graph files use the text format of datagen/io.h.

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.h"
#include "common/context.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "datagen/io.h"
#include "hin/digest.h"
#include "hin/dot.h"
#include "hin/enumerate.h"
#include "hin/metapath.h"
#include "hin/stats.h"
#include "learn/spectral.h"
#include "store/store.h"
#include "workload/config.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace {

using namespace hetesim;
using cli::Args;

Result<HinGraph> LoadGraphArg(const Args& args) {
  auto path = args.Get("graph");
  if (!path) return Status::InvalidArgument("--graph FILE is required");
  return LoadHinGraphFromFile(*path);
}

Result<MetaPath> ParsePathArg(const HinGraph& graph, const Args& args) {
  auto spec = args.Get("path");
  if (!spec) return Status::InvalidArgument("--path SPEC is required");
  return MetaPath::Parse(graph.schema(), *spec);
}

/// Execution bounds shared by the query commands: a deadline from
/// --deadline-ms and, when --max-cache-mb is present, a budgeted
/// path-matrix cache. The budget must outlive the context/cache pair.
struct QueryBounds {
  QueryContext ctx;
  std::shared_ptr<MemoryBudget> budget;
  std::shared_ptr<PathMatrixCache> cache;
};

/// The trace collecting this invocation's spans, set in main() when
/// --trace-out is present. A pointer (not an owning object) so the trace's
/// lifetime brackets the command dispatch and the final RenderJson.
Trace* g_trace = nullptr;

/// Opens the --store-dir/--store-codec store against `graph`'s digest.
/// Shared by MakeQueryBounds and `materialize`.
Result<std::shared_ptr<MatrixStore>> OpenStoreArg(const Args& args,
                                                  const HinGraph& graph,
                                                  const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("--store-dir needs a path");
  StoreOptions options;
  options.directory = dir;
  options.graph_digest = GraphDigest(graph);
  HETESIM_ASSIGN_OR_RETURN(
      const std::string codec_word,
      args.GetChoice("store-codec", "lossless", {"lossless", "quantized"}));
  HETESIM_ASSIGN_OR_RETURN(options.codec, StoreCodecFromString(codec_word));
  HETESIM_ASSIGN_OR_RETURN(std::unique_ptr<MatrixStore> store,
                           MatrixStore::Open(options));
  return std::shared_ptr<MatrixStore>(std::move(store));
}

Result<QueryBounds> MakeQueryBounds(const Args& args, const HinGraph& graph) {
  QueryBounds bounds;
  if (args.Has("deadline-ms")) {
    HETESIM_ASSIGN_OR_RETURN(
        int deadline_ms,
        args.GetInt("deadline-ms", 0, /*min=*/0,
                    /*max=*/std::numeric_limits<int>::max()));
    bounds.ctx = bounds.ctx.WithDeadlineAfterMs(deadline_ms);
  }
  if (args.Has("max-cache-mb")) {
    HETESIM_ASSIGN_OR_RETURN(
        int cache_mb,
        args.GetInt("max-cache-mb", 0, /*min=*/0, /*max=*/1 << 20));
    const size_t limit = static_cast<size_t>(cache_mb) * 1024 * 1024;
    bounds.budget = std::make_shared<MemoryBudget>(limit);
    bounds.cache = std::make_shared<PathMatrixCache>();
    bounds.cache->SetMemoryBudget(bounds.budget);
  }
  if (auto dir = args.Get("store-dir"); dir) {
    HETESIM_ASSIGN_OR_RETURN(std::shared_ptr<MatrixStore> store,
                             OpenStoreArg(args, graph, *dir));
    if (bounds.cache == nullptr) {
      bounds.cache = std::make_shared<PathMatrixCache>();
    }
    bounds.cache->AttachStore(std::move(store));
  }
  if (g_trace != nullptr) bounds.ctx = bounds.ctx.WithTrace(g_trace);
  return bounds;
}

/// --threads follows the library convention: 0 = every hardware thread,
/// N >= 1 explicit. Negative or garbage is a usage error.
Result<int> GetThreadsArg(const Args& args) {
  return args.GetInt("threads", 1, /*min=*/0, /*max=*/4096);
}

Result<int> GetKArg(const Args& args, int fallback) {
  return args.GetInt("k", fallback, /*min=*/1,
                     /*max=*/std::numeric_limits<int>::max());
}

void PrintCacheStats(const QueryBounds& bounds) {
  if (bounds.cache == nullptr) return;
  const PathMatrixCache::Stats stats = bounds.cache->stats();
  if (bounds.budget != nullptr) {
    std::printf(
        "cache: %zu entries, %zu evictions, %zu uncached; peak %zu of %zu bytes\n",
        stats.entries, stats.evictions, stats.rejected_inserts,
        stats.peak_accounted_bytes, bounds.budget->limit_bytes());
  }
  if (bounds.cache->store() != nullptr) {
    std::printf("store: %zu hits, %zu misses, %zu demotions\n",
                stats.store_hits, stats.store_misses, stats.store_demotions);
  }
}

Result<TypeId> ResolveType(const Schema& schema, const std::string& token) {
  if (token.size() == 1) {
    Result<TypeId> by_code = schema.TypeByCode(token[0]);
    if (by_code.ok()) return by_code;
  }
  return schema.TypeByName(token);
}

Status RunGenerate(const Args& args) {
  auto out = args.Get("out");
  auto dataset = args.Get("dataset");
  if (!out || !dataset) {
    return Status::InvalidArgument("generate needs --dataset acm|dblp and --out FILE");
  }
  if (*dataset == "acm") {
    AcmConfig config;
    HETESIM_ASSIGN_OR_RETURN(config.seed, args.GetUint64("seed", 7));
    HETESIM_ASSIGN_OR_RETURN(
        config.num_papers,
        args.GetInt("papers", config.num_papers, /*min=*/1));
    HETESIM_ASSIGN_OR_RETURN(
        config.num_authors,
        args.GetInt("authors", config.num_authors, /*min=*/1));
    HETESIM_ASSIGN_OR_RETURN(AcmDataset acm, GenerateAcm(config));
    HETESIM_RETURN_NOT_OK(SaveHinGraphToFile(acm.graph, *out));
    std::printf("wrote ACM-style network to %s\n%s", out->c_str(),
                acm.graph.Summary().c_str());
    return Status::OK();
  }
  if (*dataset == "dblp") {
    DblpConfig config;
    HETESIM_ASSIGN_OR_RETURN(config.seed, args.GetUint64("seed", 11));
    HETESIM_ASSIGN_OR_RETURN(
        config.num_papers,
        args.GetInt("papers", config.num_papers, /*min=*/1));
    HETESIM_ASSIGN_OR_RETURN(
        config.num_authors,
        args.GetInt("authors", config.num_authors, /*min=*/1));
    HETESIM_ASSIGN_OR_RETURN(DblpDataset dblp, GenerateDblp(config));
    HETESIM_RETURN_NOT_OK(SaveHinGraphToFile(dblp.graph, *out));
    std::printf("wrote DBLP-style network to %s\n%s", out->c_str(),
                dblp.graph.Summary().c_str());
    return Status::OK();
  }
  return Status::InvalidArgument("unknown dataset '" + *dataset + "'");
}

Status RunSummary(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  std::printf("%s", graph.Summary().c_str());
  if (args.Has("detailed")) {
    std::printf("%s", RenderGraphStats(graph, ComputeGraphStats(graph)).c_str());
  }
  return Status::OK();
}

Status RunDot(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  if (args.Has("schema")) {
    std::printf("%s", SchemaToDot(graph.schema()).c_str());
    return Status::OK();
  }
  auto type_token = args.Get("type");
  auto node_name = args.Get("node");
  if (!type_token || !node_name) {
    return Status::InvalidArgument(
        "dot needs --schema, or --type TYPE --node NAME");
  }
  HETESIM_ASSIGN_OR_RETURN(TypeId type, ResolveType(graph.schema(), *type_token));
  HETESIM_ASSIGN_OR_RETURN(Index id, graph.FindNode(type, *node_name));
  HETESIM_ASSIGN_OR_RETURN(int radius, args.GetInt("radius", 2, /*min=*/0));
  HETESIM_ASSIGN_OR_RETURN(int max_nodes,
                           args.GetInt("max-nodes", 50, /*min=*/1));
  HETESIM_ASSIGN_OR_RETURN(
      std::string dot, NeighborhoodToDot(graph, type, id, radius, max_nodes));
  std::printf("%s", dot.c_str());
  return Status::OK();
}

Status RunCluster(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  HETESIM_ASSIGN_OR_RETURN(MetaPath path, ParsePathArg(graph, args));
  if (path.SourceType() != path.TargetType()) {
    return Status::InvalidArgument(
        "cluster needs a same-typed (ideally symmetric) path");
  }
  HETESIM_ASSIGN_OR_RETURN(const int k, GetKArg(args, 4));
  HeteSimOptions options;
  HETESIM_ASSIGN_OR_RETURN(options.num_threads, GetThreadsArg(args));
  HeteSimEngine engine(graph, options);
  HETESIM_ASSIGN_OR_RETURN(DenseMatrix affinity, engine.Compute(path));
  HETESIM_ASSIGN_OR_RETURN(std::vector<int> clusters,
                           SpectralClusterNormalizedCut(affinity, k));
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::printf("%-24s %d\n",
                graph.NodeName(path.SourceType(), static_cast<Index>(i)).c_str(),
                clusters[i]);
  }
  return Status::OK();
}

Status RunPaths(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  auto from = args.Get("from");
  auto to = args.Get("to");
  if (!from || !to) {
    return Status::InvalidArgument("paths needs --from TYPE and --to TYPE");
  }
  HETESIM_ASSIGN_OR_RETURN(TypeId source, ResolveType(graph.schema(), *from));
  HETESIM_ASSIGN_OR_RETURN(TypeId target, ResolveType(graph.schema(), *to));
  EnumerateOptions options;
  HETESIM_ASSIGN_OR_RETURN(options.max_length,
                           args.GetInt("max-length", 4, /*min=*/1, /*max=*/32));
  options.symmetric_only = args.Has("symmetric");
  HETESIM_ASSIGN_OR_RETURN(std::vector<MetaPath> paths,
                           EnumerateMetaPaths(graph.schema(), source, target,
                                              options));
  for (const MetaPath& path : paths) {
    std::printf("%-20s %s\n", path.ToString().c_str(),
                path.ToRelationString().c_str());
  }
  std::printf("%zu paths\n", paths.size());
  return Status::OK();
}

Status RunPair(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  HETESIM_ASSIGN_OR_RETURN(MetaPath path, ParsePathArg(graph, args));
  auto source_name = args.Get("source");
  auto target_name = args.Get("target");
  if (!source_name || !target_name) {
    return Status::InvalidArgument("pair needs --source NAME and --target NAME");
  }
  HETESIM_ASSIGN_OR_RETURN(Index source,
                           graph.FindNode(path.SourceType(), *source_name));
  HETESIM_ASSIGN_OR_RETURN(Index target,
                           graph.FindNode(path.TargetType(), *target_name));
  HeteSimOptions options;
  options.normalized = !args.Has("unnormalized");
  HETESIM_ASSIGN_OR_RETURN(options.num_threads, GetThreadsArg(args));
  HETESIM_ASSIGN_OR_RETURN(const QueryBounds bounds, MakeQueryBounds(args, graph));
  HeteSimEngine engine(graph, options, bounds.cache);
  HETESIM_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      engine.ComputePairs(path, {{source, target}}, bounds.ctx));
  std::printf("HeteSim(%s, %s | %s) = %.6f\n", source_name->c_str(),
              target_name->c_str(), path.ToString().c_str(), scores[0]);
  PrintCacheStats(bounds);
  return Status::OK();
}

Status RunTopK(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  HETESIM_ASSIGN_OR_RETURN(MetaPath path, ParsePathArg(graph, args));
  auto source_name = args.Get("source");
  if (!source_name) return Status::InvalidArgument("topk needs --source NAME");
  HETESIM_ASSIGN_OR_RETURN(Index source,
                           graph.FindNode(path.SourceType(), *source_name));
  HETESIM_ASSIGN_OR_RETURN(const int k, GetKArg(args, 10));
  HETESIM_ASSIGN_OR_RETURN(const QueryBounds bounds, MakeQueryBounds(args, graph));
  const HeteSimEngine engine(graph, HeteSimOptions{}, bounds.cache);
  Result<TopKResult> ranked = engine.ComputeTopK(path, source, k, bounds.ctx);
  if (ranked.status().IsDeadlineExceeded()) {
    // The deadline died before the scatter, while the path's halves were
    // being propagated or multiplied: an empty partial answer, reported as
    // such rather than as a failure.
    std::printf(
        "[truncated: deadline exceeded while materializing %s; no results]\n",
        path.ToString().c_str());
    return Status::OK();
  }
  HETESIM_ASSIGN_OR_RETURN(const TopKResult result, std::move(ranked));
  int rank = 1;
  for (const Scored& item : result.items) {
    std::printf("%3d. %-24s %.6f\n", rank++,
                graph.NodeName(path.TargetType(), item.id).c_str(), item.score);
  }
  std::printf("(%lld of %lld candidates examined)\n",
              static_cast<long long>(result.candidates_examined),
              static_cast<long long>(graph.NumNodes(path.TargetType())));
  if (result.truncated) {
    std::printf(
        "[truncated: deadline exceeded after %lld of %lld middle objects; "
        "scores are partial lower bounds]\n",
        static_cast<long long>(result.middle_processed),
        static_cast<long long>(result.middle_total));
  }
  PrintCacheStats(bounds);
  return Status::OK();
}

Status RunTopKPairs(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  HETESIM_ASSIGN_OR_RETURN(MetaPath path, ParsePathArg(graph, args));
  HETESIM_ASSIGN_OR_RETURN(const int k, GetKArg(args, 10));
  HETESIM_ASSIGN_OR_RETURN(
      std::vector<ScoredPair> pairs,
      TopKPairs(graph, path, k, args.Has("exclude-diagonal")));
  int rank = 1;
  for (const ScoredPair& pair : pairs) {
    std::printf("%3d. %-20s %-20s %.6f\n", rank++,
                graph.NodeName(path.SourceType(), pair.source).c_str(),
                graph.NodeName(path.TargetType(), pair.target).c_str(),
                pair.score);
  }
  return Status::OK();
}

Status RunMatrix(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  HETESIM_ASSIGN_OR_RETURN(MetaPath path, ParsePathArg(graph, args));
  auto out = args.Get("out");
  if (!out) return Status::InvalidArgument("matrix needs --out FILE.csv");
  HeteSimOptions options;
  HETESIM_ASSIGN_OR_RETURN(options.num_threads, GetThreadsArg(args));
  HETESIM_ASSIGN_OR_RETURN(const QueryBounds bounds, MakeQueryBounds(args, graph));
  HeteSimEngine engine(graph, options, bounds.cache);
  HETESIM_ASSIGN_OR_RETURN(DenseMatrix scores, engine.Compute(path, bounds.ctx));
  std::ofstream file(*out);
  if (!file.is_open()) {
    return Status::IOError("cannot open '" + *out + "' for writing");
  }
  const TypeId source_type = path.SourceType();
  const TypeId target_type = path.TargetType();
  file << "source";
  for (Index b = 0; b < scores.cols(); ++b) {
    file << "," << graph.NodeName(target_type, b);
  }
  file << "\n";
  for (Index a = 0; a < scores.rows(); ++a) {
    file << graph.NodeName(source_type, a);
    for (Index b = 0; b < scores.cols(); ++b) file << "," << scores(a, b);
    file << "\n";
  }
  if (!file.good()) return Status::IOError("matrix write failed");
  std::printf("wrote %lld x %lld relevance matrix along %s to %s\n",
              static_cast<long long>(scores.rows()),
              static_cast<long long>(scores.cols()), path.ToString().c_str(),
              out->c_str());
  PrintCacheStats(bounds);
  return Status::OK();
}

/// The Section 4.6 offline step: compute the left/right partials of every
/// listed path and flush them into the on-disk store. Existing store
/// entries short-circuit the compute (the cache probes the store on a
/// miss), so re-running after adding one path to the list only pays for
/// the new path.
Status RunMaterialize(const Args& args) {
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadGraphArg(args));
  auto dir = args.Get("store-dir");
  if (!dir) return Status::InvalidArgument("materialize needs --store-dir DIR");
  auto specs_arg = args.Get("paths");
  if (!specs_arg || specs_arg->empty()) {
    return Status::InvalidArgument("materialize needs --paths SPEC[,SPEC...]");
  }
  HETESIM_ASSIGN_OR_RETURN(const int threads, GetThreadsArg(args));
  HETESIM_ASSIGN_OR_RETURN(std::shared_ptr<MatrixStore> store,
                           OpenStoreArg(args, graph, *dir));
  auto cache = std::make_shared<PathMatrixCache>();
  cache->AttachStore(store);
  QueryContext ctx;
  if (g_trace != nullptr) ctx = ctx.WithTrace(g_trace);
  for (size_t start = 0; start <= specs_arg->size();) {
    size_t comma = specs_arg->find(',', start);
    if (comma == std::string::npos) comma = specs_arg->size();
    if (comma > start) {
      const std::string spec = specs_arg->substr(start, comma - start);
      HETESIM_ASSIGN_OR_RETURN(MetaPath path,
                               MetaPath::Parse(graph.schema(), spec));
      HETESIM_RETURN_NOT_OK(
          cache->GetLeft(graph, path, ctx, threads).status());
      HETESIM_RETURN_NOT_OK(
          cache->GetRight(graph, path, ctx, threads).status());
      std::printf("materialized %s\n", path.ToString().c_str());
    }
    start = comma + 1;
  }
  HETESIM_RETURN_NOT_OK(cache->FlushToStore());
  const MatrixStore::Stats stats = store->stats();
  const PathMatrixCache::Stats cache_stats = cache->stats();
  std::printf(
      "store %s: %zu entries, %zu bytes on disk "
      "(%zu reused from a previous run, %zu written)\n",
      dir->c_str(), stats.entries, stats.bytes, cache_stats.store_hits,
      stats.writes);
  return Status::OK();
}

Status RunWorkload(const Args& args) {
  auto config_arg = args.Get("config");
  if (!config_arg || config_arg->empty()) {
    return Status::InvalidArgument("workload needs --config FILE[,FILE...]");
  }
  workload::RunOptions run_options;
  HETESIM_ASSIGN_OR_RETURN(
      run_options.override_queries,
      args.GetInt64("queries", 0, /*min=*/0,
                    /*max=*/std::numeric_limits<int64_t>::max()));
  HETESIM_ASSIGN_OR_RETURN(run_options.override_workers,
                           args.GetInt("workers", 0, /*min=*/0, /*max=*/4096));
  run_options.realtime = !args.Has("no-realtime");
  if (auto socket = args.Get("service-socket"); socket) {
    if (socket->empty()) {
      return Status::InvalidArgument("--service-socket needs a path");
    }
    run_options.service_socket = *socket;
  }

  std::vector<std::string> files;
  for (size_t start = 0; start <= config_arg->size();) {
    size_t comma = config_arg->find(',', start);
    if (comma == std::string::npos) comma = config_arg->size();
    if (comma > start) files.push_back(config_arg->substr(start, comma - start));
    start = comma + 1;
  }
  if (files.empty()) {
    return Status::InvalidArgument("workload needs --config FILE[,FILE...]");
  }

  std::vector<workload::ScenarioReport> reports;
  for (const std::string& file : files) {
    HETESIM_ASSIGN_OR_RETURN(workload::WorkloadConfig config,
                             workload::LoadWorkloadConfigFromFile(file));
    HETESIM_ASSIGN_OR_RETURN(std::unique_ptr<workload::WorkloadRunner> runner,
                             workload::WorkloadRunner::Create(config));
    HETESIM_ASSIGN_OR_RETURN(workload::ScenarioReport report,
                             runner->Run(run_options));
    std::printf("%s", workload::RenderScenarioSummary(report).c_str());
    reports.push_back(std::move(report));
  }
  if (auto out = args.Get("out"); out) {
    HETESIM_RETURN_NOT_OK(workload::WriteWorkloadReports(*out, reports));
    std::printf("wrote %zu scenario report(s) to %s\n", reports.size(),
                out->c_str());
  }
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: hetesim_cli COMMAND [--options]\n"
               "commands:\n"
               "  generate --dataset acm|dblp --out FILE [--seed N] "
               "[--papers N] [--authors N]\n"
               "  summary  --graph FILE [--detailed]\n"
               "  dot      --graph FILE (--schema | --type TYPE --node NAME "
               "[--radius N] [--max-nodes N])\n"
               "  cluster  --graph FILE --path SPEC [--k N] [--threads N]\n"
               "  paths    --graph FILE --from TYPE --to TYPE "
               "[--max-length N] [--symmetric]\n"
               "  pair     --graph FILE --path SPEC --source NAME "
               "--target NAME [--unnormalized] [--threads N] "
               "[--deadline-ms N] [--max-cache-mb N]\n"
               "  topk     --graph FILE --path SPEC --source NAME [--k N] "
               "[--deadline-ms N] [--max-cache-mb N]\n"
               "  topk-pairs --graph FILE --path SPEC [--k N] "
               "[--exclude-diagonal]\n"
               "  matrix   --graph FILE --path SPEC --out FILE.csv "
               "[--threads N] [--deadline-ms N] [--max-cache-mb N]\n"
               "  materialize --graph FILE --store-dir DIR "
               "--paths SPEC[,SPEC...] "
               "[--store-codec lossless|quantized] [--threads N]\n"
               "  workload --config FILE[,FILE...] [--out FILE.json] "
               "[--queries N] [--workers N] [--no-realtime] "
               "[--service-socket PATH]\n"
               "--store-dir DIR (pair, topk, matrix) serves cache misses "
               "from an on-disk store and demotes evictions into it; "
               "--store-codec picks the demotion encoding\n"
               "observability (any command):\n"
               "  --metrics-out=FILE  dump the metrics registry "
               "(.json -> JSON, else Prometheus text)\n"
               "  --trace-out=FILE    write the query's span tree as JSON\n");
}

/// Writes `contents` to `path`; a failed dump is reported but never turns a
/// successful command into a failing exit code.
void DumpObservability(const std::string& path, const std::string& contents) {
  std::ofstream file(path);
  if (file.is_open()) file << contents;
  if (!file.good()) {
    std::fprintf(stderr, "warning: could not write '%s'\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Result<Args> args = Args::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  std::optional<Trace> trace;
  if (args->Has("trace-out")) {
    trace.emplace();
    g_trace = &*trace;
  }
  Status status;
  if (args->command == "generate") {
    status = RunGenerate(*args);
  } else if (args->command == "summary") {
    status = RunSummary(*args);
  } else if (args->command == "dot") {
    status = RunDot(*args);
  } else if (args->command == "cluster") {
    status = RunCluster(*args);
  } else if (args->command == "paths") {
    status = RunPaths(*args);
  } else if (args->command == "pair") {
    status = RunPair(*args);
  } else if (args->command == "topk") {
    status = RunTopK(*args);
  } else if (args->command == "topk-pairs") {
    status = RunTopKPairs(*args);
  } else if (args->command == "matrix") {
    status = RunMatrix(*args);
  } else if (args->command == "materialize") {
    status = RunMaterialize(*args);
  } else if (args->command == "workload") {
    status = RunWorkload(*args);
  } else if (args->command == "help" || args->command == "--help") {
    PrintUsage();
    return 0;
  } else {
    std::fprintf(stderr, "error: unknown command '%s'\n", args->command.c_str());
    PrintUsage();
    return 2;
  }
  if (auto metrics_out = args->Get("metrics-out"); metrics_out) {
    const bool json = metrics_out->size() >= 5 &&
                      metrics_out->compare(metrics_out->size() - 5, 5,
                                           ".json") == 0;
    const MetricsRegistry& registry = MetricsRegistry::Global();
    DumpObservability(*metrics_out, json ? registry.RenderJson()
                                         : registry.RenderPrometheus());
  }
  if (auto trace_out = args->Get("trace-out"); trace_out && trace) {
    DumpObservability(*trace_out, trace->RenderJson());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    // Usage mistakes (bad/missing flags) exit 2, matching parse failures
    // above; genuine runtime failures (IO, compute) exit 1, so scripts can
    // tell "fix the command line" from "investigate the run".
    return status.IsInvalidArgument() ? 2 : 1;
  }
  return 0;
}
