#include "workload/config.h"

#include <fstream>
#include <map>
#include <sstream>

#include "common/string_util.h"

namespace hetesim::workload {
namespace {

/// One parsed directive line: the directive word, positional words, and
/// `key=value` pairs (insertion order preserved for error messages).
struct Line {
  int number = 0;
  std::string directive;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

Status LineError(const Line& line, const std::string& message) {
  return Status::InvalidArgument(StrFormat("line %d: %s", line.number,
                                           message.c_str()));
}

/// Splits a raw line into words on whitespace.
std::vector<std::string> Words(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == ' ' || c == '\t') {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

Result<Line> TokenizeLine(int number, std::string_view text) {
  Line line;
  line.number = number;
  std::vector<std::string> words = Words(text);
  if (words.empty()) return line;  // caller skips empty directives
  line.directive = words[0];
  for (size_t i = 1; i < words.size(); ++i) {
    const size_t eq = words[i].find('=');
    if (eq == std::string::npos) {
      line.positional.push_back(words[i]);
    } else {
      const std::string key = words[i].substr(0, eq);
      if (key.empty()) {
        return LineError(line, "option '" + words[i] + "' has an empty key");
      }
      if (line.options.count(key) != 0) {
        return LineError(line, "duplicate option '" + key + "'");
      }
      line.options[key] = words[i].substr(eq + 1);
    }
  }
  return line;
}

/// Typed option accessors; every failure names the line and the option.
class OptionReader {
 public:
  OptionReader(const Line& line) : line_(line), remaining_(line.options) {}

  std::optional<std::string> Take(const std::string& key) {
    auto it = remaining_.find(key);
    if (it == remaining_.end()) return std::nullopt;
    std::string value = it->second;
    remaining_.erase(it);
    return value;
  }

  Result<int64_t> TakeInt(const std::string& key, int64_t fallback,
                          int64_t min_value) {
    auto raw = Take(key);
    if (!raw) return fallback;
    Result<int64_t> parsed = ParseInt64(*raw);
    if (!parsed.ok()) return Wrap(key, parsed.status());
    if (*parsed < min_value) {
      return LineError(line_, StrFormat("%s must be >= %lld, got %lld",
                                        key.c_str(),
                                        static_cast<long long>(min_value),
                                        static_cast<long long>(*parsed)));
    }
    return parsed;
  }

  Result<uint64_t> TakeUint(const std::string& key, uint64_t fallback) {
    auto raw = Take(key);
    if (!raw) return fallback;
    Result<uint64_t> parsed = ParseUint64(*raw);
    if (!parsed.ok()) return Wrap(key, parsed.status());
    return parsed;
  }

  Result<double> TakeDouble(const std::string& key, double fallback,
                            double min_value) {
    auto raw = Take(key);
    if (!raw) return fallback;
    Result<double> parsed = ParseDouble(*raw);
    if (!parsed.ok()) return Wrap(key, parsed.status());
    if (*parsed < min_value) {
      return LineError(line_, StrFormat("%s must be >= %g, got %g", key.c_str(),
                                        min_value, *parsed));
    }
    return parsed;
  }

  /// After all expected options were taken, rejects leftovers so typos
  /// (`thinkms=1`) fail loudly instead of silently doing nothing.
  Status CheckNoLeftovers() {
    if (remaining_.empty()) return Status::OK();
    return LineError(line_, "unknown option '" + remaining_.begin()->first +
                                "' for directive '" + line_.directive + "'");
  }

 private:
  Status Wrap(const std::string& key, const Status& inner) {
    return LineError(line_, key + ": " + std::string(inner.message()));
  }

  const Line& line_;
  std::map<std::string, std::string> remaining_;
};

Result<PopularitySpec> ParsePopularity(const Line& line,
                                       const std::string& kind_word,
                                       OptionReader& reader) {
  PopularitySpec spec;
  if (kind_word == "uniform") {
    spec.kind = PopularityKind::kUniform;
  } else if (kind_word == "zipf") {
    spec.kind = PopularityKind::kZipf;
    HETESIM_ASSIGN_OR_RETURN(spec.zipf_s, reader.TakeDouble("s", 1.05, 1e-3));
  } else if (kind_word == "nurand") {
    spec.kind = PopularityKind::kNurand;
  } else {
    return LineError(line, "unknown popularity '" + kind_word +
                               "' (want uniform | zipf | nurand)");
  }
  return spec;
}

Status ParseGraphLine(const Line& line, OptionReader& reader,
                      WorkloadConfig* config) {
  if (line.positional.size() != 1) {
    return LineError(line, "graph needs a kind: dblp | acm | file");
  }
  const std::string& kind = line.positional[0];
  if (kind == "dblp") {
    config->graph.kind = GraphSpec::Kind::kDblp;
  } else if (kind == "acm") {
    config->graph.kind = GraphSpec::Kind::kAcm;
  } else if (kind == "file") {
    config->graph.kind = GraphSpec::Kind::kFile;
    auto path = reader.Take("path");
    if (!path || path->empty()) {
      return LineError(line, "graph file needs path=FILE");
    }
    config->graph.path = *path;
    return Status::OK();
  } else {
    return LineError(line, "unknown graph kind '" + kind + "'");
  }
  HETESIM_ASSIGN_OR_RETURN(int64_t papers, reader.TakeInt("papers", 0, 0));
  HETESIM_ASSIGN_OR_RETURN(int64_t authors, reader.TakeInt("authors", 0, 0));
  HETESIM_ASSIGN_OR_RETURN(config->graph.seed, reader.TakeUint("seed", 7));
  config->graph.papers = static_cast<int>(papers);
  config->graph.authors = static_cast<int>(authors);
  return Status::OK();
}

Status ParseArrivalLine(const Line& line, OptionReader& reader,
                        WorkloadConfig* config) {
  if (line.positional.size() != 1) {
    return LineError(line, "arrival needs a mode: closed | open");
  }
  const std::string& mode = line.positional[0];
  HETESIM_ASSIGN_OR_RETURN(int64_t workers,
                           reader.TakeInt("workers", config->workers, 1));
  config->workers = static_cast<int>(workers);
  if (mode == "closed") {
    config->arrival = ArrivalMode::kClosedLoop;
    HETESIM_ASSIGN_OR_RETURN(config->think_ms,
                             reader.TakeDouble("think_ms", 0, 0));
  } else if (mode == "open") {
    config->arrival = ArrivalMode::kOpenLoop;
    HETESIM_ASSIGN_OR_RETURN(config->rate_qps,
                             reader.TakeDouble("rate_qps", 100, 1e-3));
  } else {
    return LineError(line, "unknown arrival mode '" + mode + "'");
  }
  return Status::OK();
}

Status ParseCacheLine(const Line& line, OptionReader& reader,
                      WorkloadConfig* config) {
  if (!line.positional.empty()) {
    const std::string& word = line.positional[0];
    if (word == "off") {
      config->cache_enabled = false;
      config->cache_mb = 0;
      return Status::OK();
    }
    if (word == "unlimited") {
      config->cache_enabled = true;
      config->cache_mb = 0;
      return Status::OK();
    }
    return LineError(line, "unknown cache mode '" + word +
                               "' (want off | unlimited | mb=N)");
  }
  HETESIM_ASSIGN_OR_RETURN(int64_t mb, reader.TakeInt("mb", -1, 1));
  if (mb < 0) return LineError(line, "cache needs off | unlimited | mb=N");
  config->cache_enabled = true;
  config->cache_mb = static_cast<size_t>(mb);
  return Status::OK();
}

Status ParseStoreLine(const Line& line, OptionReader& reader,
                      WorkloadConfig* config) {
  if (!line.positional.empty()) {
    if (line.positional[0] == "off") {
      config->store = StoreSpec{};
      return Status::OK();
    }
    return LineError(line, "unknown store mode '" + line.positional[0] +
                               "' (want off | dir=PATH [codec=NAME])");
  }
  auto dir = reader.Take("dir");
  if (!dir || dir->empty()) {
    return LineError(line, "store needs dir=PATH (or 'store off')");
  }
  config->store.enabled = true;
  config->store.dir = *dir;
  if (auto codec = reader.Take("codec"); codec) {
    if (*codec != "lossless" && *codec != "quantized") {
      return LineError(line, "unknown store codec '" + *codec +
                                 "' (want lossless | quantized)");
    }
    config->store.codec = *codec;
  }
  return Status::OK();
}

Status ParseServiceLine(const Line& line, OptionReader& reader,
                        WorkloadConfig* config) {
  if (line.positional.size() != 1) {
    return LineError(line, "service needs a mode: on | off");
  }
  const std::string& mode = line.positional[0];
  if (mode == "off") {
    config->service = ServiceSpec{};
    return Status::OK();
  }
  if (mode != "on") {
    return LineError(line, "unknown service mode '" + mode + "' (want on | off)");
  }
  config->service.enabled = true;
  HETESIM_ASSIGN_OR_RETURN(int64_t workers, reader.TakeInt("workers", 0, 0));
  config->service.workers = static_cast<int>(workers);
  HETESIM_ASSIGN_OR_RETURN(int64_t queue_depth,
                           reader.TakeInt("queue_depth", 64, 1));
  config->service.queue_depth = static_cast<int>(queue_depth);
  HETESIM_ASSIGN_OR_RETURN(int64_t memory_mb,
                           reader.TakeInt("memory_mb", 0, 0));
  config->service.memory_mb = static_cast<size_t>(memory_mb);
  HETESIM_ASSIGN_OR_RETURN(config->service.tenant_rate,
                           reader.TakeDouble("tenant_rate", 0, 0));
  HETESIM_ASSIGN_OR_RETURN(config->service.tenant_burst,
                           reader.TakeDouble("tenant_burst", 1.0, 0));
  HETESIM_ASSIGN_OR_RETURN(config->service.truncate_slice_ms,
                           reader.TakeDouble("truncate_slice_ms", 10.0, 0));
  HETESIM_ASSIGN_OR_RETURN(int64_t retries, reader.TakeInt("retries", 0, 0));
  if (retries > 16) return LineError(line, "retries must be <= 16");
  config->service.retries = static_cast<int>(retries);
  return Status::OK();
}

Status ParseClassLine(const Line& line, OptionReader& reader,
                      WorkloadConfig* config) {
  if (line.positional.size() != 1) {
    return LineError(line, "class needs a name, e.g. 'class hot_topk type=topk ...'");
  }
  QueryClassSpec spec;
  spec.name = line.positional[0];
  for (const QueryClassSpec& existing : config->classes) {
    if (existing.name == spec.name) {
      return LineError(line, "duplicate class '" + spec.name + "'");
    }
  }
  auto type = reader.Take("type");
  if (!type) return LineError(line, "class needs type=pair|single|topk");
  if (*type == "pair") {
    spec.type = QueryType::kPair;
  } else if (*type == "single" || *type == "single_source") {
    spec.type = QueryType::kSingleSource;
  } else if (*type == "topk") {
    spec.type = QueryType::kTopK;
  } else {
    return LineError(line, "unknown class type '" + *type +
                               "' (want pair | single | topk)");
  }
  auto path = reader.Take("path");
  if (!path || path->empty()) {
    return LineError(line, "class needs path=SPEC (MetaPath::Parse syntax)");
  }
  spec.path_spec = *path;
  HETESIM_ASSIGN_OR_RETURN(spec.weight, reader.TakeDouble("weight", 1.0, 1e-9));
  HETESIM_ASSIGN_OR_RETURN(int64_t k, reader.TakeInt("k", 10, 1));
  spec.k = static_cast<int>(k);
  HETESIM_ASSIGN_OR_RETURN(spec.deadline.mean_ms,
                           reader.TakeDouble("deadline_ms", 0, 0));
  HETESIM_ASSIGN_OR_RETURN(spec.deadline.jitter_pct,
                           reader.TakeDouble("deadline_jitter_pct", 0, 0));
  if (spec.deadline.jitter_pct > 100) {
    return LineError(line, "deadline_jitter_pct must be <= 100");
  }
  if (auto pop = reader.Take("popularity"); pop) {
    HETESIM_ASSIGN_OR_RETURN(PopularitySpec popularity,
                             ParsePopularity(line, *pop, reader));
    spec.popularity = popularity;
  }
  config->classes.push_back(std::move(spec));
  return Status::OK();
}

}  // namespace

Result<WorkloadConfig> ParseWorkloadConfig(std::string_view text) {
  WorkloadConfig config;
  bool saw_scenario = false;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    if (Trim(raw).empty()) continue;
    HETESIM_ASSIGN_OR_RETURN(Line line, TokenizeLine(number, raw));
    OptionReader reader(line);
    if (line.directive == "scenario") {
      if (line.positional.size() != 1) {
        return LineError(line, "scenario needs exactly one name");
      }
      config.name = line.positional[0];
      saw_scenario = true;
    } else if (line.directive == "seed") {
      if (line.positional.size() != 1) {
        return LineError(line, "seed needs one value");
      }
      Result<uint64_t> seed = ParseUint64(line.positional[0]);
      if (!seed.ok()) return LineError(line, std::string(seed.status().message()));
      config.seed = *seed;
    } else if (line.directive == "tenants") {
      if (line.positional.size() != 1) {
        return LineError(line, "tenants needs one value");
      }
      Result<int64_t> tenants = ParseInt64(line.positional[0]);
      if (!tenants.ok() || *tenants < 1 || *tenants > 4096) {
        return LineError(line, "tenants must be an integer in [1, 4096]");
      }
      config.tenants = static_cast<int>(*tenants);
    } else if (line.directive == "queries") {
      if (line.positional.size() != 1) {
        return LineError(line, "queries needs one value");
      }
      Result<int64_t> queries = ParseInt64(line.positional[0]);
      if (!queries.ok() || *queries < 1) {
        return LineError(line, "queries must be a positive integer");
      }
      config.num_queries = *queries;
    } else if (line.directive == "warmup") {
      if (line.positional.size() != 1) {
        return LineError(line, "warmup needs one value");
      }
      Result<int64_t> warmup = ParseInt64(line.positional[0]);
      if (!warmup.ok() || *warmup < 0) {
        return LineError(line, "warmup must be a non-negative integer");
      }
      config.warmup_queries = *warmup;
    } else if (line.directive == "graph") {
      HETESIM_RETURN_NOT_OK(ParseGraphLine(line, reader, &config));
    } else if (line.directive == "arrival") {
      HETESIM_RETURN_NOT_OK(ParseArrivalLine(line, reader, &config));
    } else if (line.directive == "popularity") {
      if (line.positional.size() != 1) {
        return LineError(line, "popularity needs a kind: uniform | zipf | nurand");
      }
      HETESIM_ASSIGN_OR_RETURN(
          config.popularity, ParsePopularity(line, line.positional[0], reader));
    } else if (line.directive == "cache") {
      HETESIM_RETURN_NOT_OK(ParseCacheLine(line, reader, &config));
    } else if (line.directive == "store") {
      HETESIM_RETURN_NOT_OK(ParseStoreLine(line, reader, &config));
    } else if (line.directive == "service") {
      HETESIM_RETURN_NOT_OK(ParseServiceLine(line, reader, &config));
    } else if (line.directive == "class") {
      HETESIM_RETURN_NOT_OK(ParseClassLine(line, reader, &config));
    } else {
      return LineError(line, "unknown directive '" + line.directive + "'");
    }
    HETESIM_RETURN_NOT_OK(reader.CheckNoLeftovers());
  }
  if (!saw_scenario) {
    return Status::InvalidArgument("config has no 'scenario NAME' line");
  }
  if (config.classes.empty()) {
    return Status::InvalidArgument("scenario '" + config.name +
                                   "' declares no query classes");
  }
  if (config.warmup_queries >= config.num_queries) {
    return Status::InvalidArgument(
        "warmup must be smaller than the query count");
  }
  return config;
}

Result<WorkloadConfig> LoadWorkloadConfigFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open workload config '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("failed reading workload config '" + path + "'");
  }
  Result<WorkloadConfig> config = ParseWorkloadConfig(buffer.str());
  if (!config.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(config.status().message()));
  }
  return config;
}

}  // namespace hetesim::workload
