#ifndef HETESIM_TOOLS_CLI_ARGS_H_
#define HETESIM_TOOLS_CLI_ARGS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace hetesim::cli {

/// \brief Parsed command line: a command word plus `--key value` (or
/// `--key=value`, or bare `--flag`) options, with *validated* numeric
/// accessors.
///
/// The numeric getters are strict: an absent key yields the fallback, but a
/// key that is present must parse completely and sit inside the caller's
/// range, otherwise they return `InvalidArgument` naming the offending flag
/// (`--threads banana` is a usage error, not thread count 0).
struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  /// Parses `argv[1]` as the command and the rest as options. Errors on a
  /// positional token where an option was expected.
  [[nodiscard]] static Result<Args> Parse(int argc, const char* const* argv);

  std::optional<std::string> Get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  bool Has(const std::string& key) const { return options.count(key) != 0; }

  /// `--key N` as int, restricted to `[min, max]`.
  [[nodiscard]] Result<int> GetInt(
      const std::string& key, int fallback,
      int min = std::numeric_limits<int>::min(),
      int max = std::numeric_limits<int>::max()) const;

  /// `--key N` as int64, restricted to `[min, max]`.
  [[nodiscard]] Result<int64_t> GetInt64(
      const std::string& key, int64_t fallback,
      int64_t min = std::numeric_limits<int64_t>::min(),
      int64_t max = std::numeric_limits<int64_t>::max()) const;

  /// `--key N` as uint64 (rejects negatives, e.g. for seeds).
  [[nodiscard]] Result<uint64_t> GetUint64(const std::string& key,
                                           uint64_t fallback) const;

  /// `--key X` as a finite double, restricted to `[min, max]`.
  [[nodiscard]] Result<double> GetDouble(
      const std::string& key, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;

  /// `--key WORD` restricted to an enumerated vocabulary (e.g.
  /// `--store-codec lossless|quantized`). An absent key yields `fallback`;
  /// a present key must match one of `allowed` exactly, otherwise
  /// `InvalidArgument` naming the flag and the choices — a usage error
  /// (exit 2) at the CLI layer.
  [[nodiscard]] Result<std::string> GetChoice(
      const std::string& key, const std::string& fallback,
      std::initializer_list<std::string_view> allowed) const;
};

}  // namespace hetesim::cli

#endif  // HETESIM_TOOLS_CLI_ARGS_H_
