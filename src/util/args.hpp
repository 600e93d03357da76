// Command-line tokenizer for the CLI and the perf harness.
//
// Splits `--key value`, `--key=value`, bare `--flag` and positional
// arguments. It knows no option's type: the greenvis CLI checks each value
// against its option table (tools/cli_options.hpp); allow_only() lets a
// small binary reject options it does not read.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace greenvis::util {

class ArgParser {
 public:
  /// nullopt = bare flag; "" = explicit empty via `--key=`. A repeated
  /// option keeps the last occurrence (last-wins).
  using Options = std::map<std::string, std::optional<std::string>>;

  /// Parse argv[first..argc). A token starting with "--" is an option: with
  /// an embedded '=' the value follows in the same token; otherwise it
  /// consumes the next token as its value unless that token is itself an
  /// option (then it is a flag). Everything else is positional. An empty
  /// option name (`--`, `--=v`) throws ContractViolation.
  ArgParser(int argc, const char* const* argv, int first = 1);

  /// Restrict options to `allowed`; any other --option throws
  /// ContractViolation. Call right after construction.
  void allow_only(const std::vector<std::string>& allowed) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool has(const std::string& key) const {
    return options_.contains(key);
  }
  /// True when the option carries a value — `--key value` or `--key=`
  /// (explicit empty). A bare `--key` flag is present but value-less, so
  /// `has("k") && !has_value("k")` identifies flag form.
  [[nodiscard]] bool has_value(const std::string& key) const;

  /// The option's value, `fallback` when absent; a bare flag maps to "".
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;

 private:
  std::vector<std::string> positional_;
  Options options_;
};

}  // namespace greenvis::util
