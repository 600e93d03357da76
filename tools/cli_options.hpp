// The greenvis command line, declared once. Every option is one row of the
// option table and every command one row of the command table; resolve()
// checks a whole command line against those rows before a command body
// runs, and usage_text() lists both tables.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/args.hpp"
#include "src/util/error.hpp"

namespace greenvis::cli {

/// kSwitch takes no value; every other type needs one, kText a non-empty
/// one. Any type but kSwitch can be a comma-separated list.
enum class Type { kSwitch, kInteger, kNumber, kChoice, kText };

inline constexpr double kNoMax = std::numeric_limits<double>::infinity();
/// `hi` of an integer row read into an `int` (kNoMax: a long long).
inline constexpr double kIntMax = std::numeric_limits<int>::max();

/// One option row, keyed by (flag, commands): a flag whose domain or
/// default differs between commands has one row per variant.
struct Option {
  std::string_view flag;      ///< without the leading "--"
  std::string_view commands;  ///< space-separated names; "*" = every command
  Type type{Type::kText};
  /// The CLI's own default; empty when there is none or when a library
  /// struct's default holds.
  std::string_view fallback{};
  std::string_view placeholder{};  ///< the value in usage, unless `choices`
  /// '|'-separated: the names a kChoice row takes, or the only integers a
  /// kInteger row takes; any other is "unknown".
  std::string_view choices{};
  double lo{0.0};     ///< kInteger, kNumber: least value
  double hi{kNoMax};  ///< kInteger, kNumber: greatest value
  bool open{false};   ///< kNumber: `lo` itself is refused
  bool list{false};
};

struct Invocation;

struct Command {
  std::string_view name;
  /// The one operand it takes ("<...>" required, "[...]" optional); empty:
  /// none.
  std::string_view operand;
  std::string_view summary;
  int (*run)(const Invocation&);
};

[[nodiscard]] std::span<const Option> options();
/// Defined with the command bodies (greenvis_cli.cpp).
[[nodiscard]] std::span<const Command> commands();
[[nodiscard]] bool takes(const Option& row, std::string_view command);
/// The command named `name`, or nullptr.
[[nodiscard]] const Command* find_command(std::string_view name);

/// A command line whose every option and operand passed its command's rows.
/// A value reads as std::string (kText, kChoice), double (kNumber) or an
/// integer type (kInteger).
struct Invocation {
  /// Each given or defaulted flag's items, as given; a switch has none.
  std::map<std::string_view, std::vector<std::string>, std::less<>> values;
  std::string operand;  ///< "" when none was given

  [[nodiscard]] bool has(std::string_view flag) const {
    return values.contains(flag);
  }
  /// The items of a list (or the one of a scalar); none when absent.
  template <typename T = std::string>
  [[nodiscard]] std::vector<T> list(std::string_view flag) const {
    std::vector<T> out;
    const auto it = values.find(flag);
    for (const std::string& text :
         it == values.end() ? std::vector<std::string>{} : it->second) {
      if constexpr (std::is_same_v<T, std::string>) {
        out.push_back(text);
      } else if constexpr (std::is_floating_point_v<T>) {
        out.push_back(std::stod(text));
      } else {
        const long long v = std::stoll(text);
        GREENVIS_REQUIRE(std::in_range<T>(v));
        out.push_back(static_cast<T>(v));
      }
    }
    return out;
  }
  /// The value of a scalar that is given or defaulted.
  template <typename T = std::string>
  [[nodiscard]] T get(std::string_view flag) const {
    std::vector<T> one = list<T>(flag);
    GREENVIS_REQUIRE(one.size() == 1);
    return std::move(one.front());
  }
};

/// Check every option and the operand in `args` against `command`'s rows,
/// fill in the defaults and apply the cross-flag rules. Throws
/// ContractViolation ("unknown ..." or "option --...") on the first bad
/// input.
[[nodiscard]] Invocation resolve(const Command& command,
                                 const util::ArgParser& args);

/// "greenvis <name> <operand> [--option VALUE]..."; with `wrap`, broken
/// into lines of at most 80 columns after a four-space indent.
[[nodiscard]] std::string usage_line(const Command& command, bool wrap);
/// Every command with its summary and usage line, then the global options.
[[nodiscard]] std::string usage_text();

/// The CLI: resolve argv[1..argc) and run its command; the exit status.
int main(int argc, char** argv);

}  // namespace greenvis::cli
