#include "tools/cli_options.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace greenvis::cli {

namespace {

using util::ContractViolation;
using enum Type;

constexpr std::string_view kRun = "compare profile serve";
constexpr std::string_view kDevices = "hdd|ssd|nvram";
constexpr std::string_view kCodecs = "raw|delta|rle";

constexpr Option list(Option row) {
  row.list = true;
  return row;
}

// Each row: {flag, commands, type, default, usage placeholder, choices, lo,
// hi, open}. Usage lists a command's rows in table order.
constexpr Option kOptions[] = {
    {"case", kRun, kInteger, "1", "", "1|2|3", 1, kIntMax},
    {"cap", kRun, kNumber, "0", "WATTS"},
    {"device", "compare profile serve fio", kChoice, "hdd", "", kDevices},
    {"io-ghz", "compare profile", kNumber, "0", "GHZ"},
    {"codec", "compare profile", kChoice, "raw", "", kCodecs},
    {"tolerance", "compare profile", kNumber, "", "T"},
    {"stage-buffers", "compare profile", kInteger, "", "N", "", 1},
    {"pipeline", "compare", kChoice, "sync", "", "sync|async"},
    {"pipeline", "profile", kChoice, "sync", "", "sync|async|insitu"},
    {"top", "profile", kInteger, "5", "N"},
    {"out", "profile", kText, "ENERGY_profile.json", "FILE"},
    {"viewers", "serve", kInteger, "16", "N", "", 1, kIntMax},
    {"views", "serve", kInteger, "4", "G", "", 1, kIntMax},
    {"link-mbps", "serve", kNumber, "", "MB", "", 0, kNoMax, true},
    {"out", "serve", kText, "SERVE_profile.json", "FILE"},
    {"size", "fio", kInteger, "0", "MIB"},  // 0 keeps Table III's 4 GiB
    {"accesses", "advise", kInteger, "262144", "N"},
    {"kib", "advise", kInteger, "16", "K"},
    {"random", "advise", kNumber, "1", "F", "", 0, 1},
    {"reads", "advise", kNumber, "0.9", "F", "", 0, 1},
    {"no-exploration", "advise", kSwitch},
    {"builtin", "replay", kChoice, "", "", "mpas|xrage"},
    {"in-situ", "replay", kSwitch},
    {"nodes", "cluster", kInteger, "32", "N", "", 1},
    {"staging", "cluster", kInteger, "2", "S", "", 1},
    {"targets", "cluster", kInteger, "4", "T", "", 1},
    // One list per sweep axis; an axis without a default keeps
    // CampaignSpec's.
    list({"pipelines", "campaign", kChoice, "post,insitu", "",
          "post|async|insitu"}),
    list({"grids", "campaign", kInteger, "128", "G", "", 4}),
    list({"periods", "campaign", kInteger, "1,2,8", "P", "", 1, kIntMax}),
    list({"iterations", "campaign", kInteger, "50", "N", "", 1, kIntMax}),
    list({"codecs", "campaign", kChoice, "raw", "", kCodecs}),
    list({"tolerances", "campaign", kNumber, "", "T"}),
    list({"devices", "campaign", kChoice, "hdd", "", kDevices}),
    list({"freqs", "campaign", kNumber, "", "GHZ", "", 0, kNoMax, true}),
    list({"io-freqs", "campaign", kNumber, "", "GHZ"}),
    list({"caps", "campaign", kNumber, "", "WATTS"}),
    list({"viewers", "campaign", kInteger, "", "N", "", 0, kIntMax}),
    {"out", "campaign", kText, "CAMPAIGN_results.json", "FILE"},
    {"journal", "campaign", kText, "", "FILE"},
    {"resume", "campaign", kSwitch},
    {"limit", "campaign", kInteger, "0", "N"},
    {"shards", "campaign", kInteger, "0", "N"},
    {"threads", "campaign", kInteger, "0", "N"},
    {"whatif", "campaign", kSwitch},
    {"out", "verify", kText, "QA_conformance.json", "FILE"},
    {"label", "verify", kText, "default", "L"},
    {"qa-repro", "verify", kText, "", "FILE"},
    {"trace-out", "*", kText, "", "FILE"},
    {"metrics-out", "*", kText, "", "FILE"},
};

/// The `sep`-separated items of `text` ("" has one empty item).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t pos = 0, next = 0; next != text.npos; pos = next + 1) {
    next = text.find(sep, pos);
    out.push_back(text.substr(pos, next - pos));
  }
  return out;
}

bool contains(std::string_view items, char sep, std::string_view item) {
  return std::ranges::count(split(items, sep), item) > 0;
}

[[noreturn]] void refuse(const Option& row, const std::string& what,
                         std::string_view text) {
  throw ContractViolation("option --" + std::string(row.flag) + " " + what +
                          ", got '" + std::string(text) + "'");
}

/// Throws unless `text` is one value of `row`: a fraction, an exponent, NaN
/// or trailing text throws here, never at a cast in a command body.
void check(const Option& row, std::string_view text) {
  std::string name(text);
  if (row.type == kInteger || row.type == kNumber) {
    std::size_t used = 0;
    double v = NAN;
    try {
      name = row.type == kInteger ? std::to_string(std::stoll(name, &used))
                                  : name;
      v = std::stod(name, row.type == kNumber ? &used : nullptr);
    } catch (const std::exception&) {
    }
    if (used != text.size() || !std::isfinite(v) || v > row.hi ||
        (row.open ? v <= row.lo : v < row.lo)) {
      std::ostringstream what;
      if (row.type == kInteger) {
        what << "an integer >= " << std::llround(row.lo);
      } else if (row.hi == kNoMax) {
        what << "a number " << (row.open ? "> " : ">= ") << row.lo;
      } else {
        what << "a number in " << (row.open ? "(" : "[") << row.lo << ", "
             << row.hi << "]";
      }
      refuse(row, "expects " + what.str(), text);
    }
  }
  if (!row.choices.empty() && !contains(row.choices, '|', name)) {
    throw ContractViolation("unknown --" + std::string(row.flag) + " '" +
                            std::string(text) + "' (expected " +
                            std::string(row.choices) + ")");
  }
  if (row.type == kText && text.empty()) {
    refuse(row, "expects a non-empty value", text);
  }
}

/// Check `value` (nullopt = bare flag) against `row`, then keep it.
void add(Invocation& in, const Option& row,
         const std::optional<std::string>& value) {
  if (row.type == kSwitch && value) {
    refuse(row, "takes no value", *value);
  }
  if (row.type != kSwitch && !value) {
    throw ContractViolation("option --" + std::string(row.flag) +
                            " expects a value");
  }
  std::vector<std::string>& items = in.values[row.flag];
  for (const std::string_view text :
       !value     ? std::vector<std::string_view>{}
       : row.list ? split(*value, ',')
                  : std::vector{std::string_view(*value)}) {
    if (row.list && text.empty()) {
      refuse(row, "expects a comma-separated list with no empty item", *value);
    }
    check(row, text);
    items.emplace_back(text);
  }
}

/// The cross-flag rules, after every value passed its row.
void check_rules(const Invocation& in) {
  // The delta codec quantizes by its tolerance (raw and rle ignore it).
  for (const auto& [codec, tolerance] :
       {std::pair{"codec", "tolerance"}, std::pair{"codecs", "tolerances"}}) {
    for (const std::string& text : in.list(tolerance)) {
      if (std::ranges::count(in.list(codec), "delta") && std::stod(text) == 0) {
        throw ContractViolation("option --" + std::string(tolerance) +
                                " expects a number > 0 with --" + codec +
                                " delta, got '" + text + "'");
      }
    }
  }
  if (in.has("views") && in.get<int>("views") > in.get<int>("viewers")) {
    throw ContractViolation("option --views expects at most --viewers (" +
                            in.get("viewers") + "), got '" + in.get("views") +
                            "'");
  }
  if (in.has("resume") && !in.has("journal")) {
    throw ContractViolation("option --resume requires --journal=FILE");
  }
}

}  // namespace

std::span<const Option> options() { return kOptions; }

bool takes(const Option& row, std::string_view command) {
  return row.commands == "*" || contains(row.commands, ' ', command);
}

const Command* find_command(std::string_view name) {
  const std::span<const Command> all = commands();
  const auto it = std::ranges::find(all, name, &Command::name);
  return it == all.end() ? nullptr : &*it;
}

Invocation resolve(const Command& command, const util::ArgParser& args) {
  Invocation in;
  const std::vector<std::string>& operands = args.positional();
  const std::size_t most = command.operand.empty() ? 0 : 1;
  if (operands.size() > most) {
    throw ContractViolation(
        "unknown operand '" + operands[most] + "' (" +
        std::string(command.name) + " takes " +
        (most == 0 ? "none" : "one, " + std::string(command.operand)) + ")");
  }
  in.operand = operands.empty() ? "" : operands.front();
  for (const auto& [flag, value] : args.options()) {
    const auto* row = std::ranges::find_if(kOptions, [&](const Option& o) {
      return o.flag == flag && takes(o, command.name);
    });
    if (row == std::end(kOptions)) {
      throw ContractViolation("unknown option --" + flag);
    }
    add(in, *row, value);
  }
  for (const Option& row : kOptions) {
    if (!row.fallback.empty() && takes(row, command.name) &&
        !in.has(row.flag)) {
      add(in, row, std::string(row.fallback));
    }
  }
  check_rules(in);
  return in;
}

std::string usage_line(const Command& command, bool wrap) {
  std::string line = "greenvis " + std::string(command.name) +
                     (command.operand.empty() ? "" : " ") +
                     std::string(command.operand);
  std::size_t column = 4 + line.size();  // printed after four spaces
  for (const Option& row : kOptions) {
    if (row.commands == "*" || !takes(row, command.name)) {
      continue;
    }
    const std::string value(row.choices.empty() ? row.placeholder
                                                : row.choices);
    const std::string word =
        "[--" + std::string(row.flag) +
        (row.type == kSwitch ? "" : " " + value + (row.list ? ",.." : "")) +
        "]";
    if (wrap && column + 1 + word.size() > 80) {
      line += "\n       ";
      column = 7;
    }
    line += " " + word;
    column += 1 + word.size();
  }
  return line;
}

std::string usage_text() {
  std::string out =
      "greenvis — greenness analysis of visualization pipelines\n\n"
      "usage: greenvis <command> [options]\n\ncommands:\n";
  for (const Command& command : commands()) {
    out += "  " + std::string(command.name) + " — " +
           std::string(command.summary) + "\n    " + usage_line(command, true) +
           "\n";
  }
  out += "\nglobal options (any command):\n";
  for (const Option& row : kOptions) {
    if (row.commands == "*") {
      out += "  --" + std::string(row.flag) + " FILE\n";
    }
  }
  return out +
         "--trace-out writes a Chrome trace-event JSON (chrome://tracing) and\n"
         "--metrics-out the metrics snapshot (.csv: CSV, else JSON).\n\n"
         "An option's value is the next argument or follows '='; a switch\n"
         "takes none; a list is comma-separated. A command rejects any option\n"
         "or operand it does not list, and checks every value before it "
         "starts.\n";
}

}  // namespace greenvis::cli
