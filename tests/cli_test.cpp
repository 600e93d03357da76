// The greenvis option and command tables, row by row: every row refuses
// every invalid class of its type with a CLI error (never an internal
// contract failure), and the generated usage text lists exactly the rows.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/error.hpp"
#include "tools/cli_options.hpp"

namespace greenvis::cli {
namespace {

using util::ContractViolation;

/// resolve() of `greenvis <command> <tokens...>`.
Invocation run(const std::string& command,
               const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"greenvis", command.c_str()};
  for (const std::string& token : tokens) {
    argv.push_back(token.c_str());
  }
  const util::ArgParser args(static_cast<int>(argv.size()), argv.data(), 2);
  const Command* found = find_command(command);
  EXPECT_NE(found, nullptr) << command;
  return resolve(*found, args);
}

/// What resolve() throws for `tokens`; "" when it takes them.
std::string refusal(const std::string& command,
                    const std::vector<std::string>& tokens) {
  try {
    (void)run(command, tokens);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

/// The commands `row` names, "*" expanded.
std::vector<std::string> commands_of(const Option& row) {
  std::vector<std::string> out;
  for (const Command& command : commands()) {
    if (takes(row, command.name)) {
      out.emplace_back(command.name);
    }
  }
  return out;
}

std::string integer_text(double v) { return std::to_string(std::llround(v)); }

/// One value `row` takes: its default, or one at the edge of its domain.
std::string valid_value(const Option& row) {
  if (!row.fallback.empty()) {
    return std::string(row.fallback);
  }
  switch (row.type) {
    case Type::kInteger:
      return row.choices.empty()
                 ? integer_text(row.lo)
                 : std::string(row.choices.substr(0, row.choices.find('|')));
    case Type::kNumber:
      return integer_text(row.open ? row.lo + 1 : row.lo);
    case Type::kChoice:
      return std::string(row.choices.substr(0, row.choices.find('|')));
    case Type::kText:
      return "x";
    case Type::kSwitch:
      break;
  }
  return "";
}

/// One value per invalid class of `row`'s type; nullopt is the bare flag.
std::vector<std::optional<std::string>> invalid_values(const Option& row) {
  std::vector<std::optional<std::string>> out;
  switch (row.type) {
    case Type::kSwitch:
      return {"no", "", "1"};
    case Type::kInteger:
      out = {std::nullopt, "", "1.5", integer_text(row.lo - 1), "7x", "1e3",
             row.hi == kNoMax ? "9223372036854775808"
                              : integer_text(row.hi + 1)};
      if (!row.choices.empty()) {
        out.emplace_back("9");  // an integer above lo, in no choice
      }
      break;
    case Type::kNumber:
      out = {std::nullopt, "", "nan", "inf", "-inf", "1x",
             integer_text(row.open ? row.lo : row.lo - 1)};
      if (row.hi != kNoMax) {
        out.emplace_back(integer_text(row.hi + 1));
      }
      break;
    case Type::kChoice:
      out = {std::nullopt, "", "no-such-name"};
      break;
    case Type::kText:
      out = {std::nullopt, ""};
      break;
  }
  if (row.list) {
    const std::string ok = valid_value(row);
    out.insert(out.end(), {",", ok + ",", "," + ok, ok + ",," + ok});
  }
  return out;
}

std::string token(const Option& row, const std::optional<std::string>& v) {
  return "--" + std::string(row.flag) + (v ? "=" + *v : "");
}

TEST(CliTable, EveryRowRefusesEveryInvalidClassOfItsType) {
  std::size_t checked = 0;
  for (const Option& row : options()) {
    for (const std::string& command : commands_of(row)) {
      for (const auto& value : invalid_values(row)) {
        const std::string given = token(row, value);
        const std::string what = refusal(command, {given});
        EXPECT_TRUE(what.rfind("unknown --" + std::string(row.flag), 0) == 0 ||
                    what.rfind("option --" + std::string(row.flag), 0) == 0)
            << command << ' ' << given << ": '" << what << "'";
        EXPECT_EQ(what.find("failed:"), std::string::npos) << what;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 300u);
}

TEST(CliTable, EveryRowTakesAValidValueAndItsDefault) {
  for (const Command& command : commands()) {
    EXPECT_EQ(refusal(std::string(command.name), {}), "") << command.name;
  }
  for (const Option& row : options()) {
    for (const std::string& command : commands_of(row)) {
      std::vector<std::string> tokens{
          row.type == Type::kSwitch ? token(row, std::nullopt)
                                    : token(row, valid_value(row))};
      if (row.flag == "resume") {
        tokens.emplace_back("--journal=j");  // --resume needs --journal
      }
      EXPECT_EQ(refusal(command, tokens), "") << command << ' ' << tokens[0];
      if (row.list && row.type != Type::kSwitch) {
        const std::string two = valid_value(row) + "," + valid_value(row);
        EXPECT_EQ(refusal(command, {token(row, two)}), "") << command;
      }
    }
  }
}

TEST(CliTable, EveryCommandRefusesEveryFlagItDoesNotTake) {
  for (const Command& command : commands()) {
    for (const Option& row : options()) {
      bool taken = false;
      for (const Option& other : options()) {
        taken = taken || (other.flag == row.flag && takes(other, command.name));
      }
      if (!taken) {
        EXPECT_EQ(refusal(std::string(command.name), {token(row, "1")}),
                  "unknown option --" + std::string(row.flag))
            << command.name;
      }
    }
    EXPECT_EQ(refusal(std::string(command.name), {"--tolerence=1"}),
              "unknown option --tolerence");
  }
}

TEST(CliTable, EachFlagHasOneRowPerCommand) {
  for (const Command& command : commands()) {
    std::set<std::string_view> seen;
    for (const Option& row : options()) {
      if (takes(row, command.name)) {
        EXPECT_TRUE(seen.insert(row.flag).second)
            << command.name << " --" << row.flag;
      }
    }
  }
}

TEST(CliTable, UsageNamesEveryRowUnderEachOfItsCommandsAndNoOtherFlag) {
  std::map<std::string, std::set<std::string>> listed;
  std::string section;
  std::istringstream text(usage_text());
  const std::regex flag("--([a-z][a-z-]*)");
  for (std::string line; std::getline(text, line);) {
    for (const Command& command : commands()) {
      if (line.rfind("  " + std::string(command.name) + " —", 0) == 0) {
        section = command.name;
      }
    }
    if (line.rfind("global options", 0) == 0) {
      section = "*";
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), flag);
         it != std::sregex_iterator(); ++it) {
      EXPECT_FALSE(section.empty()) << line;
      listed[section].insert((*it)[1]);
    }
  }
  std::map<std::string, std::set<std::string>> rows;
  for (const Command& command : commands()) {
    rows[std::string(command.name)];  // a command with no option lists none
  }
  for (const Option& row : options()) {
    if (row.commands == "*") {
      rows["*"].emplace(row.flag);
    } else {
      for (const std::string& command : commands_of(row)) {
        rows[command].emplace(row.flag);
      }
    }
  }
  for (auto& [name, flags] : rows) {
    EXPECT_EQ(listed[name], flags) << name;
  }
}

TEST(CliTable, UsageLineShowsTheOperand) {
  EXPECT_EQ(usage_line(*find_command("trace-template"), false),
            "greenvis trace-template");
  EXPECT_EQ(usage_line(*find_command("fio"), false),
            "greenvis fio <seq-read|rand-read|seq-write|rand-write> "
            "[--device hdd|ssd|nvram] [--size MIB]");
}

TEST(CliResolve, DefaultsComeFromTheRowsOrStayWithTheLibrary) {
  const Invocation profile = run("profile", {});
  EXPECT_EQ(profile.get<int>("case"), 1);
  EXPECT_EQ(profile.get<std::size_t>("top"), 5u);
  EXPECT_EQ(profile.get("out"), "ENERGY_profile.json");
  EXPECT_EQ(profile.get("pipeline"), "sync");
  EXPECT_FALSE(profile.has("tolerance"));
  EXPECT_FALSE(profile.has("stage-buffers"));
  EXPECT_FALSE(profile.has("trace-out"));
  EXPECT_EQ(run("serve", {}).get<int>("viewers"), 16);
  EXPECT_FALSE(run("serve", {}).has("link-mbps"));
  const Invocation sweep = run("campaign", {"--viewers=0,4", "--whatif"});
  EXPECT_EQ(sweep.list<int>("viewers"), (std::vector<int>{0, 4}));
  EXPECT_EQ(sweep.list("pipelines"),
            (std::vector<std::string>{"post", "insitu"}));
  EXPECT_EQ(sweep.list<int>("periods"), (std::vector<int>{1, 2, 8}));
  EXPECT_TRUE(sweep.list<double>("caps").empty());
  EXPECT_TRUE(sweep.has("whatif"));
  EXPECT_FALSE(sweep.has("resume"));
}

TEST(CliResolve, ValuesFollowAsTheNextTokenOrAfterEquals) {
  const Invocation in = run("compare", {"--case", "3", "--cap=150.5"});
  EXPECT_EQ(in.get<int>("case"), 3);
  EXPECT_DOUBLE_EQ(in.get<double>("cap"), 150.5);
}

TEST(CliResolve, CaseKeepsBothItsMessages) {
  EXPECT_EQ(refusal("compare", {"--case", "1.9"}),
            "option --case expects an integer >= 1, got '1.9'");
  EXPECT_EQ(refusal("compare", {"--case", "9"}),
            "unknown --case '9' (expected 1|2|3)");
}

TEST(CliResolve, AFlagsDomainFollowsTheCommand) {
  EXPECT_EQ(refusal("compare", {"--pipeline=insitu"}),
            "unknown --pipeline 'insitu' (expected sync|async)");
  EXPECT_EQ(refusal("profile", {"--pipeline=insitu"}), "");
  EXPECT_EQ(refusal("serve", {"--viewers=0"}),
            "option --viewers expects an integer >= 1, got '0'");
  EXPECT_EQ(refusal("campaign", {"--viewers=0"}), "");
}

TEST(CliResolve, CrossFlagRules) {
  EXPECT_EQ(refusal("compare", {"--codec=delta", "--tolerance=0"}),
            "option --tolerance expects a number > 0 with --codec delta, "
            "got '0'");
  EXPECT_EQ(refusal("compare", {"--codec=rle", "--tolerance=0"}), "");
  EXPECT_EQ(refusal("campaign", {"--codecs=raw,delta", "--tolerances=1e-3,0"}),
            "option --tolerances expects a number > 0 with --codecs delta, "
            "got '0'");
  EXPECT_EQ(refusal("serve", {"--viewers=3", "--views=4"}),
            "option --views expects at most --viewers (3), got '4'");
  EXPECT_EQ(refusal("serve", {"--viewers=4", "--views=4"}), "");
  EXPECT_EQ(refusal("campaign", {"--resume"}),
            "option --resume requires --journal=FILE");
}

TEST(CliResolve, OnlyFioAndReplayTakeAnOperandAndAtMostOne) {
  EXPECT_EQ(run("fio", {"seq-read"}).operand, "seq-read");
  EXPECT_EQ(run("replay", {}).operand, "");
  EXPECT_EQ(refusal("compare", {"--case", "1", "2"}),
            "unknown operand '2' (compare takes none)");
  EXPECT_EQ(refusal("replay", {"a", "b"}),
            "unknown operand 'b' (replay takes one, [<trace-file>])");
  // A switch never swallows the next token silently.
  EXPECT_EQ(refusal("replay", {"--in-situ", "trace.txt"}),
            "option --in-situ takes no value, got 'trace.txt'");
}

}  // namespace
}  // namespace greenvis::cli
