#include "src/util/args.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace greenvis::util {

ArgParser::ArgParser(int argc, const char* const* argv, int first) {
  GREENVIS_REQUIRE(first >= 0);
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::size_t eq = token.find('=', 2);
      if (token.size() == 2 || eq == 2) {
        throw ContractViolation("empty option name '" + token + "'");
      }
      if (eq != std::string::npos) {
        options_[token.substr(2, eq - 2)] = token.substr(eq + 1);
      } else {
        const std::string key = token.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          options_[key] = std::string(argv[++i]);
        } else {
          options_[key] = std::nullopt;
        }
      }
    } else {
      positional_.push_back(token);
    }
  }
}

void ArgParser::allow_only(const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : options_) {
    if (std::ranges::find(allowed, key) == allowed.end()) {
      throw ContractViolation("unknown option --" + key);
    }
  }
}

bool ArgParser::has_value(const std::string& key) const {
  const auto it = options_.find(key);
  return it != options_.end() && it->second.has_value();
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) {
    return fallback;
  }
  return it->second.value_or(std::string{});
}

}  // namespace greenvis::util
