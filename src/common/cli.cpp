#include "common/cli.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "common/check.hpp"

namespace ppo {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

std::string Cli::raw(const std::string& name, bool& found) const {
  const auto it = flags_.find(name);
  if (it != flags_.end()) {
    found = true;
    return it->second;
  }
  std::string env_name = "PPO_";
  for (char c : name)
    env_name += (c == '-') ? '_' : static_cast<char>(std::toupper(c));
  if (const char* env = std::getenv(env_name.c_str())) {
    found = true;
    return env;
  }
  found = false;
  return {};
}

bool Cli::has(const std::string& name) const {
  bool found = false;
  raw(name, found);
  return found;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  bool found = false;
  std::string v = raw(name, found);
  return found ? v : fallback;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found) return fallback;
  try {
    return std::stoll(v);
  } catch (const std::exception&) {
    PPO_CHECK_MSG(false, "flag --" + name + " expects an integer, got '" + v + "'");
  }
  return fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found) return fallback;
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    PPO_CHECK_MSG(false, "flag --" + name + " expects a number, got '" + v + "'");
  }
  return fallback;
}

namespace {

/// Parses one count token of flag `name`, or throws naming the flag.
std::size_t parse_size(const std::string& name, const std::string& token,
                       std::size_t min) {
  std::size_t used = 0;
  long long value = -1;
  try {
    value = std::stoll(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  PPO_CHECK_MSG(used > 0 && used == token.size() && value >= 0 &&
                    static_cast<unsigned long long>(value) >= min,
                "flag --" + name + " expects an integer >= " +
                    std::to_string(min) + ", got '" + token + "'");
  return static_cast<std::size_t>(value);
}

}  // namespace

std::size_t Cli::get_size(const std::string& name, std::size_t fallback,
                          std::size_t min) const {
  bool found = false;
  const std::string v = raw(name, found);
  return found ? parse_size(name, v, min) : fallback;
}

std::vector<std::size_t> Cli::get_size_list(const std::string& name,
                                            const std::string& fallback,
                                            std::size_t min) const {
  const std::string text = get_string(name, fallback);
  std::vector<std::size_t> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    if (!token.empty()) out.push_back(parse_size(name, token, min));
    begin = end + 1;
  }
  return out;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found) return fallback;
  return v == "true" || v == "1" || v == "yes" || v == "on" || v.empty();
}

}  // namespace ppo
