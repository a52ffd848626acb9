// Minimal command-line flag parsing for the benches and examples.
//
// Flags take the form --name=value or --name value; bare --name is a
// boolean true. Unknown positional arguments are collected. Every
// flag can also be supplied via environment variable PPO_<NAME>
// (upper-cased, dashes to underscores), which the benchmark loop uses
// to scale runs without editing commands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppo {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if the flag was given on the command line or via env.
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// A count (thread, shard or node number): an integer >= `min`.
  /// Throws CheckError naming the flag on anything else — a negative
  /// value, a fraction or trailing junk — so a bad value is refused
  /// before it sizes a thread pool or a simulator.
  std::size_t get_size(const std::string& name, std::size_t fallback,
                       std::size_t min = 0) const;

  /// Comma-separated list of counts, each checked like get_size, e.g.
  /// --shard-list=1,2,4. Empty entries are skipped.
  std::vector<std::size_t> get_size_list(const std::string& name,
                                         const std::string& fallback,
                                         std::size_t min = 0) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// Returns the raw value for `name`, checking command line first,
  /// then the PPO_<NAME> environment variable. Empty optional-like
  /// behaviour is signalled through `found`.
  std::string raw(const std::string& name, bool& found) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ppo
