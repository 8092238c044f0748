// Minimal command-line option parsing shared by bench and example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` forms. A
// binary reads every option it accepts and then calls reject_unused(), so
// unknown options raise SetupError and typos in experiment scripts fail
// loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fsim::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string str(const std::string& name, const std::string& fallback) const;
  std::int64_t num(const std::string& name, std::int64_t fallback) const;
  double real(const std::string& name, double fallback) const;
  bool flag(const std::string& name, bool fallback = false) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Names seen on the command line but never queried; used by binaries to
  /// reject typos after all lookups are done.
  std::vector<std::string> unused() const;

  /// Throws SetupError naming every unused option, if there is any.
  void reject_unused() const;

 private:
  std::map<std::string, std::string> opts_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace fsim::util
