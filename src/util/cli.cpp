#include "util/cli.hpp"

#include <cstdlib>

#include "util/status.hpp"

namespace fsim::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      opts_[arg] = argv[++i];
    } else {
      opts_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return opts_.count(name) > 0;
}

std::string Cli::str(const std::string& name, const std::string& fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  return it == opts_.end() ? fallback : it->second;
}

std::int64_t Cli::num(const std::string& name, std::int64_t fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 0);
  if (end == nullptr || *end != '\0')
    throw SetupError("option --" + name + " expects an integer, got '" + it->second + "'");
  return v;
}

double Cli::real(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0')
    throw SetupError("option --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool Cli::flag(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : opts_)
    if (!queried_.count(name)) out.push_back(name);
  return out;
}

void Cli::reject_unused() const {
  const std::vector<std::string> names = unused();
  if (names.empty()) return;
  std::string msg = names.size() == 1 ? "unknown option" : "unknown options";
  for (std::size_t i = 0; i < names.size(); ++i)
    msg += (i == 0 ? " --" : ", --") + names[i];
  throw SetupError(msg);
}

}  // namespace fsim::util
