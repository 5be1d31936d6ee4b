#include "common/flags.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace manet {
namespace {

/// Runs a std::sto* conversion over the whole value; a malformed or
/// out-of-range value throws FlagError naming the flag.
template <typename Convert>
auto parse(const std::string& key, const std::string& value,
           const char* expected, Convert convert) {
  std::size_t pos = 0;
  try {
    const auto v = convert(value, &pos);
    if (pos == value.size()) return v;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw FlagError("--" + key + " expects " + expected + ", got '" + value +
                  "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string Flags::get(const std::string& key,
                       const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse(key, it->second, "an integer",
               [](const std::string& s, std::size_t* pos) {
                 return std::stoll(s, pos);
               });
}

double Flags::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse(key, it->second, "a number",
               [](const std::string& s, std::size_t* pos) {
                 return std::stod(s, pos);
               });
}

std::size_t Flags::get_count(const std::string& key,
                             std::size_t fallback) const {
  const std::int64_t v = get_int(key, static_cast<std::int64_t>(fallback));
  if (v < 0)
    throw FlagError("--" + key + " must not be negative, got '" +
                    get(key, "") + "'");
  return static_cast<std::size_t>(v);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

const std::string& Flags::positional(std::size_t i) const {
  MANET_REQUIRE(i < positional_.size(), "positional index out of range");
  return positional_[i];
}

}  // namespace manet
