// Tiny --key=value command-line parser for the example programs.
// (Benches use google-benchmark's own flags; examples use this.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace manet {

/// A malformed, out-of-range or negative flag value: outside input, so a
/// program can tell it from an internal std::invalid_argument.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses `--key=value` / `--flag` arguments; anything else is positional.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// String value or `fallback` when the key is absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Integer value or `fallback`; throws FlagError naming `--key` on a
  /// non-integer or out-of-range value.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// Real value or `fallback`; throws FlagError naming `--key` on a
  /// non-number or out-of-range value.
  double get_double(const std::string& key, double fallback) const;

  /// Non-negative integer value (a count, size or seed) or `fallback`;
  /// throws FlagError naming `--key` on a negative value and wherever
  /// get_int throws.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// True if `--key` or `--key=anything-but-false/0` was given.
  bool get_bool(const std::string& key, bool fallback = false) const;

  bool has(const std::string& key) const;

  const std::string& positional(std::size_t i) const;
  std::size_t positional_count() const { return positional_.size(); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace manet
