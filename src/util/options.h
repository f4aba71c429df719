// A small command-line flag parser for the bench harnesses and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--no-name` forms. Unknown flags are an error (returned, not thrown).
#ifndef CHAOS_UTIL_OPTIONS_H_
#define CHAOS_UTIL_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace chaos {

class Options {
 public:
  // Registration. `help` is shown by PrintHelp(). Registration order is kept.
  // Parse refuses an integer outside the inclusive range [min, max].
  void AddInt(const std::string& name, int64_t default_value, const std::string& help,
              int64_t min = INT64_MIN, int64_t max = INT64_MAX);
  void AddDouble(const std::string& name, double default_value, const std::string& help);
  void AddBool(const std::string& name, bool default_value, const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);

  // Parses argv (excluding argv[0]); returns error text or nullopt on
  // success. A `--help` flag is handled by the caller via help_requested().
  std::optional<std::string> Parse(int argc, char** argv);

  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  void PrintHelp(const char* program) const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    int64_t int_value = 0;
    int64_t int_min = INT64_MIN;
    int64_t int_max = INT64_MAX;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  const Flag& Find(const std::string& name, Type type) const;
  std::optional<std::string> SetFromString(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
};

// Splits `text` at every character of `separators`, dropping empty items:
// SplitList("bfs,,wcc,") == {"bfs", "wcc"}.
std::vector<std::string> SplitList(const std::string& text, const std::string& separators = ",");

}  // namespace chaos

#endif  // CHAOS_UTIL_OPTIONS_H_
