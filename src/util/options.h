// A small command-line flag parser for the bench harnesses and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--no-name` forms. Unknown flags are an error (returned, not thrown).
// Every flag declares the values it accepts, so Parse alone refuses a bad
// value with one line of error text.
#ifndef CHAOS_UTIL_OPTIONS_H_
#define CHAOS_UTIL_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace chaos {

class Options {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  // Registration. `help` is shown by PrintHelp(). Registration order is kept.
  // Parse refuses a number outside the inclusive range [min, max] and a
  // string outside a non-empty `choices`, except the flag's default: a
  // default outside them is a sentinel the help names ("0 = profile
  // default"). It always refuses NaN, and infinity past a finite bound.
  void AddInt(const std::string& name, int64_t default_value, const std::string& help,
              int64_t min = INT64_MIN, int64_t max = INT64_MAX);
  void AddDouble(const std::string& name, double default_value, const std::string& help,
                 double min = -kInf, double max = kInf);
  void AddBool(const std::string& name, bool default_value, const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, std::vector<std::string> choices = {});

  // List flags take comma-separated items, and empty items drop as in
  // SplitList. Parse checks every item as it checks a scalar flag's value
  // (no sentinel), and refuses a non-empty value that lists no item.
  void AddIntList(const std::string& name, const std::string& default_value,
                  const std::string& help, int64_t min, int64_t max);
  void AddStringList(const std::string& name, const std::string& default_value,
                     const std::string& help, std::vector<std::string> choices);

  // Parses argv (excluding argv[0]); returns error text or nullopt on
  // success. A `--help` flag is handled by the caller via help_requested().
  // With `unknown` set, an unregistered flag or a positional argument is
  // appended to it verbatim instead of being an error.
  std::optional<std::string> Parse(int argc, char** argv,
                                   std::vector<std::string>* unknown = nullptr);

  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  const std::vector<int64_t>& GetIntList(const std::string& name) const;
  const std::vector<std::string>& GetStringList(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  void PrintHelp(const char* program) const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    bool list = false;
    std::string help;
    std::string default_text;
    // The declared values; empty `choices` accepts any string.
    int64_t int_min = INT64_MIN;
    int64_t int_max = INT64_MAX;
    double double_min = -kInf;
    double double_max = kInf;
    std::vector<std::string> choices;
    // A scalar's default, accepted even outside the declared values.
    int64_t int_default = 0;
    double double_default = 0.0;
    // The value: one item, or a list flag's items.
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    bool bool_value = false;
  };

  Flag& Register(const std::string& name, Type type, bool list, const std::string& help,
                 const std::string& default_text);
  void ParseListDefault(const std::string& name);
  const Flag& Find(const std::string& name, Type type, bool list) const;
  std::optional<std::string> SetFromString(const std::string& name, const std::string& value);
  static std::string RangeText(const Flag& f);  // "[min, max]"
  static std::optional<std::string> AppendItem(const std::string& name, Flag& f,
                                               const std::string& item);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
};

// Splits `text` at every character of `separators`, dropping empty items:
// SplitList("bfs,,wcc,") == {"bfs", "wcc"}.
std::vector<std::string> SplitList(const std::string& text, const std::string& separators = ",");

}  // namespace chaos

#endif  // CHAOS_UTIL_OPTIONS_H_
