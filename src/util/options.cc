#include "util/options.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/common.h"

namespace chaos {

namespace {

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string JoinChoices(const std::vector<std::string>& choices) {
  std::string out;
  for (const std::string& c : choices) {
    out += (out.empty() ? "" : "|") + c;
  }
  return out;
}

}  // namespace

std::string Options::RangeText(const Flag& f) {
  return f.type == Type::kInt
             ? "[" + std::to_string(f.int_min) + ", " + std::to_string(f.int_max) + "]"
             : "[" + FormatDouble(f.double_min) + ", " + FormatDouble(f.double_max) + "]";
}

Options::Flag& Options::Register(const std::string& name, Type type, bool list,
                                 const std::string& help, const std::string& default_text) {
  auto [it, inserted] = flags_.try_emplace(name);
  CHAOS_CHECK_MSG(inserted, "duplicate flag " + name);
  order_.push_back(name);
  Flag& f = it->second;
  f.type = type;
  f.list = list;
  f.help = help;
  f.default_text = default_text;
  return f;
}

void Options::ParseListDefault(const std::string& name) {
  auto err = SetFromString(name, flags_.at(name).default_text);
  CHAOS_CHECK_MSG(!err.has_value(), "default of flag " + name + ": " + err.value_or(""));
}

void Options::AddInt(const std::string& name, int64_t default_value, const std::string& help,
                     int64_t min, int64_t max) {
  Flag& f = Register(name, Type::kInt, false, help, std::to_string(default_value));
  f.int_min = min;
  f.int_max = max;
  f.int_default = default_value;
  f.ints = {default_value};
}

void Options::AddDouble(const std::string& name, double default_value, const std::string& help,
                        double min, double max) {
  Flag& f = Register(name, Type::kDouble, false, help, FormatDouble(default_value));
  f.double_min = min;
  f.double_max = max;
  f.double_default = default_value;
  f.doubles = {default_value};
}

void Options::AddBool(const std::string& name, bool default_value, const std::string& help) {
  Register(name, Type::kBool, false, help, default_value ? "true" : "false").bool_value =
      default_value;
}

void Options::AddString(const std::string& name, const std::string& default_value,
                        const std::string& help, std::vector<std::string> choices) {
  Flag& f = Register(name, Type::kString, false, help, default_value);
  f.choices = std::move(choices);
  f.strings = {default_value};
}

void Options::AddIntList(const std::string& name, const std::string& default_value,
                         const std::string& help, int64_t min, int64_t max) {
  Flag& f = Register(name, Type::kInt, true, help, default_value);
  f.int_min = min;
  f.int_max = max;
  ParseListDefault(name);
}

void Options::AddStringList(const std::string& name, const std::string& default_value,
                            const std::string& help, std::vector<std::string> choices) {
  Register(name, Type::kString, true, help, default_value).choices = std::move(choices);
  ParseListDefault(name);
}

std::optional<std::string> Options::AppendItem(const std::string& name, Flag& f,
                                               const std::string& item) {
  char* end = nullptr;
  switch (f.type) {
    case Type::kInt: {
      errno = 0;
      const long long v = std::strtoll(item.c_str(), &end, 10);  // "010" is ten
      if (end == nullptr || *end != '\0' || item.empty()) {
        return "flag --" + name + " expects an integer, got '" + item + "'";
      }
      const bool sentinel = !f.list && errno == 0 && v == f.int_default;
      if (!sentinel && (errno == ERANGE || v < f.int_min || v > f.int_max)) {
        return "flag --" + name + " must be in " + RangeText(f) + ", got " + item;
      }
      f.ints.push_back(v);
      return std::nullopt;
    }
    case Type::kDouble: {
      const double v = std::strtod(item.c_str(), &end);
      if (end == nullptr || *end != '\0' || item.empty()) {
        return "flag --" + name + " expects a number, got '" + item + "'";
      }
      const bool sentinel = !f.list && v == f.double_default;
      if (!sentinel && !(v >= f.double_min && v <= f.double_max)) {  // NaN fails too
        return "flag --" + name + " must be in " + RangeText(f) + ", got " + item;
      }
      f.doubles.push_back(v);
      return std::nullopt;
    }
    case Type::kString: {
      const bool sentinel = !f.list && item == f.default_text;
      if (!sentinel && !f.choices.empty() &&
          std::find(f.choices.begin(), f.choices.end(), item) == f.choices.end()) {
        return "flag --" + name + " must be one of " + JoinChoices(f.choices) + ", got '" +
               item + "'";
      }
      f.strings.push_back(item);
      return std::nullopt;
    }
    case Type::kBool:
      if (item == "true" || item == "1" || item == "yes") {
        f.bool_value = true;
      } else if (item == "false" || item == "0" || item == "no") {
        f.bool_value = false;
      } else {
        return "flag --" + name + " expects a boolean, got '" + item + "'";
      }
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::string> Options::SetFromString(const std::string& name,
                                                  const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return "unknown flag --" + name;
  }
  // Parsed into a copy, so a refused value leaves the flag as it was.
  Flag f = it->second;
  f.ints.clear();
  f.doubles.clear();
  f.strings.clear();
  const std::vector<std::string> items = f.list ? SplitList(value) : std::vector{value};
  if (items.empty() && !value.empty()) {
    return "flag --" + name + " lists no items, got '" + value + "'";
  }
  for (const std::string& item : items) {
    if (auto err = AppendItem(name, f, item)) {
      return err;
    }
  }
  it->second = std::move(f);
  return std::nullopt;
}

std::optional<std::string> Options::Parse(int argc, char** argv,
                                          std::vector<std::string>* unknown) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq == std::string::npos ? eq : eq - 2) : "";
    auto it = flags_.find(name);
    // --no-name for booleans.
    auto negated = name.rfind("no-", 0) == 0 ? flags_.find(name.substr(3)) : flags_.end();
    const bool is_negation = it == flags_.end() && eq == std::string::npos &&
                             negated != flags_.end() && negated->second.type == Type::kBool;
    if (it == flags_.end() && !is_negation) {
      if (unknown != nullptr) {
        unknown->push_back(arg);
        continue;
      }
      return name.empty() ? "unexpected positional argument '" + arg + "'"
                          : "unknown flag --" + name;
    }
    if (eq != std::string::npos) {
      if (auto err = SetFromString(name, arg.substr(eq + 1))) {
        return err;
      }
    } else if (is_negation) {
      negated->second.bool_value = false;
    } else if (it->second.type == Type::kBool) {
      it->second.bool_value = true;
    } else if (i + 1 >= argc) {
      return "flag --" + name + " expects a value";
    } else if (auto err = SetFromString(name, argv[++i])) {
      return err;
    }
  }
  return std::nullopt;
}

const Options::Flag& Options::Find(const std::string& name, Type type, bool list) const {
  auto it = flags_.find(name);
  CHAOS_CHECK_MSG(it != flags_.end(), "flag not registered: " + name);
  CHAOS_CHECK_MSG(it->second.type == type && it->second.list == list,
                  "flag type mismatch: " + name);
  return it->second;
}

int64_t Options::GetInt(const std::string& name) const {
  return Find(name, Type::kInt, false).ints.front();
}

double Options::GetDouble(const std::string& name) const {
  return Find(name, Type::kDouble, false).doubles.front();
}

bool Options::GetBool(const std::string& name) const {
  return Find(name, Type::kBool, false).bool_value;
}

const std::string& Options::GetString(const std::string& name) const {
  return Find(name, Type::kString, false).strings.front();
}

const std::vector<int64_t>& Options::GetIntList(const std::string& name) const {
  return Find(name, Type::kInt, true).ints;
}

const std::vector<std::string>& Options::GetStringList(const std::string& name) const {
  return Find(name, Type::kString, true).strings;
}

void Options::PrintHelp(const char* program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program);
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    std::string accepts;
    if ((f.type == Type::kInt && (f.int_min != INT64_MIN || f.int_max != INT64_MAX)) ||
        (f.type == Type::kDouble && (f.double_min != -kInf || f.double_max != kInf))) {
      accepts = "; in " + RangeText(f);
    } else if (!f.choices.empty()) {
      accepts = "; one of " + JoinChoices(f.choices);
    }
    std::fprintf(stderr, "  --%-24s %s (default: %s%s)\n", name.c_str(), f.help.c_str(),
                 f.default_text.c_str(), accepts.c_str());
  }
}

std::vector<std::string> SplitList(const std::string& text, const std::string& separators) {
  std::vector<std::string> items;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t end = std::min(text.find_first_of(separators, pos), text.size());
    if (end > pos) {
      items.push_back(text.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return items;
}

}  // namespace chaos
