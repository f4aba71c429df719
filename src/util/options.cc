#include "util/options.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/common.h"

namespace chaos {

void Options::AddInt(const std::string& name, int64_t default_value, const std::string& help,
                     int64_t min, int64_t max) {
  CHAOS_CHECK_MSG(min <= default_value && default_value <= max,
                  "default of flag " + name + " outside its range");
  Flag f;
  f.type = Type::kInt;
  f.help = help;
  f.int_value = default_value;
  f.int_min = min;
  f.int_max = max;
  CHAOS_CHECK_MSG(flags_.emplace(name, std::move(f)).second, "duplicate flag " + name);
  order_.push_back(name);
}

void Options::AddDouble(const std::string& name, double default_value, const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  CHAOS_CHECK_MSG(flags_.emplace(name, std::move(f)).second, "duplicate flag " + name);
  order_.push_back(name);
}

void Options::AddBool(const std::string& name, bool default_value, const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  CHAOS_CHECK_MSG(flags_.emplace(name, std::move(f)).second, "duplicate flag " + name);
  order_.push_back(name);
}

void Options::AddString(const std::string& name, const std::string& default_value,
                        const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  CHAOS_CHECK_MSG(flags_.emplace(name, std::move(f)).second, "duplicate flag " + name);
  order_.push_back(name);
}

std::optional<std::string> Options::SetFromString(const std::string& name,
                                                  const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return "unknown flag --" + name;
  }
  Flag& f = it->second;
  char* end = nullptr;
  switch (f.type) {
    case Type::kInt: {
      errno = 0;
      const long long v = std::strtoll(value.c_str(), &end, 0);
      if (end == nullptr || *end != '\0' || value.empty()) {
        return "flag --" + name + " expects an integer, got '" + value + "'";
      }
      if (errno == ERANGE || v < f.int_min || v > f.int_max) {
        return "flag --" + name + " must be in [" + std::to_string(f.int_min) + ", " +
               std::to_string(f.int_max) + "], got " + value;
      }
      f.int_value = v;
      break;
    }
    case Type::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || value.empty()) {
        return "flag --" + name + " expects a number, got '" + value + "'";
      }
      f.double_value = v;
      break;
    }
    case Type::kBool: {
      if (value == "true" || value == "1" || value == "yes") {
        f.bool_value = true;
      } else if (value == "false" || value == "0" || value == "no") {
        f.bool_value = false;
      } else {
        return "flag --" + name + " expects a boolean, got '" + value + "'";
      }
      break;
    }
    case Type::kString:
      f.string_value = value;
      break;
  }
  return std::nullopt;
}

std::optional<std::string> Options::Parse(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return "unexpected positional argument '" + arg + "'";
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      auto err = SetFromString(arg.substr(0, eq), arg.substr(eq + 1));
      if (err) {
        return err;
      }
      continue;
    }
    // --no-name for booleans.
    if (arg.rfind("no-", 0) == 0) {
      const std::string name = arg.substr(3);
      auto it = flags_.find(name);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        it->second.bool_value = false;
        continue;
      }
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      return "unknown flag --" + arg;
    }
    if (it->second.type == Type::kBool) {
      it->second.bool_value = true;
      continue;
    }
    if (i + 1 >= argc) {
      return "flag --" + arg + " expects a value";
    }
    auto err = SetFromString(arg, argv[++i]);
    if (err) {
      return err;
    }
  }
  return std::nullopt;
}

const Options::Flag& Options::Find(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  CHAOS_CHECK_MSG(it != flags_.end(), "flag not registered: " + name);
  CHAOS_CHECK_MSG(it->second.type == type, "flag type mismatch: " + name);
  return it->second;
}

int64_t Options::GetInt(const std::string& name) const { return Find(name, Type::kInt).int_value; }

double Options::GetDouble(const std::string& name) const {
  return Find(name, Type::kDouble).double_value;
}

bool Options::GetBool(const std::string& name) const { return Find(name, Type::kBool).bool_value; }

const std::string& Options::GetString(const std::string& name) const {
  return Find(name, Type::kString).string_value;
}

void Options::PrintHelp(const char* program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program);
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    std::string def;
    switch (f.type) {
      case Type::kInt:
        def = std::to_string(f.int_value);
        break;
      case Type::kDouble:
        def = std::to_string(f.double_value);
        break;
      case Type::kBool:
        def = f.bool_value ? "true" : "false";
        break;
      case Type::kString:
        def = f.string_value;
        break;
    }
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(), f.help.c_str(),
                 def.c_str());
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
