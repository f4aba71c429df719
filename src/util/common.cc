#include "util/common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace chaos {

[[noreturn]] void CheckFailure(const char* file, int line, const char* expr,
                               const std::string& msg) {
  const char* slash = std::strrchr(file, '/');
  std::fprintf(stderr, "[FATAL %s:%d] CHECK failed: %s %s\n", slash != nullptr ? slash + 1 : file,
               line, expr, msg.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace chaos
