// The one rule for on/off environment knobs (README lists them).
#pragma once

#include <strings.h>

#include <cstdlib>
#include <initializer_list>

namespace madmpi {

/// Unset or empty means `fallback`; `0`, `off`, `false` and `no`, in any
/// case, mean off; any other value means on.
inline bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  for (const char* off : {"0", "off", "false", "no"}) {
    if (::strcasecmp(value, off) == 0) return false;
  }
  return true;
}

}  // namespace madmpi
