#include "arch/architecture.hpp"

namespace mphpc::arch {

namespace {

/// ASCII case-insensitive equality; `lower` is already lower case.
bool equals_lower(std::string_view s, std::string_view lower) noexcept {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) != lower[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view to_string(SystemId id) noexcept {
  switch (id) {
    case SystemId::kQuartz: return "quartz";
    case SystemId::kRuby: return "ruby";
    case SystemId::kLassen: return "lassen";
    case SystemId::kCorona: return "corona";
  }
  return "unknown";
}

std::optional<SystemId> parse_system(std::string_view name) noexcept {
  // Case-insensitive match without a lowered copy: the serve path parses
  // a system name on every request.
  for (const SystemId id : kAllSystems) {
    if (equals_lower(name, to_string(id))) return id;
  }
  return std::nullopt;
}

}  // namespace mphpc::arch
