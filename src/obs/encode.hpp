#pragma once
// Internal encoders shared by the obs exporters (export.cpp, timeseries.cpp,
// jobtrace.cpp): JSON number and string rendering, and the FNV-1a digest
// the recorders fold their contents into. Not part of the public obs API.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace netsel::obs::detail {

/// Shortest round-trip double rendering that is always valid JSON: a
/// non-finite value (which callers keep out, or use as a sentinel) renders
/// as `non_finite`.
inline std::string num(double v, const char* non_finite = "0") {
  if (!std::isfinite(v)) return non_finite;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `s` as a JSON string literal.
inline std::string quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t fnv1a_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

inline std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace netsel::obs::detail
