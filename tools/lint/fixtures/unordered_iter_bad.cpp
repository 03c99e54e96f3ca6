// Fixture: UNORDERED_ITER should fire 3 times.
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

struct Report {
  std::unordered_map<std::string, double> totals_;
  std::unordered_set<int> seen_ids;

  void render() const {
    for (const auto& [name, total] : totals_) {     // finding 1
      std::printf("%s %f\n", name.c_str(), total);
    }
  }
};

void fold(const Report& r) {
  for (int id : r.seen_ids) {                        // finding 2
    std::printf("%d\n", id);
  }
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

struct Board {
  std::unordered_map<std::uint64_t, double> cells_;

  std::uint64_t fingerprint() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& kv : cells_) {                  // finding 3
      h = fnv1a(h, kv.first);  // unspecified order into the hash
    }
    return h;
  }
};
