// Fixture: wall-clock access inside the deterministic core.  Expect
// exactly two WALL_CLOCK findings (steady_clock and clock_gettime).  The
// suppressed high_resolution_clock line carries a reason and must fire in
// neither tool.  system_clock and time() are sda_lint's RNG_SOURCE
// everywhere, so the last function holds two RNG_SOURCE findings and no
// WALL_CLOCK finding.
#include <chrono>
#include <ctime>

double sim_bad_now() {
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

long sim_bad_posix_now() {
  struct timespec ts;
  clock_gettime(0, &ts);
  return ts.tv_sec;
}

// sda-lint: allow(WALL_CLOCK) fixture: suppressed with a reason
long sim_suppressed_now() { return std::chrono::high_resolution_clock::now().time_since_epoch().count(); }

long sim_entropy_now() {
  return std::chrono::system_clock::now().time_since_epoch().count() +
         time(nullptr);
}
