// Fixture: src/sim (rank 1) reaching up into src/core (rank 3).
// Expect exactly one LAYERING finding (the admission include); the
// invariants include is the standing cross-cutting exemption and the
// sched include is suppressed with a reason.
#include "src/core/admission.hpp"
#include "src/core/invariants.hpp"
// sda-lint: allow(LAYERING) fixture: suppressed upward include
#include "src/sched/edf.hpp"

int sim_bad_include() { return 1; }
