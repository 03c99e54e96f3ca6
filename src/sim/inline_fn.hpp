// The simulator's event closure: util::UniqueFn<void()>, a move-only
// callable that keeps captures of up to 48 bytes inline (see
// src/util/unique_fn.hpp).  Every scheduled event carries one, so its
// footprint is part of the event queue's layout contract.
#pragma once

#include "src/util/unique_fn.hpp"

namespace sda::sim {

using InlineFn = util::UniqueFn<void()>;

// 48 bytes of inline captures plus the ops pointer: together with the
// 8-byte key an event-pool slot is exactly one 64-byte cache line.
static_assert(sizeof(InlineFn) == 56 && alignof(InlineFn) <= 8,
              "InlineFn must stay 56 bytes so an event slot fits a cache line");

}  // namespace sda::sim
