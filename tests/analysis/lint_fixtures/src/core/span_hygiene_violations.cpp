// Deliberate R10 violations: a discarded guard temporary and an event with
// no scope to anchor to. Never compiled.
#include "obs/scoped_timer.hpp"

namespace sgp::core {

void measure_nothing() {
  obs::ScopedTimer(obs::names::kPublish);
}

void unanchored_event() {
  obs::log_event(obs::names::kEventLedgerCharge, {});
}

}  // namespace sgp::core
