// R10 silent: the guard is named (it spans the scope), and log_event fires
// under a span opened earlier or passed in by the caller.
#include "obs/scoped_timer.hpp"

namespace sgp::core {

void measured_publish() {
  obs::ScopedTimer timer(obs::names::kPublish);
  obs::log_event(obs::names::kEventLedgerCharge, {});
}

void logs_under_caller(obs::Span& span, int release) {
  obs::log_event(obs::names::kEventLedgerCharge,
                 {{"release", std::to_string(release)}});
}

}  // namespace sgp::core
