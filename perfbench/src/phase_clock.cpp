#include "phase_clock.h"

namespace perfbench {

void PhaseClock::on_event(const vmat::TraceEvent& event) {
  ++events_;
  switch (event.kind) {
    case vmat::TraceEventKind::kPhaseBegin: {
      const Clock::time_point now = Clock::now();
      close_open_phase(now);
      open_phase_ = event.phase;
      opened_at_ = now;
      break;
    }
    case vmat::TraceEventKind::kPhaseEnd:
    case vmat::TraceEventKind::kOutcome:
      close_open_phase(Clock::now());
      if (event.kind == vmat::TraceEventKind::kOutcome) ++outcomes_;
      break;
    case vmat::TraceEventKind::kExecutionBegin:
    case vmat::TraceEventKind::kEpochBegin:
      open_phase_ = vmat::TracePhase::kNone;
      break;
    case vmat::TraceEventKind::kSlotTick:
      ++slot_ticks_;
      break;
    default:
      break;
  }
  if (keep_events_) FlightRecorder::on_event(event);
}

void PhaseClock::on_execution_end(const vmat::ExecutionMetrics& metrics) {
  for (std::size_t p = 0; p < vmat::kTracePhaseCount; ++p)
    metered_.phase[p] += metrics.phase[p];
  if (keep_events_) FlightRecorder::on_execution_end(metrics);
}

void PhaseClock::close_open_phase(Clock::time_point now) {
  if (open_phase_ == vmat::TracePhase::kNone) return;
  spans_[static_cast<std::size_t>(open_phase_)] += now - opened_at_;
  closed_at_[static_cast<std::size_t>(open_phase_)] = now;
  open_phase_ = vmat::TracePhase::kNone;
}

void PhaseClock::reset_totals() {
  spans_ = {};
  events_ = 0;
  slot_ticks_ = 0;
  outcomes_ = 0;
  metered_ = {};
}

double PhaseClock::span_ms(vmat::TracePhase phase) const {
  return std::chrono::duration<double, std::milli>(
             spans_[static_cast<std::size_t>(phase)])
      .count();
}

double PhaseClock::spans_ms() const {
  double total = 0.0;
  for (std::size_t p = 0; p < vmat::kTracePhaseCount; ++p)
    total += span_ms(static_cast<vmat::TracePhase>(p));
  return total;
}

}  // namespace perfbench
