// PhaseClock — the traced run's span recorder.
//
// A FlightRecorder subclass attached through the program's public recorder
// hooks (VmatCoordinator::set_recorder, Daemon::set_recorder, the
// CampaignRunner::replay(entry, recorder) overload). It stamps steady_clock
// at every kPhaseBegin / kPhaseEnd / kOutcome and adds each closed phase's
// duration to a per-phase total, counts events, and sums the metering
// snapshot every finished execution hands to its sink. Timing stays on the
// benchmark's side: nothing here feeds back into the program.
//
// A phase still open when a new execution or epoch begins (the tree
// formation a snapshot_after_formation() prefix leaves open) is dropped,
// as the program's own Tracer drops it.
//
// It keeps no events unless asked to: the campaign probe's trace check
// reads the recorded stream, so probe-1k constructs it with
// keep_events = true and every event is forwarded to FlightRecorder.
#pragma once

#include <array>
#include <cstdint>

#include "stats.h"
#include "trace/trace.h"

namespace perfbench {

class PhaseClock final : public vmat::FlightRecorder {
 public:
  explicit PhaseClock(bool keep_events) : keep_events_(keep_events) {}

  void on_event(const vmat::TraceEvent& event) override;
  void on_execution_end(const vmat::ExecutionMetrics& metrics) override;

  /// Zero every accumulated span, count and metric sum (the recorded
  /// stream, if kept, is cleared separately through clear()).
  void reset_totals();

  /// Summed duration of each phase's closed spans since reset_totals().
  [[nodiscard]] double span_ms(vmat::TracePhase phase) const;
  /// Sum of span_ms over every phase.
  [[nodiscard]] double spans_ms() const;
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t slot_ticks() const noexcept {
    return slot_ticks_;
  }
  [[nodiscard]] std::uint64_t outcomes() const noexcept { return outcomes_; }
  /// When a span of `phase` last closed.
  [[nodiscard]] Clock::time_point closed_at(vmat::TracePhase phase) const {
    return closed_at_[static_cast<std::size_t>(phase)];
  }
  /// Metering summed over every execution that ended since reset_totals().
  [[nodiscard]] const vmat::ExecutionMetrics& metered() const noexcept {
    return metered_;
  }

 private:
  void close_open_phase(Clock::time_point now);

  bool keep_events_;
  vmat::TracePhase open_phase_{vmat::TracePhase::kNone};
  Clock::time_point opened_at_{};
  std::array<Clock::duration, vmat::kTracePhaseCount> spans_{};
  std::array<Clock::time_point, vmat::kTracePhaseCount> closed_at_{};
  std::uint64_t events_{0};
  std::uint64_t slot_ticks_{0};
  std::uint64_t outcomes_{0};
  vmat::ExecutionMetrics metered_{};
};

}  // namespace perfbench
