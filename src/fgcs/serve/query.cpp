#include "fgcs/serve/query.hpp"

#include "fgcs/util/error.hpp"

namespace fgcs::serve {

QueryAnswer evaluate(const MachineState& state, const FeedConfig& config,
                     sim::SimTime at, sim::SimDuration window) {
  const trace::TraceCalendar calendar(config.start_dow);
  const ClassHistory& history = state.gaps[calendar.is_weekend(at) ? 1 : 0];

  QueryAnswer answer;
  answer.expected_occurrences = predict::renewal_occurrences(
      history.sum_h, history.sorted_h.size(), window.as_hours());

  // Down right now? Mirrors the batch predictor's `inside` check; the
  // open-episode case covers a live feed where the close event has not
  // arrived yet (batch never sees open episodes — prefixes hold only
  // closed records).
  const bool inside_last = state.episodes > 0 && state.last_start <= at &&
                           at < state.last_end;
  const bool inside_open = state.open && at >= state.open_start;
  if (inside_last || inside_open) {
    answer.p_available = 0.0;
    return answer;
  }

  const sim::SimTime age_base =
      state.episodes > 0 ? state.last_end : config.horizon_start;
  // A query before the age base (pre-history, post-horizon-start) would
  // produce a negative age; the batch predictor cannot be asked this
  // (last_end_before returns an earlier episode instead), and the
  // watermark contract keeps well-formed callers past it. Clamp to 0 so
  // hostile inputs (fuzzing) stay in-range rather than UB.
  const double age_h = at >= age_base ? (at - age_base).as_hours() : 0.0;
  answer.p_available = predict::conditional_availability(
      history.sorted_h, age_h, window.as_hours(), config.model);
  return answer;
}

QueryAnswer QueryEngine::query(const ServeQuery& q) const {
  const auto snap = pin();
  const QueryAnswer answer = query(*snap, q);
  obs::emit(
      {.at = q.at, .kind = obs::FlightEventKind::kServeQueries, .count = 1});
  return answer;
}

QueryAnswer QueryEngine::query(const FleetSnapshot& snap,
                               const ServeQuery& q) const {
  fgcs::require(q.machine < snap.machines.size(),
                "serve query: machine id out of range");
  fgcs::require(q.window > sim::SimDuration::zero(),
                "serve query: window must be positive");
  return evaluate(*snap.machines[q.machine], snap.config, q.at, q.window);
}

std::vector<double> QueryEngine::p_available_fleet(
    const FleetSnapshot& snap, sim::SimTime at,
    sim::SimDuration window) const {
  fgcs::require(window > sim::SimDuration::zero(),
                "serve query: window must be positive");
  std::vector<double> out;
  out.reserve(snap.machines.size());
  for (const auto& state : snap.machines) {
    out.push_back(evaluate(*state, snap.config, at, window).p_available);
  }
  obs::emit({.at = at,
             .kind = obs::FlightEventKind::kServeQueries,
             .count = out.size()});
  return out;
}

}  // namespace fgcs::serve
