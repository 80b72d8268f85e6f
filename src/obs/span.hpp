// The span model shared by every backend's execution traces.
//
// A `Span` is one contiguous stretch of activity on one device (or on the
// coordinator): local compute, a synchronization collective, a broadcast
// push/integration, idle waiting, a stalled/aborted attempt, or a §III-D
// ring repair. The simulator (`HadflConfig::trace`) and the rt runtime's
// `obs::SpanRecorder` both produce `Timeline`s over this one vocabulary,
// so the same renderers and exporters (obs/export.hpp) apply to both — a
// virtual-time Fig. 1 timeline and a wall-clock rt trace differ only in
// what the time axis means.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hadfl::obs {

enum class SpanKind { kCompute, kSync, kIdle, kBroadcast, kStall, kRepair };

const char* span_kind_name(SpanKind kind);

/// Character used for `kind` in the ASCII timeline: compute = '#',
/// sync = 'S', broadcast = 'B', idle = '.', stall = 'x', repair = 'R'.
char span_kind_char(SpanKind kind);

struct Span {
  std::size_t device = 0;
  double start = 0.0;  ///< seconds (virtual or wall, backend-defined)
  double end = 0.0;
  SpanKind kind = SpanKind::kCompute;
  std::string label;
};

/// An ordered collection of spans plus the rendering/dumping operations
/// every trace consumer needs. Single-threaded; concurrent producers go
/// through `SpanRecorder` (obs/recorder.hpp) and drain into one of these.
class Timeline {
 public:
  void record(std::size_t device, double start, double end, SpanKind kind,
              std::string label = {});

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> spans_for(std::size_t device) const;
  double end_time() const;

  /// Renders an ASCII Gantt chart: one row per device, `columns` characters
  /// wide, using `span_kind_char` per span.
  std::string render_timeline(std::size_t num_devices,
                              std::size_t columns = 80) const;

  /// CSV dump (device, start, end, kind, label).
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace hadfl::obs
