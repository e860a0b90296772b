// Outside-in layer tracing. The benchmark wraps every call it makes into a
// library layer in a Scope; when tracing is on, each Scope becomes a span
// (layer, name, start, end, parent) in a per-thread in-memory buffer, and
// the buffers are written out once, at exit. Nothing inside the library is
// instrumented: a layer's time is the time its callers spent inside it.
//
// Per-layer self time is a span's duration minus the durations of the spans
// opened inside it on the same thread, summed over the layer's spans. When
// tracing is off a Scope costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mm::perfbench {

struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer, -1 = root
};

struct LayerTime {
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Opens a span on the calling thread; returns its index, or -1 when off.
  static std::int32_t open(const char* layer, const char* name);
  static void close(std::int32_t index);

  /// Drops every recorded span (all threads).
  static void clear();
  [[nodiscard]] static std::size_t span_count();
  /// Self time and span count per layer over every recorded span.
  [[nodiscard]] static std::map<std::string, LayerTime> layer_times();
  /// One JSON array per span: [thread, index, parent, layer, name, start_ns,
  /// end_ns], start times relative to the first span.
  static void write_spans(std::ostream& out);
};

/// RAII span.
class Scope {
 public:
  Scope(const char* layer, const char* name) : index_(Tracer::open(layer, name)) {}
  ~Scope() {
    if (index_ >= 0) Tracer::close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace mm::perfbench
