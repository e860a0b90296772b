#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>

namespace mm::perfbench {

namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::int32_t> open_stack;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
/// Every thread's buffer, in registration order (kept alive past thread exit
/// so spans recorded by finished client threads are still written).
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->spans.reserve(1 << 12);
    buffer = fresh.get();
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    registry().push_back(std::move(fresh));
  }
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int32_t Tracer::open(const char* layer, const char* name) {
  if (!enabled()) return -1;
  ThreadBuffer& buffer = local_buffer();
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = buffer.open_stack.empty() ? -1 : buffer.open_stack.back();
  span.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back(span);
  buffer.open_stack.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!buffer.open_stack.empty() && buffer.open_stack.back() == index) {
    buffer.open_stack.pop_back();
  }
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buffer : registry()) {
    buffer->spans.clear();
    buffer->open_stack.clear();
  }
}

std::size_t Tracer::span_count() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::size_t n = 0;
  for (const auto& buffer : registry()) n += buffer->spans.size();
  return n;
}

std::map<std::string, LayerTime> Tracer::layer_times() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::map<std::string, LayerTime> out;
  for (const auto& buffer : registry()) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double total = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
      LayerTime& lt = out[spans[i].layer];
      lt.self_s += total - static_cast<double>(child_ns[i]) * 1e-9;
      ++lt.calls;
    }
  }
  return out;
}

void Tracer::write_spans(std::ostream& out) {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& buffer : registry()) {
    for (const Span& span : buffer->spans) origin = std::min(origin, span.start_ns);
  }
  out << "[";
  bool first = true;
  for (std::size_t t = 0; t < registry().size(); ++t) {
    const std::vector<Span>& spans = registry()[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "\n" : ",\n") << "[" << t << ", " << i << ", " << s.parent << ", \""
          << s.layer << "\", \"" << s.name << "\", " << s.start_ns - origin << ", "
          << s.end_ns - origin << "]";
      first = false;
    }
  }
  out << "\n]";
}

}  // namespace mm::perfbench
