#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// In-memory span recorder for the traced run. A Span wraps one call
/// from the benchmark into a layer of the engine; spans nest per thread
/// (the innermost open span on the thread is the parent) and carry the
/// request id of the operation they serve. Nothing is recorded unless
/// tracing was enabled, so the untraced runs pay one branch per span.
class Span {
 public:
  Span(const char* layer, const char* op, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* op_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double start_ = 0;
  bool on_ = false;
};

void EnableTracing(bool on);

/// Self time per layer in seconds: each span's duration minus the time
/// covered by its direct children, summed over the layer's spans.
std::map<std::string, double> SelfSecondsByLayer();

/// Writes every recorded span as one JSON object per line
/// (id, parent, request, layer, op, start_s, end_s). False on I/O error.
bool WriteSpans(const std::string& path);

size_t SpanCount();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
