// In-memory span recorder for the traced replay.
//
// Every call the replay makes into a layer is wrapped in a Scope, which
// reads the wall clock and the calling thread's CPU clock on entry and exit.
// Scopes nest per thread; a span's self CPU time is its CPU time minus that
// of its child spans, and the per-layer totals add up self time only, so a
// container seal that enqueues an upload is not counted twice. Spans stay in
// memory until write_jsonl() at the end of the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sessionbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: no parent
  const char* layer = "";    // static layer name, e.g. "chunk.cdc"
  std::uint32_t detail = 0;  // interned detail string (stream, key, ...)
  double start_s = 0.0;      // wall clock, relative to the recorder's epoch
  double wall_s = 0.0;
  double cpu_s = 0.0;        // thread CPU time, children included
  double self_cpu_s = 0.0;   // cpu_s minus the children's cpu_s
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;
};

/// Per-layer sums over every recorded span of that layer.
struct LayerTotal {
  double self_wall_s = 0.0;
  double self_cpu_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Disabled recorders make Scopes free: no clock reads, nothing kept.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Parent for spans opened with no enclosing Scope on their thread
  /// (e.g. uploads on the pipeline's uploader thread).
  void set_root_parent(std::uint32_t id) noexcept { root_parent_ = id; }

  [[nodiscard]] std::uint32_t intern(std::string_view detail);

  /// Times one call. Work done is reported with add() before the Scope
  /// ends.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* layer,
          std::uint32_t detail = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void add(std::uint64_t bytes, std::uint64_t items = 0) noexcept {
      span_.bytes += bytes;
      span_.items += items;
    }
    [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

   private:
    SpanRecorder* recorder_;
    Scope* outer_ = nullptr;
    Span span_;
    double child_cpu_s_ = 0.0;
    double child_wall_s_ = 0.0;
    double cpu_begin_ = 0.0;
  };

  [[nodiscard]] LayerTotal total(std::string_view layer) const;

  /// One JSON object per span, in the order spans ended.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now() const noexcept;
  void finish(const Span& span, double self_wall_s);

  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = true;
  std::uint32_t root_parent_ = 0;
  mutable std::mutex mutex_;
  std::atomic<std::uint32_t> next_id_{1};
  std::vector<Span> spans_;
  std::vector<std::string> details_{""};
  std::map<std::string, std::uint32_t, std::less<>> detail_ids_;
  std::map<std::string, LayerTotal, std::less<>> totals_;
};

}  // namespace sessionbench
