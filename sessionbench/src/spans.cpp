#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

#include "telemetry/json.hpp"
#include "util/stopwatch.hpp"

namespace sessionbench {

namespace {
/// Innermost open Scope on this thread (nesting is per thread).
thread_local SpanRecorder::Scope* t_current = nullptr;
}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint32_t SpanRecorder::intern(std::string_view detail) {
  std::lock_guard lock(mutex_);
  const auto it = detail_ids_.find(detail);
  if (it != detail_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(details_.size());
  details_.emplace_back(detail);
  detail_ids_.emplace(std::string(detail), id);
  return id;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* layer,
                           std::uint32_t detail)
    : recorder_(recorder.enabled_ ? &recorder : nullptr) {
  if (recorder_ == nullptr) return;
  outer_ = t_current;
  t_current = this;
  span_.id = recorder.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = outer_ != nullptr ? outer_->span_.id : recorder.root_parent_;
  span_.layer = layer;
  span_.detail = detail;
  span_.start_s = recorder.now();
  cpu_begin_ = aadedupe::thread_cpu_seconds();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const double cpu_end = aadedupe::thread_cpu_seconds();
  span_.wall_s = recorder_->now() - span_.start_s;
  span_.cpu_s = cpu_end - cpu_begin_;
  span_.self_cpu_s = span_.cpu_s - child_cpu_s_;
  t_current = outer_;
  if (outer_ != nullptr) {
    outer_->child_cpu_s_ += span_.cpu_s;
    outer_->child_wall_s_ += span_.wall_s;
  }
  recorder_->finish(span_, span_.wall_s - child_wall_s_);
}

void SpanRecorder::finish(const Span& span, double self_wall_s) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
  auto it = totals_.find(std::string_view(span.layer));
  if (it == totals_.end()) it = totals_.emplace(span.layer, LayerTotal{}).first;
  LayerTotal& total = it->second;
  total.self_wall_s += self_wall_s;
  total.self_cpu_s += span.self_cpu_s;
  total.bytes += span.bytes;
  total.items += span.items;
}

LayerTotal SpanRecorder::total(std::string_view layer) const {
  std::lock_guard lock(mutex_);
  const auto it = totals_.find(layer);
  return it == totals_.end() ? LayerTotal{} : it->second;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::string detail;
  for (const Span& s : spans_) {
    detail.clear();
    aadedupe::telemetry::json_escape(detail, details_[s.detail]);
    std::fprintf(out,
                 "{\"id\":%u,\"parent\":%u,\"layer\":\"%s\",\"detail\":\"%s\","
                 "\"start_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.9f,"
                 "\"self_cpu_s\":%.9f,\"bytes\":%llu,\"items\":%llu}\n",
                 s.id, s.parent, s.layer, detail.c_str(), s.start_s, s.wall_s,
                 s.cpu_s, s.self_cpu_s,
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.items));
  }
  const bool ok = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !ok) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace sessionbench
