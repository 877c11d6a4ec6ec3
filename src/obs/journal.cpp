#include "obs/journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/series.hpp"

namespace elect::obs {
namespace {

std::uint64_t wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view to_string(event_kind k) {
  switch (k) {
    case event_kind::elected: return "elected";
    case event_kind::released: return "released";
    case event_kind::expired: return "expired";
    case event_kind::stale_fence: return "stale_fence";
    case event_kind::disconnect_reclaim: return "disconnect_reclaim";
    case event_kind::watch_drop: return "watch_drop";
    case event_kind::force_released: return "force_released";
    case event_kind::epoch_bumped: return "epoch_bumped";
  }
  return "unknown";
}

std::string event_record::to_json() const {
  std::string out = "{\"seq\":";
  out += std::to_string(seq);
  out += ",\"ts_ms\":";
  out += std::to_string(ts_ms);
  out += ",\"kind\":\"";
  const std::string_view name = to_string(kind);
  out.append(name.data(), name.size());
  out += "\",\"key\":\"";
  json_escape_into(out, key);
  out += "\",\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"holder\":";
  out += std::to_string(holder);
  out += ",\"cause\":\"";
  json_escape_into(out, cause);
  out += "\"}";
  return out;
}

journal::journal(std::size_t capacity, std::string jsonl_path)
    : capacity_(capacity == 0 ? 1 : capacity), path_(std::move(jsonl_path)) {
  if (!path_.empty()) {
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

journal::~journal() { stop(); }

void journal::append(event_kind kind, std::string key, std::uint64_t epoch,
                     int holder, std::string cause) {
  event_record rec;
  rec.ts_ms = wall_ms();
  rec.kind = kind;
  rec.key = std::move(key);
  rec.epoch = epoch;
  rec.holder = holder;
  rec.cause = std::move(cause);
  bool notify = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    rec.seq = next_seq_++;
    if (!path_.empty() && !stopped_) {
      // Bound the sink backlog the same way as the ring: a filesystem
      // that stops accepting writes must not grow memory forever.
      if (pending_.size() >= capacity_) {
        pending_.pop_front();
        ++flush_errors_;
      }
      pending_.push_back(rec);
      notify = true;
    }
    recent_.push_back(std::move(rec));
    while (recent_.size() > capacity_) {
      recent_.pop_front();
      ++evicted_;
    }
  }
  if (notify) flush_cv_.notify_one();
}

std::vector<event_record> journal::tail(std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = std::min(n, recent_.size());
  return {recent_.end() - static_cast<std::ptrdiff_t>(count), recent_.end()};
}

journal_report journal::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  journal_report r;
  r.appended = next_seq_ - 1;
  r.evicted = evicted_;
  r.flushed = flushed_;
  r.flush_errors = flush_errors_;
  return r;
}

void journal::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void journal::flusher_main() {
  std::FILE* file = std::fopen(path_.c_str(), "a");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    flush_cv_.wait(lock, [this] { return stopped_ || !pending_.empty(); });
    if (pending_.empty() && stopped_) break;
    std::deque<event_record> batch;
    batch.swap(pending_);
    lock.unlock();
    std::size_t written = 0;
    if (file != nullptr) {
      for (const event_record& rec : batch) {
        const std::string line = rec.to_json() + "\n";
        if (std::fwrite(line.data(), 1, line.size(), file) == line.size()) {
          ++written;
        }
      }
      std::fflush(file);
    }
    lock.lock();
    flushed_ += written;
    flush_errors_ += batch.size() - written;
  }
  lock.unlock();
  if (file != nullptr) std::fclose(file);
}

}  // namespace elect::obs
