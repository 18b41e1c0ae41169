// Span recording for the benchmark, from outside the library.
//
// Spans live in one anonymous MAP_SHARED mapping created before any fork,
// so the fabric's forked workers record into the same store as the
// benchmark process. Nothing is written to disk: the benchmark folds the
// spans into its metrics after each result and clears the store.
//
// The decorators here wrap the library's own extension points (the
// DynamicGraphProvider a trial runs on and the Storage the journal writes
// through), forward every call unchanged and time it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness/storage.hpp"
#include "sim/dynamic_graph.hpp"

namespace perfbench {

/// Monotonic nanoseconds, comparable across forked processes
/// (steady_clock is CLOCK_MONOTONIC on Linux).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint32_t {
  kTrial,          ///< one trial body, construction to result
  kStep,           ///< one Scheduler::step() of the sync scheduler
  kEventStep,      ///< one Scheduler::step() of the event scheduler
  kGraphAt,        ///< graph_at() that stays inside the current window
  kRelabel,        ///< graph_at() that enters a new topology window
  kObserve,        ///< InvariantMonitor::observe_round()
  kJournalAppend,  ///< StorageFile::append() on the journal
  kJournalFsync,   ///< StorageFile::fsync() on the journal
  kJournalMeta,    ///< open/rename/sync_dir/read/remove of journal files
};

struct Span {
  SpanKind kind = SpanKind::kTrial;
  std::int64_t dur_ns = 0;   ///< span duration
  std::int64_t self_ns = 0;  ///< duration minus the child spans it covers
  /// Events dispatched (kEventStep) or bytes written (kJournalAppend).
  std::uint64_t value = 0;
};

/// Per-result counters that trials add into from any process.
struct SharedCounters {
  std::atomic<std::int64_t> first_round_ns{0};  ///< 0 = no round yet
  std::atomic<std::uint64_t> crashes{0};
  std::atomic<std::uint64_t> fault_dropped{0};
  std::atomic<std::uint64_t> queue_depth_max{0};
  std::atomic<std::uint64_t> shards{0};
  std::atomic<std::uint64_t> dropped_spans{0};  ///< store overflow
};

/// Fixed-capacity shared span store. Create it before forking; reset only
/// while no other process or thread records.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity);
  ~SpanStore();
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  void record(SpanKind kind, std::int64_t dur_ns, std::int64_t self_ns,
              std::uint64_t value = 0);
  /// Keeps the earliest first-round timestamp of the current result.
  void note_first_round(std::int64_t t_ns);
  SharedCounters& counters() { return header_->counters; }
  std::span<const Span> spans() const;
  void reset();

 private:
  struct Header {
    std::atomic<std::uint64_t> next{0};
    SharedCounters counters;
  };
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t capacity_ = 0;
  Header* header_ = nullptr;
  Span* spans_ = nullptr;
};

/// What a trial body records: always the trial span and the first-round
/// timestamp (the end-to-end metrics need them); with `traced`, also the
/// per-round spans and the decorator spans.
struct Probe {
  SpanStore* store = nullptr;
  bool traced = false;
};

/// Nanoseconds of graph_at() spent on this thread since the last take;
/// the per-round observer subtracts it from the step it happened in.
std::int64_t take_child_ns();

/// Forwards to `inner` and records each graph_at() as kGraphAt, or as
/// kRelabel when the call enters a new window of a provider whose topology
/// changes (stability() finite).
class TracedTopology final : public mtm::DynamicGraphProvider {
 public:
  TracedTopology(std::unique_ptr<mtm::DynamicGraphProvider> inner,
                 SpanStore& store)
      : inner_(std::move(inner)), store_(store) {}

  const mtm::Graph& graph_at(mtm::Round r) override;
  mtm::NodeId node_count() const override { return inner_->node_count(); }
  mtm::Round stability() const override { return inner_->stability(); }

  /// The graph returned by the latest graph_at(): the current round's.
  const mtm::Graph& last_graph() const { return *last_; }

 private:
  std::unique_ptr<mtm::DynamicGraphProvider> inner_;
  SpanStore& store_;
  const mtm::Graph* last_ = nullptr;
  mtm::Round window_ = ~mtm::Round{0};
};

/// Forwards to `inner` and records journal I/O: appends (with their byte
/// counts), fsyncs, and every metadata operation.
class TracedStorage final : public mtm::Storage {
 public:
  TracedStorage(mtm::Storage& inner, SpanStore& store)
      : inner_(inner), store_(store) {}

  std::unique_ptr<mtm::StorageFile> open(const std::string& path,
                                         OpenMode mode) override;
  std::string read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void sync_dir(const std::string& path_in_dir) override;
  std::vector<std::string> list_dir(const std::string& dir) override;

 private:
  template <typename F>
  auto timed(F&& op);

  mtm::Storage& inner_;
  SpanStore& store_;
};

}  // namespace perfbench
