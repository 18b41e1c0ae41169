#include "probe.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>

namespace perfbench {

namespace {
thread_local std::int64_t child_ns = 0;
}  // namespace

std::int64_t take_child_ns() {
  const std::int64_t taken = child_ns;
  child_ns = 0;
  return taken;
}

SpanStore::SpanStore(std::size_t capacity)
    : bytes_(sizeof(Header) + capacity * sizeof(Span)), capacity_(capacity) {
  base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base_ == MAP_FAILED) throw std::runtime_error("span store: mmap failed");
  header_ = new (base_) Header();
  spans_ = reinterpret_cast<Span*>(static_cast<char*>(base_) + sizeof(Header));
}

SpanStore::~SpanStore() {
  header_->~Header();
  munmap(base_, bytes_);
}

void SpanStore::record(SpanKind kind, std::int64_t dur_ns,
                       std::int64_t self_ns, std::uint64_t value) {
  const std::uint64_t slot =
      header_->next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    header_->counters.dropped_spans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = Span{kind, dur_ns, self_ns, value};
}

void SpanStore::note_first_round(std::int64_t t_ns) {
  std::int64_t seen = header_->counters.first_round_ns.load();
  while ((seen == 0 || t_ns < seen) &&
         !header_->counters.first_round_ns.compare_exchange_weak(seen, t_ns)) {
  }
}

std::span<const Span> SpanStore::spans() const {
  const std::uint64_t n = header_->next.load();
  return {spans_, n < capacity_ ? n : capacity_};
}

void SpanStore::reset() {
  header_->next.store(0);
  SharedCounters& c = header_->counters;
  c.first_round_ns.store(0);
  c.crashes.store(0);
  c.fault_dropped.store(0);
  c.queue_depth_max.store(0);
  c.shards.store(0);
  c.dropped_spans.store(0);
}

const mtm::Graph& TracedTopology::graph_at(mtm::Round r) {
  const mtm::Round tau = inner_->stability();
  const bool dynamic = tau != kInfiniteStability;
  const mtm::Round window = dynamic ? (r - 1) / tau : 0;
  const bool entering = dynamic && window != window_;
  const std::int64_t start = now_ns();
  last_ = &inner_->graph_at(r);
  const std::int64_t dur = now_ns() - start;
  window_ = window;
  child_ns += dur;
  store_.record(entering ? SpanKind::kRelabel : SpanKind::kGraphAt, dur, dur);
  return *last_;
}

namespace {

class TracedFile final : public mtm::StorageFile {
 public:
  TracedFile(std::unique_ptr<mtm::StorageFile> inner, SpanStore& store)
      : inner_(std::move(inner)), store_(store) {}

  void append(const char* data, std::size_t size) override {
    const std::int64_t start = now_ns();
    inner_->append(data, size);
    const std::int64_t dur = now_ns() - start;
    store_.record(SpanKind::kJournalAppend, dur, dur, size);
  }
  void fsync() override {
    const std::int64_t start = now_ns();
    inner_->fsync();
    const std::int64_t dur = now_ns() - start;
    store_.record(SpanKind::kJournalFsync, dur, dur);
  }
  void close() override { inner_->close(); }
  const std::string& path() const noexcept override { return inner_->path(); }

 private:
  std::unique_ptr<mtm::StorageFile> inner_;
  SpanStore& store_;
};

}  // namespace

template <typename F>
auto TracedStorage::timed(F&& op) {
  const std::int64_t start = now_ns();
  struct Recorder {
    SpanStore& store;
    std::int64_t start;
    ~Recorder() {
      const std::int64_t dur = now_ns() - start;
      store.record(SpanKind::kJournalMeta, dur, dur);
    }
  } recorder{store_, start};
  return op();
}

std::unique_ptr<mtm::StorageFile> TracedStorage::open(const std::string& path,
                                                      OpenMode mode) {
  auto file = timed([&] { return inner_.open(path, mode); });
  return std::make_unique<TracedFile>(std::move(file), store_);
}

std::string TracedStorage::read_file(const std::string& path) {
  return timed([&] { return inner_.read_file(path); });
}

bool TracedStorage::exists(const std::string& path) {
  return timed([&] { return inner_.exists(path); });
}

std::uint64_t TracedStorage::file_size(const std::string& path) {
  return timed([&] { return inner_.file_size(path); });
}

void TracedStorage::rename(const std::string& from, const std::string& to) {
  timed([&] { inner_.rename(from, to); });
}

void TracedStorage::remove(const std::string& path) {
  timed([&] { inner_.remove(path); });
}

void TracedStorage::truncate(const std::string& path, std::uint64_t size) {
  timed([&] { inner_.truncate(path, size); });
}

void TracedStorage::sync_dir(const std::string& path_in_dir) {
  timed([&] { inner_.sync_dir(path_in_dir); });
}

std::vector<std::string> TracedStorage::list_dir(const std::string& dir) {
  return timed([&] { return inner_.list_dir(dir); });
}

}  // namespace perfbench
