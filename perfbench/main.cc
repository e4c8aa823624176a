// End-to-end benchmark: one process runs one workload on the
// DBLP generator graph, measures it, checks every answer and prints one
// JSON result line. Built and launched by run.py; see README.md for the
// workloads, metrics and how the per-layer numbers relate to them.
//
//   perfbench --workload live-wire|paged --seed N --seconds S
//             --trace 0|1 --scratch DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (spans around every call into a layer, kept in memory and written to
// DIR/spans-<workload>-<seed>.jsonl when the run ends).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "banks/engine.h"
#include "checks.h"
#include "datasets/dblp_gen.h"
#include "datasets/workload.h"
#include "net/client.h"
#include "net/server.h"
#include "prestige/pagerank.h"
#include "storage/paged_store.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace banks;  // NOLINT: the benchmark drives the whole engine
using Clock = std::chrono::steady_clock;

// ---- Fixed inputs (README "Inputs") ----------------------------------------

constexpr double kScale = 4.0;            // DBLP generator scale
constexpr size_t kTopK = 10;
constexpr uint64_t kNodeBudget = 100000;  // serving default
constexpr int kSetupRepetitions = 3;
constexpr size_t kWireConnections = 8;
constexpr double kPoolFraction = 0.10;    // paged: pool / in-RAM graph bytes
constexpr double kWriterBatchesPerSecond = 0.5;
constexpr size_t kStaticStructuralUpdates = 5;  // paged: after serving
// The query pool is the same in every run, so runs of one program do the
// same searches; --seed drives the arrival order and the update stream.
constexpr uint64_t kPoolSeed = 2005;
const Algorithm kAlgorithms[] = {Algorithm::kBidirectional,
                                 Algorithm::kBackwardSI,
                                 Algorithm::kBackwardMI};
// Algorithm of pool query i is kMix[i % 10]: one Bidirectional, three SI,
// six MI. Sorted by latency the mix is SI, MI, then Bidirectional, so the
// p95 falls near the middle of the Bidirectional cluster: it reads a
// typical query of one algorithm, not the edge between two clusters or
// the tail of one.
const Algorithm kMix[] = {
    Algorithm::kBidirectional, Algorithm::kBackwardSI, Algorithm::kBackwardMI,
    Algorithm::kBackwardMI,    Algorithm::kBackwardSI, Algorithm::kBackwardMI,
    Algorithm::kBackwardMI,    Algorithm::kBackwardSI, Algorithm::kBackwardMI,
    Algorithm::kBackwardMI};
constexpr size_t kMixPeriod = std::size(kMix);
// A ladder rung lasts about this share of --seconds (whole passes over
// the pool, at least two): long enough that a rate above capacity builds
// a backlog past the latency limit, not just a burst the queue absorbs.
constexpr double kRungShare = 0.12;
constexpr size_t kMinRungPasses = 2;
// The batch phase runs whole rounds for about this share of --seconds.
constexpr double kBatchShare = 0.15;

constexpr size_t kPoolSize = 60;   // distinct queries, a multiple of kMixPeriod
constexpr double kRefQps = 20.0;   // reference arrival rate
constexpr double kLimitMs = 600;   // p95 limit of the capacity ladder
constexpr double kWarmUpQps = 20.0;
// The reference passes together take about this share of --seconds.
constexpr double kRefShare = 0.6;

/// live-wire: in-RAM engine behind banks::net with a concurrent writer.
/// paged: in-process Subscribe on an engine opened from a PagedStore.
enum class Kind { kLiveWire, kPaged };

struct WorkloadSpec {
  std::string name;
  Kind kind;
  std::vector<double> ladder;  // capacity ladder, qps, ascending
  bool live() const { return kind == Kind::kLiveWire; }
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "live-wire") {
    return WorkloadSpec{name, Kind::kLiveWire,
                        {30, 40, 52, 66, 82, 100, 122, 150}};
  }
  if (name == "paged") {
    return WorkloadSpec{name, Kind::kPaged, {42, 52, 63, 75, 90, 110, 135, 165}};
  }
  return std::nullopt;
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

/// Scheduler workers: nproc minus the two other threads that stay busy
/// alongside them. live-wire: the server's event loop and the writer
/// (its connection threads are the load generator, blocked in recv
/// between frames). paged: the load generator and the buffer pool's
/// fetch thread.
size_t WorkersFor() { return Nproc() > 3 ? Nproc() - 2 : 1; }

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Set-up -----------------------------------------------------------------

struct World {
  std::unique_ptr<Database> db;
  std::unique_ptr<Engine> ram;    // in-RAM engine (the reference)
  std::unique_ptr<Engine> paged;  // paged workload: opened from the store
  std::shared_ptr<PagedStore> store;
  FreqThresholds thresholds;
  double generate_s = 0, build_s = 0, pagerank_s = 0, save_s = 0, open_s = 0;
  double setup_s = 0;

  const Engine& serving() const { return paged ? *paged : *ram; }
};

/// Origin-size categories scaled from the paper's 2M-node graph by node
/// count (T 1-500, S 1000-2000 there).
FreqThresholds ScaledThresholds(size_t num_nodes) {
  const double f = static_cast<double>(num_nodes) / 2'000'000.0;
  auto scale = [&](double v, size_t min_value) {
    return std::max<size_t>(min_value, static_cast<size_t>(v * f));
  };
  FreqThresholds t;
  t.tiny_max = scale(500, 8);
  t.small_min = scale(1000, t.tiny_max + 1);
  t.small_max = scale(2000, t.small_min + 8);
  t.medium_min = scale(2500, t.small_max + 1);
  t.medium_max = scale(5000, t.medium_min + 8);
  t.large_min = scale(7000, t.medium_max + 1);
  return t;
}

bool SetupOnce(const WorkloadSpec& w, const std::string& store_path,
               World* out) {
  World world;
  const auto t0 = Clock::now();
  DblpConfig config;
  config.num_authors = static_cast<size_t>(8000 * kScale);
  config.num_papers = static_cast<size_t>(16000 * kScale);
  config.num_conferences = static_cast<size_t>(150 * kScale) + 10;
  config.vocab_size = static_cast<size_t>(12000 * kScale) + 500;
  config.surname_pool = static_cast<size_t>(2500 * kScale) + 100;
  config.seed = 20050830;
  {
    Span s("datasets", "generate");
    world.db = std::make_unique<Database>(GenerateDblp(config));
  }
  const auto t1 = Clock::now();
  DataGraph dg;
  {
    Span s("relational", "build_data_graph");
    dg = BuildDataGraph(*world.db);
  }
  const auto t2 = Clock::now();
  {
    Span s("prestige", "engine_pagerank");
    world.ram = std::make_unique<Engine>(std::move(dg));
  }
  const auto t3 = Clock::now();
  world.generate_s = Seconds(t0, t1);
  world.build_s = Seconds(t1, t2);
  world.pagerank_s = Seconds(t2, t3);
  if (!w.live()) {
    PagedStoreOptions save;
    save.layout = PageLayout::kClustered;
    bool saved = false;
    {
      Span s("storage", "save");
      saved = PagedStore::Save(world.ram->data(), world.ram->prestige(),
                               store_path, save);
    }
    if (!saved) {
      std::fprintf(stderr, "cannot write paged store %s\n", store_path.c_str());
      return false;
    }
    const auto t4 = Clock::now();
    PagedOpenOptions open;
    open.pool_bytes = static_cast<size_t>(
        kPoolFraction *
        static_cast<double>(
            world.ram->graph().ComputeMemoryUsage().total_bytes()));
    {
      Span s("storage", "open");
      std::optional<PagedData> pd = PagedStore::Open(store_path, open);
      if (!pd) {
        std::fprintf(stderr, "cannot open paged store %s\n", store_path.c_str());
        return false;
      }
      world.store = pd->store;
      world.paged = std::make_unique<Engine>(std::move(pd->data));
    }
    const auto t5 = Clock::now();
    world.save_s = Seconds(t3, t4);
    world.open_s = Seconds(t4, t5);
  }
  world.setup_s = Seconds(t0, Clock::now());
  world.thresholds = ScaledThresholds(world.ram->graph().num_nodes());
  *out = std::move(world);
  return true;
}

// ---- Inputs from the seed ---------------------------------------------------

struct PoolQuery {
  std::vector<std::string> keywords;
  Algorithm algorithm;
  std::vector<std::vector<NodeId>> relevant;  // generator ground truth
  SearchResult reference;  // in-RAM drained Query, before any update
};

/// Loose bound: queries end on their own, none at the node budget.
SearchOptions Options() {
  SearchOptions o;
  o.k = kTopK;
  o.bound = BoundMode::kLoose;
  o.max_nodes_explored = kNodeBudget;
  return o;
}

/// Drained in-RAM Query of every pool query, run on nproc threads.
void RunReferences(const Engine& engine, const SearchOptions& options,
                   std::vector<PoolQuery>* pool) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Nproc(); ++t) {
    threads.emplace_back([&] {
      SearchContext ctx;
      for (size_t i; (i = next.fetch_add(1)) < pool->size();) {
        PoolQuery& q = (*pool)[i];
        q.reference = engine.Query(q.keywords, q.algorithm, options, &ctx);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// The query pool: 2-keyword queries (one tiny, one small origin set)
/// from the generator's join networks, algorithms assigned by kMix.
/// Only queries that end on their own, with answers, are kept.
std::vector<PoolQuery> MakePool(World* world) {
  WorkloadGenerator gen(world->db.get(), &world->ram->data());
  WorkloadOptions wopt;
  wopt.num_queries = kPoolSize * 2;
  wopt.answer_size = 4;
  wopt.thresholds = world->thresholds;
  wopt.categories = {FreqCategory::kTiny, FreqCategory::kSmall};
  wopt.seed = kPoolSeed;
  std::vector<WorkloadQuery> generated;
  {
    Span s("datasets", "workload");
    generated = gen.Generate(wopt);
  }
  std::vector<PoolQuery> candidates;
  for (size_t i = 0; i < generated.size(); ++i) {
    PoolQuery q;
    q.keywords = generated[i].keywords;
    q.relevant = generated[i].relevant;
    q.algorithm = kMix[i % kMixPeriod];
    candidates.push_back(std::move(q));
  }
  RunReferences(*world->ram, Options(), &candidates);
  // Keep whole mix periods so the mix holds exactly.
  std::vector<PoolQuery> by_slot[kMixPeriod];
  for (size_t i = 0; i < candidates.size(); ++i) {
    PoolQuery& q = candidates[i];
    if (!q.reference.answers.empty() && !q.reference.metrics.budget_exhausted) {
      by_slot[i % kMixPeriod].push_back(std::move(q));
    }
  }
  std::vector<PoolQuery> pool;
  for (size_t i = 0; pool.size() < kPoolSize; ++i) {
    for (const auto& v : by_slot) {
      if (i >= v.size()) return pool;
    }
    for (auto& v : by_slot) pool.push_back(std::move(v[i]));
  }
  return pool;
}

/// Cyclic arrival order over the pool. Every pass visits each query
/// once, in blocks of kMixPeriod arrivals that each hold one query of
/// every mix slot (pool query i is in slot i % kMixPeriod): the seed
/// picks which query of a slot goes to which block and the order within
/// a block, but every block carries the mix, so a seed cannot bunch the
/// costly Bidirectional queries together.
class ArrivalOrder {
 public:
  ArrivalOrder(size_t pool, uint64_t seed) : rng_(seed), pool_(pool) {}
  size_t Next() {
    if (pos_ == perm_.size()) {
      const size_t blocks = pool_ / kMixPeriod;
      std::vector<std::vector<size_t>> slots(kMixPeriod);
      for (size_t i = 0; i < pool_; ++i) slots[i % kMixPeriod].push_back(i);
      for (auto& slot : slots) rng_.Shuffle(&slot);
      perm_.clear();
      for (size_t b = 0; b < blocks; ++b) {
        std::vector<size_t> block;
        for (const auto& slot : slots) block.push_back(slot[b]);
        rng_.Shuffle(&block);
        perm_.insert(perm_.end(), block.begin(), block.end());
      }
      pos_ = 0;
    }
    return perm_[pos_++];
  }

 private:
  Rng rng_;
  size_t pool_;
  std::vector<size_t> perm_;
  size_t pos_ = 0;
};

/// Seeded append-only update stream: structural batches add two paper
/// nodes with two words of text each and six edges; posting-only batches
/// append a word to two existing nodes. The words ("upd0".."upd63") are
/// ones no pool query asks for, so which nodes a seed's updates touch
/// does not change what the readers' searches find or cost; postings,
/// adjacency overlays and prestige still change with every batch.
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, size_t base_nodes)
      : rng_(seed), base_nodes_(base_nodes) {}

  UpdateBatch Next(bool structural) {
    UpdateBatch b;
    if (structural) {
      const NodeId first = static_cast<NodeId>(base_nodes_ + grown_);
      for (int i = 0; i < 2; ++i) {
        UpdateBatch::NewNode n;
        n.type = "paper";
        n.label = "live-" + std::to_string(first + static_cast<NodeId>(i));
        n.text = Word() + " " + Word();
        texts_[first + static_cast<NodeId>(i)] += " " + n.text;
        b.nodes.push_back(std::move(n));
      }
      for (int i = 0; i < 6; ++i) {
        UpdateBatch::NewEdge e;
        e.u = i < 2 ? first + static_cast<NodeId>(i) : Existing();
        e.v = Existing();
        if (e.v == e.u) e.v = static_cast<NodeId>((e.v + 1) % base_nodes_);
        e.weight = 1.0 + static_cast<double>(rng_.Below(4));
        b.edges.push_back(e);
      }
      grown_ += 2;
    } else {
      for (int i = 0; i < 2; ++i) {
        UpdateBatch::NewText t;
        t.node = Existing();
        t.text = Word();
        texts_[t.node] += " " + t.text;
        b.texts.push_back(std::move(t));
      }
    }
    return b;
  }

  const std::unordered_map<NodeId, std::string>& texts() const {
    return texts_;
  }

 private:
  NodeId Existing() {
    return static_cast<NodeId>(rng_.Below(base_nodes_ + grown_));
  }
  std::string Word() { return "upd" + std::to_string(rng_.Below(64)); }

  Rng rng_;
  size_t base_nodes_;
  size_t grown_ = 0;
  std::unordered_map<NodeId, std::string> texts_;
};

// ---- Requests and phases ----------------------------------------------------

struct Request {
  size_t query = 0;
  Clock::time_point due;
  double lag_s = 0;     // how late the generator sent it
  double first_s = -1;  // due -> first answer
  double done_s = -1;   // due -> terminal
  SubscribeStatus status = SubscribeStatus::kPending;
  std::vector<AnswerTree> answers;
  SearchMetrics metrics;
  uint64_t epoch_sent = 0, epoch_done = 0;
};

/// Sink recording one subscription's answers and timing.
class RecordingSink : public AnswerSink {
 public:
  explicit RecordingSink(Request* r) : r_(r) {}
  void OnAnswer(const AnswerTree& answer) override {
    if (r_->first_s < 0) r_->first_s = Seconds(r_->due, Clock::now());
    r_->answers.push_back(answer);
  }
  void OnComplete(SubscribeStatus status, const SearchMetrics& m) override {
    r_->done_s = Seconds(r_->due, Clock::now());
    r_->status = status;
    r_->metrics = m;
  }

 private:
  Request* r_;
};

/// Per-layer samples taken while a phase runs (traced runs only).
struct Samples {
  std::vector<double> runnable;
  uint64_t pinned_epochs_peak = 0;
  uint64_t backlog_frames_peak = 0;
};

struct Phase {
  std::string name;
  double rate = 0;
  double wall_s = 0;
  std::vector<Request> requests;
  Samples samples;
  Scheduler::Stats before, after;
  net::Server::Stats server_before, server_after;
  BufferPoolStats pool_before, pool_after;

  size_t failed() const {
    size_t n = 0;
    for (const Request& r : requests) n += r.status != SubscribeStatus::kCompleted;
    return n;
  }
  std::vector<double> Latencies() const {
    std::vector<double> v;
    for (const Request& r : requests) v.push_back(r.done_s * 1e3);
    return v;
  }
  std::vector<double> Ttfa() const {
    std::vector<double> v;
    for (const Request& r : requests) {
      if (r.first_s >= 0) v.push_back(r.first_s * 1e3);
    }
    return v;
  }
};

/// The reference passes as one phase: their requests and samples, and
/// each counter's change summed over the passes alone (the rungs run
/// between them), held in `after` with `before` left at zero.
Phase MergePasses(const std::vector<Phase>& passes) {
  Phase m;
  m.name = "reference";
  for (const Phase& p : passes) {
    m.rate = p.rate;
    m.wall_s += p.wall_s;
    m.requests.insert(m.requests.end(), p.requests.begin(), p.requests.end());
    m.samples.runnable.insert(m.samples.runnable.end(),
                              p.samples.runnable.begin(), p.samples.runnable.end());
    m.samples.pinned_epochs_peak =
        std::max(m.samples.pinned_epochs_peak, p.samples.pinned_epochs_peak);
    m.samples.backlog_frames_peak =
        std::max(m.samples.backlog_frames_peak, p.samples.backlog_frames_peak);
    m.after.quanta += p.after.quanta - p.before.quanta;
    m.after.queued += p.after.queued - p.before.queued;
    m.after.page_waits += p.after.page_waits - p.before.page_waits;
    m.server_after.frames_sent +=
        p.server_after.frames_sent - p.server_before.frames_sent;
    m.pool_after.hits += p.pool_after.hits - p.pool_before.hits;
    m.pool_after.misses += p.pool_after.misses - p.pool_before.misses;
    m.pool_after.evictions += p.pool_after.evictions - p.pool_before.evictions;
    m.pool_after.fetch_requests +=
        p.pool_after.fetch_requests - p.pool_before.fetch_requests;
  }
  return m;
}

struct Harness {
  WorkloadSpec spec;
  SearchOptions options;
  World* world = nullptr;
  std::vector<PoolQuery>* pool = nullptr;
  ArrivalOrder* order = nullptr;
  Scheduler* scheduler = nullptr;
  net::Server* server = nullptr;
  std::vector<std::unique_ptr<net::Client>>* clients = nullptr;
  bool trace = false;
  uint64_t next_request_id = 1;

  const Engine& engine() const { return world->serving(); }

  void Sample(Samples* s) const {
    if (!trace) return;
    const Scheduler::Stats st = scheduler->Snapshot();
    s->runnable.push_back(static_cast<double>(st.runnable));
    s->pinned_epochs_peak =
        std::max<uint64_t>(s->pinned_epochs_peak, st.pinned_epochs);
    if (server != nullptr) {
      s->backlog_frames_peak = std::max<uint64_t>(
          s->backlog_frames_peak, server->stats().output_backlog_frames);
    }
  }

  /// Open loop at a fixed rate: request j is due at start + j / rate and
  /// is timed from that due time, however late it was actually sent.
  Phase RunOpenLoop(const std::string& name, double rate, size_t count) {
    Phase p;
    p.name = name;
    p.rate = rate;
    p.requests.resize(count);
    for (Request& r : p.requests) r.query = order->Next();
    p.before = scheduler->Snapshot();
    if (server != nullptr) p.server_before = server->stats();
    if (world->store) p.pool_before = world->store->pool().stats();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (size_t j = 0; j < count; ++j) {
      p.requests[j].due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(j) / rate));
    }
    if (spec.live()) {
      RunWire(&p);
    } else {
      RunInProcess(&p);
    }
    p.wall_s = Seconds(start, Clock::now());
    p.after = scheduler->Snapshot();
    if (server != nullptr) p.server_after = server->stats();
    if (world->store) p.pool_after = world->store->pool().stats();
    return p;
  }

  void RunInProcess(Phase* p) {
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    std::vector<Subscription> subs;
    SubscribeOptions so;
    so.scheduler = scheduler;
    for (Request& r : p->requests) {
      std::this_thread::sleep_until(r.due);
      r.lag_s = Seconds(r.due, Clock::now());
      Sample(&p->samples);
      sinks.push_back(std::make_unique<RecordingSink>(&r));
      const PoolQuery& q = (*pool)[r.query];
      r.epoch_sent = engine().epoch();
      Span s("serve", "subscribe", next_request_id++);
      subs.push_back(engine().Subscribe(q.keywords, q.algorithm,
                                        sinks.back().get(), options, so));
    }
    for (Subscription& sub : subs) {
      Span s("serve", "wait");
      sub.Wait();
    }
  }

  void RunWire(Phase* p) {
    std::atomic<size_t> next{0};
    std::mutex sample_mu;
    const uint64_t first_id = next_request_id;
    next_request_id += p->requests.size();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients->size(); ++c) {
      threads.emplace_back([&, c] {
        net::Client& client = *(*clients)[c];
        for (size_t j; (j = next.fetch_add(1)) < p->requests.size();) {
          Request& r = p->requests[j];
          std::this_thread::sleep_until(r.due);
          r.lag_s = Seconds(r.due, Clock::now());
          if (trace) {
            std::lock_guard<std::mutex> lock(sample_mu);
            Sample(&p->samples);
          }
          const PoolQuery& q = (*pool)[r.query];
          r.epoch_sent = engine().epoch();
          Span s("net", "subscribe", first_id + j);
          net::ClientStream stream =
              client.Subscribe(q.keywords, q.algorithm, options);
          while (std::optional<AnswerTree> a = stream.Next()) {
            if (r.first_s < 0) r.first_s = Seconds(r.due, Clock::now());
            r.answers.push_back(std::move(*a));
          }
          r.done_s = Seconds(r.due, Clock::now());
          r.status = stream.status();
          r.metrics = stream.metrics();
          r.epoch_done = engine().epoch();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
};

// ---- Checks ----------------------------------------------------------------

struct Checker {
  size_t checked = 0;
  std::vector<std::string> violations;

  void Add(const std::string& where, const std::vector<Violation>& found) {
    ++checked;
    for (const Violation& v : found) {
      if (violations.size() < 20) {
        violations.push_back(where + ": " + CheckName(v.check) + ": " + v.detail);
      } else if (violations.size() == 20) {
        violations.push_back("(more violations omitted)");
      }
    }
  }
};

CheckInputs StaticInputs(const World& world) {
  CheckInputs in;
  in.graph = &world.ram->graph();
  in.data = &world.ram->data();
  in.db = world.db.get();
  in.base_nodes = world.ram->graph().num_nodes();
  in.prestige = &world.ram->prestige();
  in.lambda = SearchOptions{}.lambda;
  in.k = kTopK;
  in.tight = false;
  return in;
}

// ---- Output ----------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", items[i].second.first);
      out += "\"" + items[i].first + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

/// Capacity from the ladder: the highest passing rung, interpolated
/// toward the first failing one by where the limit falls between their
/// p95 latencies. A rung passes when its p95 meets the limit and the
/// backlog did not grow (the last third of its requests has a median
/// sojourn within the limit too).
struct Rung {
  double rate;
  double p95_ms;
  bool pass;
};

double CapacityFrom(const std::vector<Rung>& rungs, double limit_ms) {
  if (rungs.empty()) return 0;
  if (!rungs.front().pass) {
    return rungs.front().rate * std::min(1.0, limit_ms / rungs.front().p95_ms);
  }
  for (size_t i = 1; i < rungs.size(); ++i) {
    if (rungs[i].pass) continue;
    const Rung& ok = rungs[i - 1];
    const double fail_p95 = std::max(rungs[i].p95_ms, limit_ms);
    const double frac =
        fail_p95 > ok.p95_ms ? (limit_ms - ok.p95_ms) / (fail_p95 - ok.p95_ms) : 0;
    return ok.rate + (rungs[i].rate - ok.rate) * std::clamp(frac, 0.0, 1.0);
  }
  return rungs.back().rate;
}

bool RungPasses(const Phase& p, double limit_ms) {
  const std::vector<double> lat = p.Latencies();
  if (p.failed() > 0 || Quantile(lat, 0.95) > limit_ms) return false;
  std::vector<double> tail(lat.begin() + static_cast<long>(lat.size() * 2 / 3),
                           lat.end());
  return Median(tail) <= limit_ms;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string scratch = ".";
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload live-wire|"
               "paged --seed N --seconds S --trace 0|1 [--scratch DIR]\n",
               msg);
  return 2;
}

int Run(const Args& args) {
  const auto process_start = Clock::now();
  std::optional<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found) return Usage("unknown workload");
  const WorkloadSpec& w = *found;
  EnableTracing(args.trace);
  const std::string store_path =
      args.scratch + "/store-" + w.name + "-" + std::to_string(getpid()) + ".banks";

  // Set-up, several times; the last one is kept.
  World world;
  std::vector<double> setup_s, generate_s, build_s, pagerank_s, save_s, open_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    world = World{};
    if (!SetupOnce(w, store_path, &world)) return 1;
    setup_s.push_back(world.setup_s);
    generate_s.push_back(world.generate_s);
    build_s.push_back(world.build_s);
    pagerank_s.push_back(world.pagerank_s);
    save_s.push_back(world.save_s);
    open_s.push_back(world.open_s);
  }
  std::remove(store_path.c_str());  // the open store keeps its descriptor
  const double setup_wall_s = Seconds(process_start, Clock::now());

  const SearchOptions options = Options();
  std::vector<PoolQuery> pool = MakePool(&world);
  if (pool.size() != kPoolSize) {
    std::fprintf(stderr, "query pool too small (%zu)\n", pool.size());
    return 1;
  }
  ArrivalOrder order(pool.size(), args.seed * 7919 + 3);

  // Reference answers: property checks, and the self-test of every check
  // on the first reference list that has two or more distinct scores.
  Checker checker;
  const CheckInputs static_in = StaticInputs(world);
  bool self_tested = false;
  for (size_t i = 0; i < pool.size(); ++i) {
    Span s("check", "answers");
    checker.Add("reference " + std::to_string(i),
                CheckAnswers(static_in, pool[i].keywords, pool[i].reference.answers));
    if (!self_tested && pool[i].reference.answers.size() >= 2 &&
        pool[i].reference.answers.front().score >
            pool[i].reference.answers.back().score) {
      for (const std::string& m :
           SelfTest(static_in, pool[i].keywords, pool[i].reference.answers)) {
        checker.violations.push_back("self-test: " + m);
      }
      self_tested = true;
    }
  }
  if (!self_tested) checker.violations.push_back("self-test: no usable answers");

  // Both workloads use the loose bound. Three SI/MI pool queries also run
  // drained under the tight bound, so the order check sees real answers.
  {
    SearchOptions tight = options;
    tight.bound = BoundMode::kTight;
    CheckInputs tight_in = static_in;
    tight_in.tight = true;
    size_t probes = 0;
    for (size_t i = 0; i < pool.size() && probes < 3; ++i) {
      if (pool[i].algorithm == Algorithm::kBidirectional) continue;
      SearchResult r = world.ram->Query(pool[i].keywords, pool[i].algorithm, tight);
      Span s("check", "answers");
      checker.Add("tight probe " + std::to_string(i),
                  CheckAnswers(tight_in, pool[i].keywords, r.answers));
      ++probes;
    }
  }

  SearchContextPool contexts;
  SchedulerOptions sched_opts;
  sched_opts.num_workers = WorkersFor();
  // Four run slots per worker: short queries time-share the workers with
  // long ones instead of queueing behind them, while the number of
  // leased search contexts (and so memory) stays bounded.
  sched_opts.max_running = 4 * sched_opts.num_workers;
  sched_opts.max_queued = 4096;  // > highest rung x its arrivals: never refuses
  sched_opts.context_pool = &contexts;
  Scheduler scheduler(sched_opts);

  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  if (w.live()) {
    net::ServerOptions so;
    so.scheduler = &scheduler;
    server = std::make_unique<net::Server>(&world.serving(), so);
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 1;
    }
    for (size_t c = 0; c < kWireConnections; ++c) {
      std::unique_ptr<net::Client> client =
          net::Client::Connect("127.0.0.1", server->port(), {}, &error);
      if (!client) {
        std::fprintf(stderr, "client connect failed: %s\n", error.c_str());
        return 1;
      }
      clients.push_back(std::move(client));
    }
  }

  Harness h;
  h.spec = w;
  h.options = options;
  h.world = &world;
  h.pool = &pool;
  h.order = &order;
  h.scheduler = &scheduler;
  h.server = server.get();
  h.clients = &clients;
  h.trace = args.trace;

  Metrics layer;  // per-layer metrics (traced run)

  // Traced run, before any load: drained service per query on a warm
  // context (one client), first answers, closed-loop Subscribe.
  std::vector<double> service_ms(pool.size(), 0);
  std::vector<double> closed_ms(pool.size(), -1);
  if (args.trace) {
    SearchContext warm;
    std::map<Algorithm, std::vector<double>> svc;
    std::vector<double> resolve_us, origins, first_ms;
    double explored = 0, edges = 0, steps = 0, generated = 0, output = 0,
           service_s = 0, capped = 0, relevant = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const PoolQuery& q = pool[i];
      std::vector<std::vector<NodeId>> org;
      {
        Span s("text", "resolve", i);
        const auto t0 = Clock::now();
        org = world.serving().Resolve(q.keywords);
        resolve_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      }
      double n = 0;
      for (const auto& o : org) n += static_cast<double>(o.size());
      origins.push_back(n);
      SearchResult r;
      {
        Span s("search", "query_resolved", i);
        const auto t0 = Clock::now();
        r = world.serving().QueryResolved(org, q.algorithm, options, &warm);
        service_ms[i] = Seconds(t0, Clock::now()) * 1e3;
      }
      svc[q.algorithm].push_back(service_ms[i]);
      service_s += service_ms[i] / 1e3;
      explored += static_cast<double>(r.metrics.nodes_explored);
      edges += static_cast<double>(r.metrics.edges_relaxed);
      steps += static_cast<double>(r.metrics.propagation_steps);
      generated += static_cast<double>(r.metrics.answers_generated);
      output += static_cast<double>(r.metrics.answers_output);
      capped += r.metrics.budget_exhausted ? 1 : 0;
      for (const AnswerTree& t : r.answers) {
        relevant += std::find(q.relevant.begin(), q.relevant.end(), t.Nodes()) !=
                            q.relevant.end()
                        ? 1
                        : 0;
      }
      checker.Add("service probe " + std::to_string(i),
                  CheckIdentical(q.reference.answers, r.answers));
    }
    const size_t probe = std::min<size_t>(pool.size(), 12);
    for (size_t i = 0; i < probe; ++i) {
      const PoolQuery& q = pool[i];
      std::vector<std::vector<NodeId>> org = world.serving().Resolve(q.keywords);
      Span s("search", "first_answer", i);
      const auto t0 = Clock::now();
      AnswerStream stream = world.serving().OpenQueryResolved(
          std::move(org), q.algorithm, options, {}, &warm);
      (void)stream.Next();
      first_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    std::vector<double> overhead;
    for (size_t i = 0; i < probe; ++i) {
      const PoolQuery& q = pool[i];
      Request r;
      r.due = Clock::now();
      RecordingSink sink(&r);
      SubscribeOptions so;
      so.scheduler = &scheduler;
      Span s("serve", "closed_loop", i);
      Subscription sub =
          world.serving().Subscribe(q.keywords, q.algorithm, &sink, options, so);
      sub.Wait();
      closed_ms[i] = r.done_s * 1e3;
      overhead.push_back(closed_ms[i] - service_ms[i]);
    }
    std::vector<double> hop;
    if (w.live()) {
      for (size_t i = 0; i < probe; ++i) {
        const PoolQuery& q = pool[i];
        Span s("net", "closed_loop", i);
        const auto t0 = Clock::now();
        net::NetResult nr = clients[0]->Query(q.keywords, q.algorithm, options);
        checker.Add("wire probe " + std::to_string(i),
                    CheckIdentical(q.reference.answers, nr.answers));
        hop.push_back(Seconds(t0, Clock::now()) * 1e3 - closed_ms[i]);
      }
    }
    const double nq = static_cast<double>(pool.size());
    layer.Put("text.resolve_us_p50", Median(resolve_us), "us");
    layer.Put("text.origins_per_query", Mean(origins), "count");
    layer.Put("search.service_ms_p50.bidirectional",
              Median(svc[Algorithm::kBidirectional]), "ms");
    layer.Put("search.service_ms_p50.si", Median(svc[Algorithm::kBackwardSI]), "ms");
    layer.Put("search.service_ms_p50.mi", Median(svc[Algorithm::kBackwardMI]), "ms");
    layer.Put("search.first_answer_ms_p50", Median(first_ms), "ms");
    layer.Put("search.nodes_explored_per_query", explored / nq, "count");
    layer.Put("search.edges_relaxed_per_query", edges / nq, "count");
    layer.Put("search.propagation_steps_per_query", steps / nq, "count");
    layer.Put("search.us_per_explored_node",
              explored > 0 ? service_s * 1e6 / explored : 0, "us");
    layer.Put("search.answers_generated_per_output",
              output > 0 ? generated / output : 0, "ratio");
    layer.Put("search.budget_capped_queries", capped, "count");
    layer.Put("search.relevant_found_per_query", relevant / nq, "count");
    layer.Put("serve.overhead_ms_p50", Median(overhead), "ms");
    layer.Put("net.hop_ms_p50", Median(hop), "ms");
  }

  // Live writer: a fixed-rate seeded stream of structural and
  // posting-only batches, running through the measured phases.
  UpdateStream updates(args.seed * 31 + 7, world.ram->graph().num_nodes());
  std::vector<double> structural_ms;
  size_t updates_applied = 0;
  std::atomic<bool> writer_stop{false};
  std::thread writer;
  if (w.live()) {
    writer = std::thread([&] {
      const auto start = Clock::now();
      for (size_t b = 0; !writer_stop.load(); ++b) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(b) /
                                         kWriterBatchesPerSecond));
        while (Clock::now() < due && !writer_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (writer_stop.load()) break;
        const bool structural = b % 2 == 0;
        UpdateBatch batch = updates.Next(structural);
        Span s("banks", "apply_update", b);
        const auto t0 = Clock::now();
        world.ram->ApplyUpdate(batch);
        if (structural) structural_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
        ++updates_applied;
      }
    });
  }

  // An unmeasured warm-up pass over the pool through the serving path
  // first: a search context's first queries touch freshly allocated
  // memory, which made first sends up to twice as slow as later ones.
  Phase warm = h.RunOpenLoop("warm-up", kWarmUpQps, pool.size());
  // Measured phases: reference passes, the capacity ladder, then the
  // closed-loop batch phase; each gets its share of --seconds.
  const double ref_seconds = args.seconds * kRefShare;
  // Whole passes over the pool, so each query is sent equally often. Half
  // run before the ladder and the rest after its rungs, one per rung, so
  // the passes sample the whole run, not one stretch of it: the host's
  // speed moves over seconds, and a slow stretch then holds a few passes
  // instead of all of them.
  const size_t passes = std::max<long>(
      1, std::lround(kRefQps * ref_seconds / static_cast<double>(pool.size())));
  std::vector<Phase> ref_passes;
  auto run_reference_pass = [&] {
    ref_passes.push_back(h.RunOpenLoop(
        "ref-" + std::to_string(ref_passes.size() + 1), kRefQps, pool.size()));
  };
  while (ref_passes.size() < (passes + 1) / 2) run_reference_pass();
  // Capacity: a binary search over the fixed ladder, so every run tests
  // the same number of rungs (log2 of the ladder length), whatever the
  // program's speed.
  std::vector<Phase> rungs;
  std::vector<Rung> ladder;
  for (size_t lo = 0, hi = w.ladder.size(); lo < hi;) {
    const size_t mid = (lo + hi) / 2;
    const double rate = w.ladder[mid];
    const size_t rung_passes = std::max<size_t>(
        kMinRungPasses,
        static_cast<size_t>(std::lround(rate * kRungShare * args.seconds /
                                        static_cast<double>(pool.size()))));
    Phase p = h.RunOpenLoop("rung-" + std::to_string(rate).substr(0, 4), rate,
                            rung_passes * pool.size());
    const bool pass = RungPasses(p, kLimitMs);
    ladder.push_back({rate, Quantile(p.Latencies(), 0.95), pass});
    rungs.push_back(std::move(p));
    if (ref_passes.size() < passes) run_reference_pass();
    if (pass) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::sort(ladder.begin(), ladder.end(),
            [](const Rung& x, const Rung& y) { return x.rate < y.rate; });
  while (ref_passes.size() < passes) run_reference_pass();
  writer_stop.store(true);
  if (writer.joinable()) writer.join();

  // Live graphs are checked on their final snapshot, which holds every
  // node, edge and posting any earlier snapshot had.
  CheckInputs live_in = static_in;
  if (w.live()) {
    live_in.graph = &world.ram->graph();
    live_in.data = &world.ram->data();
    live_in.update_text = &updates.texts();
    live_in.prestige = nullptr;
  }
  // One batch round: a QueryBatch call per algorithm over its pool
  // queries. Only the QueryBatch calls are timed; the answers are checked
  // after the clock stops. Returns the round's query seconds.
  auto run_batch_round = [&](size_t threads) {
    double seconds = 0;
    for (Algorithm algorithm : kAlgorithms) {
      std::vector<BatchQuerySpec> specs;
      std::vector<size_t> index;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].algorithm != algorithm) continue;
        specs.push_back(BatchQuerySpec{pool[i].keywords, {}});
        index.push_back(i);
      }
      BatchOptions bo;
      bo.num_threads = threads;
      bo.pool = &contexts;
      BatchResult br;
      {
        Span s("banks", "query_batch");
        const auto t0 = Clock::now();
        br = world.serving().QueryBatch(specs, algorithm, options, bo);
        seconds += Seconds(t0, Clock::now());
      }
      for (size_t j = 0; j < br.results.size(); ++j) {
        Span s("check", "answers");
        const PoolQuery& q = pool[index[j]];
        checker.Add("batch " + std::to_string(index[j]),
                    w.live() ? CheckAnswers(live_in, q.keywords, br.results[j].answers)
                             : CheckIdentical(q.reference.answers, br.results[j].answers));
      }
    }
    return seconds;
  };
  // Rounds until their query time reaches kBatchShare of --seconds;
  // batch_qps is the median of the per-round rates.
  std::vector<double> batch_rates;
  size_t batch_queries = 0;
  for (double spent = 0; spent < args.seconds * kBatchShare;) {
    const double round_s = run_batch_round(Nproc());
    spent += round_s;
    batch_rates.push_back(static_cast<double>(pool.size()) / round_s);
    batch_queries += pool.size();
  }

  // Answer checks of every measured request.
  size_t attempted = 0, failed = 0;
  std::vector<Phase*> phases{&warm};
  for (Phase& p : ref_passes) phases.push_back(&p);
  for (Phase& p : rungs) phases.push_back(&p);
  for (Phase* p : phases) {
    attempted += p->requests.size();
    failed += p->failed();
    for (size_t j = 0; j < p->requests.size(); ++j) {
      const Request& r = p->requests[j];
      if (r.status != SubscribeStatus::kCompleted) continue;
      const PoolQuery& q = pool[r.query];
      const std::string where = p->name + " request " + std::to_string(j);
      Span s("check", "answers");
      if (w.live()) {
        checker.Add(where, CheckAnswers(live_in, q.keywords, r.answers));
      } else {
        checker.Add(where, CheckIdentical(q.reference.answers, r.answers));
      }
    }
    std::printf("phase %-10s rate %6.1f qps: attempted %zu failed %zu "
                "p50 %.1f ms p95 %.1f ms ttfa p50 %.2f ms, %.2f s\n",
                p->name.c_str(), p->rate, p->requests.size(), p->failed(),
                Median(p->Latencies()), Quantile(p->Latencies(), 0.95),
                Median(p->Ttfa()), p->wall_s);
  }
  attempted += batch_queries;
  std::printf("phase %-10s %zu threads: attempted %zu failed 0, %zu rounds\n",
              "batch", Nproc(), batch_queries, batch_rates.size());

  const Phase ref = MergePasses(ref_passes);
  const std::vector<double> ref_lat = ref.Latencies();
  // The p95 of each reference pass, and their median: a slow stretch of
  // the host moves the passes it falls on, not the figure.
  std::vector<double> pass_p95;
  for (const Phase& p : ref_passes) pass_p95.push_back(Quantile(p.Latencies(), 0.95));
  std::printf("phase %-10s rate %6.1f qps: attempted %zu p50 %.1f ms p95 %.1f ms, "
              "median pass p95 %.1f ms over %zu passes\n",
              ref.name.c_str(), ref.rate, ref.requests.size(), Median(ref_lat),
              Quantile(ref_lat, 0.95), Median(pass_p95), ref_passes.size());

  Metrics e2e;
  e2e.Put("setup_s", Median(setup_s), "s");
  e2e.Put("latency_p95_ms", Median(pass_p95), "ms");
  e2e.Put("capacity_qps", CapacityFrom(ladder, kLimitMs), "qps");
  e2e.Put("batch_qps", Median(batch_rates), "qps");

  if (args.trace) {
    // Per-layer numbers from the reference phase.
    std::vector<double> wait, epoch_lag;
    for (const Request& r : ref.requests) {
      wait.push_back(r.done_s * 1e3 - service_ms[r.query]);
      if (r.epoch_done >= r.epoch_sent) {  // recorded on wire requests
        epoch_lag.push_back(static_cast<double>(r.epoch_done - r.epoch_sent));
      }
    }
    const double nref = static_cast<double>(ref.requests.size());
    const double quanta = static_cast<double>(ref.after.quanta - ref.before.quanta);
    layer.Put("serve.wait_ms_p50", Median(wait), "ms");
    layer.Put("serve.wait_ms_p95", Quantile(wait, 0.95), "ms");
    layer.Put("serve.quanta_per_query", quanta / nref, "count");
    layer.Put("serve.admission_queued",
              static_cast<double>(ref.after.queued - ref.before.queued), "count");
    layer.Put("serve.runnable_mean", Mean(ref.samples.runnable), "count");
    layer.Put("serve.page_waits_per_query",
              static_cast<double>(ref.after.page_waits - ref.before.page_waits) / nref,
              "count");
    layer.Put("serve.pinned_epochs_peak",
              static_cast<double>(ref.samples.pinned_epochs_peak), "count");
    std::vector<double> ref_lag;
    for (const Request& r : ref.requests) ref_lag.push_back(r.lag_s * 1e3);
    layer.Put("loadgen.lag_ms_p95", Quantile(ref_lag, 0.95), "ms");
    layer.Put("net.frames_per_query",
              static_cast<double>(ref.server_after.frames_sent -
                                  ref.server_before.frames_sent) / nref,
              "count");
    layer.Put("net.backlog_frames_peak",
              static_cast<double>(ref.samples.backlog_frames_peak), "count");
    const BufferPoolStats& b0 = ref.pool_before;
    const BufferPoolStats& b1 = ref.pool_after;
    const double hits = static_cast<double>(b1.hits - b0.hits);
    const double misses = static_cast<double>(b1.misses - b0.misses);
    layer.Put("storage.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
              "ratio");
    layer.Put("storage.misses_per_query", misses / nref, "count");
    layer.Put("storage.evictions_per_query",
              static_cast<double>(b1.evictions - b0.evictions) / nref, "count");
    layer.Put("storage.fetches_per_query",
              static_cast<double>(b1.fetch_requests - b0.fetch_requests) / nref,
              "count");
    layer.Put("datasets.generate_s", Median(generate_s), "s");
    layer.Put("relational.graph_build_s", Median(build_s), "s");
    layer.Put("prestige.pagerank_s", Median(pagerank_s), "s");
    layer.Put("storage.save_s", Median(save_s), "s");
    layer.Put("storage.open_s", Median(open_s), "s");

    const double one_s = run_batch_round(1);
    layer.Put("banks.batch_speedup", one_s / run_batch_round(Nproc()), "ratio");
    std::vector<double> rerun_ms;
    double trend = 0;
    if (w.live()) {
      for (int i = 0; i < 3; ++i) {
        Span s("prestige", "rerun");
        const auto t0 = Clock::now();
        std::vector<double> pr = ComputePrestige(world.ram->graph());
        rerun_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      }
      const size_t quarter = std::max<size_t>(1, structural_ms.size() / 4);
      if (structural_ms.size() >= 2) {
        std::vector<double> head(structural_ms.begin(),
                                 structural_ms.begin() + static_cast<long>(quarter));
        std::vector<double> tail(structural_ms.end() - static_cast<long>(quarter),
                                 structural_ms.end());
        trend = Median(tail) / Median(head);
      }
    }
    layer.Put("prestige.rerun_ms_p50", Median(rerun_ms), "ms");
    layer.Put("banks.epoch_lag_p50", Median(epoch_lag), "count");
    layer.Put("banks.update_ms_trend", trend, "ratio");
    layer.Put("traced.latency_p50_ms", Median(ref_lat), "ms");
    layer.Put("traced.latency_p95_ms", Median(pass_p95), "ms");
    layer.Put("traced.ttfa_p50_ms", Median(ref.Ttfa()), "ms");

    const std::map<std::string, double> self = SelfSecondsByLayer();
    // The graph layer is reached only inside search and banks calls;
    // the benchmark's own answer checks are "check" spans, left out here.
    for (const char* name : {"datasets", "relational", "prestige", "text",
                             "search", "serve", "storage", "net", "banks"}) {
      auto it = self.find(name);
      layer.Put(std::string("self_s.") + name, it == self.end() ? 0 : it->second, "s");
    }
    const std::string spans_path = args.scratch + "/spans-" + w.name + "-" +
                                   std::to_string(args.seed) + ".jsonl";
    if (!WriteSpans(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    } else {
      std::printf("%zu spans written to %s\n", SpanCount(), spans_path.c_str());
    }
  }

  // Without a writer, updates are applied last to the paged engine, once
  // nothing reads its first snapshot any more: the overlays and the
  // PageRank rerun read the base through the buffer pool.
  if (!w.live()) {
    for (size_t b = 0; b < 2 * kStaticStructuralUpdates; ++b) {
      const bool structural = b % 2 == 0;
      UpdateBatch batch_update = updates.Next(structural);
      Span s("banks", "apply_update", b);
      const auto t0 = Clock::now();
      world.paged->ApplyUpdate(batch_update);
      if (structural) structural_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      ++updates_applied;
    }
  }
  attempted += updates_applied;
  std::printf("phase %-10s %.1f batches/s: attempted %zu failed 0\n",
              "updates", w.live() ? kWriterBatchesPerSecond : 0.0,
              updates_applied);
  e2e.Put("update_p50_ms", Median(structural_ms), "ms");
  e2e.Put("peak_rss_mb", PeakRssMb(), "MB");

  if (server) server->Shutdown(5.0);
  clients.clear();

  for (const std::string& v : checker.violations) {
    std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
  }
  const bool correct = checker.violations.empty();
  std::printf("workload %s seed %llu: %zu answer lists checked, %zu violations; "
              "set-up wall %.2f s, run wall %.2f s; %zu scheduler workers, "
              "nproc %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              checker.checked, checker.violations.size(), setup_wall_s,
              Seconds(process_start, Clock::now()), WorkersFor(), Nproc());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              (args.trace ? layer : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return perfbench::Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return perfbench::Usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return perfbench::Usage("bad --trace");
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return perfbench::Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return perfbench::Usage("arguments come in pairs");
  if (args.workload.empty()) return perfbench::Usage("--workload is required");
  return perfbench::Run(args);
}
