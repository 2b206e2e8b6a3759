// perfbench: the repository's TATP benchmark on the partitioned engine.
//
//   perfbench --workload <tatp-1m|tatp-wire|tatp-shift> --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// One process loads the TATP tables (seeded), starts the engine (and, for
// tatp-wire, the server and a loopback client), drives a closed loop for
// S seconds of steady windows, checks the drained tables against a shadow
// state computed apart from the engine, times Repartition calls on fixed
// targets, and finally recovers the durable log into freshly loaded
// tables and checks those too. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The traced run times every call into the layers from here
// (no tracing inside src/), keeps spans in memory and writes them to
// DIR/spans-<workload>.tsv at the end. See perfbench/README.md.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/repartitioner.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "host.h"
#include "log/recovery.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;
using perfbench::Outcome;
using perfbench::TxnRequest;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kProcessStart)
          .count());
}
double Secs(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---- workload definitions ---------------------------------------------------

struct Workload {
  const char* name;
  uint64_t subscribers;
  engine::DurabilityMode durability;
  bool wire;   ///< through server::Server and server::Client
  bool shift;  ///< update-only hot-spot load, Repartition under load
  /// Repartition calls on the idle engine after the steady phase (a
  /// boundary move and back, repeated); tatp-shift times its own.
  int epilogue_moves;
};

constexpr Workload kWorkloads[] = {
    {"tatp-1m", 1'000'000, engine::DurabilityMode::kGroup, false, false, 2},
    {"tatp-wire", 50'000, engine::DurabilityMode::kAsync, true, false, 20},
    {"tatp-shift", 200'000, engine::DurabilityMode::kGroup, false, true, 0},
};

constexpr int kCores = 2;              ///< engine cores: 4 tables x 2 partitions
constexpr size_t kWave = 32;           ///< transactions per wave / TXN_BATCH
constexpr size_t kDepth = 32;          ///< in process: waves go out below this
constexpr int kConnections = 2;        ///< wire connections (one client thread)
constexpr size_t kConnInflight = 64;   ///< wire: two frames per connection
constexpr uint32_t kConnWindow = 96;   ///< granted window: 32 slots headroom
constexpr int kShiftRepartitions = 4;  ///< even->hot->even->hot->even
constexpr double kWarmupS = 1.0;
constexpr double kSubWindowS = 0.5;   ///< end-to-end metrics: median over these
constexpr double kEvenSplit = 0.5;
constexpr double kHotSplit = 0.08;    ///< balances 60% on the first 10% of ids
constexpr double kEpilogueSplit = 0.45;
constexpr double kHotShare = 0.6;
constexpr int kHelperCpu = 2;  ///< main thread, log flushers, server I/O
constexpr int kClientCpu = 3;  ///< the load thread (engine workers: 0-1)
constexpr size_t kReadSample = 200'000;
constexpr int kRecoveries = 5;         ///< recovery_s: the best of these
constexpr double kRecoveryRecords = 1e6;  ///< recovery_s: per this many records
/// peak_rss_mb is read when this many transactions have been acknowledged:
/// the in-memory log grows with every transaction, so a figure read at the
/// end of the run would follow how many the run completed.
constexpr uint64_t kRssAtAcks = 1'000'000;
constexpr size_t kRing = 256;          ///< in-flight slots (> max in flight)

constexpr uint64_t kKeyFactor[4] = {1, 4, 4, 32};  ///< key space per table

/// 2 partitions per table, the boundary at `split` of the subscriber ids,
/// partition p on core p.
core::Scheme SchemeAt(uint64_t subscribers, double split) {
  core::Scheme s;
  auto b = static_cast<uint64_t>(static_cast<double>(subscribers) * split);
  for (uint64_t f : kKeyFactor) {
    core::TableScheme ts;
    ts.boundaries = {0, b * f};
    ts.placement = {0, 1};
    s.tables.push_back(ts);
  }
  return s;
}

/// tatp-shift: UpdateLocation 70%, UpdateSubscriberData, Insert- and
/// DeleteCallForwarding 10% each (the standard mix's update classes at
/// their relative weights); 60% of transactions on the first 10% of ids.
/// Arguments are drawn as server::DrawTatpMix draws them.
TxnRequest DrawShift(Rng& rng, uint64_t subscribers) {
  TxnRequest r;
  r.s_id = rng.Chance(kHotShare) ? rng.Uniform(subscribers / 10)
                                 : rng.Uniform(subscribers);
  r.sf_type = static_cast<uint8_t>(rng.Uniform(4));
  uint64_t d = rng.Uniform(20);
  if (d < 14) {
    r.txn_class = workload::kUpdLocation;
    r.a = static_cast<int64_t>(rng.Next() % (1ULL << 31));
  } else if (d < 16) {
    r.txn_class = workload::kUpdSubData;
    r.a = static_cast<int64_t>(rng.Uniform(2));
    r.b = static_cast<int64_t>(rng.Uniform(256));
  } else if (d < 18) {
    r.txn_class = workload::kInsCallFwd;
    r.start_time = static_cast<uint32_t>(rng.Uniform(4) * 8);
    r.end_time = static_cast<uint32_t>(rng.Uniform(24) + 8);
    r.numberx = "555-0199";
  } else {
    r.txn_class = workload::kDelCallFwd;
    r.start_time = static_cast<uint32_t>(rng.Uniform(4) * 8);
  }
  return r;
}

// ---- measurement plumbing ---------------------------------------------------

/// Time spent in calls to one layer function (traced runs only).
struct CallTimer {
  uint64_t calls = 0;
  uint64_t ns = 0;
  double MeanUs() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) / 1e3
                 : 0.0;
  }
};

/// Spans recorded around the benchmark's calls into the layers, kept in
/// memory and written out at the end. A span's parent is the round (one
/// wave out, its completions in) or the phase that contains it.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const { return on_; }
  uint32_t Add(const char* name, uint32_t parent, uint64_t t0, uint64_t t1) {
    if (!on_) return 0;
    spans_.push_back({name, parent, t0, t1});
    return static_cast<uint32_t>(spans_.size());
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i)
      std::fprintf(f, "%zu\t%u\t%s\t%llu\t%llu\n", i + 1, spans_[i].parent,
                   spans_[i].name,
                   static_cast<unsigned long long>(spans_[i].t0),
                   static_cast<unsigned long long>(spans_[i].t1));
    return std::fclose(f) == 0;
  }
 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t t0, t1;
  };
  bool on_;
  std::vector<Span> spans_;
};

/// Latencies of the transactions acknowledged in one steady sub-window:
/// log-linear buckets, 32 per power of two (about 3% wide), so the
/// benchmark's own memory does not grow with the number of transactions
/// and peak_rss_mb stays the engine's.
class LatencyHist {
 public:
  void Add(uint64_t ns) {
    ++buckets_[Index(std::min<uint64_t>(ns, kMaxNs))];
    ++count_;
  }
  uint64_t count() const { return count_; }
  /// Quantile q in microseconds, interpolated inside its bucket.
  double QuantileUs(double q) const {
    if (count_ == 0) return 0;
    auto target = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (target >= count_) target = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] > target) {
        double lo = static_cast<double>(Lo(i));
        double hi = static_cast<double>(Lo(i + 1));
        return (lo + (hi - lo) * static_cast<double>(target - seen) /
                         static_cast<double>(buckets_[i])) / 1e3;
      }
      seen += buckets_[i];
    }
    return 0;
  }

 private:
  static constexpr uint64_t kMaxNs = (uint64_t{1} << 40) - 1;
  static constexpr size_t kBuckets = 64 + (40 - 6) * 32;
  // Values below 64 ns get a bucket each; above, the top 6 bits select one
  // of 32 buckets in the value's power of two.
  static size_t Index(uint64_t v) {
    if (v < 64) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(v);
    return 64 + static_cast<size_t>(e - 6) * 32 +
           static_cast<size_t>((v >> (e - 5)) - 32);
  }
  static uint64_t Lo(size_t i) {
    if (i < 64) return i;
    size_t k = i - 64;
    return (32 + k % 32) << (k / 32 + 1);
  }
  std::array<uint32_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

/// A transaction from submission to acknowledgement.
struct Slot {
  TxnRequest req;
  uint64_t seq = 0;
  uint64_t t_submit_ns = 0;
  uint64_t t_done_ns = 0;  ///< written by the completion callback
};

/// Quantile of the observations a log-bucketed histogram gained between
/// two snapshots (Histogram::Quantile's in-bucket interpolation).
double DeltaQuantile(const obs::Histogram& a, const obs::Histogram& b,
                     double q) {
  uint64_t total = b.count() - a.count();
  if (total == 0) return 0;
  auto target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target >= total) target = total - 1;
  uint64_t seen = 0;
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    uint64_t n = b.bucket(i) - a.bucket(i);
    if (seen + n > target) {
      double lo = static_cast<double>(obs::BucketLo(i));
      double hi = static_cast<double>(obs::BucketHi(i));
      return lo + (hi - lo) * static_cast<double>(target - seen) /
                      static_cast<double>(n);
    }
    seen += n;
  }
  return 0;
}
double DeltaMean(const obs::Histogram& a, const obs::Histogram& b) {
  uint64_t n = b.count() - a.count();
  if (n == 0) return 0;
  return (b.mean() * static_cast<double>(b.count()) -
          a.mean() * static_cast<double>(a.count())) /
         static_cast<double>(n);
}

/// Counters read at both ends of a steady window.
struct Probe {
  uint64_t t_ns = 0;
  double process_cpu_s = 0;
  double engine_cpu_s = 0;
  double server_cpu_s = 0;
  uint64_t executed = 0;
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  obs::StatsSnapshot snap;
};

/// Sums over the steady windows of one run.
struct WindowTotals {
  double secs = 0;
  double process_cpu_s = 0;
  double engine_cpu_s = 0;
  double server_cpu_s = 0;
  uint64_t executed = 0;
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t log_flushes = 0;
  uint64_t frames_in = 0;
  // Histogram deltas, weighted by observation counts across windows.
  double drain_batch_sum = 0, drain_batch_n = 0;
  double action_us_sum = 0, action_us_n = 0;
  std::vector<double> flush_p50, side_p50;  ///< per sub-window
  /// The sub-windows the end-to-end metrics are medians over.
  struct Sub {
    uint64_t t0, t1;  ///< [t0, t1) ns since process start
    double process_cpu_s;
    uint64_t log_bytes;
  };
  std::vector<Sub> subs;
};

/// Quantile q of v, linear between the order statistics around it.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- the run ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

class Bench {
 public:
  Bench(const Workload& w, const Args& a)
      : w_(w), a_(a), tracer_(a.trace), graphs_(w.subscribers) {}

  int Run();

 private:
  using Tables = std::vector<storage::Table*>;

  void Setup();
  void ClientLoop();
  void InProcessLoop();
  void WireLoop();
  /// Records one acknowledged transaction (client thread).
  void Acknowledge(Slot& s, Outcome o);
  Probe Read();
  void Accumulate(const Probe& a, const Probe& b);
  /// One Repartition with its checks and layer counts.
  void TimedRepartition(const core::Scheme& target);
  uint64_t RowsInMovedRange(double from_split, double to_split);
  void Recover();
  Tables LiveTables();
  /// Row counts of Subscriber, AccessInfo and SpecialFacility: the tables
  /// no transaction resizes, so they can be read while the load runs.
  std::vector<uint64_t> StaticRowCounts();
  void Emit();

  const Workload& w_;
  Args a_;
  perfbench::Verdict verdict_;
  Tracer tracer_;
  /// Started first, so no spinner counts as an engine or server thread.
  std::unique_ptr<perfbench::IdleSpinners> spinners_;
  workload::TatpActionGraphs graphs_;

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::PartitionedExecutor> exec_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<server::Client> client_;
  std::vector<int> engine_tids_, server_tids_;
  std::vector<uint64_t> load_rows_;
  std::unique_ptr<perfbench::Shadow> shadow_;

  // Client-thread state (read by the main thread only after join).
  std::atomic<bool> stop_{false};
  perfbench::Verdict client_verdict_;
  /// One per steady sub-window, allocated before the client starts;
  /// cur_sub_ is the sub-window acknowledgements go to (-1: none).
  std::vector<LatencyHist> hists_;
  std::atomic<int> cur_sub_{-1};
  perfbench::ClientTotals totals_;
  uint64_t attempted_ = 0, failed_ = 0, acks_ = 0;
  double rss_at_acks_mb_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Slot> slots_ = std::vector<Slot>(kRing);
  CallTimer t_submit_, t_wait_, t_client_submit_, t_client_poll_;

  // Main-thread measurements.
  double setup_s_ = 0, load_s_ = 0, engine_start_s_ = 0;
  double peak_rss_mb_ = 0;
  WindowTotals win_;
  std::vector<double> pause_ms_;
  std::vector<double> plan_actions_, rows_moved_, migrated_mb_;
  double recovery_s_ = 0, recover_records_per_s_ = 0, read_ns_ = 0;
  std::vector<double> recovery_secs_;
  /// Per sub-window figures, written to the result file.
  std::vector<double> tps_w_, p50_w_, p99_w_, cpu_w_;
  obs::StatsSnapshot final_snap_;
};

Bench::Tables Bench::LiveTables() {
  Tables t;
  for (size_t i = 0; i < db_->num_tables(); ++i)
    t.push_back(db_->table(static_cast<int>(i)));
  return t;
}

std::vector<uint64_t> Bench::StaticRowCounts() {
  std::vector<uint64_t> rows;
  for (int t : {workload::kSubscriber, workload::kAccessInfo,
                workload::kSpecialFacility})
    rows.push_back(db_->table(t)->num_rows());
  return rows;
}

void Bench::Setup() {
  // Threads inherit this: the database's and the executor's flushers, the
  // sentinel and the server's I/O thread share CPU 2; workers pin
  // themselves to CPUs 0-1 and the client thread to CPU 3.
  perfbench::PinCurrentThread(kHelperCpu);
  hw::Topology topo = hw::Topology::SingleSocket(kCores);
  engine::Database::Options dopt;
  dopt.topo = topo;
  db_ = std::make_unique<engine::Database>(dopt);

  uint64_t t0 = NowNs();
  std::vector<uint64_t> bounds =
      SchemeAt(w_.subscribers, kEvenSplit).tables[0].boundaries;
  for (auto& t : workload::BuildTatpTables(w_.subscribers, bounds, a_.seed))
    db_->AddTable(std::move(t));
  uint64_t t1 = NowNs();
  load_s_ = Secs(t1 - t0);
  tracer_.Add("setup.load", 0, t0, t1);

  engine::PartitionedExecutor::Options eo;
  eo.durability = w_.durability;
  auto before = perfbench::ListThreads();
  exec_ = std::make_unique<engine::PartitionedExecutor>(
      db_.get(), topo, SchemeAt(w_.subscribers, kEvenSplit), eo);
  engine_tids_ = perfbench::NewThreads(before, perfbench::ListThreads());
  if (w_.wire) {
    server::Server::Options so;
    so.max_window = kConnWindow;
    server_ = std::make_unique<server::Server>(db_.get(), exec_.get(),
                                               w_.subscribers, so);
    before = perfbench::ListThreads();
    Status st = server_->Start();
    server_tids_ = perfbench::NewThreads(before, perfbench::ListThreads());
    if (!st.ok()) verdict_.Fail("Server::Start: " + st.ToString());
  }
  uint64_t t2 = NowNs();
  engine_start_s_ = Secs(t2 - t1);
  tracer_.Add("setup.engine_start", 0, t1, t2);
  if (w_.wire && verdict_.ok()) {
    server::Client::Options co;
    co.port = server_->port();
    co.connections = kConnections;
    co.window = kConnWindow;
    co.batch = kWave;
    client_ = std::make_unique<server::Client>(co);
    Status st = client_->Connect();
    if (!st.ok()) verdict_.Fail("Client::Connect: " + st.ToString());
  }
  setup_s_ = Secs(NowNs());  // from process start: load + engine start

  load_rows_ = StaticRowCounts();
  shadow_ = std::make_unique<perfbench::Shadow>(
      perfbench::Shadow::Capture(LiveTables(), w_.subscribers));
}

void Bench::Acknowledge(Slot& s, Outcome o) {
  int sub = cur_sub_.load(std::memory_order_relaxed);
  if (sub >= 0) hists_[static_cast<size_t>(sub)].Add(s.t_done_ns - s.t_submit_ns);
  if (++acks_ == kRssAtAcks) rss_at_acks_mb_ = perfbench::PeakRssMb();
  if (!perfbench::ExpectedOutcome(s.req.txn_class, o)) {
    ++failed_;
    if (s.req.txn_class == workload::kGetSubData)
      client_verdict_.Fail("GetSubscriberData(" + std::to_string(s.req.s_id) +
                    ") did not return OK");
  }
  if (o == Outcome::kOk)
    ++totals_.ok;
  else
    ++totals_.not_ok;
  shadow_->Apply(s.req, o, s.seq);
}

void Bench::InProcessLoop() {
  Rng rng(a_.seed * 0x9e3779b97f4a7c15ULL + 17);
  struct InFlight {
    engine::TxnFuture f;
    Slot* slot;
  };
  std::deque<InFlight> window;
  std::vector<engine::ActionGraph> wave;
  auto complete_front = [&] {
    InFlight& x = window.front();
    uint64_t t0 = tracer_.on() ? NowNs() : 0;
    Status st = x.f.Wait();
    if (tracer_.on()) {
      ++t_wait_.calls;
      t_wait_.ns += NowNs() - t0;
    }
    Acknowledge(*x.slot, perfbench::OutcomeOf(st));
    window.pop_front();
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    wave.clear();
    uint64_t first = next_seq_;
    for (size_t i = 0; i < kWave; ++i) {
      Slot& s = slots_[next_seq_ % kRing];
      s.req = w_.shift ? DrawShift(rng, w_.subscribers)
                       : server::DrawTatpMix(rng, w_.subscribers);
      s.seq = ++next_seq_;
      wave.push_back(server::BuildGraph(graphs_, s.req).take());
    }
    uint64_t t0 = NowNs();
    auto fs = exec_->SubmitBatch(wave);
    uint64_t t1 = NowNs();
    attempted_ += kWave;
    if (!fs.ok()) {
      failed_ += kWave;
      client_verdict_.Fail("SubmitBatch: " + fs.status().ToString());
      break;
    }
    uint32_t round = 0;
    if (tracer_.on()) {
      ++t_submit_.calls;
      t_submit_.ns += t1 - t0;
      round = tracer_.Add("round", 0, t0, t1);
      tracer_.Add("engine.SubmitBatch", round, t0, t1);
    }
    for (size_t i = 0; i < kWave; ++i) {
      Slot* s = &slots_[(first + i) % kRing];
      s->t_submit_ns = t0;
      fs.value()[i].OnComplete([s](const Status&) { s->t_done_ns = NowNs(); });
      window.push_back({std::move(fs.value()[i]), s});
    }
    uint64_t w0 = tracer_.on() ? NowNs() : 0;
    while (window.size() >= kDepth) complete_front();
    if (tracer_.on()) tracer_.Add("engine.Wait", round, w0, NowNs());
  }
  while (!window.empty()) complete_front();
}

void Bench::WireLoop() {
  Rng rng(a_.seed * 0x9e3779b97f4a7c15ULL + 17);
  size_t inflight[kConnections] = {};
  // Acks arrive in any order across connections and partitions, so slots
  // come from a free list rather than a ring indexed by sequence number.
  std::vector<Slot*> free_slots;
  for (Slot& s : slots_) free_slots.push_back(&s);
  auto submit_frame = [&](int c) {
    for (size_t i = 0; i < kWave; ++i) {
      Slot& s = *free_slots.back();
      free_slots.pop_back();
      s.req = server::DrawTatpMix(rng, w_.subscribers);
      // Each subscriber belongs to one connection, so acknowledged writes
      // to a key are applied in submission order.
      s.req.s_id = s.req.s_id - s.req.s_id % kConnections +
                   static_cast<uint64_t>(c);
      s.seq = ++next_seq_;
      s.t_submit_ns = NowNs();
      ++inflight[c];
      ++attempted_;
      Slot* sp = &s;
      uint64_t t0 = tracer_.on() ? NowNs() : 0;
      Status st = client_->Submit(
          c, s.req,
          [this, sp, c, &inflight, &free_slots](server::WireStatus ws) {
            sp->t_done_ns = NowNs();
            --inflight[c];
            free_slots.push_back(sp);
            Outcome o = perfbench::OutcomeOf(ws);
            if (ws == server::WireStatus::kOverloaded ||
                ws == server::WireStatus::kShutdown) {
              ++totals_.shed;  // never reached the engine
              ++failed_;
              ++acks_;
              return;
            }
            Acknowledge(*sp, o);
          });
      if (tracer_.on()) {
        ++t_client_submit_.calls;
        t_client_submit_.ns += NowNs() - t0;
      }
      if (!st.ok()) {
        client_verdict_.Fail("Client::Submit: " + st.ToString());
        stop_ = true;
        return;
      }
    }
  };
  auto poll = [&](uint32_t round) {
    uint64_t t0 = NowNs();
    client_->Poll(1);
    if (tracer_.on()) {
      uint64_t t1 = NowNs();
      ++t_client_poll_.calls;
      t_client_poll_.ns += t1 - t0;
      tracer_.Add("server.Client::Poll", round, t0, t1);
    }
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    uint64_t t0 = tracer_.on() ? NowNs() : 0;
    for (int c = 0; c < kConnections; ++c)
      while (inflight[c] + kWave <= kConnInflight &&
             !stop_.load(std::memory_order_relaxed))
        submit_frame(c);
    uint32_t round = 0;
    if (tracer_.on()) {
      uint64_t t1 = NowNs();
      round = tracer_.Add("round", 0, t0, t1);
      tracer_.Add("server.Client::Submit", round, t0, t1);
    }
    poll(round);
  }
  while (client_->outstanding() > 0) poll(0);
}

void Bench::ClientLoop() {
  perfbench::PinCurrentThread(kClientCpu);
  if (w_.wire)
    WireLoop();
  else
    InProcessLoop();
}

Probe Bench::Read() {
  Probe p;
  p.t_ns = NowNs();
  p.process_cpu_s =
      perfbench::ProcessCpuSeconds() - (spinners_ ? spinners_->CpuSeconds() : 0);
  p.engine_cpu_s = perfbench::ThreadsCpuSeconds(engine_tids_);
  p.server_cpu_s = perfbench::ThreadsCpuSeconds(server_tids_);
  p.executed = exec_->executed_actions();
  if (log::LogManager* lm = exec_->log_manager()) {
    p.log_records = lm->num_records();
    p.log_bytes = lm->bytes_logged();
  }
  p.snap = db_->StatsSnapshot();
  return p;
}

void Bench::Accumulate(const Probe& a, const Probe& b) {
  using obs::CounterId;
  using obs::HistId;
  win_.subs.push_back({a.t_ns, b.t_ns, b.process_cpu_s - a.process_cpu_s,
                       b.log_bytes - a.log_bytes});
  win_.secs += Secs(b.t_ns - a.t_ns);
  win_.process_cpu_s += b.process_cpu_s - a.process_cpu_s;
  win_.engine_cpu_s += b.engine_cpu_s - a.engine_cpu_s;
  win_.server_cpu_s += b.server_cpu_s - a.server_cpu_s;
  win_.executed += b.executed - a.executed;
  win_.log_records += b.log_records - a.log_records;
  win_.log_bytes += b.log_bytes - a.log_bytes;
  win_.log_flushes += b.snap.counter(CounterId::kLogFlushes) -
                      a.snap.counter(CounterId::kLogFlushes);
  win_.frames_in += b.snap.counter(CounterId::kNetFramesIn) -
                    a.snap.counter(CounterId::kNetFramesIn);
  auto add_mean = [&](HistId h, double* sum, double* n) {
    const obs::Histogram& x = a.snap.hist(h);
    const obs::Histogram& y = b.snap.hist(h);
    double cnt = static_cast<double>(y.count() - x.count());
    *sum += DeltaMean(x, y) * cnt;
    *n += cnt;
  };
  add_mean(HistId::kDrainBatchSize, &win_.drain_batch_sum,
           &win_.drain_batch_n);
  add_mean(HistId::kActionAvgUs, &win_.action_us_sum, &win_.action_us_n);
  win_.flush_p50.push_back(DeltaQuantile(a.snap.hist(HistId::kLogFlushUs),
                                         b.snap.hist(HistId::kLogFlushUs), 0.5));
  win_.side_p50.push_back(DeltaQuantile(a.snap.hist(HistId::kWireLatencyUs),
                                        b.snap.hist(HistId::kWireLatencyUs),
                                        0.5));
}

uint64_t Bench::RowsInMovedRange(double from_split, double to_split) {
  auto lo = static_cast<uint64_t>(static_cast<double>(w_.subscribers) *
                                  std::min(from_split, to_split));
  auto hi = static_cast<uint64_t>(static_cast<double>(w_.subscribers) *
                                  std::max(from_split, to_split));
  uint64_t rows = 0;
  for (size_t t = 0; t < 4; ++t)
    db_->table(static_cast<int>(t))
        ->index()
        .Scan(lo * kKeyFactor[t], hi * kKeyFactor[t] - 1,
              [&](uint64_t, uint64_t) {
                ++rows;
                return true;
              });
  return rows;
}

void Bench::TimedRepartition(const core::Scheme& target) {
  plan_actions_.push_back(static_cast<double>(
      core::PlanRepartition(exec_->scheme(), target).size()));
  uint64_t migrated0 = db_->StatsSnapshot().migrated_bytes;
  auto before = perfbench::ListThreads();
  uint64_t t0 = NowNs();
  auto r = exec_->Repartition(target);
  uint64_t t1 = NowNs();
  auto fresh = perfbench::NewThreads(before, perfbench::ListThreads());
  engine_tids_.insert(engine_tids_.end(), fresh.begin(), fresh.end());
  std::sort(engine_tids_.begin(), engine_tids_.end());
  tracer_.Add("engine.Repartition", 0, t0, t1);
  if (!r.ok()) verdict_.Fail("Repartition: " + r.status().ToString());
  migrated_mb_.push_back(
      static_cast<double>(db_->StatsSnapshot().migrated_bytes - migrated0) /
      1e6);
  perfbench::CheckSchemeEquals(target, exec_->scheme(), &verdict_);
  perfbench::CheckRowsConserved(load_rows_, StaticRowCounts(),
                                "after Repartition", &verdict_);
  pause_ms_.push_back(Secs(t1 - t0) * 1e3);
}

void Bench::Recover() {
  log::LogManager* lm = exec_->log_manager();
  lm->FlushAll();
  std::vector<log::ShardSnapshot> cut = lm->SnapshotDurable();
  perfbench::TableDigest live = perfbench::DigestOf(LiveTables());
  // Free the live engine first: the recovered copy is as large.
  client_.reset();
  server_.reset();
  exec_.reset();
  db_.reset();

  // The same cut is recovered kRecoveries times, each into a fresh load,
  // and every recovered copy is checked. The cut holds every record of the
  // run, so its size follows the run's throughput; recovery_s is therefore
  // the time per kRecoveryRecords records applied, the best of the
  // recoveries (interference only ever slows one).
  std::vector<uint64_t> bounds =
      SchemeAt(w_.subscribers, kEvenSplit).tables[0].boundaries;
  std::vector<double> secs, rates;
  for (int i = 0; i < kRecoveries; ++i) {
    auto fresh = workload::BuildTatpTables(w_.subscribers, bounds, a_.seed);
    Tables raw;
    for (auto& t : fresh) raw.push_back(t.get());
    uint64_t t0 = NowNs();
    log::RecoveryReport report = log::Recover(cut, raw);
    uint64_t t1 = NowNs();
    tracer_.Add("log.Recover", 0, t0, t1);
    secs.push_back(Secs(t1 - t0));
    rates.push_back(static_cast<double>(report.records_applied) / secs.back());
    perfbench::CheckRecovered(report, *shadow_, raw, live, &verdict_);
  }
  recovery_secs_ = secs;
  recover_records_per_s_ = *std::max_element(rates.begin(), rates.end());
  recovery_s_ = kRecoveryRecords / recover_records_per_s_;
}

int Bench::Run() {
  spinners_ = std::make_unique<perfbench::IdleSpinners>();
  Setup();
  if (!verdict_.ok()) {
    for (const auto& m : verdict_.messages())
      std::fprintf(stderr, "perfbench: %s\n", m.c_str());
    return 1;
  }
  // Steady phase: warm-up, then windows; tatp-shift repartitions between
  // its windows while the client keeps submitting.
  const int windows = w_.shift ? kShiftRepartitions + 1 : 1;
  const double window_s = static_cast<double>(a_.seconds) / windows;
  const int subs = std::max(1, static_cast<int>(window_s / kSubWindowS + 0.5));
  const auto sub_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s / subs));
  hists_.resize(static_cast<size_t>(windows * subs));
  uint64_t steady0 = NowNs();
  std::thread client([this] { ClientLoop(); });
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  for (int k = 0; k < windows; ++k) {
    cur_sub_ = k * subs;
    Clock::time_point start = Clock::now();
    Probe p0 = Read();
    uint64_t w0 = p0.t_ns;
    for (int i = 0; i < subs; ++i) {
      std::this_thread::sleep_until(start + sub_len * (i + 1));
      cur_sub_ = i + 1 < subs ? k * subs + i + 1 : -1;
      Probe p1 = Read();
      Accumulate(p0, p1);
      p0 = std::move(p1);
    }
    tracer_.Add("window", 0, w0, p0.t_ns);
    if (k + 1 < windows)
      TimedRepartition(SchemeAt(w_.subscribers,
                                k % 2 == 0 ? kHotSplit : kEvenSplit));
  }
  stop_ = true;
  client.join();
  verdict_.Merge(client_verdict_);
  exec_->Drain();
  tracer_.Add("steady", 0, steady0, NowNs());
  // A run too slow to reach kRssAtAcks reports the peak so far.
  peak_rss_mb_ = rss_at_acks_mb_ > 0 ? rss_at_acks_mb_ : perfbench::PeakRssMb();

  // Independent totals, then the drained tables against the shadow.
  final_snap_ = db_->StatsSnapshot();
  perfbench::CheckEngineTotals(
      totals_, final_snap_.counter(obs::CounterId::kTxnCommitted),
      final_snap_.counter(obs::CounterId::kTxnAborted), &verdict_);
  if (w_.wire)
    perfbench::CheckAckTotals(acks_,
                              final_snap_.counter(obs::CounterId::kNetFramesOut),
                              kConnections, &verdict_);
  uint64_t c0 = NowNs();
  perfbench::CheckTablesMatchShadow(*shadow_, LiveTables(), "live", &verdict_);
  tracer_.Add("check.live", 0, c0, NowNs());

  if (tracer_.on()) {
    // Storage read cost on a seeded key sample, executor drained.
    Rng rng(a_.seed + 99);
    storage::Table* sub = db_->table(workload::kSubscriber);
    storage::Tuple row;
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < kReadSample; ++i)
      if (!sub->Read(rng.Uniform(w_.subscribers), &row).ok())
        verdict_.Fail("storage::Table::Read missed a loaded subscriber");
    uint64_t t1 = NowNs();
    tracer_.Add("storage.Table::Read", 0, t0, t1);
    read_ns_ = static_cast<double>(t1 - t0) / kReadSample;
  }

  // tatp-1m and tatp-wire: a boundary move and back, on the idle engine.
  if (w_.shift)
    rows_moved_.assign(pause_ms_.size(), static_cast<double>(RowsInMovedRange(
                                             kHotSplit, kEvenSplit)));
  for (int i = 0; i < w_.epilogue_moves; ++i) {
    double split = i % 2 == 0 ? kEpilogueSplit : kEvenSplit;
    rows_moved_.push_back(
        static_cast<double>(RowsInMovedRange(kEvenSplit, kEpilogueSplit)));
    TimedRepartition(SchemeAt(w_.subscribers, split));
  }
  Recover();
  Emit();
  return verdict_.ok() ? 0 : 1;
}

void Bench::Emit() {
  // tps, latency, CPU and log bytes are taken per 0.5 s sub-window. A
  // run's timing figure is the quartile of its sub-windows on the good side
  // (the upper quartile of tps, the lower quartile of latency and CPU): it
  // moves with every sub-window when the engine gets faster or slower, but
  // not with interference from other tenants of a shared host, which only
  // slows some sub-windows of a run. log_bytes_per_txn is the median;
  // repartition_pause_ms is the lower quartile of the run's calls.
  uint64_t txns = 0;
  std::vector<double> tps_w, p50_w, p99_w, cpu_w, log_w;
  for (size_t i = 0; i < win_.subs.size(); ++i) {
    const auto& sw = win_.subs[i];
    double n = static_cast<double>(hists_[i].count());
    txns += hists_[i].count();
    if (n == 0) continue;
    tps_w.push_back(n / Secs(sw.t1 - sw.t0));
    p50_w.push_back(hists_[i].QuantileUs(0.5));
    p99_w.push_back(hists_[i].QuantileUs(0.99));
    cpu_w.push_back(sw.process_cpu_s * 1e6 / n);
    log_w.push_back(static_cast<double>(sw.log_bytes) / n);
  }
  tps_w_ = tps_w;
  p50_w_ = p50_w;
  p99_w_ = p99_w;
  cpu_w_ = cpu_w;
  double per_txn = txns ? 1.0 / static_cast<double>(txns) : 0.0;
  double tps = Quantile(tps_w, 0.75);
  if (txns == 0) verdict_.Fail("no transaction completed in a steady window");

  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> e2e = {
      {"tps", tps, "txn/s"},
      {"commit_p50_us", Quantile(p50_w, 0.25), "us"},
      {"commit_p99_us", Quantile(p99_w, 0.25), "us"},
      {"cpu_us_per_txn", Quantile(cpu_w, 0.25), "us"},
      {"log_bytes_per_txn", Median(log_w), "B"},
      {"repartition_pause_ms", Quantile(pause_ms_, 0.25), "ms"},
      {"recovery_s", recovery_s_, "s"},
      {"setup_s", setup_s_, "s"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  std::vector<Metric> layer = {
      {"engine.submit_us_per_wave", t_submit_.MeanUs(), "us"},
      {"engine.wait_us_per_txn", t_wait_.MeanUs(), "us"},
      {"engine.actions_per_txn", static_cast<double>(win_.executed) * per_txn,
       "count"},
      {"engine.drain_batch_mean",
       win_.drain_batch_n ? win_.drain_batch_sum / win_.drain_batch_n : 0.0,
       "count"},
      {"engine.action_avg_us",
       win_.action_us_n ? win_.action_us_sum / win_.action_us_n : 0.0, "us"},
      {"engine.worker_cpu_s", win_.engine_cpu_s, "s"},
      {"storage.read_ns", read_ns_, "ns"},
      {"log.flush_p50_us", Median(win_.flush_p50), "us"},
      {"log.flushes_per_s", static_cast<double>(win_.log_flushes) / win_.secs,
       "1/s"},
      {"log.records_per_txn", static_cast<double>(win_.log_records) * per_txn,
       "count"},
      {"log.recover_records_per_s", recover_records_per_s_, "1/s"},
      {"server.client_submit_us", t_client_submit_.MeanUs(), "us"},
      {"server.client_poll_us", t_client_poll_.MeanUs(), "us"},
      {"server.side_p50_us", Median(win_.side_p50), "us"},
      {"server.frames_in_per_txn", static_cast<double>(win_.frames_in) * per_txn,
       "count"},
      {"server.io_cpu_s", win_.server_cpu_s, "s"},
      {"core.plan_actions", mean(plan_actions_), "count"},
      {"core.rows_moved", mean(rows_moved_), "count"},
      {"mem.migrated_mb_per_repartition", mean(migrated_mb_), "MB"},
      {"setup.load_s", load_s_, "s"},
      {"setup.engine_start_ms", engine_start_s_ * 1e3, "ms"},
      {"trace.tps", tps, "txn/s"},
  };

  perfbench::HostFacts host = perfbench::ReadHostFacts();
  host.hw_available = final_snap_.hw_available;
  for (const auto& m : verdict_.messages())
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  if (verdict_.failures() > verdict_.messages().size())
    std::fprintf(stderr, "perfbench: ... %llu check failures in all\n",
                 static_cast<unsigned long long>(verdict_.failures()));

  auto metrics_json = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name,
                    std::isfinite(ms[i].value) ? ms[i].value : 0.0, ms[i].unit);
      s += buf;
    }
    return s + "}";
  };
  auto list_json = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
      s += buf;
    }
    return s + "]";
  };
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                verdict_.ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  std::string result =
      head + std::string("\"metrics\": ") +
      metrics_json(a_.trace ? layer : e2e) + "}";

  // The full record (both metric sets, host facts) goes to the output
  // directory; spans too on a traced run.
  std::string tag = std::string(w_.name) + "-seed" + std::to_string(a_.seed) +
                    "-trace" + std::to_string(a_.trace ? 1 : 0);
  if (std::FILE* f = std::fopen((a_.out + "/result-" + tag + ".json").c_str(),
                                "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                 "\"trace\": %d, \"host\": %s, \"checks_failed\": %llu, "
                 "\"end_to_end\": %s, \"per_layer\": %s, "
                 "\"sub_windows\": {\"tps\": %s, \"p50_us\": %s, "
                 "\"p99_us\": %s, \"cpu_us\": %s}, \"recovery_s\": %s, "
                 "\"pause_ms\": %s}\n",
                 w_.name, static_cast<unsigned long long>(a_.seed), a_.seconds,
                 a_.trace ? 1 : 0, host.ToJson().c_str(),
                 static_cast<unsigned long long>(verdict_.failures()),
                 metrics_json(e2e).c_str(), metrics_json(layer).c_str(),
                 list_json(tps_w_).c_str(), list_json(p50_w_).c_str(),
                 list_json(p99_w_).c_str(), list_json(cpu_w_).c_str(),
                 list_json(recovery_secs_).c_str(), list_json(pause_ms_).c_str());
    std::fclose(f);
  }
  if (tracer_.on() &&
      !tracer_.Write(a_.out + "/spans-" + std::string(w_.name) + ".tsv"))
    std::fprintf(stderr, "perfbench: could not write spans\n");
  std::printf("host %s\n", host.ToJson().c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out = v;
    else return false;
  }
  return (argc % 2) == 1 && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tatp-1m|tatp-wire|tatp-shift> "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) return Bench(w, args).Run();
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
