// Each of the benchmark's correctness checks must fail when it is fed a
// wrong state: an altered vlr_location, a dropped acknowledged write, a
// durable cut missing its last epoch, a client ack total off by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "checks.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

namespace perfbench {
namespace {

using namespace atrapos;
constexpr uint64_t kSubs = 2000;

std::vector<storage::Table*> Raw(
    const std::vector<std::unique_ptr<storage::Table>>& tables) {
  std::vector<storage::Table*> raw;
  for (const auto& t : tables) raw.push_back(t.get());
  return raw;
}

TxnRequest UpdateLocation(uint64_t s, int64_t vlr) {
  TxnRequest r;
  r.txn_class = workload::kUpdLocation;
  r.s_id = s;
  r.a = vlr;
  return r;
}

void SetVlr(storage::Table* sub, uint64_t s, int64_t vlr) {
  storage::Tuple row;
  ASSERT_TRUE(sub->Read(s, &row).ok());
  row.SetInt(workload::kVlrLoc, vlr);
  ASSERT_TRUE(sub->Update(s, row).ok());
}

TEST(ShadowCheck, FreshTablesMatch) {
  auto tables = workload::BuildTatpTables(kSubs, {0}, 7);
  Shadow shadow = Shadow::Capture(Raw(tables), kSubs);
  Verdict v;
  CheckTablesMatchShadow(shadow, Raw(tables), "live", &v);
  EXPECT_TRUE(v.ok());
}

TEST(ShadowCheck, OneAlteredVlrLocationFails) {
  auto tables = workload::BuildTatpTables(kSubs, {0}, 7);
  Shadow shadow = Shadow::Capture(Raw(tables), kSubs);
  SetVlr(tables[workload::kSubscriber].get(), 1234, shadow.vlr(1234) + 1);
  Verdict v;
  CheckTablesMatchShadow(shadow, Raw(tables), "live", &v);
  EXPECT_EQ(v.failures(), 1u);
}

TEST(ShadowCheck, OneDroppedAcknowledgedWriteFails) {
  auto tables = workload::BuildTatpTables(kSubs, {0}, 7);
  Shadow shadow = Shadow::Capture(Raw(tables), kSubs);
  // Two acknowledged writes; the table holds only the first.
  shadow.Apply(UpdateLocation(10, 111), Outcome::kOk, 1);
  shadow.Apply(UpdateLocation(20, 222), Outcome::kOk, 2);
  SetVlr(tables[workload::kSubscriber].get(), 10, 111);
  Verdict v;
  CheckTablesMatchShadow(shadow, Raw(tables), "live", &v);
  EXPECT_EQ(v.failures(), 1u);

  SetVlr(tables[workload::kSubscriber].get(), 20, 222);
  Verdict fixed;
  CheckTablesMatchShadow(shadow, Raw(tables), "live", &fixed);
  EXPECT_TRUE(fixed.ok());
}

TEST(ShadowCheck, WritesToOneKeyApplyInSubmissionOrder) {
  auto tables = workload::BuildTatpTables(kSubs, {0}, 7);
  Shadow shadow = Shadow::Capture(Raw(tables), kSubs);
  shadow.Apply(UpdateLocation(5, 2), Outcome::kOk, 9);  // acked first
  shadow.Apply(UpdateLocation(5, 1), Outcome::kOk, 8);  // submitted first
  shadow.Apply(UpdateLocation(6, 3), Outcome::kFailed, 10);
  EXPECT_EQ(shadow.vlr(5), 2);
  EXPECT_NE(shadow.vlr(6), 3);
}

TEST(TotalsCheck, ClientAckTotalOffByOneFails) {
  Verdict ok;
  CheckAckTotals(1000, 1002, 2, &ok);
  EXPECT_TRUE(ok.ok());
  Verdict over, under;
  CheckAckTotals(1001, 1002, 2, &over);
  CheckAckTotals(999, 1002, 2, &under);
  EXPECT_FALSE(over.ok());
  EXPECT_FALSE(under.ok());
}

TEST(TotalsCheck, EngineTotalsOffByOneFail) {
  ClientTotals c{.ok = 70, .not_ok = 30, .shed = 0};
  Verdict ok, committed, aborted;
  CheckEngineTotals(c, 70, 30, &ok);
  CheckEngineTotals(c, 71, 30, &committed);
  CheckEngineTotals(c, 70, 29, &aborted);
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(committed.ok());
  EXPECT_FALSE(aborted.ok());
}

TEST(RepartitionCheck, SchemeAndRowCounts) {
  core::Scheme a;
  a.tables.push_back({{0, 50}, {0, 1}});
  core::Scheme b = a;
  Verdict same;
  CheckSchemeEquals(a, b, &same);
  EXPECT_TRUE(same.ok());
  b.tables[0].boundaries[1] = 49;
  Verdict differs;
  CheckSchemeEquals(a, b, &differs);
  EXPECT_FALSE(differs.ok());

  Verdict kept, lost;
  CheckRowsConserved({10, 20, 30}, {10, 20, 30}, "t", &kept);
  CheckRowsConserved({10, 20, 30}, {10, 19, 30}, "t", &lost);
  EXPECT_TRUE(kept.ok());
  EXPECT_FALSE(lost.ok());
}

/// Runs UpdateLocation waves under group commit, each wave its own commit
/// epoch, and returns the complete durable cut with the shadow and the
/// live digest.
struct Logged {
  std::vector<log::ShardSnapshot> cut;
  std::unique_ptr<Shadow> shadow;
  TableDigest live;
};
Logged RunLogged() {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  engine::Database db({.topo = topo});
  for (auto& t : workload::BuildTatpTables(kSubs, {0, kSubs / 2}, 7))
    db.AddTable(std::move(t));
  std::vector<storage::Table*> live;
  for (int i = 0; i < 4; ++i) live.push_back(db.table(i));
  Logged out;
  out.shadow = std::make_unique<Shadow>(Shadow::Capture(live, kSubs));
  core::Scheme scheme;
  for (uint64_t f : {1, 4, 4, 32})
    scheme.tables.push_back({{0, kSubs / 2 * f}, {0, 1}});
  engine::PartitionedExecutor::Options eo;
  eo.durability = engine::DurabilityMode::kGroup;
  engine::PartitionedExecutor exec(&db, topo, scheme, eo);
  workload::TatpActionGraphs graphs(kSubs);
  uint64_t seq = 0;
  for (int wave = 0; wave < 4; ++wave) {
    for (uint64_t i = 0; i < 50; ++i) {
      TxnRequest r = UpdateLocation((i * 37 + static_cast<uint64_t>(wave)) %
                                        kSubs,
                                    1000 * wave + static_cast<int64_t>(i));
      auto f = exec.Submit(graphs.UpdateLocation(r.s_id, r.a));
      EXPECT_TRUE(f.ok());
      out.shadow->Apply(r, OutcomeOf(f.value().Wait()), ++seq);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  out.cut = exec.log_manager()->SnapshotDurable();
  out.live = DigestOf(live);
  return out;
}

Verdict RecoverAndCheck(const Logged& run) {
  auto fresh = workload::BuildTatpTables(kSubs, {0, kSubs / 2}, 7);
  log::RecoveryReport r = log::Recover(run.cut, Raw(fresh));
  Verdict v;
  CheckRecovered(r, *run.shadow, Raw(fresh), run.live, &v);
  return v;
}

TEST(RecoveryCheck, CompleteCutPasses) {
  Logged run = RunLogged();
  Verdict v = RecoverAndCheck(run);
  for (const auto& m : v.messages()) ADD_FAILURE() << m;
  EXPECT_TRUE(v.ok());
}

TEST(RecoveryCheck, CutMissingItsLastEpochFails) {
  Logged run = RunLogged();
  uint64_t last = 0;
  for (const auto& shard : run.cut)
    for (const auto& rec : shard.records) last = std::max(last, rec.epoch);
  ASSERT_GT(last, 1u);
  size_t dropped = 0;
  for (auto& shard : run.cut) {
    auto& recs = shard.records;
    size_t n = recs.size();
    recs.erase(std::remove_if(recs.begin(), recs.end(),
                              [&](const log::RecoveredRecord& r) {
                                return r.epoch == last;
                              }),
               recs.end());
    dropped += n - recs.size();
  }
  ASSERT_GT(dropped, 0u);
  EXPECT_FALSE(RecoverAndCheck(run).ok());
}

}  // namespace
}  // namespace perfbench
