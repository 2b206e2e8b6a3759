#include "checks.h"

#include <cstdio>

#include "workload/tatp.h"

namespace perfbench {

using atrapos::Status;
using atrapos::StatusCode;
using atrapos::server::WireStatus;
using atrapos::storage::Table;
using atrapos::storage::Tuple;
namespace wl = atrapos::workload;

namespace {
constexpr size_t kMaxMessages = 8;

std::string Fmt(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}
}  // namespace

void Verdict::Fail(std::string what) {
  ++failures_;
  if (messages_.size() < kMaxMessages) messages_.push_back(std::move(what));
}

void Verdict::Merge(const Verdict& other) {
  failures_ += other.failures_;
  for (const auto& m : other.messages_)
    if (messages_.size() < kMaxMessages) messages_.push_back(m);
}

Outcome OutcomeOf(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk: return Outcome::kOk;
    case StatusCode::kNotFound: return Outcome::kNotFound;
    case StatusCode::kAlreadyExists: return Outcome::kAlreadyExists;
    default: return Outcome::kFailed;
  }
}

Outcome OutcomeOf(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return Outcome::kOk;
    case WireStatus::kNotFound: return Outcome::kNotFound;
    case WireStatus::kAlreadyExists: return Outcome::kAlreadyExists;
    default: return Outcome::kFailed;
  }
}

bool ExpectedOutcome(uint8_t txn_class, Outcome o) {
  if (o == Outcome::kFailed) return false;
  switch (txn_class) {
    case wl::kGetSubData:
    case wl::kUpdLocation:
      return o == Outcome::kOk;
    case wl::kInsCallFwd:
      return true;
    default:
      return o != Outcome::kAlreadyExists;
  }
}

Shadow Shadow::Capture(const std::vector<Table*>& tables,
                       uint64_t subscribers) {
  Shadow sh;
  sh.vlr_.resize(subscribers);
  sh.vlr_seq_.assign(subscribers, 0);
  sh.sf_data_a_.assign(subscribers * 4, kNoRow);
  sh.sf_seq_.assign(subscribers * 4, 0);
  Tuple row;
  for (uint64_t s = 0; s < subscribers; ++s) {
    sh.vlr_[s] = tables[wl::kSubscriber]->Read(s, &row).ok()
                     ? row.GetInt(wl::kVlrLoc)
                     : kNoRow;
    for (uint64_t t = 0; t < 4; ++t) {
      uint64_t k = wl::TatpEncodeSfKey(s, t);
      if (tables[wl::kSpecialFacility]->Read(k, &row).ok())
        sh.sf_data_a_[k] = row.GetInt(wl::kSfDataA);
    }
  }
  sh.cf_rows_ =
      static_cast<int64_t>(tables[wl::kCallForwarding]->num_rows());
  return sh;
}

void Shadow::Apply(const TxnRequest& req, Outcome outcome, uint64_t seq) {
  if (outcome != Outcome::kOk) return;
  switch (req.txn_class) {
    case wl::kUpdLocation:
      if (seq > vlr_seq_[req.s_id]) {
        vlr_seq_[req.s_id] = seq;
        vlr_[req.s_id] = req.a;
      }
      break;
    case wl::kUpdSubData: {
      uint64_t k = wl::TatpEncodeSfKey(req.s_id, req.sf_type);
      if (seq > sf_seq_[k]) {
        sf_seq_[k] = seq;
        sf_data_a_[k] = req.b;
      }
      break;
    }
    case wl::kInsCallFwd: ++cf_rows_; break;
    case wl::kDelCallFwd: --cf_rows_; break;
    default: break;
  }
}

void CheckTablesMatchShadow(const Shadow& shadow,
                            const std::vector<Table*>& tables,
                            const std::string& what, Verdict* v) {
  Tuple row;
  const uint64_t n = shadow.subscribers();
  for (uint64_t s = 0; s < n; ++s) {
    int64_t got = tables[wl::kSubscriber]->Read(s, &row).ok()
                      ? row.GetInt(wl::kVlrLoc)
                      : Shadow::kNoRow;
    if (got != shadow.vlr_[s])
      v->Fail(Fmt("%s Subscriber %llu: vlr_location %lld, expected %lld",
                  what.c_str(), static_cast<unsigned long long>(s),
                  static_cast<long long>(got),
                  static_cast<long long>(shadow.vlr_[s])));
  }
  for (uint64_t k = 0; k < n * 4; ++k) {
    int64_t got = tables[wl::kSpecialFacility]->Read(k, &row).ok()
                      ? row.GetInt(wl::kSfDataA)
                      : Shadow::kNoRow;
    if (got != shadow.sf_data_a_[k])
      v->Fail(Fmt("%s SpecialFacility key %llu: data_a %lld, expected %lld",
                  what.c_str(), static_cast<unsigned long long>(k),
                  static_cast<long long>(got),
                  static_cast<long long>(shadow.sf_data_a_[k])));
  }
  auto cf = static_cast<int64_t>(tables[wl::kCallForwarding]->num_rows());
  if (cf != shadow.cf_rows_)
    v->Fail(Fmt("%s CallForwarding: %lld rows, expected %lld", what.c_str(),
                static_cast<long long>(cf),
                static_cast<long long>(shadow.cf_rows_)));
}

TableDigest DigestOf(const std::vector<Table*>& tables) {
  TableDigest d;
  for (Table* t : tables) d.rows.push_back(t->num_rows());
  tables[wl::kCallForwarding]->index().Scan(
      0, UINT64_MAX, [&](uint64_t k, uint64_t) {
        d.cf_key_sum += k;
        d.cf_key_xor ^= k * 0x9e3779b97f4a7c15ULL;
        return true;
      });
  return d;
}

void CheckDigestsEqual(const TableDigest& want, const TableDigest& got,
                       const std::string& what, Verdict* v) {
  if (want.rows != got.rows)
    v->Fail(what + ": per-table row counts differ");
  if (want.cf_key_sum != got.cf_key_sum || want.cf_key_xor != got.cf_key_xor)
    v->Fail(what + ": CallForwarding key sets differ");
}

void CheckEngineTotals(const ClientTotals& client, uint64_t engine_committed,
                       uint64_t engine_aborted, Verdict* v) {
  if (client.ok != engine_committed)
    v->Fail(Fmt("client saw %llu OK completions, engine committed %llu",
                static_cast<unsigned long long>(client.ok),
                static_cast<unsigned long long>(engine_committed)));
  if (client.not_ok != engine_aborted)
    v->Fail(Fmt("client saw %llu non-OK completions, engine aborted %llu",
                static_cast<unsigned long long>(client.not_ok),
                static_cast<unsigned long long>(engine_aborted)));
}

void CheckAckTotals(uint64_t client_acks, uint64_t server_frames_out,
                    uint64_t connections, Verdict* v) {
  if (server_frames_out < connections ||
      client_acks != server_frames_out - connections)
    v->Fail(Fmt("client received %llu acks, server queued %llu frames for "
                "%llu connections",
                static_cast<unsigned long long>(client_acks),
                static_cast<unsigned long long>(server_frames_out),
                static_cast<unsigned long long>(connections)));
}

void CheckCompleteCut(const atrapos::log::RecoveryReport& r, Verdict* v) {
  if (r.txns_undecided || r.txns_poisoned || r.records_without_image ||
      r.records_diff_missed)
    v->Fail(Fmt("complete cut: %llu undecided, %llu poisoned, %llu "
                "image-less, %llu diff-missed",
                static_cast<unsigned long long>(r.txns_undecided),
                static_cast<unsigned long long>(r.txns_poisoned),
                static_cast<unsigned long long>(r.records_without_image),
                static_cast<unsigned long long>(r.records_diff_missed)));
  if (r.records_applied == 0) v->Fail("complete cut: no record applied");
}

void CheckRecovered(const atrapos::log::RecoveryReport& r, const Shadow& shadow,
                    const std::vector<Table*>& recovered,
                    const TableDigest& live, Verdict* v) {
  CheckCompleteCut(r, v);
  CheckTablesMatchShadow(shadow, recovered, "recovered", v);
  CheckDigestsEqual(live, DigestOf(recovered), "recovered vs live", v);
}

void CheckSchemeEquals(const atrapos::core::Scheme& want,
                       const atrapos::core::Scheme& got, Verdict* v) {
  bool same = want.tables.size() == got.tables.size();
  for (size_t t = 0; same && t < want.tables.size(); ++t)
    same = want.tables[t].boundaries == got.tables[t].boundaries &&
           want.tables[t].placement == got.tables[t].placement;
  if (!same)
    v->Fail("scheme after Repartition " + got.ToString() +
            " differs from target " + want.ToString());
}

void CheckRowsConserved(const std::vector<uint64_t>& before,
                        const std::vector<uint64_t>& after,
                        const std::string& when, Verdict* v) {
  for (int t : {wl::kSubscriber, wl::kAccessInfo, wl::kSpecialFacility}) {
    auto i = static_cast<size_t>(t);
    if (before[i] != after[i])
      v->Fail(Fmt("%s: table %d holds %llu rows, %llu before", when.c_str(),
                  t, static_cast<unsigned long long>(after[i]),
                  static_cast<unsigned long long>(before[i])));
  }
}

}  // namespace perfbench
