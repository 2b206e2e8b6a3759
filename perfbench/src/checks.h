// The benchmark's correctness checks, kept apart from the engine so that
// each one can be fed a wrong state in tests (perfbench/tests/).
//
// Shadow is the expected table state computed outside the program: it is
// read from the freshly loaded tables, then every acknowledged write is
// applied to it in submission order. At the end the drained (and the
// recovered) tables must equal it on the checked columns:
//   Subscriber.vlr_location, SpecialFacility.data_a, the CallForwarding
//   row count.
// Subscriber.bit_1 is deliberately not checked: an aborted
// UpdateSubscriberData leaves its bit_1 write in the live table (the
// executor has no undo), so live and recovered state disagree on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "log/recovery.h"
#include "server/wire_protocol.h"
#include "storage/table.h"
#include "util/status.h"

namespace perfbench {

using atrapos::server::TxnRequest;

/// Collects check failures; a run is correct iff no check failed.
class Verdict {
 public:
  void Fail(std::string what);
  /// Adds another verdict's failures (e.g. one kept by another thread).
  void Merge(const Verdict& other);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  /// The first few failure messages (the rest are only counted).
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// How one transaction ended, as the client saw it.
enum class Outcome : uint8_t {
  kOk,
  kNotFound,       ///< spec-conformant TATP miss (the engine aborts it)
  kAlreadyExists,  ///< spec-conformant duplicate insert (aborted)
  kFailed,         ///< anything else: an operation that failed
};
Outcome OutcomeOf(const atrapos::Status& s);
Outcome OutcomeOf(atrapos::server::WireStatus s);

/// True when `o` is an outcome the TATP spec allows for this class
/// (GetSubscriberData and UpdateLocation must succeed; the others may
/// miss).
bool ExpectedOutcome(uint8_t txn_class, Outcome o);

class Shadow {
 public:
  /// Reads the freshly loaded TATP tables (indexed by workload::TatpTable).
  static Shadow Capture(const std::vector<atrapos::storage::Table*>& tables,
                        uint64_t subscribers);

  /// Applies one acknowledged transaction with submission sequence number
  /// `seq`. Writes to one key take effect in submission order whatever
  /// order their acks arrive in (the engine runs same-key actions in
  /// submission order). Non-OK outcomes change nothing.
  void Apply(const TxnRequest& req, Outcome outcome, uint64_t seq);

  uint64_t subscribers() const { return vlr_.size(); }
  int64_t vlr(uint64_t s) const { return vlr_[s]; }

 private:
  friend void CheckTablesMatchShadow(
      const Shadow&, const std::vector<atrapos::storage::Table*>&,
      const std::string&, Verdict*);
  static constexpr int64_t kNoRow = INT64_MIN;
  std::vector<int64_t> vlr_;
  std::vector<uint64_t> vlr_seq_;
  std::vector<int64_t> sf_data_a_;  ///< by SF key; kNoRow when absent
  std::vector<uint64_t> sf_seq_;
  int64_t cf_rows_ = 0;
};

/// The checked columns of `tables` must equal `shadow`. `what` names the
/// table set in failure messages ("live", "recovered").
void CheckTablesMatchShadow(const Shadow& shadow,
                            const std::vector<atrapos::storage::Table*>& tables,
                            const std::string& what, Verdict* v);

/// What a state check compares besides the shadow: per-table row counts
/// and an order-free digest of the CallForwarding keys.
struct TableDigest {
  std::vector<uint64_t> rows;  ///< per table
  uint64_t cf_key_sum = 0;
  uint64_t cf_key_xor = 0;
};
TableDigest DigestOf(const std::vector<atrapos::storage::Table*>& tables);
void CheckDigestsEqual(const TableDigest& want, const TableDigest& got,
                       const std::string& what, Verdict* v);

/// Client-side completion totals.
struct ClientTotals {
  uint64_t ok = 0;      ///< completed OK
  uint64_t not_ok = 0;  ///< completed with a spec miss or an error
  uint64_t shed = 0;    ///< never reached the engine (wire admission)
};
/// The client's OK and non-OK counts must equal the engine's
/// kTxnCommitted and kTxnAborted counters.
void CheckEngineTotals(const ClientTotals& client, uint64_t engine_committed,
                       uint64_t engine_aborted, Verdict* v);
/// The client's ack count must equal the server's queued transaction acks
/// (response frames out minus one HELLO_ACK per connection).
void CheckAckTotals(uint64_t client_acks, uint64_t server_frames_out,
                    uint64_t connections, Verdict* v);

/// A recovery over a complete durable cut: every transaction decided,
/// nothing poisoned, every record applied.
void CheckCompleteCut(const atrapos::log::RecoveryReport& r, Verdict* v);

/// Everything the benchmark checks after recovering the final durable cut
/// into freshly loaded tables: the cut is complete, and the recovered
/// tables equal the shadow and the live tables' digest.
void CheckRecovered(const atrapos::log::RecoveryReport& r, const Shadow& shadow,
                    const std::vector<atrapos::storage::Table*>& recovered,
                    const TableDigest& live, Verdict* v);

/// The scheme the executor reports after a Repartition equals the target.
void CheckSchemeEquals(const atrapos::core::Scheme& want,
                       const atrapos::core::Scheme& got, Verdict* v);

/// Row counts of the tables no transaction inserts into or deletes from
/// (Subscriber, AccessInfo, SpecialFacility) are conserved.
void CheckRowsConserved(const std::vector<uint64_t>& before,
                        const std::vector<uint64_t>& after,
                        const std::string& when, Verdict* v);

}  // namespace perfbench
