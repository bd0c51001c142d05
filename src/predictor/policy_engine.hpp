#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/message.hpp"
#include "common/time.hpp"
#include "predictor/rank_fn.hpp"
#include "predictor/working_set.hpp"

namespace pmx {

/// The eviction predictor of Section 3.2, as one PIFO-style policy engine.
/// Connections are identified by Conn pairs (see common/message.hpp).
///
/// The paper inverts the usual prediction problem: instead of predicting
/// which connection to *add*, the predictor decides when to *remove* a
/// connection from the communication working set so the multiplexing degree
/// stays small. The network calls:
///   on_establish  -- when the scheduler inserts a connection,
///   on_use        -- every time data moves over the connection,
///   on_release    -- when the connection leaves the network,
/// and once per TDM slot collect_evictions() to learn which held
/// connections should be dropped (unheld). should_hold() decides whether a
/// connection is latched at all once the NIC's request signal goes away
/// (Section 4, extension 3).
///
/// The engine is the single priority-queue core behind every eviction
/// policy. It tracks one FlowState per live (src, dst) connection and
/// keeps a lazy binary min-heap of (rank, conn) keys; the pluggable RankFn
/// decides what the rank means (see rank_fn.hpp for the contract).
///
/// Laziness: establish/use events push a fresh key instead of re-heapifying
/// (stale copies are skipped at pop time by comparing the stored key with
/// the recomputed rank), and releases leave their keys behind. The heap is
/// compacted once it grows well past the tracked set, so memory stays
/// O(tracked) amortized.
///
/// Determinism: the heap comparator totally orders entries by
/// (rank, src, dst), so the pop sequence -- and therefore every eviction
/// batch -- is a pure function of the event history, independent of hash
/// ordering, heap layout, or thread count. Eviction batches are additionally
/// sorted by (src, dst) before being returned, preserving the pre-engine
/// unhold order contract.
///
/// The engine also mirrors the scheduler's hold latches (on_hold /
/// believes_held): every network path that unlatches a hold reaches the
/// predictor (evict batch, release, fault force-release, flush), so the
/// mirror must stay bit-identical to the scheduler's hold matrix. The slot
/// auditor cross-checks exactly that.
class PolicyEngine final {
 public:
  /// `name` is the policy's public name (it may differ from the rank's,
  /// e.g. "phase" runs the timeout rank plus a WorkingSetTracker).
  /// `tracker`, when present, drives recommend_flush() from working-set
  /// phase shifts. `idle_ttl`, when positive, expires entries idle that
  /// long regardless of rank -- the drain-time safety valve for pure
  /// capacity policies (make_policy sets it for lru/lfu-decay/hybrid).
  PolicyEngine(std::string name, std::unique_ptr<RankFn> rank,
               std::unique_ptr<WorkingSetTracker> tracker = nullptr,
               TimeNs idle_ttl = TimeNs{0});

  [[nodiscard]] std::string name() const { return name_; }
  /// Latch this connection when its request drops?
  [[nodiscard]] bool should_hold(const Conn&) const { return rank_->holds(); }

  void on_establish(const Conn& c, TimeNs now);
  void on_use(const Conn& c, TimeNs now);
  void on_release(const Conn& c, TimeNs now);
  /// Connections whose hold should now be dropped; they are forgotten.
  [[nodiscard]] std::vector<Conn> collect_evictions(TimeNs now);
  /// A compiler flush (Section 3.3) removed every dynamic connection:
  /// discard all learned state.
  void on_flush();
  /// Should the network flush its learned connections now (a detected
  /// phase change, Section 3.3)? Only the phase policy ever says yes.
  [[nodiscard]] bool recommend_flush(TimeNs now);

  /// Notified right after the scheduler latches a hold on `c`.
  void on_hold(const Conn& c, TimeNs now);
  [[nodiscard]] std::size_t held_count() const { return held_.size(); }
  [[nodiscard]] bool believes_held(const Conn& c) const {
    return held_.contains(c);
  }

  // --- Introspection (tests, auditor, benches) ---------------------------
  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }
  [[nodiscard]] bool is_tracked(const Conn& c) const {
    return entries_.contains(c);
  }
  [[nodiscard]] const RankFn& rank_fn() const { return *rank_; }
  [[nodiscard]] std::uint64_t use_epoch() const { return use_epoch_; }
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] const WorkingSetTracker* tracker() const {
    return tracker_.get();
  }

 private:
  struct ConnHash {
    std::size_t operator()(const Conn& c) const {
      return c.src * 0x9E3779B9u + c.dst;
    }
  };
  /// Heap key: the rank at push time plus the identity tie-breaker.
  struct HeapEntry {
    Rank key;
    Conn conn;
  };

  [[nodiscard]] EngineView view(TimeNs now) const {
    return EngineView{now, use_epoch_, entries_.size()};
  }
  enum class Event { kEstablish, kUse, kHold };
  void upsert(const Conn& c, TimeNs now, Event event);
  void push_key(const Conn& c, const FlowState& s, const EngineView& v);
  /// Pop heap entries until the front is live (its key matches the entry's
  /// current rank); returns false when the heap ran empty.
  bool settle_front(const EngineView& v);
  void compact_if_oversized(const EngineView& v);

  std::string name_;
  std::unique_ptr<RankFn> rank_;
  std::unique_ptr<WorkingSetTracker> tracker_;
  TimeNs idle_ttl_{0};  ///< 0 = disabled
  std::unordered_map<Conn, FlowState, ConnHash> entries_;
  std::unordered_set<Conn, ConnHash> held_;  ///< mirror of scheduler holds
  std::vector<HeapEntry> heap_;
  std::uint64_t use_epoch_ = 0;  ///< total on_use events engine-wide
};

/// Assemble the full predictor a PolicySpec describes (rank function plus,
/// for the phase policy, its WorkingSetTracker; plus the idle-TTL valve for
/// the capacity policies).
std::unique_ptr<PolicyEngine> make_policy(const PolicySpec& spec);

}  // namespace pmx
