#include "predictor/policy_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Phase policy: working-set epoch and the Jaccard-overlap shift threshold
/// below which consecutive epochs count as a phase change.
constexpr TimeNs kPhaseEpoch{1000};
constexpr double kPhaseShiftThreshold = 0.25;

/// Safety valve for the pure-capacity policies (lru/lfu-decay/hybrid):
/// entries idle this long are expired regardless of rank. Without it a
/// capacity policy wedges dynamic TDM at drain time -- the last blocked
/// senders wait on held slots that only an overflow could free, and nothing
/// overflows once traffic stalls.
constexpr TimeNs kIdleTtl{2000};

/// Min-heap comparator for std::push_heap/pop_heap (which build max-heaps):
/// "greater" entries sink, so the front is the smallest (rank, src, dst).
/// The order is total -- (src, dst) is unique per connection -- so the pop
/// sequence never depends on the heap's internal array layout.
bool later(const Rank& a_key, const Conn& a_conn, const Rank& b_key,
           const Conn& b_conn) {
  if (a_key != b_key) {
    return a_key > b_key;
  }
  if (a_conn.src != b_conn.src) {
    return a_conn.src > b_conn.src;
  }
  return a_conn.dst > b_conn.dst;
}

// Eviction order feeds scheduler unhold calls and the eviction counter, so
// it is normalized to (src, dst) order like the pre-engine predictors.
void sort_evictions(std::vector<Conn>& evict) {
  std::sort(evict.begin(), evict.end(), [](const Conn& a, const Conn& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
}

}  // namespace

PolicyEngine::PolicyEngine(std::string name, std::unique_ptr<RankFn> rank,
                           std::unique_ptr<WorkingSetTracker> tracker,
                           TimeNs idle_ttl)
    : name_(std::move(name)),
      rank_(std::move(rank)),
      tracker_(std::move(tracker)),
      idle_ttl_(idle_ttl) {
  PMX_CHECK(rank_ != nullptr, "policy engine needs a rank function");
}

void PolicyEngine::push_key(const Conn& c, const FlowState& s,
                            const EngineView& v) {
  heap_.push_back(HeapEntry{rank_->rank(s, v), c});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return later(a.key, a.conn, b.key, b.conn);
                 });
}

void PolicyEngine::upsert(const Conn& c, TimeNs now, Event event) {
  const EngineView v = view(now);
  const auto [it, inserted] = entries_.try_emplace(c);
  FlowState& s = it->second;
  if (inserted) {
    s.conn = c;
    s.established = now;
    s.last_use = now;
    s.last_use_epoch = use_epoch_;
  } else if (event == Event::kHold) {
    // Hold latches only guarantee the entry exists; an already-tracked
    // entry is left untouched so latching is rank-neutral.
    return;
  }
  rank_->touch(s, v, event == Event::kUse);
  if (event == Event::kEstablish) {
    s.established = now;  // re-establish restarts deadline leases
  }
  s.last_use = now;
  s.last_use_epoch = use_epoch_;
  if (event == Event::kUse) {
    ++s.uses;
  }
  push_key(c, s, v);
  compact_if_oversized(v);
}

void PolicyEngine::on_establish(const Conn& c, TimeNs now) {
  upsert(c, now, Event::kEstablish);
}

void PolicyEngine::on_use(const Conn& c, TimeNs now) {
  // Using a connection ages every other one (the counter policy's global
  // epoch); the epoch advances before the entry is marked, matching the
  // pre-engine CounterPredictor exactly.
  ++use_epoch_;
  upsert(c, now, Event::kUse);
  if (tracker_) {
    tracker_->observe(c, now);
  }
}

void PolicyEngine::on_release(const Conn& c, TimeNs) {
  entries_.erase(c);  // heap copies go stale; reaped at pop/compaction
  held_.erase(c);
}

void PolicyEngine::on_hold(const Conn& c, TimeNs now) {
  held_.insert(c);
  upsert(c, now, Event::kHold);
}

bool PolicyEngine::settle_front(const EngineView& v) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const auto it = entries_.find(top.conn);
    if (it != entries_.end() && rank_->rank(it->second, v) == top.key) {
      return true;  // live: this key is the entry's current rank
    }
    // Stale: the connection was released, or was re-ranked by a later
    // touch (its current key sits elsewhere in the heap).
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) {
                    return later(a.key, a.conn, b.key, b.conn);
                  });
    heap_.pop_back();
  }
  return false;
}

std::vector<Conn> PolicyEngine::collect_evictions(TimeNs now) {
  std::vector<Conn> evict;
  const EngineView v = view(now);
  const auto pop_front = [&] {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) {
                    return later(a.key, a.conn, b.key, b.conn);
                  });
    heap_.pop_back();
  };

  // Idle-TTL safety valve (capacity policies only): expire by last_use so
  // a drained network cannot wedge on held slots that nothing overflows.
  // The batch is sorted below, so map iteration order cannot leak out.
  if (idle_ttl_ > TimeNs{0}) {
    auto it = entries_.begin();  // pmx-lint: allow(unordered-iter)
    while (it != entries_.end()) {
      if (it->second.last_use.ns() + idle_ttl_.ns() <= now.ns()) {
        evict.push_back(it->first);
        held_.erase(it->first);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Deadline expiry: everything ranked at or below the policy's horizon.
  const Rank horizon = rank_->horizon(v);
  if (horizon != kNoHorizon) {
    while (settle_front(v) && heap_.front().key <= horizon) {
      evict.push_back(heap_.front().conn);
      entries_.erase(heap_.front().conn);
      held_.erase(heap_.front().conn);
      pop_front();
    }
  }

  // Capacity overflow: shed lowest-ranked entries until the set fits.
  const std::size_t cap = rank_->capacity();
  if (cap > 0) {
    while (entries_.size() > cap && settle_front(v)) {
      evict.push_back(heap_.front().conn);
      entries_.erase(heap_.front().conn);
      held_.erase(heap_.front().conn);
      pop_front();
    }
  }

  compact_if_oversized(v);
  sort_evictions(evict);
  return evict;
}

void PolicyEngine::compact_if_oversized(const EngineView& v) {
  if (heap_.size() <= 64 || heap_.size() <= 4 * entries_.size()) {
    return;
  }
  // Rebuild with exactly one live key per tracked entry. Visit order is
  // irrelevant: the comparator's total order makes the pop sequence of a
  // heap independent of its construction order.
  heap_.clear();
  heap_.reserve(entries_.size());
  for (const auto& [c, s] : entries_) {  // pmx-lint: allow(unordered-iter)
    heap_.push_back(HeapEntry{rank_->rank(s, v), c});
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return later(a.key, a.conn, b.key, b.conn);
                 });
}

void PolicyEngine::on_flush() {
  // A flush forgets every learned entry (and the scheduler resets its hold
  // matrix in the same breath) but keeps the global use epoch: the
  // pre-engine CounterPredictor's counters survived flushes the same way.
  entries_.clear();
  held_.clear();
  heap_.clear();
}

bool PolicyEngine::recommend_flush(TimeNs now) {
  return tracker_ && tracker_->phase_shifted(now);
}

std::unique_ptr<PolicyEngine> make_policy(const PolicySpec& spec) {
  spec.validate();
  std::unique_ptr<WorkingSetTracker> tracker;
  if (spec.policy == "phase") {
    tracker = std::make_unique<WorkingSetTracker>(kPhaseEpoch,
                                                  kPhaseShiftThreshold);
  }
  // Only the pure-capacity policies get the idle-TTL valve; the horizon
  // policies already expire on their own and must stay byte-identical to
  // the pre-engine predictors (conformance goldens).
  const bool capacity_policy = spec.policy == "lru" ||
                               spec.policy == "lfu-decay" ||
                               spec.policy == "hybrid";
  return std::make_unique<PolicyEngine>(spec.policy, make_rank_fn(spec),
                                        std::move(tracker),
                                        capacity_policy ? kIdleTtl : TimeNs{0});
}

}  // namespace pmx
