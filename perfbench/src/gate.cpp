#include "gate.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) { text(std::to_string(v)); }
  void add(std::int64_t v) { text(std::to_string(v)); }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    text(buf);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void text(const std::string& s) {
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    h_ = (h_ ^ static_cast<unsigned char>(';')) * 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace

std::uint64_t fingerprint(const pmx::RunMetrics& m) {
  Fnv f;
  f.add(m.makespan.ns());
  f.add(m.total_bytes);
  f.add(std::uint64_t{m.messages});
  for (const double d : {m.efficiency, m.throughput, m.avg_latency_ns,
                         m.p99_latency_ns, m.max_latency_ns,
                         m.wire_throughput, m.goodput}) {
    f.add(d);
  }
  for (const std::uint64_t u :
       {m.retransmits, m.crc_corruptions, m.duplicates, m.acks_lost,
        std::uint64_t{m.dropped_messages}, std::uint64_t{m.link_faults},
        std::uint64_t{m.forced_releases}}) {
    f.add(u);
  }
  for (const double d : {m.recovery_mean_ns, m.recovery_max_ns,
                         m.offered_load, m.accepted_load}) {
    f.add(d);
  }
  for (const std::uint64_t u :
       {std::uint64_t{m.shed_messages}, m.shed_bytes,
        std::uint64_t{m.shed_newest}, std::uint64_t{m.shed_oldest},
        std::uint64_t{m.shed_deadline}, std::uint64_t{m.shed_oversize},
        std::uint64_t{m.backpressure_rejects}, m.backpressure_stall_ns}) {
    f.add(u);
  }
  f.add(m.queue_depth_p50);
  f.add(m.queue_depth_p99);
  f.add(m.queue_depth_max);
  f.add(m.recovery_after_burst_ns);
  for (const std::uint64_t u :
       {m.ctrl_messages, m.ctrl_dropped, m.ctrl_corrupted, m.ctrl_delayed,
        m.ctrl_rerequests, m.lease_expiries, m.audits, m.audit_violations,
        m.resyncs}) {
    f.add(u);
  }
  f.add(m.resync_latency_mean_ns);
  f.add(m.resync_latency_max_ns);
  for (const std::uint64_t u :
       {m.reopt_solves, m.reopt_proposals, m.reopt_applies,
        m.reopt_rollbacks, m.reopt_cmds_lost, m.reopt_invalidated_ctrl}) {
    f.add(u);
  }
  f.add(m.reopt_apply_latency_p50_ns);
  f.add(m.reopt_apply_latency_p99_ns);
  f.add(m.reopt_dip_depth_bytes);
  f.add(m.reopt_dip_duration_ns);
  return f.value();
}

Expectation expectation_of(const pmx::RunResult& result) {
  const pmx::RunMetrics& m = result.metrics;
  return Expectation{result.completed,
                     m.messages,
                     m.shed_messages,
                     m.dropped_messages,
                     m.makespan.ns(),
                     fingerprint(m)};
}

void write_expectations(std::ostream& out, const Expectations& expected) {
  for (const auto& [key, e] : expected) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(e.fingerprint));
    out << key.first << '\t' << key.second << '\t' << (e.completed ? 1 : 0)
        << '\t' << e.delivered << '\t' << e.shed << '\t' << e.dropped << '\t'
        << e.makespan_ns << '\t' << fp << '\n';
  }
}

Expectations read_expectations(std::istream& in) {
  Expectations expected;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string name;
    int completed = 0;
    Expectation e;
    std::string fp;
    if (!(fields >> seed) || !fields.ignore(1) ||
        !std::getline(fields, name, '\t') ||
        !(fields >> completed >> e.delivered >> e.shed >> e.dropped >>
          e.makespan_ns >> fp) ||
        fp.size() != 16) {
      throw std::runtime_error("malformed expectation on line " +
                               std::to_string(lineno));
    }
    e.completed = completed != 0;
    e.fingerprint = std::stoull(fp, nullptr, 16);
    expected[{seed, name}] = e;
  }
  return expected;
}

Judgement judge(const PointSpec& spec, const pmx::RunResult& result,
                std::uint64_t submitted, const Expectation* expected) {
  const pmx::RunMetrics& m = result.metrics;
  std::ostringstream why;
  if (result.completed) {
    const std::uint64_t resolved =
        m.messages + m.shed_messages + m.dropped_messages;
    if (resolved != submitted) {
      why << "conservation: delivered " << m.messages << " + shed "
          << m.shed_messages << " + dropped " << m.dropped_messages
          << " != submitted " << submitted;
      return {Verdict::kWrong, why.str()};
    }
    if (expected == nullptr) {
      return {Verdict::kWrong, "no recorded result"};
    }
    const Expectation got = expectation_of(result);
    if (got != *expected) {
      why << "differs from the recorded result (delivered " << got.delivered
          << " vs " << expected->delivered << ", makespan " << got.makespan_ns
          << " vs " << expected->makespan_ns << " ns, fingerprint "
          << (got.fingerprint == expected->fingerprint ? "equal" : "differs")
          << ")";
      return {Verdict::kWrong, why.str()};
    }
  } else if (spec.declared_wedge && expected != nullptr &&
             !expected->completed && m.audit_violations == 0) {
    return {Verdict::kOk, ""};
  } else {
    if (expected != nullptr && expected->completed) {
      why << "recorded as drained, ";
    }
    why << "not drained: delivered " << m.messages << ", shed "
        << m.shed_messages << ", dropped " << m.dropped_messages << " of "
        << submitted << " submitted";
  }
  if (m.audit_violations != 0) {
    why << (why.tellp() > 0 ? "; " : "") << m.audit_violations
        << " audit violations in " << m.audits << " audits, " << m.resyncs
        << " resyncs";
  }
  return why.tellp() > 0 ? Judgement{Verdict::kFailed, why.str()}
                         : Judgement{Verdict::kOk, ""};
}

}  // namespace perfbench
