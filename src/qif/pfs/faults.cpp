#include "qif/pfs/faults.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "qif/pfs/cluster.hpp"

namespace qif::pfs::faults {

namespace {

// ---------------------------------------------------------------------------
// Spec parsing.  Strict by design: any token we do not understand is an
// error with the clause number and character offset, never a silent default.
// ---------------------------------------------------------------------------

[[noreturn]] void fail_at(int clause, std::size_t offset, const std::string& what) {
  throw std::invalid_argument("fault plan: clause " + std::to_string(clause) +
                              ", offset " + std::to_string(offset) + ": " + what);
}

struct KeyValue {
  std::string key;
  double value = 0.0;
  std::size_t offset = 0;  // of the key, within the full spec
};

// Splits "k1=v1,k2=v2" (the clause body after "kind:") into typed pairs.
std::vector<KeyValue> parse_pairs(const std::string& spec, std::size_t begin,
                                  std::size_t end, int clause) {
  std::vector<KeyValue> pairs;
  std::size_t pos = begin;
  while (pos < end) {
    std::size_t item_end = spec.find(',', pos);
    if (item_end == std::string::npos || item_end > end) item_end = end;
    const std::size_t eq = spec.find('=', pos);
    if (eq == std::string::npos || eq >= item_end) {
      fail_at(clause, pos, "expected key=value");
    }
    KeyValue kv;
    kv.key = spec.substr(pos, eq - pos);
    kv.offset = pos;
    if (kv.key.empty()) fail_at(clause, pos, "empty key");
    const char* first = spec.data() + eq + 1;
    const char* last = spec.data() + item_end;
    if (first == last) fail_at(clause, eq + 1, "empty value for '" + kv.key + "'");
    const auto [ptr, ec] = std::from_chars(first, last, kv.value);
    if (ec != std::errc{} || ptr != last) {
      fail_at(clause, eq + 1,
              "bad number '" + std::string(first, last) + "' for '" + kv.key + "'");
    }
    pairs.push_back(std::move(kv));
    pos = item_end < end ? item_end + 1 : end;
  }
  return pairs;
}

sim::SimDuration seconds_to_sim(double s) { return sim::from_seconds(s); }

double take(std::vector<KeyValue>& pairs, const std::string& key, int clause,
            std::size_t clause_off, bool required, double fallback) {
  for (auto it = pairs.begin(); it != pairs.end(); ++it) {
    if (it->key == key) {
      const double v = it->value;
      pairs.erase(it);
      return v;
    }
  }
  if (required) fail_at(clause, clause_off, "missing required key '" + key + "'");
  return fallback;
}

void reject_leftovers(const std::vector<KeyValue>& pairs, int clause) {
  if (!pairs.empty()) {
    fail_at(clause, pairs.front().offset, "unknown key '" + pairs.front().key + "'");
  }
}

std::string format_seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  int clause = 0;
  while (pos < spec.size()) {
    std::size_t clause_end = spec.find(';', pos);
    if (clause_end == std::string::npos) clause_end = spec.size();
    ++clause;
    if (clause_end == pos) fail_at(clause, pos, "empty clause");
    const std::size_t colon = spec.find(':', pos);
    if (colon == std::string::npos || colon >= clause_end) {
      fail_at(clause, pos, "expected 'kind:' prefix (slow|stall|drop)");
    }
    const std::string kind = spec.substr(pos, colon - pos);
    auto pairs = parse_pairs(spec, colon + 1, clause_end, clause);
    if (kind == "slow") {
      SlowDisk f;
      const double ost = take(pairs, "ost", clause, pos, true, 0);
      f.ost = static_cast<OstId>(ost);
      if (static_cast<double>(f.ost) != ost || f.ost < 0) {
        fail_at(clause, pos, "ost must be a non-negative integer");
      }
      f.start = seconds_to_sim(take(pairs, "start", clause, pos, true, 0));
      f.duration = seconds_to_sim(take(pairs, "dur", clause, pos, true, 0));
      f.factor = take(pairs, "factor", clause, pos, true, 1.0);
      if (f.factor < 1.0) fail_at(clause, pos, "factor must be >= 1");
      if (f.start < 0 || f.duration <= 0) {
        fail_at(clause, pos, "need start >= 0 and dur > 0");
      }
      reject_leftovers(pairs, clause);
      plan.slow_disks.push_back(f);
    } else if (kind == "stall") {
      Stall f;
      const double ost = take(pairs, "ost", clause, pos, true, 0);
      f.ost = static_cast<OstId>(ost);
      if (static_cast<double>(f.ost) != ost || f.ost < 0) {
        fail_at(clause, pos, "ost must be a non-negative integer");
      }
      f.start = seconds_to_sim(take(pairs, "start", clause, pos, true, 0));
      f.duration = seconds_to_sim(take(pairs, "dur", clause, pos, true, 0));
      if (f.start < 0 || f.duration <= 0) {
        fail_at(clause, pos, "need start >= 0 and dur > 0");
      }
      reject_leftovers(pairs, clause);
      plan.stalls.push_back(f);
    } else if (kind == "drop") {
      RpcLoss f;
      f.probability = take(pairs, "p", clause, pos, true, 0);
      if (f.probability < 0.0 || f.probability > 1.0) {
        fail_at(clause, pos, "p must be in [0,1]");
      }
      f.start = seconds_to_sim(take(pairs, "start", clause, pos, true, 0));
      f.duration = seconds_to_sim(take(pairs, "dur", clause, pos, true, 0));
      if (f.start < 0 || f.duration <= 0) {
        fail_at(clause, pos, "need start >= 0 and dur > 0");
      }
      reject_leftovers(pairs, clause);
      plan.rpc_loss.push_back(f);
    } else {
      fail_at(clause, pos, "unknown fault kind '" + kind + "'");
    }
    pos = clause_end < spec.size() ? clause_end + 1 : spec.size();
  }
  return plan;
}

std::string to_spec(const FaultPlan& plan) {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  for (const auto& f : plan.slow_disks) {
    sep();
    os << "slow:ost=" << f.ost << ",start=" << format_seconds(sim::to_seconds(f.start))
       << ",dur=" << format_seconds(sim::to_seconds(f.duration))
       << ",factor=" << format_seconds(f.factor);
  }
  for (const auto& f : plan.stalls) {
    sep();
    os << "stall:ost=" << f.ost << ",start=" << format_seconds(sim::to_seconds(f.start))
       << ",dur=" << format_seconds(sim::to_seconds(f.duration));
  }
  for (const auto& f : plan.rpc_loss) {
    sep();
    os << "drop:p=" << format_seconds(f.probability)
       << ",start=" << format_seconds(sim::to_seconds(f.start))
       << ",dur=" << format_seconds(sim::to_seconds(f.duration));
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(Cluster& cluster, FaultPlan plan, std::uint64_t seed)
    : cluster_(cluster),
      plan_(std::move(plan)),
      rng_(sim::Rng::derive_seed(seed, "fault-injector")),
      ost_state_(static_cast<std::size_t>(cluster.n_osts())) {
  const int n = cluster_.n_osts();
  for (const auto& f : plan_.slow_disks) {
    if (f.ost < 0 || f.ost >= n) {
      throw std::invalid_argument("fault plan: slow-disk ost " + std::to_string(f.ost) +
                                  " out of range (cluster has " + std::to_string(n) +
                                  " OSTs)");
    }
    if (f.factor < 1.0) {
      throw std::invalid_argument("fault plan: slow-disk factor must be >= 1");
    }
  }
  for (const auto& f : plan_.stalls) {
    if (f.ost < 0 || f.ost >= n) {
      throw std::invalid_argument("fault plan: stall ost " + std::to_string(f.ost) +
                                  " out of range (cluster has " + std::to_string(n) +
                                  " OSTs)");
    }
  }
  for (const auto& f : plan_.rpc_loss) {
    if (f.probability < 0.0 || f.probability > 1.0) {
      throw std::invalid_argument("fault plan: loss probability must be in [0,1]");
    }
  }
  // Only wire gates into the fabric when the plan can actually drop
  // messages; otherwise the fabric keeps its gate-free (and branch-light)
  // healthy path.  One gate per resource, each with its own RNG stream
  // keyed by the resource's stable name — no shared mutable state between
  // resources.
  if (!plan_.rpc_loss.empty()) {
    cluster_.net().install_loss_gates(
        [this, seed](const std::string& resource) {
          auto gate = std::make_shared<LossGate>(LossGate{
              sim::Rng(sim::Rng::derive_seed(seed, "fault-loss/" + resource)), 0});
          loss_gates_.push_back(gate);
          return [this, gate]() {
            const double p = active_loss_probability();
            if (p <= 0.0) return false;  // no RNG draw outside loss windows
            const bool drop = gate->rng.chance(p);
            if (drop) ++gate->dropped;
            return drop;
          };
        });
  }
  schedule_episodes();
}

void FaultInjector::schedule_episodes() {
  auto& sim = cluster_.sim();
  for (const auto& f : plan_.slow_disks) {
    sim.schedule_at(f.start, [this, f] { apply_slow(f.ost, f.factor, true); });
    sim.schedule_at(f.start + f.duration,
                    [this, f] { apply_slow(f.ost, f.factor, false); });
  }
  for (const auto& f : plan_.stalls) {
    sim.schedule_at(f.start, [this, f] { apply_stall(f.ost, true); });
    sim.schedule_at(f.start + f.duration, [this, f] { apply_stall(f.ost, false); });
  }
  for (const auto& f : plan_.rpc_loss) {
    // The gates are pure time checks, but each window's boundaries still go
    // on the clock as no-op markers: an otherwise idle engine then advances
    // across the window, so active_loss_probability() and horizon-stepped
    // scenario loops observe it opening and closing.
    sim.schedule_at(f.start, [] {});
    sim.schedule_at(f.start + f.duration, [] {});
  }
}

void FaultInjector::apply_slow(OstId ost, double factor, bool activate) {
  auto& st = ost_state_[static_cast<std::size_t>(ost)];
  if (activate) {
    ++activations_;
    st.slow_factors.push_back(factor);
  } else {
    for (auto it = st.slow_factors.begin(); it != st.slow_factors.end(); ++it) {
      if (*it == factor) {
        st.slow_factors.erase(it);
        break;
      }
    }
  }
  // Recompute the product from the active set so that an empty set restores
  // exactly 1.0 (a divide-out would accumulate FP drift).
  double m = 1.0;
  for (const double f : st.slow_factors) m *= f;
  cluster_.ost(ost).disk().set_fault_multiplier(m);
}

void FaultInjector::apply_stall(OstId ost, bool activate) {
  auto& st = ost_state_[static_cast<std::size_t>(ost)];
  if (activate) {
    ++activations_;
    ++st.stall_depth;
  } else if (st.stall_depth > 0) {
    --st.stall_depth;
  }
  cluster_.ost(ost).disk().set_stalled(st.stall_depth > 0);
}

double FaultInjector::loss_probability_at(sim::SimTime t) const {
  // Independent overlapping windows compose as 1 - prod(1 - p_i); a window
  // is active on [start, start + duration), matching the old event-based
  // semantics (activation sorts before same-tick sends, deactivation too).
  double keep = 1.0;
  for (const auto& f : plan_.rpc_loss) {
    if (t >= f.start && t < f.start + f.duration) keep *= 1.0 - f.probability;
  }
  return 1.0 - keep;
}

double FaultInjector::active_loss_probability() const {
  return loss_probability_at(cluster_.sim().now());
}

std::uint64_t FaultInjector::messages_dropped() const {
  std::uint64_t n = messages_dropped_;
  for (const auto& g : loss_gates_) n += g->dropped;
  return n;
}

bool FaultInjector::should_drop_message() {
  const double p = active_loss_probability();
  if (p <= 0.0) return false;  // no RNG draw outside loss windows
  const bool drop = rng_.chance(p);
  if (drop) ++messages_dropped_;
  return drop;
}

}  // namespace qif::pfs::faults
