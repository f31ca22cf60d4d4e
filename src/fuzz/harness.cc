#include "src/fuzz/harness.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "src/check/explorer.h"
#include "src/check/oracle.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/svm/system.h"

namespace hlrc {
namespace fuzz {
namespace {

using wkld::Record;

// Globally unique, nonzero store value for (node, per-node op counter).
uint64_t StoreValue(NodeId node, uint64_t ctr) {
  return (static_cast<uint64_t>(node) + 1) << 40 | ((ctr + 1) << 8) | 1;
}

// Deterministic sample of up to 4 aligned words in [addr, addr+bytes): the
// first word, the last, and up to two hashed interior picks. Identical
// across protocols, so final-image vectors align in the differential diff.
void SampleWords(GlobalAddr addr, int64_t bytes, std::vector<GlobalAddr>* out) {
  const GlobalAddr first = (addr + 7) & ~static_cast<GlobalAddr>(7);
  const GlobalAddr end = addr + static_cast<GlobalAddr>(bytes);
  if (first + 8 > end) {
    return;
  }
  const GlobalAddr last = (end - 8) & ~static_cast<GlobalAddr>(7);
  out->push_back(first);
  const uint64_t nwords = (last - first) / 8 + 1;
  if (nwords >= 3) {
    uint64_t h = first * 0x9e3779b97f4a7c15ULL + nwords;
    h ^= h >> 29;
    const uint64_t i1 = 1 + h % (nwords - 2);
    out->push_back(first + i1 * 8);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    const uint64_t i2 = 1 + h % (nwords - 2);
    if (i2 != i1) {
      out->push_back(first + i2 * 8);
    }
  }
  if (last != first) {
    out->push_back(last);
  }
}

// Static per-word write analysis over the genome's program order.
struct WordInfo {
  NodeId writer = kInvalidNode;
  bool multi = false;           // More than one writing node.
  uint64_t last_value = 0;      // Program-order-last value of `writer`.
};

struct HarnessState {
  const WorkloadGenome* genome = nullptr;
  BarrierId final_barrier = 0;
  std::map<GlobalAddr, WordInfo> words;
  std::vector<GlobalAddr> check_addrs;  // Sorted single-writer words, capped.
  std::vector<uint64_t> final_values;   // Filled by node 0 post-barrier.
  std::vector<std::string> violations;  // Final-image mismatches.
};

constexpr size_t kMaxCheckedWords = 64;

void Prescan(HarnessState* st) {
  const WorkloadGenome& g = *st->genome;
  BarrierId max_barrier = 0;
  std::vector<GlobalAddr> sample;
  for (int n = 0; n < g.nodes; ++n) {
    uint64_t ctr = 0;
    for (const Record& rec : g.streams[static_cast<size_t>(n)]) {
      if (rec.kind == Record::Kind::kBarrier) {
        max_barrier = std::max(max_barrier, static_cast<BarrierId>(rec.sync_id));
      }
      if (rec.kind != Record::Kind::kAccess) {
        continue;
      }
      for (const AccessRange& r : rec.ranges) {
        sample.clear();
        SampleWords(r.addr, r.bytes, &sample);
        if (!r.write) {
          continue;
        }
        for (GlobalAddr w : sample) {
          WordInfo& info = st->words[w];
          if (info.writer == kInvalidNode) {
            info.writer = n;
          } else if (info.writer != n) {
            info.multi = true;
          }
          if (info.writer == n) {
            info.last_value = StoreValue(n, ctr);
          }
          ++ctr;
        }
      }
    }
  }
  st->final_barrier = max_barrier + 1;

  std::vector<GlobalAddr> single;
  for (const auto& [addr, info] : st->words) {
    if (info.writer != kInvalidNode && !info.multi) {
      single.push_back(addr);
    }
  }
  // Evenly-spaced cap keeps the check O(1)-ish while still spanning the
  // touched address range.
  const size_t step = std::max<size_t>(1, single.size() / kMaxCheckedWords);
  for (size_t i = 0; i < single.size() && st->check_addrs.size() < kMaxCheckedWords;
       i += step) {
    st->check_addrs.push_back(single[i]);
  }
}

Task<void> RunNode(HarnessState* st, NodeContext& ctx) {
  const int node = ctx.id();
  const std::vector<Record>& stream =
      st->genome->streams[static_cast<size_t>(node)];
  uint64_t ctr = 0;
  std::vector<GlobalAddr> sample;
  bool ended = false;
  for (const Record& rec : stream) {
    if (ended) {
      break;
    }
    switch (rec.kind) {
      case Record::Kind::kCompute:
        co_await ctx.Compute(rec.duration_ns);
        break;
      case Record::Kind::kAccess:
        for (const AccessRange& r : rec.ranges) {
          sample.clear();
          SampleWords(r.addr, r.bytes, &sample);
          for (GlobalAddr w : sample) {
            if (r.write) {
              co_await ctx.StoreWord(w, StoreValue(node, ctr));
              ++ctr;
            } else {
              co_await ctx.LoadWord(w);
            }
          }
        }
        break;
      case Record::Kind::kLock:
        co_await ctx.Lock(static_cast<LockId>(rec.sync_id));
        break;
      case Record::Kind::kUnlock:
        co_await ctx.Unlock(static_cast<LockId>(rec.sync_id));
        break;
      case Record::Kind::kBarrier:
        co_await ctx.Barrier(static_cast<BarrierId>(rec.sync_id));
        break;
      case Record::Kind::kWrites:
      case Record::Kind::kPhase:
        break;  // The harness performs its own stores; phases are cosmetic.
      case Record::Kind::kEnd:
        ended = true;
        break;
    }
  }

  // Quiesce: the final barrier orders every write of every node before the
  // image readback below.
  co_await ctx.Barrier(st->final_barrier);
  if (node == 0) {
    for (GlobalAddr addr : st->check_addrs) {
      const uint64_t got = co_await ctx.LoadWord(addr);
      st->final_values.push_back(got);
      const WordInfo& info = st->words.at(addr);
      if (got != info.last_value) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "final-image: word 0x%llx expected 0x%llx (node %d's last "
                      "write) but read 0x%llx",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(info.last_value), info.writer,
                      static_cast<unsigned long long>(got));
        st->violations.push_back(buf);
      }
    }
  }
  co_return;
}

}  // namespace

RunOutcome RunGenome(const FuzzInput& input, const HarnessConfig& config,
                     CoverageObserver* cov) {
  const WorkloadGenome& g = input.workload;
  HLRC_CHECK(g.nodes > 0 && static_cast<int>(g.streams.size()) == g.nodes);

  SimConfig sim;
  sim.nodes = g.nodes;
  sim.page_size = g.page_size;
  sim.shared_bytes = g.shared_bytes;
  sim.seed = input.schedule.seed;
  sim.protocol.kind = config.protocol;
  sim.protocol.mutation = config.mutation;
  sim.protocol.home_policy = config.home_policy;
  sim.protocol.migrate_homes = config.migrate_homes;
  sim.fault = config.fault;
  sim.reliability = config.reliability;
  if (sim.fault.Active()) {
    if (sim.fault.seed == 0) {
      // Derive the loss pattern from the schedule seed, like svmcheck.
      sim.fault.seed = Rng(input.schedule.seed).NextU64();
    }
    // A dropped grant or barrier release on a lossless-transport protocol is
    // a deadlock, which System::Run treats as fatal: always pair injected
    // faults with the reliable-delivery layer.
    sim.reliability.enabled = true;
  }

  System sys(sim);
  for (const wkld::AllocEntry& a : g.allocs) {
    const GlobalAddr addr = a.page_aligned ? sys.space().AllocPageAligned(a.bytes)
                                           : sys.space().Alloc(a.bytes);
    HLRC_CHECK_MSG(addr == a.addr, "genome allocation landed at 0x%llx, expected 0x%llx",
                   static_cast<unsigned long long>(addr),
                   static_cast<unsigned long long>(a.addr));
  }

  LrcOracle oracle(g.nodes);
  sys.SetAccessObserver(&oracle);
  if (cov != nullptr) {
    sys.SetCoverageObserver(cov);
  }

  // The checker's decision stream with the genome's prefix pinned.
  ChaosStream chaos(input.schedule.seed, input.schedule.max_jitter,
                    std::numeric_limits<uint64_t>::max(), &input.schedule.prefix);
  chaos.Install(sys, config.permute_tasks);

  HarnessState state;
  state.genome = &g;
  Prescan(&state);

  sys.Run([&state](NodeContext& ctx) -> Task<void> { return RunNode(&state, ctx); });

  RunOutcome out;
  for (const OracleViolation& v : oracle.violations()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "oracle: node %d read 0x%llx = 0x%llx: ",
                  v.read.node, static_cast<unsigned long long>(v.read.addr),
                  static_cast<unsigned long long>(v.read.value));
    out.violations.push_back(buf + v.description);
  }
  out.violations.insert(out.violations.end(), state.violations.begin(),
                        state.violations.end());
  out.ok = out.violations.empty();
  out.final_addrs = std::move(state.check_addrs);
  out.final_words = std::move(state.final_values);
  const NodeReport totals = sys.report().Totals();
  out.lock_acquires = totals.proto.lock_acquires;
  out.barriers = totals.proto.barriers;
  out.reads_checked = oracle.reads_checked();
  out.decisions_used = chaos.count();
  out.sim_time = sys.report().total_time;
  return out;
}

DifferentialResult RunDifferential(const FuzzInput& input, const HarnessConfig& base,
                                   const std::vector<ProtocolKind>& protocols,
                                   CoverageMap* aggregate) {
  DifferentialResult diff;
  HLRC_CHECK(!protocols.empty());
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(protocols.size());
  for (ProtocolKind p : protocols) {
    HarnessConfig hc = base;
    hc.protocol = p;
    CoverageMap local(static_cast<uint64_t>(p) + 1);
    outcomes.push_back(RunGenome(input, hc, &local));
    ++diff.runs;
    if (aggregate != nullptr) {
      aggregate->MergeNovel(local);
    }
  }
  const RunOutcome& ref = outcomes[0];
  for (size_t i = 0; i < protocols.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    const char* name = ProtocolName(protocols[i]);
    for (const std::string& v : o.violations) {
      diff.diverged = true;
      diff.reports.push_back(std::string(name) + ": " + v);
    }
    if (i == 0) {
      continue;
    }
    if (o.final_words != ref.final_words) {
      diff.diverged = true;
      for (size_t w = 0; w < o.final_words.size() && w < ref.final_words.size(); ++w) {
        if (o.final_words[w] != ref.final_words[w]) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "divergence: word 0x%llx is 0x%llx under %s but 0x%llx under %s",
                        static_cast<unsigned long long>(ref.final_addrs[w]),
                        static_cast<unsigned long long>(ref.final_words[w]),
                        ProtocolName(protocols[0]),
                        static_cast<unsigned long long>(o.final_words[w]), name);
          diff.reports.push_back(buf);
        }
      }
    }
    if (o.lock_acquires != ref.lock_acquires || o.barriers != ref.barriers) {
      diff.diverged = true;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "divergence: %s ran %lld acquires / %lld barriers, %s ran "
                    "%lld / %lld",
                    ProtocolName(protocols[0]), static_cast<long long>(ref.lock_acquires),
                    static_cast<long long>(ref.barriers), name,
                    static_cast<long long>(o.lock_acquires),
                    static_cast<long long>(o.barriers));
      diff.reports.push_back(buf);
    }
  }
  return diff;
}

}  // namespace fuzz
}  // namespace hlrc
