#include "src/wkld/synth.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/wkld/replay.h"

namespace hlrc {
namespace wkld {

namespace {

// Emits one node's records for one pattern. All randomness comes from a
// per-node Rng seeded from (cfg.seed, node), so streams are independent of
// generation order; the barrier/lock schedule is derived from the loop
// structure alone so it matches across nodes.
class Gen {
 public:
  Gen(const SynthConfig& cfg, WorkloadSink* sink, int node)
      : cfg_(cfg),
        sink_(sink),
        node_(node),
        rng_(cfg.seed * 0x9E3779B9ull + static_cast<uint64_t>(node) + 1),
        block_bytes_(cfg.pages_per_node * cfg.page_size) {}

  GlobalAddr BlockAddr(int n) const {
    return static_cast<GlobalAddr>(n) * static_cast<GlobalAddr>(block_bytes_);
  }

  void Compute() {
    Record rec;
    rec.kind = Record::Kind::kCompute;
    // Jitter in [0.5, 1.5) of the mean keeps nodes from running in lockstep.
    rec.duration_ns = cfg_.compute_ns / 2 + rng_.NextInt(0, std::max<int64_t>(cfg_.compute_ns, 1) - 1);
    sink_->Append(node_, rec);
  }

  // Reads a random subrange of [base, base+span).
  void ReadOp(GlobalAddr base, int64_t span) {
    const auto [addr, len] = PickRange(base, span);
    Record rec;
    rec.kind = Record::Kind::kAccess;
    rec.ranges.push_back(AccessRange{addr, len, false});
    sink_->Append(node_, rec);
  }

  // Writes random bytes to a random subrange of [base, base+span).
  void WriteOp(GlobalAddr base, int64_t span) {
    const auto [addr, len] = PickRange(base, span);
    WriteExact(addr, len);
  }

  void WriteExact(GlobalAddr addr, int64_t len) {
    Record access;
    access.kind = Record::Kind::kAccess;
    access.ranges.push_back(AccessRange{addr, len, true});
    sink_->Append(node_, access);
    Record writes;
    writes.kind = Record::Kind::kWrites;
    WriteRun run;
    run.addr = addr;
    run.bytes.resize(static_cast<size_t>(len));
    for (uint8_t& b : run.bytes) {
      b = static_cast<uint8_t>(rng_.NextBounded(256));
    }
    writes.runs.push_back(std::move(run));
    sink_->Append(node_, writes);
  }

  void Sync(Record::Kind kind, int64_t id) {
    Record rec;
    rec.kind = kind;
    rec.sync_id = id;
    sink_->Append(node_, rec);
  }

  void End() { Sync(Record::Kind::kEnd, 0); }

  Rng& rng() { return rng_; }
  int64_t block_bytes() const { return block_bytes_; }

 private:
  std::pair<GlobalAddr, int64_t> PickRange(GlobalAddr base, int64_t span) {
    const int64_t len = std::min<int64_t>(span, rng_.NextInt(16, 256) & ~7ll);
    const int64_t off = rng_.NextInt(0, span - len) & ~7ll;
    return {base + static_cast<GlobalAddr>(off), len};
  }

  const SynthConfig& cfg_;
  WorkloadSink* sink_;
  int node_;
  Rng rng_;
  int64_t block_bytes_;
};

void GenNode(const SynthConfig& cfg, WorkloadSink* sink, int node) {
  Gen g(cfg, sink, node);
  const GlobalAddr own = g.BlockAddr(node);
  const GlobalAddr hot = g.BlockAddr(0);
  const int64_t block = g.block_bytes();
  const int p = cfg.nodes;

  for (int it = 0; it < cfg.iterations; ++it) {
    g.Sync(Record::Kind::kPhase, it);
    switch (cfg.pattern) {
      case SynthPattern::kSingleWriter:
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          if (g.rng().NextBool(cfg.write_frac)) {
            g.WriteOp(own, block);  // Writes never leave the node's block.
          } else if (g.rng().NextBool(cfg.locality)) {
            g.ReadOp(own, block);
          } else {
            g.ReadOp(g.BlockAddr(static_cast<int>(g.rng().NextBounded(
                         static_cast<uint64_t>(p)))),
                     block);
          }
        }
        g.Sync(Record::Kind::kBarrier, it);
        break;

      case SynthPattern::kMigratory:
        // The whole object follows the lock around: read-modify-write.
        g.Compute();
        g.Sync(Record::Kind::kLock, 0);
        g.ReadOp(hot, block);
        g.WriteOp(hot, block);
        g.Sync(Record::Kind::kUnlock, 0);
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          g.ReadOp(own, block);
        }
        g.Sync(Record::Kind::kBarrier, it);
        break;

      case SynthPattern::kProducerConsumer:
        // Produce into the own block, hand off at a barrier, consume the
        // left neighbor's block.
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          g.WriteOp(own, block);
        }
        g.Sync(Record::Kind::kBarrier, 2 * it);
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          g.ReadOp(g.BlockAddr((node + p - 1) % p), block);
        }
        g.Sync(Record::Kind::kBarrier, 2 * it + 1);
        break;

      case SynthPattern::kFalseSharing: {
        // Every node stores into its private slice of the shared block's
        // pages: no data races, maximal page-level write sharing.
        const int64_t slice = cfg.page_size / p;
        HLRC_CHECK_MSG(slice >= 16, "false-sharing needs page_size/nodes >= 16");
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          const int64_t page = g.rng().NextInt(0, cfg.pages_per_node - 1);
          const GlobalAddr mine =
              hot + static_cast<GlobalAddr>(page * cfg.page_size + node * slice);
          if (g.rng().NextBool(cfg.write_frac)) {
            g.WriteOp(mine, slice);
          } else {
            g.ReadOp(hot + static_cast<GlobalAddr>(page * cfg.page_size), cfg.page_size);
          }
        }
        g.Sync(Record::Kind::kBarrier, it);
        break;
      }

      case SynthPattern::kHotspot:
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          const bool local = g.rng().NextBool(cfg.locality);
          const GlobalAddr base = local ? own : hot;
          if (node != 0 && !local && g.rng().NextBool(cfg.write_frac)) {
            // Remote writes to node 0's block: the hotspot-home case. Slice
            // by node (as in false-sharing) to keep stores race-free.
            const int64_t slice = block / p;
            g.WriteOp(hot + static_cast<GlobalAddr>(node) * static_cast<GlobalAddr>(slice),
                      slice);
          } else if (g.rng().NextBool(cfg.write_frac) && local) {
            g.WriteOp(own, block);
          } else {
            g.ReadOp(base, block);
          }
        }
        g.Sync(Record::Kind::kBarrier, it);
        break;

      case SynthPattern::kReadMostly:
        if (node == 0) {
          // The single writer refreshes a few table entries...
          for (int op = 0; op < std::max(1, cfg.ops_per_iter / 4); ++op) {
            g.Compute();
            g.WriteOp(hot, block);
          }
        }
        g.Sync(Record::Kind::kBarrier, 2 * it);
        // ...then everyone (writer included) reads the table.
        for (int op = 0; op < cfg.ops_per_iter; ++op) {
          g.Compute();
          g.ReadOp(hot, block);
        }
        g.Sync(Record::Kind::kBarrier, 2 * it + 1);
        break;
    }
  }
  g.Sync(Record::Kind::kPhase, cfg.iterations);
  g.End();
}

class SyntheticApp : public App {
 public:
  explicit SyntheticApp(SynthConfig cfg) : cfg_(cfg) {}

  std::string name() const override {
    return std::string("synth-") + SynthPatternName(cfg_.pattern);
  }

  std::string ConfigError(const SimConfig& config) const override {
    if (config.page_size >= kMinSynthPageSize) {
      return "";
    }
    return "--page-size=" + std::to_string(config.page_size) + ": expected at least " +
           std::to_string(kMinSynthPageSize) + " for " + name();
  }

  void Setup(System& sys) override {
    // Adapt to the actual topology: synthetic workloads sweep node count and
    // page size, unlike file-trace replay.
    cfg_.nodes = sys.config().nodes;
    cfg_.page_size = sys.config().page_size;
    cfg_.shared_bytes = sys.config().shared_bytes;
    workload_ = std::make_unique<VectorSink>(cfg_.nodes);
    GenerateSynthetic(cfg_, workload_.get());
    for (const AllocEntry& a : workload_->allocs()) {
      const GlobalAddr addr = a.page_aligned ? sys.space().AllocPageAligned(a.bytes)
                                             : sys.space().Alloc(a.bytes);
      HLRC_CHECK_MSG(addr == a.addr,
                     "synthetic workload expects a fresh shared space (allocation "
                     "landed at 0x%llx, expected 0x%llx)",
                     static_cast<unsigned long long>(addr),
                     static_cast<unsigned long long>(a.addr));
    }
    completed_.assign(static_cast<size_t>(cfg_.nodes), 0);
  }

  System::Program Program() override {
    return [this](NodeContext& ctx) -> Task<void> {
      return [](SyntheticApp* self, NodeContext& ctx) -> Task<void> {
        const std::vector<Record>& stream = self->workload_->stream(ctx.id());
        size_t pos = 0;
        co_await ReplayStream(ctx, [&stream, &pos](Record* rec) {
          if (pos == stream.size()) {
            return false;
          }
          *rec = stream[pos++];
          return true;
        });
        self->completed_[static_cast<size_t>(ctx.id())] = 1;
      }(this, ctx);
    };
  }

  bool Verify(System& sys, std::string* why) override {
    (void)sys;
    for (size_t n = 0; n < completed_.size(); ++n) {
      if (!completed_[n]) {
        if (why != nullptr) {
          *why = name() + ": node " + std::to_string(n) + " did not finish its stream";
        }
        return false;
      }
    }
    return true;
  }

 private:
  SynthConfig cfg_;
  std::unique_ptr<VectorSink> workload_;
  std::vector<char> completed_;
};

SynthConfig ScaledConfig(SynthPattern pattern, AppScale scale, std::optional<uint64_t> seed) {
  SynthConfig cfg;
  cfg.pattern = pattern;
  switch (scale) {
    case AppScale::kTiny:
      cfg.pages_per_node = 2;
      cfg.iterations = 4;
      cfg.ops_per_iter = 8;
      break;
    case AppScale::kDefault:
      break;  // Struct defaults.
    case AppScale::kPaper:
      cfg.pages_per_node = 8;
      cfg.iterations = 16;
      cfg.ops_per_iter = 32;
      break;
  }
  if (seed) {
    cfg.seed = *seed;
  }
  return cfg;
}

// One registrar per pattern so `svmsim --app synth-<pattern>` works like any
// other application.
const AppRegistrar kSynthRegistrars[] = {
    {"synth-single-writer",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kSingleWriter, s, seed));
     }},
    {"synth-migratory",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kMigratory, s, seed));
     }},
    {"synth-prodcons",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kProducerConsumer, s, seed));
     }},
    {"synth-false-sharing",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kFalseSharing, s, seed));
     }},
    {"synth-hotspot",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kHotspot, s, seed));
     }},
    {"synth-read-mostly",
     [](AppScale s, std::optional<uint64_t> seed) {
       return MakeSyntheticApp(ScaledConfig(SynthPattern::kReadMostly, s, seed));
     }},
};

}  // namespace

const std::vector<std::string>& SynthPatternNames() {
  static const std::vector<std::string> names = {
      "single-writer", "migratory", "prodcons", "false-sharing", "hotspot", "read-mostly",
  };
  return names;
}

const char* SynthPatternName(SynthPattern pattern) {
  return SynthPatternNames()[static_cast<size_t>(pattern)].c_str();
}

bool ParseSynthPattern(const std::string& name, SynthPattern* pattern) {
  const std::vector<std::string>& names = SynthPatternNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      *pattern = static_cast<SynthPattern>(i);
      return true;
    }
  }
  return false;
}

void GenerateSynthetic(const SynthConfig& cfg, WorkloadSink* sink) {
  HLRC_CHECK(cfg.nodes > 0 && cfg.pages_per_node > 0 && cfg.iterations >= 0);
  HLRC_CHECK(cfg.page_size >= kMinSynthPageSize && cfg.page_size % 16 == 0);
  const int64_t arena = static_cast<int64_t>(cfg.nodes) * cfg.pages_per_node * cfg.page_size;
  // A fresh SharedSpace bump allocator starts at 0, so one page-aligned
  // arena allocation is reproducible by construction.
  sink->Alloc(AllocEntry{0, arena, /*page_aligned=*/true});
  for (int node = 0; node < cfg.nodes; ++node) {
    GenNode(cfg, sink, node);
  }
}

void WriteSyntheticTrace(const std::string& path, const SynthConfig& cfg) {
  VectorSink workload(cfg.nodes);
  GenerateSynthetic(cfg, &workload);
  TraceInfo info;
  info.nodes = cfg.nodes;
  info.page_size = cfg.page_size;
  info.shared_bytes = cfg.shared_bytes;
  info.app = std::string("synth-") + SynthPatternName(cfg.pattern);
  info.meta = "pattern=" + std::string(SynthPatternName(cfg.pattern)) +
              " seed=" + std::to_string(cfg.seed) +
              " iterations=" + std::to_string(cfg.iterations) +
              " ops_per_iter=" + std::to_string(cfg.ops_per_iter) +
              " pages_per_node=" + std::to_string(cfg.pages_per_node) +
              " write_frac=" + std::to_string(cfg.write_frac) +
              " locality=" + std::to_string(cfg.locality);
  info.allocs = workload.allocs();
  TraceWriter writer(path, std::move(info));
  for (int node = 0; node < cfg.nodes; ++node) {
    for (const Record& rec : workload.stream(node)) {
      writer.Append(node, rec);
    }
  }
  writer.Finish();
}

std::unique_ptr<App> MakeSyntheticApp(const SynthConfig& cfg) {
  return std::make_unique<SyntheticApp>(cfg);
}

}  // namespace wkld
}  // namespace hlrc
