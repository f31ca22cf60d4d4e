#include "src/apps/litmus.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Base with the shared plumbing: per-node desynchronization and the
// one-slot-per-page address helpers.
class LitmusBase : public LitmusTest {
 public:
  explicit LitmusBase(const LitmusConfig& cfg) : cfg_(cfg) {
    HLRC_CHECK(cfg_.nodes >= 2);
    HLRC_CHECK(cfg_.rounds >= 1);
  }

  System::Program Program() override {
    return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
  }

 protected:
  virtual Task<void> NodeMain(NodeContext& ctx) = 0;

  Rng NodeRng(NodeId n) const { return Rng(cfg_.seed ^ (kGolden * (static_cast<uint64_t>(n) + 1))); }

  // A small random compute burst: desynchronizes the nodes so the same
  // program produces different interleavings under different seeds even
  // before the explorer's chaos hooks bite.
  Task<void> Jiggle(NodeContext& ctx, Rng& rng) {
    co_await ctx.Compute(static_cast<SimTime>(rng.NextBounded(20000)));
  }

  // Word slot `n` in a region of one page per node.
  GlobalAddr PagedSlot(GlobalAddr base, int64_t page_size, NodeId n) const {
    return base + static_cast<GlobalAddr>(n) * static_cast<GlobalAddr>(page_size);
  }

  LitmusConfig cfg_;
};

// ---------------------------------------------------------------------------
// message-passing: writer publishes data then a flag under its lock; the
// left neighbor polls the flag under the same lock and, on seeing this
// round's flag, must read this round's data (anything older is
// happens-before-masked by the lock chain). The poll is bounded: missing the
// handoff is legal, reading stale data is not.

class MessagePassingLitmus : public LitmusBase {
 public:
  using LitmusBase::LitmusBase;
  std::string name() const override { return "message-passing"; }

  void Setup(System& sys) override {
    page_size_ = sys.config().page_size;
    data_ = sys.space().AllocPageAligned(cfg_.nodes * page_size_);
    flag_ = sys.space().AllocPageAligned(cfg_.nodes * page_size_);
  }

 protected:
  Task<void> NodeMain(NodeContext& ctx) override {
    Rng rng = NodeRng(ctx.id());
    const NodeId n = ctx.id();
    const NodeId left = (n + ctx.nodes() - 1) % ctx.nodes();
    constexpr int kMaxPolls = 8;
    for (int r = 0; r < cfg_.rounds; ++r) {
      co_await Jiggle(ctx, rng);
      co_await ctx.Lock(100 + n);
      co_await ctx.StoreWord(PagedSlot(data_, page_size_, n), LitmusValue(n, r, 0));
      co_await ctx.StoreWord(PagedSlot(flag_, page_size_, n), LitmusValue(n, r, 1));
      co_await ctx.Unlock(100 + n);
      for (int poll = 0; poll < kMaxPolls; ++poll) {
        co_await ctx.Lock(100 + left);
        const uint64_t f = co_await ctx.LoadWord(PagedSlot(flag_, page_size_, left));
        const bool handed_over = f == LitmusValue(left, r, 1);
        if (handed_over) {
          co_await ctx.LoadWord(PagedSlot(data_, page_size_, left));
        }
        co_await ctx.Unlock(100 + left);
        if (handed_over) {
          break;
        }
        co_await ctx.Compute(Micros(20) + static_cast<SimTime>(rng.NextBounded(30000)));
      }
      co_await ctx.Barrier(1 + (r & 1));
    }
  }

 private:
  int64_t page_size_ = 0;
  GlobalAddr data_ = 0;
  GlobalAddr flag_ = 0;
};

// ---------------------------------------------------------------------------
// store-buffer: every node stores to its own variable, then reads the
// others' with no synchronization (any unmasked value is legal — seeing the
// concurrent write or not are both fine), then re-reads after a barrier,
// where only this round's values are legal.

class StoreBufferLitmus : public LitmusBase {
 public:
  using LitmusBase::LitmusBase;
  std::string name() const override { return "store-buffer"; }

  void Setup(System& sys) override {
    page_size_ = sys.config().page_size;
    x_ = sys.space().AllocPageAligned(cfg_.nodes * page_size_);
  }

 protected:
  Task<void> NodeMain(NodeContext& ctx) override {
    Rng rng = NodeRng(ctx.id());
    const NodeId n = ctx.id();
    for (int r = 0; r < cfg_.rounds; ++r) {
      co_await ctx.Barrier(1 + (r & 1) * 2);
      co_await Jiggle(ctx, rng);
      co_await ctx.StoreWord(PagedSlot(x_, page_size_, n), LitmusValue(n, r, 0));
      co_await ctx.LoadWord(PagedSlot(x_, page_size_, (n + 1) % ctx.nodes()));
      co_await ctx.Barrier(2 + (r & 1) * 2);
      for (NodeId k = 0; k < ctx.nodes(); ++k) {
        if (k != n) {
          co_await ctx.LoadWord(PagedSlot(x_, page_size_, k));
        }
      }
    }
  }

 private:
  int64_t page_size_ = 0;
  GlobalAddr x_ = 0;
};

// ---------------------------------------------------------------------------
// lock-handoff: two counters, each protected by its own lock, incremented by
// every node each round. The lock chain totally orders the increments, so a
// read under the lock may only return the immediately preceding increment —
// any lost update or stale counter read is masked and flagged.

class LockHandoffLitmus : public LitmusBase {
 public:
  using LitmusBase::LitmusBase;
  std::string name() const override { return "lock-handoff"; }

  void Setup(System& sys) override {
    page_size_ = sys.config().page_size;
    ctr_ = sys.space().AllocPageAligned(2 * page_size_);
  }

 protected:
  Task<void> NodeMain(NodeContext& ctx) override {
    Rng rng = NodeRng(ctx.id());
    const NodeId n = ctx.id();
    for (int r = 0; r < cfg_.rounds; ++r) {
      for (int i = 0; i < 2; ++i) {
        // Alternate the counter order per (node, round): varied lock
        // contention without nesting (locks are never held together).
        const int c = ((n + r) & 1) != 0 ? 1 - i : i;
        co_await ctx.Lock(200 + c);
        const uint64_t v = co_await ctx.LoadWord(PagedSlot(ctr_, page_size_, c));
        co_await ctx.StoreWord(PagedSlot(ctr_, page_size_, c), v + 1);
        co_await ctx.Unlock(200 + c);
        co_await Jiggle(ctx, rng);
      }
    }
    co_await ctx.Barrier(1);
    // Every increment happens-before these reads: only the final counts are
    // unmasked.
    co_await ctx.LoadWord(PagedSlot(ctr_, page_size_, 0));
    co_await ctx.LoadWord(PagedSlot(ctr_, page_size_, 1));
  }

 private:
  int64_t page_size_ = 0;
  GlobalAddr ctr_ = 0;
};

// ---------------------------------------------------------------------------
// barrier-propagation: each round, every node rewrites one whole block (one
// page), rotating ownership so most writes target remotely-homed pages; after
// the barrier every node reads a sample of every block and only this round's
// values are legal. This is the litmus that deterministically catches a home
// that loses a diff flush or a node that loses an invalidation.

class BarrierPropagationLitmus : public LitmusBase {
 public:
  using LitmusBase::LitmusBase;
  std::string name() const override { return "barrier-propagation"; }

  void Setup(System& sys) override {
    page_size_ = sys.config().page_size;
    words_ = static_cast<int>(page_size_ / 8);
    a_ = sys.space().AllocPageAligned(cfg_.nodes * page_size_);
  }

 protected:
  Task<void> NodeMain(NodeContext& ctx) override {
    Rng rng = NodeRng(ctx.id());
    const NodeId n = ctx.id();
    for (int r = 0; r < cfg_.rounds; ++r) {
      const NodeId block = (n + r) % ctx.nodes();
      const GlobalAddr base = PagedSlot(a_, page_size_, block);
      co_await ctx.Barrier(1 + (r & 1) * 2);
      co_await Jiggle(ctx, rng);
      for (int k = 0; k < words_; ++k) {
        co_await ctx.StoreWord(base + static_cast<GlobalAddr>(k) * 8, LitmusValue(n, r, k));
      }
      co_await ctx.Barrier(2 + (r & 1) * 2);
      for (NodeId b = 0; b < ctx.nodes(); ++b) {
        const GlobalAddr bb = PagedSlot(a_, page_size_, b);
        co_await ctx.LoadWord(bb);
        co_await ctx.LoadWord(bb + static_cast<GlobalAddr>(words_ / 2) * 8);
        co_await ctx.LoadWord(bb + static_cast<GlobalAddr>(words_ - 1) * 8);
      }
    }
  }

 private:
  int64_t page_size_ = 0;
  int words_ = 0;
  GlobalAddr a_ = 0;
};

// ---------------------------------------------------------------------------
// false-sharing: all nodes concurrently write their own word of one shared
// page. Mid-round reads of the neighbors' words are unsynchronized (either
// the old or the new value is legal); after the barrier, every node must see
// every concurrent write — a diff/update merge that loses a word is flagged.

class FalseSharingLitmus : public LitmusBase {
 public:
  using LitmusBase::LitmusBase;
  std::string name() const override { return "false-sharing"; }

  // One 8-byte word per node, all on one page.
  std::string ConfigError(int64_t page_size) const override {
    if (cfg_.nodes * 8 <= page_size) {
      return "";
    }
    return "--page-size=" + std::to_string(page_size) + ": expected at least " +
           std::to_string(cfg_.nodes * 8) + " for " + name() +
           " at --nodes=" + std::to_string(cfg_.nodes) + " (one 8-byte word per node)";
  }

  void Setup(System& sys) override {
    HLRC_CHECK(ConfigError(sys.config().page_size).empty());
    w_ = sys.space().AllocPageAligned(sys.config().page_size);
  }

 protected:
  Task<void> NodeMain(NodeContext& ctx) override {
    Rng rng = NodeRng(ctx.id());
    const NodeId n = ctx.id();
    for (int r = 0; r < cfg_.rounds; ++r) {
      co_await ctx.Barrier(1 + (r & 1) * 2);
      co_await Jiggle(ctx, rng);
      co_await ctx.StoreWord(w_ + static_cast<GlobalAddr>(n) * 8, LitmusValue(n, r, 0));
      co_await ctx.LoadWord(w_ + static_cast<GlobalAddr>((n + 1) % ctx.nodes()) * 8);
      co_await ctx.Barrier(2 + (r & 1) * 2);
      for (NodeId k = 0; k < ctx.nodes(); ++k) {
        co_await ctx.LoadWord(w_ + static_cast<GlobalAddr>(k) * 8);
      }
    }
  }

 private:
  GlobalAddr w_ = 0;
};

}  // namespace

const std::vector<std::string>& LitmusNames() {
  static const std::vector<std::string> names = {
      "message-passing", "store-buffer", "lock-handoff", "barrier-propagation",
      "false-sharing"};
  return names;
}

std::unique_ptr<LitmusTest> MakeLitmus(const std::string& name, const LitmusConfig& config) {
  if (name == "message-passing") {
    return std::make_unique<MessagePassingLitmus>(config);
  }
  if (name == "store-buffer") {
    return std::make_unique<StoreBufferLitmus>(config);
  }
  if (name == "lock-handoff") {
    return std::make_unique<LockHandoffLitmus>(config);
  }
  if (name == "barrier-propagation") {
    return std::make_unique<BarrierPropagationLitmus>(config);
  }
  if (name == "false-sharing") {
    return std::make_unique<FalseSharingLitmus>(config);
  }
  HLRC_CHECK_MSG(false, "unknown litmus test '%s'", name.c_str());
  return nullptr;
}

}  // namespace hlrc
