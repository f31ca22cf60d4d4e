#include "src/proto/protocol.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/cli.h"

namespace hlrc {

namespace {

// Table lookups behind the XName / ParseX pairs of options.h. Rows are in
// enumerator order, so a value indexes its own row.
template <typename Row, size_t N, typename E>
const char* Spell(const Row (&rows)[N], const char* Row::*spelling, E v) {
  const auto i = static_cast<size_t>(v);
  return i < N ? rows[i].*spelling : "?";
}

template <typename Row, size_t N, typename E>
bool Lookup(const Row (&rows)[N], const char* Row::*spelling, const std::string& s, E* out) {
  for (const Row& row : rows) {
    if (s == row.*spelling) {
      *out = row.value;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* ProtocolName(ProtocolKind k) {
  return Spell(kProtocolSpellings, &ProtocolSpelling::name, k);
}
const char* ProtocolFlag(ProtocolKind k) {
  return Spell(kProtocolSpellings, &ProtocolSpelling::flag, k);
}
bool ParseProtocolName(const std::string& s, ProtocolKind* out) {
  return Lookup(kProtocolSpellings, &ProtocolSpelling::name, s, out);
}
bool ParseProtocolFlag(const std::string& s, ProtocolKind* out) {
  return Lookup(kProtocolSpellings, &ProtocolSpelling::flag, s, out);
}
bool ParseProtocolFlags(const std::string& list, std::vector<ProtocolKind>* out) {
  const std::vector<std::string> names = SplitList(list);
  for (const std::string& name : names) {
    if (!ParseProtocolFlag(name, &out->emplace_back())) {
      return false;
    }
  }
  return !names.empty();
}

const char* HomePolicyName(HomePolicy p) {
  return Spell(kHomePolicyNames, &EnumName<HomePolicy>::name, p);
}
bool ParseHomePolicyName(const std::string& s, HomePolicy* out) {
  return Lookup(kHomePolicyNames, &EnumName<HomePolicy>::name, s, out);
}

const char* DiffPolicyName(DiffPolicy p) {
  return Spell(kDiffPolicyNames, &EnumName<DiffPolicy>::name, p);
}
bool ParseDiffPolicyName(const std::string& s, DiffPolicy* out) {
  return Lookup(kDiffPolicyNames, &EnumName<DiffPolicy>::name, s, out);
}

const char* TestMutationName(TestMutation m) {
  return Spell(kTestMutationNames, &EnumName<TestMutation>::name, m);
}
bool ParseTestMutationName(const std::string& s, TestMutation* out) {
  return Lookup(kTestMutationNames, &EnumName<TestMutation>::name, s, out);
}

ProtocolNode::ProtocolNode(const Env& env)
    : vt_(env.nodes),
      interval_log_(env.nodes),
      env_(env),
      sent_to_manager_vt_(env.nodes),
      dirty_flag_(static_cast<size_t>(env.pages->num_pages()), false) {}

ProtocolNode::~ProtocolNode() = default;

// ---------------------------------------------------------------------------
// Wait accounting.

ProtocolNode::WaitScope::WaitScope(ProtocolNode* n, WaitCat c, WaitCat d)
    : node(n), cat(c), deduct(d), t0(n->engine()->Now()), busy0(n->env_.cpu->busy().Total()) {}

ProtocolNode::WaitScope::WaitScope(ProtocolNode* n, WaitCat c, SpanKind root, int64_t a0,
                                   int64_t a1)
    : WaitScope(n, c) {
  span = n->SpanBegin(root, a0, a1);
  n->SpanVt(span);
}

void ProtocolNode::WaitScope::Finish() {
  node->SpanEnd(span);
  const SimTime elapsed = node->engine()->Now() - t0;
  const SimTime busy = node->env_.cpu->busy().Total() - busy0;
  const SimTime wait = elapsed - busy;
  if (wait > 0) {
    node->stats_.waits.Add(cat, wait);
    if (deduct != WaitCat::kNone) {
      node->stats_.waits.Add(deduct, -wait);
    }
  }
  if (node->metrics_ != nullptr) {
    // The histogram takes the full wall-clock span of the scope: that is the
    // per-operation latency the application observed, the distribution the
    // scalar waits[] averages cannot show.
    if (Histogram* h = node->metrics_->ForWait(cat)) {
      h->Record(elapsed);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared services.

Task<void> ProtocolNode::ChargeCpu(SimTime cost, BusyCat cat) {
  if (cost > 0) {
    co_await env_.cpu->ExecuteApp(cost, cat);
  }
}

void ProtocolNode::Dispatch(Route route, SimTime cost, BusyCat cat, std::function<void()> done) {
  if (route == Route::kData && overlapped()) {
    env_.cop->RunService(cost, cat, std::move(done));
    return;
  }
  Processor* cpu = env_.cpu;
  if (route == Route::kReply) {
    cpu->RunService(cost, cat, std::move(done));
    return;
  }
  cpu->RunService(costs().receive_interrupt, BusyCat::kInterrupt,
                  [cpu, cost, cat, done = std::move(done)]() mutable {
                    cpu->RunService(cost, cat, std::move(done));
                  });
}

void ProtocolNode::Send(NodeId dst, MsgType type, int64_t update_bytes, int64_t protocol_bytes,
                        std::unique_ptr<Payload> payload) {
  Message msg;
  msg.src = env_.self;
  msg.dst = dst;
  msg.type = type;
  msg.update_bytes = update_bytes;
  msg.protocol_bytes = protocol_bytes;
  msg.span = active_span_;  // Causal parent for span tracing (observation only).
  msg.payload = std::move(payload);
  env_.network->Send(std::move(msg));
}

NodeId ProtocolNode::HomeOf(PageId page) const {
  const int num_pages =
      used_pages_ > 0 ? std::max(used_pages_, page + 1) : env_.pages->num_pages();
  switch (env_.options->home_policy) {
    case HomePolicy::kBlock: {
      // Contiguous chunks *per allocation*: the k-th band of every array is
      // homed on node k — the paper's "homes chosen intelligently", matching
      // the applications' block partitioning.
      if (env_.space != nullptr) {
        const SharedSpace::Allocation* alloc = env_.space->AllocationOf(page);
        if (alloc != nullptr) {
          const int64_t span = alloc->last_page - alloc->first_page + 1;
          return static_cast<NodeId>(static_cast<int64_t>(page - alloc->first_page) *
                                     env_.nodes / span);
        }
      }
      return static_cast<NodeId>(static_cast<int64_t>(page) * env_.nodes / num_pages);
    }
    case HomePolicy::kRoundRobin:
      return static_cast<NodeId>(page % env_.nodes);
    case HomePolicy::kSingleNode:
      return 0;
  }
  return 0;
}

void ProtocolNode::NoteMemory() {
  if (known_interval_bytes_ > stats_.interval_meta_highwater) {
    stats_.interval_meta_highwater = known_interval_bytes_;
  }
  const int64_t mem = ProtocolMemoryBytes();
  if (mem > stats_.proto_mem_highwater) {
    stats_.proto_mem_highwater = mem;
  }
}

int64_t ProtocolNode::ProtocolMemoryBytes() const {
  return known_interval_bytes_ + env_.pages->TwinBytes() + SubclassMemoryBytes();
}

Diff ProtocolNode::TakeTwinDiff(PageId page) {
  HLRC_CHECK(pages().HasTwin(page));
  Diff d = CreateDiff(page, pages().State(page).twin.get(), pages().PageData(page),
                      pages().page_size(), env_.options->diff_word_bytes);
  pages().DropTwin(page);
  return d;
}

void ProtocolNode::InstallPageData(PageId page, const std::vector<std::byte>& data) {
  HLRC_CHECK(static_cast<int64_t>(data.size()) == pages().page_size());
  std::byte* dst = pages().PageData(page);
  if (pages().HasTwin(page)) {
    Diff local = CreateDiff(page, pages().State(page).twin.get(), dst, pages().page_size(),
                            env_.options->diff_word_bytes);
    std::memcpy(dst, data.data(), data.size());
    std::memcpy(pages().State(page).twin.get(), data.data(), data.size());
    ApplyDiff(local, dst, pages().page_size());
  } else {
    std::memcpy(dst, data.data(), data.size());
  }
}

// ---------------------------------------------------------------------------
// Intervals and write notices.

void ProtocolNode::MarkDirty(PageId page) {
  if (!dirty_flag_[static_cast<size_t>(page)]) {
    dirty_flag_[static_cast<size_t>(page)] = true;
    open_dirty_.push_back(page);
    if (metrics_ != nullptr) {
      metrics_->heat->OnWrite(page, env_.self);
    }
  }
}

bool ProtocolNode::IsDirtyInOpenInterval(PageId page) const {
  return dirty_flag_[static_cast<size_t>(page)];
}

ProtocolNode::CloseActions ProtocolNode::CloseIntervalPrepared() {
  CloseActions actions;
  if (open_dirty_.empty()) {
    return actions;
  }

  IntervalRecord rec;
  rec.writer = env_.self;
  rec.id = vt_.Get(env_.self) + 1;
  rec.vt = vt_;
  rec.vt.Set(env_.self, rec.id);
  std::sort(open_dirty_.begin(), open_dirty_.end());
  rec.pages.assign(open_dirty_.begin(), open_dirty_.end());
  open_dirty_.clear();

  for (PageId p : rec.pages) {
    PageState& st = env_.pages->State(p);
    dirty_flag_[static_cast<size_t>(p)] = false;
    if (st.prot == PageProt::kReadWrite) {
      st.prot = PageProt::kRead;
      actions.protect_cost += costs().page_protect;
      Cover(CoverageObserver::Domain::kPageTransition,
            (static_cast<uint64_t>(PageProt::kReadWrite) << 8) |
                static_cast<uint64_t>(PageProt::kRead),
            2);  // Cause 2: interval-close reprotection.
    }
  }

  // The close span is the causal origin of the flush fan-out: subclasses
  // capture it (via interval_close_span()) into their deferred send lambdas.
  interval_close_span_ =
      SpanEmit(SpanKind::kIntervalClose, engine()->Now(), active_span_,
               static_cast<int64_t>(rec.id), static_cast<int64_t>(rec.pages.size()));

  OnIntervalClosed(&rec, &actions);

  if (!rec.pages.empty()) {
    Cover(CoverageObserver::Domain::kInterval,
          CoverageBucket(rec.pages.size()), 0);
    vt_.Bump(env_.self);
    HLRC_CHECK(vt_.Get(env_.self) == rec.id);
    ++stats_.intervals_closed;
    // Publish: seal the record and hand it to the log as a shared immutable
    // handle. From here on, every packed payload and every receiver's log
    // alias this one object; nobody may mutate it.
    rec.Seal();
    IntervalPtr handle = std::make_shared<IntervalRecord>(std::move(rec));
    known_interval_bytes_ += IntervalBytes(*handle);
    interval_log_.Append(std::move(handle));
    NoteMemory();
  }
  return actions;
}

Task<void> ProtocolNode::CloseIntervalFromApp() {
  CloseActions actions = CloseIntervalPrepared();
  co_await ChargeCpu(actions.protect_cost, BusyCat::kFault);
  co_await ChargeCpu(actions.diff_cost, BusyCat::kDiffCreate);
  for (const std::function<void()>& step : actions.post) {
    step();
  }
  // Eager protocols: the synchronization operation may not proceed while any
  // update flush (from this close or an earlier one) is unacknowledged.
  Completion flushed(env_.engine);
  FlushBarrier([&flushed] { flushed.Complete(); });
  co_await flushed;
}

SimTime ProtocolNode::ApplyIntervals(const IntervalBatch& recs) {
  SimTime cost = 0;
  int64_t invalidated = 0;
  for (const IntervalPtr& handle : recs) {
    const IntervalRecord& rec = *handle;
    if (rec.id <= vt_.Get(rec.writer)) {
      continue;  // Already known.
    }
    vt_.Set(rec.writer, std::max(vt_.Get(rec.writer), rec.id));
    stats_.write_notices_received += static_cast<int64_t>(rec.pages.size());
    cost += costs().wn_apply * static_cast<SimTime>(rec.pages.size());
    for (PageId p : rec.pages) {
      const PageProt before = env_.pages->State(p).prot;
      const bool did_invalidate = OnWriteNotice(rec, p);
      if (did_invalidate) {
        ++invalidated;
      }
      Cover(CoverageObserver::Domain::kPageTransition,
            (static_cast<uint64_t>(before) << 8) |
                static_cast<uint64_t>(env_.pages->State(p).prot),
            did_invalidate ? 1 : 0);  // Cause 1: invalidated, 0: kept.
    }
    known_interval_bytes_ += IntervalBytes(rec);
    interval_log_.Append(handle);  // Shared handle: no record copy.
  }
  cost += invalidated * costs().page_invalidate;
  stats_.pages_invalidated += invalidated;
  NoteMemory();
  return cost;
}

IntervalBatch ProtocolNode::PackIntervalsFor(const VectorClock& vt) const {
  return interval_log_.PackFor(vt);
}

// ---------------------------------------------------------------------------
// Page access.

Task<void> ProtocolNode::EnsureAccessSpans(std::vector<PageSpan> spans) {
  // Keep scanning until one full pass needs no fault. Rescanning matters:
  // while a fault on a later page is being resolved (the coroutine is
  // suspended), a remote lock request can close the current interval, which
  // re-write-protects pages this grant already upgraded. The final fault-free
  // pass runs synchronously with the caller's resumption, so the grant is
  // stable until the application's next suspension point.
  while (true) {
    PageId fault_page = kInvalidPage;
    bool fault_write = false;
    bool fault_invalid = false;
    for (const PageSpan& span : spans) {
      HLRC_CHECK(span.first >= 0 && span.last < env_.pages->num_pages() &&
                 span.first <= span.last);
      for (PageId p = span.first; p <= span.last; ++p) {
        const PageState& st = env_.pages->State(p);
        const bool invalid = st.prot == PageProt::kNone;
        const bool needs_write_upgrade = span.write && st.prot != PageProt::kReadWrite;
        if (invalid || needs_write_upgrade) {
          fault_page = p;
          fault_write = span.write;
          fault_invalid = invalid;
          break;
        }
      }
      if (fault_page != kInvalidPage) {
        break;
      }
    }
    if (fault_page == kInvalidPage) {
      co_return;
    }

    WaitScope ws(this, WaitCat::kData, SpanKind::kFault, fault_page, fault_write ? 1 : 0);
    cur_fault_span_ = ws.span;
    co_await ChargeCpu(costs().page_fault, BusyCat::kFault);
    if (fault_invalid) {
      ++stats_.read_misses;
    }
    if (fault_write) {
      ++stats_.write_faults;
    }
    if (metrics_ != nullptr) {
      metrics_->heat->OnFault(fault_page, fault_write);
      ++*metrics_->outstanding_fetches;
    }
    const PageProt prot_before = env_.pages->State(fault_page).prot;
    co_await ResolveFault(fault_page, fault_write);
    if (metrics_ != nullptr) {
      --*metrics_->outstanding_fetches;
    }
    Cover(CoverageObserver::Domain::kPageTransition,
          (static_cast<uint64_t>(prot_before) << 8) |
              static_cast<uint64_t>(env_.pages->State(fault_page).prot),
          fault_write ? 4 : 3);  // Cause 3: read fault, 4: write fault.
    HLRC_DCHECK(env_.pages->State(fault_page).prot != PageProt::kNone);
    cur_fault_span_ = kNoSpan;
    ws.Finish();
  }
}

Task<void> ProtocolNode::EnsureAccess(PageId first, PageId last, bool write) {
  return EnsureAccessSpans({PageSpan{first, last, write}});
}

// ---------------------------------------------------------------------------
// Locks.

ProtocolNode::LockState& ProtocolNode::Lock(LockId lock) {
  auto it = locks_.find(lock);
  if (it == locks_.end()) {
    LockState ls;
    ls.held = (env_.self == LockManagerNode(lock));
    it = locks_.emplace(lock, std::move(ls)).first;
  }
  return it->second;
}

ProtocolNode::LockManagerState& ProtocolNode::ManagerState(LockId lock) {
  auto it = lock_managers_.find(lock);
  if (it == lock_managers_.end()) {
    LockManagerState ms;
    ms.last_requester = env_.self;  // Token starts at the manager.
    it = lock_managers_.emplace(lock, ms).first;
  }
  return it->second;
}

Task<void> ProtocolNode::Acquire(LockId lock) {
  ++stats_.lock_acquires;
  LockState& ls = Lock(lock);
  HLRC_CHECK_MSG(!ls.in_use, "node %d: recursive acquire of lock %d", env_.self, lock);
  if (ls.held) {
    ls.in_use = true;
    co_return;  // Local reacquire: no interval end, no messages.
  }

  ++stats_.remote_acquires;
  // A remote acquire delimits the current interval (paper §2.1 case (i)).
  co_await CloseIntervalFromApp();

  WaitScope ws(this, WaitCat::kLock, SpanKind::kLock, lock);
  ls.waiting = std::make_unique<Completion>(env_.engine);

  {
    SpanCause sc(this, ws.span);
    const NodeId manager = LockManagerNode(lock);
    if (manager == env_.self) {
      HandleLockRequest(lock, env_.self, vt_);
    } else {
      auto payload = std::make_unique<LockRequestPayload>();
      payload->lock = lock;
      payload->requester = env_.self;
      payload->vt = vt_;
      Send(manager, MsgType::kLockRequest, 0, 8 + vt_.EncodedSize(), std::move(payload));
    }
  }

  co_await *ls.waiting;
  // `ls` may dangle after suspension (other locks can rehash the map).
  LockState& ls2 = Lock(lock);
  ls2.waiting.reset();
  ls2.held = true;
  ls2.in_use = true;
  ws.Finish();
  // The critical section itself: a later requester's wait that overlaps it is
  // attributed to compute (the holder was legitimately working).
  ls2.hold_span = SpanBegin(SpanKind::kLockHold, lock);
  SpanLink(ls2.hold_span, ws.span);
}

Task<void> ProtocolNode::Release(LockId lock) {
  LockState& ls = Lock(lock);
  HLRC_CHECK_MSG(ls.in_use, "node %d: release of lock %d not held", env_.self, lock);
  ls.in_use = false;
  if (ls.pending_requester != kInvalidNode) {
    const NodeId requester = ls.pending_requester;
    VectorClock rvt = std::move(ls.pending_vt);
    const SpanId pending_span = ls.pending_span;
    ls.pending_requester = kInvalidNode;
    ls.pending_span = kNoSpan;
    GrantLock(lock, requester, rvt, pending_span);
  }
  co_return;
}

void ProtocolNode::HandleLockRequest(LockId lock, NodeId requester, const VectorClock& rvt) {
  LockManagerState& ms = ManagerState(lock);
  const NodeId last = ms.last_requester;
  HLRC_CHECK(last != requester);
  ms.last_requester = requester;
  if (last == env_.self) {
    HandleLockForward(lock, requester, rvt);
    return;
  }
  auto payload = std::make_unique<LockForwardPayload>();
  payload->lock = lock;
  payload->requester = requester;
  payload->vt = rvt;
  Send(last, MsgType::kLockForward, 0, 8 + rvt.EncodedSize(), std::move(payload));
}

void ProtocolNode::HandleLockForward(LockId lock, NodeId requester, const VectorClock& rvt) {
  LockState& ls = Lock(lock);
  if (ls.held && !ls.in_use) {
    // Idle holder: receiving the remote request delimits the interval
    // (paper §2.1 case (ii)) and we grant immediately.
    GrantLock(lock, requester, rvt, active_span_);
    return;
  }
  // Either the app is inside the critical section or we are ourselves still
  // waiting for the token; the grant happens at release time.
  HLRC_CHECK_MSG(ls.pending_requester == kInvalidNode,
                 "node %d: two pending requesters for lock %d", env_.self, lock);
  ls.pending_requester = requester;
  ls.pending_vt = rvt;
  ls.pending_span = active_span_;  // Re-established as the grant's cause at release.
}

void ProtocolNode::GrantLock(LockId lock, NodeId requester, const VectorClock& rvt,
                             SpanId cause) {
  LockState& ls = Lock(lock);
  HLRC_CHECK(ls.held && !ls.in_use);
  ls.held = false;

  // The critical section ends here. Linking the hold span from the parked
  // requester's context makes it a causal descendant of the requester's
  // acquire root, so the overlap is attributed to compute.
  SpanEnd(ls.hold_span);
  SpanLink(ls.hold_span, cause);
  ls.hold_span = kNoSpan;

  CloseActions actions = CloseIntervalPrepared();

  auto send_grant = [this, lock, requester, rvt, cause] {
    IntervalBatch recs = PackIntervalsFor(rvt);
    const SimTime pack_cost =
        costs().lock_handling + costs().wn_pack * static_cast<SimTime>(recs.size());
    const SimTime t_dispatch = engine()->Now();
    env_.cpu->RunService(
        pack_cost, BusyCat::kWriteNotice,
        [this, lock, requester, cause, t_dispatch, recs = std::move(recs)]() mutable {
          const int64_t bytes = 16 + BatchBytes(recs);
          auto payload = std::make_unique<LockGrantPayload>();
          payload->lock = lock;
          payload->intervals = std::move(recs);
          const SpanId grant_span =
              SpanEmit(SpanKind::kService, t_dispatch, cause, lock);
          SpanCause sc(this, grant_span);
          Send(requester, MsgType::kLockGrant, 0, bytes, std::move(payload));
        });
  };

  if (actions.TotalCpu() > 0 || !actions.post.empty()) {
    env_.cpu->RunService(
        actions.protect_cost, BusyCat::kFault,
        [this, diff_cost = actions.diff_cost, post = std::move(actions.post),
         send_grant]() mutable {
          env_.cpu->RunService(
              diff_cost, BusyCat::kDiffCreate, [this, post = std::move(post), send_grant] {
                for (const std::function<void()>& step : post) {
                  step();
                }
                // The grant is the happens-before edge: it may not leave while
                // eager flushes are outstanding.
                FlushBarrier(send_grant);
              });
        });
  } else {
    FlushBarrier(send_grant);
  }
}

void ProtocolNode::HandleLockGrant(LockId lock, IntervalBatch intervals) {
  Cover(CoverageObserver::Domain::kSyncEpoch, 0,
        CoverageBucket(intervals.size()));  // Sync kind 0: lock grant.
  const SimTime cost = ApplyIntervals(intervals);
  const SpanId cause = active_span_;
  const SimTime t0 = engine()->Now();
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, lock, cause, t0] {
    SpanEmit(SpanKind::kWnApply, t0, cause, lock);
    LockState& ls = Lock(lock);
    HLRC_CHECK(ls.waiting != nullptr);
    ls.waiting->Complete();
  });
}

// ---------------------------------------------------------------------------
// Barriers.

Task<void> ProtocolNode::Barrier(BarrierId barrier) {
  ++stats_.barriers;
  co_await CloseIntervalFromApp();

  WaitScope ws(this, WaitCat::kBarrier, SpanKind::kBarrier, barrier);
  HLRC_CHECK(barrier_waiting_ == nullptr);
  barrier_waiting_ = std::make_unique<Completion>(env_.engine);

  // In tree mode the pack happens once per subtree at forward-up time (own
  // and child records together), so the app-side pack is skipped here.
  IntervalBatch recs;
  if (!TreeBarrier()) {
    recs = PackIntervalsFor(sent_to_manager_vt_);
    co_await ChargeCpu(costs().wn_pack * static_cast<SimTime>(recs.size()),
                       BusyCat::kWriteNotice);
  }
  const bool pressure =
      !home_based() && ProtocolMemoryBytes() > env_.options->gc_threshold_bytes;

  {
    SpanCause sc(this, ws.span);
    if (TreeBarrier()) {
      std::vector<BarrierArrival> self_arrival(1);
      self_arrival[0].node = env_.self;
      self_arrival[0].vt = vt_;
      TreeBarrierAccumulate(barrier, std::move(self_arrival), {}, pressure);
    } else if (env_.self == kBarrierManager) {
      HandleBarrierEnter(barrier, env_.self, vt_, std::move(recs), pressure);
    } else {
      SendBarrierEnter(kBarrierManager, barrier, std::move(recs), pressure, {});
    }
  }

  co_await *barrier_waiting_;
  barrier_waiting_.reset();
  ws.Finish();
}

void ProtocolNode::SendBarrierEnter(NodeId dst, BarrierId barrier, IntervalBatch recs,
                                    bool mem_pressure, std::vector<BarrierArrival> arrivals) {
  int64_t bytes = 16 + vt_.EncodedSize() + BatchBytes(recs);
  for (const BarrierArrival& a : arrivals) {
    bytes += 4 + a.vt.EncodedSize();
  }
  auto payload = std::make_unique<BarrierEnterPayload>();
  payload->barrier = barrier;
  payload->node = env_.self;
  payload->vt = vt_;
  payload->intervals = std::move(recs);
  payload->mem_pressure = mem_pressure;
  payload->arrivals = std::move(arrivals);
  Send(dst, MsgType::kBarrierEnter, 0, bytes, std::move(payload));
}

void ProtocolNode::HandleBarrierEnter(BarrierId barrier, NodeId node, const VectorClock& nvt,
                                      IntervalBatch intervals, bool mem_pressure) {
  BarrierManagerState& bm = barrier_mgr_[barrier];
  if (bm.arrival_vt.empty()) {
    bm.arrival_vt.assign(static_cast<size_t>(env_.nodes), VectorClock(env_.nodes));
    bm.present.assign(static_cast<size_t>(env_.nodes), false);
  }
  HLRC_CHECK(!bm.present[static_cast<size_t>(node)]);
  bm.present[static_cast<size_t>(node)] = true;
  bm.arrival_vt[static_cast<size_t>(node)] = nvt;
  bm.mem_pressure = bm.mem_pressure || mem_pressure;
  ++bm.arrived;

  if (bm.gather_span == kNoSpan) {
    bm.gather_span = SpanBegin(SpanKind::kBarrierGather, barrier);
  }
  // Every arrival (the manager's own included) is a causal input to the
  // gather: a straggler's wait overlapping it counts as compute.
  SpanLink(bm.gather_span, active_span_);

  const SimTime cost = costs().barrier_handling + ApplyIntervals(intervals);
  // Merge in case the arriving vt is ahead in components we have no records
  // for (cannot happen today, but keeps the invariant explicit).
  vt_.MergeWith(nvt);

  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, barrier] {
    auto it = barrier_mgr_.find(barrier);
    if (it != barrier_mgr_.end() && it->second.arrived == env_.nodes && !it->second.launched) {
      it->second.launched = true;
      BarrierAllArrived(barrier);
    }
  });
}

int ProtocolNode::TreeSubtreeSize(NodeId n) const {
  int size = 1;
  ForEachTreeChild(n, [this, &size](NodeId c) { size += TreeSubtreeSize(c); });
  return size;
}

void ProtocolNode::TreeBarrierAccumulate(BarrierId barrier,
                                         std::vector<BarrierArrival> arrivals,
                                         IntervalBatch intervals, bool mem_pressure) {
  BarrierTreeState& ts = barrier_tree_[barrier];
  if (ts.gather_span == kNoSpan) {
    ts.gather_span = SpanBegin(SpanKind::kBarrierGather, barrier);
  }
  // Every arrival batch (own or a child subtree's) is a causal input to this
  // node's slice of the gather.
  SpanLink(ts.gather_span, active_span_);
  ts.mem_pressure = ts.mem_pressure || mem_pressure;
  const SimTime cost = costs().barrier_handling + ApplyIntervals(intervals);
  for (BarrierArrival& a : arrivals) {
    vt_.MergeWith(a.vt);
    ts.arrivals.push_back(std::move(a));
  }
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier] { TreeMaybeForwardUp(barrier); });
}

void ProtocolNode::TreeMaybeForwardUp(BarrierId barrier) {
  auto it = barrier_tree_.find(barrier);
  if (it == barrier_tree_.end()) {
    return;
  }
  BarrierTreeState& ts = it->second;
  if (ts.launched ||
      static_cast<int>(ts.arrivals.size()) < TreeSubtreeSize(env_.self)) {
    return;
  }
  ts.launched = true;

  if (env_.self == kBarrierManager) {
    // Root: the whole machine has arrived. Build the flat manager state from
    // the accumulated pairs so BarrierPreRelease (homeless GC) and
    // PackBarrierReleaseFor work unchanged, then run the normal release path
    // (which fans out to the root's direct children only in tree mode).
    BarrierManagerState& bm = barrier_mgr_[barrier];
    bm.arrival_vt.assign(static_cast<size_t>(env_.nodes), VectorClock(env_.nodes));
    bm.present.assign(static_cast<size_t>(env_.nodes), false);
    for (const BarrierArrival& a : ts.arrivals) {
      HLRC_CHECK(!bm.present[static_cast<size_t>(a.node)]);
      bm.present[static_cast<size_t>(a.node)] = true;
      bm.arrival_vt[static_cast<size_t>(a.node)] = a.vt;
    }
    bm.arrived = env_.nodes;
    bm.mem_pressure = ts.mem_pressure;
    bm.launched = true;
    bm.gather_span = ts.gather_span;
    barrier_tree_.erase(it);
    BarrierAllArrived(barrier);
    return;
  }

  // Interior node or leaf: one combined enter carries the whole subtree —
  // its (node, arrival-vt) pairs plus every interval record the chain above
  // might be missing (children's records were applied into this node's log,
  // so one pack against sent_to_manager_vt_ covers own and child intervals).
  IntervalBatch recs = PackIntervalsFor(sent_to_manager_vt_);
  const SimTime cost = costs().wn_pack * static_cast<SimTime>(recs.size());
  SpanEnd(ts.gather_span);
  {
    SpanCause sc(this, ts.gather_span);
    // Copy, not move: the arrival vts are needed again at release time to
    // pack each direct child's release forward.
    SendBarrierEnter(TreeParent(env_.self), barrier, std::move(recs), ts.mem_pressure,
                     ts.arrivals);
  }
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [] {});
}

void ProtocolNode::BarrierAllArrived(BarrierId barrier) {
  const bool pressure = barrier_mgr_[barrier].mem_pressure;
  SpawnDetached([](ProtocolNode* self, BarrierId b, bool mem) -> Task<void> {
    co_await self->BarrierPreRelease(b, mem);
    self->SendBarrierReleases(b);
  }(this, barrier, pressure));
}

IntervalBatch ProtocolNode::PackBarrierReleaseFor(BarrierId barrier, NodeId node) const {
  auto it = barrier_mgr_.find(barrier);
  HLRC_CHECK(it != barrier_mgr_.end());
  return PackIntervalsFor(it->second.arrival_vt[static_cast<size_t>(node)]);
}

SpanId ProtocolNode::BarrierGatherSpan(BarrierId barrier) const {
  auto it = barrier_mgr_.find(barrier);
  return it != barrier_mgr_.end() ? it->second.gather_span : kNoSpan;
}

void ProtocolNode::SendBarrierReleases(BarrierId barrier) {
  BarrierManagerState bm = std::move(barrier_mgr_[barrier]);
  barrier_mgr_.erase(barrier);

  SpanEnd(bm.gather_span);
  SpanCause sc(this, bm.gather_span);  // Releases fan out from the gather.

  // Flat barrier: the manager releases every other node directly. Tree mode:
  // only its direct children — each interior node re-packs and forwards to
  // its own children in HandleBarrierRelease.
  SimTime cost = 0;
  auto release = [&](NodeId n) {
    cost += SendBarrierRelease(n, barrier, bm.arrival_vt[static_cast<size_t>(n)]);
  };
  if (TreeBarrier()) {
    ForEachTreeChild(env_.self, release);
  } else {
    for (NodeId n = 0; n < env_.nodes; ++n) {
      if (n != env_.self) {
        release(n);
      }
    }
  }
  // The manager releases itself once the send-side work is charged.
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier, cause = bm.gather_span] {
                         SpanCause sc2(this, cause);
                         HandleBarrierRelease(barrier, {}, vt_);
                       });
}

SimTime ProtocolNode::SendBarrierRelease(NodeId dst, BarrierId barrier,
                                         const VectorClock& arrival_vt) {
  // Handle copies only: each receiver's release payload aliases the same
  // underlying records.
  IntervalBatch recs = PackIntervalsFor(arrival_vt);
  const SimTime cost =
      costs().barrier_handling + costs().wn_pack * static_cast<SimTime>(recs.size());
  auto payload = std::make_unique<BarrierReleasePayload>();
  payload->barrier = barrier;
  payload->max_vt = vt_;
  const int64_t bytes = 16 + vt_.EncodedSize() + BatchBytes(recs);
  payload->intervals = std::move(recs);
  Send(dst, MsgType::kBarrierRelease, 0, bytes, std::move(payload));
  return cost;
}

void ProtocolNode::HandleBarrierRelease(BarrierId barrier, IntervalBatch intervals,
                                        const VectorClock& max_vt) {
  Cover(CoverageObserver::Domain::kSyncEpoch, 1,
        CoverageBucket(intervals.size()));  // Sync kind 1: barrier release.
  SimTime cost = ApplyIntervals(intervals);
  vt_.MergeWith(max_vt);
  if (TreeBarrier() && env_.self != kBarrierManager) {
    // Fan the release down: after applying the parent's batch this node's
    // log holds every interval record of the epoch, so packing against a
    // direct child's recorded arrival vt yields exactly the content the flat
    // manager would have sent that child. Must run before the truncation
    // charged below.
    auto it = barrier_tree_.find(barrier);
    HLRC_CHECK(it != barrier_tree_.end());
    const std::vector<BarrierArrival>& arrivals = it->second.arrivals;
    ForEachTreeChild(env_.self, [&](NodeId c) {
      auto a = std::find_if(arrivals.begin(), arrivals.end(),
                            [c](const BarrierArrival& x) { return x.node == c; });
      HLRC_CHECK(a != arrivals.end());
      cost += SendBarrierRelease(c, barrier, a->vt);
    });
  }
  const SpanId cause = active_span_;
  const SimTime t0 = engine()->Now();
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, barrier, cause, t0] {
    SpanEmit(SpanKind::kWnApply, t0, cause);
    // Everything known at this barrier is now known everywhere: truncate the
    // interval log (diffs and per-page state are managed by the subclass).
    // Records still referenced by in-flight payloads stay alive through
    // their shared handles and die with the last one.
    interval_log_.Clear();
    known_interval_bytes_ = 0;
    sent_to_manager_vt_ = vt_;
    barrier_tree_.erase(barrier);
    OnBarrierReleased();
    HLRC_CHECK(barrier_waiting_ != nullptr);
    barrier_waiting_->Complete();
  });
}

Task<void> ProtocolNode::BarrierPreRelease(BarrierId /*barrier*/, bool /*mem_pressure*/) {
  co_return;
}

void ProtocolNode::OnBarrierReleased() {}

// ---------------------------------------------------------------------------
// Message dispatch.

void ProtocolNode::HandleMessage(Message msg) {
  switch (msg.type) {
    case MsgType::kLockRequest: {
      auto* p = static_cast<LockRequestPayload*>(msg.payload.get());
      // Lock management always runs on the compute processor (paper §2.4.1).
      Serve(msg, Route::kRequest, costs().lock_handling, BusyCat::kService, p->lock,
            [this, lock = p->lock, requester = p->requester, vt = p->vt] {
              HandleLockRequest(lock, requester, vt);
            });
      return;
    }
    case MsgType::kLockForward: {
      auto* p = static_cast<LockForwardPayload*>(msg.payload.get());
      Serve(msg, Route::kRequest, costs().lock_handling, BusyCat::kService, p->lock,
            [this, lock = p->lock, requester = p->requester, vt = p->vt] {
              HandleLockForward(lock, requester, vt);
            });
      return;
    }
    case MsgType::kLockGrant: {
      auto* p = static_cast<LockGrantPayload*>(msg.payload.get());
      Serve(msg, Route::kReply, 0, BusyCat::kService, p->lock,
            [this, lock = p->lock, intervals = std::move(p->intervals)]() mutable {
              HandleLockGrant(lock, std::move(intervals));
            });
      return;
    }
    case MsgType::kBarrierEnter: {
      auto* p = static_cast<BarrierEnterPayload*>(msg.payload.get());
      if (!p->arrivals.empty()) {
        // Combined enter from a barrier-tree child: fold the whole subtree
        // into this node's fan-in state.
        Serve(msg, Route::kRequest, 0, BusyCat::kService, p->barrier,
              [this, barrier = p->barrier, arrivals = std::move(p->arrivals),
               intervals = std::move(p->intervals), mem = p->mem_pressure]() mutable {
                TreeBarrierAccumulate(barrier, std::move(arrivals), std::move(intervals), mem);
              });
        return;
      }
      Serve(msg, Route::kRequest, 0, BusyCat::kService, p->barrier,
            [this, barrier = p->barrier, node = p->node, vt = p->vt,
             intervals = std::move(p->intervals), mem = p->mem_pressure]() mutable {
              HandleBarrierEnter(barrier, node, vt, std::move(intervals), mem);
            });
      return;
    }
    case MsgType::kBarrierRelease: {
      auto* p = static_cast<BarrierReleasePayload*>(msg.payload.get());
      Serve(msg, Route::kReply, 0, BusyCat::kService, 0,
            [this, barrier = p->barrier, intervals = std::move(p->intervals),
             max_vt = p->max_vt]() mutable {
              HandleBarrierRelease(barrier, std::move(intervals), max_vt);
            });
      return;
    }
    default:
      HandleProtocolMessage(std::move(msg));
      return;
  }
}

}  // namespace hlrc
