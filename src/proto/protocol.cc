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
      sent_to_manager_vt_(env.nodes) {
  // Level by level: the children of nodes [lo, hi] are [lo*k + 1, hi*k + k].
  const int64_t k = BarrierArity();
  barrier_subtree_ = 0;
  for (int64_t lo = env.self, hi = env.self; lo < env.nodes; lo = lo * k + 1, hi = hi * k + k) {
    barrier_subtree_ += static_cast<int>(std::min<int64_t>(hi, env.nodes - 1) - lo + 1);
  }
}

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
  Diff d = CreateDiff(page, pages().State(page).twin, pages().PageData(page),
                      pages().page_size());
  pages().DropTwin(page);
  return d;
}

void ProtocolNode::InstallPageData(PageId page, const std::vector<std::byte>& data) {
  HLRC_CHECK(static_cast<int64_t>(data.size()) == pages().page_size());
  std::byte* dst = pages().PageData(page);
  if (pages().HasTwin(page)) {
    Diff local = CreateDiff(page, pages().State(page).twin, dst, pages().page_size());
    std::memcpy(dst, data.data(), data.size());
    std::memcpy(pages().State(page).twin, data.data(), data.size());
    ApplyDiff(local, dst, pages().page_size());
  } else {
    std::memcpy(dst, data.data(), data.size());
  }
}

// ---------------------------------------------------------------------------
// Intervals and write notices.

void ProtocolNode::MarkDirty(PageId page) {
  PageState& st = pages().State(page);
  if (!st.dirty) {
    st.dirty = true;
    open_dirty_.push_back(page);
    if (metrics_ != nullptr) {
      metrics_->heat->OnWrite(page, env_.self);
    }
  }
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
    st.dirty = false;
    if (st.prot() == PageProt::kReadWrite) {
      env_.pages->SetProt(p, PageProt::kRead);
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
      const PageProt before = env_.pages->State(p).prot();
      const bool did_invalidate = OnWriteNotice(handle, p);
      if (did_invalidate) {
        ++invalidated;
      }
      Cover(CoverageObserver::Domain::kPageTransition,
            (static_cast<uint64_t>(before) << 8) |
                static_cast<uint64_t>(env_.pages->State(p).prot()),
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
  PageTable& pages = *env_.pages;
  for (const PageSpan& span : spans) {
    HLRC_CHECK(span.first >= 0 && span.last < pages.num_pages() && span.first <= span.last);
  }
  // Scan position: span `s`, page `p`. Every position before it granted its
  // access when the scan passed it. While a fault suspends the scan, a remote
  // lock request can close the interval (write-protecting pages the grant
  // upgraded) and a write notice can invalidate a page it passed. The page
  // table counts each such loss; if none happened, a full rescan would stop
  // where the scan resumes.
  size_t s = 0;
  PageId p = spans.empty() ? 0 : spans[0].first;
  bool faulted = false;
  while (true) {
    while (s < spans.size()) {
      const PageSpan& span = spans[s];
      while (p <= span.last && pages.State(p).Grants(span.write)) {
        ++p;
      }
      if (p <= span.last) {
        break;  // Page p faults.
      }
      if (++s < spans.size()) {
        p = spans[s].first;
      }
    }
    if (s == spans.size()) {
      break;
    }
    const PageId fault_page = p;
    const bool fault_write = spans[s].write;
    const bool fault_invalid = pages.State(p).prot() == PageProt::kNone;
    const uint64_t losses = pages.prot_losses();
    faulted = true;

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
    const PageProt prot_before = pages.State(fault_page).prot();
    co_await ResolveFault(fault_page, fault_write);
    if (metrics_ != nullptr) {
      --*metrics_->outstanding_fetches;
    }
    Cover(CoverageObserver::Domain::kPageTransition,
          (static_cast<uint64_t>(prot_before) << 8) |
              static_cast<uint64_t>(pages.State(fault_page).prot()),
          fault_write ? 4 : 3);  // Cause 3: read fault, 4: write fault.
    HLRC_DCHECK(pages.State(fault_page).prot() != PageProt::kNone);
    cur_fault_span_ = kNoSpan;
    ws.Finish();
    if (pages.prot_losses() != losses) {
      s = 0;
      p = spans[0].first;
    }
  }
  // After a fault the last scan began at the faulting page. Check the whole
  // grant, synchronously with the caller's resumption, so that a protection
  // loss that escaped the count aborts instead of handing the program a page
  // it may not use.
  if (faulted) {
    for (const PageSpan& span : spans) {
      for (PageId q = span.first; q <= span.last; ++q) {
        HLRC_CHECK(pages.State(q).Grants(span.write));
      }
    }
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

  // The root and the leaves pack their own records here; an interior node
  // packs once for its whole subtree, when that has arrived.
  const bool root = env_.self == kBarrierManager;
  const bool leaf = barrier_subtree_ == 1;
  IntervalBatch recs;
  if (root || leaf) {
    recs = PackIntervalsFor(sent_to_manager_vt_);
    co_await ChargeCpu(costs().wn_pack * static_cast<SimTime>(recs.size()),
                       BusyCat::kWriteNotice);
  }
  const bool pressure =
      !home_based() && ProtocolMemoryBytes() > env_.options->gc_threshold_bytes;

  {
    SpanCause sc(this, ws.span);
    if (root || !leaf) {
      BarrierArrival own{env_.self, vt_};
      FoldBarrierArrivals(barrier, {&own, 1}, recs, pressure);
    } else {
      SendBarrierEnter(BarrierParent(), barrier, std::move(recs), pressure, {});
    }
  }

  co_await *barrier_waiting_;
  barrier_waiting_.reset();
  ws.Finish();
}

int ProtocolNode::BarrierArity() const {
  return env_.network->config().coalesce ? kBarrierArity : std::max(env_.nodes - 1, 1);
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

void ProtocolNode::FoldBarrierArrivals(BarrierId barrier, std::span<BarrierArrival> arrivals,
                                       const IntervalBatch& intervals, bool mem_pressure) {
  BarrierState& bs = barriers_[barrier];
  if (bs.arrivals.empty()) {
    // Sized once: growing it arrival by arrival raised lu-lrc-32's peak RSS
    // in perfbench by ~1.4 MiB.
    bs.arrivals.reserve(static_cast<size_t>(barrier_subtree_));
  }
  if (bs.gather_span == kNoSpan) {
    bs.gather_span = SpanBegin(SpanKind::kBarrierGather, barrier);
  }
  // Every arrival (this node's own included) is a causal input to the
  // gather: a straggler's wait overlapping it counts as compute.
  SpanLink(bs.gather_span, active_span_);
  bs.mem_pressure = bs.mem_pressure || mem_pressure;
  const SimTime cost = costs().barrier_handling + ApplyIntervals(intervals);
  for (BarrierArrival& a : arrivals) {
    // Merge in case an arriving vt is ahead in components we have no records
    // for (cannot happen today, but keeps the invariant explicit).
    vt_.MergeWith(a.vt);
    bs.arrivals.push_back(std::move(a));
  }
  HLRC_CHECK(static_cast<int>(bs.arrivals.size()) <= barrier_subtree_);
  // Arrivals count when folded, so an earlier fold's service may be the one
  // that finds the subtree complete; later ones then find it launched.
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier] { MaybeBarrierSubtreeArrived(barrier); });
}

void ProtocolNode::MaybeBarrierSubtreeArrived(BarrierId barrier) {
  auto it = barriers_.find(barrier);
  if (it == barriers_.end()) {
    return;  // The root already released this barrier.
  }
  BarrierState& bs = it->second;
  if (bs.launched || static_cast<int>(bs.arrivals.size()) < barrier_subtree_) {
    return;
  }
  bs.launched = true;

  if (env_.self == kBarrierManager) {
    // The whole machine has arrived.
    SpawnDetached([](ProtocolNode* self, BarrierId b, bool mem) -> Task<void> {
      co_await self->BarrierPreRelease(b, mem);
      self->SendBarrierReleases(b);
    }(this, barrier, bs.mem_pressure));
    return;
  }

  // One combined enter carries the whole subtree: its (node, arrival-vt)
  // pairs plus every interval record the chain above might be missing
  // (children's records were applied into this node's log, so one pack
  // against sent_to_manager_vt_ covers own and child intervals).
  IntervalBatch recs = PackIntervalsFor(sent_to_manager_vt_);
  const SimTime cost = costs().wn_pack * static_cast<SimTime>(recs.size());
  SpanEnd(bs.gather_span);
  {
    SpanCause sc(this, bs.gather_span);
    // Copy, not move: the arrival vts are needed again at release time to
    // pack each direct child's release.
    SendBarrierEnter(BarrierParent(), barrier, std::move(recs), bs.mem_pressure, bs.arrivals);
  }
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [] {});
}

const VectorClock& ProtocolNode::ArrivalVt(const BarrierState& bs, NodeId node) {
  auto a = std::find_if(bs.arrivals.begin(), bs.arrivals.end(),
                        [node](const BarrierArrival& x) { return x.node == node; });
  HLRC_CHECK(a != bs.arrivals.end());
  return a->vt;
}

IntervalBatch ProtocolNode::PackBarrierReleaseFor(BarrierId barrier, NodeId node) const {
  auto it = barriers_.find(barrier);
  HLRC_CHECK(it != barriers_.end());
  return PackIntervalsFor(ArrivalVt(it->second, node));
}

SpanId ProtocolNode::BarrierGatherSpan(BarrierId barrier) const {
  auto it = barriers_.find(barrier);
  return it != barriers_.end() ? it->second.gather_span : kNoSpan;
}

void ProtocolNode::SendBarrierReleases(BarrierId barrier) {
  BarrierState bs = std::move(barriers_[barrier]);
  barriers_.erase(barrier);

  SpanEnd(bs.gather_span);
  SpanCause sc(this, bs.gather_span);  // Releases fan out from the gather.
  const SimTime cost = ReleaseBarrierChildren(barrier, bs);
  // The root releases itself once the send-side work is charged.
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier, cause = bs.gather_span] {
                         SpanCause sc2(this, cause);
                         HandleBarrierRelease(barrier, {}, vt_);
                       });
}

SimTime ProtocolNode::ReleaseBarrierChildren(BarrierId barrier, const BarrierState& bs) {
  SimTime cost = 0;
  const int64_t first = static_cast<int64_t>(env_.self) * BarrierArity() + 1;
  for (int64_t c = first; c < first + BarrierArity() && c < env_.nodes; ++c) {
    const auto child = static_cast<NodeId>(c);
    cost += SendBarrierRelease(child, barrier, ArrivalVt(bs, child));
  }
  return cost;
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
  if (env_.self != kBarrierManager && barrier_subtree_ > 1) {
    // Fan the release down: after applying the parent's batch this node's
    // log holds every interval record of the epoch, so packing against a
    // direct child's recorded arrival vt yields exactly what the root would
    // have sent that child. Must run before the truncation charged below.
    auto it = barriers_.find(barrier);
    HLRC_CHECK(it != barriers_.end());
    cost += ReleaseBarrierChildren(barrier, it->second);
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
    barriers_.erase(barrier);  // An interior node's fan-in state.
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
      // A leaf's enter is its own arrival; a combined enter carries its
      // sender's whole subtree.
      Serve(msg, Route::kRequest, 0, BusyCat::kService, p->barrier,
            [this, barrier = p->barrier, node = p->node, vt = std::move(p->vt),
             arrivals = std::move(p->arrivals), intervals = std::move(p->intervals),
             mem = p->mem_pressure]() mutable {
              BarrierArrival own{node, std::move(vt)};
              FoldBarrierArrivals(barrier,
                                  arrivals.empty() ? std::span(&own, 1) : std::span(arrivals),
                                  intervals, mem);
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
