// Protocol selection and tunables.
#ifndef SRC_PROTO_OPTIONS_H_
#define SRC_PROTO_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace hlrc {

// Name tables: one per enum, declared next to it, one row per enumerator in
// enumerator order. Command lines, reports and repro files all spell values
// through them: each XName function looks a value up in its table and each
// ParseX function is its inverse, returning false for any other spelling.
template <typename E>
struct EnumName {
  E value;
  const char* name;
};

enum class ProtocolKind : int {
  kLrc = 0,    // Homeless lazy release consistency (TreadMarks-style).
  kOlrc = 1,   // LRC with diffing/fetch service overlapped onto the co-processor.
  kHlrc = 2,   // Home-based LRC.
  kOhlrc = 3,  // HLRC with diff create/apply and page service on the co-processor.
  // Extensions beyond the paper's four (see DESIGN.md):
  kErc = 4,    // Eager release consistency: update broadcast at release
               // (Munin-style write-shared; the paper's §1 RC contrast).
  kAurc = 5,   // Automatic-update RC: HLRC's hardware ancestor — zero
               // software cost for update detection/propagation, write-through
               // traffic (paper §2.2; simulated AU hardware).
};

// ProtocolKind has two spellings: `flag` on command lines and `name` in
// reports and repro files.
struct ProtocolSpelling {
  ProtocolKind value;
  const char* flag;
  const char* name;
};
inline constexpr ProtocolSpelling kProtocolSpellings[] = {
    {ProtocolKind::kLrc, "lrc", "LRC"},    {ProtocolKind::kOlrc, "olrc", "OLRC"},
    {ProtocolKind::kHlrc, "hlrc", "HLRC"}, {ProtocolKind::kOhlrc, "ohlrc", "OHLRC"},
    {ProtocolKind::kErc, "erc", "ERC"},    {ProtocolKind::kAurc, "aurc", "AURC"},
};
const char* ProtocolName(ProtocolKind k);  // "HLRC"
const char* ProtocolFlag(ProtocolKind k);  // "hlrc"
bool ParseProtocolName(const std::string& s, ProtocolKind* out);
bool ParseProtocolFlag(const std::string& s, ProtocolKind* out);
// A comma-separated list of flag spellings ("lrc,hlrc"), appended to *out.
// False when the list is empty or names an unknown protocol.
bool ParseProtocolFlags(const std::string& list, std::vector<ProtocolKind>* out);

constexpr bool IsHomeBased(ProtocolKind k) {
  return k == ProtocolKind::kHlrc || k == ProtocolKind::kOhlrc || k == ProtocolKind::kAurc;
}
constexpr bool IsOverlapped(ProtocolKind k) {
  return k == ProtocolKind::kOlrc || k == ProtocolKind::kOhlrc;
}

// How pages are assigned to homes (home-based protocols only).
enum class HomePolicy : int {
  kBlock = 0,       // Contiguous chunks of pages per node (matches the apps'
                    // block partitioning; the paper's "chosen intelligently").
  kRoundRobin = 1,  // Page p lives on node p mod N.
  kSingleNode = 2,  // All homes on node 0 (worst case, for ablations).
};
inline constexpr EnumName<HomePolicy> kHomePolicyNames[] = {
    {HomePolicy::kBlock, "block"},
    {HomePolicy::kRoundRobin, "round-robin"},
    {HomePolicy::kSingleNode, "single-node"},
};
const char* HomePolicyName(HomePolicy p);
bool ParseHomePolicyName(const std::string& s, HomePolicy* out);

// When the homeless protocols create diffs (paper §2.1: "eagerly, at the end
// of each interval, or lazily, on demand").
enum class DiffPolicy : int {
  kEager = 0,  // At interval end (the paper's implementation; matches OLRC).
  kLazy = 1,   // On first request (TreadMarks): saves creating diffs nobody
               // ever fetches, at the cost of doing the work on the request
               // path.
};
inline constexpr EnumName<DiffPolicy> kDiffPolicyNames[] = {
    {DiffPolicy::kEager, "eager"},
    {DiffPolicy::kLazy, "lazy"},
};
const char* DiffPolicyName(DiffPolicy p);
bool ParseDiffPolicyName(const std::string& s, DiffPolicy* out);

// Intentionally-broken protocol variants, used ONLY by the checker's
// mutation regression tests (tests/test_check.cc, svmcheck --mutation) to
// prove the consistency oracle catches real protocol bugs. Each mutation
// silently corrupts one protocol action exactly once per run, in a way that
// cannot hang the run — only return stale data.
enum class TestMutation : int {
  kNone = 0,
  // HLRC/AURC: the home skips applying the first remote diff flush but still
  // advances its applied-flush timestamps, so fetches are served from a
  // stale master copy (lost update at the home).
  kHlrcSkipDiffApply = 1,
  // LRC/OLRC: the first write notice that would invalidate a mapped page is
  // dropped, so the node keeps reading its stale copy (lost invalidation).
  kLrcSkipInvalidate = 2,
};
inline constexpr EnumName<TestMutation> kTestMutationNames[] = {
    {TestMutation::kNone, "none"},
    {TestMutation::kHlrcSkipDiffApply, "hlrc-skip-diff-apply"},
    {TestMutation::kLrcSkipInvalidate, "lrc-skip-invalidate"},
};
const char* TestMutationName(TestMutation m);
bool ParseTestMutationName(const std::string& s, TestMutation* out);

// AURC write-through amplification: the automatic-update hardware resends
// a word each time it is stored; we observe only the final dirty words, so
// traffic is modelled as amplification x dirty bytes.
constexpr double kAurcWriteAmplification = 1.5;

// Consecutive diff flushes from one remote writer after which a page's home
// migrates to that writer (ProtocolOptions::migrate_homes).
constexpr int kMigrateThreshold = 3;

struct ProtocolOptions {
  ProtocolKind kind = ProtocolKind::kHlrc;
  HomePolicy home_policy = HomePolicy::kBlock;
  DiffPolicy diff_policy = DiffPolicy::kEager;
  // Home migration (home-based protocols): when a page's home observes
  // kMigrateThreshold consecutive diff flushes from the same remote writer,
  // it transfers the home to that writer — turning a chronically misplaced
  // page into a home-effect page (extension; the dynamic version of the
  // paper's "homes chosen intelligently", §2.2).
  bool migrate_homes = false;
  // Homeless protocols trigger garbage collection at a barrier when a node's
  // protocol memory exceeds this threshold.
  int64_t gc_threshold_bytes = 4ll << 20;
  // Test-only fault seeding (see TestMutation above). Never set outside the
  // checker; kNone leaves every protocol untouched.
  TestMutation mutation = TestMutation::kNone;
};

}  // namespace hlrc

#endif  // SRC_PROTO_OPTIONS_H_
