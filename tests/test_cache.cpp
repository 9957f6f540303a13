/**
 * @file
 * Unit tests for CacheSet, Cache, prefetchers, and the memory-system
 * adapters (single-level and the composable N-level hierarchy):
 * inclusive back-invalidation, exclusive single-residency, flush
 * through every level, and the PL-cache uncached-serve path.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/memory_system.hpp"
#include "cache/prefetcher.hpp"

namespace autocat {
namespace {

CacheConfig
faConfig(unsigned ways, ReplPolicy policy = ReplPolicy::Lru)
{
    CacheConfig cfg;
    cfg.numSets = 1;
    cfg.numWays = ways;
    cfg.policy = policy;
    cfg.addressSpaceSize = 4 * ways;
    cfg.seed = 3;
    return cfg;
}

CacheConfig
dmConfig(unsigned sets)
{
    CacheConfig cfg;
    cfg.numSets = sets;
    cfg.numWays = 1;
    cfg.policy = ReplPolicy::Lru;
    cfg.addressSpaceSize = 4 * sets;
    cfg.seed = 3;
    return cfg;
}

// ---------------------------------------------------------- CacheSet --

/** A standalone set plus the flat metadata slice backing it. */
struct TestSet
{
    explicit TestSet(unsigned ways, ReplPolicy policy = ReplPolicy::Lru)
        : repl(policy, 1, ways, nullptr), set(ways, 0)
    {
    }

    AccessResult
    access(std::uint64_t addr, Domain domain)
    {
        return set.access(repl, addr, domain);
    }

    bool lockLine(std::uint64_t addr, Domain domain)
    {
        return set.lockLine(repl, addr, domain);
    }

    bool invalidate(std::uint64_t addr)
    {
        return set.invalidate(repl, addr);
    }

    void reset() { set.reset(repl); }

    ReplacementState repl;
    CacheSet set;
};

TEST(CacheSet, MissThenHit)
{
    TestSet s(2);
    EXPECT_FALSE(s.access(5, Domain::Attacker).hit);
    EXPECT_TRUE(s.access(5, Domain::Attacker).hit);
}

TEST(CacheSet, FillsInvalidWaysBeforeEvicting)
{
    TestSet s(3);
    EXPECT_FALSE(s.access(1, Domain::Attacker).evicted);
    EXPECT_FALSE(s.access(2, Domain::Attacker).evicted);
    EXPECT_FALSE(s.access(3, Domain::Attacker).evicted);
    const AccessResult r = s.access(4, Domain::Attacker);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedAddr, 1u);
}

TEST(CacheSet, EvictedOwnerIsLastToucher)
{
    TestSet s(1);
    s.access(1, Domain::Victim);
    const AccessResult r = s.access(2, Domain::Attacker);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedOwner, Domain::Victim);
}

TEST(CacheSet, HitTransfersOwnership)
{
    TestSet s(1);
    s.access(1, Domain::Victim);
    s.access(1, Domain::Attacker);  // hit by the attacker
    const AccessResult r = s.access(2, Domain::Victim);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedOwner, Domain::Attacker);
}

TEST(CacheSet, InvalidateRemovesLine)
{
    TestSet s(2);
    s.access(7, Domain::Attacker);
    EXPECT_TRUE(s.invalidate(7));
    EXPECT_FALSE(s.set.contains(7));
    EXPECT_FALSE(s.invalidate(7));  // already gone
}

TEST(CacheSet, LockPreventsEviction)
{
    TestSet s(2);
    ASSERT_TRUE(s.lockLine(0, Domain::Victim));
    s.access(1, Domain::Attacker);
    // Fill pressure: 0 must survive all of it.
    for (std::uint64_t a = 2; a < 10; ++a)
        s.access(a, Domain::Attacker);
    EXPECT_TRUE(s.set.contains(0));
    EXPECT_TRUE(s.set.isLocked(0));
}

TEST(CacheSet, AllLockedServesUncached)
{
    TestSet s(2);
    s.lockLine(0, Domain::Victim);
    s.lockLine(1, Domain::Victim);
    const AccessResult r = s.access(9, Domain::Attacker);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.servedUncached);
    EXPECT_FALSE(s.set.contains(9));
}

TEST(CacheSet, UnlockRestoresEvictability)
{
    TestSet s(1);
    s.lockLine(0, Domain::Victim);
    EXPECT_TRUE(s.set.unlockLine(0));
    const AccessResult r = s.access(1, Domain::Attacker);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(CacheSet, LockedLineAccessStillUpdatesReplacementState)
{
    // The PL-cache leak (Section V-D): a hit on a locked line moves
    // the replacement metadata even though the line can't be evicted.
    TestSet s(4);
    s.lockLine(0, Domain::Victim);
    s.access(1, Domain::Attacker);
    s.access(2, Domain::Attacker);
    s.access(3, Domain::Attacker);
    // LRU order: 0 (locked, oldest), 1, 2, 3.
    s.access(0, Domain::Victim);  // hit on the locked line
    // Now 1 is the oldest unlocked line.
    const AccessResult r = s.access(4, Domain::Attacker);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedAddr, 1u);
}

TEST(CacheSet, ResetClearsEverything)
{
    TestSet s(2);
    s.lockLine(0, Domain::Victim);
    s.access(1, Domain::Attacker);
    s.reset();
    EXPECT_FALSE(s.set.contains(0));
    EXPECT_FALSE(s.set.contains(1));
    EXPECT_TRUE(s.set.residentAddrs().empty());
}

// ------------------------------------------------------------- Cache --

TEST(Cache, DirectMappedConflicts)
{
    Cache cache(dmConfig(4));
    cache.access(1, Domain::Attacker);
    EXPECT_TRUE(cache.contains(1));
    cache.access(5, Domain::Attacker);  // 5 % 4 == 1: conflict
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(5));
    // Non-conflicting address is untouched.
    cache.access(2, Domain::Attacker);
    EXPECT_TRUE(cache.contains(5));
}

TEST(Cache, FlushInvalidates)
{
    Cache cache(faConfig(4));
    cache.access(3, Domain::Attacker);
    EXPECT_TRUE(cache.flush(3, Domain::Attacker));
    EXPECT_FALSE(cache.contains(3));
    EXPECT_FALSE(cache.flush(3, Domain::Attacker));
}

TEST(Cache, EventListenerSeesAllOperations)
{
    Cache cache(dmConfig(2));
    std::vector<CacheEvent> events;
    cache.setEventListener(
        [&](const CacheEvent &ev) { events.push_back(ev); });

    cache.access(0, Domain::Attacker);
    cache.access(0, Domain::Victim);
    cache.flush(0, Domain::Attacker);

    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].op, CacheOp::DemandAccess);
    EXPECT_FALSE(events[0].hit);
    EXPECT_TRUE(events[1].hit);
    EXPECT_EQ(events[1].domain, Domain::Victim);
    EXPECT_EQ(events[2].op, CacheOp::Flush);
}

TEST(Cache, EvictionEventCarriesOwner)
{
    Cache cache(dmConfig(2));
    CacheEvent last;
    cache.setEventListener([&](const CacheEvent &ev) { last = ev; });
    cache.access(0, Domain::Victim);
    cache.access(2, Domain::Attacker);  // conflicts with 0
    EXPECT_TRUE(last.evicted);
    EXPECT_EQ(last.evictedAddr, 0u);
    EXPECT_EQ(last.evictedOwner, Domain::Victim);
}

TEST(Cache, RandomSetMappingIsBalancedAndFixed)
{
    CacheConfig cfg = dmConfig(4);
    cfg.randomSetMapping = true;
    cfg.addressSpaceSize = 16;
    Cache a(cfg), b(cfg);

    std::vector<unsigned> counts(4, 0);
    for (std::uint64_t addr = 0; addr < 16; ++addr) {
        EXPECT_EQ(a.setIndexOf(addr), b.setIndexOf(addr))
            << "mapping must be a fixed function of the seed";
        ++counts[a.setIndexOf(addr)];
    }
    for (unsigned c : counts)
        EXPECT_EQ(c, 4u);  // balanced permutation

    // A different seed gives a different permutation (overwhelmingly).
    cfg.seed = 99;
    Cache c(cfg);
    bool any_diff = false;
    for (std::uint64_t addr = 0; addr < 16; ++addr)
        any_diff |= c.setIndexOf(addr) != a.setIndexOf(addr);
    EXPECT_TRUE(any_diff);
}

TEST(Cache, RandomPolicyIsSeedDeterministic)
{
    CacheConfig cfg = faConfig(4, ReplPolicy::Random);
    Cache a(cfg), b(cfg);
    // Drive both with the same access stream and compare contents.
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t addr = (i * 7 + 3) % 12;
        a.access(addr, Domain::Attacker);
        b.access(addr, Domain::Attacker);
    }
    for (std::uint64_t addr = 0; addr < 12; ++addr)
        EXPECT_EQ(a.contains(addr), b.contains(addr));
}

TEST(Cache, PolicyStateExposesFlatMetadata)
{
    Cache cache(faConfig(3));
    cache.access(0, Domain::Attacker);
    cache.access(1, Domain::Attacker);
    cache.access(2, Domain::Attacker);
    const auto ages = cache.policyState(0);
    ASSERT_EQ(ages.size(), 3u);
    EXPECT_EQ(ages[2], 0u);  // most recent
    EXPECT_EQ(ages[0], 2u);  // oldest
}

// ------------------------------------------------------- prefetchers --

TEST(NextLinePrefetcher, PrefetchesNextAddressWithWraparound)
{
    NextLinePrefetcher pf(8);
    EXPECT_EQ(pf.onDemandAccess(6, false),
              std::vector<std::uint64_t>{7});
    EXPECT_EQ(pf.onDemandAccess(7, false),
              std::vector<std::uint64_t>{0});
}

TEST(StreamPrefetcher, DetectsStrideAfterTwoObservations)
{
    StreamPrefetcher pf(32);
    EXPECT_TRUE(pf.onDemandAccess(4, false).empty());
    EXPECT_TRUE(pf.onDemandAccess(6, false).empty());  // stride learned
    const auto out = pf.onDemandAccess(8, false);      // stream confirmed
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 10u);
}

TEST(StreamPrefetcher, IgnoresIrregularPattern)
{
    StreamPrefetcher pf(32);
    pf.onDemandAccess(4, false);
    pf.onDemandAccess(9, false);
    EXPECT_TRUE(pf.onDemandAccess(11, false).empty());
    pf.reset();
    pf.onDemandAccess(1, false);
    EXPECT_TRUE(pf.onDemandAccess(2, false).empty());
}

TEST(Cache, NextLinePrefetcherInstallsNeighbor)
{
    CacheConfig cfg = dmConfig(4);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.addressSpaceSize = 8;
    Cache cache(cfg);
    cache.access(5, Domain::Attacker);
    EXPECT_TRUE(cache.contains(5));
    EXPECT_TRUE(cache.contains(6));  // prefetched
}

TEST(Cache, PrefetchEventsAreTagged)
{
    CacheConfig cfg = dmConfig(4);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.addressSpaceSize = 8;
    Cache cache(cfg);
    std::vector<CacheEvent> events;
    cache.setEventListener(
        [&](const CacheEvent &ev) { events.push_back(ev); });
    cache.access(1, Domain::Attacker);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].op, CacheOp::DemandAccess);
    EXPECT_EQ(events[1].op, CacheOp::Prefetch);
    EXPECT_EQ(events[1].addr, 2u);
}

// ----------------------------------------------- memory-system layer --

TEST(SingleLevelMemory, VictimMissFlag)
{
    SingleLevelMemory mem(faConfig(2));
    EXPECT_TRUE(mem.access(0, Domain::Victim).victimMissed);
    EXPECT_FALSE(mem.access(0, Domain::Victim).victimMissed);
    EXPECT_FALSE(mem.access(1, Domain::Attacker).victimMissed);
}

TEST(SingleLevelMemory, LockInterface)
{
    SingleLevelMemory mem(faConfig(2));
    EXPECT_TRUE(mem.lockLine(0, Domain::Victim));
    for (std::uint64_t a = 1; a < 6; ++a)
        mem.access(a, Domain::Attacker);
    EXPECT_TRUE(mem.contains(0));
    EXPECT_TRUE(mem.unlockLine(0));
}

// ----------------------------------------------------- CacheHierarchy --

CacheConfig
levelConfig(unsigned sets, unsigned ways)
{
    CacheConfig cfg;
    cfg.numSets = sets;
    cfg.numWays = ways;
    cfg.policy = ReplPolicy::Lru;
    cfg.addressSpaceSize = 32;
    return cfg;
}

/** Private DM L1s (4x1) + shared L2 (4x2) — the old two-level shape. */
HierarchyConfig
l1l2(InclusionPolicy l2Inclusion = InclusionPolicy::Inclusive)
{
    return HierarchyConfig::twoLevel(levelConfig(4, 1), levelConfig(4, 2),
                                     l2Inclusion);
}

/** Private L1 (4x1) + private L2 (4x2) + shared L3 (4x4). */
HierarchyConfig
threeLevel()
{
    HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.levels.push_back(
        {levelConfig(4, 1), InclusionPolicy::Inclusive, false});
    cfg.levels.push_back(
        {levelConfig(4, 2), InclusionPolicy::Inclusive, false});
    cfg.levels.push_back(
        {levelConfig(4, 4), InclusionPolicy::Inclusive, true});
    return cfg;
}

TEST(CacheHierarchy, HitLevels)
{
    CacheHierarchy mem(l1l2());
    EXPECT_EQ(mem.access(0, Domain::Attacker).hitLevel, 0);  // cold
    EXPECT_EQ(mem.access(0, Domain::Attacker).hitLevel, 1);  // L1 hit
}

TEST(CacheHierarchy, L2HitAfterL1Conflict)
{
    CacheHierarchy mem(l1l2());
    mem.access(0, Domain::Attacker);
    // 4 maps to the same L1 set (4 % 4 == 0) but a different L2 way.
    mem.access(4, Domain::Attacker);
    const MemoryAccessResult r = mem.access(0, Domain::Attacker);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.hitLevel, 2);
}

TEST(CacheHierarchy, InclusionBackInvalidatesL1)
{
    CacheHierarchy mem(l1l2());
    // Fill L2 set 0 (2 ways) from the attacker core: addrs 0, 4.
    mem.access(0, Domain::Attacker);
    mem.access(4, Domain::Attacker);
    // Victim core access to 8 (set 0) evicts one of them from L2; the
    // evicted line must also leave the attacker's L1 (inclusion).
    mem.access(8, Domain::Victim);
    const bool l2_has_0 = mem.level(1).contains(0);
    const bool l1_has_0 = mem.level(0, 0).contains(0);
    if (!l2_has_0) {
        EXPECT_FALSE(l1_has_0) << "inclusion violated";
    }
    // Exactly one of {0, 4} was displaced.
    EXPECT_NE(mem.level(1).contains(0), mem.level(1).contains(4));
}

TEST(CacheHierarchy, CrossCorePrimeProbeSignal)
{
    // The contention mechanism behind Table IV configs 16/17.
    CacheHierarchy mem(l1l2());
    // Attacker primes L2 set 0 with its two lines.
    mem.access(8, Domain::Attacker);
    mem.access(16, Domain::Attacker);
    // Victim touches a conflicting address on its own core.
    mem.access(0, Domain::Victim);
    // One attacker line was evicted from the shared L2: probing both,
    // at least one must now miss to memory.
    const MemoryAccessResult p1 = mem.access(8, Domain::Attacker);
    const MemoryAccessResult p2 = mem.access(16, Domain::Attacker);
    EXPECT_TRUE(p1.hitLevel == 0 || p2.hitLevel == 0);
}

TEST(CacheHierarchy, PrivateInclusiveEvictionStaysOnItsCore)
{
    // A PRIVATE inclusive level's eviction back-invalidates only its
    // own core's inner caches: attacker-private cache pressure must
    // never evict the victim's private copies (that channel does not
    // exist in hardware).
    HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.levels.push_back(
        {levelConfig(4, 1), InclusionPolicy::Inclusive, false});
    cfg.levels.push_back(
        {levelConfig(4, 2), InclusionPolicy::Inclusive, false});
    CacheHierarchy mem(cfg);

    mem.access(0, Domain::Victim);  // victim path holds 0 at L1 and L2
    mem.access(0, Domain::Attacker);
    mem.access(4, Domain::Attacker);
    mem.access(8, Domain::Attacker);  // evicts 0 from the attacker's L2

    EXPECT_FALSE(mem.level(1, 0).contains(0));  // attacker L2 dropped it
    EXPECT_FALSE(mem.level(0, 0).contains(0));  // and its L1 copy
    EXPECT_TRUE(mem.level(1, 1).contains(0));   // victim path untouched
    EXPECT_TRUE(mem.level(0, 1).contains(0));
    EXPECT_EQ(mem.access(0, Domain::Victim).hitLevel, 1);
}

TEST(CacheHierarchy, LockInstallEvictionKeepsInclusion)
{
    // Locking installs like any other fill: when the L2 lock-install
    // evicts a line, that line's inner copies must be back-invalidated
    // or the inclusion invariant silently breaks.
    CacheHierarchy mem(l1l2());
    mem.access(0, Domain::Victim);    // victim L1 and shared L2 hold 0
    mem.access(4, Domain::Attacker);  // L2 set 0 now {0, 4} (full)

    // Locks along core 0; the L2 install of 8 evicts 0 (LRU).
    mem.lockLine(8, Domain::Attacker);
    ASSERT_FALSE(mem.level(1).contains(0));
    EXPECT_FALSE(mem.level(0, 1).contains(0))
        << "inner copy of the lock-install victim survived";
}

TEST(CacheHierarchy, ExclusiveHitStillSpillsTheInFlightVictim)
{
    // A hit at an exclusive level ends the demand walk, but a victim
    // evicted by that level's absorb must still spill to the next
    // exclusive level instead of vanishing.
    HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.levels.push_back(
        {levelConfig(1, 2), InclusionPolicy::Inclusive, false});
    cfg.levels.push_back(
        {levelConfig(4, 2), InclusionPolicy::Exclusive, true});
    cfg.levels.push_back(
        {levelConfig(4, 2), InclusionPolicy::Exclusive, true});
    CacheHierarchy mem(cfg);

    // Churn that ends with an L2 hit on 1 whose absorb (of L1 victim
    // 16, L2 set 0 full) evicts 8 from L2 — 8 must land in L3.
    for (std::uint64_t a : {0, 1, 4, 8, 12, 16})
        mem.access(a, Domain::Attacker);
    mem.access(0, Domain::Attacker);
    const MemoryAccessResult r = mem.access(1, Domain::Attacker);
    EXPECT_EQ(r.hitLevel, 2);
    EXPECT_TRUE(mem.level(2).contains(8))
        << "victim of the exclusive-hit absorb was dropped";

    // Conservation: every touched line is still resident somewhere,
    // and on exactly one level of the (single-core) path.
    for (std::uint64_t a : {0, 1, 4, 8, 12, 16}) {
        int copies = 0;
        copies += mem.level(0, 0).contains(a) ? 1 : 0;
        copies += mem.level(1).contains(a) ? 1 : 0;
        copies += mem.level(2).contains(a) ? 1 : 0;
        EXPECT_EQ(copies, 1) << "address " << a;
    }
}

TEST(CacheHierarchy, FlushDropsAllLevels)
{
    CacheHierarchy mem(l1l2());
    mem.access(0, Domain::Attacker);
    mem.flush(0, Domain::Attacker);
    EXPECT_FALSE(mem.contains(0));
    EXPECT_FALSE(mem.level(0, 0).contains(0));
}

TEST(CacheHierarchy, FlushReachesEveryLevelOfThreeLevelHierarchy)
{
    CacheHierarchy mem(threeLevel());
    ASSERT_EQ(mem.depth(), 3u);
    mem.access(0, Domain::Attacker);
    EXPECT_TRUE(mem.level(0, 0).contains(0));
    EXPECT_TRUE(mem.level(1, 0).contains(0));
    EXPECT_TRUE(mem.level(2).contains(0));

    mem.flush(0, Domain::Attacker);
    EXPECT_FALSE(mem.level(0, 0).contains(0));
    EXPECT_FALSE(mem.level(1, 0).contains(0));
    EXPECT_FALSE(mem.level(2).contains(0));
    EXPECT_FALSE(mem.contains(0));
}

TEST(CacheHierarchy, ThreeLevelHitLevels)
{
    CacheHierarchy mem(threeLevel());
    mem.access(0, Domain::Attacker);
    // Conflict 0 out of the DM L1 (4 % 4 == 0) and the 2-way L2
    // (also set 0; fills way 2 of L3 set 0).
    mem.access(4, Domain::Attacker);
    mem.access(8, Domain::Attacker);  // evicts 0 from L2 (LRU)
    const MemoryAccessResult r = mem.access(0, Domain::Attacker);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.hitLevel, 3);
}

TEST(CacheHierarchy, ExclusiveL2SingleResidency)
{
    CacheHierarchy mem(l1l2(InclusionPolicy::Exclusive));
    // Cold miss: installs in L1 only — an exclusive L2 has no demand
    // fill path.
    mem.access(0, Domain::Attacker);
    EXPECT_TRUE(mem.level(0, 0).contains(0));
    EXPECT_FALSE(mem.level(1).contains(0));

    // Conflicting access evicts 0 from the DM L1; the victim line must
    // move into the exclusive L2 (and only there).
    mem.access(4, Domain::Attacker);
    EXPECT_FALSE(mem.level(0, 0).contains(0));
    EXPECT_TRUE(mem.level(1).contains(0));
    EXPECT_TRUE(mem.level(0, 0).contains(4));
    EXPECT_FALSE(mem.level(1).contains(4));

    // Re-access 0: L2 hit; the line moves back inward and leaves L2.
    const MemoryAccessResult r = mem.access(0, Domain::Attacker);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.hitLevel, 2);
    EXPECT_TRUE(mem.level(0, 0).contains(0));
    EXPECT_FALSE(mem.level(1).contains(0));
    // ... and 4, evicted by 0's refill, now lives in L2 only.
    EXPECT_FALSE(mem.level(0, 0).contains(4));
    EXPECT_TRUE(mem.level(1).contains(4));
}

TEST(CacheHierarchy, PlCacheAllWaysLockedServesUncached)
{
    // Lock every way of L1 set 0 and both L2 ways of set 0 along the
    // victim-core path; a conflicting access must then be served
    // uncached end to end: no hit, no install, no state perturbation.
    // (2-way L1 so the set can hold both locked lines.)
    CacheHierarchy mem(HierarchyConfig::twoLevel(levelConfig(4, 2),
                                                 levelConfig(4, 2)));
    ASSERT_TRUE(mem.lockLine(0, Domain::Victim));
    ASSERT_TRUE(mem.lockLine(4, Domain::Victim));

    const MemoryAccessResult r = mem.access(8, Domain::Victim);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.hitLevel, 0);
    EXPECT_TRUE(r.servedUncached);
    // An uncached serve is not a refill from memory: miss-based
    // detection must not count it.
    EXPECT_FALSE(r.victimMissed);
    EXPECT_FALSE(mem.contains(8));

    // The locked lines are untouched and still serve hits.
    EXPECT_EQ(mem.access(0, Domain::Victim).hitLevel, 1);
    EXPECT_TRUE(mem.unlockLine(0));
}

TEST(CacheHierarchy, VictimMissedConsistentAcrossDepths)
{
    // Depth 1 behaves exactly like SingleLevelMemory.
    CacheHierarchy d1(HierarchyConfig::singleLevel(levelConfig(1, 2)));
    EXPECT_TRUE(d1.access(0, Domain::Victim).victimMissed);
    EXPECT_FALSE(d1.access(0, Domain::Victim).victimMissed);
    EXPECT_FALSE(d1.access(1, Domain::Attacker).victimMissed);

    // Depth 2: a victim miss to memory sets the flag; an L2 hit does
    // not.
    CacheHierarchy d2(l1l2());
    EXPECT_TRUE(d2.access(0, Domain::Victim).victimMissed);
    d2.access(4, Domain::Victim);             // conflicts 0 out of L1
    EXPECT_FALSE(d2.access(0, Domain::Victim).victimMissed);  // L2 hit
}

TEST(CacheHierarchy, NumBlocksIsOutermostLevel)
{
    CacheHierarchy mem(l1l2());
    EXPECT_EQ(mem.numBlocks(), 8u);
}

TEST(CacheHierarchy, RejectsDegenerateConfigs)
{
    HierarchyConfig empty;
    EXPECT_THROW(CacheHierarchy{empty}, std::invalid_argument);

    HierarchyConfig one_core = l1l2();
    one_core.numCores = 1;  // private L1s need a core per domain
    EXPECT_THROW(CacheHierarchy{one_core}, std::invalid_argument);
}

} // namespace
} // namespace autocat
