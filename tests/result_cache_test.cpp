// The dvsd result cache: content-addressed key stability across
// serialization round trips (the property that makes the cache safe to
// key on), LRU eviction order, and thread-safety under pool hammering.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "benchgen/mcnc.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace dvs {
namespace {

const Library& lib() {
  static const Library kLib = build_compass_library();
  return kLib;
}

CacheKey key_of(const Network& net) {
  CacheKey key;
  key.topology = topology_hash(net);
  key.mapping = mapping_fingerprint(net);
  key.options = 0x0123456789abcdefULL;
  key.library = lib().fingerprint();
  return key;
}

// ---- key stability --------------------------------------------------------

TEST(CacheKey, StableAcrossBlifAndVerilogRoundTrips) {
  for (const char* name : {"x2", "b9", "z4ml", "my_adder"}) {
    const Network mapped = build_mcnc_circuit(lib(), *find_mcnc(name));
    // Canonical unmapped form: what a client-submitted BLIF parses to.
    const Network n0 = read_blif_string(write_blif_string(mapped));
    const Network via_blif = read_blif_string(write_blif_string(n0));
    const Network via_verilog =
        read_verilog_string(write_verilog_string(n0, lib()), lib());
    EXPECT_EQ(topology_hash(n0), topology_hash(via_blif)) << name;
    EXPECT_EQ(topology_hash(n0), topology_hash(via_verilog)) << name;
    EXPECT_EQ(key_of(n0), key_of(via_blif)) << name;
    EXPECT_EQ(key_of(n0), key_of(via_verilog)) << name;
  }
}

TEST(CacheKey, MappedVerilogRoundTripKeepsMappingFingerprint) {
  const Network mapped = build_mcnc_circuit(lib(), *find_mcnc("b9"));
  const Network back =
      read_verilog_string(write_verilog_string(mapped, lib()), lib());
  EXPECT_EQ(topology_hash(mapped), topology_hash(back));
  EXPECT_EQ(mapping_fingerprint(mapped), mapping_fingerprint(back));
  EXPECT_NE(mapping_fingerprint(mapped), 0u);
}

TEST(CacheKey, BlifRoundTripDropsMappingFingerprint) {
  // BLIF carries no cell binding: a mapped circuit written to BLIF reads
  // back unmapped, so the key's mapping half flips to 0 — "will be
  // re-mapped" must not alias "sized exactly like this".
  const Network mapped = build_mcnc_circuit(lib(), *find_mcnc("b9"));
  const Network back = read_blif_string(write_blif_string(mapped));
  EXPECT_NE(mapping_fingerprint(mapped), 0u);
  EXPECT_EQ(mapping_fingerprint(back), 0u);
  // And the unmapped read-back is a fixpoint under further trips.
  const Network again = read_blif_string(write_blif_string(back));
  EXPECT_EQ(topology_hash(back), topology_hash(again));
  EXPECT_EQ(mapping_fingerprint(again), 0u);
}

TEST(CacheKey, SwappedCellBindingsChangeMappingFingerprint) {
  // Two structurally identical gates bound to different drive variants:
  // swapping the variants is a different physical design and must not
  // alias in the cache (a commutative per-gate sum would be blind here).
  const int small = lib().smallest_of("nand2");
  ASSERT_GE(small, 0);
  const int big = lib().upsize(small);
  ASSERT_GE(big, 0);
  const auto build = [&](int cell_x, int cell_y) {
    Network net("m");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const TruthTable tt = lib().cell(small).function;
    const NodeId x = net.add_gate(tt, {a, b}, cell_x, "x");
    const NodeId y = net.add_gate(tt, {a, b}, cell_y, "y");
    net.add_output("o0", x);
    net.add_output("o1", y);
    return net;
  };
  const Network ab = build(small, big);
  const Network ba = build(big, small);
  EXPECT_EQ(topology_hash(ab), topology_hash(ba));
  EXPECT_NE(mapping_fingerprint(ab), mapping_fingerprint(ba));
}

TEST(CacheKey, DistinctCircuitsDistinctHashes) {
  const Network a = build_mcnc_circuit(lib(), *find_mcnc("x2"));
  const Network b = build_mcnc_circuit(lib(), *find_mcnc("b9"));
  EXPECT_NE(topology_hash(a), topology_hash(b));
}

TEST(CacheKey, NamesDoNotMatterStructureDoes) {
  const Network a = read_blif_string(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  const Network renamed = read_blif_string(
      ".model other\n.inputs p q\n.outputs r\n.names p q r\n11 1\n.end\n");
  const Network different = read_blif_string(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n");
  EXPECT_EQ(topology_hash(a), topology_hash(renamed));
  EXPECT_NE(topology_hash(a), topology_hash(different));
}

// ---- canonical job documents (the options half of the key) ---------------

OptimizeRequest request_line(const std::string& line) {
  Request request = parse_request(line);
  EXPECT_EQ(request.type, RequestType::kOptimize);
  return request.optimize;
}

TEST(CanonicalJobKey, AlgoOrderDoesNotMatter) {
  // A client listing algorithms in any order (or spelling out the
  // default) must hit the same cache entry.
  const OptimizeRequest a = request_line(
      R"({"type":"optimize","circuit":"x2","algos":["dscale","cvs"]})");
  const OptimizeRequest b = request_line(
      R"({"type":"optimize","circuit":"x2","algos":["cvs","dscale"]})");
  EXPECT_EQ(canonical_job_json(a, 42), canonical_job_json(b, 42));
  const OptimizeRequest all_listed = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("algos":["gscale","dscale","cvs"]})");
  const OptimizeRequest all_default =
      request_line(R"({"type":"optimize","circuit":"x2"})");
  EXPECT_EQ(canonical_job_json(all_listed, 42),
            canonical_job_json(all_default, 42));
}

TEST(CanonicalJobKey, LegacyAlgoAliasesWithEquivalentPipeline) {
  // The single-algorithm request and the single-pass pipeline spelling
  // of it are the same job: same canonical document, same key, and the
  // derived Gscale cut seed resolves identically on both paths.
  for (const char* algo : {"cvs", "dscale", "gscale"}) {
    const OptimizeRequest legacy = request_line(
        std::string(R"({"type":"optimize","circuit":"x2","algos":[")") +
        algo + R"("]})");
    const OptimizeRequest spec = request_line(
        std::string(
            R"({"type":"optimize","circuit":"x2","pipeline":")") +
        algo + R"("})");
    EXPECT_EQ(canonical_job_json(legacy, 1234),
              canonical_job_json(spec, 1234))
        << algo;
  }
  // Different circuit seeds stay different jobs (the gscale cut seed
  // and the activity seed are part of the identity).
  const OptimizeRequest gscale = request_line(
      R"({"type":"optimize","circuit":"x2","pipeline":"gscale"})");
  EXPECT_NE(canonical_job_json(gscale, 1), canonical_job_json(gscale, 2));
}

TEST(CanonicalJobKey, PipelineSpellingsCanonicalize) {
  // Grammar string, JSON array, whitespace, and option order all reach
  // one canonical document; a genuinely different option value does not.
  const OptimizeRequest a = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"x("pipeline":"cvs|gscale(area_budget=0.05)"})x");
  const OptimizeRequest b = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("pipeline":["cvs",{"pass":"gscale",)"
      R"("options":{"area_budget":0.05}}]})");
  const OptimizeRequest c = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("pipeline":"  cvs  |  gscale( area_budget = 0.05 )  "})");
  EXPECT_EQ(canonical_job_json(a, 7), canonical_job_json(b, 7));
  EXPECT_EQ(canonical_job_json(a, 7), canonical_job_json(c, 7));
  const OptimizeRequest d = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"x("pipeline":"cvs|gscale(area_budget=0.06)"})x");
  EXPECT_NE(canonical_job_json(a, 7), canonical_job_json(d, 7));
  // Pass order is semantic for pipelines: gscale|cvs is another flow.
  const OptimizeRequest e = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("pipeline":"gscale(area_budget=0.05)|cvs"})");
  EXPECT_NE(canonical_job_json(a, 7), canonical_job_json(e, 7));
}

TEST(CanonicalJobKey, SupplyLadderSpellingsCanonicalize) {
  // One ladder, four spellings: comma string, array, trailing-zero
  // variants — all one canonical document (one cache entry).
  const OptimizeRequest a = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5.0,4.3,3.6"}})");
  const OptimizeRequest b = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":[5, 4.3, 3.6]}})");
  const OptimizeRequest c = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":" 5 , 4.30 , 3.60 "}})");
  EXPECT_EQ(canonical_job_json(a, 7), canonical_job_json(b, 7));
  EXPECT_EQ(canonical_job_json(a, 7), canonical_job_json(c, 7));
  // A genuinely different ladder is another job.
  const OptimizeRequest d = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5.0,4.3,3.7"}})");
  EXPECT_NE(canonical_job_json(a, 7), canonical_job_json(d, 7));
  const OptimizeRequest dual = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5.0,4.3"}})");
  EXPECT_NE(canonical_job_json(a, 7), canonical_job_json(dual, 7));
}

TEST(CanonicalJobKey, ExplicitDefaultLadderAliasesWithAbsent) {
  // Spelling out the daemon's own ladder is the same job as omitting the
  // field: the canonical document always carries the *effective* ladder.
  const OptimizeRequest with = request_line(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5,4.3"}})");
  const OptimizeRequest without =
      request_line(R"({"type":"optimize","circuit":"x2"})");
  const SupplyLadder deflt;  // {5.0, 4.3}
  EXPECT_EQ(canonical_job_json(with, 42, deflt),
            canonical_job_json(without, 42, deflt));
  // Against a daemon running a different ladder, the same two requests
  // no longer alias.
  const SupplyLadder other({5.0, 4.0});
  EXPECT_NE(canonical_job_json(with, 42, other),
            canonical_job_json(without, 42, other));
}

TEST(CanonicalJobKey, MalformedSuppliesRejectedWithSchemaText) {
  const auto parse_err = [](const std::string& supplies) {
    try {
      request_line(R"({"type":"optimize","circuit":"x2",)"
                   R"("options":{"supplies":)" +
                   supplies + "}}");
      return std::string("(accepted)");
    } catch (const SupplyError& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(parse_err(R"("4.3,5.0")"), "supplies must be strictly descending");
  EXPECT_EQ(parse_err(R"([5.0, 5.0])"), "supplies must be strictly descending");
  EXPECT_EQ(parse_err(R"("5.0")"), "supplies must list between 2 and 8 voltages");
  EXPECT_EQ(parse_err(R"([9,8,7,6,5,4,3,2,1.5])"),
            "supplies must list between 2 and 8 voltages");
  EXPECT_EQ(parse_err(R"("5.0,0.5")"), "supplies out of range");
  EXPECT_EQ(parse_err(R"("5.0,oops")"), "supplies out of range");
  EXPECT_EQ(parse_err(R"("")"), "supplies out of range");
}

// Requests covering every way the wire names a flow list, pinned to the
// options-half key they hash to.  The disk cache tier survives daemon
// restarts and upgrades, so these values must never move: a change here
// silently orphans every persisted entry.
struct GoldenJob {
  const char* line;
  std::uint64_t key;
};

const GoldenJob kGoldenJobs[] = {
    {R"({"type":"optimize","circuit":"x2"})", 0x4221a1b5830f2172ULL},
    {R"({"type":"optimize","circuit":"x2",)"
     R"("algos":["gscale","cvs","cvs"]})",
     0xe4b191a5c1059026ULL},
    {R"({"type":"optimize","circuit":"x2","algos":["all"]})",
     0x4221a1b5830f2172ULL},
    {R"({"type":"optimize","circuit":"x2","algos":["gscale"],)"
     R"("return_netlist":true,"format":"verilog"})",
     0x06b9c14765e66c1eULL},
    {R"({"type":"optimize","circuit":"x2",)"
     R"x("pipeline":"cvs | gscale(area_budget=0.05) | dscale",)x"
     R"("options":{"supplies":"5,4.3,3.6"}})",
     0xa3a8bf2b5b37681dULL},
    {R"({"type":"optimize","netlist":".model m\n.inputs a b\n.outputs y\n)"
     R"(.names a b y\n11 1\n.end\n","algos":["dscale","cvs"],)"
     R"("options":{"seed":9,"vectors":512,"freq_mhz":25},"use_cache":false})",
     0x5d96b381ac310eb5ULL},
};

TEST(CanonicalJobKey, GoldenKeysStayStable) {
  for (const GoldenJob& golden : kGoldenJobs) {
    const OptimizeRequest request = request_line(golden.line);
    EXPECT_EQ(fnv1a64(canonical_job_json(request, 42)), golden.key)
        << golden.line;
  }
}

TEST(CanonicalJobKey, FleetJobLineRoundTripsTheJob) {
  // The scheduler re-serializes a request into the worker's job line;
  // the worker must parse it back into the same job.
  for (const GoldenJob& golden : kGoldenJobs) {
    const OptimizeRequest sent = request_line(golden.line);
    const OptimizeRequest got = request_line(optimize_request_json(sent));
    EXPECT_EQ(canonical_job_json(got, 42), canonical_job_json(sent, 42))
        << golden.line;
    EXPECT_EQ(got.circuit, sent.circuit);
    EXPECT_EQ(got.netlist, sent.netlist);
    EXPECT_EQ(got.format, sent.format);
    EXPECT_EQ(got.return_netlist, sent.return_netlist);
    EXPECT_EQ(got.use_cache, sent.use_cache);
  }
}

TEST(CacheKey, LadderChangesLibraryFingerprint) {
  // The resolved job runs against a ladder-adjusted library; its
  // fingerprint (the key's library half) must move with the ladder and
  // return exactly when the ladder does.
  Library three = build_compass_library();
  three.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  EXPECT_NE(three.fingerprint(), lib().fingerprint());
  Library back = build_compass_library();
  back.set_supply_ladder(SupplyLadder({5.0, 4.3}));
  EXPECT_EQ(back.fingerprint(), lib().fingerprint());
}

// ---- LRU behavior ---------------------------------------------------------

CacheKey key_n(std::uint64_t n) {
  CacheKey key;
  key.topology = n;
  key.mapping = 1;
  key.options = 2;
  key.library = 3;
  return key;
}

ResultCache::Payload payload(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(ResultCache, HitMissCounters) {
  ResultCache cache(4096);
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_TRUE(cache.put(key_n(1), payload("one")));
  EXPECT_EQ(*cache.get(key_n(1)), "one");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 3u);  // strlen("one"), exactly
  EXPECT_EQ(stats.capacity_bytes, 4096u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedInOrder) {
  // Equal-size payloads make the byte budget behave like a 3-entry one.
  ResultCache cache(30);
  const std::string ten(10, 'x');
  cache.put(key_n(1), payload(ten));
  cache.put(key_n(2), payload(ten));
  cache.put(key_n(3), payload(ten));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.get(key_n(1)), nullptr);
  cache.put(key_n(4), payload(ten));  // evicts 2
  EXPECT_EQ(cache.get(key_n(2)), nullptr);
  EXPECT_NE(cache.get(key_n(1)), nullptr);
  EXPECT_NE(cache.get(key_n(3)), nullptr);
  EXPECT_NE(cache.get(key_n(4)), nullptr);
  cache.put(key_n(5), payload(ten));  // 1-3-4 re-touched; victim is 1
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes, 30u);
}

TEST(ResultCache, EvictsExactlyEnoughBytes) {
  // Regression for the byte accounting: a big insert evicts entries in
  // LRU order until it fits — no more, no fewer — and `bytes` tracks
  // the resident payload exactly at every step.
  ResultCache cache(10);
  cache.put(key_n(1), payload("aaaa"));  // 4 bytes
  cache.put(key_n(2), payload("bbbb"));  // 8 bytes resident
  EXPECT_EQ(cache.stats().bytes, 8u);
  cache.put(key_n(3), payload("cccc"));  // 12 > 10: evict only key 1
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_NE(cache.get(key_n(2)), nullptr);
  EXPECT_NE(cache.get(key_n(3)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 8u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.put(key_n(4), payload("dddddddddd"));  // 10 bytes: evict 2 and 3
  EXPECT_EQ(cache.stats().bytes, 10u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ResultCache, OversizedPayloadRejectedNotEvictingEverything) {
  // An entry bigger than the whole budget must be refused outright —
  // the buggy alternative evicts the entire cache and then caches (or
  // under-accounts) the monster anyway.
  ResultCache cache(8);
  EXPECT_TRUE(cache.put(key_n(1), payload("abcd")));
  EXPECT_FALSE(cache.put(key_n(2), payload("way too big: 9")));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.get(key_n(1)), nullptr);  // survivors keep serving
  EXPECT_EQ(cache.get(key_n(2)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 4u);
  // Replacing a resident key with an oversized value must also drop the
  // stale resident copy: serving the old bytes as if they were the new
  // answer would be a correctness bug, not a capacity decision.
  EXPECT_FALSE(cache.put(key_n(1), payload("also far too big")));
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ReplacingAKeyIsNotAnEviction) {
  ResultCache cache(64);
  cache.put(key_n(1), payload("a"));
  cache.put(key_n(1), payload("bbb"));
  EXPECT_EQ(*cache.get(key_n(1)), "bbb");
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 3u);  // old size gone, new size in
}

TEST(ResultCache, ConcurrentGetPutHammering) {
  ResultCache cache(160);  // ~16 ten-byte slots over 64 keys: constant
                           // eviction churn while threads race
  ThreadPool pool(4);
  std::atomic<int> payload_mismatches{0};
  pool.parallel_for(2000, [&](int i) {
    const std::uint64_t k = static_cast<std::uint64_t>(i % 64);
    const std::string expected = "payload-" + std::to_string(k);
    if (auto hit = cache.get(key_n(k))) {
      if (*hit != expected) payload_mismatches.fetch_add(1);
    } else {
      cache.put(key_n(k), payload(expected));
    }
  });
  EXPECT_EQ(payload_mismatches.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, 160u);
  EXPECT_EQ(stats.hits + stats.misses, 2000u);
  // With 64 keys over a ~16-entry budget there must have been evictions.
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace dvs
