// Steady-state allocation invariants of the data plane: a spine or core
// process() call, and a leaf call that makes no host-bound copy, allocate
// nothing; a hypervisor encapsulate allocates only the packet buffer. This
// file replaces the global operator new for the whole dataplane_tests
// binary with a counting one; the counter is read only around the calls
// under test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "obs/timeseries.h"
#include "sim/fabric.h"
#include "elmo/encoder.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Once GCC inlines these it pairs free() with operator new and warns; here
// they are the matching pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace elmo::dp {
namespace {

// The paper's running example group (Fig. 3), walked hop by hop through the
// ForwardingElement interface with one reused arena, as sim::Fabric does.
class ZeroAllocationTest : public ::testing::Test {
 protected:
  ZeroAllocationTest()
      : topo_{topo::ClosParams::running_example()},
        tree_{topo_, std::vector<topo::HostId>{0, 1, 10, 12, 13, 15}} {
    EncoderConfig cfg;
    cfg.hmax_leaf_override = 8;
    cfg.hmax_spine = 4;
    encoding_ = GroupEncoder{topo_, cfg}.encode(tree_, nullptr);
  }

  net::PacketView sent_by(topo::HostId sender) {
    HypervisorSwitch hv{topo_, sender};
    hv.install_flow(group_, 0, {},
                    elmo::HeaderCodec{topo_}.serialize(
                        tree_.sender_encoding(sender), encoding_));
    return net::PacketView{
        std::move(*hv.encapsulate(group_, std::vector<std::uint8_t>(64, 0)))};
  }

  // The `pick`-th emission of `sw` for `in`.
  net::PacketView hop(NetworkSwitch& sw, const net::PacketView& in,
                      std::size_t pick) {
    arena_.clear();
    const auto out = sw.process(in, 0, arena_);
    EXPECT_GT(out.size(), pick);
    return out[pick].packet;
  }

  // Heap allocations over kCalls process() calls once the arena has seen
  // the hop.
  static constexpr int kCalls = 50;
  std::uint64_t allocations_in_calls(NetworkSwitch& sw,
                                     const net::PacketView& in) {
    arena_.clear();
    (void)sw.process(in, 0, arena_);
    const auto before = g_allocations.load();
    for (int i = 0; i < kCalls; ++i) {
      arena_.clear();
      (void)sw.process(in, 0, arena_);
    }
    return g_allocations.load() - before;
  }

  topo::ClosTopology topo_;
  elmo::MulticastTree tree_;
  GroupEncoding encoding_;
  net::Ipv4Address group_ = net::Ipv4Address::multicast_group(77);
  EmissionArena arena_;
};

TEST_F(ZeroAllocationTest, CounterSeesHeapAllocations) {
  const auto before = g_allocations.load();
  auto* p = new std::vector<int>(8);
  delete p;
  EXPECT_EQ(g_allocations.load() - before, 2u);
}

TEST_F(ZeroAllocationTest, SpineAndCoreProcessAllocateNothing) {
  // Ha (host 0) -> L0 -> S0 (upstream) -> core -> S3 (p-rule) -> L6.
  NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
  NetworkSwitch spine0{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  NetworkSwitch core{topo_, topo::Layer::kCore, 0};
  NetworkSwitch spine3{topo_, topo::Layer::kSpine, topo_.spine_at(3, 0)};
  const auto at_spine0 = hop(leaf0, sent_by(0), 1);
  const auto at_core = hop(spine0, at_spine0, 0);
  const auto at_spine3 = hop(core, at_core, 1);

  EXPECT_EQ(allocations_in_calls(spine0, at_spine0), 0u);
  EXPECT_EQ(allocations_in_calls(core, at_core), 0u);
  EXPECT_EQ(allocations_in_calls(spine3, at_spine3), 0u);
  EXPECT_EQ(spine0.stats().upstream_matches, 52u);
  EXPECT_EQ(core.stats().prule_matches, 52u);
  EXPECT_EQ(spine3.stats().prule_matches, 51u);
}

TEST_F(ZeroAllocationTest, LeafWithoutHostCopiesAllocatesNothing) {
  // Host 10 is the only member on L5, so its leaf only sends up.
  NetworkSwitch leaf5{topo_, topo::Layer::kLeaf, 5};
  const auto sent = sent_by(10);
  EXPECT_EQ(allocations_in_calls(leaf5, sent), 0u);
  EXPECT_EQ(leaf5.stats().upstream_matches, 51u);
  EXPECT_EQ(leaf5.stats().copies_out, 51u);

  // A leaf outside the tree drops what a spine hands it.
  NetworkSwitch leaf0{topo_, topo::Layer::kLeaf, 0};
  NetworkSwitch spine0{topo_, topo::Layer::kSpine, topo_.spine_at(0, 0)};
  NetworkSwitch core{topo_, topo::Layer::kCore, 0};
  NetworkSwitch spine3{topo_, topo::Layer::kSpine, topo_.spine_at(3, 0)};
  const auto at_l6 =
      hop(spine3, hop(core, hop(spine0, hop(leaf0, sent_by(0), 1), 0), 1), 0);
  NetworkSwitch outsider{topo_, topo::Layer::kLeaf, 3};
  EXPECT_EQ(allocations_in_calls(outsider, at_l6), 0u);
  EXPECT_EQ(outsider.stats().drops, 51u);
}

// DESIGN.md §4: encapsulation writes the outer headers, the sender's
// prefix and the group's shared suffix straight into the one packet
// buffer, whatever the header's size.
TEST_F(ZeroAllocationTest, EncapsulateAllocatesOnlyThePacketBuffer) {
  HypervisorSwitch hv{topo_, 0};
  const std::vector<std::uint8_t> payload(64, 0);
  const auto elmo = elmo::HeaderCodec{topo_}.serialize(
      tree_.sender_encoding(0), encoding_);
  // Past the default headroom: an unparseable header is stored whole.
  const std::vector<std::uint8_t> oversized(
      net::Packet::kDefaultHeadroom + 100, 0x55);
  for (const auto& header : {elmo, oversized}) {
    hv.install_flow(group_, 1, {}, header);
    (void)hv.encapsulate(group_, payload);
    const auto before = g_allocations.load();
    for (int i = 0; i < kCalls; ++i) {
      const auto packet = hv.encapsulate(group_, payload);
      ASSERT_EQ(packet->size(),
                net::kOuterHeaderBytes + header.size() + payload.size());
    }
    EXPECT_EQ(g_allocations.load() - before, std::uint64_t{kCalls})
        << header.size() << "-byte header";
  }
}

// DESIGN.md §14: the health sampler reads the fabric's series table into a
// store without touching the heap once every series exists.
TEST_F(ZeroAllocationTest, FabricSampleIntoAllocatesNothingAfterFirstCall) {
  sim::Fabric fabric{topo_};
  obs::TimeSeriesStore store;
  fabric.sample_into(store);
  store.advance();
  const auto before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i) {
    fabric.sample_into(store);
    store.advance();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(store.series_count(), 22u);
}

}  // namespace
}  // namespace elmo::dp
