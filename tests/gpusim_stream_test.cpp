// StreamSim: stream/event ordering, per-direction copy queues, copy/compute
// overlap accounting, and functional data movement.
#include "gpusim/stream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/error.h"

namespace acgpu::gpusim {
namespace {

GpuConfig test_config() {
  GpuConfig cfg = GpuConfig::gtx285();
  // Round numbers so expected timings are exact: 1 GB/s, no setup latency.
  cfg.pcie_bytes_per_second = 1e9;
  cfg.pcie_latency_seconds = 0;
  return cfg;
}

TEST(StreamSim, H2DMovesBytesImmediately) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId s = sim.create_stream();

  const std::string payload = "stream me";
  const DevAddr dst = mem.alloc(64);
  sim.memcpy_h2d(s, dst, payload.data(), payload.size());

  std::string back(payload.size(), '\0');
  mem.copy_out(back.data(), dst, payload.size());
  EXPECT_EQ(back, payload);
}

TEST(StreamSim, D2HMovesBytesImmediately) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId s = sim.create_stream();

  const DevAddr src = mem.alloc(64);
  const std::string payload = "round trip";
  mem.copy_in(src, payload.data(), payload.size());

  std::string back(payload.size(), '\0');
  sim.memcpy_d2h(s, back.data(), src, payload.size());
  EXPECT_EQ(back, payload);
}

TEST(StreamSim, TransferTimeIsLatencyPlusBandwidth) {
  GpuConfig cfg = test_config();
  cfg.pcie_latency_seconds = 1e-3;
  DeviceMemory mem(1 << 20);
  StreamSim sim(cfg, mem);
  EXPECT_DOUBLE_EQ(sim.transfer_seconds(2'000'000), 1e-3 + 2e-3);
}

TEST(StreamSim, FifoWithinOneStream) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId s = sim.create_stream();
  const DevAddr buf = mem.alloc(4096);
  std::vector<char> host(4096);

  sim.memcpy_h2d(s, buf, host.data(), 1000);      // 1 us at 1 GB/s... (1e-6 s)
  sim.charge_kernel(s, 5e-6, "k");
  sim.memcpy_d2h(s, host.data(), buf, 2000);

  const auto& ops = sim.timeline();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_DOUBLE_EQ(ops[0].start, 0);
  EXPECT_DOUBLE_EQ(ops[0].end, 1e-6);
  EXPECT_DOUBLE_EQ(ops[1].start, 1e-6);  // kernel waits for its stream's copy
  EXPECT_DOUBLE_EQ(ops[1].end, 6e-6);
  EXPECT_DOUBLE_EQ(ops[2].start, 6e-6);
  EXPECT_DOUBLE_EQ(ops[2].end, 8e-6);
  EXPECT_DOUBLE_EQ(sim.synchronize(), 8e-6);
}

TEST(StreamSim, CopiesSerialiseOnTheSingleCopyEngine) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();
  const DevAddr buf = mem.alloc(4096);
  std::vector<char> host(4096);

  sim.memcpy_h2d(a, buf, host.data(), 1000);
  sim.memcpy_h2d(b, buf + 2048, host.data(), 1000);

  const auto& ops = sim.timeline();
  // Different streams, but one upload queue: back to back, not concurrent.
  EXPECT_DOUBLE_EQ(ops[0].end, 1e-6);
  EXPECT_DOUBLE_EQ(ops[1].start, 1e-6);
  EXPECT_DOUBLE_EQ(ops[1].end, 2e-6);
}

TEST(StreamSim, CopyOverlapsComputeAcrossStreams) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();
  const DevAddr buf = mem.alloc(4096);
  std::vector<char> host(4096);

  sim.memcpy_h2d(a, buf, host.data(), 1000);       // [0, 1us] copy engine
  sim.charge_kernel(a, 3e-6, "ka");                // [1us, 4us] compute
  sim.memcpy_h2d(b, buf + 2048, host.data(), 2000);  // [1us, 3us] copy engine

  const auto& ops = sim.timeline();
  EXPECT_DOUBLE_EQ(ops[1].start, 1e-6);
  EXPECT_DOUBLE_EQ(ops[2].start, 1e-6);  // b's copy runs under a's kernel

  const OverlapStats stats = sim.overlap();
  EXPECT_DOUBLE_EQ(stats.makespan, 4e-6);
  EXPECT_DOUBLE_EQ(stats.copy_busy, 3e-6);
  EXPECT_DOUBLE_EQ(stats.compute_busy, 3e-6);
  EXPECT_DOUBLE_EQ(stats.overlapped, 2e-6);  // [1us, 3us]
  EXPECT_DOUBLE_EQ(stats.overlap_ratio(), 2.0 / 3.0);
}

TEST(StreamSim, KernelsSerialiseOnTheComputeEngine) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();

  sim.charge_kernel(a, 2e-6, "ka");
  sim.charge_kernel(b, 2e-6, "kb");  // GT200: no concurrent kernels

  const auto& ops = sim.timeline();
  EXPECT_DOUBLE_EQ(ops[0].end, 2e-6);
  EXPECT_DOUBLE_EQ(ops[1].start, 2e-6);
}

TEST(StreamSim, EventsOrderAcrossStreams) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();

  sim.charge_kernel(a, 4e-6, "ka");
  const EventId e = sim.record_event(a);
  EXPECT_DOUBLE_EQ(sim.event_seconds(e), 4e-6);

  sim.wait_event(b, e);
  sim.charge_kernel(b, 1e-6, "kb");
  // b's kernel could start at 4us anyway (compute engine frees then), so use
  // a copy: it would start at 0 without the event dependency.
  const StreamId c = sim.create_stream();
  sim.wait_event(c, e);
  const DevAddr buf = mem.alloc(64);
  std::vector<char> host(64);
  sim.memcpy_h2d(c, buf, host.data(), 64);
  EXPECT_DOUBLE_EQ(sim.timeline().back().start, 4e-6);
}

TEST(StreamSim, CriticalPathFollowsTheOpThatBoundEachStart) {
  // Stream A uploads 1 us then runs a 10 us kernel; stream B's 3 us upload
  // queues behind A's, its 2 us kernel behind A's kernel. A's 1 us readback
  // waits on an event after B's kernel, and B's 0.5 us readback queues
  // behind it. B's upload is off the critical path.
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();
  const DevAddr buf = mem.alloc(4096);
  std::vector<char> host(4096);
  sim.memcpy_h2d(a, buf, host.data(), 1000);         // op 0: 0-1 us
  sim.memcpy_h2d(b, buf + 1024, host.data(), 3000);  // op 1: 1-4 us
  sim.charge_kernel(a, 10e-6);                       // op 2: 1-11 us
  sim.charge_kernel(b, 2e-6);                        // op 3: 11-13 us
  sim.wait_event(a, sim.record_event(b));
  sim.charge_d2h(a, 1000);  // op 4: 13-14 us
  sim.charge_d2h(b, 500);   // op 5: 14-14.5 us

  const auto& ops = sim.timeline();
  ASSERT_EQ(ops.size(), 6u);
  // Bound by: nothing, the upload queue, stream A, the compute engine,
  // the event, the readback queue.
  const std::uint64_t bound_by[] = {StreamOp::kNoOp, 0, 0, 2, 3, 4};
  for (std::size_t i = 0; i < ops.size(); ++i)
    EXPECT_EQ(ops[i].bound_by, bound_by[i]) << "op " << i;
  EXPECT_DOUBLE_EQ(ops[5].end, 14.5e-6);

  // op 5 <- op 4 (readback queue) <- op 3 (event) <- op 2 (compute engine)
  // <- op 0 (stream A).
  const CriticalPath path = sim.critical_path();
  EXPECT_NEAR(path.h2d, 1e-6, 1e-15);
  EXPECT_NEAR(path.kernel, 12e-6, 1e-15);
  EXPECT_NEAR(path.d2h, 1.5e-6, 1e-15);
  EXPECT_NEAR(path.h2d + path.kernel + path.d2h, sim.overlap().makespan, 1e-15);
}

TEST(StreamSim, CriticalPathOfAnEmptyTimelineIsZero) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  sim.create_stream();
  const CriticalPath path = sim.critical_path();
  EXPECT_EQ(path.h2d + path.kernel + path.d2h, 0.0);
}

TEST(StreamSim, StreamReadyTracksLastOp) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();
  EXPECT_DOUBLE_EQ(sim.stream_ready(a), 0);
  sim.charge_kernel(a, 2e-6, "ka");
  EXPECT_DOUBLE_EQ(sim.stream_ready(a), 2e-6);
  EXPECT_DOUBLE_EQ(sim.stream_ready(b), 0);
}

TEST(StreamSim, InvalidIdsThrow) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  EXPECT_THROW(sim.charge_kernel(0, 1e-6, "k"), Error);
  EXPECT_THROW(sim.event_seconds(0), Error);
  EXPECT_THROW(sim.op_end(0), Error);
}

TEST(StreamSim, DedicatedReadbackEngineDuplexesTransfers) {
  DeviceMemory mem(1 << 20);
  StreamSim sim(test_config(), mem);
  const StreamId a = sim.create_stream();
  const StreamId b = sim.create_stream();
  const DevAddr buf = mem.alloc(4096);
  std::vector<char> host(4096);

  // An upload and a readback on different streams: full-duplex PCIe, both
  // start at t=0 instead of serialising on one DMA engine.
  sim.memcpy_h2d(a, buf, host.data(), 1000);
  sim.memcpy_d2h(b, host.data() + 2048, buf, 1000);
  const auto& ops = sim.timeline();
  EXPECT_DOUBLE_EQ(ops[0].start, 0);
  EXPECT_DOUBLE_EQ(ops[1].start, 0);

  // A second D2H queues behind the first on the readback engine, leaving
  // the upload engine free.
  sim.memcpy_d2h(b, host.data() + 3000, buf, 1000);
  sim.memcpy_h2d(a, buf + 2048, host.data(), 1000);
  EXPECT_DOUBLE_EQ(sim.timeline()[2].start, 1e-6);  // behind first D2H
  EXPECT_DOUBLE_EQ(sim.timeline()[3].start, 1e-6);  // behind first H2D only

  const OverlapStats ov = sim.overlap();
  EXPECT_DOUBLE_EQ(ov.h2d_busy, 2e-6);
  EXPECT_DOUBLE_EQ(ov.d2h_busy, 2e-6);
  // Both directions fully overlapped: the union of transfer intervals is
  // half the serialised total.
  EXPECT_DOUBLE_EQ(ov.copy_busy, 2e-6);
}

}  // namespace
}  // namespace acgpu::gpusim
