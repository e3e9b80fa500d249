//===- bench/abl03_failure_buffer.cpp - Failure buffer sizing -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Section 3.1.1 sizing study: the failure buffer bounds how many
// simultaneous failures the module tolerates before it must stall writes
// ("no larger than the processor's load/store queues"). This microbench
// drives bursts of wear-out failures through devices with different
// buffer capacities (with an OS that drains lazily) and reports stall
// events and buffer high-water marks, plus the raw device throughput.
//
//===----------------------------------------------------------------------===//

#include "FigureHarness.h"

#include "pcm/PcmDevice.h"

#include <chrono>

using namespace wearmem;

namespace {

/// Timed operations per device micro-benchmark.
constexpr uint64_t DeviceOps = 1u << 20;

double nsPerOp(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - Start)
             .count() /
         static_cast<double>(DeviceOps);
}

/// Device write cost without failures (the common case the buffer must
/// not slow down). The write results feed \p Checksum, which the caller
/// prints, so the calls stay live.
double writeNs(uint64_t &Checksum) {
  PcmDeviceConfig Config;
  Config.NumPages = 64;
  Config.MeanLineLifetime = 1ull << 40; // Effectively no wear.
  PcmDevice Device(Config);
  uint8_t Data[PcmLineSize] = {1, 2, 3};
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != DeviceOps; ++I)
    Checksum += static_cast<uint64_t>(
        Device.writeLine(I % Device.numLines(), Data));
  return nsPerOp(Start);
}

/// Read-forwarding lookup cost while the buffer holds pending entries.
double forwardedReadNs(uint64_t &Checksum) {
  PcmDeviceConfig Config;
  Config.NumPages = 64;
  Config.FailureBufferCapacity = 32;
  PcmDevice Device(Config);
  uint8_t Data[PcmLineSize] = {7};
  // Latch a handful of failures that stay pending.
  for (LineIndex Line = 0; Line != 8; ++Line) {
    Device.injectImminentFailure(Line);
    Device.writeLine(Line, Data);
  }
  uint8_t Out[PcmLineSize];
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != DeviceOps; ++I) {
    Device.readLine(I % 8, Out); // Always forwarded.
    Checksum += Out[0];
  }
  return nsPerOp(Start);
}

/// Burst tolerance: the stalls a burst of \p Burst failures causes at
/// buffer capacity \p Capacity, with an OS that only drains when
/// stalled, and the buffer's high-water mark.
std::pair<uint64_t, uint64_t> failureBurst(size_t Capacity, size_t Burst) {
  PcmDeviceConfig Config;
  Config.NumPages = 64;
  Config.FailureBufferCapacity = Capacity;
  PcmDevice Device(Config);
  // Lazy OS: drains one entry only when the device stalls.
  Device.setStallInterrupt([&Device] {
    std::vector<FailureRecord> Pending = Device.pendingFailures();
    if (!Pending.empty())
      Device.clearBufferEntry(Pending.front().LineAddr);
  });
  uint8_t Data[PcmLineSize] = {9};
  for (size_t I = 0; I != Burst; ++I)
    Device.injectImminentFailure(I);
  // Retry through stalls (each stall drains one entry).
  for (size_t I = 0; I != Burst; ++I)
    while (Device.writeLine(I, Data) == WriteResult::Stalled) {
    }
  return {Device.stats().StallEvents, Device.failureBuffer().highWater()};
}

} // namespace

int main(int argc, char **argv) {
  startFigure(argc, argv);
  uint64_t Checksum = 0;
  double WriteNs = writeNs(Checksum);
  double ReadNs = forwardedReadNs(Checksum);
  std::printf("device write, no wear: %.2f ns/line; forwarded read: %.2f "
              "ns/line (%llu ops each, checksum %llu)\n",
              WriteNs, ReadNs, static_cast<unsigned long long>(DeviceOps),
              static_cast<unsigned long long>(Checksum));

  Table Fig("Section 3.1.1: stalls and buffer high-water mark of a "
            "failure burst, by buffer capacity (the OS drains one entry "
            "per stall)");
  Fig.setHeader({"capacity", "burst", "stalls", "highwater"});
  for (size_t Burst : {16, 48}) {
    for (size_t Capacity : {4, 8, 16, 32, 64}) {
      auto [Stalls, HighWater] = failureBurst(Capacity, Burst);
      Fig.addRow({std::to_string(Capacity), std::to_string(Burst),
                  std::to_string(Stalls), std::to_string(HighWater)});
    }
  }
  Fig.print();
  std::printf("paper: a burst larger than the buffer capacity forces one "
              "stall-and-drain per overflowing failure; modest capacities "
              "(16-32) absorb realistic bursts without stalling\n");
  return 0;
}
