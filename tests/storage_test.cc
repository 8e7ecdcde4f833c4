#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/storage/block_device.h"
#include "src/storage/segment.h"

namespace tebis {
namespace {

BlockDeviceOptions SmallDeviceOptions() {
  BlockDeviceOptions opts;
  opts.segment_size = 4096;
  opts.max_segments = 64;
  return opts;
}

TEST(SegmentGeometryTest, OffsetDecomposition) {
  SegmentGeometry g(2 * 1024 * 1024);
  EXPECT_TRUE(g.IsValid());
  EXPECT_EQ(g.shift(), 21);
  uint64_t off = g.BaseOffset(5) | 1234;
  EXPECT_EQ(g.SegmentOf(off), 5u);
  EXPECT_EQ(g.OffsetInSegment(off), 1234u);
}

TEST(SegmentGeometryTest, TranslateKeepsLowBits) {
  SegmentGeometry g(1 << 16);
  uint64_t primary_off = g.BaseOffset(42) | 999;
  uint64_t backup_off = g.Translate(primary_off, 7);
  EXPECT_EQ(g.SegmentOf(backup_off), 7u);
  EXPECT_EQ(g.OffsetInSegment(backup_off), 999u);
}

TEST(SegmentGeometryTest, RejectsNonPowerOfTwo) {
  EXPECT_FALSE(SegmentGeometry(3000).IsValid());
  auto dev = BlockDevice::Create([] {
    BlockDeviceOptions o;
    o.segment_size = 3000;
    return o;
  }());
  EXPECT_FALSE(dev.ok());
}

TEST(BlockDeviceTest, AllocateWriteRead) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto seg = (*dev)->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  uint64_t base = (*dev)->geometry().BaseOffset(*seg);

  std::string data = "tebis index segment";
  ASSERT_TRUE((*dev)->Write(base + 100, data, IoClass::kLogFlush).ok());

  std::vector<char> out(data.size());
  ASSERT_TRUE((*dev)->Read(base + 100, data.size(), out.data(), IoClass::kLookup).ok());
  EXPECT_EQ(std::string(out.begin(), out.end()), data);
}

TEST(BlockDeviceTest, IoToUnallocatedSegmentFails) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  char b = 'x';
  EXPECT_FALSE((*dev)->Write(0, Slice(&b, 1), IoClass::kOther).ok());
  EXPECT_FALSE((*dev)->Read(0, 1, &b, IoClass::kOther).ok());
}

TEST(BlockDeviceTest, CrossSegmentTransferRejected) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  auto s1 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok() && s1.ok());
  std::string data(100, 'z');
  uint64_t near_end = (*dev)->geometry().BaseOffset(*s0) + 4096 - 50;
  EXPECT_FALSE((*dev)->Write(near_end, data, IoClass::kOther).ok());
}

TEST(BlockDeviceTest, RangeErrorsKeepTheirStatuses) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto seg = (*dev)->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  const uint64_t base = (*dev)->geometry().BaseOffset(*seg);
  char buf[200] = {};
  Status zero = (*dev)->Read(base, 0, buf, IoClass::kOther);
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero.ToString().find("zero-length"), std::string::npos);
  Status cross = (*dev)->Write(base + 4096 - 50, Slice(buf, 100), IoClass::kOther);
  EXPECT_EQ(cross.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cross.ToString().find("crosses a segment boundary"), std::string::npos);
  Status unallocated =
      (*dev)->Read((*dev)->geometry().BaseOffset(*seg + 1), 8, buf, IoClass::kOther);
  EXPECT_EQ(unallocated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unallocated.ToString().find("unallocated segment"), std::string::npos);
  // Rejected transfers are never accounted.
  EXPECT_EQ((*dev)->stats().ReadOps() + (*dev)->stats().WriteOps(), 0u);
}

TEST(BlockDeviceTest, FreeSegmentRecycled) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok());
  EXPECT_TRUE((*dev)->IsAllocated(*s0));
  ASSERT_TRUE((*dev)->FreeSegment(*s0).ok());
  EXPECT_FALSE((*dev)->IsAllocated(*s0));
  auto s1 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, *s0);  // recycled
}

TEST(BlockDeviceTest, DoubleFreeFails) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE((*dev)->FreeSegment(*s0).ok());
  EXPECT_FALSE((*dev)->FreeSegment(*s0).ok());
}

TEST(BlockDeviceTest, CapacityExhaustion) {
  BlockDeviceOptions opts = SmallDeviceOptions();
  opts.max_segments = 2;
  auto dev = BlockDevice::Create(opts);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE((*dev)->AllocateSegment().ok());
  ASSERT_TRUE((*dev)->AllocateSegment().ok());
  auto s = (*dev)->AllocateSegment();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
}

TEST(BlockDeviceTest, FreedSegmentContentsZeroedOnReuse) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok());
  uint64_t base = (*dev)->geometry().BaseOffset(*s0);
  std::string data = "sensitive";
  ASSERT_TRUE((*dev)->Write(base, data, IoClass::kOther).ok());
  ASSERT_TRUE((*dev)->FreeSegment(*s0).ok());
  auto s1 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s1.ok());
  std::vector<char> out(data.size(), 'q');
  ASSERT_TRUE((*dev)->Read(base, data.size(), out.data(), IoClass::kOther).ok());
  for (char c : out) {
    EXPECT_EQ(c, '\0');
  }
}

TEST(BlockDeviceTest, StatsAccounting) {
  auto dev = BlockDevice::Create(SmallDeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok());
  uint64_t base = (*dev)->geometry().BaseOffset(*s0);
  std::string data(128, 'a');
  ASSERT_TRUE((*dev)->Write(base, data, IoClass::kLogFlush).ok());
  ASSERT_TRUE((*dev)->Write(base + 128, data, IoClass::kCompactionWrite).ok());
  char out[64];
  ASSERT_TRUE((*dev)->Read(base, 64, out, IoClass::kCompactionRead).ok());

  const IoStats& st = (*dev)->stats();
  EXPECT_EQ(st.WriteBytes(IoClass::kLogFlush), 128u);
  EXPECT_EQ(st.WriteBytes(IoClass::kCompactionWrite), 128u);
  EXPECT_EQ(st.ReadBytes(IoClass::kCompactionRead), 64u);
  EXPECT_EQ(st.TotalWriteBytes(), 256u);
  EXPECT_EQ(st.TotalReadBytes(), 64u);
  EXPECT_EQ(st.WriteOps(), 2u);
  EXPECT_EQ(st.ReadOps(), 1u);
}

TEST(BlockDeviceTest, FileBackedPersistsToFile) {
  BlockDeviceOptions opts = SmallDeviceOptions();
  opts.backing_file = testing::TempDir() + "/tebis_dev_test.img";
  auto dev = BlockDevice::Create(opts);
  ASSERT_TRUE(dev.ok());
  auto s0 = (*dev)->AllocateSegment();
  ASSERT_TRUE(s0.ok());
  uint64_t base = (*dev)->geometry().BaseOffset(*s0);
  std::string data = "persisted bytes";
  ASSERT_TRUE((*dev)->Write(base + 8, data, IoClass::kLogFlush).ok());

  // Verify through the file, not the device.
  FILE* f = fopen(opts.backing_file.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, static_cast<long>(base + 8), SEEK_SET), 0);
  std::vector<char> out(data.size());
  ASSERT_EQ(fread(out.data(), 1, out.size(), f), out.size());
  fclose(f);
  EXPECT_EQ(std::string(out.begin(), out.end()), data);
}

TEST(BlockDeviceTest, ConcurrentAllocAndIo) {
  BlockDeviceOptions opts = SmallDeviceOptions();
  opts.max_segments = 1024;
  auto dev = BlockDevice::Create(opts);
  ASSERT_TRUE(dev.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        auto seg = (*dev)->AllocateSegment();
        if (!seg.ok()) {
          failures++;
          continue;
        }
        uint64_t base = (*dev)->geometry().BaseOffset(*seg);
        std::string data = "thread" + std::to_string(t) + "iter" + std::to_string(i);
        if (!(*dev)->Write(base, data, IoClass::kOther).ok()) {
          failures++;
        }
        std::vector<char> out(data.size());
        if (!(*dev)->Read(base, data.size(), out.data(), IoClass::kOther).ok() ||
            std::string(out.begin(), out.end()) != data) {
          failures++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*dev)->AllocatedSegments(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(IoStatsTest, ResetZeroesEverything) {
  IoStats st;
  st.AddRead(IoClass::kLookup, 100);
  st.AddWrite(IoClass::kLogFlush, 200);
  st.Reset();
  EXPECT_EQ(st.TotalBytes(), 0u);
  EXPECT_EQ(st.ReadOps(), 0u);
  EXPECT_EQ(st.WriteOps(), 0u);
}

TEST(IoStatsTest, ClassNamesDistinct) {
  std::set<std::string> names;
  for (int i = 0; i < kNumIoClasses; ++i) {
    names.insert(IoClassName(static_cast<IoClass>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumIoClasses));
}

TEST(BlockDeviceCostModelTest, ThrottleSlowsLargeTransfers) {
  BlockDeviceOptions opts = SmallDeviceOptions();
  opts.max_segments = 512;
  opts.cost_model.write_bandwidth_bytes_per_sec = 16 * 1024 * 1024;  // 16 MB/s
  auto dev = BlockDevice::Create(opts);
  ASSERT_TRUE(dev.ok());
  std::string data(4096, 'b');
  uint64_t start = NowNanos();
  for (int i = 0; i < 256; ++i) {  // 1 MB total => ~62ms at 16MB/s
    auto seg = (*dev)->AllocateSegment();
    ASSERT_TRUE(seg.ok());
    ASSERT_TRUE((*dev)->Write((*dev)->geometry().BaseOffset(*seg), data, IoClass::kOther).ok());
  }
  uint64_t elapsed_ms = (NowNanos() - start) / 1000000;
  EXPECT_GE(elapsed_ms, 40u);
}

}  // namespace
}  // namespace tebis
