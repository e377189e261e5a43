// Tests for the persistence layer: serializer primitives, framed files,
// structure round-trips, full index snapshots, and corruption injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"

#include "src/common/linear_model.h"
#include "src/common/random.h"
#include "src/core/skeleton.h"
#include "src/core/tsunami.h"
#include "src/io/serializer.h"
#include "src/storage/column_store.h"
#include "tests/scan_oracle.h"

namespace tsunami {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Serializer primitives ---------------------------------------------------

TEST(SerializerTest, Crc32KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(SerializerTest, VarintRoundTripExtremes) {
  BinaryWriter writer;
  const int64_t cases[] = {0,
                           1,
                           -1,
                           127,
                           -128,
                           1 << 20,
                           -(1 << 20),
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) writer.PutVarI64(v);
  BinaryReader reader(writer.buffer());
  for (int64_t v : cases) EXPECT_EQ(reader.GetVarI64(), v);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializerTest, UnsignedVarintBoundaries) {
  BinaryWriter writer;
  const uint64_t cases[] = {0, 0x7F, 0x80, 0x3FFF, 0x4000,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) writer.PutVarU64(v);
  BinaryReader reader(writer.buffer());
  for (uint64_t v : cases) EXPECT_EQ(reader.GetVarU64(), v);
  EXPECT_TRUE(reader.ok());
}

TEST(SerializerTest, DoubleRoundTripIsBitExact) {
  BinaryWriter writer;
  const double cases[] = {0.0, -0.0, 1.5, -3.25e300, 5e-324,
                          std::numeric_limits<double>::infinity()};
  for (double v : cases) writer.PutDouble(v);
  BinaryReader reader(writer.buffer());
  for (double v : cases) {
    double got = reader.GetDouble();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(v)), 0);
  }
}

TEST(SerializerTest, ReaderUnderflowLatchesNotOk) {
  BinaryWriter writer;
  writer.PutFixed32(42);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetFixed32(), 42u);
  EXPECT_TRUE(reader.ok());
  reader.GetFixed64();  // Underflow.
  EXPECT_FALSE(reader.ok());
  // Subsequent reads stay not-ok and return defaults.
  EXPECT_EQ(reader.GetVarI64(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializerTest, MalformedVarintRejected) {
  std::string bad(11, '\x80');  // 11 continuation bytes: too long.
  BinaryReader reader(bad);
  reader.GetVarU64();
  EXPECT_FALSE(reader.ok());
}

TEST(SerializerTest, CorruptLengthPrefixDoesNotAllocate) {
  BinaryWriter writer;
  writer.PutVarU64(uint64_t{1} << 62);  // Absurd element count.
  BinaryReader reader(writer.buffer());
  std::vector<Value> out;
  EXPECT_FALSE(reader.GetValueVec(&out));
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(out.empty());
}

TEST(SerializerTest, StringRoundTripAndTruncation) {
  BinaryWriter writer;
  writer.PutString("hello");
  writer.PutString("");
  {
    BinaryReader reader(writer.buffer());
    EXPECT_EQ(reader.GetString(), "hello");
    EXPECT_EQ(reader.GetString(), "");
    EXPECT_TRUE(reader.ok());
  }
  // Truncated: length prefix says 5, only 3 bytes follow.
  std::string cut = writer.buffer().substr(0, 4);
  BinaryReader reader(cut);
  reader.GetString();
  EXPECT_FALSE(reader.ok());
}

TEST(SerializerTest, RandomBytesNeverCrashReader) {
  // Adversarial decode: feed random garbage to every reader entry point;
  // the reader must return defaults and latch !ok(), never crash or
  // over-allocate.
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string junk(rng.NextBelow(64), '\0');
    for (char& c : junk) c = static_cast<char>(rng.NextBelow(256));
    BinaryReader reader(junk);
    switch (trial % 6) {
      case 0:
        reader.GetVarU64();
        break;
      case 1:
        reader.GetVarI64();
        break;
      case 2:
        reader.GetString();
        break;
      case 3: {
        std::vector<Value> out;
        reader.GetValueVec(&out);
        break;
      }
      case 4: {
        std::vector<double> out;
        reader.GetDoubleVec(&out);
        break;
      }
      default:
        reader.GetDouble();
        reader.GetFixed32();
        break;
    }
    // Drain the rest; must terminate and stay consistent.
    while (reader.ok() && !reader.AtEnd()) reader.GetU8();
  }
  SUCCEED();
}

// --- Framed files ------------------------------------------------------------

class FramedFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = TempPath("tsunami_frame_test.bin");
};

TEST_F(FramedFileTest, RoundTrip) {
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, "payload", &error))
      << error;
  std::string payload;
  ASSERT_TRUE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error))
      << error;
  EXPECT_EQ(payload, "payload");
}

TEST_F(FramedFileTest, MissingFile) {
  std::string payload, error;
  EXPECT_FALSE(ReadFramedFile(TempPath("does_not_exist.bin"),
                              FileKind::kDataset, &payload, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(FramedFileTest, KindMismatch) {
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, "p", &error));
  std::string payload;
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kTsunamiIndex, &payload, &error));
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST_F(FramedFileTest, BadMagic) {
  std::ofstream(path_, std::ios::binary) << "this is not a tsunami file!!";
  std::string payload, error;
  EXPECT_FALSE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST_F(FramedFileTest, TruncationDetected) {
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset,
                              std::string(1000, 'x'), &error));
  std::filesystem::resize_file(path_, 500);
  std::string payload;
  EXPECT_FALSE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST_F(FramedFileTest, BitFlipDetectedByChecksum) {
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset,
                              std::string(1000, 'x'), &error));
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(600);
    f.put('y');
  }
  std::string payload;
  EXPECT_FALSE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

TEST_F(FramedFileTest, TruncationAtEveryByteIsTypedAndLoadsNothing) {
  // A crash mid-write or a torn copy can leave the file cut at ANY byte.
  // Every prefix must produce the exact typed error — kTruncated — with no
  // crash and no partial payload escaping to the caller.
  const std::string body = "framed-truncation-sweep-payload";
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, body, &error));
  std::string whole;
  {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    whole = ss.str();
  }
  constexpr size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;
  ASSERT_EQ(whole.size(), kHeaderSize + body.size());
  for (size_t cut = 0; cut < whole.size(); ++cut) {
    std::ofstream(path_, std::ios::binary) << whole.substr(0, cut);
    std::string payload = "sentinel";
    FileError code = FileError::kNone;
    error.clear();
    EXPECT_FALSE(
        ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code))
        << "cut at " << cut;
    EXPECT_EQ(code, FileError::kTruncated) << "cut at " << cut << ": " << error;
    EXPECT_EQ(payload, "sentinel") << "partial load at cut " << cut;
  }
}

#if defined(TSUNAMI_FAULT_INJECTION)
TEST_F(FramedFileTest, ShortReadFaultSweepAcrossSectionBoundaries) {
  // Same contract, driven through the io.short_read fault site: the armed
  // spec's param is the exact byte offset to cut at, so the sweep lands on
  // every section boundary of the v3 layout — magic | version | kind |
  // payload_size | crc | payload — plus the off-by-one positions around
  // each.
  const std::string body(257, 'z');
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, body, &error));
  constexpr int64_t kHeaderSize = 4 + 4 + 4 + 8 + 4;
  const int64_t total = kHeaderSize + static_cast<int64_t>(body.size());
  std::vector<int64_t> cuts;
  for (int64_t boundary : {int64_t{0}, int64_t{4}, int64_t{8}, int64_t{12},
                           int64_t{20}, kHeaderSize, total / 2, total - 1}) {
    for (int64_t delta : {int64_t{-1}, int64_t{0}, int64_t{1}}) {
      const int64_t cut = boundary + delta;
      if (cut >= 0 && cut < total) cuts.push_back(cut);
    }
  }
  for (int64_t cut : cuts) {
    fault::FaultSpec spec;
    spec.param = cut;
    fault::Arm("io.short_read", spec);
    std::string payload = "sentinel";
    FileError code = FileError::kNone;
    error.clear();
    EXPECT_FALSE(
        ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code))
        << "cut at " << cut;
    EXPECT_EQ(code, FileError::kTruncated) << "cut at " << cut << ": " << error;
    EXPECT_EQ(payload, "sentinel") << "partial load at cut " << cut;
  }
  // The default (param unset) halves the file — still a typed truncation.
  fault::Arm("io.short_read", fault::FaultSpec{});
  std::string payload = "sentinel";
  FileError code = FileError::kNone;
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kTruncated);
  EXPECT_EQ(payload, "sentinel");
  fault::DisarmAll();

  // Disarmed, the very same file loads bit-exactly.
  std::string ok_payload;
  ASSERT_TRUE(ReadFramedFile(path_, FileKind::kDataset, &ok_payload, &error));
  EXPECT_EQ(ok_payload, body);
}
#endif  // TSUNAMI_FAULT_INJECTION

TEST(SerializerTest, XxHash64KnownVectorsAndSeeding) {
  // XXH64 reference check values.
  EXPECT_EQ(XxHash64(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(XxHash64("abc"), 0x44BC2CF5AD770999ull);
  // Seed perturbs the hash; same input + seed replays identically.
  EXPECT_NE(XxHash64("abc", 1), XxHash64("abc", 0));
  EXPECT_EQ(XxHash64("abc", 7), XxHash64("abc", 7));
  // Exercise the >32-byte striped path too.
  std::string long_input(1000, 'q');
  EXPECT_NE(XxHash64(long_input), XxHash64(long_input.substr(0, 999)));
}

TEST_F(FramedFileTest, TypedErrorCodesReportWhy) {
  std::string payload, error;
  FileError code = FileError::kNone;

  EXPECT_FALSE(ReadFramedFile(TempPath("io_test_absent.bin"),
                              FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kIoError);

  std::ofstream(path_, std::ios::binary)
      << "garbage garbage garbage garbage!";
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kBadMagic);

  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, "p", &error));
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kWorkload, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kBadKind);

  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset,
                              std::string(400, 'x'), &error));
  std::filesystem::resize_file(path_, 100);
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kTruncated);

  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset,
                              std::string(400, 'x'), &error));
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    f.put('y');
  }
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kChecksumMismatch);

  // Success resets the code and surfaces the file's version.
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, "ok", &error));
  uint32_t version = 0;
  EXPECT_TRUE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error,
                             &code, &version));
  EXPECT_EQ(code, FileError::kNone);
  EXPECT_EQ(version, kTsunamiFormatVersion);
}

// Overwrites the framed header's version field (bytes 4..7, little-endian).
// The frame CRC covers only the payload, so this forgery stays "valid" —
// exactly what the version gate must catch (or accept, for supported
// older versions).
void PatchFileVersion(const std::string& path, uint32_t version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  for (int i = 0; i < 4; ++i) {
    f.put(static_cast<char>((version >> (8 * i)) & 0xFF));
  }
}

TEST_F(FramedFileTest, VersionOneRejectedWithTypedCode) {
  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, "old", &error));
  PatchFileVersion(path_, 1);
  std::string payload;
  FileError code = FileError::kNone;
  EXPECT_FALSE(
      ReadFramedFile(path_, FileKind::kDataset, &payload, &error, &code));
  EXPECT_EQ(code, FileError::kBadVersion);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST_F(FramedFileTest, VersionTwoColumnPayloadStillReads) {
  // A genuine v2 EncodedColumn payload is a strict prefix of the v3 one:
  // v3 appends num_blocks Fixed64 checksums at the tail. Build the v2
  // bytes by stripping that tail, frame them under a patched version-2
  // header, and read the whole pipeline back.
  Rng rng(17);
  std::vector<Value> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.UniformValue(0, 5000));
  EncodedColumn column;
  column.Encode(values, EncodingEnabledByDefault());
  BinaryWriter writer;
  column.Serialize(&writer);
  const size_t tail = static_cast<size_t>(column.num_blocks()) * 8;
  std::string v2_payload =
      writer.buffer().substr(0, writer.buffer().size() - tail);

  std::string error;
  ASSERT_TRUE(WriteFramedFile(path_, FileKind::kDataset, v2_payload, &error));
  PatchFileVersion(path_, 2);
  std::string payload;
  FileError code = FileError::kNone;
  uint32_t version = 0;
  ASSERT_TRUE(ReadFramedFile(path_, FileKind::kDataset, &payload, &error,
                             &code, &version))
      << error;
  ASSERT_EQ(version, 2u);

  BinaryReader reader(payload);
  reader.set_version(version);
  EncodedColumn loaded;
  ASSERT_TRUE(loaded.Deserialize(&reader));
  EXPECT_TRUE(reader.AtEnd());
  // Checksums were recomputed from the (CRC-validated) payload: nothing
  // quarantined, every value intact.
  EXPECT_EQ(loaded.quarantined_blocks(), 0);
  std::vector<Value> decoded = loaded.DecodeAll();
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(decoded[i], values[i]) << "row " << i;
  }
}

TEST(StructureIoTest, FlippedBlockChecksumQuarantinesInsteadOfFailing) {
  // Corrupt one *stored checksum* in a serialized ColumnStore (the last 8
  // payload bytes are the final column's final block checksum; the frame
  // CRC is bypassed by deserializing the buffer directly, as a torn disk
  // sector would present). The load must succeed with the block
  // quarantined, scans over it must come back flagged degraded — and
  // queries that never touch the bad column stay exact.
  Rng rng(29);
  Dataset data(3, {});
  for (int i = 0; i < 5000; ++i) {
    data.AppendRow({rng.UniformValue(0, 100000), rng.UniformValue(0, 800),
                    rng.UniformValue(-50, 50)});
  }
  ColumnStore pristine(data);
  BinaryWriter writer;
  pristine.Serialize(&writer);
  std::string buffer = writer.Release();
  buffer[buffer.size() - 4] = static_cast<char>(buffer[buffer.size() - 4] ^ 0x5A);

  ColumnStore loaded;
  BinaryReader reader(buffer);
  ASSERT_TRUE(loaded.Deserialize(&reader));
  EXPECT_EQ(loaded.QuarantinedBlocks(), 1);
  const int last_dim = loaded.dims() - 1;
  const int64_t last_block = loaded.encoded(last_dim).num_blocks() - 1;
  EXPECT_TRUE(loaded.encoded(last_dim).IsQuarantined(last_block));

  // SUM over the quarantined column: degraded, flagged, not a crash.
  Query sum;
  sum.filters.push_back(Predicate{0, 0, 100000});
  sum.SetAggregates({{AggKind::kSum, last_dim}});
  QueryResult got = ExecuteFullScan(loaded, sum);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.quarantined_blocks, 1);

  // SUM+MIN+MAX of the quarantined column, filtered on it too: the gate
  // checks each column once per block, so the block still counts once and
  // every healthy block answers as the row-at-a-time oracle does.
  const Query multi({Predicate{0, 0, 100000}, Predicate{last_dim, -40, 40}},
                    {{AggKind::kSum, last_dim},
                     {AggKind::kMin, last_dim},
                     {AggKind::kMax, last_dim}});
  const QueryResult got_multi = ExecuteFullScan(loaded, multi);
  QueryResult want_multi = InitResult(multi);
  OracleScan(loaded, 0, loaded.size(), multi, /*exact=*/false, &want_multi);
  EXPECT_TRUE(got_multi.degraded);
  EXPECT_EQ(got_multi.quarantined_blocks, 1);
  EXPECT_EQ(got_multi.quarantined_blocks, want_multi.quarantined_blocks);
  EXPECT_EQ(got_multi.degraded, want_multi.degraded);
  EXPECT_EQ(got_multi.matched, want_multi.matched);
  EXPECT_EQ(got_multi.scanned, want_multi.scanned);
  EXPECT_EQ(got_multi.agg, want_multi.agg);
  EXPECT_EQ(got_multi.extra, want_multi.extra);

  // COUNT filtered on a healthy column: exact, equal to the pristine store.
  Query count;
  count.filters.push_back(Predicate{0, 0, 50000});
  count.SetAggregates({{AggKind::kCount, 0}});
  QueryResult got_count = ExecuteFullScan(loaded, count);
  QueryResult want_count = ExecuteFullScan(pristine, count);
  EXPECT_FALSE(got_count.degraded);
  EXPECT_EQ(got_count.agg, want_count.agg);
  EXPECT_EQ(got_count.matched, want_count.matched);
}

// --- Structure round-trips ----------------------------------------------------

TEST(StructureIoTest, ColumnStoreRoundTrip) {
  Rng rng(3);
  Dataset data(3, {});
  for (int i = 0; i < 500; ++i) {
    data.AppendRow({rng.UniformValue(-1000, 1000), i, kValueMax - i});
  }
  ColumnStore store(data);
  BinaryWriter writer;
  store.Serialize(&writer);
  ColumnStore loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Deserialize(&reader));
  ASSERT_EQ(loaded.size(), store.size());
  ASSERT_EQ(loaded.dims(), store.dims());
  for (int64_t r = 0; r < store.size(); ++r) {
    for (int d = 0; d < store.dims(); ++d) {
      ASSERT_EQ(loaded.Get(r, d), store.Get(r, d));
    }
  }
}

TEST(StructureIoTest, SkeletonRoundTripAndValidation) {
  Skeleton skel;
  skel.dims = {DimSpec{PartitionStrategy::kIndependent, -1},
               DimSpec{PartitionStrategy::kConditional, 0},
               DimSpec{PartitionStrategy::kMapped, 0}};
  ASSERT_TRUE(skel.Validate());
  BinaryWriter writer;
  skel.Serialize(&writer);
  Skeleton loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Deserialize(&reader));
  EXPECT_EQ(loaded, skel);

  // An invalid skeleton (self-referential mapping) must be rejected even if
  // the encoding is well-formed.
  BinaryWriter bad;
  bad.PutVarU64(1);
  bad.PutU8(1);      // kMapped
  bad.PutVarI64(0);  // maps to itself
  Skeleton rejected;
  BinaryReader bad_reader(bad.buffer());
  EXPECT_FALSE(rejected.Deserialize(&bad_reader));
}

TEST(StructureIoTest, BoundedLinearModelRoundTrip) {
  std::vector<Value> ys, xs;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Value y = rng.UniformValue(0, 10000);
    ys.push_back(y);
    xs.push_back(3 * y + 17 + rng.UniformValue(-40, 40));
  }
  BoundedLinearModel model = BoundedLinearModel::Fit(ys, xs);
  BinaryWriter writer;
  model.Serialize(&writer);
  BoundedLinearModel loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Deserialize(&reader));
  EXPECT_EQ(loaded.slope(), model.slope());
  EXPECT_EQ(loaded.intercept(), model.intercept());
  EXPECT_EQ(loaded.error_lo(), model.error_lo());
  EXPECT_EQ(loaded.error_hi(), model.error_hi());
  auto want = model.MapRange(100, 900);
  auto got = loaded.MapRange(100, 900);
  EXPECT_EQ(got, want);
}

// --- Full index snapshots -----------------------------------------------------

// Builds a Tsunami index over correlated data with a skewed two-type
// workload, snapshots it, reloads, and checks behavioural equivalence.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    data_ = Dataset(3, {});
    const int64_t n = 30000;
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 100000);
      data_.AppendRow(
          {x, 2 * x + rng.UniformValue(-100, 100), rng.UniformValue(0, 500)});
    }
    for (int i = 0; i < 60; ++i) {
      Query q;
      // Type 0: narrow recent-x queries; type 1: wide dim-2 queries.
      if (i % 2 == 0) {
        Value lo = rng.UniformValue(80000, 99000);
        q.filters = {Predicate{0, lo, lo + 1000}};
        q.type = 0;
      } else {
        Value lo = rng.UniformValue(0, 400);
        q.filters = {Predicate{2, lo, lo + 50},
                     Predicate{1, 0, 150000}};
        q.type = 1;
      }
      workload_.push_back(q);
    }
    TsunamiOptions options;
    options.cluster_queries = false;
    index_ = std::make_unique<TsunamiIndex>(data_, workload_, options);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ = TempPath("tsunami_snapshot_test.bin");
  Dataset data_;
  Workload workload_;
  std::unique_ptr<TsunamiIndex> index_;
};

TEST_F(SnapshotTest, RoundTripPreservesAnswersAndStructure) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  std::unique_ptr<TsunamiIndex> loaded =
      TsunamiIndex::LoadFromFile(path_, &error);
  ASSERT_NE(loaded, nullptr) << error;

  EXPECT_EQ(loaded->Name(), index_->Name());
  EXPECT_EQ(loaded->IndexSizeBytes(), index_->IndexSizeBytes());
  EXPECT_EQ(loaded->stats().num_regions, index_->stats().num_regions);
  EXPECT_EQ(loaded->stats().total_cells, index_->stats().total_cells);
  EXPECT_EQ(loaded->store().size(), index_->store().size());

  for (const Query& q : workload_) {
    QueryResult want = index_->Execute(q);
    QueryResult got = loaded->Execute(q);
    EXPECT_EQ(got.agg, want.agg);
    EXPECT_EQ(got.matched, want.matched);
    // Identical structure must touch identical physical ranges.
    EXPECT_EQ(got.scanned, want.scanned);
    EXPECT_EQ(got.cell_ranges, want.cell_ranges);
  }
}

TEST_F(SnapshotTest, LoadedIndexMatchesFullScanOnUnseenQueries) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  std::unique_ptr<TsunamiIndex> loaded =
      TsunamiIndex::LoadFromFile(path_, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ColumnStore reference(data_);
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    Query q;
    Value lo0 = rng.UniformValue(0, 90000);
    Value lo2 = rng.UniformValue(0, 450);
    q.filters = {Predicate{0, lo0, lo0 + rng.UniformValue(100, 20000)},
                 Predicate{2, lo2, lo2 + rng.UniformValue(1, 100)}};
    QueryResult want = ExecuteFullScan(reference, q);
    QueryResult got = loaded->Execute(q);
    EXPECT_EQ(got.agg, want.agg);
    EXPECT_EQ(got.matched, want.matched);
  }
}

// The payload's delta section is always written empty. A section that
// carries rows (the index once buffered inserts itself) must be refused
// with its row count, not loaded with those rows silently dropped.
TEST_F(SnapshotTest, DeltaSectionWithRowsRefused) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  std::string payload;
  ASSERT_TRUE(
      ReadFramedFile(path_, FileKind::kTsunamiIndex, &payload, &error))
      << error;
  // Payload prefix: name, use_grid_tree, then the delta section (dims, row
  // count, one value vector per dim).
  BinaryReader reader(payload);
  const std::string name = reader.GetString();
  const bool use_grid_tree = reader.GetBool();
  const int64_t dims = reader.GetVarI64();
  ASSERT_EQ(dims, 3);
  ASSERT_EQ(reader.GetVarI64(), 0);
  std::vector<Value> col;
  for (int64_t d = 0; d < dims; ++d) {
    ASSERT_TRUE(reader.GetValueVec(&col));
    ASSERT_TRUE(col.empty());
  }
  const size_t section_end = payload.size() - reader.remaining();

  BinaryWriter writer;
  writer.PutString(name);
  writer.PutBool(use_grid_tree);
  writer.PutVarI64(dims);
  writer.PutVarI64(1);
  for (int64_t d = 0; d < dims; ++d) writer.PutValueVec({50 + d});
  const std::string rewritten = writer.buffer() + payload.substr(section_end);
  ASSERT_TRUE(
      WriteFramedFile(path_, FileKind::kTsunamiIndex, rewritten, &error))
      << error;

  error.clear();
  EXPECT_EQ(TsunamiIndex::LoadFromFile(path_, &error), nullptr);
  EXPECT_NE(error.find("carries 1 row"), std::string::npos) << error;
}

TEST_F(SnapshotTest, CorruptPayloadRejected) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  // Flip one byte in the middle of the payload.
  auto size = std::filesystem::file_size(path_);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_EQ(TsunamiIndex::LoadFromFile(path_, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST_F(SnapshotTest, TruncatedSnapshotRejected) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size * 3 / 4);
  EXPECT_EQ(TsunamiIndex::LoadFromFile(path_, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST_F(SnapshotTest, WrongKindRejected) {
  std::string error;
  ASSERT_TRUE(
      WriteFramedFile(path_, FileKind::kWorkload, "not an index", &error));
  EXPECT_EQ(TsunamiIndex::LoadFromFile(path_, &error), nullptr);
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST_F(SnapshotTest, SnapshotIsCompact) {
  std::string error;
  ASSERT_TRUE(index_->SaveToFile(path_, &error)) << error;
  // Encoded blocks should beat raw 8-byte-per-value storage on disk.
  // (DataSizeBytes now reports true encoded bytes, so compare against the
  // logical raw footprint the store would have had unencoded.)
  int64_t raw_bytes = index_->store().size() * index_->store().dims() *
                      static_cast<int64_t>(sizeof(Value));
  EXPECT_LT(static_cast<int64_t>(std::filesystem::file_size(path_)),
            raw_bytes);
  // In-memory narrowing only shrinks the store when it is enabled (the
  // TSUNAMI_DISABLE_ENCODING configuration stores raw blocks + metadata).
  if (EncodingEnabledByDefault()) {
    EXPECT_LE(index_->store().DataSizeBytes(), raw_bytes);
  }
}

}  // namespace
}  // namespace tsunami
