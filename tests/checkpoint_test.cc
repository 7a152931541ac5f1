// The checkpoint format (DESIGN.md §7): the CRC-32, the payload
// serializer, the `SESCKPT1` container, rotation and fallback, and the
// loader's answer to hostile bytes: every malformed payload, including one
// behind a valid CRC, throws std::runtime_error, the one error
// CheckpointManager::LoadLatest falls back on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/serialize.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace r = ses::robust;
namespace t = ses::tensor;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory under test_artifacts for one test.
std::string ScratchDir(const std::string& name) {
  const std::string dir = "test_artifacts/checkpoint/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

int64_t CounterValue(const std::string& name) {
  return ses::obs::MetricsRegistry::Get().GetCounter(name).Value();
}

t::Tensor MakeTensor(int64_t rows, int64_t cols, float start) {
  t::Tensor out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i)
    out[i] = start + 0.25f * static_cast<float>(i);
  return out;
}

r::TrainingCheckpoint MakeCheckpoint() {
  r::TrainingCheckpoint c;
  c.model = "SES (GCN)";
  c.phase = "phase1";
  c.next_epoch = 17;
  c.params = {MakeTensor(2, 3, 1.0f), MakeTensor(4, 1, -2.0f)};
  c.optim.step_count = 17;
  c.optim.m = {MakeTensor(2, 3, 0.1f), MakeTensor(4, 1, 0.2f)};
  c.optim.v = {MakeTensor(2, 3, 0.3f), MakeTensor(4, 1, 0.4f)};
  ses::util::Rng rng(99);
  rng.Normal();  // populate the Box-Muller cache
  c.rng = rng.State();
  c.best_val = 0.8125;
  c.lr = 0.003f;
  c.tensors["mask"] = MakeTensor(3, 2, 5.0f);
  c.tensor_lists["best"] = {MakeTensor(1, 4, 9.0f)};
  c.int_lists["pairs"] = {3, 1, 4, 1, 5};
  c.double_lists["history"] = {0.0, 1.5, -2.25};
  c.scalars["alpha"] = 0.5;
  return c;
}

void ExpectBitwiseEqual(const r::TrainingCheckpoint& a,
                        const r::TrainingCheckpoint& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i)
    EXPECT_EQ(a.params[i].MaxAbsDiff(b.params[i]), 0.0f);
  EXPECT_EQ(a.optim.step_count, b.optim.step_count);
  ASSERT_EQ(a.optim.m.size(), b.optim.m.size());
  for (size_t i = 0; i < a.optim.m.size(); ++i) {
    EXPECT_EQ(a.optim.m[i].MaxAbsDiff(b.optim.m[i]), 0.0f);
    EXPECT_EQ(a.optim.v[i].MaxAbsDiff(b.optim.v[i]), 0.0f);
  }
  EXPECT_TRUE(a.rng == b.rng);
  EXPECT_EQ(a.best_val, b.best_val);
  EXPECT_EQ(a.lr, b.lr);
  ASSERT_EQ(a.tensors.size(), b.tensors.size());
  for (const auto& [name, value] : a.tensors)
    EXPECT_EQ(value.MaxAbsDiff(b.tensors.at(name)), 0.0f);
  ASSERT_EQ(a.tensor_lists.size(), b.tensor_lists.size());
  for (const auto& [name, list] : a.tensor_lists) {
    const auto& other = b.tensor_lists.at(name);
    ASSERT_EQ(list.size(), other.size());
    for (size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(list[i].MaxAbsDiff(other[i]), 0.0f);
  }
  EXPECT_EQ(a.int_lists, b.int_lists);
  EXPECT_EQ(a.double_lists, b.double_lists);
  EXPECT_EQ(a.scalars, b.scalars);
}

// --------------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownAnswer) {
  // The CRC-32/IEEE check value.
  EXPECT_EQ(ses::util::Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(64, 'a');
  const uint32_t clean = ses::util::Crc32(data);
  data[20] = static_cast<char>(data[20] ^ 0x01);
  EXPECT_NE(ses::util::Crc32(data), clean);
}

// ---------------------------------------------------------------- serializer

TEST(SerializeTest, ScalarAndCompositeRoundtrip) {
  r::Serializer s;
  s.WriteU32(7);
  s.WriteI64(-123456789012345);
  s.WriteF32(1.5f);
  s.WriteF64(-2.25);
  s.WriteBool(true);
  s.WriteString("hello checkpoint");
  s.WriteTensor(MakeTensor(2, 5, 3.0f));
  s.WriteI64Vec({1, -2, 3});
  s.WriteF64Vec({0.5, -0.5});

  r::Deserializer d(s.buffer());
  EXPECT_EQ(d.ReadU32(), 7u);
  EXPECT_EQ(d.ReadI64(), -123456789012345);
  EXPECT_EQ(d.ReadF32(), 1.5f);
  EXPECT_EQ(d.ReadF64(), -2.25);
  EXPECT_TRUE(d.ReadBool());
  EXPECT_EQ(d.ReadString(), "hello checkpoint");
  EXPECT_EQ(d.ReadTensor().MaxAbsDiff(MakeTensor(2, 5, 3.0f)), 0.0f);
  EXPECT_EQ(d.ReadI64Vec(), (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(d.ReadF64Vec(), (std::vector<double>{0.5, -0.5}));
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializeTest, ThrowsOnTruncatedPayload) {
  r::Serializer s;
  s.WriteTensor(MakeTensor(4, 4, 0.0f));
  const std::string full = s.buffer();
  r::Deserializer d(std::string_view(full).substr(0, full.size() / 2));
  EXPECT_THROW(d.ReadTensor(), std::runtime_error);
}

TEST(SerializeTest, ContainerRoundtripAndRejection) {
  const std::string dir = ScratchDir("container");
  const std::string path = dir + "/file.ses";
  r::WriteFileAtomic(path, "some payload bytes");
  EXPECT_EQ(r::ReadValidatedFile(path), "some payload bytes");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Flipping one payload byte must trip the CRC.
  r::CorruptFile(path, "flip");
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  // Truncation must trip the size check.
  r::WriteFileAtomic(path, "some payload bytes");
  r::CorruptFile(path, "truncate");
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  // A non-checkpoint file must be rejected on magic.
  std::ofstream(path, std::ios::binary) << "definitely not a checkpoint file";
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  EXPECT_THROW(r::ReadValidatedFile(dir + "/missing.ses"), std::runtime_error);
}

// ---------------------------------------------------------------- checkpoint

TEST(CheckpointTest, RoundtripIsBitwise) {
  const r::TrainingCheckpoint original = MakeCheckpoint();
  const r::TrainingCheckpoint loaded =
      r::TrainingCheckpoint::Deserialize(original.Serialize());
  ExpectBitwiseEqual(original, loaded);
}

TEST(CheckpointTest, DeserializeRejectsTrailingBytes) {
  std::string payload = MakeCheckpoint().Serialize();
  payload += "extra";
  EXPECT_THROW(r::TrainingCheckpoint::Deserialize(payload),
               std::runtime_error);
}

TEST(CheckpointManagerTest, RotationKeepsNewest) {
  const std::string dir = ScratchDir("rotation");
  r::CheckpointManager mgr(dir, /*keep_last=*/3);
  r::TrainingCheckpoint c = MakeCheckpoint();
  for (int64_t e = 1; e <= 5; ++e) {
    c.next_epoch = e;
    mgr.Write(c);
  }
  int64_t files = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir))
    ++files;
  EXPECT_EQ(files, 3);
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 5);
}

TEST(CheckpointManagerTest, SequenceSurvivesReopen) {
  const std::string dir = ScratchDir("reopen");
  r::TrainingCheckpoint c = MakeCheckpoint();
  {
    r::CheckpointManager mgr(dir, 3);
    c.next_epoch = 1;
    mgr.Write(c);
  }
  // A new manager (fresh process after a crash) must continue the sequence,
  // not overwrite the existing rotation.
  r::CheckpointManager mgr(dir, 3);
  c.next_epoch = 2;
  mgr.Write(c);
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 2);
}

TEST(CheckpointManagerTest, CorruptLatestFallsBackToPreviousRotation) {
  const std::string dir = ScratchDir("fallback");
  r::CheckpointManager mgr(dir, 3);
  r::TrainingCheckpoint c = MakeCheckpoint();
  c.next_epoch = 1;
  mgr.Write(c);
  c.next_epoch = 2;
  const std::string newest = mgr.Write(c);
  EXPECT_EQ(mgr.LatestPath(), newest);

  const int64_t corrupt_before = CounterValue("ses.ckpt.resume_corrupt");
  r::CorruptFile(newest, "flip");
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_epoch, 1);  // previous rotation
  EXPECT_GE(CounterValue("ses.ckpt.resume_corrupt"), corrupt_before + 1);

  // Both rotations damaged => no resume.
  for (const auto& entry : fs::directory_iterator(dir))
    r::CorruptFile(entry.path().string(), "truncate");
  EXPECT_FALSE(mgr.LoadLatest().has_value());
}

// ------------------------------------------------------------ hostile input

/// `payload` with the u64 count that starts `pattern` overwritten by `count`:
/// the payload still frames correctly, only that one length field lies.
std::string WithCount(std::string payload, std::string_view pattern,
                      uint64_t count) {
  const size_t at = payload.find(pattern);
  EXPECT_NE(at, std::string::npos);
  std::memcpy(payload.data() + at, &count, sizeof(count));
  return payload;
}

/// The bytes a Serializer writes for `write`.
template <typename Write>
std::string Bytes(Write write) {
  r::Serializer s;
  write(&s);
  return s.TakeBuffer();
}

/// A checkpoint whose only tensor list, int list and double list are easy
/// to find in the payload.
r::TrainingCheckpoint MarkedCheckpoint() {
  r::TrainingCheckpoint c;
  c.params = {MakeTensor(1, 1, 1.5f)};
  c.int_lists["pairs"] = {7, 7, 7};
  c.double_lists["history"] = {0.25, 0.25};
  return c;
}

/// Payloads that frame correctly but carry a count whose allocation the
/// payload cannot back: 2^32 tensors (a 160 GiB reserve), 2^61 and 2^62
/// list elements (their byte counts wrap to 0 in 64 bits).
std::vector<std::string> HostilePayloads() {
  const std::string good = MarkedCheckpoint().Serialize();
  const std::string tensor_vec = Bytes([](r::Serializer* s) {
    s->WriteTensorVec({MakeTensor(1, 1, 1.5f)});
  });
  const std::string i64_vec =
      Bytes([](r::Serializer* s) { s->WriteI64Vec({7, 7, 7}); });
  const std::string f64_vec =
      Bytes([](r::Serializer* s) { s->WriteF64Vec({0.25, 0.25}); });
  return {WithCount(good, tensor_vec, uint64_t{1} << 32),
          WithCount(good, i64_vec, uint64_t{1} << 61),
          WithCount(good, f64_vec, uint64_t{1} << 62)};
}

TEST(CheckpointHostileInputTest, HugeCountsThrowRuntimeError) {
  for (const std::string& payload : HostilePayloads())
    EXPECT_THROW(r::TrainingCheckpoint::Deserialize(payload),
                 std::runtime_error);

  // A tensor shape whose element count wraps to 0 must not load as an
  // empty tensor with 2^32 rows.
  const std::string wrapped = Bytes([](r::Serializer* s) {
    s->WriteI64(int64_t{1} << 32);
    s->WriteI64(int64_t{1} << 32);
  });
  r::Deserializer d(wrapped);
  EXPECT_THROW(d.ReadTensor(), std::runtime_error);
}

TEST(CheckpointHostileInputTest, LoadLatestFallsBackPastAHostileFile) {
  const std::string dir = ScratchDir("hostile");
  r::CheckpointManager mgr(dir, 3);
  r::TrainingCheckpoint c = MakeCheckpoint();
  c.next_epoch = 1;
  mgr.Write(c);
  for (const std::string& payload : HostilePayloads()) {
    // The newest rotation has a valid CRC over a hostile payload.
    c.next_epoch = 2;
    r::WriteFileAtomic(mgr.Write(c), payload);
    const auto loaded = mgr.LoadLatest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->next_epoch, 1);
    fs::remove(mgr.LatestPath());
  }
}

/// Deserializes `payload` and returns whether it loaded; any outcome but a
/// load or std::runtime_error is a failure naming `mutant`.
bool LoadsOrRejects(const std::string& payload, const std::string& mutant) {
  try {
    (void)r::TrainingCheckpoint::Deserialize(payload);
    return true;
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << mutant << " threw a non-runtime_error: " << e.what();
  }
  return false;
}

// Every truncation of a checkpoint that fills every section, then 1,000
// seeded byte flips. The payload is deserialized directly, which is what
// the loader sees behind a recomputed CRC.
TEST(CheckpointHostileInputTest, MutationSweepLoadsOrThrowsRuntimeError) {
  const std::string good = MakeCheckpoint().Serialize();
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(r::TrainingCheckpoint::Deserialize(good.substr(0, len)),
                 std::runtime_error)
        << "truncation to " << len << " bytes";
  }
  ses::util::Rng rng(20240601);
  int loaded = 0;
  constexpr int kFlips = 1000;
  for (int i = 0; i < kFlips; ++i) {
    std::string mutant = good;
    const size_t at = rng.UniformInt(mutant.size());
    const auto flip = static_cast<char>(1 + rng.UniformInt(255));
    mutant[at] = static_cast<char>(mutant[at] ^ flip);
    loaded += LoadsOrRejects(mutant, "flip " + std::to_string(i) +
                                         " at byte " + std::to_string(at));
  }
  // Both outcomes occur: flips in the float data load, flips in a length
  // field are rejected.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFlips);
}

}  // namespace
