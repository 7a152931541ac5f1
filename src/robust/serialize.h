#ifndef SES_ROBUST_SERIALIZE_H_
#define SES_ROBUST_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace ses::robust {

/// Little-endian byte-buffer writer for the checkpoint payload. All
/// multi-byte scalars are written in host order (the library targets a
/// single-architecture deployment; the container version field leaves room
/// for an endian-tagged format later).
class Serializer {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU32(v ? 1 : 0); }
  void WriteString(const std::string& s);
  /// rows, cols, then row-major float32 data.
  void WriteTensor(const tensor::Tensor& t);
  void WriteTensorVec(const std::vector<tensor::Tensor>& v);
  void WriteI64Vec(const std::vector<int64_t>& v);
  void WriteF64Vec(const std::vector<double>& v);
  void WriteRngState(const util::RngState& s);

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }

 private:
  void WriteRaw(const void* p, size_t n);
  std::string buf_;
};

/// Matching reader. Every Read* throws std::runtime_error on buffer
/// underflow or malformed lengths, so a truncated payload can never be
/// silently accepted. A length or shape is checked against the bytes left
/// before anything is allocated, so a hostile count cannot ask for more
/// memory than the payload itself holds.
class Deserializer {
 public:
  explicit Deserializer(std::string_view buf) : buf_(buf) {}

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadF32();
  double ReadF64();
  bool ReadBool() { return ReadU32() != 0; }
  std::string ReadString();
  tensor::Tensor ReadTensor();
  std::vector<tensor::Tensor> ReadTensorVec();
  std::vector<int64_t> ReadI64Vec();
  std::vector<double> ReadF64Vec();
  util::RngState ReadRngState();

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  void ReadRaw(void* p, size_t n);
  /// Reads an element count and rejects it unless `remaining()` can hold
  /// that many elements of at least `min_element_bytes` each.
  uint64_t ReadCount(size_t min_element_bytes, const char* what);
  std::string_view buf_;
  size_t pos_ = 0;
};

/// Checkpoint file container:
///   bytes 0-7   magic "SESCKPT1"
///   bytes 8-11  u32 format version (currently 1)
///   bytes 12-15 u32 CRC-32 of the payload
///   bytes 16-23 u64 payload size
///   bytes 24-   payload
/// The write is atomic: payload goes to `path + ".tmp"`, is fsync'd, and is
/// renamed over `path` — a crash mid-write can never leave a half-written
/// file under the final name. Throws std::runtime_error on I/O failure.
void WriteFileAtomic(const std::string& path, std::string_view payload);

/// Reads and validates a container written by WriteFileAtomic. Throws
/// std::runtime_error on missing file, bad magic, version mismatch,
/// truncation, or CRC mismatch.
std::string ReadValidatedFile(const std::string& path);

}  // namespace ses::robust

#endif  // SES_ROBUST_SERIALIZE_H_
