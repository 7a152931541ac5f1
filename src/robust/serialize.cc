#include "robust/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/crc32.h"

namespace ses::robust {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'S', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kVersion = 1;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

}  // namespace

// ---------------------------------------------------------------- Serializer

void Serializer::WriteRaw(const void* p, size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void Serializer::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
}

void Serializer::WriteTensor(const tensor::Tensor& t) {
  WriteI64(t.rows());
  WriteI64(t.cols());
  WriteRaw(t.data(), sizeof(float) * static_cast<size_t>(t.size()));
}

void Serializer::WriteTensorVec(const std::vector<tensor::Tensor>& v) {
  WriteU64(v.size());
  for (const auto& t : v) WriteTensor(t);
}

void Serializer::WriteI64Vec(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), sizeof(int64_t) * v.size());
}

void Serializer::WriteF64Vec(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), sizeof(double) * v.size());
}

void Serializer::WriteRngState(const util::RngState& s) {
  for (uint64_t word : s.s) WriteU64(word);
  WriteBool(s.has_cached_normal);
  WriteF64(s.cached_normal);
}

// -------------------------------------------------------------- Deserializer

void Deserializer::ReadRaw(void* p, size_t n) {
  if (pos_ + n > buf_.size()) Fail("payload truncated");
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

uint32_t Deserializer::ReadU32() {
  uint32_t v;
  ReadRaw(&v, sizeof(v));
  return v;
}

uint64_t Deserializer::ReadU64() {
  uint64_t v;
  ReadRaw(&v, sizeof(v));
  return v;
}

int64_t Deserializer::ReadI64() {
  int64_t v;
  ReadRaw(&v, sizeof(v));
  return v;
}

float Deserializer::ReadF32() {
  float v;
  ReadRaw(&v, sizeof(v));
  return v;
}

double Deserializer::ReadF64() {
  double v;
  ReadRaw(&v, sizeof(v));
  return v;
}

uint64_t Deserializer::ReadCount(size_t min_element_bytes, const char* what) {
  const uint64_t n = ReadU64();
  if (n > remaining() / min_element_bytes) Fail(std::string(what) + " corrupt");
  return n;
}

std::string Deserializer::ReadString() {
  const uint64_t n = ReadCount(1, "string length");
  std::string s(buf_.substr(pos_, n));
  pos_ += n;
  return s;
}

tensor::Tensor Deserializer::ReadTensor() {
  const int64_t rows = ReadI64();
  const int64_t cols = ReadI64();
  if (rows < 0 || cols < 0 ||
      (cols > 0 &&
       static_cast<uint64_t>(rows) > remaining() / sizeof(float) / cols))
    Fail("tensor shape corrupt");
  tensor::Tensor t(rows, cols);
  ReadRaw(t.data(), sizeof(float) * static_cast<size_t>(t.size()));
  return t;
}

std::vector<tensor::Tensor> Deserializer::ReadTensorVec() {
  // A tensor encodes at least its two i64 dimensions.
  const uint64_t n = ReadCount(2 * sizeof(int64_t), "tensor count");
  std::vector<tensor::Tensor> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) v.push_back(ReadTensor());
  return v;
}

std::vector<int64_t> Deserializer::ReadI64Vec() {
  const uint64_t n = ReadCount(sizeof(int64_t), "int list length");
  std::vector<int64_t> v(n);
  ReadRaw(v.data(), sizeof(int64_t) * n);
  return v;
}

std::vector<double> Deserializer::ReadF64Vec() {
  const uint64_t n = ReadCount(sizeof(double), "double list length");
  std::vector<double> v(n);
  ReadRaw(v.data(), sizeof(double) * n);
  return v;
}

util::RngState Deserializer::ReadRngState() {
  util::RngState s;
  for (auto& word : s.s) word = ReadU64();
  s.has_cached_normal = ReadBool();
  s.cached_normal = ReadF64();
  return s;
}

// ---------------------------------------------------------------- container

void WriteFileAtomic(const std::string& path, std::string_view payload) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // open() reports failure
  }
  const std::string tmp = path + ".tmp";
  std::string blob;
  blob.reserve(24 + payload.size());
  blob.append(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  blob.append(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint32_t crc = util::Crc32(payload);
  blob.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  const uint64_t size = payload.size();
  blob.append(reinterpret_cast<const char*>(&size), sizeof(size));
  blob.append(payload.data(), payload.size());

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) Fail("cannot open " + tmp + ": " + std::strerror(errno));
  size_t written = 0;
  while (written < blob.size()) {
    const ssize_t n = ::write(fd, blob.data() + written, blob.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      Fail("write to " + tmp + " failed: " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    Fail("fsync of " + tmp + " failed: " + std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    Fail("rename to " + path + " failed: " + std::strerror(err));
  }
}

std::string ReadValidatedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) Fail("cannot open " + path + ": " + std::strerror(errno));
  std::string blob;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      Fail("read of " + path + " failed: " + std::strerror(err));
    }
    if (n == 0) break;
    blob.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  if (blob.size() < 24 || std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0)
    Fail(path + ": bad magic (not a SES checkpoint)");
  uint32_t version, crc;
  uint64_t size;
  std::memcpy(&version, blob.data() + 8, sizeof(version));
  std::memcpy(&crc, blob.data() + 12, sizeof(crc));
  std::memcpy(&size, blob.data() + 16, sizeof(size));
  if (version != kVersion)
    Fail(path + ": unsupported version " + std::to_string(version));
  if (blob.size() - 24 != size)
    Fail(path + ": truncated (header says " + std::to_string(size) +
         " payload bytes, file has " + std::to_string(blob.size() - 24) + ")");
  const std::string payload = blob.substr(24);
  if (util::Crc32(payload) != crc) Fail(path + ": CRC mismatch");
  return payload;
}

}  // namespace ses::robust
