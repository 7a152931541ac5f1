#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace ses::tensor {

Tensor::Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
  SES_CHECK(rows >= 0 && cols >= 0);
  data_.assign(static_cast<size_t>(rows * cols), 0.0f);
}

Tensor::Tensor(std::initializer_list<std::initializer_list<float>> values) {
  rows_ = static_cast<int64_t>(values.size());
  cols_ = rows_ > 0 ? static_cast<int64_t>(values.begin()->size()) : 0;
  data_.reserve(static_cast<size_t>(rows_ * cols_));
  for (const auto& row : values) {
    SES_CHECK(static_cast<int64_t>(row.size()) == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Tensor Tensor::Zeros(int64_t rows, int64_t cols) { return Tensor(rows, cols); }

Tensor Tensor::Ones(int64_t rows, int64_t cols) {
  return Full(rows, cols, 1.0f);
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t(n, n);
  for (int64_t i = 0; i < n; ++i) t.At(i, i) = 1.0f;
  return t;
}

Tensor Tensor::Randn(int64_t rows, int64_t cols, util::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng->Normal());
  return t;
}

Tensor Tensor::Uniform(int64_t rows, int64_t cols, float lo, float hi,
                       util::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t[i] = rng->Uniform(lo, hi);
  return t;
}

Tensor Tensor::Xavier(int64_t fan_in, int64_t fan_out, util::Rng* rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform(fan_in, fan_out, -bound, bound, rng);
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  Tensor t(static_cast<int64_t>(values.size()), 1);
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

void Tensor::Reshape(int64_t rows, int64_t cols) {
  SES_CHECK(rows * cols == rows_ * cols_);
  rows_ = rows;
  cols_ = cols;
}

float& Tensor::At(int64_t r, int64_t c) {
  return data_[static_cast<size_t>(r * cols_ + c)];
}

float Tensor::At(int64_t r, int64_t c) const {
  return data_[static_cast<size_t>(r * cols_ + c)];
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  SES_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Tensor::AddScaled(const Tensor& other, float s) {
  SES_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  const int64_t n = size();
  for (int64_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

void Tensor::ScaleInPlace(float s) {
  for (auto& v : data_) v *= s;
}

float Tensor::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::Mean() const {
  SES_CHECK(size() > 0);
  return Sum() / static_cast<float>(size());
}

float Tensor::Min() const {
  SES_CHECK(size() > 0);
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  SES_CHECK(size() > 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::Norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::MaxAbsDiff(const Tensor& other) const {
  SES_CHECK(SameShape(other));
  float worst = 0.0f;
  for (int64_t i = 0; i < size(); ++i)
    worst = std::max(worst, std::fabs(data_[static_cast<size_t>(i)] -
                                      other.data_[static_cast<size_t>(i)]));
  return worst;
}

std::string Tensor::ToString() const {
  std::ostringstream out;
  out << "Tensor(" << rows_ << "x" << cols_ << ")";
  const int64_t max_rows = std::min<int64_t>(rows_, 6);
  const int64_t max_cols = std::min<int64_t>(cols_, 8);
  for (int64_t r = 0; r < max_rows; ++r) {
    out << "\n  [";
    for (int64_t c = 0; c < max_cols; ++c) {
      out << At(r, c);
      if (c + 1 < max_cols) out << ", ";
    }
    if (max_cols < cols_) out << ", ...";
    out << "]";
  }
  if (max_rows < rows_) out << "\n  ...";
  return out.str();
}

}  // namespace ses::tensor
