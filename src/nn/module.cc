#include "nn/module.h"

#include "robust/serialize.h"
#include "util/logging.h"

namespace ses::nn {

namespace {

// `tag` followed by the decimal `index`. Appending, rather than
// `"p" + std::to_string(i)`, keeps GCC 12's -Wrestrict false positive on
// operator+(const char*, std::string&&) out of the build.
std::string IndexedName(char tag, size_t index) {
  std::string name(1, tag);
  name += std::to_string(index);
  return name;
}

}  // namespace

std::vector<autograd::Variable> Module::Parameters() const {
  std::vector<autograd::Variable> all = params_;
  for (const Module* child : children_) {
    auto sub = child->Parameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.value().size();
  return total;
}

void Module::CopyParametersFrom(const Module& other) {
  auto dst = Parameters();
  auto src = other.Parameters();
  SES_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    SES_CHECK(dst[i].value().SameShape(src[i].value()));
    dst[i].mutable_value() = src[i].value();
  }
}

std::vector<std::string> Module::ParameterNames() const {
  std::vector<std::string> names;
  names.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i)
    names.push_back(param_names_[i].empty() ? IndexedName('p', i)
                                            : param_names_[i]);
  for (size_t c = 0; c < children_.size(); ++c) {
    const std::string prefix = child_prefixes_[c].empty()
                                   ? IndexedName('m', c)
                                   : child_prefixes_[c];
    for (const std::string& sub : children_[c]->ParameterNames())
      names.push_back(prefix + "." + sub);
  }
  return names;
}

autograd::Variable Module::RegisterParameter(tensor::Tensor value,
                                             std::string name) {
  auto v = autograd::Variable::Parameter(std::move(value));
  params_.push_back(v);
  param_names_.push_back(std::move(name));
  return v;
}

void Module::AdoptParameter(const autograd::Variable& param,
                            std::string name) {
  SES_CHECK(param.requires_grad());
  params_.push_back(param);
  param_names_.push_back(std::move(name));
}

void Module::SaveParameters(const std::string& path) const {
  robust::Serializer s;
  const auto params = Parameters();
  std::vector<tensor::Tensor> values;
  values.reserve(params.size());
  for (const auto& p : params) values.push_back(p.value());
  s.WriteTensorVec(values);
  // Atomic write with magic/version header + CRC32: a crash mid-save never
  // leaves a torn file, and bit rot is rejected on load instead of silently
  // feeding garbage weights into inference.
  robust::WriteFileAtomic(path, s.buffer());
}

void Module::LoadParameters(const std::string& path) {
  const std::string payload = robust::ReadValidatedFile(path);
  robust::Deserializer d(payload);
  const std::vector<tensor::Tensor> values = d.ReadTensorVec();
  auto params = Parameters();
  SES_CHECK(values.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    SES_CHECK(values[i].SameShape(params[i].value()));
    params[i].mutable_value() = values[i];
  }
}

void Module::RegisterModule(Module* child, std::string prefix) {
  children_.push_back(child);
  child_prefixes_.push_back(std::move(prefix));
}

}  // namespace ses::nn
