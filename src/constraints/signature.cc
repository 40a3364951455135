#include "src/constraints/signature.h"

#include <algorithm>

#include "src/algebra/builders.h"
#include "src/common/wire_format.h"

namespace mapcomp {

Status Signature::AddRelation(const std::string& name, int arity) {
  if (arity < 1) {
    return Status::InvalidArgument("relation " + name + ": arity must be >=1");
  }
  auto it = arity_.find(name);
  if (it != arity_.end()) {
    if (it->second != arity) {
      return Status::InvalidArgument("relation " + name +
                                     " redeclared with different arity");
    }
    return Status::OK();
  }
  arity_[name] = arity;
  order_.push_back(name);
  return Status::OK();
}

void Signature::AddOrReplaceRelation(const std::string& name, int arity) {
  auto it = arity_.find(name);
  if (it == arity_.end()) order_.push_back(name);
  arity_[name] = arity;
}

Status Signature::SetKey(const std::string& name,
                         std::vector<int> key_positions) {
  auto it = arity_.find(name);
  if (it == arity_.end()) {
    return Status::NotFound("relation " + name + " not in signature");
  }
  for (int k : key_positions) {
    if (k < 1 || k > it->second) {
      return Status::InvalidArgument("key position out of range for " + name);
    }
  }
  keys_[name] = std::move(key_positions);
  return Status::OK();
}

void Signature::RemoveRelation(const std::string& name) {
  arity_.erase(name);
  keys_.erase(name);
  order_.erase(std::remove(order_.begin(), order_.end(), name), order_.end());
}

bool Signature::Contains(const std::string& name) const {
  return arity_.count(name) > 0;
}

int Signature::ArityOf(const std::string& name) const {
  auto it = arity_.find(name);
  return it == arity_.end() ? 0 : it->second;
}

std::optional<std::vector<int>> Signature::KeyOf(
    const std::string& name) const {
  auto it = keys_.find(name);
  if (it == keys_.end()) return std::nullopt;
  return it->second;
}

Result<Signature> Signature::Merge(const Signature& a, const Signature& b) {
  Signature out = a;
  for (const std::string& n : b.order_) {
    MAPCOMP_RETURN_IF_ERROR(out.AddRelation(n, b.ArityOf(n)));
    auto key = b.KeyOf(n);
    if (key.has_value() && !out.KeyOf(n).has_value()) {
      MAPCOMP_RETURN_IF_ERROR(out.SetKey(n, *key));
    }
  }
  return out;
}

bool Signature::Disjoint(const Signature& a, const Signature& b) {
  for (const std::string& n : a.order_) {
    if (b.Contains(n)) return false;
  }
  return true;
}

std::string Signature::ToString() const {
  std::string out;
  for (const std::string& n : order_) {
    out += n + "(" + std::to_string(ArityOf(n)) + ")";
    auto key = KeyOf(n);
    if (key.has_value()) {
      out += " key(";
      for (size_t i = 0; i < key->size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string((*key)[i]);
      }
      out += ")";
    }
    out += "; ";
  }
  return out;
}

void Signature::AppendTo(std::string* out) const {
  common::PutU32(out, static_cast<uint32_t>(order_.size()));
  for (const std::string& name : order_) {
    common::PutString(out, name);
    common::PutU32(out, static_cast<uint32_t>(ArityOf(name)));
    auto key = keys_.find(name);
    common::PutU8(out, key != keys_.end() ? 1 : 0);
    if (key != keys_.end()) {
      common::PutU32(out, static_cast<uint32_t>(key->second.size()));
      for (int pos : key->second) {
        common::PutU32(out, static_cast<uint32_t>(pos));
      }
    }
  }
}

std::string Signature::Fingerprint() const {
  std::string out;
  AppendTo(&out);
  return out;
}

bool Signature::ReadFrom(common::WireReader* r, Signature* out) {
  uint32_t count = 0;
  if (!r->ReadU32(&count)) return false;
  // Each relation costs at least name-prefix + arity + key flag = 9 bytes.
  if (static_cast<size_t>(count) > r->remaining() / 9 + 1) return false;
  *out = Signature();
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint32_t arity = 0;
    uint8_t has_key = 0;
    if (!r->ReadString(&name) || !r->ReadU32(&arity) || !r->ReadU8(&has_key)) {
      return false;
    }
    if (arity > (1u << 16) || has_key > 1) return false;
    if (!out->AddRelation(name, static_cast<int>(arity)).ok()) return false;
    if (has_key) {
      uint32_t n = 0;
      if (!r->ReadU32(&n)) return false;
      if (static_cast<size_t>(n) > r->remaining() / 4 + 1) return false;
      std::vector<int> key;
      key.reserve(n);
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t pos = 0;
        if (!r->ReadU32(&pos)) return false;
        key.push_back(static_cast<int>(pos));
      }
      if (!out->SetKey(name, std::move(key)).ok()) return false;
    }
  }
  return true;
}

bool Signature::SkipOver(common::WireReader* r) {
  uint32_t count = 0, arity = 0, n = 0;
  uint8_t has_key = 0;
  if (!r->ReadU32(&count)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    if (!r->SkipString() || !r->ReadU32(&arity) || !r->ReadU8(&has_key)) {
      return false;
    }
    if (has_key && (!r->ReadU32(&n) || !r->Skip(size_t{4} * n))) return false;
  }
  return true;
}

ConstraintSet KeyConstraintsFor(const std::string& name, int arity,
                                const std::vector<int>& key) {
  ConstraintSet out;
  ExprPtr rr = Product(Rel(name, arity), Rel(name, arity));
  std::vector<Condition> key_eq;
  key_eq.reserve(key.size());
  for (int k : key) {
    key_eq.push_back(Condition::AttrCmp(k, CmpOp::kEq, arity + k));
  }
  Condition agree_on_key = Condition::AndAll(key_eq);
  ExprPtr rhs = Select(Condition::AttrCmp(1, CmpOp::kEq, 2), Dom(2));
  for (int j = 1; j <= arity; ++j) {
    if (std::find(key.begin(), key.end(), j) != key.end()) continue;
    ExprPtr lhs = Project({j, arity + j}, Select(agree_on_key, rr));
    out.push_back(Constraint::Contain(std::move(lhs), rhs));
  }
  return out;
}

}  // namespace mapcomp
