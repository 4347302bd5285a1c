#include "avro/datum.h"

#include "avro/json.h"

namespace lidi::avro {

DatumPtr Datum::Null() { return std::make_shared<Datum>(); }

DatumPtr Datum::Boolean(bool b) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kBoolean;
  d->bool_ = b;
  return d;
}

DatumPtr Datum::Int(int32_t v) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kInt;
  d->long_ = v;
  return d;
}

DatumPtr Datum::Long(int64_t v) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kLong;
  d->long_ = v;
  return d;
}

DatumPtr Datum::Float(float v) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kFloat;
  d->double_ = v;
  return d;
}

DatumPtr Datum::Double(double v) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kDouble;
  d->double_ = v;
  return d;
}

DatumPtr Datum::String(std::string s) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kString;
  d->str_ = std::move(s);
  return d;
}

DatumPtr Datum::Bytes(std::string b) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kBytes;
  d->str_ = std::move(b);
  return d;
}

DatumPtr Datum::Enum(int index, std::string symbol) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kEnum;
  d->long_ = index;
  d->str_ = std::move(symbol);
  return d;
}

DatumPtr Datum::Array() {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kArray;
  return d;
}

DatumPtr Datum::Map() {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kMap;
  return d;
}

DatumPtr Datum::Record(std::string record_name) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kRecord;
  d->str_ = std::move(record_name);
  return d;
}

DatumPtr Datum::Union(int branch, DatumPtr value) {
  auto d = std::make_shared<Datum>();
  d->type_ = Type::kUnion;
  d->long_ = branch;
  d->union_value_ = std::move(value);
  return d;
}

void Datum::SetField(const std::string& name, DatumPtr value) {
  for (auto& [k, v] : fields_) {
    if (k == name) {
      v = std::move(value);
      return;
    }
  }
  fields_.emplace_back(name, std::move(value));
}

DatumPtr Datum::GetField(const std::string& name) const {
  for (const auto& [k, v] : fields_) {
    if (k == name) return v;
  }
  return nullptr;
}

bool Datum::Equals(const Datum& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBoolean: return bool_ == other.bool_;
    case Type::kInt:
    case Type::kLong: return long_ == other.long_;
    case Type::kFloat:
    case Type::kDouble: return double_ == other.double_;
    case Type::kString:
    case Type::kBytes: return str_ == other.str_;
    case Type::kEnum: return long_ == other.long_ && str_ == other.str_;
    case Type::kArray: {
      if (items_.size() != other.items_.size()) return false;
      for (size_t i = 0; i < items_.size(); ++i) {
        if (!items_[i]->Equals(*other.items_[i])) return false;
      }
      return true;
    }
    case Type::kMap: {
      if (entries_.size() != other.entries_.size()) return false;
      for (const auto& [k, v] : entries_) {
        auto it = other.entries_.find(k);
        if (it == other.entries_.end() || !v->Equals(*it->second)) return false;
      }
      return true;
    }
    case Type::kRecord: {
      if (fields_.size() != other.fields_.size()) return false;
      for (const auto& [k, v] : fields_) {
        DatumPtr ov = other.GetField(k);
        if (ov == nullptr || !v->Equals(*ov)) return false;
      }
      return true;
    }
    case Type::kUnion:
      return long_ == other.long_ && union_value_->Equals(*other.union_value_);
  }
  return false;
}

std::string Datum::ToString() const {
  switch (type_) {
    case Type::kNull: return "null";
    case Type::kBoolean: return bool_ ? "true" : "false";
    case Type::kInt:
    case Type::kLong: return std::to_string(long_);
    case Type::kFloat:
    case Type::kDouble: return std::to_string(double_);
    case Type::kString: return json::Quote(str_);
    case Type::kBytes: {
      // Appending, not "<" + std::to_string(...): GCC 12 at -O3 reports a
      // false -Wrestrict overlap in the prepending operator+.
      std::string out = "<";
      out += std::to_string(str_.size());
      out += " bytes>";
      return out;
    }
    case Type::kEnum: return str_;
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        out += items_[i]->ToString();
      }
      return out + "]";
    }
    case Type::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : entries_) {
        if (!first) out += ',';
        first = false;
        out += json::Quote(k) + ":" + v->ToString();
      }
      return out + "}";
    }
    case Type::kRecord: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : fields_) {
        if (!first) out += ',';
        first = false;
        out += json::Quote(k) + ":" + v->ToString();
      }
      return out + "}";
    }
    case Type::kUnion:
      return union_value_->ToString();
  }
  return "?";
}

}  // namespace lidi::avro
