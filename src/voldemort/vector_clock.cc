#include "voldemort/vector_clock.h"

#include <algorithm>

#include "common/coding.h"

namespace lidi::voldemort {

void VectorClock::Increment(int node_id) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), node_id,
      [](const auto& e, int id) { return e.first < id; });
  if (it != entries_.end() && it->first == node_id) {
    it->second++;
  } else {
    entries_.insert(it, {node_id, 1});
  }
}

int64_t VectorClock::CounterOf(int node_id) const {
  for (const auto& [id, counter] : entries_) {
    if (id == node_id) return counter;
  }
  return 0;
}

Occurred VectorClock::Compare(const VectorClock& other) const {
  bool this_bigger = false;
  bool other_bigger = false;
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (i >= entries_.size()) {
      other_bigger = true;
      ++j;
    } else if (j >= other.entries_.size()) {
      this_bigger = true;
      ++i;
    } else if (entries_[i].first < other.entries_[j].first) {
      this_bigger = true;
      ++i;
    } else if (entries_[i].first > other.entries_[j].first) {
      other_bigger = true;
      ++j;
    } else {
      if (entries_[i].second > other.entries_[j].second) this_bigger = true;
      if (entries_[i].second < other.entries_[j].second) other_bigger = true;
      ++i;
      ++j;
    }
  }
  if (this_bigger && other_bigger) return Occurred::kConcurrently;
  if (this_bigger) return Occurred::kAfter;
  if (other_bigger) return Occurred::kBefore;
  return Occurred::kEqual;
}

VectorClock VectorClock::Merge(const VectorClock& other) const {
  VectorClock out;
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].first < other.entries_[j].first)) {
      out.entries_.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               entries_[i].first > other.entries_[j].first) {
      out.entries_.push_back(other.entries_[j++]);
    } else {
      out.entries_.push_back(
          {entries_[i].first,
           std::max(entries_[i].second, other.entries_[j].second)});
      ++i;
      ++j;
    }
  }
  return out;
}

void VectorClock::EncodeTo(std::string* out) const {
  PutVarint64(out, entries_.size());
  for (const auto& [id, counter] : entries_) {
    PutVarint64(out, static_cast<uint64_t>(id));
    PutVarint64(out, static_cast<uint64_t>(counter));
  }
}

Result<VectorClock> VectorClock::DecodeFrom(Slice* input) {
  uint64_t count;
  if (!GetVarint64(input, &count)) {
    return Status::Corruption("truncated vector clock");
  }
  // Each entry takes at least two bytes: a node id and a counter.
  if (count > input->size() / 2) {
    return Status::Corruption("vector clock count " + std::to_string(count) +
                              " exceeds its input");
  }
  VectorClock clock;
  clock.entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id, counter;
    if (!GetVarint64(input, &id) || !GetVarint64(input, &counter)) {
      return Status::Corruption("truncated vector clock entry");
    }
    clock.entries_.emplace_back(static_cast<int>(id),
                                static_cast<int64_t>(counter));
  }
  return clock;
}

std::string VectorClock::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(entries_[i].first) + ":" +
           std::to_string(entries_[i].second);
  }
  return out + "}";
}

void EncodeVersionedList(const std::vector<Versioned>& list, std::string* out) {
  PutVarint64(out, list.size());
  for (const Versioned& v : list) {
    v.version.EncodeTo(out);
    PutLengthPrefixed(out, v.value);
  }
}

Result<std::vector<Versioned>> DecodeVersionedList(Slice input) {
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("truncated versioned list");
  }
  // Each entry takes at least two bytes: a clock's entry count and the
  // value's length prefix.
  if (count > input.size() / 2) {
    return Status::Corruption("versioned list count " + std::to_string(count) +
                              " exceeds its input");
  }
  std::vector<Versioned> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    auto clock = VectorClock::DecodeFrom(&input);
    if (!clock.ok()) return clock.status();
    Slice value;
    if (!GetLengthPrefixed(&input, &value)) {
      return Status::Corruption("truncated versioned value");
    }
    out.push_back({std::move(clock.value()), value.ToString()});
  }
  return out;
}

Status InsertVersioned(std::vector<Versioned>* list, Versioned candidate) {
  for (const Versioned& existing : *list) {
    const Occurred o = candidate.version.Compare(existing.version);
    if (o == Occurred::kBefore || o == Occurred::kEqual) {
      return Status::ObsoleteVersion("a newer or equal version exists");
    }
  }
  // Candidate is after or concurrent with everything: drop dominated entries.
  list->erase(std::remove_if(list->begin(), list->end(),
                             [&candidate](const Versioned& existing) {
                               return candidate.version.Compare(
                                          existing.version) == Occurred::kAfter;
                             }),
              list->end());
  list->push_back(std::move(candidate));
  return Status::OK();
}

std::vector<Versioned> ResolveConcurrent(std::vector<Versioned> all) {
  std::vector<Versioned> out;
  for (Versioned& candidate : all) {
    bool dominated_or_duplicate = false;
    for (const Versioned& kept : out) {
      const Occurred o = candidate.version.Compare(kept.version);
      if (o == Occurred::kBefore || o == Occurred::kEqual) {
        dominated_or_duplicate = true;
        break;
      }
    }
    if (dominated_or_duplicate) continue;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&candidate](const Versioned& kept) {
                               return candidate.version.Compare(kept.version) ==
                                      Occurred::kAfter;
                             }),
              out.end());
    out.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace lidi::voldemort
