#include "util/interner.hpp"

#include <algorithm>
#include <cstring>

namespace torsim::util {

std::string_view StringInterner::store(std::string_view text) {
  if (text.empty()) return {};
  if (block_used_ + text.size() > block_size_) {
    // Oversized strings get a dedicated block so regular blocks never
    // waste more than one string's worth of tail space.
    const std::size_t need = std::max(text.size(), kBlockBytes);
    blocks_.push_back(std::make_unique<char[]>(need));
    block_size_ = need;
    block_used_ = 0;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, text.data(), text.size());
  block_used_ += text.size();
  return {dst, text.size()};
}

StringInterner::Id StringInterner::intern(std::string_view text) {
  const auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  const Id id = static_cast<Id>(views_.size());
  const std::string_view stable = store(text);
  views_.push_back(stable);
  index_.emplace(stable, id);
  return id;
}

}  // namespace torsim::util
