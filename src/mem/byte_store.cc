#include "src/mem/byte_store.h"

#include <algorithm>
#include <cstring>

#include "src/sim/snapshot.h"

namespace fabacus {

void ByteStore::Write(std::uint64_t offset, const void* data, std::uint64_t len) {
  const std::uint8_t* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    std::vector<std::uint8_t>& chunk = chunks_[chunk_idx];
    if (!chunk.empty()) {
      std::memcpy(chunk.data() + in_chunk, src, n);
    } else if (n == chunk_size_) {
      // Absent and fully covered: build the chunk from the source, no zero-fill.
      chunk.assign(src, src + n);
    } else {
      chunk.resize(chunk_size_, 0);
      std::memcpy(chunk.data() + in_chunk, src, n);
    }
    src += n;
    offset += n;
    len -= n;
  }
}

void ByteStore::Read(std::uint64_t offset, void* out, std::uint64_t len) const {
  std::uint8_t* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    auto it = chunks_.find(chunk_idx);
    if (it == chunks_.end()) {
      std::memset(dst, 0, n);
    } else {
      std::memcpy(dst, it->second.data() + in_chunk, n);
    }
    dst += n;
    offset += n;
    len -= n;
  }
}

void ByteStore::Erase(std::uint64_t offset, std::uint64_t len) {
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    if (in_chunk == 0 && n == chunk_size_) {
      chunks_.erase(chunk_idx);
    } else {
      auto it = chunks_.find(chunk_idx);
      if (it != chunks_.end()) {
        std::memset(it->second.data() + in_chunk, 0, n);
      }
    }
    offset += n;
    len -= n;
  }
}

void ByteStore::SaveState(StateWriter& w) const {
  w.U64(chunk_size_);
  std::vector<std::uint64_t> indices;
  indices.reserve(chunks_.size());
  for (const auto& [idx, chunk] : chunks_) {
    indices.push_back(idx);
  }
  std::sort(indices.begin(), indices.end());
  w.U64(indices.size());
  for (const std::uint64_t idx : indices) {
    w.U64(idx);
    w.VecU8(chunks_.at(idx));
  }
}

void ByteStore::LoadState(StateReader& r) {
  const std::uint64_t chunk_size = r.U64();
  if (r.ok() && chunk_size != chunk_size_) {
    r.Fail("ByteStore chunk size mismatch");
    return;
  }
  chunks_.clear();
  const std::uint64_t n = r.U64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::uint64_t idx = r.U64();
    std::vector<std::uint8_t> chunk = r.VecU8();
    if (r.ok() && chunk.size() != chunk_size_) {
      r.Fail("ByteStore chunk " + std::to_string(idx) + " has wrong size");
      return;
    }
    if (r.ok()) {
      chunks_[idx] = std::move(chunk);
    }
  }
}

}  // namespace fabacus
